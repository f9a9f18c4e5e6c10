"""E6 `validation` -- paper 3.2, "Validating IaC infrastructure".

Claim: grammatically-correct programs still fail at deploy time;
semantic types catch the stringly-typed class of bugs, and cloud-level
constraint rules (hand-written or mined from healthy deployments) catch
cross-resource violations -- all at compile time, before any resource
exists. Arms: syntax-only (terraform validate), +semantic types,
+cloud-specific rules, and mined-rules-only. Metrics: catch rate per
mutation class, and the deploy-time cost (simulated minutes + API calls
wasted) of every escaped bug.
"""

import pytest

from repro.core import CloudlessEngine
from repro.lang import Configuration
from repro.validate import (
    DeploymentExample,
    LEVEL_RULES,
    LEVEL_SYNTAX,
    LEVEL_TYPES,
    RuleEngine,
    SpecificationMiner,
    ValidationContext,
    ValidationPipeline,
)
from repro.workloads import ConfigMutator, hub_spoke, web_tier

from _support import Table, record, stable_seed

KINDS = [
    "unknown_attr",
    "bad_enum",
    "wrong_ref_type",
    "drop_required",
    "invalid_cidr",
    "bad_region",
    "region_mismatch",
    "cidr_outside_parent",
    "password_rule",
    "duplicate_name",
]
TRIALS_PER_KIND = 5


def base_source():
    return web_tier() + hub_spoke(name="hub2")


def mined_engine():
    sources = []
    for i in range(6):
        src = hub_spoke(spokes=1, name=f"m{i}") + web_tier(name=f"mw{i}")
        # two thirds of the healthy corpus uses password-authenticated
        # VMs -- always with disable_password_auth = false (the
        # invariant to mine); the rest uses key-based auth
        if i < 4:
            src = src.replace(
                "nic_ids  = [azure_network_interface.",
                'admin_password        = "S3cret-' + str(i) + '!"\n'
                "  disable_password_auth = false\n"
                "  nic_ids  = [azure_network_interface.",
                1,
            )
        sources.append(src)
    examples = [
        DeploymentExample.from_config(Configuration.parse(s)) for s in sources
    ]
    rules = SpecificationMiner(min_support=3).mine(examples)
    return RuleEngine(rules), len(rules)


def deploy_cost_of_escape(config, seed):
    """What an escaped bug costs: sim time + API calls until the error."""
    engine = CloudlessEngine(seed=seed)
    start_t = engine.clock.now
    try:
        result = engine.apply(config, validate_first=False, admit=False)
    except Exception:
        # plan-time failure (e.g. a mutated reference formed a cycle):
        # caught before any cloud call, so no deploy time is wasted
        return None
    if result.apply is None or result.apply.ok:
        return None  # did not actually fail at the cloud (latent bug)
    return {
        "wasted_s": engine.clock.now - start_t,
        "wasted_calls": engine.gateway.total_api_calls(),
    }


def run_experiment():
    mined, n_mined = mined_engine()
    # credibility check: mined rules must not flag the clean config
    clean_ctx = ValidationContext.build(Configuration.parse(base_source()))
    mined_false_positives = len(mined.run(clean_ctx).errors)
    arms = {
        "syntax (terraform validate)": lambda cfg: ValidationPipeline(
            level=LEVEL_SYNTAX
        ).validate(cfg),
        "+semantic types": lambda cfg: ValidationPipeline(
            level=LEVEL_TYPES
        ).validate(cfg),
        "+cloud rules (cloudless)": lambda cfg: ValidationPipeline(
            level=LEVEL_RULES
        ).validate(cfg),
    }

    caught = {arm: 0 for arm in arms}
    caught_mined_rule_level = 0
    rule_level_total = 0
    total = 0
    wasted_time = 0.0
    wasted_calls = 0
    escapes_that_fail = 0

    per_kind = {kind: {arm: 0 for arm in arms} for kind in KINDS}
    for kind in KINDS:
        for trial in range(TRIALS_PER_KIND):
            seed = stable_seed(kind, trial)
            config = Configuration.parse(base_source())
            mutation = ConfigMutator(seed=seed).apply_kind(config, kind)
            total += 1
            for arm, run in arms.items():
                report = run(config)
                if not report.ok:
                    caught[arm] += 1
                    per_kind[kind][arm] += 1
            # mined-rules arm (only meaningful for rule-level bugs)
            if mutation.catchable_at == "rules":
                rule_level_total += 1
                try:
                    ctx = ValidationContext.build(config)
                    if mined.run(ctx).has_errors():
                        caught_mined_rule_level += 1
                except Exception:
                    pass
            # deploy-time cost when syntax-level validation lets it through
            cost = deploy_cost_of_escape(config, seed)
            if cost is not None:
                escapes_that_fail += 1
                wasted_time += cost["wasted_s"]
                wasted_calls += cost["wasted_calls"]

    table = Table(
        "E6: compile-time catch rate per mutation class (5 trials each)",
        ["mutation"] + [a.split(" (")[0] for a in arms],
    )
    for kind in KINDS:
        table.add(
            kind,
            *[f"{per_kind[kind][arm]}/{TRIALS_PER_KIND}" for arm in arms],
        )
    summary = Table(
        "E6 summary",
        ["metric", "value"],
    )
    for arm in arms:
        summary.add(f"catch rate: {arm}", f"{caught[arm]}/{total}")
    summary.add(
        "catch rate: mined rules (rule-level bugs only)",
        f"{caught_mined_rule_level}/{rule_level_total}",
    )
    summary.add("mined rules learned / false positives on clean config",
                f"{n_mined} / {mined_false_positives}")
    summary.add("bugs that errored at deploy time", f"{escapes_that_fail}/{total}")
    summary.add(
        "mean sim-time wasted per escaped bug (s)",
        wasted_time / max(1, escapes_that_fail),
    )
    summary.add(
        "mean API calls wasted per escaped bug",
        wasted_calls / max(1, escapes_that_fail),
    )
    headline = {
        "catch_syntax": caught["syntax (terraform validate)"] / total,
        "catch_types": caught["+semantic types"] / total,
        "catch_rules": caught["+cloud rules (cloudless)"] / total,
        "catch_mined_rule_level": caught_mined_rule_level / max(1, rule_level_total),
        "mined_false_positives": mined_false_positives,
        "mean_wasted_s": wasted_time / max(1, escapes_that_fail),
    }
    return table, summary, headline


def test_e6_validation(benchmark):
    table, summary, headline = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    record(benchmark, table, **headline)
    summary.show()
    benchmark.extra_info["summary"] = summary.render()
    # the paper's ladder: each level strictly adds catching power
    assert headline["catch_syntax"] == 0.0  # all mutations compile
    assert 0.4 <= headline["catch_types"] < 1.0
    assert headline["catch_rules"] == 1.0
    # mined rules recover most hand-written cross-resource checks
    assert headline["catch_mined_rule_level"] >= 0.4
    assert headline["mined_false_positives"] == 0
    # escaped bugs waste real deploy time
    assert headline["mean_wasted_s"] > 30.0


if __name__ == "__main__":
    table, summary, _ = run_experiment()
    print(table.render())
    print(summary.render())
