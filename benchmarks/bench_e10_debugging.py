"""E10 `debugging` -- paper 3.5, "IaC debugging and repair".

Claim: provider error messages "do not even pinpoint the specific lines
of code as to which parameter is causing the anomaly"; a debugger should
correlate the cloud-level error to the IaC program and suggest fixes.
Arms: raw provider message (baseline -- zero localization by
construction) vs the cloudless debugger. Metrics per fault class:
resource localization, attribute localization, source-line pointer,
actionable fix suggested, and auto-repair success (fix applied, apply
retried, deployment green).
"""

import pytest

from repro.core import CloudlessEngine
from repro.debug import apply_diagnoses
from repro.lang import Configuration
from repro.workloads import ConfigMutator, hub_spoke, web_tier

from _support import Table, record, stable_seed

# fault classes that actually error out at the cloud (deploy-time bugs)
FAULT_KINDS = [
    "region_mismatch",
    "password_rule",
    "cidr_outside_parent",
    "duplicate_name",
    "bad_enum",
    "wrong_ref_type",
    "drop_required",
]
TRIALS = 4


def run_case(kind, trial):
    seed = stable_seed(kind, trial)
    source = web_tier() + hub_spoke(name="hub2")
    config = Configuration.parse(source)
    mutation = ConfigMutator(seed=seed).apply_kind(config, kind)
    engine = CloudlessEngine(seed=seed % 1000)
    try:
        result = engine.apply(config, validate_first=False, admit=False)
    except Exception:
        return None  # failed before the cloud (planner); out of scope here
    if result.apply is None or result.apply.ok:
        return None  # mutation turned out benign at the cloud level
    diagnoses = result.diagnoses
    primary = diagnoses[0] if diagnoses else None
    resource_hit = any(
        d.culprit_address.startswith(mutation.target) for d in diagnoses
    )
    attr_hit = any(
        d.culprit_attr == mutation.attr
        and d.culprit_address.startswith(mutation.target)
        for d in diagnoses
    )
    line_hit = any(d.span is not None for d in diagnoses)
    has_fix = any(d.fixes for d in diagnoses)

    # auto-repair: apply fixes and retry on fresh clouds
    repaired = False
    fresh_config = Configuration.parse(source)
    ConfigMutator(seed=seed).apply_kind(fresh_config, kind)
    outcomes = apply_diagnoses(fresh_config, diagnoses, min_confidence=0.8)
    if any(o.applied for o in outcomes):
        retry_engine = CloudlessEngine(seed=seed % 1000 + 1)
        try:
            retry = retry_engine.apply(
                fresh_config, validate_first=False, admit=False
            )
            repaired = retry.ok
        except Exception:
            repaired = False
    return {
        "resource_hit": resource_hit,
        "attr_hit": attr_hit,
        "line_hit": line_hit,
        "has_fix": has_fix,
        "repaired": repaired,
        "confidence": primary.confidence if primary else 0.0,
    }


def run_experiment():
    table = Table(
        "E10: error correlation per fault class (cloudless debugger)",
        [
            "fault",
            "cases",
            "resource_localized",
            "attr_localized",
            "line_pointer",
            "fix_suggested",
            "auto_repaired",
        ],
    )
    totals = {
        "cases": 0,
        "resource_hit": 0,
        "attr_hit": 0,
        "line_hit": 0,
        "has_fix": 0,
        "repaired": 0,
    }
    for kind in FAULT_KINDS:
        rows = [run_case(kind, t) for t in range(TRIALS)]
        rows = [r for r in rows if r is not None]
        if not rows:
            continue
        n = len(rows)
        counts = {
            key: sum(1 for r in rows if r[key])
            for key in ("resource_hit", "attr_hit", "line_hit", "has_fix", "repaired")
        }
        table.add(
            kind,
            n,
            f"{counts['resource_hit']}/{n}",
            f"{counts['attr_hit']}/{n}",
            f"{counts['line_hit']}/{n}",
            f"{counts['has_fix']}/{n}",
            f"{counts['repaired']}/{n}",
        )
        totals["cases"] += n
        for key in counts:
            totals[key] += counts[key]
    headline = {
        "resource_localization": totals["resource_hit"] / totals["cases"],
        "line_pointer_rate": totals["line_hit"] / totals["cases"],
        "fix_rate": totals["has_fix"] / totals["cases"],
        "repair_rate": totals["repaired"] / totals["cases"],
        "raw_message_localization": 0.0,  # provider messages carry no IaC location
    }
    return table, headline


def test_e10_debugging(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    # the baseline (raw cloud message) localizes nothing by construction;
    # the debugger localizes the failing resource in (nearly) every case
    assert headline["resource_localization"] >= 0.9
    assert headline["line_pointer_rate"] == 1.0
    assert headline["fix_rate"] >= 0.7
    # a majority of deploy-time failures are fixed fully automatically
    assert headline["repair_rate"] >= 0.5


if __name__ == "__main__":
    print(run_experiment()[0].render())
