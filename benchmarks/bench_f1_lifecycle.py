"""F1 `figure-lifecycle` -- the paper's Figure 1, quantified.

One estate pushed through the full lifecycle -- develop (port an
existing ClickOps estate), validate a buggy change, deploy, update,
detect+repair drift, roll back -- under two stacks:

* **state of the art** (Figure 1a): naive export, syntax-only
  validation (bugs fail at the cloud), best-effort walk, full-refresh
  updates, periodic full-scan drift detection, naive rollback;
* **cloudless** (Figure 1b): one ``CloudlessEngine`` -- structured
  import, full validation, critical-path scheduling, updates it plans
  over the edit's impact scope after a log watch, log-watch drift
  detection + reconciliation, reversibility-aware rollback.

Metric per stage: simulated wall-clock and API calls; plus end-state
health (does the estate converge to intent?).
"""

import pytest

from repro.core import CloudlessEngine
from repro.deploy import UpdatePipeline
from repro.drift import FullScanDetector
from repro.lang import Configuration
from repro.update import (
    NaiveRollback,
    ReversibilityAwareRollback,
    measure_divergence,
)
from repro.validate import LEVEL_RULES, LEVEL_SYNTAX, ValidationPipeline
from repro.workloads import ConfigMutator, web_tier

from _support import Table, record


def stage(engine, fn):
    """Run one lifecycle stage, returning (sim_s, api_calls, value)."""
    t0 = engine.clock.now
    c0 = engine.gateway.total_api_calls()
    value = fn()
    return engine.clock.now - t0, engine.gateway.total_api_calls() - c0, value


def seed_clickops_estate(engine):
    plane = engine.gateway.planes["aws"]
    vpc = plane.external_create(
        "aws_vpc", {"name": "legacy", "cidr_block": "10.9.0.0/16"}, "us-east-1"
    )
    for i in range(4):
        plane.external_create(
            "aws_subnet",
            {"name": f"legacy-{i}", "vpc_id": vpc, "cidr_block": f"10.9.{i}.0/24"},
            "us-east-1",
        )


def run_stack(cloudless: bool, seed=1100):
    engine = CloudlessEngine(
        seed=seed,
        executor="critical-path" if cloudless else "best-effort",
        validation_level=LEVEL_RULES if cloudless else LEVEL_SYNTAX,
    )
    report = {}

    # -- develop: port the pre-existing ClickOps estate ----------------------
    seed_clickops_estate(engine)
    if cloudless:
        sim, calls, project = stage(engine, lambda: engine.import_estate())
    else:
        from repro.porting import NaiveExporter

        def naive_import():
            project = NaiveExporter().export(engine.gateway)
            engine.state = project.state.copy()
            return project

        sim, calls, project = stage(engine, naive_import)
    report["develop (port estate)"] = (sim, calls)

    # -- validate: a buggy change lands in review -----------------------------
    buggy = Configuration.parse(web_tier(web_vms=3) + "\n" + project.main_source)
    ConfigMutator(seed=7).apply_kind(buggy, "bad_enum")

    def validate_and_deploy_buggy():
        validation = engine.validation.validate(buggy)
        if not validation.ok:
            return "caught at compile time"
        result = engine.apply(buggy, validate_first=False, admit=False)
        return "failed at the cloud" if not result.ok else "deployed (latent!)"

    sim, calls, verdict = stage(engine, validate_and_deploy_buggy)
    report["validate (buggy change)"] = (sim, calls)
    report["_verdict"] = verdict

    # -- deploy: the (fixed) change ships -------------------------------------
    good = web_tier(web_vms=3) + "\n" + project.main_source
    sim, calls, result = stage(engine, lambda: engine.apply(good))
    assert result.ok, (result.apply and result.apply.failed) or result.validation
    report["deploy (new stack)"] = (sim, calls)
    v_deployed = result.snapshot_version

    # -- update: a one-attribute tweak ----------------------------------------
    tweaked = good.replace('size    = "medium"', 'size    = "large"')

    def run_update():
        if cloudless:
            engine.watch()  # what moved in the cloud, read from its logs
        else:
            UpdatePipeline(engine.gateway).plan_update(
                Configuration.parse(tweaked), engine.state
            )
        result = engine.apply(tweaked, validate_first=False, admit=False)
        assert result.ok

    sim, calls, _ = stage(engine, run_update)
    report["update (1-attr delta)"] = (sim, calls)

    # -- observe/repair: out-of-band drift -------------------------------------
    vm = next(
        e
        for e in engine.state.resources()
        if e.address.type == "aws_virtual_machine"
    )
    engine.gateway.planes["aws"].external_update(
        vm.resource_id, {"size": "xlarge"}, actor="script"
    )

    def detect_and_repair():
        if cloudless:
            engine.clock.advance_by(60.0)  # next poll tick
            findings = engine.watch().findings
        else:
            engine.clock.advance_by(600.0)  # next scheduled scan
            findings = [
                f
                for f in FullScanDetector(engine.gateway).scan(engine.state).findings
                if f.kind == "modified"
            ]
        engine.reconcile(findings)
        return len(findings)

    sim, calls, found = stage(engine, detect_and_repair)
    assert found >= 1
    report["diagnose (drift+repair)"] = (sim, calls)

    # -- rollback to the post-deploy snapshot -----------------------------------
    # first let something irreversible happen out of band
    engine.gateway.planes["aws"].external_update(
        vm.resource_id, {"network_settings": "custom"}, actor="script"
    )
    snapshot = engine.history.get(v_deployed)
    planner = (
        ReversibilityAwareRollback(engine.gateway)
        if cloudless
        else NaiveRollback(engine.gateway)
    )

    def run_rollback():
        plan = planner.plan(snapshot, engine.state)
        planner.execute(plan, engine.state)
        return measure_divergence(engine.gateway, snapshot, engine.state)

    sim, calls, divergence = stage(engine, run_rollback)
    report["rollback (to snapshot)"] = (sim, calls)
    report["_final_divergence"] = divergence
    return report


def run_experiment():
    baseline = run_stack(cloudless=False)
    cloudless = run_stack(cloudless=True)
    stages = [k for k in baseline if not k.startswith("_")]
    table = Table(
        "F1: full lifecycle, state of the art vs cloudless",
        ["stage", "baseline_s", "baseline_calls", "cloudless_s", "cloudless_calls"],
    )
    for key in stages:
        table.add(key, baseline[key][0], baseline[key][1], cloudless[key][0], cloudless[key][1])
    total_b = sum(baseline[k][0] for k in stages)
    total_c = sum(cloudless[k][0] for k in stages)
    calls_b = sum(baseline[k][1] for k in stages)
    calls_c = sum(cloudless[k][1] for k in stages)
    table.add("TOTAL", total_b, calls_b, total_c, calls_c)
    headline = {
        "baseline_total_s": round(total_b, 1),
        "cloudless_total_s": round(total_c, 1),
        "baseline_calls": calls_b,
        "cloudless_calls": calls_c,
        "baseline_verdict": baseline["_verdict"],
        "cloudless_verdict": cloudless["_verdict"],
        "baseline_divergence": baseline["_final_divergence"],
        "cloudless_divergence": cloudless["_final_divergence"],
    }
    return table, headline


def test_f1_lifecycle(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    # the buggy change is caught at compile time only by the cloudless stack
    assert headline["cloudless_verdict"] == "caught at compile time"
    assert headline["baseline_verdict"] == "failed at the cloud"
    # the cloudless lifecycle ends converged; the baseline does not
    assert headline["cloudless_divergence"] == 0
    assert headline["baseline_divergence"] > 0
    # and it is cheaper end to end, in both time and API quota
    assert headline["cloudless_total_s"] < headline["baseline_total_s"]
    assert headline["cloudless_calls"] < headline["baseline_calls"]


if __name__ == "__main__":
    print(run_experiment()[0].render())
