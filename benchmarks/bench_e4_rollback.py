"""E4 `rollback` -- paper 3.4, "IaC rollbacks during updates".

Claim: "simply applying a previous configuration doesn't always roll
back the infrastructure to its intended previous state" -- out-of-band
(shadow) modifications are invisible to a state-file diff, and
irreversible changes need planned replacement. Arms: naive re-apply
(baseline) vs reversibility-aware rollback, swept over the number of
shadow-modified resources. Metrics: remaining divergence (convergence),
redeployments performed (minimality), runtime errors hit.
"""

import pytest

from repro.core import CloudlessEngine
from repro.update import (
    NaiveRollback,
    ReversibilityAwareRollback,
    measure_divergence,
)
from repro.workloads import web_tier

from _support import Table, record


def scenario(shadow_mods, seed):
    """Deploy, checkpoint, shadow-drift k VMs, then scale the estate up."""
    engine = CloudlessEngine(seed=seed)
    v1 = engine.apply(web_tier(web_vms=6, app_vms=4))
    assert v1.ok
    vms = [
        e
        for e in engine.state.resources()
        if e.address.type == "aws_virtual_machine"
    ][:shadow_mods]
    for i, vm in enumerate(vms):
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"network_settings": f"custom-{i}"}, actor="script"
        )
    assert engine.apply(web_tier(web_vms=9, app_vms=4)).ok
    return engine, engine.history.get(v1.snapshot_version)


def run_experiment():
    table = Table(
        "E4: rollback convergence, naive re-apply vs reversibility-aware",
        [
            "shadow_mods",
            "arm",
            "redeployments",
            "api_calls",
            "errors",
            "divergence_after",
        ],
    )
    headline = {}
    for k in (0, 1, 3, 5):
        for arm_name, planner_cls in (
            ("naive re-apply (terraform)", NaiveRollback),
            ("reversibility-aware", ReversibilityAwareRollback),
        ):
            engine, snapshot = scenario(k, seed=400 + k)
            planner = planner_cls(engine.resilient)
            plan = planner.plan(snapshot, engine.state)
            result = planner.execute(plan, engine.state)
            divergence = measure_divergence(
                engine.gateway, snapshot, engine.state
            )
            table.add(
                k,
                arm_name,
                plan.redeployments,
                result.api_calls,
                len(result.errors),
                divergence,
            )
            headline[f"{k}|{arm_name}|divergence"] = divergence
            headline[f"{k}|{arm_name}|redeploy"] = plan.redeployments
    return table, headline


def test_e4_rollback(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    for k in (1, 3, 5):
        # cloudless always converges; naive leaves exactly the shadow
        # modifications in place
        assert headline[f"{k}|reversibility-aware|divergence"] == 0
        assert headline[f"{k}|naive re-apply (terraform)|divergence"] >= k
        # and redeploys only the irreversibly-diverged resources (plus
        # cascaded dependents, here none for app VMs / the LB for web)
        assert headline[f"{k}|reversibility-aware|redeploy"] <= k + 1
    # with no shadow drift both converge and nothing is redeployed
    assert headline["0|reversibility-aware|redeploy"] == 0
    assert headline["0|naive re-apply (terraform)|divergence"] == 0


if __name__ == "__main__":
    print(run_experiment()[0].render())
