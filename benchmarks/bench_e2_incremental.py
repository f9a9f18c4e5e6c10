"""E2 `incremental-update` -- paper 3.3 "accelerating deployment updates".

Claim: "even a single resource update will trigger expensive queries on
all cloud-level resource state and recomputation of the deployment plan
from the ground up." Arms: full-refresh replan (the Terraform baseline,
``UpdatePipeline``) vs the engine's own plan of the edit: the
``CloudlessEngine`` that deployed the program (its apply proved what it
committed) watches the activity logs for drift and plans the edit's
impact scope. Expected
shape: API calls and turnaround scale with estate size for the baseline
but with delta size for cloudless. Both arms print the same plan.
"""

from repro.deploy import UpdatePipeline
from repro.lang import Configuration
from repro.workloads import microservices

from _support import Table, deploy_engine, record

SIZES = [4, 8, 16]  # services; ~12, ~25, ~50 aws resources + substrate
BASELINE = "full-refresh (terraform)"
ENGINE = "engine (impact-scoped)"


def single_resource_delta(source):
    # edit exactly one dns record (first occurrence only)
    return source.replace('zone  = "example.sim"', 'zone  = "edited.sim"', 1)


def baseline_arm(engine, new_source):
    """(plan, refresh calls, refresh s, turnaround s, nodes diffed)"""
    outcome = UpdatePipeline(engine.gateway).plan_update(
        Configuration.parse(new_source), engine.state
    )
    return (
        outcome.plan,
        outcome.refresh.api_calls,
        outcome.refresh.duration_s,
        outcome.turnaround_s,
        len(outcome.graph),
    )


def engine_arm(engine, new_source):
    """Same shape as :func:`baseline_arm`: the log watch is the refresh."""
    started, calls = engine.clock.now, engine.gateway.total_api_calls()
    engine.watch()
    refresh_calls = engine.gateway.total_api_calls() - calls
    refresh_s = engine.clock.now - started
    plan = engine.plan(new_source)
    return (
        plan,
        refresh_calls,
        refresh_s,
        engine.clock.now - started,
        engine.last_plan_scope[0],
    )


def run_experiment():
    table = Table(
        "E2: update turnaround, full refresh vs impact-scoped",
        [
            "services",
            "estate",
            "arm",
            "refresh_api_calls",
            "refresh_s",
            "turnaround_s",
            "scope",
        ],
    )
    headline = {}
    for services in SIZES:
        source = microservices(services=services, vms_per_service=2)
        new_source = single_resource_delta(source)
        rendered = {}
        for arm in (BASELINE, ENGINE):
            engine = deploy_engine(source, seed=200 + services)
            estate = len(engine.state)
            if arm == BASELINE:
                outcome = baseline_arm(engine, new_source)
            else:
                outcome = engine_arm(engine, new_source)
            plan, calls, refresh_s, turnaround_s, scope = outcome
            rendered[arm] = plan.render()
            table.add(services, estate, arm, calls, refresh_s, turnaround_s, scope)
            headline[f"{services}|{arm}|api"] = calls
            headline[f"{services}|{arm}|turnaround"] = round(turnaround_s, 2)
            headline[f"{services}|{arm}|scope"] = scope
        headline[f"{services}|same_plan"] = rendered[BASELINE] == rendered[ENGINE]
    return table, headline


def test_e2_incremental(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    # both arms plan the edit the same way
    assert all(headline[f"{services}|same_plan"] for services in SIZES)
    # shape: baseline refresh cost grows with estate; scoped cost does not
    big = SIZES[-1]
    small = SIZES[0]
    assert headline[f"{big}|{BASELINE}|api"] > headline[f"{small}|{BASELINE}|api"] * 2
    assert headline[f"{big}|{ENGINE}|api"] <= headline[f"{small}|{ENGINE}|api"] + 2
    assert headline[f"{big}|{ENGINE}|scope"] == headline[f"{small}|{ENGINE}|scope"]
    assert (
        headline[f"{big}|{ENGINE}|turnaround"]
        < headline[f"{big}|{BASELINE}|turnaround"]
    )


if __name__ == "__main__":
    print(run_experiment()[0].render())
