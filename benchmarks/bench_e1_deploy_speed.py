"""E1 `deploy-speed` -- paper 3.3, Figure 1(a) "suboptimal deployment".

Claim: best-effort graph walks leave parallelism and critical-path
opportunities on the table. Arms: sequential floor, Terraform-style
best-effort walk (baseline), cloudless critical-path scheduler, and the
rate-awareness ablation. Expected shape: CP <= best-effort << sequential,
with the gap widest on wide graphs and on the gateway-dominated Azure
topology (the critical path is the 25-minute VPN gateway).
"""

import pytest

from repro.cloud import CloudGateway
from repro.deploy import (
    BestEffortExecutor,
    CriticalPathExecutor,
    SequentialExecutor,
)
from repro.graph import Planner, analyze, build_graph, read_data_sources
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import hub_spoke, microservices, web_tier

from _support import Table, record

TOPOLOGIES = {
    "web-tier (narrow)": web_tier(web_vms=6, app_vms=4),
    "microservices (wide)": microservices(services=8, vms_per_service=2),
    "hub-spoke (deep, azure)": hub_spoke(spokes=4, vms_per_spoke=2),
}


def run_arm(source, make_executor, seed=100):
    gateway = CloudGateway.simulated(seed=seed)
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    data = read_data_sources(gateway, graph, state)
    plan = planner.plan(graph, state, data_values=data)
    analysis = analyze(plan, gateway.mean_latency)
    executor = make_executor(gateway)
    result = executor.apply(plan)
    assert result.ok, result.failed
    return result, analysis, len(graph)


ARMS = {
    "sequential": lambda gw: SequentialExecutor(gw),
    "best-effort (terraform)": lambda gw: BestEffortExecutor(gw, concurrency=10),
    "critical-path": lambda gw: CriticalPathExecutor(gw, concurrency=10),
    "critical-path (no rate-awareness)": lambda gw: CriticalPathExecutor(
        gw, concurrency=10, rate_aware=False
    ),
}


def run_experiment():
    table = Table(
        "E1: deployment makespan by scheduler (simulated seconds)",
        ["topology", "n", "arm", "makespan_s", "speedup_vs_seq", "cp_bound_s"],
    )
    headline = {}
    for topo_name, source in TOPOLOGIES.items():
        baseline = None
        for arm_name, make in ARMS.items():
            result, analysis, n = run_arm(source, make)
            if baseline is None:
                baseline = result.makespan_s
            table.add(
                topo_name,
                n,
                arm_name,
                result.makespan_s,
                baseline / result.makespan_s,
                analysis.critical_length_s,
            )
            headline[f"{topo_name}|{arm_name}"] = round(result.makespan_s, 1)
    return table, headline


def run_concurrency_sweep():
    """Figure-style series: CP's edge grows as worker slots shrink."""
    table = Table(
        "E1b: best-effort vs critical-path under constrained concurrency",
        ["concurrency", "best_effort_s", "critical_path_s", "cp_gain"],
    )
    source = web_tier(web_vms=12, app_vms=6)
    series = {}
    for k in (2, 3, 4, 6, 10):
        be, _, _ = run_arm(
            source, lambda gw: BestEffortExecutor(gw, concurrency=k)
        )
        cp, _, _ = run_arm(
            source, lambda gw: CriticalPathExecutor(gw, concurrency=k)
        )
        gain = be.makespan_s / cp.makespan_s
        table.add(k, be.makespan_s, cp.makespan_s, gain)
        series[k] = gain
    return table, series


def test_e1_deploy_speed(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    # shape assertions: CP never slower than best-effort; both crush
    # sequential on the wide topology
    wide_seq = headline["microservices (wide)|sequential"]
    wide_be = headline["microservices (wide)|best-effort (terraform)"]
    wide_cp = headline["microservices (wide)|critical-path"]
    assert wide_cp <= wide_be * 1.05
    assert wide_cp < wide_seq / 3


def test_e1b_concurrency_sweep(benchmark):
    table, series = benchmark.pedantic(
        run_concurrency_sweep, rounds=1, iterations=1
    )
    record(benchmark, table, **{f"gain@k={k}": round(v, 3) for k, v in series.items()})
    # CP's advantage is largest when slots are scarce and fades when
    # every ready op fits in a slot
    assert series[4] > 1.1
    assert series[10] >= 0.99


if __name__ == "__main__":
    print(run_experiment()[0].render())
    print(run_concurrency_sweep()[0].render())
