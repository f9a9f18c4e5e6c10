"""P1 `scale` -- wall-clock cost of plan -> schedule -> apply at estate scale.

Unlike the E-series benchmarks (which report *simulated* makespans),
this one measures the framework's own overhead: how much real CPU time
the planner and each executor burn driving a 1k / 4k / 10k resource
estate, and what the peak per-dispatch cost is. The numbers land in
``BENCH_scale.json`` (see ``docs/performance.md`` for how to read it).

With ``--reference`` every run is repeated with the frozen
pre-optimization executors from ``repro.deploy.reference``, reporting
the speedup -- scheduling decisions are asserted identical (same
simulated makespan), so the speedup is pure overhead reduction.

CI runs the smoke tier::

    python benchmarks/bench_p1_scale.py --sizes 1000 \
        --executors critical-path --budget-s 60 --reference \
        --out /tmp/BENCH_scale.json

which exits non-zero if any apply exceeds the wall-clock budget, or if
its simulated makespan differs from the reference executor's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import perf
from repro.cloud import CloudGateway
from repro.deploy import (
    BestEffortExecutor,
    CriticalPathExecutor,
    SequentialExecutor,
)
from repro.deploy.reference import REFERENCE_FOR
from repro.graph import Planner, build_graph, read_data_sources
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import scale_estate

EXECUTORS = {
    "sequential": SequentialExecutor,
    "best-effort": BestEffortExecutor,
    "critical-path": CriticalPathExecutor,
}


def build_plan(graph, seed: int):
    """Fresh gateway + plan for one executor run (runs never share
    limiter or estate state, so arms are comparable)."""
    clear_analysis_cache()
    gateway = CloudGateway.simulated(seed=seed)
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    data = read_data_sources(gateway, graph, state)
    t0 = time.perf_counter()
    plan = planner.plan(graph, state, data_values=data)
    return gateway, plan, time.perf_counter() - t0


def make_executor(cls, gateway, concurrency: int):
    if cls in (SequentialExecutor, REFERENCE_FOR[SequentialExecutor]):
        return cls(gateway)
    return cls(gateway, concurrency=concurrency)


def run_one(graph, cls, seed: int, concurrency: int) -> Dict[str, Any]:
    gateway, plan, plan_s = build_plan(graph, seed)
    executor = make_executor(cls, gateway, concurrency)
    perf.reset()
    perf.enable()
    t0 = time.perf_counter()
    result = executor.apply(plan)
    wall = time.perf_counter() - t0
    snap = perf.snapshot()
    perf.disable()
    assert result.ok, f"{executor.name}: apply failed: {result.failed}"
    pick = snap["timers"].get("executor.pick_next", {})
    return {
        "n_changes": len(plan.changes),
        "plan_s": round(plan_s, 4),
        "apply_wall_s": round(wall, 4),
        "makespan_sim_s": round(result.makespan_s, 3),
        "operations": len(result.operations),
        "api_calls": result.api_calls,
        "dispatches": snap["counters"].get("executor.dispatches", 0),
        "pick_total_s": round(pick.get("total_s", 0.0), 6),
        "pick_max_s": round(pick.get("max_s", 0.0), 9),
    }


def bench(args: argparse.Namespace) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    over_budget: List[str] = []
    for size in args.sizes:
        source = scale_estate(size)
        t0 = time.perf_counter()
        graph = build_graph(Configuration.parse(source))
        build_s = time.perf_counter() - t0
        for name in args.executors:
            cls = EXECUTORS[name]
            row: Dict[str, Any] = {"size": size, "executor": name}
            row["graph_build_s"] = round(build_s, 4)
            row.update(run_one(graph, cls, args.seed, args.concurrency))
            if args.reference:
                ref = run_one(
                    graph, REFERENCE_FOR[cls], args.seed, args.concurrency
                )
                assert ref["makespan_sim_s"] == row["makespan_sim_s"], (
                    f"{name}@{size}: optimized and reference executors "
                    f"diverged ({row['makespan_sim_s']} vs "
                    f"{ref['makespan_sim_s']} simulated seconds)"
                )
                row["reference_apply_wall_s"] = ref["apply_wall_s"]
                row["reference_pick_max_s"] = ref["pick_max_s"]
                row["speedup"] = round(
                    ref["apply_wall_s"] / max(row["apply_wall_s"], 1e-9), 2
                )
            if args.budget_s and row["apply_wall_s"] > args.budget_s:
                over_budget.append(
                    f"{name}@{size}: {row['apply_wall_s']:.2f}s "
                    f"> budget {args.budget_s:.0f}s"
                )
            rows.append(row)
            print(
                f"  {name:14s} n={row['n_changes']:6d} "
                f"plan={row['plan_s']:.2f}s apply={row['apply_wall_s']:.2f}s "
                f"pick_max={row['pick_max_s'] * 1e6:.0f}us"
                + (f" speedup={row['speedup']}x" if "speedup" in row else ""),
                file=sys.stderr,
            )
    return {
        "benchmark": "p1_scale",
        "workload": "scale_estate",
        "seed": args.seed,
        "concurrency": args.concurrency,
        "sizes": args.sizes,
        "results": rows,
        "over_budget": over_budget,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="1000,4000,10000",
        help="comma-separated estate sizes (resources)",
    )
    parser.add_argument(
        "--executors",
        default="sequential,best-effort,critical-path",
        help=f"comma-separated subset of {sorted(EXECUTORS)}",
    )
    parser.add_argument(
        "--reference",
        action="store_true",
        help="also run the frozen pre-optimization executors and report speedup",
    )
    parser.add_argument(
        "--budget-s",
        type=float,
        default=0.0,
        help="fail (exit 1) if any optimized apply exceeds this wall-clock budget",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--concurrency", type=int, default=10)
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_scale.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    args.sizes = [int(s) for s in str(args.sizes).split(",") if s]
    args.executors = [e.strip() for e in str(args.executors).split(",") if e.strip()]
    for e in args.executors:
        if e not in EXECUTORS:
            parser.error(f"unknown executor {e!r} (choose from {sorted(EXECUTORS)})")

    report = bench(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if report["over_budget"]:
        for line in report["over_budget"]:
            print(f"BUDGET EXCEEDED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
