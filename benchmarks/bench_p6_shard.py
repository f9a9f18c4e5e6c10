"""P6 `shard` -- sharded apply at estate scale.

Two claims, each gated:

* **Golden equivalence**: the sharded executor's apply is
  byte-identical to the single ``CriticalPathExecutor`` -- same
  simulated makespan, same final state JSON -- at every size run,
  including the 100k-resource scaling tier.
* **Speedup**: following the repo's speedup-measurement convention
  (``bench_p1_scale.py --reference``), the sharded apply is compared
  against the frozen pre-optimization executor from
  ``repro.deploy.reference``; ``--min-speedup`` gates the ratio.

CI runs the smoke tier::

    python benchmarks/bench_p6_shard.py --sizes 1000 --providers 4 \
        --reference --min-speedup 2.0 --out /tmp/BENCH_shard.json

The checked-in ``BENCH_shard.json`` is the full run
(``--sizes 10000,100000 --reference``).
"""

from __future__ import annotations

import argparse
import hashlib
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
from repro.deploy import CriticalPathExecutor, ShardedExecutor
from repro.deploy.incremental import read_data_sources
from repro.deploy.reference import REFERENCE_FOR
from repro.graph import Planner, build_graph
from repro.graph.critical_path import clear_analysis_cache
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import scale_estate_sharded


def build_plan(graph, seed: int, synthetic: int):
    clear_analysis_cache()
    gateway = CloudGateway.simulated(seed=seed, synthetic=synthetic)
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


def state_sha(result) -> str:
    return hashlib.sha256(result.state.to_json().encode()).hexdigest()


def content_sha(result) -> str:
    """Canonical state fingerprint: excludes timestamps and serial."""
    return result.state.content_hash()


def run_arm(graph, seed: int, synthetic: int, factory, label: str) -> Dict[str, Any]:
    """Plan + apply on a fresh simulated estate; returns timings and
    the final-state fingerprint for equivalence checks."""
    gateway, plan, plan_s = build_plan(graph, seed, synthetic)
    executor = factory(gateway)
    perf.reset()
    perf.enable()
    t0 = time.perf_counter()
    result = executor.apply(plan)
    wall = time.perf_counter() - t0
    snap = perf.snapshot()
    perf.disable()
    assert result.ok, f"{label}: apply failed: {result.failed}"
    row = {
        "arm": label,
        "n_changes": len(plan.changes),
        "plan_s": round(plan_s, 4),
        "apply_wall_s": round(wall, 4),
        "makespan_sim_s": round(result.makespan_s, 3),
        "api_calls": result.api_calls,
        "state_sha": state_sha(result),
        "content_sha": content_sha(result),
    }
    counters = snap["counters"]
    for key in (
        "shard.shards",
        "shard.cross_edges",
        "shard.dispatches",
        "shard.barrier_waits",
        "shard.parked_changes",
    ):
        if key in counters:
            row[key] = counters[key]
    merge = snap["timers"].get("shard.merge_ms")
    if merge:
        row["shard.merge_ms"] = round(merge["total_s"], 3)
    return row


def bench(args: argparse.Namespace) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []
    cpus = os.cpu_count() or 1
    for size in args.sizes:
        source = scale_estate_sharded(
            size,
            providers=args.providers,
            cross_link_every=args.cross_link_every,
        )
        t0 = time.perf_counter()
        graph = build_graph(Configuration.parse(source))
        build_s = time.perf_counter() - t0
        print(f"size={size}: graph built in {build_s:.2f}s", file=sys.stderr)

        single = run_arm(
            graph, args.seed, args.providers,
            lambda gw: CriticalPathExecutor(gw, concurrency=args.concurrency),
            "critical-path",
        )
        sharded = run_arm(
            graph, args.seed, args.providers,
            lambda gw: ShardedExecutor(gw, concurrency=args.concurrency),
            "sharded",
        )
        for row in (single, sharded):
            row["size"] = size
            row["graph_build_s"] = round(build_s, 4)
        # golden equivalence: scheduling is invisible in every observable
        if sharded["makespan_sim_s"] != single["makespan_sim_s"]:
            failures.append(
                f"{size}: makespan diverged "
                f"({sharded['makespan_sim_s']} vs {single['makespan_sim_s']})"
            )
        if sharded["state_sha"] != single["state_sha"]:
            failures.append(f"{size}: final state diverged")
        rows.extend((single, sharded))

        if args.reference and size <= args.reference_max_size:
            ref = run_arm(
                graph, args.seed, args.providers,
                lambda gw: REFERENCE_FOR[CriticalPathExecutor](
                    gw, concurrency=args.concurrency
                ),
                "reference",
            )
            ref["size"] = size
            if ref["makespan_sim_s"] != sharded["makespan_sim_s"]:
                failures.append(f"{size}: reference makespan diverged")
            speedup = ref["apply_wall_s"] / max(sharded["apply_wall_s"], 1e-9)
            sharded["speedup_vs_reference"] = round(speedup, 2)
            rows.append(ref)
            if args.min_speedup and speedup < args.min_speedup:
                failures.append(
                    f"{size}: sharded speedup {speedup:.2f}x vs reference "
                    f"< gate {args.min_speedup}x"
                )

        for row in rows:
            if row["size"] != size:
                continue
            print(
                f"  {row['arm']:14s} n={row['n_changes']:7d} "
                f"apply={row['apply_wall_s']:8.2f}s "
                f"makespan={row['makespan_sim_s']:10.1f}s"
                + (
                    f" speedup={row['speedup_vs_reference']}x"
                    if "speedup_vs_reference" in row
                    else ""
                ),
                file=sys.stderr,
            )

    return {
        "benchmark": "p6_shard",
        "workload": "scale_estate_sharded",
        "seed": args.seed,
        "providers": args.providers,
        "concurrency": args.concurrency,
        "cpus": cpus,
        "sizes": args.sizes,
        "results": rows,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000")
    parser.add_argument("--providers", type=int, default=4)
    parser.add_argument(
        "--cross-link-every",
        type=int,
        default=5,
        help="every k-th service depends on the previous provider's lb",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--concurrency", type=int, default=10)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="run the frozen pre-optimization executor and gate the speedup",
    )
    parser.add_argument(
        "--reference-max-size",
        type=int,
        default=20000,
        help="skip the reference arm above this size (it is O(n^2)-slow)",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BENCH_shard.json"
        ),
    )
    args = parser.parse_args(argv)
    args.sizes = [int(s) for s in str(args.sizes).split(",") if s]

    report = bench(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if report["failures"]:
        for line in report["failures"]:
            print(f"GATE FAILED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
