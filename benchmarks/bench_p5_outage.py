"""P5 `outage` -- degraded-mode apply under a regional blackout.

Three arms over a two-region azure estate (stacks striped
eastus/westus2):

* **full baseline** -- fault-free apply of the whole estate;
* **reachable baseline** -- fault-free apply of only the eastus subset
  (the exact subgraph a westus2 blackout leaves reachable);
* **outage arm** -- the whole estate applied while westus2 is dark.

Gates (exit 1 on miss):

* the outage arm terminally fails **zero** resources and skips zero --
  everything unreachable is parked as ``Quarantined``;
* every reachable resource converges (same count as the reachable
  baseline);
* degraded makespan <= ``--gate-makespan`` x the reachable baseline's
  (failing fast must not slow the healthy region down);
* calls that actually hit the dark region are bounded by the breaker
  threshold plus in-flight slack -- the retry storm is provably stopped;
* after the window closes, ``resume`` drains the parked work to the
  canonical estate of the fault-free full baseline.

CI smoke tier::

    python benchmarks/bench_p5_outage.py --resources 1000 \
        --gate-makespan 1.1 --out /tmp/BENCH_outage.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))

from repro.chaos import assert_converged_like
from repro.cloud import OutageSpec
from repro.core import CloudlessEngine
from repro.workloads import two_region_estate

DARK_REGION = "westus2"
REGIONS = ("eastus", "westus2")


def timed_apply(engine, source) -> Dict[str, Any]:
    t0 = time.perf_counter()
    result = engine.apply(source)
    return {
        "result": result,
        "wall_s": time.perf_counter() - t0,
        "makespan_s": result.apply.makespan_s if result.apply else 0.0,
    }


def run(args, workdir) -> tuple:
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []

    full_src = two_region_estate(args.resources, regions=REGIONS)
    reachable_src = two_region_estate(
        args.resources, regions=REGIONS, region_filter=("eastus",)
    )

    full_engine = CloudlessEngine(seed=args.seed)
    full = timed_apply(full_engine, full_src)
    assert full["result"].ok, "full baseline apply failed"

    reachable_engine = CloudlessEngine(seed=args.seed)
    reachable = timed_apply(reachable_engine, reachable_src)
    assert reachable["result"].ok, "reachable baseline apply failed"
    reachable_count = len(reachable["result"].apply.succeeded)

    outage = OutageSpec(
        start_s=0.0,
        end_s=full["makespan_s"] * 4.0 + 50000.0,
        region=DARK_REGION,
    )
    engine = CloudlessEngine(
        seed=args.seed, wal_path=os.path.join(workdir, "outage.wal")
    )
    engine.gateway.inject_outage("azure", outage)
    dark = timed_apply(engine, full_src)
    dark_apply = dark["result"].apply

    if not dark["result"].partial:
        failures.append("outage arm did not report a partial apply")
    if dark_apply.failed:
        failures.append(
            f"outage arm terminally failed {len(dark_apply.failed)} "
            f"resource(s); expected 0 (quarantine instead)"
        )
    if dark_apply.skipped:
        failures.append(
            f"outage arm skipped {len(dark_apply.skipped)} resource(s)"
        )
    if len(dark_apply.succeeded) != reachable_count:
        failures.append(
            f"reachable subgraph did not converge: "
            f"{len(dark_apply.succeeded)} != {reachable_count}"
        )
    ratio = dark["makespan_s"] / max(reachable["makespan_s"], 1e-9)
    if ratio > args.gate_makespan:
        failures.append(
            f"degraded makespan {dark['makespan_s']:.0f}s is "
            f"{ratio:.3f}x the reachable baseline "
            f"({reachable['makespan_s']:.0f}s); allowed "
            f"{args.gate_makespan}x"
        )
    # the breaker must stop the storm: only the failures that tripped it
    # plus operations already in flight may ever reach the dark region
    hits = engine.gateway.planes["azure"].faults.outage_hits
    policy = engine.health.policy
    hit_budget = policy.failure_threshold + 2 * 10  # 10 = exec concurrency
    if hits > hit_budget:
        failures.append(
            f"retry storm into the dark region: {hits} calls hit the "
            f"outage; budget {hit_budget}"
        )

    rows.append(
        {
            "op": "degraded_apply",
            "resources": args.resources,
            "reachable_resources": reachable_count,
            "quarantined": len(dark_apply.quarantined),
            "failed": len(dark_apply.failed),
            "full_makespan_s": round(full["makespan_s"], 1),
            "reachable_makespan_s": round(reachable["makespan_s"], 1),
            "degraded_makespan_s": round(dark["makespan_s"], 1),
            "makespan_ratio": round(ratio, 4),
            "dark_region_hits": hits,
            "dark_region_hit_budget": hit_budget,
            "wall_s": round(dark["wall_s"], 4),
        }
    )

    # recovery: the region comes back, resume drains the quarantine
    engine.clock.advance_to(outage.end_s + 4000.0)
    t0 = time.perf_counter()
    outcome = engine.resume(full_src)
    resume_wall = time.perf_counter() - t0
    if not outcome.ok:
        failures.append("post-recovery resume did not converge")
    else:
        try:
            assert_converged_like(engine, full_engine)
        except AssertionError as exc:
            failures.append(f"drained estate is not canonical: {exc}")
    summary = outcome.recovery.summary() if outcome.recovery else {}
    rows.append(
        {
            "op": "recovery_drain",
            "resources": args.resources,
            "resume_wall_s": round(resume_wall, 4),
            "recovery": summary,
            "drained": summary.get("quarantined", 0),
        }
    )
    return rows, failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--resources", type=int, default=1000, help="two-region estate size"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--gate-makespan",
        type=float,
        default=1.1,
        help="max degraded/reachable-baseline makespan ratio",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(_HERE, "BENCH_outage.json"),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-outage-") as workdir:
        rows, failures = run(args, workdir)
    for row in rows:
        print(f"  {json.dumps(row)}", file=sys.stderr)

    report = {
        "benchmark": "p5_outage",
        "seed": args.seed,
        "dark_region": DARK_REGION,
        "results": rows,
        "failures": failures,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    if failures:
        for line in failures:
            print(f"GATE MISSED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
