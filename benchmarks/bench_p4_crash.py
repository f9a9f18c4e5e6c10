"""P4 `crash` -- cost and coverage of the crash-safe apply path.

Two questions about the write-ahead intent journal from this PR:

* **overhead** -- what does journaling every dispatch cost a healthy
  1k-resource apply? Measured over pairs of applies, one with the WAL
  and one without, the arm that goes first alternating from pair to
  pair: the overhead is the median of the pairs' wall-clock ratios,
  less one. The simulated makespan must be *identical* (journaling is
  pure observation, it never reorders the schedule). ``--gate-overhead
  0.05`` makes >5% overhead an exit-1 failure.
* **recovery** -- kill an apply mid-flight at several boundaries and
  time the resume: journal replay, control-plane probing, orphan
  adoption, and the continuation apply, ending in a converged estate
  (state ids <-> live ids is a bijection).

CI smoke tier::

    python benchmarks/bench_p4_crash.py --resources 1000 \
        --gate-overhead 0.05 --out /tmp/BENCH_crash.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core import CloudlessEngine
from repro.deploy import SimulatedCrash
from repro.workloads import sized_estate

#: measured pairs of applies, one per arm each. A best-of-N per arm
#: read -8.6 % to +16.8 % over four runs of one tree: the two minima
#: are two draws of the machine's quiet moments, not of the journal.
#: A ratio inside a pair sees the same moment for both arms.
PAIRS = 11
CRASH_RESOURCES = 120  # estate for the crash/resume cycle
KILL_FRACTIONS = (0.25, 0.5, 0.75)  # where in the run the process dies


def one_apply(source, seed: int, wal_path: Optional[str]):
    engine = CloudlessEngine(seed=seed, wal_path=wal_path)
    # each apply starts from the same heap and runs as a CLI verb does,
    # with the cyclic collector paused: a generation-2 pass landing in
    # one arm and not the other is not the journal's cost
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = engine.apply(source)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    assert result.ok, "benchmark apply failed"
    if wal_path and os.path.exists(wal_path):
        os.unlink(wal_path)
    return wall, engine.clock.now


def bench_overhead(args, workdir) -> Dict[str, Any]:
    source = sized_estate(args.resources)
    wal_path = os.path.join(workdir, "bench.wal")
    # warm both arms (imports, pyc, allocator)
    one_apply(source, args.seed, None)
    one_apply(source, args.seed, wal_path)
    plain_walls: List[float] = []
    wal_walls: List[float] = []
    makespans = set()
    for pair in range(PAIRS):
        arms = (None, wal_path) if pair % 2 == 0 else (wal_path, None)
        for arm in arms:
            wall, makespan = one_apply(source, args.seed, arm)
            (plain_walls if arm is None else wal_walls).append(wall)
            makespans.add(makespan)
    assert len(makespans) == 1, (
        f"journaling changed the simulated schedule: {sorted(makespans)}"
    )
    ratios = [wal / max(plain, 1e-9) for wal, plain in zip(wal_walls, plain_walls)]
    return {
        "op": "apply_overhead",
        "resources": args.resources,
        "plain_wall_s": round(statistics.median(plain_walls), 6),
        "wal_wall_s": round(statistics.median(wal_walls), 6),
        "sim_makespan_s": round(makespans.pop(), 3),
        "pair_ratios": [round(ratio, 4) for ratio in ratios],
        "overhead_frac": round(statistics.median(ratios) - 1, 4),
    }


def bench_recovery(args, workdir) -> List[Dict[str, Any]]:
    source = sized_estate(CRASH_RESOURCES, name="crashbench")

    # count the event boundaries of an uninterrupted run
    boundaries: List[int] = []
    probe = CloudlessEngine(
        seed=args.seed, wal_path=os.path.join(workdir, "probe.wal")
    )
    assert probe.apply(source, crash_hook=boundaries.append).ok
    total = len(boundaries)

    rows: List[Dict[str, Any]] = []
    for fraction in KILL_FRACTIONS:
        kill_at = int(total * fraction)
        wal = os.path.join(workdir, f"crash-{kill_at}.wal")
        engine = CloudlessEngine(seed=args.seed, wal_path=wal)

        def hook(index, _k=kill_at):
            if index == _k:
                raise SimulatedCrash()

        try:
            engine.apply(source, crash_hook=hook)
        except SimulatedCrash:
            pass
        engine.gateway.settle_inflight()

        t0 = time.perf_counter()
        outcome = engine.resume(source)
        resume_wall = time.perf_counter() - t0
        assert outcome.ok, f"resume failed at boundary {kill_at}"

        state_ids = {
            e.resource_id for e in engine.state.resources() if e.resource_id
        }
        live_ids = {r.id for r in engine.gateway.all_records()}
        assert state_ids == live_ids, "resume left orphans or dead entries"

        summary = outcome.recovery.summary() if outcome.recovery else {}
        rows.append(
            {
                "op": "crash_resume",
                "resources": CRASH_RESOURCES,
                "killed_at_boundary": kill_at,
                "total_boundaries": total,
                "resume_wall_s": round(resume_wall, 6),
                "recovery": summary,
                "adopted": len(outcome.recovery.adopted)
                if outcome.recovery
                else 0,
            }
        )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--resources",
        type=int,
        default=1000,
        help="estate size for the overhead measurement",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--gate-overhead",
        type=float,
        default=0.0,
        help="fail (exit 1) if WAL overhead exceeds this fraction",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BENCH_crash.json"
        ),
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="bench-crash-")
    failures: List[str] = []
    try:
        overhead_row = bench_overhead(args, workdir)
        print(
            f"  apply_overhead  n={args.resources:6d} "
            f"plain={overhead_row['plain_wall_s']:.4f}s "
            f"wal={overhead_row['wal_wall_s']:.4f}s "
            f"overhead={overhead_row['overhead_frac'] * 100:.2f}%",
            file=sys.stderr,
        )
        if (
            args.gate_overhead
            and overhead_row["overhead_frac"] > args.gate_overhead
        ):
            failures.append(
                f"apply_overhead: {overhead_row['overhead_frac']:.4f} "
                f"> allowed {args.gate_overhead}"
            )
        recovery_rows = bench_recovery(args, workdir)
        for row in recovery_rows:
            print(
                f"  crash_resume    n={row['resources']:6d} "
                f"kill@{row['killed_at_boundary']}/{row['total_boundaries']} "
                f"resume={row['resume_wall_s']:.4f}s "
                f"recovered={row['recovery']}",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "benchmark": "p4_crash",
        "seed": args.seed,
        "pairs": PAIRS,
        "results": [overhead_row] + recovery_rows,
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
