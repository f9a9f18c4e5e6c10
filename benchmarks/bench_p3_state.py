"""P3 `state` -- cost of the golden-state layer at estate scale.

Measures the four state-layer hot paths that PR 3 rebuilt around
copy-on-write structural sharing, at 1k / 10k resources, against the
frozen deep-copy reference in ``repro.state.reference``:

* ``checkpoint``  -- ``SnapshotHistory.checkpoint`` with a small
  mutation batch between versions (O(changed) delta vs full deep copy),
* ``txn_commit``  -- read-modify-write transaction commits through
  ``StateDatabase`` (entry copies vs json round-trips),
* ``by_resource_id`` -- reverse lookups (maintained index vs O(n) scan),
* ``checkout``    -- reconstructing historical versions (keyframe +
  delta replay + memo vs deep copy per checkout).

The numbers land in ``BENCH_state.json`` (see "Golden state at scale"
in ``docs/performance.md``). ``--min-checkpoint-speedup`` /
``--min-lookup-speedup`` turn the speedups into hard gates; CI runs
the smoke tier::

    python benchmarks/bench_p3_state.py --sizes 1000 \
        --min-checkpoint-speedup 3 --min-lookup-speedup 5 \
        --out /tmp/BENCH_state.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Any, Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro import perf
from repro.addressing import ResourceAddress
from repro.state import (
    ResourceLockManager,
    ResourceState,
    SnapshotHistory,
    StateDatabase,
    StateDocument,
)
from repro.state.reference import (
    ReferenceResourceState,
    ReferenceSnapshotHistory,
    ReferenceStateDocument,
)

VERSIONS = 20  # checkpoints taken per run
MUTATIONS = 10  # entries touched between checkpoints
TXNS = 200  # read-modify-write commits measured
LOOKUPS = 2000  # by_resource_id queries measured


def _attrs(i: int) -> Dict[str, Any]:
    return {
        "name": f"res-{i}",
        "size": ("small", "medium", "large")[i % 3],
        "tags": {"team": f"team-{i % 7}", "index": i},
        "ports": [22, 80, 8000 + (i % 100)],
    }


def _entry_kwargs(i: int) -> Dict[str, Any]:
    return dict(
        address=ResourceAddress.parse(f"aws_virtual_machine.vm[{i}]"),
        resource_id=f"cloud-{i}",
        provider="aws",
        attrs=_attrs(i),
        region="us-east-1",
        created_at=1.0,
        updated_at=2.0,
        dependencies=[f"aws_subnet.net[{i % 50}]"],
    )


def build_docs(size: int):
    live = StateDocument(serial=1)
    ref = ReferenceStateDocument(serial=1)
    for i in range(size):
        live.set(ResourceState(**_entry_kwargs(i)))
        ref.set(ReferenceResourceState(**_entry_kwargs(i)))
    return live, ref


def bench_checkpoint(live: StateDocument, ref: ReferenceStateDocument, size: int):
    rng = random.Random(13)
    picks = [
        [rng.randrange(size) for _ in range(MUTATIONS)] for _ in range(VERSIONS)
    ]

    live_history = SnapshotHistory()
    t0 = time.perf_counter()
    for v, batch in enumerate(picks):
        for i in batch:
            addr = ResourceAddress.parse(f"aws_virtual_machine.vm[{i}]")
            entry = live.get(addr)
            live.set(entry.replace(attrs=dict(entry.attrs, rev=v)))
        live.bump()
        live_history.checkpoint(live, {"main.clc": "cfg"}, timestamp=float(v))
    live_s = time.perf_counter() - t0

    ref_history = ReferenceSnapshotHistory()
    t0 = time.perf_counter()
    for v, batch in enumerate(picks):
        for i in batch:
            addr = ResourceAddress.parse(f"aws_virtual_machine.vm[{i}]")
            ref.get(addr).attrs["rev"] = v
        ref.bump()
        ref_history.checkpoint(ref, {"main.clc": "cfg"}, timestamp=float(v))
    ref_s = time.perf_counter() - t0
    return live_history, ref_history, live_s, ref_s


def bench_txn_commit(live: StateDocument, ref: ReferenceStateDocument, size: int):
    """Read-modify-write commits through ``StateDatabase``.

    The database duck-types over both documents, so the two arms carry
    identical lock / history bookkeeping and differ only in what the
    state layer charges per read copy and per committed set.
    """
    rng = random.Random(17)
    picks = [rng.randrange(size) for _ in range(TXNS)]

    def run(db: StateDatabase) -> float:
        t0 = time.perf_counter()
        for n, i in enumerate(picks):
            addr = ResourceAddress.parse(f"aws_virtual_machine.vm[{i}]")
            txn = db.begin(f"t{n}", {str(addr)}, now=float(n))
            got = txn.read(addr)
            got.attrs["txn_rev"] = n
            txn.set(got)
            txn.commit(now=float(n) + 0.5)
        return time.perf_counter() - t0

    live_s = run(StateDatabase(live, ResourceLockManager()))
    ref_s = run(StateDatabase(ref, ResourceLockManager()))
    return live_s, ref_s


def bench_by_resource_id(live: StateDocument, ref: ReferenceStateDocument, size: int):
    rng = random.Random(19)
    ids = [f"cloud-{rng.randrange(size)}" for _ in range(LOOKUPS)]

    t0 = time.perf_counter()
    for rid in ids:
        assert live.by_resource_id(rid) is not None
    live_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for rid in ids:
        assert ref.by_resource_id(rid) is not None
    ref_s = time.perf_counter() - t0
    return live_s, ref_s


def bench_checkout(live_history: SnapshotHistory, ref_history: ReferenceSnapshotHistory):
    versions = live_history.versions()
    t0 = time.perf_counter()
    for v in versions:
        live_history.checkout(v)
    live_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for v in versions:
        ref_history.checkout(v)
    ref_s = time.perf_counter() - t0
    return live_s, ref_s


def _row(op: str, size: int, n_ops: int, live_s: float, ref_s: float) -> Dict[str, Any]:
    return {
        "op": op,
        "size": size,
        "n_ops": n_ops,
        "cow_wall_s": round(live_s, 6),
        "reference_wall_s": round(ref_s, 6),
        "cow_ops_per_s": round(n_ops / max(live_s, 1e-9), 1),
        "speedup": round(ref_s / max(live_s, 1e-9), 1),
    }


def bench(args: argparse.Namespace) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []
    counters: Dict[str, Any] = {}
    for size in args.sizes:
        live, ref = build_docs(size)
        perf.reset()
        perf.enable()

        live_history, ref_history, live_s, ref_s = bench_checkpoint(live, ref, size)
        rows.append(_row("checkpoint", size, VERSIONS, live_s, ref_s))

        live_s, ref_s = bench_txn_commit(live, ref, size)
        rows.append(_row("txn_commit", size, TXNS, live_s, ref_s))

        live_s, ref_s = bench_by_resource_id(live, ref, size)
        rows.append(_row("by_resource_id", size, LOOKUPS, live_s, ref_s))

        live_s, ref_s = bench_checkout(live_history, ref_history)
        rows.append(_row("checkout", size, len(live_history), live_s, ref_s))

        counters[str(size)] = perf.snapshot()["counters"]
        perf.disable()

        for row in rows[-4:]:
            # floors are calibrated for the largest estate in the run;
            # small estates amortize less and are not gated
            minimum = (
                {
                    "checkpoint": args.min_checkpoint_speedup,
                    "by_resource_id": args.min_lookup_speedup,
                }.get(row["op"], 0.0)
                if size == max(args.sizes)
                else 0.0
            )
            if minimum and row["speedup"] < minimum:
                failures.append(
                    f"{row['op']}@{size}: speedup {row['speedup']}x "
                    f"< required {minimum}x"
                )
            print(
                f"  {row['op']:15s} n={size:6d} "
                f"cow={row['cow_wall_s']:.4f}s "
                f"ref={row['reference_wall_s']:.4f}s "
                f"speedup={row['speedup']}x",
                file=sys.stderr,
            )
    return {
        "benchmark": "p3_state",
        "sizes": args.sizes,
        "versions": VERSIONS,
        "mutations_per_version": MUTATIONS,
        "txns": TXNS,
        "lookups": LOOKUPS,
        "results": rows,
        "perf_counters": counters,
        "failures": failures,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="1000,10000",
        help="comma-separated estate sizes (resources)",
    )
    parser.add_argument(
        "--min-checkpoint-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) if checkpoint speedup drops below this at any size",
    )
    parser.add_argument(
        "--min-lookup-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) if by_resource_id speedup drops below this at any size",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "BENCH_state.json"
        ),
        help="output JSON path",
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
            print(f"SPEEDUP FLOOR MISSED: {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
