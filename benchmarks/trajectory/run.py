"""The trajectory benchmark: user-facing verbs end to end, by layer.

    python3 benchmarks/trajectory/run.py --workload cli_day2 --seed 7 \\
        --seconds 24 --trace 0

runs one workload in this process and prints, as its last line, the
JSON result BENCHMARK.json promises: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``. Without
``--workload`` it runs all four, each in its own process so memory and
module caches are not shared, untraced and then traced. See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lands here, inside its own directory
WORK = os.path.join(HERE, ".work")

import layers
import measure
import speed
import tracing

#: workload -> the module that defines a function of the same name
#: (imported on use: they import the program, which main() checks for)
WORKLOADS = {
    "cli_cold": "cli_workloads",
    "cli_day2": "cli_workloads",
    "svc_closed": "svc_workloads",
    "svc_open": "svc_workloads",
}

#: traced self times must add up to the traced wall this closely
BREAKDOWN_TOLERANCE = 0.05


def _benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _environment(seed: int, seconds: float, generators: str) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "seed": seed,
        "seconds": seconds,
        "git_sha": sha or "not a git checkout",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "load_generators": generators,
    }


def _traced_result(
    workload: str, outcome: measure.Outcome, tracer: tracing.Tracer, spans_path: str
) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    """Per-layer metrics, the per-verb breakdown, and what the guards
    have to say about the seam table."""
    spans, ops = layers.finalize(tracer)
    tracing.write_jsonl(spans, ops, spans_path)
    weights = layers.span_weights(outcome, ops)
    complaints = []
    if tracer.installed:
        complaints.append("wrappers still installed at exit")
    silent = layers.silent_layers(workload, spans)
    if silent:
        complaints.append(f"expected layers recorded no spans: {', '.join(silent)}")
    breakdown = layers.verb_breakdown(spans, ops, weights)
    for verb, row in breakdown.items():
        attributed = sum(v for k, v in row.items() if k not in ("wall_s", "n"))
        if abs(attributed - row["wall_s"]) > BREAKDOWN_TOLERANCE * row["wall_s"]:
            complaints.append(
                f"{verb}: self times sum to {attributed:.4f}s of a {row['wall_s']:.4f}s wall"
            )
    return layers.layer_metrics(outcome, spans, weights), breakdown, complaints


def run_workload(args: argparse.Namespace) -> int:
    """One workload, in this process; prints the contract's last line."""
    os.makedirs(WORK, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = tracing.Tracer() if args.trace else None
    workload = getattr(importlib.import_module(WORKLOADS[args.workload]), args.workload)
    speed.share_core()
    probe = speed.SpeedProbe(os.path.join(scratch, "speed.log"))
    try:
        try:
            outcome = workload(SRC, args.seed, args.seconds, tracer, scratch)
        finally:
            speeds = probe.stop()
        measure.normalise(outcome, speeds.speed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed = measure.account(outcome)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed, args.seconds, outcome.load_generators),
        "exact": outcome.exact,
        "facts": outcome.extra,
        "problems": outcome.problems,
        # 1.0 is the reference box; every reported second was divided by this
        "machine_speed": measure.median([s.speed for s in outcome.samples]),
    }
    if tracer is not None:
        spans_path = args.spans or os.path.join(WORK, f"{args.workload}.spans.jsonl")
        values, breakdown, complaints = _traced_result(
            args.workload, outcome, tracer, spans_path
        )
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        counts = {"traced_ops": sum(1 for s in outcome.samples if s.traced)}
        record.update(breakdown=breakdown, spans=spans_path)
        if complaints:
            # a seam table that lies is worse than a failed op
            failed += len(complaints)
            attempted += len(complaints)
            record["problems"] = outcome.problems + complaints
    else:
        values, raw, counts = measure.end_to_end(outcome)
        record["raw_wall"] = raw
        units = {name: unit for name, unit, _better, _bound in measure.END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record.update(sample_counts=counts, attempted=attempted, failed=failed, metrics=metrics)
    _print_record(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def _print_record(record: Dict[str, Any]) -> None:
    env = record["environment"]
    print(
        f"== {record['workload']} trace={record['trace']} seed={env['seed']} "
        f"seconds={env['seconds']} sha={env['git_sha'][:12]} nproc={env['nproc']} "
        f"python={env['python']} loadavg={env['loadavg'][0]:.2f} "
        f"machine_speed={record['machine_speed']:.2f} ({env['load_generators']})"
    )
    counts = record["sample_counts"]
    for name, metric in record["metrics"].items():
        n = counts.get(name)
        note = ""
        if n is not None:
            note = f"  n={n}" + ("" if measure.enough_beyond(n, 0.5) else " (<10)")
        raw = record.get("raw_wall", {}).get(name)
        if raw is not None and raw != metric["value"]:
            note += f"  (raw wall {raw:.6g})"
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}{note}")
    if "traced_ops" in counts:
        print(f"  traced ops: {counts['traced_ops']}; spans in {record['spans']}")
    for verb, row in sorted(record.get("breakdown", {}).items()):
        parts = ", ".join(
            f"{layer} {seconds:.4f}"
            for layer, seconds in sorted(row.items(), key=lambda kv: -kv[1])
            if layer not in ("wall_s", "n")
        )
        print(f"  {verb}: wall {row['wall_s']:.4f}s n={int(row['n'])} = {parts}")
    for name, value in record["exact"].items():
        print(f"  exact {name} = {value!r}")
    if "generator_late_max_s" in record["facts"]:
        late = record["facts"]["generator_late_max_s"]
        print(f"  open-loop generator ran at most {late:.4f}s behind its schedule")
    print(
        f"  attempted {record['attempted']}, failed {record['failed']}, "
        f"failed_share {record['failed'] / max(1, record['attempted']):.4f}"
    )
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


# -- all workloads, each in its own process ------------------------------------------


def _spawn(workload: str, seed: int, seconds: float, trace: int) -> Optional[Dict[str, Any]]:
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"{workload}.trace{trace}.json")
    if os.path.exists(out):
        os.unlink(out)
    subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", out,
        ],
        check=False,
    )
    try:
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; one combined record."""
    records = []
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = _spawn(workload, args.seed, args.seconds, trace)
            if record is None or record["failed"]:
                status = 1
            records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1)
    return status


def check_repeat(args: argparse.Namespace) -> int:
    """Two back-to-back untraced runs per workload must agree: bounded
    metrics within their bound, exact values exactly."""
    bounds = {m["name"]: m["bound"] for m in _benchmark_json()["end_to_end"]}
    status = 0
    for workload in WORKLOADS:
        first = _spawn(workload, args.seed, args.seconds, 0)
        second = _spawn(workload, args.seed, args.seconds, 0)
        if first is None or second is None or first["failed"] or second["failed"]:
            print(f"check-repeat {workload}: a run failed")
            status = 1
            continue
        for name, bound in bounds.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            apart = abs(a - b) / a if a else float("inf")
            verdict = "ok" if apart <= bound else "DIFFERS"
            if apart > bound:
                status = 1
            print(
                f"check-repeat {workload:10s} {name:14s} {a:12.6g} {b:12.6g} "
                f"apart {apart:6.1%} bound {bound:.0%} {verdict}"
            )
        for name in sorted(set(first["exact"]) | set(second["exact"])):
            a, b = first["exact"].get(name), second["exact"].get(name)
            verdict = "ok" if a == b else "DIFFERS"
            if a != b:
                status = 1
            print(f"check-repeat {workload:10s} {name:14s} {a!r} {b!r} exact {verdict}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=float(_benchmark_json()["run_seconds"]),
        help="how long one run measures (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record here as JSON")
    parser.add_argument(
        "--spans", help="where a traced run writes its spans (JSONL); "
        "default .work/<workload>.spans.jsonl",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run every workload twice and fail if the two runs disagree",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"trajectory benchmark: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.check_repeat:
        return check_repeat(args)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
