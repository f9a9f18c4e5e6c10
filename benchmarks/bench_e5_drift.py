"""E5 `drift-detection` -- paper 3.5, "IaC drift detection and
reconciliation".

Claim: driftctl-style full scans "incur significant time overhead due to
cloud API rate limiting" and are expensive to run frequently, while
activity-log watching detects drift natively and cheaply. Arms: periodic
full scan (baseline, 10-minute period -- running it faster would burn
even more quota) vs activity-log poll every minute. Both watch the same
8-hour horizon with drift events injected at random times. Metrics:
mean/95p detection latency, total API calls, detection recall.
"""

import random

import pytest

from repro.core import CloudlessEngine
from repro.drift import FullScanDetector, LogWatchDetector
from repro.workloads import sized_estate

from _support import Table, record

HORIZON_S = 8 * 3600.0
SCAN_PERIOD_S = 600.0
POLL_PERIOD_S = 60.0
N_EVENTS = 12


def build_estate(n_resources, seed):
    engine = CloudlessEngine(seed=seed)
    result = engine.apply(sized_estate(n_resources))
    assert result.ok
    return engine


def drift_schedule(engine, seed):
    """(time, injector) pairs spread over the horizon."""
    rng = random.Random(seed)
    start = engine.clock.now
    vms = [
        e
        for e in engine.state.resources()
        if e.address.type == "aws_virtual_machine"
    ]
    events = []
    for i in range(N_EVENTS):
        at = start + rng.uniform(0.05, 0.95) * HORIZON_S
        victim = rng.choice(vms)
        events.append((at, victim.resource_id))
    return sorted(events)


def run_arm(n_resources, detector_kind, seed):
    engine = build_estate(n_resources, seed)
    events = drift_schedule(engine, seed + 1)
    start = engine.clock.now
    calls_before = engine.gateway.total_api_calls()

    if detector_kind == "log":
        detector = LogWatchDetector(engine.resilient)
        detector.poll(engine.state)  # consume deployment history
        period = POLL_PERIOD_S
    elif detector_kind == "scan-fast":
        detector = FullScanDetector(engine.resilient)
        period = POLL_PERIOD_S  # scanning at log-watch latency
    else:
        detector = FullScanDetector(engine.resilient)
        period = SCAN_PERIOD_S

    latencies = []
    detected = set()
    pending = list(events)
    next_check = start + period
    while next_check <= start + HORIZON_S:
        # inject any drift events that occur before this check
        while pending and pending[0][0] <= next_check:
            at, rid = pending.pop(0)
            engine.clock.advance_to(max(engine.clock.now, at))
            engine.gateway.planes["aws"].external_update(
                rid, {"size": "xlarge"}, actor="legacy-script"
            )
        engine.clock.advance_to(max(engine.clock.now, next_check))
        run = (
            detector.poll(engine.state)
            if detector_kind == "log"
            else detector.scan(engine.state)
        )
        for finding in run.findings:
            if finding.kind == "modified" and finding.resource_id not in detected:
                detected.add(finding.resource_id)
                event_time = next(
                    at for at, rid in events if rid == finding.resource_id
                )
                latencies.append(engine.clock.now - event_time)
        next_check += period
    total_calls = engine.gateway.total_api_calls() - calls_before
    injected = {rid for _, rid in events}
    recall = len(detected & injected) / len(injected)
    latencies.sort()
    mean_latency = sum(latencies) / len(latencies) if latencies else float("inf")
    p95 = latencies[int(0.95 * (len(latencies) - 1))] if latencies else float("inf")
    return {
        "mean_latency_s": mean_latency,
        "p95_latency_s": p95,
        "api_calls": total_calls,
        "recall": recall,
    }


def run_experiment():
    table = Table(
        "E5: drift detection over an 8h horizon (12 injected events)",
        [
            "estate",
            "arm",
            "mean_detect_s",
            "p95_detect_s",
            "api_calls",
            "recall",
        ],
    )
    headline = {}
    for n in (60, 120, 240):
        for kind, arm_name in (
            ("scan", f"full scan / {int(SCAN_PERIOD_S/60)}min (driftctl)"),
            ("scan-fast", f"full scan / {int(POLL_PERIOD_S/60)}min (driftctl@log latency)"),
            ("log", f"log watch / {int(POLL_PERIOD_S/60)}min (cloudless)"),
        ):
            out = run_arm(n, kind, seed=500 + n)
            table.add(
                n,
                arm_name,
                out["mean_latency_s"],
                out["p95_latency_s"],
                out["api_calls"],
                out["recall"],
            )
            headline[f"{n}|{kind}|calls"] = out["api_calls"]
            headline[f"{n}|{kind}|mean"] = round(out["mean_latency_s"], 1)
            headline[f"{n}|{kind}|recall"] = out["recall"]
    return table, headline


def test_e5_drift(benchmark):
    table, headline = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    record(benchmark, table, **headline)
    for n in (60, 120, 240):
        assert headline[f"{n}|log|recall"] == 1.0
        assert headline[f"{n}|scan|recall"] == 1.0
        # log watching detects ~10x faster than the 10-minute scan...
        assert headline[f"{n}|log|mean"] < headline[f"{n}|scan|mean"] / 3
        # ...and matching that latency by scanning every minute always
        # costs more quota than log watching
        assert headline[f"{n}|scan-fast|calls"] > headline[f"{n}|log|calls"]
    # scan cost grows with estate size; log cost does not
    assert headline["240|scan|calls"] > headline["60|scan|calls"] * 2
    assert headline["240|scan-fast|calls"] > headline["240|log|calls"] * 4
    assert headline["240|log|calls"] == headline["60|log|calls"]


if __name__ == "__main__":
    print(run_experiment()[0].render())
