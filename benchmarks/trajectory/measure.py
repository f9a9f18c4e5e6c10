"""Samples, the percentile rule, failure accounting, end-to-end metrics.

One :class:`Sample` is one thing a user waited for: a ``python -m
repro`` process or one service request. Everything the benchmark
reports end to end is computed here from untraced samples; the traced
samples of a ``--trace 1`` run feed :mod:`layers` instead.

Reported seconds are *reference-speed* seconds: each interval's wall
divided by the machine speed :mod:`speed` measured while it ran.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (name, unit, better, bound) -- BENCHMARK.json's ``end_to_end`` must
#: list exactly these (a self-test compares them)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("apply_p50_s", "s", "lower", 0.25),
    ("plan_p50_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: typed load-shedding answers: an overloaded service is *designed* to
#: give these, so where shedding is expected they are not failures
SHED_STATUSES = frozenset({429, 503, 504})

MIN_BEYOND = 10


@dataclasses.dataclass
class Sample:
    kind: str  # apply | plan | drift | stats
    latency_s: float  # wall the user waited: process wall, or due -> done
    outcome: str  # ok | shed | failed
    traced: bool = False
    op: int = 0
    phase: str = ""  # svc_open: lo | hi
    tenant: str = ""
    started_at: float = 0.0  # perf_counter when sent / spawned
    done_at: float = 0.0  # perf_counter when answered / reaped
    queued_s: float = 0.0
    engine_s: float = 0.0  # busy, not waiting: process wall, or service_s
    rss_mb: float = 0.0
    reason: str = ""  # shed reason, or why the output check failed
    speed: float = 1.0  # machine speed while it ran (1.0 = reference box)

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def at_reference(self, field: str = "latency_s") -> float:
        """A wall-time field in reference-speed seconds."""
        return getattr(self, field) / self.speed


@dataclasses.dataclass
class Outcome:
    """What one workload hands back to ``run.py``."""

    samples: List[Sample]
    #: (start, end) of each untimed set-up; several when it is cheap
    #: enough to repeat, and then the median is reported
    setups: List[Tuple[float, float]]
    peak_rss_mb: float
    #: open loop only: ops_per_s is goodput, the phase-``hi`` answers
    #: that arrived inside this (start, end) over its length. Otherwise
    #: it is ops completed over the time spent waiting for them.
    goodput_window: Optional[Tuple[float, float]] = None
    setup_speeds: List[float] = dataclasses.field(default_factory=list)
    goodput_speed: float = 1.0
    #: end-of-run and set-up checks: each is one more attempted op
    checks: int = 0
    checks_failed: int = 0
    #: one line per failed op or check
    problems: List[str] = dataclasses.field(default_factory=list)
    latency_phase: Optional[str] = None
    #: values that must repeat exactly between two runs of one seed
    exact: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: facts the per-layer table needs that no span carries
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    perf: Dict[str, int] = dataclasses.field(default_factory=dict)
    load_generators: str = ""


def classify(status: int, reason: Optional[str], shedding_designed: bool) -> str:
    """``ok``, ``shed`` or ``failed`` for one service response.

    A shed only counts as a shed when it is typed (carries a reason)
    *and* the phase is one where shedding is the designed behaviour;
    anywhere else a refusal is a failure, as is any 5xx that is not a
    typed shed, a 4xx, or a response with no reason at all.
    """
    if status == 200:
        return "ok"
    if shedding_designed and status in SHED_STATUSES and reason:
        return "shed"
    return "failed"


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def enough_beyond(n: int, q: float) -> bool:
    """Are at least ten samples beyond quantile ``q`` of ``n`` samples?

    The rule that decides which percentile may be quoted: p90 needs 100
    samples, p99 needs 1000; the median, held to the same rule counting
    both sides, needs 10.
    """
    if q == 0.5:
        return n >= MIN_BEYOND
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9  # 100 * (1 - 0.9) is 9.999...


# -- end to end ----------------------------------------------------------------


def normalise(outcome: Outcome, speed_of: Callable[[float, float], float]) -> None:
    """Stamp every timed interval with the machine speed while it ran."""
    for sample in outcome.samples:
        sample.speed = speed_of(sample.started_at, sample.done_at)
    outcome.setup_speeds = [speed_of(start, end) for start, end in outcome.setups]
    if outcome.goodput_window is not None:
        outcome.goodput_speed = speed_of(*outcome.goodput_window)


def account(outcome: Outcome) -> Tuple[int, int]:
    """``(attempted, failed)``: every op plus every set-up or end-of-run
    check. A shed in a phase designed to shed is attempted, not failed."""
    failed = sum(1 for s in outcome.samples if s.outcome == "failed")
    return len(outcome.samples) + outcome.checks, failed + outcome.checks_failed


def _ops_per_s(outcome: Outcome, reference: bool) -> float:
    if outcome.goodput_window is not None:
        start, end = outcome.goodput_window
        answered = sum(
            1 for s in outcome.samples if s.phase == "hi" and s.ok and s.done_at <= end
        )
        # a box running at speed 1.4 completes 1/1.4 of the reference goodput
        return answered / (end - start) * (outcome.goodput_speed if reference else 1.0)
    done = [s for s in outcome.samples if s.ok and not s.traced]
    waited = sum(s.at_reference() if reference else s.latency_s for s in done)
    return len(done) / waited if waited else 0.0


def end_to_end(
    outcome: Outcome,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """``(metrics, the same as raw wall, sample counts)`` from the
    untraced samples. The latency medians come from
    ``outcome.latency_phase`` when it names one (svc_open quotes its
    unloaded phase, ``base``)."""
    speeds = outcome.setup_speeds or [1.0] * len(outcome.setups)
    walls = [end - start for start, end in outcome.setups]
    metrics = {
        "setup_s": median([w / v for w, v in zip(walls, speeds)]),
        "ops_per_s": _ops_per_s(outcome, reference=True),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    raw = {
        "setup_s": median(walls),
        "ops_per_s": _ops_per_s(outcome, reference=False),
        "peak_rss_mb": outcome.peak_rss_mb,
    }
    counts: Dict[str, int] = {}
    for kind in ("apply", "plan"):
        chosen = [
            s
            for s in outcome.samples
            if s.kind == kind
            and s.ok
            and not s.traced
            and outcome.latency_phase in (None, s.phase)
        ]
        name = f"{kind}_p50_s"
        metrics[name] = median([s.at_reference() for s in chosen])
        raw[name] = median([s.latency_s for s in chosen])
        counts[name] = len(chosen)
    return metrics, raw, counts
