"""Discrete-event simulated clock.

All cloud-side latency in the framework is *simulated*: a 45-minute VPN
gateway costs microseconds of wall time, while still interacting
faithfully with rate limits, schedulers, and drift detection windows.
Executors advance the clock to the next completion event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, t: float) -> None:
        """Jump forward to absolute time ``t`` (never backwards)."""
        if t < self._now - 1e-9:
            raise ValueError(f"cannot move clock backwards ({t} < {self._now})")
        self._now = max(self._now, t)

    def advance_by(self, dt: float) -> None:
        """Jump forward by ``dt`` seconds."""
        if dt < 0:
            raise ValueError("cannot advance by a negative duration")
        self._now += dt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(t={self._now:.3f})"


class SkewedClock(SimClock):
    """A per-plane view of a shared base clock, offset by constant skew.

    Real estates never have one clock: each provider's management plane
    stamps its activity log and completion times with *its own* notion
    of now. ``SkewedClock`` models that -- reads return
    ``base.now + offset_s``, and advances push the shared base forward
    so the fleet still shares one arrow of time. A plane re-clocked
    with a positive skew runs *ahead* of the coordinator: its events
    carry future timestamps, exactly the trap drift watchers and
    staleness accounting must survive.

    Only non-negative skew is supported: a plane running behind the
    coordinator would complete operations in the scheduler's past,
    which the discrete-event loop (correctly) rejects. Skew between
    two planes is expressed by running one of them ahead.
    """

    def __init__(self, base: SimClock, offset_s: float):
        if offset_s < 0:
            raise ValueError(
                f"skew offset must be >= 0 (planes run ahead of the "
                f"coordinator, never behind), got {offset_s}"
            )
        self.base = base
        self.offset_s = float(offset_s)

    @property
    def now(self) -> float:
        return self.base.now + self.offset_s

    def advance_to(self, t: float) -> None:
        if t < self.now - 1e-9:
            raise ValueError(f"cannot move clock backwards ({t} < {self.now})")
        self.base.advance_to(t - self.offset_s)

    def advance_by(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance by a negative duration")
        self.base.advance_by(dt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SkewedClock(t={self.now:.3f}, offset={self.offset_s:+.1f})"


def _payload_kind(payload: Any) -> str:
    """Human-readable event kind for error messages.

    Executors enqueue ``(kind, change_id)`` tuples; other callers use
    strings or arbitrary objects -- show whatever identifies the event.
    """
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return f"event {payload[0]!r} ({', '.join(str(p) for p in payload[1:])})"
    if isinstance(payload, str):
        return f"event {payload!r}"
    return f"event of type {type(payload).__name__}"


class EventQueue:
    """A time-ordered queue of ``(time, payload)`` events.

    Used by executors and the policy controller to run discrete-event
    loops over one shared :class:`SimClock`.
    """

    def __init__(self, clock: SimClock):
        self.clock = clock
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def schedule(self, at: float, payload: Any) -> None:
        """Enqueue ``payload`` to fire at absolute sim time ``at``."""
        if at < self.clock.now - 1e-9:
            raise ValueError(
                f"cannot schedule {_payload_kind(payload)} in the past "
                f"({at} < {self.clock.now})"
            )
        heapq.heappush(self._heap, (at, next(self._counter), payload))

    def pop(self) -> Optional[Tuple[float, Any]]:
        """Remove the earliest event, advancing the clock to its time.

        An event whose scheduled time has already passed (cloud-side
        retries may advance the shared clock between pops) fires late,
        at the current time, rather than moving the clock backwards.
        """
        if not self._heap:
            return None
        at, _, payload = heapq.heappop(self._heap)
        if at > self.clock.now:
            self.clock.advance_to(at)
        return at, payload

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
