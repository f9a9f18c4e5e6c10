"""Cloud API rate limiting (token bucket), in simulated time.

The paper repeatedly blames management-plane slowness on "cloud API rate
limiting" (3.3, 3.5); this token bucket is the mechanism every control
plane call flows through, so both deployment scheduling and drift
scanning feel the same pressure real tools do.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass
class RateLimitStats:
    """Counters describing bucket pressure over a run."""

    calls: int = 0
    throttled_calls: int = 0
    total_wait_s: float = 0.0
    #: simulated seconds of refill a noisy neighbor reserved away from
    #: this tenant (see :meth:`TokenBucket.preempt`)
    contended_s: float = 0.0


class TokenBucket:
    """Classic token bucket over simulated time.

    ``rate`` tokens/second refill, ``burst`` bucket capacity. Callers
    ask when their call *could* start, then commit to consuming a token
    at that time. Both steps are separated so schedulers can plan
    without consuming.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = burst
        self._tokens = float(burst)
        self._updated_at = 0.0
        self.stats = RateLimitStats()

    def _refill(self, now: float) -> None:
        if now > self._updated_at:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated_at) * self.rate
            )
            self._updated_at = now

    def available_at(self, now: float, tokens: int = 1) -> float:
        """Earliest absolute time ``tokens`` tokens will be available.

        The bucket state may sit *ahead* of ``now`` (earlier consumers
        reserved start times in the future), so availability is computed
        from ``_updated_at``, never from ``now`` alone.
        """
        if tokens > self.burst:
            raise ValueError(f"cannot ever serve {tokens} tokens (burst={self.burst})")
        t_star = self._updated_at + max(0.0, tokens - self._tokens) / self.rate
        return max(now, t_star)

    def consume(self, now: float, tokens: int = 1) -> float:
        """Consume ``tokens`` at or after ``now``; returns the start time.

        If the bucket is empty the start time is pushed into the future
        -- the caller must model the wait (executors schedule the API
        call to begin then).
        """
        start = self.available_at(now, tokens)
        self._refill(start)
        self._tokens -= tokens
        self.stats.calls += 1
        if start > now + 1e-12:
            self.stats.throttled_calls += 1
            self.stats.total_wait_s += start - now
        return start

    def preempt(self, now: float, busy_s: float) -> float:
        """A noisy neighbor burns the bucket: drain every token and
        reserve the refill stream for ``busy_s`` further seconds.

        Models a co-tenant hammering the same provider API quota --
        the next ``consume`` cannot start before the returned time.
        The neighbor's own calls are not this tenant's calls, so only
        ``contended_s`` is accounted, never ``calls``.
        """
        if busy_s < 0:
            raise ValueError("busy_s must be >= 0")
        self._refill(now)
        self._tokens = 0.0
        self._updated_at = max(self._updated_at, now) + busy_s
        self.stats.contended_s += busy_s
        return self._updated_at


class RateLimiterBank:
    """Per-operation-class buckets for one provider.

    Real clouds throttle reads and writes separately (and some
    operations, like Azure Resource Manager writes, far more harshly).
    """

    def __init__(self, limits: Dict[str, tuple]):
        self.buckets: Dict[str, TokenBucket] = {
            name: TokenBucket(rate, burst) for name, (rate, burst) in limits.items()
        }

    def bucket_for(self, op_class: str) -> TokenBucket:
        if op_class not in self.buckets:
            op_class = "write" if "write" in self.buckets else next(iter(self.buckets))
        return self.buckets[op_class]

    def consume(self, op_class: str, now: float) -> float:
        return self.bucket_for(op_class).consume(now)

    def available_at(self, op_class: str, now: float) -> float:
        return self.bucket_for(op_class).available_at(now)

    def preempt(self, op_class: str, now: float, busy_s: float) -> float:
        """Noisy-neighbor contention on one operation class's bucket."""
        return self.bucket_for(op_class).preempt(now, busy_s)

    @property
    def stats(self) -> Dict[str, RateLimitStats]:
        return {name: b.stats for name, b in self.buckets.items()}
