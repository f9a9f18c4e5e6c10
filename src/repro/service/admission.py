"""The admission tier: typed rejection, rate limits, quotas.

Every request either clears admission and enters the bounded queue, or
leaves immediately with a *typed* rejection -- the 429/503/504 family a
real control plane returns instead of hanging. The distinction matters
under overload: a shed request costs the service almost nothing, while
an accepted request is a promise (it will either execute or come back
with a deadline rejection, never vanish).

Admission composes, in order:

1. **service state** -- a stopped/killed service sheds everything;
2. **degradation mode** -- read-only mode sheds mutating ops, brownout
   sheds below the priority floor (:mod:`repro.service.degradation`);
3. **per-tenant circuit breaker** -- a tenant whose ops keep failing is
   fast-failed while the breaker cools (the cloud layer's
   :class:`~repro.cloud.resilience.CircuitBreaker` under the service's
   ``TENANT_BREAKER`` policy);
4. **per-tenant token bucket** -- sustained request rate;
5. **per-tenant concurrency quota** -- queued + in-flight ceiling;
6. **global queue bound** -- the backstop that keeps queueing delay
   (and memory) finite.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..cloud.ratelimit import TokenBucket

# -- typed rejection reasons ---------------------------------------------------

REJECT_QUEUE_FULL = "queue-full"  # global admission queue at capacity
REJECT_RATE_LIMITED = "rate-limited"  # tenant token bucket empty
REJECT_TENANT_QUOTA = "tenant-quota"  # tenant queued+inflight ceiling
REJECT_CIRCUIT_OPEN = "circuit-open"  # tenant breaker cooling down
REJECT_READ_ONLY = "read-only"  # degradation: mutating op shed
REJECT_BROWNOUT = "brownout-shed"  # degradation: priority below floor
REJECT_DEADLINE = "deadline-exceeded"  # expired while queued
REJECT_STALE_SESSION = "stale-session"  # zombie fenced out by a newer lease
REJECT_SHUTDOWN = "shutting-down"  # service stopping/killed
REJECT_UNKNOWN_OP = "unknown-op"
REJECT_INVALID_PROGRAM = "invalid-program"  # sources do not parse or evaluate
REJECT_INVALID_REQUEST = "invalid-request"  # priority / deadline_s not a number

#: rejection reason -> HTTP-style status code (the typed contract the
#: zero-hangs gate checks: every response carries one of these or 200)
STATUS_OF: Dict[str, int] = {
    REJECT_QUEUE_FULL: 429,
    REJECT_RATE_LIMITED: 429,
    REJECT_TENANT_QUOTA: 429,
    REJECT_CIRCUIT_OPEN: 503,
    REJECT_READ_ONLY: 503,
    REJECT_BROWNOUT: 503,
    REJECT_SHUTDOWN: 503,
    REJECT_DEADLINE: 504,
    REJECT_STALE_SESSION: 409,
    REJECT_UNKNOWN_OP: 400,
    REJECT_INVALID_PROGRAM: 400,
    REJECT_INVALID_REQUEST: 400,
}

#: ops servable in read-only degradation (no estate mutation)
READ_ONLY_OPS = frozenset({"plan", "drift", "stats"})

#: every op the service serves
SERVICE_OPS = frozenset(
    {"plan", "apply", "drift", "resume", "chaos", "stats"}
)


@dataclasses.dataclass
class TenantQuota:
    """Per-tenant admission knobs (the default applies to everyone)."""

    rate_rps: float = 200.0  # token-bucket refill
    burst: float = 50.0  # token-bucket capacity
    max_pending: int = 8  # queued + in-flight ceiling
    priority: int = 1  # brownout sheds below the floor first
    weight: float = 1.0  # weighted-fair scheduler share


class AdmissionController:
    """Stateless checks 4-6 of the admission ladder (rate/quota/queue)."""

    def __init__(
        self,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        max_queue_depth: int = 256,
    ):
        self.default_quota = default_quota or TenantQuota()
        self.quotas = dict(quotas or {})
        self.max_queue_depth = max_queue_depth
        self._buckets: Dict[str, TokenBucket] = {}

    def quota_of(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def check(
        self,
        tenant: str,
        now: float,
        queue_depth: int,
        tenant_pending: int,
    ) -> Optional[str]:
        """The typed rejection reason, or ``None`` to admit."""
        quota = self.quota_of(tenant)
        bucket = self._buckets.get(tenant)
        if bucket is None or bucket.rate != quota.rate_rps:
            bucket = TokenBucket(quota.rate_rps, quota.burst)
            self._buckets[tenant] = bucket
        if bucket.available_at(now) > now:
            return REJECT_RATE_LIMITED
        bucket.consume(now)
        if tenant_pending >= quota.max_pending:
            return REJECT_TENANT_QUOTA
        if queue_depth >= self.max_queue_depth:
            return REJECT_QUEUE_FULL
        return None
