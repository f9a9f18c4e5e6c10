"""Unified fault resilience over the cloud gateway (3.4-3.5).

The paper's pitch is that cloudless management survives the messy real
cloud -- transient API errors, throttling bursts, hangs, partial
failures. This module is the one place that policy lives:

* a **typed error taxonomy** (:func:`classify`): every
  :class:`CloudAPIError` is ``transient``, ``throttled``, ``terminal``,
  or ``timeout``; only the first two are worth retrying.
* a :class:`RetryPolicy` with exponential backoff and *deterministic*
  jitter -- same operation, same attempt, same delay, so chaos runs are
  reproducible bit-for-bit across seeds.
* per-operation **sim-time timeout budgets**: a logical operation that
  burns its budget in retries and hangs surfaces as a precise
  :class:`OperationTimeout` instead of retrying forever.
* the :class:`ResilientGateway` wrapper, a drop-in for
  :class:`~repro.cloud.gateway.CloudGateway` whose synchronous
  ``execute``/``read_data`` survive injected faults. ``submit`` passes
  through untouched -- the deploy executors keep their own event-loop
  retry (driven by the same :class:`RetryPolicy`), so scheduling
  behaviour stays byte-identical to the golden reference.

Every lifecycle verb (reconcile, rollback, import, update
coordination, drift scans, data reads) routes its cloud calls through
this layer; retries and backoff time are surfaced via ``repro.perf``
(``resilience.retries``, ``resilience.backoff_sim_s``, ...) so
benchmarks can report retry overhead.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List, Optional

from ..perf import PERF
from .base import CloudAPIError, ControlPlane, PendingOperation

# -- error taxonomy ----------------------------------------------------------

TRANSIENT = "transient"  #: momentary server-side failure; retry as-is
THROTTLED = "throttled"  #: rate pushback; retry with inflated backoff
TERMINAL = "terminal"  #: will fail the same way every time; do not retry
TIMEOUT = "timeout"  #: the operation's sim-time budget is exhausted
UNAVAILABLE = "unavailable"  #: a partition is down; fail fast, do not burn retries

#: provider error codes that signal rate pushback rather than a broken
#: request -- retryable, but deserving a longer backoff.
THROTTLE_CODES = frozenset(
    {
        "Throttling",
        "ThrottlingException",
        "RequestLimitExceeded",
        "TooManyRequests",
        "SlowDown",
        "RateLimitExceeded",
    }
)

#: error codes that signal *sustained* unavailability of a whole
#: partition (region or provider) rather than one unlucky call --
#: these advance circuit breakers; garden-variety transients do not.
OUTAGE_CODES = frozenset(
    {
        "ServiceUnavailable",
        "RegionUnavailable",
        "ProviderOutage",
        "PartitionUnavailable",
    }
)


class OperationTimeout(CloudAPIError):
    """A logical operation exhausted its sim-time budget (incl. retries)."""

    def __init__(
        self,
        message: str,
        *,
        resource_type: str = "",
        operation: str = "",
        budget_s: float = 0.0,
        elapsed_s: float = 0.0,
        last_error: Optional[CloudAPIError] = None,
    ):
        super().__init__(
            "OperationTimedOut",
            message,
            http_status=408,
            transient=False,
            resource_type=resource_type,
            operation=operation,
        )
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        self.last_error = last_error


class PartitionUnavailableError(CloudAPIError):
    """Fast-fail raised when a circuit breaker is open for the target
    partition -- no API call was made (that is the point)."""

    def __init__(
        self,
        provider: str,
        region: str = "",
        *,
        retry_at: Optional[float] = None,
        resource_type: str = "",
        operation: str = "",
    ):
        scope = f"{provider}/{region}" if region else provider
        hint = (
            f" A probe is allowed at t={retry_at:.0f}s."
            if retry_at is not None
            else ""
        )
        super().__init__(
            "PartitionUnavailable",
            f"The partition '{scope}' is unreachable (circuit open); "
            f"the call was rejected locally without an API round-trip."
            f"{hint}",
            http_status=503,
            transient=False,
            resource_type=resource_type,
            operation=operation,
        )
        self.provider = provider
        self.region = region
        self.retry_at = retry_at


def classify(error: CloudAPIError) -> str:
    """Place one provider error in the taxonomy."""
    if isinstance(error, OperationTimeout):
        return TIMEOUT
    if isinstance(error, PartitionUnavailableError):
        return UNAVAILABLE
    if error.code in THROTTLE_CODES:
        return THROTTLED
    if error.transient:
        return TRANSIENT
    return TERMINAL


def is_outage_error(error: CloudAPIError) -> bool:
    """Does this error signal sustained partition unavailability?"""
    return error.code in OUTAGE_CODES or isinstance(
        error, PartitionUnavailableError
    )


# -- retry policy ------------------------------------------------------------


def _unit_hash(key: str) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from ``key``.

    ``hash()`` is salted per process; sha256 keeps jitter identical
    across runs so chaos sweeps replay exactly.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclasses.dataclass
class RetryPolicy:
    """Retry behaviour for transient cloud errors.

    ``backoff`` is the raw exponential schedule the deploy executors
    have always used (uncapped, no jitter) -- their event-loop retry
    must stay byte-identical to the golden reference. The resilience
    layer goes through :meth:`delay_for`, which adds the cap, the
    throttle inflation, and deterministic keyed jitter on top.
    """

    max_attempts: int = 3
    base_backoff_s: float = 5.0
    multiplier: float = 2.0
    max_backoff_s: float = 300.0
    jitter: float = 0.0  # fraction of the delay added deterministically
    throttle_factor: float = 2.0  # extra backoff for THROTTLED errors

    def backoff(self, attempt: int) -> float:
        return self.base_backoff_s * (self.multiplier ** max(0, attempt - 1))

    def retries(self, error_class: str) -> bool:
        """Is this class of error worth another attempt?"""
        return error_class in (TRANSIENT, THROTTLED)

    def delay_for(
        self, attempt: int, error_class: str = TRANSIENT, key: str = ""
    ) -> float:
        delay = self.backoff(attempt)
        if error_class == THROTTLED:
            delay *= self.throttle_factor
        delay = min(delay, self.max_backoff_s)
        if self.jitter > 0.0:
            delay += delay * self.jitter * _unit_hash(f"{key}|{attempt}")
        return delay


#: ResilientGateway's default policy: more patient than the executors'
#: default (lifecycle repairs are rare and must land), with jitter on.
DEFAULT_RESILIENT_POLICY = RetryPolicy(
    max_attempts=5, base_backoff_s=2.0, jitter=0.1
)

#: sim-time budgets per operation class, covering every attempt plus
#: backoff. Generous: the slowest catalog type (VPN gateways, tens of
#: minutes) fits with retries to spare; a hang-looping operation does
#: not spin forever.
DEFAULT_TIMEOUTS: Dict[str, float] = {
    "create": 4 * 3600.0,
    "update": 2 * 3600.0,
    "delete": 2 * 3600.0,
    "read": 1800.0,
    "list": 1800.0,
    "log": 1800.0,
}


@dataclasses.dataclass
class RetryStats:
    """Live counters one ResilientGateway accumulates."""

    retries: int = 0
    backoff_s: float = 0.0  # total sim seconds spent backing off
    gave_up: int = 0  # retryable errors that exhausted max_attempts
    timeouts: int = 0
    fast_fails: int = 0  # calls rejected locally by an open breaker

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


# -- partition health & circuit breakers -------------------------------------

#: breaker states (textbook): CLOSED passes traffic, OPEN rejects it
#: locally, HALF_OPEN lets a bounded number of probes through.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: gate decisions a dispatcher acts on
GATE_ALLOW = "allow"  #: dispatch (may be consuming a half-open probe slot)
GATE_OPEN = "open"  #: firmly down until the next probe time; fail fast
GATE_WAIT = "wait"  #: a probe is already in flight; hold, don't fail


@dataclasses.dataclass
class BreakerPolicy:
    """When a partition breaker trips and how it recovers.

    ``failure_threshold`` consecutive outage-class failures open the
    breaker; after ``recovery_s`` of sim time it half-opens and admits
    ``half_open_probes`` probe calls. A failed probe re-opens it with
    the recovery window multiplied by ``backoff_multiplier`` (capped at
    ``max_recovery_s``); a successful probe closes it and resets the
    backoff. All transitions run on the sim clock -- deterministic.
    """

    failure_threshold: int = 5
    recovery_s: float = 300.0
    backoff_multiplier: float = 2.0
    max_recovery_s: float = 3600.0
    half_open_probes: int = 1


class CircuitBreaker:
    """One partition's breaker; sim-time driven, fully deterministic."""

    def __init__(self, key: tuple, policy: Optional[BreakerPolicy] = None):
        self.key = key
        self.policy = policy or BreakerPolicy()
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.open_count = 0  # consecutive opens; drives recovery backoff
        self._probes_out = 0

    @property
    def recovery_s(self) -> float:
        scale = self.policy.backoff_multiplier ** max(0, self.open_count - 1)
        return min(self.policy.recovery_s * scale, self.policy.max_recovery_s)

    def next_probe_at(self) -> float:
        """When the open breaker will admit its next probe."""
        return self.opened_at + self.recovery_s

    def gate(self, now: float) -> str:
        """One dispatch decision; half-open ALLOWs consume a probe slot."""
        if self.state == BREAKER_OPEN:
            if now + 1e-9 >= self.next_probe_at():
                self.state = BREAKER_HALF_OPEN
                self._probes_out = 0
                PERF.count("resilience.breaker_half_open")
            else:
                return GATE_OPEN
        if self.state == BREAKER_HALF_OPEN:
            if self._probes_out < self.policy.half_open_probes:
                self._probes_out += 1
                PERF.count("resilience.breaker_probes")
                return GATE_ALLOW
            return GATE_WAIT
        return GATE_ALLOW

    def blocked(self, now: float) -> bool:
        """Pure query: firmly open with no probe due yet? (Never
        transitions state and never consumes probe slots.)"""
        return self.state == BREAKER_OPEN and now + 1e-9 < self.next_probe_at()

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self.state = BREAKER_CLOSED
            self.open_count = 0
            self._probes_out = 0
            PERF.count("resilience.breaker_closed")

    def record_failure(self, now: float) -> None:
        if self.state == BREAKER_HALF_OPEN:
            # the probe failed: back off harder before the next one
            self.state = BREAKER_OPEN
            self.opened_at = now
            self.open_count += 1
            self._probes_out = 0
            PERF.count("resilience.breaker_reopened")
            return
        if self.state == BREAKER_CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.policy.failure_threshold:
                self.state = BREAKER_OPEN
                self.opened_at = now
                self.open_count += 1
                PERF.count("resilience.breaker_opened")
        # already OPEN: a straggler completion from before the trip;
        # nothing to learn

    def as_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "open_count": self.open_count,
            "next_probe_at": self.next_probe_at()
            if self.state == BREAKER_OPEN
            else None,
        }


@dataclasses.dataclass
class PartitionHealth:
    """Rolling per-(provider, region) stats the monitor accumulates."""

    window: int = 64
    ops: int = 0
    errors: int = 0
    outage_errors: int = 0
    latency_sum_s: float = 0.0
    last_error_code: str = ""
    _recent: List[bool] = dataclasses.field(default_factory=list)

    def record(self, ok: bool, latency_s: float, code: str) -> None:
        self.ops += 1
        self.latency_sum_s += latency_s
        if not ok:
            self.errors += 1
            self.last_error_code = code
        self._recent.append(ok)
        if len(self._recent) > self.window:
            del self._recent[: len(self._recent) - self.window]

    @property
    def error_rate(self) -> float:
        """Error fraction over the rolling window."""
        if not self._recent:
            return 0.0
        return sum(1 for ok in self._recent if not ok) / len(self._recent)

    @property
    def mean_latency_s(self) -> float:
        return self.latency_sum_s / self.ops if self.ops else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "errors": self.errors,
            "outage_errors": self.outage_errors,
            "error_rate": round(self.error_rate, 4),
            "mean_latency_s": round(self.mean_latency_s, 3),
            "last_error_code": self.last_error_code,
        }


class HealthMonitor:
    """Tracks partition health and drives the circuit breakers.

    Partitions are ``(provider, region)`` pairs; region ``""`` is the
    provider-wide partition (log reads, token probes). A dispatcher
    asks :meth:`gate` before sending work; completions feed back via
    :meth:`record`. Only outage-class failures (see ``OUTAGE_CODES``
    and timeouts) advance breakers -- a one-off 500 is the retry
    policy's business, not a reason to declare a region dead.
    """

    def __init__(self, policy: Optional[BreakerPolicy] = None, window: int = 64):
        self.policy = policy or BreakerPolicy()
        self.window = window
        self.breakers: Dict[tuple, CircuitBreaker] = {}
        self.health: Dict[tuple, PartitionHealth] = {}

    def _keys(self, provider: str, region: str):
        if region:
            return ((provider, ""), (provider, region))
        return ((provider, ""),)

    def breaker(self, provider: str, region: str = "") -> CircuitBreaker:
        key = (provider, region)
        found = self.breakers.get(key)
        if found is None:
            found = self.breakers[key] = CircuitBreaker(key, self.policy)
        return found

    def health_of(self, provider: str, region: str = "") -> PartitionHealth:
        key = (provider, region)
        found = self.health.get(key)
        if found is None:
            found = self.health[key] = PartitionHealth(window=self.window)
        return found

    # -- dispatch gating -----------------------------------------------------

    def gate(self, provider: str, region: str, now: float) -> str:
        """Combined decision over the provider-wide and region breakers.

        ``GATE_OPEN`` dominates ``GATE_WAIT`` dominates ``GATE_ALLOW``;
        a half-open ALLOW consumes that breaker's probe slot (the
        dispatched operation *is* the probe).
        """
        decision = GATE_ALLOW
        for key in self._keys(provider, region):
            found = self.breakers.get(key)
            if found is None:
                continue
            verdict = found.gate(now)
            if verdict == GATE_OPEN:
                return GATE_OPEN
            if verdict == GATE_WAIT:
                decision = GATE_WAIT
        return decision

    def allow(self, provider: str, region: str, now: float) -> bool:
        return self.gate(provider, region, now) == GATE_ALLOW

    def blocked(self, provider: str, region: str, now: float) -> bool:
        """Pure query: is the partition firmly open (no probe due)?"""
        return any(
            found is not None and found.blocked(now)
            for found in (
                self.breakers.get(key) for key in self._keys(provider, region)
            )
        )

    def next_probe_at(self, provider: str, region: str) -> Optional[float]:
        """Latest next-probe time across the partition's open breakers."""
        out: Optional[float] = None
        for key in self._keys(provider, region):
            found = self.breakers.get(key)
            if found is not None and found.state == BREAKER_OPEN:
                at = found.next_probe_at()
                out = at if out is None else max(out, at)
        return out

    def recovery_horizon(
        self, provider: str, region: str, now: float
    ) -> Optional[float]:
        """When a firmly-open partition next admits a probe, or None if
        traffic is allowed right now.

        This is the breaker-side twin of the status page's outage
        horizon: consumers that *defer* work to a dark partition (the
        drift watcher, the update coordinator) use whichever horizon is
        later as the earliest time a retry can possibly succeed.
        """
        if not self.blocked(provider, region, now):
            return None
        return self.next_probe_at(provider, region)

    # -- feedback ------------------------------------------------------------

    def record(
        self,
        provider: str,
        region: str,
        *,
        ok: bool,
        now: float,
        latency_s: float = 0.0,
        code: str = "",
        outage: bool = False,
    ) -> None:
        health = self.health_of(provider, region)
        health.record(ok, latency_s, code)
        if not ok and outage:
            health.outage_errors += 1
            # an outage failure trips only its own partition's breaker:
            # a dark region must never open the provider-wide breaker,
            # or healthy sibling regions would be blocked with it
            self.breaker(provider, region).record_failure(now)
            return
        if ok:
            # successes touch only existing breakers: healthy traffic
            # must not allocate breaker state per partition
            for key in self._keys(provider, region):
                found = self.breakers.get(key)
                if found is not None:
                    found.record_success(now)

    # -- introspection -------------------------------------------------------

    def partitions(self):
        return sorted(set(self.breakers) | set(self.health))

    def snapshot(self) -> Dict[str, Any]:
        """Perf-registry-friendly view of every known partition."""
        out: Dict[str, Any] = {}
        for key in self.partitions():
            provider, region = key
            label = f"{provider}/{region}" if region else provider
            entry: Dict[str, Any] = {}
            found = self.breakers.get(key)
            if found is not None:
                entry["breaker"] = found.as_dict()
            stats = self.health.get(key)
            if stats is not None:
                entry["health"] = stats.as_dict()
            out[label] = entry
        return out


# -- the wrapper -------------------------------------------------------------


class ResilientGateway:
    """Drop-in :class:`CloudGateway` wrapper with unified retry.

    Synchronous calls (``execute``, ``execute_on``, ``read_data``) loop
    on retryable faults, advancing the shared sim clock through each
    backoff. Everything else -- ``submit``, routing, introspection --
    delegates to the wrapped gateway untouched.
    """

    def __init__(
        self,
        gateway: Any,
        retry: Optional[RetryPolicy] = None,
        timeouts: Optional[Dict[str, float]] = None,
        health: Optional[HealthMonitor] = None,
    ):
        if isinstance(gateway, ResilientGateway):
            if health is None:
                health = gateway.health
            gateway = gateway.inner
        self.inner = gateway
        self.retry = retry or DEFAULT_RESILIENT_POLICY
        self.timeouts = dict(DEFAULT_TIMEOUTS)
        if timeouts:
            self.timeouts.update(timeouts)
        self.stats = RetryStats()
        #: optional partition health/breaker state; when set, calls into
        #: a tripped partition fail fast with PartitionUnavailableError
        self.health = health

    @classmethod
    def wrap(
        cls,
        gateway: Any,
        retry: Optional[RetryPolicy] = None,
        timeouts: Optional[Dict[str, float]] = None,
        health: Optional[HealthMonitor] = None,
    ) -> "ResilientGateway":
        """Wrap ``gateway``, or return it as-is if already resilient
        (so layered subsystems share one stats ledger)."""
        if (
            isinstance(gateway, ResilientGateway)
            and retry is None
            and timeouts is None
            and (health is None or health is gateway.health)
        ):
            return gateway
        return cls(gateway, retry=retry, timeouts=timeouts, health=health)

    # -- delegation ---------------------------------------------------------

    @property
    def clock(self):
        return self.inner.clock

    @property
    def planes(self):
        return self.inner.planes

    def provider_of(self, rtype: str) -> str:
        return self.inner.provider_of(rtype)

    def plane_for(self, rtype: str) -> ControlPlane:
        return self.inner.plane_for(rtype)

    def default_region(self, rtype: str) -> str:
        return self.inner.default_region(rtype)

    def region_for(self, rtype: str, attrs: Dict[str, Any]) -> str:
        return self.inner.region_for(rtype, attrs)

    def spec_for(self, rtype: str):
        return self.inner.spec_for(rtype)

    def try_spec(self, rtype: str):
        return self.inner.try_spec(rtype)

    def mean_latency(self, rtype: str, operation: str) -> float:
        return self.inner.mean_latency(rtype, operation)

    def total_api_calls(self) -> int:
        return self.inner.total_api_calls()

    def api_calls_by_class(self) -> Dict[str, int]:
        return self.inner.api_calls_by_class()

    def all_records(self) -> List[Any]:
        return self.inner.all_records()

    def find_record(self, resource_id: str):
        return self.inner.find_record(resource_id)

    def submit(self, operation: str, rtype: str, **kwargs: Any) -> PendingOperation:
        """Raw pass-through: event-loop callers own their retry."""
        return self.inner.submit(operation, rtype, **kwargs)

    def __getattr__(self, name: str) -> Any:
        # anything not wrapped above (persistence hooks, ad-hoc
        # introspection) behaves exactly like the inner gateway
        return getattr(self.inner, name)

    # -- resilient synchronous operations -----------------------------------

    def execute(self, operation: str, rtype: str, **kwargs: Any) -> Any:
        """``CloudGateway.execute`` with retry/backoff/timeout."""
        return self._drive(self.inner.plane_for(rtype), operation, rtype, kwargs)

    def execute_on(
        self, plane: ControlPlane, operation: str, rtype: str = "", **kwargs: Any
    ) -> Any:
        """Resilient execute against one specific control plane -- for
        per-plane operations (paginated lists, log reads) that cannot
        route by resource type."""
        return self._drive(plane, operation, rtype, kwargs)

    def read_data(
        self, rtype: str, attrs: Dict[str, Any], region: str = ""
    ) -> Dict[str, Any]:
        clock = self.inner.clock
        budget = self.timeouts.get("read")
        started = clock.now
        attempt = 0
        provider = getattr(self.inner.plane_for(rtype), "provider", "")
        while True:
            attempt += 1
            self._fast_fail_check(provider, region, rtype, "read")
            try:
                return self.inner.read_data(rtype, attrs, region)
            except CloudAPIError as exc:
                if self.health is not None:
                    self.health.record(
                        provider,
                        region,
                        ok=False,
                        now=clock.now,
                        code=exc.code,
                        outage=is_outage_error(exc),
                    )
                self._handle_failure(
                    exc, attempt, started, budget, rtype, "read", ""
                )

    # -- core loop ----------------------------------------------------------

    def _partition(
        self, plane: ControlPlane, kwargs: Dict[str, Any]
    ) -> tuple:
        """(provider, region) a call lands in: the region kwarg, else
        the targeted record's home region, else "" (region-less)."""
        provider = getattr(plane, "provider", "")
        region = kwargs.get("region") or ""
        if not region:
            resource_id = kwargs.get("resource_id") or ""
            if resource_id:
                record = plane.records.get(resource_id)
                if record is not None:
                    region = record.region
        return provider, region

    def _fast_fail_check(
        self, provider: str, region: str, rtype: str, operation: str
    ) -> None:
        """Raise PartitionUnavailableError if the breaker is firmly
        open; a half-open gate lets the call through as the probe."""
        if self.health is None or not provider:
            return
        now = self.inner.clock.now
        if self.health.gate(provider, region, now) == GATE_OPEN:
            self.stats.fast_fails += 1
            PERF.count("resilience.fast_fails")
            raise PartitionUnavailableError(
                provider,
                region,
                retry_at=self.health.next_probe_at(provider, region),
                resource_type=rtype,
                operation=operation,
            )

    def _drive(
        self,
        plane: ControlPlane,
        operation: str,
        rtype: str,
        kwargs: Dict[str, Any],
    ) -> Any:
        clock = self.inner.clock
        budget = self.timeouts.get(operation)
        started = clock.now
        key = f"{rtype}|{operation}|{kwargs.get('resource_id', '')}"
        provider, part_region = self._partition(plane, kwargs)
        attempt = 0
        while True:
            attempt += 1
            self._fast_fail_check(provider, part_region, rtype, operation)
            t_sent = clock.now
            pending = plane.submit(operation, rtype, **kwargs)
            clock.advance_to(pending.t_complete)
            try:
                result = pending.resolve()
            except CloudAPIError as exc:
                outage = is_outage_error(exc)
                if self.health is not None and provider:
                    self.health.record(
                        provider,
                        part_region,
                        ok=False,
                        now=clock.now,
                        latency_s=clock.now - t_sent,
                        code=exc.code,
                        outage=outage,
                    )
                    if outage and self.health.blocked(
                        provider, part_region, clock.now
                    ):
                        # the breaker tripped on this very failure: stop
                        # burning the retry budget against a dark wall
                        raise PartitionUnavailableError(
                            provider,
                            part_region,
                            retry_at=self.health.next_probe_at(
                                provider, part_region
                            ),
                            resource_type=rtype,
                            operation=operation,
                        ) from exc
                self._handle_failure(
                    exc, attempt, started, budget, rtype, operation, key
                )
            else:
                if self.health is not None and provider:
                    self.health.record(
                        provider,
                        part_region,
                        ok=True,
                        now=clock.now,
                        latency_s=clock.now - t_sent,
                    )
                return result

    def _handle_failure(
        self,
        exc: CloudAPIError,
        attempt: int,
        started: float,
        budget: Optional[float],
        rtype: str,
        operation: str,
        key: str,
    ) -> None:
        """Raise, or back off and return for another attempt."""
        clock = self.inner.clock
        kind = classify(exc)
        if not self.retry.retries(kind):
            raise exc
        if attempt >= self.retry.max_attempts:
            self.stats.gave_up += 1
            PERF.count("resilience.gave_up")
            raise exc
        delay = self.retry.delay_for(attempt, kind, key=key)
        elapsed = clock.now - started
        if budget is not None and elapsed + delay >= budget:
            self.stats.timeouts += 1
            PERF.count("resilience.timeouts")
            raise OperationTimeout(
                f"Operation '{operation}' on '{rtype or 'any'}' exceeded its "
                f"{budget:.0f}s budget after {attempt} attempt(s) "
                f"({elapsed:.0f}s elapsed); last error: {exc.code}.",
                resource_type=rtype,
                operation=operation,
                budget_s=budget,
                elapsed_s=elapsed,
                last_error=exc,
            ) from exc
        self.stats.retries += 1
        self.stats.backoff_s += delay
        PERF.count("resilience.retries")
        PERF.observe("resilience.backoff_sim_s", delay)
        clock.advance_by(delay)
