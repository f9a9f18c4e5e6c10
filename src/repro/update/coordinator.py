"""Concurrent update coordination (3.4).

Multiple DevOps teams submit updates against one shared infrastructure.
The coordinator arbitrates through a :class:`LockManager` -- the global
lock models today's Terraform state locking; per-resource locks are the
cloudless design -- executes each update's mutations inside a
transaction, and records the wait/makespan statistics E3 reports.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Set

from ..cloud.base import CloudAPIError, WRITE_OPS
from ..cloud.clock import EventQueue, SimClock
from ..cloud.resilience import ResilientGateway
from ..state.document import StateDocument
from ..state.locks import LockManager
from ..state.transactions import (
    SerializabilityChecker,
    StaleLeaseError,
    StateDatabase,
    StateTransaction,
)


class FencedGateway:
    """A gateway proxy that applies lease fencing to every mutating call.

    The distributed-systems pattern: the *storage side* checks the
    fencing token, not the client's own belief about its lease. A team
    whose lease expired mid-update (a "zombie") still thinks it holds
    the locks; its writes arrive here carrying a stale token and are
    rejected with HTTP 412 before they can clobber the new holder's
    work. Reads pass through unchecked.
    """

    def __init__(
        self,
        gateway: Any,
        locks: LockManager,
        holder: str,
        fencing_token: int,
        clock: SimClock,
    ):
        self._gateway = gateway
        self._locks = locks
        self._holder = holder
        self._token = fencing_token
        self._clock = clock

    def _check(self, operation: str) -> None:
        if operation not in WRITE_OPS:
            return
        if not self._locks.check_fence(
            self._holder, self._token, self._clock.now
        ):
            raise CloudAPIError(
                "StaleLeaseFence",
                f"Lock lease for '{self._holder}' has expired; fencing "
                f"token {self._token} is stale. The mutation was rejected "
                f"to protect the current lease holder.",
                http_status=412,
                operation=operation,
            )

    def execute(self, operation: str, rtype: str = "", **kwargs: Any) -> Any:
        self._check(operation)
        return self._gateway.execute(operation, rtype, **kwargs)

    def submit(self, operation: str, rtype: str = "", **kwargs: Any) -> Any:
        self._check(operation)
        return self._gateway.submit(operation, rtype, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._gateway, name)


@dataclasses.dataclass
class UpdateRequest:
    """One team's update batch.

    ``keys`` is the set of state addresses the update touches (its lock
    set); ``duration_s`` is how long the cloud-side work takes once the
    locks are held; ``mutate`` applies the logical state change inside
    the transaction when the work completes. ``cloud_ops``, when set,
    performs the update's real cloud mutations through the
    coordinator's resilient gateway at completion time (retried on
    transient faults); if it still fails, ``mutate`` is skipped so
    state never records work the cloud rejected.
    """

    team: str
    submitted_at: float
    keys: Set[str]
    duration_s: float
    mutate: Optional[Callable[[StateTransaction], None]] = None
    cloud_ops: Optional[Callable[[Any], None]] = None
    #: chaos knob: the operator process dies right after acquiring its
    #: locks -- it never completes, never heartbeats, and (with leases
    #: enabled) its grant expires instead of deadlocking everyone else
    crashes: bool = False
    #: (provider, region) partitions the update's cloud work targets.
    #: When any of them is dark (status-page outage or open breaker),
    #: the coordinator defers admission until the partition is expected
    #: back instead of letting the team burn its lock window on fast-
    #: fails. Empty set = partition-agnostic (historical behaviour).
    partitions: Set[tuple] = dataclasses.field(default_factory=set)


@dataclasses.dataclass
class UpdateOutcome:
    """Timing record for one completed update."""

    team: str
    submitted_at: float
    acquired_at: float
    completed_at: float
    conflicts_seen: int

    @property
    def wait_s(self) -> float:
        return self.acquired_at - self.submitted_at

    @property
    def total_s(self) -> float:
        return self.completed_at - self.submitted_at


@dataclasses.dataclass
class CoordinationResult:
    """Aggregate outcome of a concurrent-update run."""

    outcomes: List[UpdateOutcome]
    makespan_s: float
    serializable: bool
    #: cloud-side failures ("team: error"); the matching logical mutate
    #: was skipped, so state and cloud stay consistent
    errors: List[str] = dataclasses.field(default_factory=list)
    #: outage deferrals ("team: partition ... deferred to t=...s") --
    #: admission pushed past a dark partition's expected recovery
    deferrals: List[str] = dataclasses.field(default_factory=list)

    @property
    def mean_wait_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(o.wait_s for o in self.outcomes) / len(self.outcomes)

    @property
    def max_wait_s(self) -> float:
        return max((o.wait_s for o in self.outcomes), default=0.0)

    @property
    def throughput_per_hour(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return len(self.outcomes) / (self.makespan_s / 3600.0)


#: waiting-queue orderings (paper 3.4: "different lock scheduling
#: strategies can be developed for different update goals")
SCHEDULING_POLICIES = ("fifo", "shortest-job", "fewest-locks")


class UpdateCoordinator:
    """Discrete-event scheduler for concurrent update requests.

    ``scheduling`` orders the waiting queue each time locks free up:

    * ``fifo`` -- fairness: first blocked, first admitted;
    * ``shortest-job`` -- minimize mean wait: cheapest update first;
    * ``fewest-locks`` -- maximize parallelism: narrowest lock set first.
    """

    def __init__(
        self,
        state: StateDocument,
        lock_manager: LockManager,
        clock: Optional[SimClock] = None,
        scheduling: str = "fifo",
        gateway: Optional[ResilientGateway] = None,
        lease_ttl: Optional[float] = None,
    ):
        if scheduling not in SCHEDULING_POLICIES:
            raise ValueError(
                f"scheduling must be one of {SCHEDULING_POLICIES}"
            )
        self.gateway = gateway
        self.clock = clock or (gateway.clock if gateway is not None else SimClock())
        self.scheduling = scheduling
        #: leases off (None) keeps the historical event stream exactly:
        #: no heartbeat events, no expiry events, no fencing; a holder
        #: renews three times per lease
        self.lease_ttl = lease_ttl
        self.heartbeat_every = lease_ttl / 3.0 if lease_ttl else None
        self.database = StateDatabase(state, lock_manager, lease_ttl=lease_ttl)

    def _dark_until(self, request: UpdateRequest) -> Optional[float]:
        """When every partition the request targets is expected back,
        or None if all of them are reachable right now.

        Two darkness sources, best horizon wins: the provider status
        page (an active hard outage knows its end time) and the circuit
        breakers (an open breaker knows its next probe time).
        """
        if self.gateway is None:
            return None
        now = self.clock.now
        health = self.gateway.health
        resume_at: Optional[float] = None
        for provider, region in sorted(request.partitions):
            candidates: List[float] = []
            horizon = self.gateway.partition_dark(provider, region, now)
            if horizon is not None:
                candidates.append(horizon)
            if health is not None and health.blocked(provider, region, now):
                probe_at = health.next_probe_at(provider, region)
                if probe_at is not None:
                    candidates.append(probe_at)
            for at in candidates:
                resume_at = at if resume_at is None else max(resume_at, at)
        if resume_at is None:
            return None
        # strictly in the future: an outage's horizon is its end time
        # (> now while active) and a blocked breaker's probe is > now,
        # but guard against degenerate specs so deferral cannot spin
        return max(resume_at, now + 1.0)

    def _order_waiting(self, waiting: List[UpdateRequest]) -> List[UpdateRequest]:
        if self.scheduling == "shortest-job":
            return sorted(waiting, key=lambda r: (r.duration_s, r.submitted_at))
        if self.scheduling == "fewest-locks":
            return sorted(waiting, key=lambda r: (len(r.keys), r.submitted_at))
        return waiting  # fifo: preserve arrival order

    def run(self, requests: List[UpdateRequest]) -> CoordinationResult:
        """Execute every request to completion, honouring lock conflicts."""
        if self.gateway is None and any(r.cloud_ops for r in requests):
            raise ValueError(
                "requests carry cloud_ops but the coordinator has no gateway"
            )
        events = EventQueue(self.clock)
        for request in requests:
            events.schedule(request.submitted_at, ("submit", request))
        waiting: List[UpdateRequest] = []
        errors: List[str] = []
        deferrals: List[str] = []
        conflicts: Dict[str, int] = {r.team: 0 for r in requests}
        active: Dict[str, tuple] = {}  # team -> (request, txn, acquired_at)
        outcomes: List[UpdateOutcome] = []
        start = self.clock.now

        def try_start(request: UpdateRequest) -> bool:
            resume_at = self._dark_until(request)
            if resume_at is not None:
                # the update targets a dark partition: re-submit when it
                # is expected back rather than holding locks against a
                # wall of fast-fails (returns True: the request is
                # scheduled, not queued on locks)
                events.schedule(resume_at, ("submit", request))
                deferrals.append(
                    f"{request.team}: partition dark at t={self.clock.now:.0f}s; "
                    f"deferred to t={resume_at:.0f}s"
                )
                return True
            txn = self.database.begin(request.team, request.keys, self.clock.now)
            if txn is None:
                conflicts[request.team] += 1
                return False
            active[request.team] = (request, txn, self.clock.now)
            if request.crashes:
                # the operator dies here: no completion, no heartbeats.
                # With leases the grant lapses on its own; the expiry
                # event is when the coordinator notices and re-admits
                # waiters. Without leases the keys stay locked forever
                # (the Terraform force-unlock failure mode).
                if self.lease_ttl is not None:
                    events.schedule(
                        self.clock.now + self.lease_ttl,
                        ("lease-expiry", request.team),
                    )
                return True
            events.schedule(
                self.clock.now + request.duration_s, ("complete", request.team)
            )
            if self.heartbeat_every is not None:
                events.schedule(
                    self.clock.now + self.heartbeat_every,
                    ("renew", request.team),
                )
            return True

        def admit_waiters() -> None:
            # a release may unblock waiters; admit per the configured
            # scheduling policy
            nonlocal waiting
            still_waiting: List[UpdateRequest] = []
            for waiter in self._order_waiting(waiting):
                if not try_start(waiter):
                    still_waiting.append(waiter)
            waiting = still_waiting

        while events:
            popped = events.pop()
            assert popped is not None
            _, (kind, payload) = popped
            if kind == "submit":
                request = payload
                if not try_start(request):
                    waiting.append(request)
            elif kind == "renew":
                team = payload
                if team in active and self.heartbeat_every is not None:
                    self.database.renew(team, self.clock.now)
                    events.schedule(
                        self.clock.now + self.heartbeat_every, ("renew", team)
                    )
            elif kind == "lease-expiry":
                team = payload
                entry = active.pop(team, None)
                if entry is None:
                    continue
                request, txn, acquired_at = entry
                # the grant already lapsed; abort releases nothing but
                # cleans up the transaction bookkeeping
                txn.abort()
                errors.append(
                    f"{team}: operator crashed while holding locks; lease "
                    f"expired after {self.lease_ttl}s and waiters proceed"
                )
                admit_waiters()
            elif kind == "complete":
                team = payload
                request, txn, acquired_at = active.pop(team)
                cloud_failed = False
                if request.cloud_ops is not None:
                    # the real cloud work, behind the resilience layer;
                    # retry backoff advances the shared clock, so the
                    # outcome's completion time includes it. With leases
                    # on, writes also pass the fencing check.
                    cloud_gateway = self.gateway
                    if self.lease_ttl is not None and txn.grant is not None:
                        cloud_gateway = FencedGateway(
                            self.gateway,
                            self.database.locks,
                            team,
                            txn.grant.fencing_token,
                            self.clock,
                        )
                    try:
                        request.cloud_ops(cloud_gateway)
                    except CloudAPIError as exc:
                        cloud_failed = True
                        errors.append(f"{team}: {exc}")
                if request.mutate is not None and not cloud_failed:
                    request.mutate(txn)
                try:
                    txn.commit(self.clock.now)
                except StaleLeaseError as exc:
                    errors.append(f"{team}: {exc}")
                else:
                    outcomes.append(
                        UpdateOutcome(
                            team=team,
                            submitted_at=request.submitted_at,
                            acquired_at=acquired_at,
                            completed_at=self.clock.now,
                            conflicts_seen=conflicts[team],
                        )
                    )
                admit_waiters()
        # anything still waiting or active is stranded: a crashed holder
        # without a lease keeps its keys forever (the force-unlock
        # failure mode), so the run ends with the estate deadlocked
        for team in sorted(active):
            errors.append(
                f"{team}: operator crashed while holding locks and no "
                f"lease was configured; locks are held forever"
            )
        for request in waiting:
            holders = self.database.locks.holders()
            errors.append(
                f"{request.team}: deadlocked waiting on locks held by "
                f"{holders} when the run ended"
            )
        serializable = SerializabilityChecker.is_serializable(
            self.database.history
        )
        return CoordinationResult(
            outcomes=sorted(outcomes, key=lambda o: o.team),
            makespan_s=self.clock.now - start,
            serializable=serializable,
            errors=errors,
            deferrals=deferrals,
        )
