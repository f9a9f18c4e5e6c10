"""Plan executors.

The discrete-event engine that walks an execution plan against the
simulated clouds -- the only dispatch loop in ``src/`` besides the
frozen reference. Three scheduling strategies reproduce the spectrum in
3.3:

* :class:`SequentialExecutor` -- one operation at a time (the floor).
* :class:`BestEffortExecutor` -- Terraform's documented behaviour: a
  bounded-parallel, unprioritized graph walk (the baseline).
* :class:`CriticalPathExecutor` -- the cloudless scheduler: ready
  operations are dispatched longest-remaining-path first, optionally
  rate-limit aware, with retry handling for transient faults.

:meth:`PlanExecutor.apply` always runs a whole plan: an apply has one
mode, whichever strategy schedules it.

Scale notes (see ``docs/performance.md``): the dispatch loop pulls from
a per-strategy ready *queue* (FIFO deque or priority heap) instead of
scanning a ready list, so picking the next operation is O(log n)
instead of O(n) -- at 10k resources the difference between a quadratic
and a near-linear apply. The frozen pre-optimization loop lives in
``repro.deploy.reference`` for equivalence tests and speedup
measurement; scheduling decisions here must stay byte-identical to it.
"""

from __future__ import annotations

import dataclasses
import heapq
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..cloud.base import CloudAPIError, PendingOperation
from ..cloud.clock import EventQueue
from ..cloud.gateway import CloudGateway
from ..cloud.resilience import (
    GATE_OPEN,
    GATE_WAIT,
    HealthMonitor,
    RetryPolicy,
    is_outage_error,
)
from ..graph.critical_path import analyze
from ..graph.dag import Dag
from ..graph.plan import Action, Plan, PlannedChange
from ..lang.diagnostics import CLCEvalError
from ..lang.values import is_unknown
from ..perf import PERF
from ..state.document import ResourceState, StateDocument
from .wal import IntentJournal


@dataclasses.dataclass
class OperationRecord:
    """One executed API operation (for timing/Gantt analysis)."""

    change_id: str
    operation: str
    t_submit: float
    t_complete: float
    ok: bool
    error_code: str = ""
    attempt: int = 1

    @property
    def duration(self) -> float:
        return self.t_complete - self.t_submit


@dataclasses.dataclass
class Quarantine:
    """A change parked because its partition is unreachable.

    Not a failure: the work is deferred, not lost. A later apply or
    ``resume`` re-plans it once the partition's breaker lets probes
    through again.
    """

    change_id: str
    provider: str
    region: str
    reason: str
    at: float  # sim time the change was parked

    @property
    def partition(self) -> str:
        return f"{self.provider}/{self.region}" if self.region else self.provider


@dataclasses.dataclass
class ApplyResult:
    """Outcome of one apply run."""

    started_at: float
    finished_at: float
    succeeded: List[str] = dataclasses.field(default_factory=list)
    failed: Dict[str, str] = dataclasses.field(default_factory=dict)
    skipped: List[str] = dataclasses.field(default_factory=list)
    operations: List[OperationRecord] = dataclasses.field(default_factory=list)
    state: Optional[StateDocument] = None
    api_calls: int = 0
    #: changes parked behind unreachable partitions (degraded mode);
    #: typed dispositions, not failures -- see :class:`Quarantine`
    quarantined: Dict[str, Quarantine] = dataclasses.field(default_factory=dict)

    @property
    def makespan_s(self) -> float:
        return self.finished_at - self.started_at

    @property
    def ok(self) -> bool:
        return not self.failed and not self.skipped and not self.quarantined

    @property
    def partial(self) -> bool:
        """Degraded-mode completion: everything reachable converged,
        the rest is parked awaiting partition recovery."""
        return bool(self.quarantined) and not self.failed and not self.skipped

    def quarantined_partitions(self) -> List[str]:
        return sorted({q.partition for q in self.quarantined.values()})

    def errors_for(self, change_id: str) -> List[OperationRecord]:
        return [
            op for op in self.operations if op.change_id == change_id and not op.ok
        ]


@dataclasses.dataclass
class _Running:
    change: PlannedChange
    steps: List[str]
    step_idx: int = 0
    attempts: int = 0
    pending: Optional[PendingOperation] = None
    #: WAL bookkeeping (unused when no journal is attached): the intent
    #: id logged for the in-flight step, cleared at commit/abort.
    open_iid: Optional[int] = None


_STEPS = {
    Action.CREATE: ["create"],
    Action.UPDATE: ["update"],
    Action.DELETE: ["delete"],
    Action.REPLACE: ["delete", "create"],
    Action.READ: [],
}


class _RevStr:
    """Reverse-ordered string wrapper for min-heaps that need max-cid ties."""

    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s

    def __lt__(self, other: "_RevStr") -> bool:
        return self.s > other.s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevStr) and self.s == other.s


class _ReadyQueue:
    """The executor's pool of dispatchable change ids.

    Each scheduling strategy supplies a queue whose ``pop`` order is
    *provably identical* to what its ``pick_next`` would choose from a
    ready list maintained the old way (initial roots pushed in sorted
    order, successors pushed in sorted order as they unblock) -- the
    equivalence tests in ``tests/test_executor_equivalence.py`` hold the
    two implementations together.
    """

    def push(self, cid: str) -> None:
        raise NotImplementedError

    def pop(self) -> str:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class _FifoReady(_ReadyQueue):
    """Dispatch in the order changes became ready (``pick_next = ready[0]``)."""

    def __init__(self) -> None:
        self._items: Deque[str] = deque()

    def push(self, cid: str) -> None:
        self._items.append(cid)

    def pop(self) -> str:
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)


class _MinIdReady(_ReadyQueue):
    """Dispatch the smallest change id (``pick_next = min(ready)``)."""

    def __init__(self) -> None:
        self._heap: List[str] = []

    def push(self, cid: str) -> None:
        heapq.heappush(self._heap, cid)

    def pop(self) -> str:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class _PriorityReady(_ReadyQueue):
    """Highest critical-path priority first; ties broken by max cid.

    Mirrors ``max(ready, key=lambda cid: (priority[cid], cid))``: the
    min-heap entry ``(-priority, _RevStr(cid))`` sorts exactly that
    comparison's reverse.
    """

    def __init__(self, priority: Dict[str, float]):
        self._priority = priority
        self._heap: List[Tuple[float, _RevStr, str]] = []

    def push(self, cid: str) -> None:
        pri = self._priority.get(cid, 0.0)
        heapq.heappush(self._heap, (-pri, _RevStr(cid), cid))

    def pop(self) -> str:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class _GroupedRateAwareReady(_ReadyQueue):
    """Rate-aware critical-path dispatch via per-provider heaps.

    The old selection over a flat ready list was::

        best = max(ready, key=lambda cid: (pri(cid), cid))
        candidates = [cid for cid in ready if pri(cid) >= 0.8 * pri(best)]
        return min(candidates, key=lambda cid: (est(cid), -pri(cid), cid))

    where ``est(cid)`` is the provider write bucket's next start time --
    a function of the change's *provider alone*. Group the ready set by
    provider limiter, keep each group as a min-heap on ``(-pri, cid)``,
    and the winner is the min over in-band group tops of
    ``(est_group, -pri, cid)``:

    * a group's top has the group's max priority, so any group whose top
      is below the band has no in-band members;
    * within a group ``est`` is constant, so among its in-band members
      the argmin of ``(est, -pri, cid)`` is the heap top itself.

    That turns an O(ready) scan with a rate-limiter probe per candidate
    into O(#providers) probes plus one heap pop.
    """

    def __init__(
        self, priority: Dict[str, float], plan: Plan, gateway: CloudGateway
    ):
        self._priority = priority
        self._plan = plan
        self._gateway = gateway
        #: limiter-identity key -> (limiter or None, heap of (-pri, cid))
        self._groups: Dict[Any, Tuple[Any, List[Tuple[float, str]]]] = {}
        self._limiter_by_rtype: Dict[str, Any] = {}
        self._size = 0

    def _limiter_for(self, rtype: str) -> Any:
        if rtype not in self._limiter_by_rtype:
            try:
                plane = self._gateway.plane_for(rtype)
            except CloudAPIError:  # no provider routes this type
                self._limiter_by_rtype[rtype] = None
            else:
                self._limiter_by_rtype[rtype] = plane.limiter
        return self._limiter_by_rtype[rtype]

    def push(self, cid: str) -> None:
        limiter = self._limiter_for(self._plan.changes[cid].rtype)
        key = id(limiter) if limiter is not None else None
        group = self._groups.get(key)
        if group is None:
            group = (limiter, [])
            self._groups[key] = group
        pri = self._priority.get(cid, 0.0)
        heapq.heappush(group[1], (-pri, cid))
        self._size += 1

    def pop(self) -> str:
        now = self._gateway.clock.now
        band = 0.8 * max(-heap[0][0] for _, heap in self._groups.values())
        best_key: Any = None
        best: Optional[Tuple[float, float, str]] = None
        for key, (limiter, heap) in self._groups.items():
            neg_pri, cid = heap[0]
            if -neg_pri < band:
                continue
            est = limiter.available_at("write", now) if limiter is not None else now
            cand = (est, neg_pri, cid)
            if best is None or cand < best:
                best = cand
                best_key = key
        limiter, heap = self._groups[best_key]
        cid = heapq.heappop(heap)[1]
        if not heap:
            del self._groups[best_key]
        self._size -= 1
        return cid

    def __len__(self) -> int:
        return self._size


class PlanExecutor:
    """Base discrete-event executor; subclasses pick scheduling order."""

    name = "base"

    def __init__(
        self,
        gateway: CloudGateway,
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthMonitor] = None,
    ):
        self.gateway = gateway
        self.concurrency = max(1, concurrency)
        self.retry = retry or RetryPolicy()
        #: optional partition health: when set, dispatch consults the
        #: circuit breakers and unreachable partitions are quarantined
        #: instead of failed. ``None`` (the default) keeps scheduling
        #: byte-identical to the golden reference.
        self.health = health

    # -- scheduling hooks ---------------------------------------------------

    def prepare(self, plan: Plan, dag: Dag) -> None:
        """Called once before execution; compute priorities here."""

    def pick_next(self, ready: List[str]) -> str:
        """Choose the next ready change id. Default: FIFO.

        Contract: must return an element of ``ready`` (the caller
        removes it). This is the *reference* statement of each
        strategy's scheduling order, and what the frozen executors in
        :mod:`repro.deploy.reference` run; :meth:`apply` dispatches
        through :meth:`_make_ready_queue`, whose pop order must match
        it exactly (heap variants preserve determinism by tie-breaking
        on the change id).
        """
        return ready[0]

    def _make_ready_queue(self) -> _ReadyQueue:
        """The ready-pool implementation matching :meth:`pick_next`.

        Called after :meth:`prepare`, so strategy state (priorities) is
        available. Override together with ``pick_next``.
        """
        return _FifoReady()

    # -- main loop -------------------------------------------------------------

    def apply(
        self,
        plan: Plan,
        wal: Optional[IntentJournal] = None,
        crash_hook: Optional[Callable[[int], None]] = None,
    ) -> ApplyResult:
        """Execute the plan; mutates ``plan.state`` as the new state.

        ``wal`` attaches a write-ahead intent journal: every mutating
        step logs an intent before dispatch and a commit marker after
        its state commit, and creates carry idempotency tokens minted
        from the journal's run id. ``crash_hook`` is called with a
        monotonically increasing index at every event boundary (after
        the event is popped, before it is processed); raising
        :class:`~repro.deploy.wal.SimulatedCrash` from it models the
        process dying at exactly that boundary. Both default to ``None``
        and add zero work on that path -- scheduling stays byte-identical
        to the golden reference.
        """
        clock = self.gateway.clock
        started = clock.now
        calls_before = self.gateway.total_api_calls()
        result = ApplyResult(started_at=started, finished_at=started)
        state = plan.state

        dag = plan.execution_dag()
        self.prepare(plan, dag)
        # every reference an attribute evaluates from here on resolves
        # through the per-declaration cache (plan time stays uncached)
        plan.resolver.cache_declarations()
        PERF.count("executor.applies")

        indeg: Dict[str, int] = dag.in_degrees()
        ready = self._make_ready_queue()
        for cid in sorted(n for n, d in indeg.items() if d == 0):
            ready.push(cid)
        running: Dict[str, _Running] = {}
        done: Set[str] = set()
        dead: Set[str] = set()  # failed, skipped, or quarantined
        events = EventQueue(clock)
        health = self.health
        #: (provider, region) -> change ids held back while that
        #: partition's half-open breaker has its probe in flight
        paused: Dict[Tuple[str, str], List[str]] = {}

        def release_successors(cid: str) -> None:
            for succ in sorted(dag.successors(cid)):
                indeg[succ] -= 1
                if indeg[succ] == 0 and succ not in dead:
                    ready.push(succ)

        def finish_change(cid: str, ok: bool, error: str = "") -> None:
            rc = running.pop(cid, None)
            if (
                wal is not None
                and not ok
                and rc is not None
                and rc.open_iid is not None
            ):
                wal.log_abort(rc.open_iid, error=error)
                rc.open_iid = None
            if ok:
                done.add(cid)
                result.succeeded.append(cid)
                release_successors(cid)
                return
            dead.add(cid)
            result.failed[cid] = error
            # Skip everything downstream. The walk prunes at nodes that
            # are already dead: whenever a node is marked dead, its
            # entire live descendant closure is marked in the same
            # pass, so an already-dead node has nothing new below it.
            # (No descendant can be done or running -- it would have
            # needed this change to finish first.)
            stack = [cid]
            while stack:
                cur = stack.pop()
                for succ in sorted(dag.successors(cur)):
                    if succ in dead:
                        continue
                    dead.add(succ)
                    result.skipped.append(succ)
                    stack.append(succ)

        def quarantine_change(
            cid: str, reason: str, part: Tuple[str, str]
        ) -> None:
            """Park ``cid`` and its live descendant closure as
            Quarantined: typed deferral, not failure. An open WAL
            intent is aborted with a ``quarantined:`` marker so
            recovery classifies it as parked work."""
            rc = running.pop(cid, None)
            if wal is not None and rc is not None and rc.open_iid is not None:
                wal.log_abort(rc.open_iid, error=f"quarantined: {reason}")
                rc.open_iid = None
            if cid in dead or cid in done:
                return
            dead.add(cid)
            result.quarantined[cid] = Quarantine(
                cid, part[0], part[1], reason, clock.now
            )
            PERF.count("executor.quarantined")
            stack = [cid]
            while stack:
                cur = stack.pop()
                for succ in sorted(dag.successors(cur)):
                    if succ in dead:
                        continue
                    dead.add(succ)
                    result.quarantined[succ] = Quarantine(
                        succ,
                        part[0],
                        part[1],
                        f"depends on quarantined {cur}",
                        clock.now,
                    )
                    stack.append(succ)

        def quarantine_paused(part: Tuple[str, str], reason: str) -> None:
            for held in paused.pop(part, []):
                if held not in dead and held not in done:
                    quarantine_change(held, reason, part)

        def drain_paused(part: Tuple[str, str]) -> None:
            """Re-gate changes held behind ``part``'s probe (called when
            the probe succeeded and the breaker closed)."""
            for held in paused.pop(part, []):
                if held in dead or held in done:
                    continue
                held_rc = running.get(held)
                if held_rc is not None:
                    submit_step(held, held_rc)

        def start(cid: str) -> None:
            change = plan.changes[cid]
            steps = list(_STEPS[change.action])
            rc = _Running(change=change, steps=steps)
            if not steps:  # READ: value already resolved at plan time
                result.operations.append(
                    OperationRecord(cid, "read", clock.now, clock.now, True)
                )
                done.add(cid)
                result.succeeded.append(cid)
                release_successors(cid)
                return
            running[cid] = rc
            submit_step(cid, rc)

        def submit_step(cid: str, rc: _Running) -> None:
            if health is not None:
                part = self._partition(rc.change, state)
                if part[0]:
                    verdict = health.gate(part[0], part[1], clock.now)
                    if verdict == GATE_OPEN:
                        # fail fast locally: zero API calls into the
                        # dark partition once its breaker is open
                        PERF.count("executor.fast_fails")
                        quarantine_change(
                            cid,
                            f"partition {part[0]}/{part[1] or '*'} "
                            f"unreachable (circuit open)",
                            part,
                        )
                        return
                    if verdict == GATE_WAIT:
                        # a probe is already in flight; hold this change
                        # until the probe settles the partition's fate
                        paused.setdefault(part, []).append(cid)
                        return
            rc.attempts += 1
            token = ""
            if wal is not None:
                op_name = rc.steps[rc.step_idx]
                if op_name == "create":
                    # Stable across retries AND across resume (the
                    # journal keeps its run id), so a re-sent create
                    # deduplicates against the crashed run's resource.
                    token = f"{wal.run_id}/{cid}/{rc.step_idx}"
                if rc.attempts == 1:
                    prior_id = ""
                    if op_name in ("delete", "update"):
                        prior = (
                            rc.change.prior
                            if rc.change.prior
                            else state.get(rc.change.address)
                        )
                        if prior is not None:
                            prior_id = prior.resource_id
                    rc.open_iid = wal.log_intent(
                        cid,
                        op_name,
                        rc.change.rtype,
                        address=str(rc.change.address),
                        token=token,
                        resource_id=prior_id,
                    )
            try:
                pending = self._submit_operation(plan, rc, state, token=token)
            except CloudAPIError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, rc.steps[rc.step_idx], clock.now, clock.now,
                        False, exc.code, rc.attempts,
                    )
                )
                finish_change(cid, False, str(exc))
                return
            except _UnresolvedValueError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, rc.steps[rc.step_idx], clock.now, clock.now,
                        False, "UnresolvedValue", rc.attempts,
                    )
                )
                finish_change(cid, False, str(exc))
                return
            rc.pending = pending
            events.schedule(pending.t_complete, ("complete", cid))

        def on_complete(cid: str) -> None:
            rc = running.get(cid)
            if rc is None or rc.pending is None:
                return
            op_name = rc.steps[rc.step_idx]
            try:
                response = rc.pending.resolve()
            except CloudAPIError as exc:
                result.operations.append(
                    OperationRecord(
                        cid, op_name, rc.pending.t_submit, clock.now,
                        False, exc.code, rc.attempts,
                    )
                )
                if health is not None:
                    part = self._partition(rc.change, state)
                    outage = is_outage_error(exc)
                    if part[0]:
                        health.record(
                            part[0],
                            part[1],
                            ok=False,
                            now=clock.now,
                            latency_s=clock.now - rc.pending.t_submit,
                            code=exc.code,
                            outage=outage,
                        )
                    if outage and part[0]:
                        if health.blocked(part[0], part[1], clock.now):
                            # this failure tripped (or re-tripped) the
                            # breaker: park the change and everything
                            # held behind the failed probe
                            reason = (
                                f"partition {part[0]}/{part[1] or '*'} "
                                f"unreachable: {exc.code}"
                            )
                            quarantine_change(cid, reason, part)
                            quarantine_paused(part, reason)
                            return
                        if not (
                            exc.transient
                            and rc.attempts < self.retry.max_attempts
                        ):
                            # outage-class exhaustion parks instead of
                            # failing: the change is fine, the cloud is
                            # not
                            quarantine_change(
                                cid,
                                f"retries exhausted against "
                                f"{part[0]}/{part[1] or '*'}: {exc.code}",
                                part,
                            )
                            return
                if exc.transient and rc.attempts < self.retry.max_attempts:
                    # event-loop retry over the same RetryPolicy the
                    # resilience layer uses; schedule order (and hence
                    # golden-test equivalence) is untouched by counters
                    delay = self.retry.backoff(rc.attempts)
                    PERF.count("resilience.retries")
                    PERF.observe("resilience.backoff_sim_s", delay)
                    events.schedule(clock.now + delay, ("retry", cid))
                else:
                    if exc.transient:
                        PERF.count("resilience.gave_up")
                    finish_change(cid, False, str(exc))
                return
            result.operations.append(
                OperationRecord(
                    cid, op_name, rc.pending.t_submit, clock.now, True,
                    "", rc.attempts,
                )
            )
            if health is not None:
                part = self._partition(rc.change, state)
                if part[0]:
                    health.record(
                        part[0],
                        part[1],
                        ok=True,
                        now=clock.now,
                        latency_s=clock.now - rc.pending.t_submit,
                    )
                    if paused:
                        drain_paused(part)
            self._commit_step(plan, rc, state, op_name, response, clock.now)
            if wal is not None and rc.open_iid is not None:
                committed_id = (
                    response.get("id", "") if isinstance(response, dict) else ""
                )
                wal.log_commit(rc.open_iid, resource_id=committed_id)
                rc.open_iid = None
            rc.step_idx += 1
            rc.attempts = 0
            if rc.step_idx < len(rc.steps):
                submit_step(cid, rc)
            else:
                finish_change(cid, True)

        # drive the event loop
        perf_enabled = PERF.enabled
        event_index = 0
        while True:
            while len(ready) and len(running) < self.concurrency:
                if perf_enabled:
                    t0 = time.perf_counter()
                    cid = ready.pop()
                    PERF.observe("executor.pick_next", time.perf_counter() - t0)
                    PERF.count("executor.dispatches")
                else:
                    cid = ready.pop()
                if cid in dead:
                    continue
                start(cid)
            if not running:
                if not len(ready):
                    break
                continue
            popped = events.pop()
            if popped is None:
                break
            if crash_hook is not None:
                # event boundary: the clock has advanced to the popped
                # event but its effect has not been processed -- exactly
                # where a process kill strands in-flight operations
                crash_hook(event_index)
                event_index += 1
            _, (kind, cid) = popped
            if kind == "complete":
                on_complete(cid)
            elif kind == "retry":
                rc = running.get(cid)
                if rc is not None:
                    submit_step(cid, rc)

        # changes still held behind a probe when the loop ran dry: the
        # probe never resolved in this run's horizon, so park them too
        for part in sorted(paused):
            quarantine_paused(
                part,
                f"partition {part[0]}/{part[1] or '*'} probe did not "
                f"resolve before the run ended",
            )

        result.finished_at = clock.now
        result.state = state
        result.api_calls = self.gateway.total_api_calls() - calls_before
        state.bump()
        return result

    # -- operation submission / commit -------------------------------------------

    def _partition(
        self, change: PlannedChange, state: StateDocument
    ) -> Tuple[str, str]:
        """(provider, region) a change's operations land in.

        Planner-populated ``change.region`` first (set from provider
        config, location attrs, or prior state), then the prior state
        entry's home region, then the provider default. Provider ""
        means unknown (unroutable type) -- the caller skips gating."""
        provider = change.provider
        if not provider:
            try:
                provider = self.gateway.provider_of(change.rtype)
            except CloudAPIError:
                return ("", "")
        region = change.region or ""
        if not region:
            prior = change.prior if change.prior else state.get(change.address)
            if prior is not None and prior.region:
                region = prior.region
        if not region:
            try:
                region = self.gateway.default_region(change.rtype)
            except CloudAPIError:
                region = ""
        return (provider, region)

    def _submit_operation(
        self, plan: Plan, rc: _Running, state: StateDocument, token: str = ""
    ) -> PendingOperation:
        change = rc.change
        op = rc.steps[rc.step_idx]
        rtype = change.rtype
        if op == "delete":
            prior = change.prior if change.prior else state.get(change.address)
            if prior is None:
                raise _UnresolvedValueError(
                    f"{change.id}: nothing in state to delete"
                )
            return self.gateway.submit(
                "delete", rtype, resource_id=prior.resource_id
            )
        # create / update need (re-)evaluated attribute values
        attrs = self._materialized_attrs(change)
        region = change.region or self.gateway.region_for(rtype, attrs)
        if op == "create":
            payload = {k: v for k, v in attrs.items() if v is not None}
            return self.gateway.submit(
                "create",
                rtype,
                attrs=payload,
                region=region,
                idempotency_token=token,
            )
        # update: send only the changed attributes
        changed_names = [d.name for d in change.diffs]
        prior = change.prior if change.prior else state.get(change.address)
        if prior is None:
            raise _UnresolvedValueError(f"{change.id}: nothing in state to update")
        payload = {
            name: attrs[name]
            for name in changed_names
            if name in attrs and attrs[name] is not None
        }
        return self.gateway.submit(
            "update", rtype, resource_id=prior.resource_id, attrs=payload
        )

    def _materialized_attrs(self, change: PlannedChange) -> Dict[str, Any]:
        assert change.node is not None
        try:
            attrs = change.node.evaluate_attrs()
        except CLCEvalError as exc:
            # values only known now can fail an expression or a module
            # input's ``validation`` rule that passed while Unknown
            raise _UnresolvedValueError(
                f"{change.id}: cannot evaluate attributes: {exc}"
            )
        unknowns = sorted(
            name for name, value in attrs.items() if is_unknown(value)
        )
        if unknowns:
            raise _UnresolvedValueError(
                f"{change.id}: attributes still unknown at apply time: "
                f"{', '.join(unknowns)}"
            )
        return attrs

    def _commit_step(
        self,
        plan: Plan,
        rc: _Running,
        state: StateDocument,
        op: str,
        response: Any,
        now: float,
    ) -> None:
        change = rc.change
        if op == "delete":
            state.remove(change.address)
            plan.resolver.drop_override(change.id)
            return
        assert isinstance(response, dict)
        deps = plan.graph.managed_dependencies(change.id)
        provider = change.provider or self.gateway.provider_of(change.rtype)
        region = change.region or self.gateway.region_for(change.rtype, response)
        if op == "create":
            entry = ResourceState(
                address=change.address,
                resource_id=response["id"],
                provider=provider,
                attrs=dict(response),
                region=region,
                created_at=now,
                updated_at=now,
                dependencies=deps,
            )
            state.set(entry)
        else:  # update
            entry = state.get(change.address) or change.prior
            if entry is not None:
                state.set(
                    entry.replace(
                        attrs=dict(response),
                        updated_at=now,
                        dependencies=deps or list(entry.dependencies),
                    )
                )
        plan.resolver.set_override(change.id, dict(response))


class _UnresolvedValueError(RuntimeError):
    """Attribute values still unknown, or not evaluable, when the
    operation must run."""


class SequentialExecutor(PlanExecutor):
    """One operation at a time, alphabetical order. The floor."""

    name = "sequential"

    def __init__(
        self,
        gateway: CloudGateway,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthMonitor] = None,
    ):
        super().__init__(gateway, concurrency=1, retry=retry, health=health)

    def pick_next(self, ready: List[str]) -> str:
        return min(ready)

    def _make_ready_queue(self) -> _ReadyQueue:
        return _MinIdReady()


class BestEffortExecutor(PlanExecutor):
    """Terraform-style bounded-parallel walk, no prioritization.

    Ready nodes are dispatched in the order they became ready
    (alphabetical among ties) -- a faithful model of the "best effort"
    graph walk the paper critiques.
    """

    name = "best-effort"

    def __init__(
        self,
        gateway: CloudGateway,
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthMonitor] = None,
    ):
        super().__init__(
            gateway, concurrency=concurrency, retry=retry, health=health
        )

    def pick_next(self, ready: List[str]) -> str:
        return ready[0]

    def _make_ready_queue(self) -> _ReadyQueue:
        return _FifoReady()


class CriticalPathExecutor(PlanExecutor):
    """The cloudless scheduler: longest-remaining-path-first dispatch.

    ``rate_aware=True`` additionally prefers, among near-critical
    candidates, operations whose provider write bucket can start
    soonest, so a throttled provider does not stall the critical path.
    """

    name = "critical-path"

    def __init__(
        self,
        gateway: CloudGateway,
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        rate_aware: bool = True,
        health: Optional[HealthMonitor] = None,
    ):
        super().__init__(
            gateway, concurrency=concurrency, retry=retry, health=health
        )
        self.rate_aware = rate_aware
        self._priority: Dict[str, float] = {}
        self._plan: Optional[Plan] = None

    def prepare(self, plan: Plan, dag: Dag) -> None:
        analysis = analyze(plan, self.gateway.mean_latency, execution_dag=dag)
        self._priority = analysis.priorities
        self._plan = plan

    def pick_next(self, ready: List[str]) -> str:
        best = max(ready, key=lambda cid: (self._priority.get(cid, 0.0), cid))
        if not self.rate_aware:
            return best
        top = self._priority.get(best, 0.0)
        candidates = [
            cid for cid in ready if self._priority.get(cid, 0.0) >= 0.8 * top
        ]
        now = self.gateway.clock.now

        def start_estimate(cid: str) -> float:
            change = self._plan.changes[cid]
            try:
                plane = self.gateway.plane_for(change.rtype)
            except CloudAPIError:  # no provider routes this type
                return now
            return plane.limiter.available_at("write", now)

        return min(
            candidates,
            key=lambda cid: (start_estimate(cid), -self._priority.get(cid, 0.0), cid),
        )

    def _make_ready_queue(self) -> _ReadyQueue:
        if self.rate_aware:
            assert self._plan is not None  # prepare() ran
            return _GroupedRateAwareReady(self._priority, self._plan, self.gateway)
        return _PriorityReady(self._priority)


#: strategy name -> executor class; the one table the engine, the CLI
#: and the world-file loader pick a scheduling discipline from
EXECUTORS = {
    cls.name: cls
    for cls in (SequentialExecutor, BestEffortExecutor, CriticalPathExecutor)
}


def make_executor(
    strategy: str,
    gateway: CloudGateway,
    concurrency: int = 10,
    retry: Optional[RetryPolicy] = None,
    health: Optional[HealthMonitor] = None,
) -> PlanExecutor:
    """Build ``EXECUTORS[strategy]``, passing each class only the
    arguments its constructor takes."""
    cls = EXECUTORS[strategy]
    kwargs: Dict[str, Any] = {}
    if cls is not SequentialExecutor:
        kwargs["concurrency"] = concurrency
    return cls(gateway, retry=retry, health=health, **kwargs)
