"""The multi-tenant control-plane service.

``ControlPlaneService`` is a long-running asyncio front end over many
per-tenant :class:`~repro.service.tenants.TenantSession` engines. The
lifecycle of one request:

1. **admission** (synchronous, on the event loop): service state ->
   degradation mode -> tenant circuit breaker -> token bucket -> tenant
   quota -> global queue bound. Any failure returns a *typed* rejection
   immediately -- under overload the service sheds, it never hangs.
   A request the half-open breaker lets through is its probe: success
   closes the breaker, failure re-opens it, and any other answer (shed,
   ``deadline-exceeded``, a 400) gives the probe back.
2. **queueing**: admitted requests enter the weighted-fair queue keyed
   by tenant; stride scheduling guarantees a flooding tenant cannot
   starve the others past its weight share.
3. **dispatch**: worker slots (``apply_pool``) pull from the fair
   queue. A request whose deadline lapsed while queued is answered
   ``deadline-exceeded`` without executing. Engine work runs in a
   thread pool (the engines are synchronous), one request per tenant
   at a time -- a tenant's session is single-threaded by construction.
4. **execution**: the session re-validates its lease fence, runs the
   op, persists the world, and feeds the breaker/ladder/perf probes.

Degradation is re-evaluated on every admission and dispatch from queue
pressure, climbing normal -> brownout -> read-only with hysteresis
(:mod:`repro.service.degradation`). Entering brownout also evicts
already-queued sub-floor requests (typed ``brownout-shed``), so the
valve acts on the backlog, not just new arrivals.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional

from ..cloud.resilience import (
    BREAKER_HALF_OPEN,
    GATE_ALLOW,
    BreakerPolicy,
    CircuitBreaker,
)
from ..core.engine import load_verb_modules
from ..deploy import SimulatedCrash
from ..lang.diagnostics import CLCError
from ..perf import PERF
from ..workloads.traffic import LatencyHistogram, goodput_fairness_ratio
from . import admission as adm
from .admission import AdmissionController, TenantQuota
from .degradation import DegradationLadder
from .fairness import WeightedFairQueue
from .tenants import SessionFencedError, TenantSession


#: every tenant's breaker: five consecutive failures open it, and it
#: half-opens for one probe 10 s later, with no backoff between probes
TENANT_BREAKER = BreakerPolicy(
    failure_threshold=5, recovery_s=10.0, backoff_multiplier=1.0
)


@dataclasses.dataclass
class ServicePolicy:
    """Every tunable of the service tier in one bag.

    The tenant breaker (:data:`TENANT_BREAKER`) and the degradation
    ladder's thresholds (:class:`DegradationLadder`) are constants.
    """

    apply_pool: int = 4  # concurrent engine executions
    max_queue_depth: int = 64  # global admission queue bound
    default_deadline_s: float = 30.0
    session_ttl_s: float = 30.0
    default_quota: TenantQuota = dataclasses.field(default_factory=TenantQuota)
    quotas: Dict[str, TenantQuota] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ServiceResponse:
    """The typed answer every submitted request gets -- no exceptions
    escape to callers, no request is silently dropped."""

    tenant: str
    op: str
    status: int  # 200, or a STATUS_OF code
    reason: Optional[str] = None  # typed rejection reason when not 200
    body: Optional[Dict[str, Any]] = None
    queued_s: float = 0.0
    service_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclasses.dataclass
class _Request:
    tenant: str
    op: str
    payload: Dict[str, Any]
    priority: int
    enqueued_at: float
    deadline_at: float
    future: "asyncio.Future[ServiceResponse]"
    #: holds its tenant breaker's half-open probe
    probe: bool = False


class ControlPlaneService:
    """Admission-controlled, fair, degradation-aware multi-tenant host."""

    def __init__(
        self,
        root: str,
        instance: str = "svc-0",
        policy: Optional[ServicePolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        # a process that lives on loads what its ops run before the
        # first tenant does, not inside that tenant's first request
        load_verb_modules()
        self.root = root
        self.instance = instance
        self.policy = policy or ServicePolicy()
        self.clock = clock
        self.admission = AdmissionController(
            default_quota=self.policy.default_quota,
            quotas=self.policy.quotas,
            max_queue_depth=self.policy.max_queue_depth,
        )
        #: per-tenant breakers, made on a tenant's first admission
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.ladder = DegradationLadder()
        self.queue = WeightedFairQueue()
        self.sessions: Dict[str, TenantSession] = {}
        self._tenant_locks: Dict[str, asyncio.Lock] = {}
        self._inflight: Dict[str, int] = {}
        self._workers: List[asyncio.Task] = []
        self._wakeup: Optional[asyncio.Condition] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._state = "new"  # new | running | draining | stopped | killed
        # -- stats ----------------------------------------------------------
        self.started_at = 0.0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.shed: Dict[str, int] = {}
        self.goodput: Dict[str, int] = {}
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._state == "running":
            return
        self._wakeup = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.policy.apply_pool,
            thread_name_prefix=f"clc-{self.instance}",
        )
        self._state = "running"
        self.started_at = self.clock()
        self._workers = [
            asyncio.ensure_future(self._worker_loop(i))
            for i in range(self.policy.apply_pool)
        ]

    async def drain(self) -> None:
        """Stop admitting, finish the backlog, keep sessions open."""
        if self._state != "running":
            return
        self._state = "draining"
        assert self._wakeup is not None
        async with self._wakeup:
            self._wakeup.notify_all()
        while len(self.queue) or any(self._inflight.values()):
            await asyncio.sleep(0.005)

    async def stop(self) -> None:
        """Graceful shutdown: drain, close sessions, release leases."""
        if self._state in ("stopped", "killed"):
            return
        await self.drain()
        self._state = "stopped"
        await self._retire_workers()
        now = self.clock()
        for session in self.sessions.values():
            session.close(now)
        self.sessions.clear()
        PERF.gauge("service.active_tenants", 0)

    async def kill(self) -> None:
        """Simulated crash: abandon the queue, leave lease/marker debris.

        Queued and in-flight requests are answered ``shutting-down``
        (the connection-reset analog -- still typed, still no hang);
        sessions persist their worlds but keep their leases and owner
        markers, exactly what a SIGKILL leaves for the next instance to
        preempt.
        """
        if self._state in ("stopped", "killed"):
            return
        self._state = "killed"
        for tenant, item in self.queue.drain_all():
            self._finish_rejected(item, adm.REJECT_SHUTDOWN)
        await self._retire_workers()
        for session in self.sessions.values():
            session.kill()
        self.sessions.clear()

    async def _retire_workers(self) -> None:
        if self._wakeup is not None:
            async with self._wakeup:
                self._wakeup.notify_all()
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ---------------------------------------------------------

    async def submit(
        self,
        tenant: str,
        op: str,
        payload: Optional[Dict[str, Any]] = None,
        priority: Optional[int] = None,
        deadline_s: Optional[float] = None,
    ) -> "asyncio.Future[ServiceResponse]":
        """Admit-or-shed; returns a future that ALWAYS resolves typed."""
        loop = asyncio.get_event_loop()
        future: "asyncio.Future[ServiceResponse]" = loop.create_future()
        now = self.clock()
        quota = self.admission.quota_of(tenant)
        valid = _number_or_none(priority) and _number_or_none(deadline_s)
        if not valid:
            # refused below; its record holds the defaults instead
            priority = deadline_s = None
        if priority is None:
            priority = quota.priority
        request = _Request(
            tenant=tenant,
            op=op,
            payload=dict(payload or {}),
            priority=priority,
            enqueued_at=now,
            deadline_at=now
            + (deadline_s if deadline_s is not None
               else self.policy.default_deadline_s),
            future=future,
        )
        reason = (
            self._admit(request, now) if valid else adm.REJECT_INVALID_REQUEST
        )
        if reason is not None:
            self._reject(request, reason)
            return future
        self.admitted += 1
        PERF.count("service.admitted")
        self.queue.push(tenant, request, weight=quota.weight)
        assert self._wakeup is not None
        async with self._wakeup:
            self._wakeup.notify()
        return future

    async def request(self, tenant: str, op: str, **kwargs: Any) -> ServiceResponse:
        """Submit and await -- the convenience most callers want."""
        return await (await self.submit(tenant, op, **kwargs))

    def _admit(self, request: _Request, now: float) -> Optional[str]:
        """The admission ladder; a reason string sheds, None admits."""
        if self._state != "running":
            return adm.REJECT_SHUTDOWN
        if request.op not in adm.SERVICE_OPS:
            return adm.REJECT_UNKNOWN_OP
        self._update_ladder()
        if self.ladder.read_only and request.op not in adm.READ_ONLY_OPS:
            return adm.REJECT_READ_ONLY
        if self.ladder.sheds_priority(request.priority):
            return adm.REJECT_BROWNOUT
        breaker = self._breaker(request.tenant)
        if breaker.gate(now) != GATE_ALLOW:
            return adm.REJECT_CIRCUIT_OPEN
        request.probe = breaker.state == BREAKER_HALF_OPEN
        pending = self.queue.pending(request.tenant) + self._inflight.get(
            request.tenant, 0
        )
        return self.admission.check(
            request.tenant, now, len(self.queue), pending
        )

    def _breaker(self, tenant: str) -> CircuitBreaker:
        found = self.breakers.get(tenant)
        if found is None:
            found = self.breakers[tenant] = CircuitBreaker(
                (tenant,), TENANT_BREAKER
            )
        return found

    def _update_ladder(self) -> str:
        pressure = len(self.queue) / max(1, self.policy.max_queue_depth)
        before = self.ladder.mode
        mode = self.ladder.update(pressure)
        if mode != before and mode != "normal":
            # entering a shed mode evicts sub-floor backlog immediately,
            # leaving everything at or above the floor untouched
            victims = self.queue.shed_lowest_priority(
                count=len(self.queue),
                priority_of=lambda item: item.priority,
                below=self.ladder.brownout_priority_floor,
            )
            for _tenant, item in victims:
                self._finish_rejected(item, adm.REJECT_BROWNOUT)
        return mode

    def _reject(
        self,
        request: _Request,
        reason: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> None:
        if request.probe:
            # neither a success nor a failure: the next request probes
            self._breaker(request.tenant).return_probe()
        self.shed[reason] = self.shed.get(reason, 0) + 1
        PERF.count("service.shed")
        if not request.future.done():
            request.future.set_result(
                ServiceResponse(
                    tenant=request.tenant,
                    op=request.op,
                    status=adm.STATUS_OF[reason],
                    reason=reason,
                    body=body,
                )
            )

    def _finish_rejected(self, item: object, reason: str) -> None:
        assert isinstance(item, _Request)
        self._reject(item, reason)

    # -- dispatch -----------------------------------------------------------

    async def _worker_loop(self, slot: int) -> None:
        assert self._wakeup is not None
        while True:
            async with self._wakeup:
                while len(self.queue) == 0:
                    if self._state in ("stopped", "killed"):
                        return
                    if self._state == "draining" and not any(
                        self._inflight.values()
                    ):
                        return
                    await self._wakeup.wait()
                popped = self.queue.pop()
            if popped is None:
                continue
            tenant, item = popped
            assert isinstance(item, _Request)
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            try:
                await self._dispatch(item)
            finally:
                self._inflight[tenant] -= 1
            self._update_ladder()

    async def _dispatch(self, request: _Request) -> None:
        now = self.clock()
        queued = now - request.enqueued_at
        self.queue_wait.observe(queued)
        PERF.observe("service.queued_ms", queued * 1000.0)
        if now >= request.deadline_at:
            self._reject(request, adm.REJECT_DEADLINE)
            return
        request_lock = self._tenant_locks.setdefault(
            request.tenant, asyncio.Lock()
        )
        async with request_lock:
            if self._state == "killed":
                self._reject(request, adm.REJECT_SHUTDOWN)
                return
            loop = asyncio.get_event_loop()
            assert self._executor is not None
            try:
                body = await loop.run_in_executor(
                    self._executor, self._execute, request
                )
            except SessionFencedError as exc:
                self._reject(
                    request, adm.REJECT_STALE_SESSION, {"detail": str(exc)}
                )
                self._breaker(request.tenant).record_failure(self.clock())
                return
            except CLCError as exc:
                # a typo is the tenant's error, not the service's: typed
                # 400 with the place in the body, and neither `failed`
                # nor the tenant's breaker hears of it (five typos must
                # not lock a tenant out of its next valid plan)
                self._reject(
                    request,
                    adm.REJECT_INVALID_PROGRAM,
                    {
                        "detail": str(exc),
                        "message": exc.message,
                        "span": list(exc.span) if exc.span is not None else None,
                    },
                )
                return
            except (KeyboardInterrupt, SystemExit, SimulatedCrash) as exc:
                # a chaos crash hook fired mid-apply: this tenant's
                # engine just "died". Leave SIGKILL debris (world saved,
                # lease and owner marker abandoned) and answer typed --
                # the restarting instance preempts and resumes.
                session = self.sessions.pop(request.tenant, None)
                if session is not None and not session.closed:
                    session.kill()
                self.failed += 1
                self._breaker(request.tenant).record_failure(self.clock())
                if not request.future.done():
                    request.future.set_result(
                        ServiceResponse(
                            tenant=request.tenant,
                            op=request.op,
                            status=500,
                            reason="crashed",
                            body={"error": str(exc)},
                            queued_s=queued,
                        )
                    )
                return
            except Exception as exc:  # engine bug: typed 500, not a hang
                self.failed += 1
                self._breaker(request.tenant).record_failure(self.clock())
                if not request.future.done():
                    request.future.set_result(
                        ServiceResponse(
                            tenant=request.tenant,
                            op=request.op,
                            status=500,
                            reason="internal-error",
                            body={"error": str(exc)},
                            queued_s=queued,
                        )
                    )
                return
        done = self.clock()
        self.completed += 1
        self.goodput[request.tenant] = self.goodput.get(request.tenant, 0) + 1
        self.latency.observe(done - request.enqueued_at)
        self._breaker(request.tenant).record_success(done)
        if not request.future.done():
            request.future.set_result(
                ServiceResponse(
                    tenant=request.tenant,
                    op=request.op,
                    status=200,
                    body=body,
                    queued_s=queued,
                    service_s=done - now,
                )
            )

    # -- execution (thread pool; one thread per request, one request
    # per tenant at a time via the per-tenant asyncio lock) ---------------

    def _open_session(self, tenant: str, preempt: bool) -> TenantSession:
        session = TenantSession.open(
            self.root,
            tenant,
            self.instance,
            now=self.clock(),
            seed=_tenant_seed(tenant),
            ttl_s=self.policy.session_ttl_s,
            preempt=preempt,
        )
        self.sessions[tenant] = session
        PERF.gauge("service.active_tenants", len(self.sessions))
        return session

    def _session(self, tenant: str) -> TenantSession:
        session = self.sessions.get(tenant)
        if session is None or session.closed:
            session = self._open_session(tenant, preempt=True)
        return session

    def _execute(self, request: _Request) -> Dict[str, Any]:
        session = self._session(request.tenant)
        now = self.clock()
        op = request.op
        mutating = op not in adm.READ_ONLY_OPS
        if mutating and session.live(now):
            session.renew(now)
        elif mutating:
            # only mutating ops renew, so a tenant quiet for longer than
            # the TTL comes back with a lapsed lease. Re-open without
            # preempting -- a fresh grant under a higher fencing token,
            # the world as last persisted. If another instance holds the
            # lease by now, open() raises SessionFencedError (409) and
            # this handle stays the fenced zombie it is.
            session.store.release_owner()
            session = self._open_session(request.tenant, preempt=False)
        engine = session.engine
        payload = request.payload
        if op == "plan":
            variables = payload.get("variables")
            if variables is None and "sources" not in payload:
                # a bare plan plans what is applied, under the variables
                # it was applied with (what ``engine.resume`` does)
                variables = engine.last_variables
            plan = engine.plan(
                payload.get("sources", engine.last_sources or ""),
                variables=variables,
            )
            body: Dict[str, Any] = {"summary": plan.summary()}
        elif op == "apply":
            result = engine.apply(
                payload["sources"],
                variables=payload.get("variables"),
                crash_hook=payload.get("crash_hook"),
            )
            body = {
                "ok": result.ok,
                "partial": result.partial,
                "summary": result.plan.summary() if result.plan else {},
            }
            if not result.ok and not result.partial:
                raise RuntimeError(f"apply failed for {request.tenant}")
        elif op == "drift":
            run = engine.watch()
            body = {
                "findings": len(run.findings),
                "unreachable": list(run.unreachable),
            }
        elif op == "resume":
            # a crash before the apply recorded last_sources would make
            # a bare resume re-plan against the wrong (older) config;
            # callers that know the intended config pass it explicitly
            resumed = engine.resume(
                sources=payload.get("sources"),
                variables=payload.get("variables"),
            )
            recovery = resumed.recovery
            body = {
                "ok": resumed.ok,
                "adopted": len(recovery.adopted) if recovery else 0,
            }
        elif op == "chaos":
            # fault injection scoped to this tenant's private planes
            rate = float(payload.get("transient_rate", 0.0))
            providers = payload.get("providers") or sorted(
                engine.gateway.planes
            )
            for name in providers:
                plane = engine.gateway.planes.get(name)
                if plane is not None:
                    plane.faults.set_transient_rate(rate)
            body = {"transient_rate": rate, "providers": list(providers)}
        elif op == "stats":
            body = {"resources": len(engine.state), **session.describe()}
        else:  # unreachable: admission filters unknown ops
            raise RuntimeError(f"unknown op {op!r}")
        if mutating:
            session.persist()
        return body

    # -- reporting ----------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        fairness = goodput_fairness_ratio(self.goodput)
        PERF.gauge("service.fairness_ratio", fairness)
        PERF.gauge("service.active_tenants", len(self.sessions))
        return {
            "state": self._state,
            "mode": self.ladder.mode,
            "mode_transitions": self.ladder.transitions,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": sum(self.shed.values()),
            "queue_depth": len(self.queue),
            "active_tenants": len(self.sessions),
            "goodput": dict(sorted(self.goodput.items())),
            "fairness_ratio": fairness,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "breakers": {t: b.state for t, b in self.breakers.items()},
        }


def _number_or_none(value: Any) -> bool:
    """A caller's ``priority`` / ``deadline_s``: a real number that is
    not a bool and not NaN, or None for the default."""
    if value is None:
        return True
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and not math.isnan(value)
    )


def _tenant_seed(tenant: str) -> int:
    """Deterministic per-tenant engine seed (stable across restarts)."""
    seed = 0
    for ch in tenant:
        seed = (seed * 131 + ord(ch)) & 0x7FFFFFFF
    return seed
