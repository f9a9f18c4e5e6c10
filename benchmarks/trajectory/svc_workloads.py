"""``svc_closed`` and ``svc_open``: one ``ControlPlaneService`` in this
process, driven from its own asyncio loop through ``submit`` only."""

from __future__ import annotations

import asyncio
import os
import random
import resource
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from measure import Outcome, Sample, classify
from tracing import SEAMS, Tracer

#: engine executions in flight at once; the rest of ServicePolicy is
#: the default unless a workload says otherwise
APPLY_POOL = 2

CLOSED_TENANTS = 16
#: the closed loop flips tracing between blocks of this many ops, so
#: traced and untraced samples age with the estates together
BLOCK_OPS = 40

#: open loop: fixed offered rates, chosen once on the reference box
#: (about 0.4x and 3x of what two engine slots complete), never
#: calibrated at run time
LO_RPS = 8.0
HI_RPS = 60.0
#: svc_open splits --seconds: unloaded baseline, below the knee, overload
BASE_SHARE, LO_SHARE, HI_SHARE = 0.40, 0.25, 0.35
STEADY, BURSTY, NOISY = 4, 2, 1
NOISY_FACTOR = 8.0
#: set-up is about a second: done this often, median reported
SETUP_REPEATS = 3
#: the service renews a tenant's session lease only on mutating ops and
#: answers 409 once it lapses (default 30 s): on a slow box a quiet
#: tenant's first apply in a while would fail for no fault of the
#: program, so the lease outlives any run
SESSION_TTL_S = 600.0

SERVICE_SEAMS = tuple(seam for seam in SEAMS if seam.layer != "cli")


class Client:
    """Issues requests, checks every answer, keeps the samples.

    Works against anything with the service's ``submit`` signature, so
    the self-tests drive it with a fake.
    """

    def __init__(self, service: Any, tracer: Optional[Tracer], base: str, rng: random.Random):
        self.service = service
        self.tracer = tracer
        self.base = base
        self.resources = inputs.estate_size(base)
        self.samples: List[Sample] = []
        self.problems: List[str] = []
        self.ops = 0
        self._rng = rng
        self._blocks = inputs.service_names(base)
        #: tenant -> the block whose ``rev`` tag its applies rewrite
        self.block_of: Dict[str, str] = {}
        #: tenant -> revision of its last apply answered 200
        self.applied_rev: Dict[str, str] = {}
        self._traced_futures: List[Any] = []

    def _payload(self, tenant: str, kind: str, op: int) -> Tuple[Dict[str, Any], str]:
        if kind != "apply":
            # plan without sources plans what is applied: always a no-op
            return {}, ""
        if tenant not in self.block_of:
            self.block_of[tenant] = self._rng.choice(self._blocks)
        block = self.block_of[tenant]
        revision = f"r{op}"
        return {"sources": inputs.tag_revision(self.base, block, revision)}, revision

    def _check(self, kind: str, first_apply: bool, body: Dict[str, Any]) -> Optional[str]:
        """The answer the generator's arithmetic demands, or a complaint."""
        if kind in ("apply", "plan"):
            summary = body.get("summary", {})
            got = tuple(summary.get(k, -1) for k in ("create", "update", "replace", "delete"))
            if kind == "plan":
                want = (0, 0, 0, 0)
            elif first_apply:
                want = (self.resources, 0, 0, 0)
            else:
                want = (0, inputs.UPDATES_PER_EDIT, 0, 0)
            if got != want or (kind == "apply" and not body.get("ok")):
                return f"create/update/replace/delete {got}, generator says {want}"
        elif kind == "drift":
            if body.get("findings") != 0 or body.get("unreachable"):
                return f"drift on an untouched estate: {body}"
        elif kind == "stats":
            if body.get("resources") != self.resources:
                return f"{body.get('resources')} resources, generator says {self.resources}"
        return None

    async def submit(
        self,
        tenant: str,
        kind: str,
        priority: Optional[int] = None,
        due_at: Optional[float] = None,
        phase: str = "",
        shedding_designed: bool = False,
        sampled: bool = True,
    ) -> "asyncio.Future[Any]":
        """Send one request; its Sample is recorded when it resolves.

        Latency runs from ``due_at`` (open loop: when the schedule
        wanted it sent, so a stall is charged to every request it
        delayed) or, without one, from the moment of submission.
        """
        self.ops += 1
        op = self.ops
        payload, revision = self._payload(tenant, kind, op)
        first_apply = kind == "apply" and tenant not in self.applied_rev
        tracer = self.tracer if self.tracer and self.tracer.installed else None
        submitted = time.perf_counter()
        due = submitted if due_at is None else due_at
        if tracer is not None:
            span_id = tracer.new_id()
            tracer.op_of_span[span_id] = op
            with tracer.under(span_id):
                future = await self.service.submit(
                    tenant, kind, payload=payload, priority=priority
                )
            tracer.op_of_future[id(future)] = op
            # ids are only unique among live objects: keep it alive
            self._traced_futures.append(future)
        else:
            future = await self.service.submit(
                tenant, kind, payload=payload, priority=priority
            )

        def resolved(done: "asyncio.Future[Any]") -> None:
            finished = time.perf_counter()
            response = done.result()
            outcome = classify(response.status, response.reason, shedding_designed)
            complaint = ""
            if outcome == "ok":
                complaint = self._check(kind, first_apply, response.body or {}) or ""
                if complaint:
                    outcome = "failed"
                elif kind == "apply":
                    self.applied_rev[tenant] = revision
            elif outcome == "failed":
                complaint = f"status {response.status} reason {response.reason!r}"
            if complaint:
                self.problems.append(f"op {op} {tenant} {kind}: {complaint}")
            if tracer is not None:
                tracer.spans.append(
                    (span_id, 0, "service.request", submitted, finished,
                     {"kind": kind, "status": response.status})
                )
            if sampled:
                self.samples.append(
                    Sample(
                        kind=kind,
                        latency_s=finished - due,
                        outcome=outcome,
                        traced=tracer is not None,
                        op=op,
                        phase=phase,
                        tenant=tenant,
                        started_at=submitted,
                        done_at=finished,
                        queued_s=response.queued_s,
                        engine_s=response.service_s,
                        reason=response.reason or complaint,
                    )
                )

        future.add_done_callback(resolved)
        return future


async def drive_open_loop(
    schedule: Sequence[Any],
    issue: Callable[[Any, float], Awaitable["asyncio.Future[Any]"]],
    clock: Callable[[], float] = time.perf_counter,
) -> Tuple[float, List["asyncio.Future[Any]"], float]:
    """Send each arrival at its due time whether or not earlier ones
    have been answered. Returns ``(start, futures, worst lateness)``;
    lateness is how far behind its own schedule the generator ran."""
    started = clock()
    futures = []
    late_max = 0.0
    for arrival in schedule:
        due = started + arrival.t
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        late_max = max(late_max, clock() - due)
        futures.append(await issue(arrival, due))
    return started, futures, late_max


# -- shared set-up and verification --------------------------------------------------


def _tracing(tracer: Optional[Tracer], on: bool) -> None:
    """Install or remove the wrappers and the program's own counters."""
    import repro.perf

    assert tracer is not None
    if on:
        tracer.install(SERVICE_SEAMS)
        repro.perf.enable()
    else:
        repro.perf.disable()
        tracer.restore()


def _world_bytes(root: str, tenants: Sequence[str]) -> float:
    sizes = [
        os.path.getsize(os.path.join(root, "tenants", t, "world.json")) for t in tenants
    ]
    return sum(sizes) / len(sizes)


def _verify_estates(client: Client, root: str, tenants: Sequence[str]) -> Tuple[int, int]:
    """After the service has stopped: each tenant's persisted estate
    has every resource and carries the last revision it was told to."""
    from repro.persist import load_world

    failed = 0
    for tenant in tenants:
        engine = load_world(os.path.join(root, "tenants", tenant, "world.json"))
        entries = list(engine.state.resources())
        block = client.block_of[tenant]
        revisions = {
            entry.attrs.get("tags", {}).get("rev")
            for entry in entries
            if entry.attrs.get("tags", {}).get("service") == block
        }
        want = {client.applied_rev[tenant]}
        if len(entries) != client.resources or revisions != want:
            failed += 1
            client.problems.append(
                f"tenant {tenant}: {len(entries)} resources, revisions "
                f"{sorted(map(str, revisions))}; generator says "
                f"{client.resources} and {sorted(want)}"
            )
    return len(tenants), failed


async def _start(
    scratch: str,
    policy: Any,
    tenants: Sequence[str],
    tracer: Optional[Tracer],
    rng: random.Random,
) -> Tuple[Any, Client, str, List[Tuple[float, float]]]:
    """Untimed: start the service and give every tenant its estate,
    SETUP_REPEATS times over in fresh roots; the last one is kept.
    Returns ``(service, client, root, set-up windows)``."""
    from repro.service import ControlPlaneService

    windows = []
    problems: List[str] = []
    for attempt in range(SETUP_REPEATS):
        root = os.path.join(scratch, f"service-root-{attempt}")
        started = time.perf_counter()
        service = ControlPlaneService(root, instance="trajectory", policy=policy)
        client = Client(service, tracer, inputs.tenant_estate(), rng)
        await service.start()
        for tenant in tenants:
            await (await client.submit(tenant, "apply", sampled=False))
        windows.append((started, time.perf_counter()))
        problems.extend(client.problems)
        if attempt < SETUP_REPEATS - 1:
            await service.stop()
    client.problems = problems
    return service, client, root, windows


async def _closed_loop(
    client: Client,
    tenants: Sequence[str],
    weights: Sequence[float],
    kinds,
    rng: random.Random,
    seconds: float,
    tracer: Optional[Tracer],
    phase: str = "",
) -> None:
    """One client, zero think time, for ``seconds``. A traced run flips
    the wrappers on for every other block, with nothing in flight."""
    block = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        traced = tracer is not None and block % 2 == 1
        if traced:
            _tracing(tracer, True)
        for _ in range(BLOCK_OPS):
            if time.perf_counter() - started >= seconds:
                break
            tenant = rng.choices(tenants, weights)[0]
            await (await client.submit(tenant, next(kinds), phase=phase))
        if traced:
            _tracing(tracer, False)
        block += 1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _perf_counters() -> Dict[str, int]:
    import repro.perf

    return dict(repro.perf.snapshot()["counters"])


# -- svc_closed ---------------------------------------------------------------------


def svc_closed(src_dir, seed, seconds, tracer, scratch) -> Outcome:
    """One closed-loop client, zero think time, sixteen tenants.

    No queueing by construction, so this is per-op service cost: engine
    work plus ``TenantSession.persist`` on mutating ops, next to
    read-only ops that skip persist. Tenant choice is Zipf-skewed, as
    a few busy tenants among many quiet ones. One client, because a
    second one only measures hand-off of the interpreter lock.
    """
    return asyncio.run(_svc_closed(seed, seconds, tracer, scratch))


async def _svc_closed(seed, seconds, tracer, scratch) -> Outcome:
    from repro.service import ServicePolicy, TenantQuota

    rng = random.Random(seed)
    tenants = [f"t{i:02d}" for i in range(CLOSED_TENANTS)]
    # quotas high enough that nothing sheds: every refusal is a failure
    policy = ServicePolicy(
        apply_pool=APPLY_POOL,
        session_ttl_s=SESSION_TTL_S,
        default_quota=TenantQuota(rate_rps=1e6, burst=1e6),
    )
    service, client, root, setups = await _start(scratch, policy, tenants, tracer, rng)
    bytes_first = _world_bytes(root, tenants)
    await _closed_loop(
        client, tenants, inputs.zipf_weights(len(tenants)),
        inputs.op_stream(rng), rng, seconds, tracer,
    )
    mode_transitions = service.stats()["mode_transitions"]
    await service.stop()
    checks, checks_failed = _verify_estates(client, root, tenants)
    return Outcome(
        samples=client.samples,
        setups=setups,
        peak_rss_mb=_peak_rss_mb(),
        checks=checks,
        checks_failed=checks_failed,
        problems=client.problems,
        extra={
            "resources_per_parse": client.resources,
            "world_bytes_first": bytes_first,
            "world_bytes_last": _world_bytes(root, tenants),
            "mode_transitions": mode_transitions,
        },
        perf=_perf_counters(),
        load_generators="1 closed-loop client on the service's asyncio loop",
    )


# -- svc_open -----------------------------------------------------------------------


def svc_open(src_dir, seed, seconds, tracer, scratch) -> Outcome:
    """Seven tenants (four steady, two bursty, one noisy at 8x and low
    priority) on a default-policy service, in three phases.

    ``base``: one closed-loop client alone, the service as a single
    caller finds it. ``lo``: open loop at a fixed 8 rps, below the knee.
    ``hi``: open loop at a fixed 60 rps, three times what the service
    completes; the only place admission, the fair queue and the
    degradation ladder do the work, and its typed sheds lower goodput
    instead of counting as failures.

    A typed shed is not a failure in ``lo`` either. The rates are fixed
    and the box is not: on a host running at a third of its usual speed
    8 rps is at the knee, the noisy tenant reaches its pending quota and
    is refused, correctly. Whether that happens is a fact about the
    machine, reported as ``service.lo_shed_share`` (0 on a healthy box);
    with one closed-loop client (``base``, ``svc_closed``) nothing can
    queue at any speed, so there every refusal stays a failure.

    The by-verb latencies this workload reports end to end are the
    ``base`` ones. Open-loop latency on a 2-core box moves 15-40 % from
    run to run (a 0.3 ms ``drift`` waits on timers and lock hand-offs,
    an ``apply`` on whether it overlapped another), which no bound could
    hold; it is reported per layer, from due time, as
    ``service.lo_p50_s`` / ``service.lo_p90_s``.
    """
    return asyncio.run(_svc_open(seed, seconds, tracer, scratch))


def _profiles(rate_rps: float, seed: int):
    from repro.workloads import tenant_mix

    shares = STEADY + BURSTY + NOISY * NOISY_FACTOR
    return tenant_mix(
        steady=STEADY, bursty=BURSTY, noisy=NOISY,
        base_rate_rps=rate_rps / shares, noisy_factor=NOISY_FACTOR, seed=seed,
    )


def _schedule(rate_rps: float, duration_s: float, seed: int, kinds):
    """Arrivals of the tenant mix at a total offered ``rate_rps``
    (Poisson per tenant, on/off bursts for the bursty ones), each
    carrying the next op of the mix."""
    from repro.workloads import mixed_arrivals

    arrivals = mixed_arrivals(_profiles(rate_rps, seed), duration_s=duration_s, seed=seed)
    for arrival in arrivals:
        arrival.op = next(kinds)
    return arrivals


async def _svc_open(seed, seconds, tracer, scratch) -> Outcome:
    from repro.service import ServicePolicy

    rng = random.Random(seed)
    kinds = inputs.op_stream(rng)
    lo_s, hi_s = seconds * LO_SHARE, seconds * HI_SHARE
    profiles = _profiles(HI_RPS, seed)
    tenants = [p.tenant for p in profiles]
    steady = [p.tenant for p in profiles if p.kind == "steady"]
    policy = ServicePolicy(
        apply_pool=APPLY_POOL, default_deadline_s=10.0, session_ttl_s=SESSION_TTL_S
    )
    service, client, root, setups = await _start(scratch, policy, tenants, tracer, rng)
    bytes_first = _world_bytes(root, tenants)

    await _closed_loop(
        client, tenants, [p.rate_rps for p in profiles], kinds, rng,
        seconds * BASE_SHARE, tracer, phase="base",
    )

    if tracer is not None:
        _tracing(tracer, True)
    late_max = 0.0
    hi_started = 0.0
    for phase, arrivals in (
        ("lo", _schedule(LO_RPS, lo_s, seed, kinds)),
        ("hi", _schedule(HI_RPS, hi_s, seed + 1, kinds)),
    ):

        async def issue(arrival, due, phase=phase):
            return await client.submit(
                arrival.tenant, arrival.op, priority=arrival.priority,
                due_at=due, phase=phase, shedding_designed=True,
            )

        hi_started, futures, late = await drive_open_loop(arrivals, issue)
        late_max = max(late_max, late)
        # drain before the next phase: nothing in flight changes sides
        await asyncio.gather(*futures)
    if tracer is not None:
        _tracing(tracer, False)

    mode_transitions = service.stats()["mode_transitions"]
    await service.stop()
    checks, checks_failed = _verify_estates(client, root, tenants)

    hi_ok = [s for s in client.samples if s.phase == "hi" and s.ok]
    per_steady = [sum(1 for s in hi_ok if s.tenant == t) for t in steady]
    checks += 1
    if min(per_steady) == 0:
        checks_failed += 1
        client.problems.append(f"a steady tenant was starved in phase hi: {per_steady}")
    return Outcome(
        samples=client.samples,
        setups=setups,
        peak_rss_mb=_peak_rss_mb(),
        goodput_window=(hi_started, hi_started + hi_s),
        checks=checks,
        checks_failed=checks_failed,
        problems=client.problems,
        latency_phase="base",
        extra={
            "resources_per_parse": client.resources,
            "world_bytes_first": bytes_first,
            "world_bytes_last": _world_bytes(root, tenants),
            "mode_transitions": mode_transitions,
            "generator_late_max_s": late_max,
            "steady_fairness": max(per_steady) / max(1, min(per_steady)),
        },
        perf=_perf_counters(),
        load_generators="1 client, then 1 open-loop generator, on the service's asyncio loop",
    )
