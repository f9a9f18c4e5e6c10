"""Sharded plan execution: one dispatch loop over a partitioned DAG.

The estate's execution DAG is cut into shards (:mod:`repro.graph.partition`)
and applied by the strategy's ordinary executor from
:mod:`repro.deploy.executor` -- there is no second loop here. Two modes:

**Interleaved** (default): the whole plan runs through
:meth:`PlanExecutor.apply` once, so the op stream, sim makespan and final
state are the single executor's by construction, as are its WAL, crash
hook, health gating and retry behaviour. Sharding adds the partition and
the bookkeeping derived from it after the run -- per-shard summaries,
cross-shard releases, the ``shard.*`` counters. It buys no wall-clock:
``benchmarks/BENCH_shard.json`` has the sharded arm *behind* the single
executor (2.73 s vs 2.35 s at 10k, 26.5 s vs 24.2 s at 100k, one
``state_sha``) -- the price of the partition pass and the accounting.

**Pool** (``workers > 1``): shards are grouped by provider (a simulated
control plane mints ids and computed attributes from sequential
per-plane streams, so a worker must own whole planes) and plane groups
run in forked worker processes over the shard-level dependency graph,
either on a ready frontier (``overlap``, the default) or in
barrier-separated waves. Each worker runs the same
:meth:`PlanExecutor.apply` over its member subset, inherits the plan via
fork copy-on-write and returns picklable deltas -- committed state
entries, resolver overrides, and plane runtime (records, id counter,
RNG stream) -- which the parent merges through the copy-on-write
:class:`StateDocument`, so merging stays O(changed). Pool mode
reproduces single-executor results when plane groups are independent
and concurrency is not binding; with cross-group edges the coarse
barriers can only delay operations, never reorder them within a plane.

Cross-shard completions are recorded in a :class:`CompletionLedger`
guarded by fencing tokens: every apply grants each shard a fresh token,
publishes under it the succeeded changes some other shard waits on, and
a publication with a stale token is rejected. A shard whose
(provider, region) partition goes dark parks alone -- the executor's
quarantine layer contains the blast radius per change, and the shard's
summary carries the parked work.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import selectors
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..cloud.gateway import CloudGateway
from ..cloud.resilience import HealthMonitor, RetryPolicy
from ..graph.dag import Dag
from ..graph.partition import PlanPartition, partition_plan
from ..graph.plan import Action, Plan
from ..perf import PERF
from ..state.document import ResourceState
from .executor import (
    EXECUTORS,
    ApplyResult,
    CriticalPathExecutor,
    PlanExecutor,
    SequentialExecutor,
)
from .wal import IntentJournal


class FencingError(RuntimeError):
    """A shard published a completion with a stale fencing token."""


class CompletionLedger:
    """Cross-shard completion ledger with fencing tokens.

    Each shard executor must hold the ledger's *current* token for its
    shard to publish completions; :meth:`grant` invalidates every
    earlier token for that shard. A zombie executor resumed after its
    shard was re-granted (crash recovery, quarantine lift) therefore
    cannot corrupt the barrier bookkeeping -- its publications raise
    :class:`FencingError` and are not recorded.
    """

    def __init__(self) -> None:
        self._tokens: Dict[str, int] = {}
        self._published: Set[str] = set()
        self._per_shard: Dict[str, int] = {}
        self.rejected = 0

    def grant(self, shard_id: str) -> int:
        """Issue a new fencing token for ``shard_id``, invalidating all
        previously granted tokens for it."""
        token = self._tokens.get(shard_id, 0) + 1
        self._tokens[shard_id] = token
        return token

    def current_token(self, shard_id: str) -> int:
        return self._tokens.get(shard_id, 0)

    def publish(self, shard_id: str, token: int, change_id: str) -> None:
        """Record ``change_id`` complete, on behalf of ``shard_id``."""
        if token != self._tokens.get(shard_id, 0):
            self.rejected += 1
            raise FencingError(
                f"stale token {token} for shard {shard_id} "
                f"(current {self._tokens.get(shard_id, 0)})"
            )
        if change_id not in self._published:
            self._published.add(change_id)
            self._per_shard[shard_id] = self._per_shard.get(shard_id, 0) + 1

    def completed(self, change_id: str) -> bool:
        return change_id in self._published

    def published_by(self, shard_id: str) -> int:
        return self._per_shard.get(shard_id, 0)

    def __len__(self) -> int:
        return len(self._published)


@dataclasses.dataclass
class ShardSummary:
    """Per-shard outcome bookkeeping carried on the apply result."""

    shard_id: str
    changes: int = 0
    succeeded: int = 0
    failed: int = 0
    quarantined: int = 0
    barrier_releases: int = 0


@dataclasses.dataclass
class ShardedApplyResult(ApplyResult):
    mode: str = "interleaved"
    waves: int = 1
    barrier_waits: int = 0
    #: pool mode only: True when units were dispatched on the ready
    #: frontier (overlapped) instead of barrier-separated waves
    overlapped: bool = False
    shard_summaries: Dict[str, ShardSummary] = dataclasses.field(
        default_factory=dict
    )

    @property
    def shard_count(self) -> int:
        return len(self.shard_summaries)


#: one pool worker's assignment: (shard ids of its plane group, the
#: change ids in them)
_Job = Tuple[List[str], Set[str]]


class ShardedExecutor:
    """Partitioned apply over one plan.

    ``strategy`` selects the scheduling discipline (``"critical-path"``
    (default), ``"best-effort"``, ``"sequential"``); the interleaved
    apply *is* that executor's apply, plus shard bookkeeping.
    ``workers > 1`` switches to pool mode (forked process per plane
    group); pool mode does not support WAL journaling, health gating,
    or crash hooks and falls back to interleaved execution when any is
    requested.
    """

    name = "sharded"

    def __init__(
        self,
        gateway: CloudGateway,
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        health: Optional[HealthMonitor] = None,
        strategy: str = "critical-path",
        rate_aware: bool = True,
        split_components: bool = False,
        max_shards: Optional[int] = None,
        workers: int = 1,
        overlap: bool = True,
    ):
        if strategy not in EXECUTORS:
            raise ValueError(f"unknown sharded strategy {strategy!r}")
        self.gateway = gateway
        self.concurrency = 1 if strategy == "sequential" else max(1, concurrency)
        self.retry = retry or RetryPolicy()
        self.health = health
        self.strategy = strategy
        self.rate_aware = rate_aware
        self.split_components = split_components
        self.max_shards = max_shards
        self.workers = max(1, workers)
        #: pool mode: dispatch provider units the moment their own
        #: cross-group predecessors have merged (ready frontier).
        #: ``False`` restores barrier-separated waves -- kept for the
        #: overlapped-vs-barrier benchmark gate.
        self.overlap = overlap
        self.ledger = CompletionLedger()
        self.partition: Optional[PlanPartition] = None

    def _strategy_executor(self) -> PlanExecutor:
        cls = EXECUTORS[self.strategy]
        kwargs: Dict[str, Any] = {}
        if cls is not SequentialExecutor:
            kwargs["concurrency"] = self.concurrency
        if cls is CriticalPathExecutor:
            kwargs["rate_aware"] = self.rate_aware
        return cls(self.gateway, retry=self.retry, health=self.health, **kwargs)

    # -- entry ---------------------------------------------------------------

    def apply(
        self,
        plan: Plan,
        wal: Optional[IntentJournal] = None,
        crash_hook: Optional[Callable[[int], None]] = None,
    ) -> ShardedApplyResult:
        dag = plan.execution_dag()
        partition = partition_plan(
            plan,
            self.gateway,
            dag,
            split_components=self.split_components,
            max_shards=self.max_shards,
        )
        self.partition = partition
        plan.resolver.enable_decl_cache()
        PERF.count("shard.applies")
        inner = self._strategy_executor()
        tokens = {sid: self.ledger.grant(sid) for sid in partition.shard_ids()}
        if (
            self.workers > 1
            and wal is None
            and self.health is None
            and crash_hook is None
            and len(partition.plane_groups()) > 1
        ):
            # forked workers inherit the critical-path analysis through
            # the plan's cache instead of each redoing it
            inner.prepare(plan, dag)
            pool = (
                self._apply_pool_overlapped
                if self.overlap
                else self._apply_pool_barrier
            )
            result = pool(plan, dag, partition, inner)
        else:
            result = ShardedApplyResult(
                **vars(inner.apply(plan, wal, crash_hook, dag=dag))
            )
        self._account(result, partition, tokens)
        return result

    def _account(
        self,
        result: ShardedApplyResult,
        partition: PlanPartition,
        tokens: Dict[str, int],
    ) -> None:
        """Shard bookkeeping, derived from the finished run and the
        partition: per-shard summaries, cross-shard releases, ledger
        publications under this run's ``tokens``, ``shard.*`` counters."""
        t_account = time.perf_counter()
        shard_of = partition.shard_of
        summaries = {
            sid: ShardSummary(sid, changes=len(partition.shards[sid]))
            for sid in partition.shard_ids()
        }
        for cid in result.succeeded:
            summaries[shard_of[cid]].succeeded += 1
        for cid in result.failed:
            summaries[shard_of[cid]].failed += 1
        for cid in result.quarantined:
            summaries[shard_of[cid]].quarantined += 1
        done = set(result.succeeded)
        for before, after in partition.cross_edges:
            if before in done:
                home = shard_of[before]
                self.ledger.publish(home, tokens[home], before)
                summaries[shard_of[after]].barrier_releases += 1
        result.shard_summaries = summaries
        result.barrier_waits = sum(
            s.barrier_releases for s in summaries.values()
        )
        if PERF.enabled:
            # changes that issued at least one operation
            PERF.count(
                "shard.dispatches",
                len({op.change_id for op in result.operations}),
            )
            if result.barrier_waits:
                PERF.count("shard.barrier_waits", result.barrier_waits)
            if result.quarantined:
                PERF.count("shard.parked_changes", len(result.quarantined))
            PERF.observe(
                "shard.merge_ms", (time.perf_counter() - t_account) * 1000.0
            )

    # -- pool mode -----------------------------------------------------------

    def _merge_outcome(
        self,
        result: ShardedApplyResult,
        outcome: Dict[str, Any],
        plan: Plan,
        dead: Set[str],
    ) -> float:
        """Fold one worker's outcome into the parent; returns its
        sim-time finish."""
        state = plan.state
        t_merge = time.perf_counter()
        result.succeeded.extend(outcome["succeeded"])
        result.failed.update(outcome["failed"])
        result.skipped.extend(outcome["skipped"])
        result.operations.extend(outcome["operations"])
        dead.update(outcome["failed"])
        dead.update(outcome["skipped"])
        # merge shard-local state deltas through the COW document
        for entry in outcome["entries"]:
            state.set(entry)
        for address in outcome["removed"]:
            state.remove(address)
        for cid, attrs in outcome["overrides"].items():
            plan.resolver.set_override(cid, attrs)
        for cid in outcome["dropped"]:
            plan.resolver.drop_override(cid)
        # the worker owned these planes outright: adopt their final
        # runtime (touched records, counters, RNG stream, log suffix)
        for provider, delta in outcome["planes"].items():
            _import_plane_delta(self.gateway.planes[provider], delta)
        PERF.observe(
            "shard.merge_ms", (time.perf_counter() - t_merge) * 1000.0
        )
        return outcome["finished_at"]

    def _apply_pool_barrier(
        self,
        plan: Plan,
        dag: Dag,
        partition: PlanPartition,
        inner: PlanExecutor,
    ) -> ShardedApplyResult:
        """Historical pool mode: barrier-separated waves."""
        gateway = self.gateway
        clock = gateway.clock
        started = clock.now
        calls_before_total = gateway.total_api_calls()
        result = ShardedApplyResult(
            started_at=started, finished_at=started, mode="pool"
        )
        waves = partition.pool_waves()
        result.waves = len(waves)
        dead: Set[str] = set()

        for wave in waves:
            # one worker per plane group in this wave
            jobs: List[_Job] = []
            for group in wave:
                members = {
                    cid
                    for sid in group
                    for cid in partition.shards[sid].change_ids
                }
                if members:
                    jobs.append((group, members))
            if not jobs:
                continue
            outcomes = _run_forked(inner, plan, dag, partition, jobs, dead)
            wave_end = clock.now
            for outcome in outcomes:
                wave_end = max(
                    wave_end, self._merge_outcome(result, outcome, plan, dead)
                )
            clock.advance_to(wave_end)

        result.finished_at = clock.now
        result.state = plan.state
        result.api_calls = gateway.total_api_calls() - calls_before_total
        plan.state.bump()
        return result

    def _apply_pool_overlapped(
        self,
        plan: Plan,
        dag: Dag,
        partition: PlanPartition,
        inner: PlanExecutor,
    ) -> ShardedApplyResult:
        """Ready-frontier pool: fork each provider unit the moment its
        own cross-group predecessors have merged.

        The barrier scheduler holds every wave-N+1 worker until the
        *slowest* wave-N worker finishes, even when its actual
        predecessors landed long before. Here the condensed provider
        units (:meth:`PlanPartition.pool_units`) are dispatched
        individually: a unit forks as soon as its predecessor units
        are merged, its child clock starts at the latest predecessor
        finish (sim-time dependencies hold), and outcomes are
        collected as workers finish rather than in submission order.
        At most ``workers`` children are in flight.
        """
        gateway = self.gateway
        clock = gateway.clock
        started = clock.now
        calls_before_total = gateway.total_api_calls()
        result = ShardedApplyResult(
            started_at=started, finished_at=started, mode="pool",
            overlapped=True,
        )
        units, unit_deps = partition.pool_units()
        groups = partition.plane_groups()
        dead: Set[str] = set()

        jobs: List[_Job] = []
        for unit in units:
            group = [sid for p in unit for sid in groups.get(p, [])]
            members = {
                cid
                for sid in group
                for cid in partition.shards[sid].change_ids
            }
            jobs.append((group, members))
        result.waves = sum(1 for _, members in jobs if members)

        n = len(units)
        merged: Set[int] = set()
        unit_end: Dict[int, float] = {}
        launched: Set[int] = set()
        for i in range(n):
            if not jobs[i][1]:  # nothing to do: merged at birth
                merged.add(i)
                launched.add(i)
                unit_end[i] = started
        can_fork = hasattr(os, "fork")
        sel = selectors.DefaultSelector() if can_fork else None
        inflight: Dict[int, Tuple[int, int]] = {}  # unit -> (pid, fd)
        buffers: Dict[int, bytearray] = {}
        sim_end = started

        def start_time(i: int) -> float:
            return max([started] + [unit_end[d] for d in unit_deps[i]])

        def finalize(i: int, outcome: Dict[str, Any]) -> None:
            end = self._merge_outcome(result, outcome, plan, dead)
            unit_end[i] = end
            merged.add(i)

        def launch(i: int) -> None:
            launched.add(i)
            group, members = jobs[i]
            start_at = start_time(i)
            if not can_fork:  # pragma: no cover - non-posix fallback
                clock.advance_to(start_at)
                finalize(
                    i, _pool_job(inner, plan, dag, partition, group, members, dead)
                )
                return
            pid, read_fd = _fork_job(
                inner, plan, dag, partition, group, members, dead, start_at
            )
            inflight[i] = (pid, read_fd)
            buffers[i] = bytearray()
            assert sel is not None
            sel.register(read_fd, selectors.EVENT_READ, data=i)

        try:
            while len(merged) < n:
                frontier = sorted(
                    i
                    for i in range(n)
                    if i not in launched and unit_deps[i] <= merged
                )
                for i in frontier:
                    if len(inflight) >= self.workers:
                        break
                    launch(i)
                if not inflight:
                    if len(merged) < n and not any(
                        i not in launched and unit_deps[i] <= merged
                        for i in range(n)
                    ):  # pragma: no cover - pool_units condenses cycles
                        raise RuntimeError("pool schedule stalled (cycle?)")
                    continue
                assert sel is not None
                for key, _mask in sel.select():
                    i = key.data
                    fd = key.fileobj
                    chunk = os.read(fd, 1 << 20)
                    if chunk:
                        buffers[i] += chunk
                        continue
                    # EOF: worker finished; reap and merge
                    sel.unregister(fd)
                    os.close(fd)
                    pid, _ = inflight.pop(i)
                    _, status = os.waitpid(pid, 0)
                    payload = bytes(buffers.pop(i))
                    if not payload:
                        raise RuntimeError(
                            f"pool worker {pid} died (status {status})"
                        )
                    finalize(i, pickle.loads(payload))
        finally:
            # empty unless a worker died or its outcome failed to merge:
            # the siblings' results are void, so stop and reap them
            # rather than leave children and pipes behind the error
            for pid, fd in inflight.values():
                os.close(fd)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if sel is not None:
                sel.close()
        # independent units merge in wall-clock completion order, which
        # is nondeterministic run to run; canonicalize the merged
        # artifacts so a pool apply is byte-stable regardless of which
        # worker's pipe hit EOF first
        result.operations.sort(
            key=lambda op: (op.t_submit, op.t_complete, op.change_id, op.attempt)
        )
        result.succeeded.sort()
        result.skipped.sort()
        for end in unit_end.values():
            sim_end = max(sim_end, end)
        clock.advance_to(sim_end)
        result.finished_at = clock.now
        result.state = plan.state
        result.api_calls = gateway.total_api_calls() - calls_before_total
        plan.state.bump()
        return result


def _export_plane_delta(
    plane: Any, base_cursor: int, base_tokens: int
) -> Dict[str, Any]:
    """Ship only what this worker *changed* on its plane.

    The historical export copied the full record map and activity log
    -- O(estate) pickled per wave even when one shard touched ten
    resources. The activity log already names every resource a run
    created, updated, or deleted, so the delta is derived from the log
    suffix past the fork-time cursor: touched records (or their
    absence, for deletes), the log suffix itself, the id/generation
    counters, and the token-index tail. Everything here is O(changed).
    """
    events = plane.log.events_since(base_cursor)
    touched: Dict[str, None] = {}
    gen_keys = set()
    for event in events:
        if event.resource_id:
            touched[event.resource_id] = None
        if event.operation == "create":
            gen_keys.add(
                (event.resource_type, event.region, event.resource_name)
            )
    records: Dict[str, Any] = {}
    removed_ids: List[str] = []
    for rid in touched:
        record = plane.records.get(rid)
        if record is not None:
            records[rid] = record
        else:
            removed_ids.append(rid)
    return {
        "records": records,
        "removed_ids": removed_ids,
        "next_id": plane._next_id,
        "id_gens": {
            key: plane._id_gens[key]
            for key in gen_keys
            if key in plane._id_gens
        },
        "rng_state": plane.rng.getstate(),
        "api_calls": dict(plane.api_calls),
        "tokens": dict(
            itertools.islice(plane._tokens.items(), base_tokens, None)
        ),
        "log_suffix": events,
    }


def _import_plane_delta(plane: Any, delta: Dict[str, Any]) -> None:
    """Upsert a worker's plane delta (idempotent, O(changed))."""
    for rid, record in delta["records"].items():
        plane.records[rid] = record
    for rid in delta["removed_ids"]:
        if rid in plane.records:
            del plane.records[rid]
    plane._next_id = max(plane._next_id, delta["next_id"])
    for key, gen in delta["id_gens"].items():
        if gen > plane._id_gens.get(key, 0):
            plane._id_gens[key] = gen
    plane.rng.setstate(delta["rng_state"])
    plane.api_calls = dict(delta["api_calls"])
    plane._tokens.update(delta["tokens"])
    plane.log.extend_from(delta["log_suffix"])



def _fork_job(
    inner: PlanExecutor,
    plan: Plan,
    dag: Dag,
    partition: PlanPartition,
    group: List[str],
    members: Set[str],
    dead: Set[str],
    start_at: Optional[float] = None,
) -> Tuple[int, int]:
    """Fork one plane-group worker; returns ``(pid, read_fd)``.

    The child inherits the full plan/gateway via fork copy-on-write,
    optionally advances its (private) clock to ``start_at`` -- the
    latest predecessor finish under overlapped scheduling -- and
    streams a pickled outcome back over the pipe.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 1
        try:
            if start_at is not None:
                inner.gateway.clock.advance_to(start_at)
            outcome = _pool_job(inner, plan, dag, partition, group, members, dead)
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _run_forked(
    inner: PlanExecutor,
    plan: Plan,
    dag: Dag,
    partition: PlanPartition,
    jobs: List[_Job],
    dead: Set[str],
) -> List[Dict[str, Any]]:
    """Run one wave's plane-group jobs in forked children.

    Children inherit the full plan/gateway via fork copy-on-write and
    stream a pickled outcome back over a pipe. Falls back to in-process
    sequential execution where ``fork`` is unavailable.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-posix fallback
        return [
            _pool_job(inner, plan, dag, partition, group, members, dead)
            for group, members in jobs
        ]
    procs = [
        _fork_job(inner, plan, dag, partition, group, members, dead)
        for group, members in jobs
    ]
    outcomes: List[Dict[str, Any]] = []
    errors: List[str] = []
    for pid, read_fd in procs:
        with os.fdopen(read_fd, "rb") as src:
            payload = src.read()
        _, status = os.waitpid(pid, 0)
        if not payload:
            errors.append(f"worker {pid} died (status {status})")
            continue
        outcomes.append(pickle.loads(payload))
    if errors:
        raise RuntimeError("; ".join(errors))
    return outcomes


def _pool_job(
    inner: PlanExecutor,
    plan: Plan,
    dag: Dag,
    partition: PlanPartition,
    group: List[str],
    members: Set[str],
    dead: Set[str],
) -> Dict[str, Any]:
    """One plane-group worker: run the executor's loop over the group's
    members and export a picklable outcome."""
    gateway = inner.gateway
    state = plan.state
    providers = sorted(
        {partition.shards[sid].provider for sid in group if partition.shards[sid].provider}
    )
    # fork-time baselines: the delta export ships only what this run
    # appended past these marks (tokens is insertion-ordered and only
    # ever grows, so a length is a cursor)
    plane_base = {
        provider: (
            gateway.planes[provider].log.next_cursor,
            len(gateway.planes[provider]._tokens),
        )
        for provider in providers
    }
    sub = inner.apply(plan, dag=dag, only=members, pre_dead=dead)
    committed: List[ResourceState] = []
    removed: List[Any] = []
    dropped: List[str] = []
    for cid in sub.succeeded:
        change = plan.changes[cid]
        if change.action == Action.DELETE:
            removed.append(change.address)
            dropped.append(cid)
            continue
        entry = state.get(change.address)
        if entry is not None:
            committed.append(entry)
    return {
        "finished_at": sub.finished_at,
        "succeeded": sub.succeeded,
        "failed": sub.failed,
        "skipped": sub.skipped,
        "operations": sub.operations,
        "entries": committed,
        "removed": removed,
        "overrides": {
            cid: plan.resolver.overrides[cid]
            for cid in sub.succeeded
            if cid in plan.resolver.overrides
        },
        "dropped": dropped,
        "planes": {
            provider: _export_plane_delta(
                gateway.planes[provider], *plane_base[provider]
            )
            for provider in providers
        },
    }
