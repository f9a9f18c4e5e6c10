"""Sharded plan execution: the ordinary executor plus shard bookkeeping.

The estate's execution DAG is cut into shards (:mod:`repro.graph.partition`)
and the whole plan runs once through :meth:`PlanExecutor.apply` of the
strategy's ordinary executor -- there is no second loop and no second
mode here. The op stream, sim makespan and final state are therefore the
single executor's by construction, as are its WAL, crash hook, health
gating and retry behaviour. Sharding adds the partition and the
bookkeeping derived from it after the run: per-shard summaries,
cross-shard releases, the ``shard.*`` counters. It buys no wall-clock:
``benchmarks/BENCH_shard.json`` has the sharded arm *behind* the single
executor with one ``state_sha`` -- the price of the partition pass and
the accounting.

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
import time
from typing import Callable, Dict, Optional, Set

from ..cloud.gateway import CloudGateway
from ..cloud.resilience import HealthMonitor, RetryPolicy
from ..graph.partition import PlanPartition, partition_plan
from ..graph.plan import Plan
from ..perf import PERF
from .executor import EXECUTORS, ApplyResult, make_executor
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
    barrier_waits: int = 0
    shard_summaries: Dict[str, ShardSummary] = dataclasses.field(
        default_factory=dict
    )

    @property
    def shard_count(self) -> int:
        return len(self.shard_summaries)


class ShardedExecutor:
    """Partitioned apply over one plan.

    ``strategy`` selects the scheduling discipline (``"critical-path"``
    (default), ``"best-effort"``, ``"sequential"``); the apply *is* that
    executor's apply, plus shard bookkeeping.
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
    ):
        if strategy not in EXECUTORS:
            raise ValueError(f"unknown sharded strategy {strategy!r}")
        self.gateway = gateway
        self.concurrency = concurrency
        self.retry = retry or RetryPolicy()
        self.health = health
        self.strategy = strategy
        self.rate_aware = rate_aware
        self.split_components = split_components
        self.max_shards = max_shards
        self.ledger = CompletionLedger()
        self.partition: Optional[PlanPartition] = None

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
        PERF.count("shard.applies")
        inner = make_executor(
            self.strategy,
            self.gateway,
            concurrency=self.concurrency,
            retry=self.retry,
            health=self.health,
            rate_aware=self.rate_aware,
        )
        tokens = {sid: self.ledger.grant(sid) for sid in partition.shard_ids()}
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
