"""Plan-DAG partitioning: cut the estate into shards.

The execution DAG of a plan at estate scale is one monolithic graph;
walking it in a single executor is the Terraform bottleneck the paper's
cloudless control plane routes around. This module cuts the DAG into
**shards** -- by default one per ``(provider, region)`` partition,
optionally refined into weakly-connected components -- with every
dependency edge classified as intra-shard or recorded explicitly as a
cross-shard edge. Shard ids are deterministic across runs (pure
functions of the plan), so ledgers, resumes, and tests can refer to
them stably.

The sharded executor layer (:mod:`repro.deploy.sharded`) runs the whole
plan through one ordinary executor and derives its per-shard accounting
from this partition; a cross-shard edge whose source succeeded is
published to a fencing-token-checked completion ledger. Shards are
never scheduled as units, so it does not matter that the shard-level
graph can be cyclic where the change-level DAG is not.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..perf import PERF
from .dag import Dag
from .plan import Plan, PlannedChange


def change_partition(change: PlannedChange, state, gateway) -> Tuple[str, str]:
    """The ``(provider, region)`` a change's operations land in.

    Mirrors the executor's gating partition: planner-populated fields
    first, then the prior state entry's home region, then the provider
    default. Provider ``""`` means unknown (unroutable type) -- such
    changes land in the catch-all shard.
    """
    provider = change.provider
    if not provider:
        try:
            provider = gateway.provider_of(change.rtype)
        except Exception:
            return ("", "")
    region = change.region or ""
    if not region:
        prior = change.prior if change.prior else state.get(change.address)
        if prior is not None and prior.region:
            region = prior.region
    if not region:
        try:
            region = gateway.default_region(change.rtype)
        except Exception:
            region = ""
    return (provider, region)


@dataclasses.dataclass
class Shard:
    """One schedulable slice of the plan.

    ``id`` is deterministic: ``provider/region`` for partition cells,
    ``provider/region/cN`` for connected-component refinements (N
    assigned in order of each component's smallest change id), and
    ``bundle-N`` for coalesced cells under a shard-count cap.
    """

    id: str
    provider: str
    region: str
    change_ids: List[str] = dataclasses.field(default_factory=list)

    @property
    def partition(self) -> str:
        return f"{self.provider}/{self.region}" if self.region else self.provider

    def __len__(self) -> int:
        return len(self.change_ids)


class PlanPartition:
    """The result of cutting one plan's execution DAG into shards.

    Invariants (held by ``tests/test_partition.py``):

    * every execution-DAG node belongs to exactly one shard;
    * every edge is either intra-shard or present in ``cross_edges``;
    * shard ids are deterministic across runs of the same plan.
    """

    def __init__(self) -> None:
        self.shards: Dict[str, Shard] = {}
        self.shard_of: Dict[str, str] = {}
        #: change-id -> (provider, region) gating partition, recorded
        #: while cells are formed so executors need not recompute it
        self.part_of: Dict[str, Tuple[str, str]] = {}
        #: (before, after) change-id pairs whose endpoints live in
        #: different shards; sorted for determinism
        self.cross_edges: List[Tuple[str, str]] = []

    # -- views -------------------------------------------------------------

    def shard_ids(self) -> List[str]:
        return sorted(self.shards)

    def cross_edge_count(self) -> int:
        return len(self.cross_edges)

    def cross_predecessors(self, cid: str, dag: Dag) -> List[str]:
        """Predecessors of ``cid`` that live in another shard."""
        home = self.shard_of.get(cid)
        return sorted(
            p for p in dag.predecessors(cid) if self.shard_of.get(p) != home
        )

    def shards_for_partition(self, provider: str, region: str) -> List[str]:
        """Shards whose home partition is ``provider/region`` -- the
        shards a quarantined (dark) partition parks."""
        return sorted(
            s.id
            for s in self.shards.values()
            if s.provider == provider and (not region or s.region == region)
        )


def partition_plan(
    plan: Plan,
    gateway: Any,
    dag: Optional[Dag] = None,
    *,
    split_components: bool = False,
    max_shards: Optional[int] = None,
) -> PlanPartition:
    """Cut ``plan``'s execution DAG into shards.

    ``split_components=True`` refines each ``(provider, region)`` cell
    into the weakly-connected components of its induced subgraph (ids
    ``provider/region/cN``). ``max_shards`` coalesces cells
    round-robin (sorted order) into at most that many shards
    (``bundle-N`` ids) -- the ``--shards`` CLI knob.
    """
    if dag is None:
        dag = plan.execution_dag()
    state = plan.state
    part = PlanPartition()

    # 1. partition cells
    cells: Dict[Tuple[str, str], List[str]] = {}
    part_of = part.part_of
    for cid in sorted(dag.nodes):
        change = plan.changes[cid]
        cell = change_partition(change, state, gateway)
        part_of[cid] = cell
        cells.setdefault(cell, []).append(cid)

    # 2. optional component refinement within each cell (union-find
    # over intra-cell edges)
    groups: List[Tuple[str, str, str, List[str]]] = []  # (sid, prov, region, cids)
    if split_components:
        for (provider, region), cids in sorted(cells.items()):
            members = set(cids)
            parent = {c: c for c in cids}

            def find(x: str) -> str:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for cid in cids:
                for succ in dag.successors(cid):
                    if succ in members:
                        ra, rb = find(cid), find(succ)
                        if ra != rb:
                            parent[max(ra, rb)] = min(ra, rb)
            comps: Dict[str, List[str]] = {}
            for cid in cids:
                comps.setdefault(find(cid), []).append(cid)
            for i, root in enumerate(sorted(comps)):
                sid = f"{provider}/{region}/c{i}"
                groups.append((sid, provider, region, sorted(comps[root])))
    else:
        for (provider, region), cids in sorted(cells.items()):
            sid = f"{provider}/{region}"
            groups.append((sid, provider, region, sorted(cids)))

    # 3. optional coalescing under a shard-count cap
    if max_shards is not None and max_shards >= 1 and len(groups) > max_shards:
        buckets: List[List[Tuple[str, str, str, List[str]]]] = [
            [] for _ in range(max_shards)
        ]
        for i, group in enumerate(sorted(groups)):
            buckets[i % max_shards].append(group)
        merged: List[Tuple[str, str, str, List[str]]] = []
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            providers = sorted({g[1] for g in bucket})
            regions = sorted({g[2] for g in bucket})
            provider = providers[0] if len(providers) == 1 else ""
            region = regions[0] if len(regions) == 1 else ""
            cids = sorted(cid for g in bucket for cid in g[3])
            merged.append((f"bundle-{i}", provider, region, cids))
        groups = merged

    for sid, provider, region, cids in groups:
        part.shards[sid] = Shard(sid, provider, region, cids)
        for cid in cids:
            part.shard_of[cid] = sid

    # 4. classify edges
    cross: List[Tuple[str, str]] = []
    for before, after in dag.iter_edges():
        if part.shard_of[before] != part.shard_of[after]:
            cross.append((before, after))
    cross.sort()
    part.cross_edges = cross
    PERF.count("shard.shards", len(part.shards))
    PERF.count("shard.cross_edges", len(cross))
    return part
