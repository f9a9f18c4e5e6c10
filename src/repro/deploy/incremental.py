"""State refresh and incremental update planning (3.3).

Baseline behaviour ("treat deltas like a deployment from scratch"):
refresh *every* resource in state through the rate-limited cloud API,
then re-plan the whole graph. Cloudless behaviour: diff the two config
versions, compute the impact scope on the dependency graph, refresh and
re-plan only that subgraph.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Set

from ..cloud.clock import EventQueue
from ..cloud.gateway import CloudGateway
from ..graph.builder import ResourceGraph, build_graph
from ..graph.impact import ConfigDelta, change_scope, diff_configurations
from ..graph.plan import Plan, Planner
from ..lang.config import Configuration
from ..lang.module_loader import ModuleLoader
from ..lang.values import values_equal
from ..state.document import StateDocument


@dataclasses.dataclass
class RefreshResult:
    """Outcome of a state refresh pass."""

    refreshed: List[str]
    drifted: List[str]
    missing: List[str]
    api_calls: int
    duration_s: float


def refresh_state(
    gateway: CloudGateway,
    state: StateDocument,
    addresses: Optional[Set[str]] = None,
    concurrency: int = 10,
) -> RefreshResult:
    """Re-read resources from the cloud, updating ``state`` in place.

    ``addresses=None`` refreshes everything (the baseline); a set
    restricts the pass to the impact scope (the cloudless optimization).
    """
    clock = gateway.clock
    started = clock.now
    calls_before = gateway.total_api_calls()
    entries = [
        e
        for e in state.resources()
        if addresses is None or str(e.address) in addresses
    ]
    refreshed: List[str] = []
    drifted: List[str] = []
    missing: List[str] = []

    events = EventQueue(clock)
    queue = list(entries)
    inflight: Dict[int, Any] = {}
    token = 0
    while queue or inflight:
        while queue and len(inflight) < concurrency:
            entry = queue.pop(0)
            pending = gateway.submit(
                "read", entry.address.type, resource_id=entry.resource_id
            )
            inflight[token] = (entry, pending)
            events.schedule(pending.t_complete, token)
            token += 1
        popped = events.pop()
        if popped is None:
            break
        _, tok = popped
        entry, pending = inflight.pop(tok)
        snapshot = pending.resolve()
        addr_text = str(entry.address)
        refreshed.append(addr_text)
        if snapshot is None:
            missing.append(addr_text)
            state.remove(entry.address)
            continue
        if not values_equal(entry.attrs, snapshot):
            drifted.append(addr_text)
            state.set(
                entry.replace(attrs=dict(snapshot), updated_at=clock.now)
            )
    return RefreshResult(
        refreshed=refreshed,
        drifted=drifted,
        missing=missing,
        api_calls=gateway.total_api_calls() - calls_before,
        duration_s=clock.now - started,
    )


@dataclasses.dataclass
class UpdatePlanResult:
    """A planned update, with the bookkeeping the E2 benchmark reports."""

    plan: Plan
    graph: ResourceGraph
    delta: Optional[ConfigDelta]
    scope: Optional[Set[str]]
    refresh: RefreshResult
    plan_duration_s: float

    @property
    def turnaround_s(self) -> float:
        return self.refresh.duration_s + self.plan_duration_s

    @property
    def scope_size(self) -> int:
        return len(self.scope) if self.scope is not None else len(self.graph)


class UpdatePipeline:
    """Plans configuration updates, full-refresh or impact-scoped."""

    def __init__(
        self,
        gateway: CloudGateway,
        incremental: bool = True,
        refresh_concurrency: int = 10,
    ):
        self.gateway = gateway
        self.incremental = incremental
        self.refresh_concurrency = refresh_concurrency
        self.planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )

    def plan_update(
        self,
        old_config: Configuration,
        new_config: Configuration,
        state: StateDocument,
        variables: Optional[Dict[str, Any]] = None,
        loader: Optional[ModuleLoader] = None,
    ) -> UpdatePlanResult:
        graph = build_graph(new_config, variables=variables, loader=loader)
        data_values = read_data_sources(self.gateway, graph, state)
        plan_started = self.gateway.clock.now

        if not self.incremental:
            refresh = refresh_state(
                self.gateway, state, None, self.refresh_concurrency
            )
            plan_started = self.gateway.clock.now
            plan = self.planner.plan(graph, state, data_values=data_values)
            return UpdatePlanResult(
                plan=plan,
                graph=graph,
                delta=None,
                scope=None,
                refresh=refresh,
                plan_duration_s=self.gateway.clock.now - plan_started,
            )

        delta = diff_configurations(old_config, new_config)
        scope = change_scope(
            graph, delta, state, provider_lookup=self.gateway.provider_of
        )
        refresh = refresh_state(
            self.gateway, state, scope, self.refresh_concurrency
        )
        plan_started = self.gateway.clock.now
        plan = self.planner.plan(
            graph, state, data_values=data_values, limit_to=scope
        )
        return UpdatePlanResult(
            plan=plan,
            graph=graph,
            delta=delta,
            scope=scope,
            refresh=refresh,
            plan_duration_s=self.gateway.clock.now - plan_started,
        )


def read_data_sources(
    gateway: CloudGateway,
    graph: ResourceGraph,
    state: StateDocument,
) -> Dict[str, Dict[str, Any]]:
    """Evaluate and read every data source in the graph (plan phase).

    Reads run in dependency order because one data source's query may
    reference another's result.
    """
    from ..graph.plan import ValueResolver
    from ..lang.context import DeferredResolver

    resolver = ValueResolver(graph, state)
    slot = graph.binding_resolver
    if isinstance(slot, DeferredResolver):
        previous = slot.target
        slot.target = resolver
    else:
        previous = None

    values: Dict[str, Dict[str, Any]] = {}
    try:
        for nid in graph.dag.topological_order():
            node = graph.nodes.get(nid)
            if node is None or node.address.mode != "data":
                continue
            attrs = node.evaluate_attrs()
            region = ""
            location = attrs.get("location") or attrs.get("region")
            if isinstance(location, str):
                region = location
            result = gateway.read_data(node.address.type, attrs, region)
            values[nid] = result
            resolver.set_override(nid, result)
    finally:
        if isinstance(slot, DeferredResolver):
            slot.target = previous
    return values
