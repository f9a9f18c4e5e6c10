"""The Terraform baseline for planning an update (3.3).

"Treat deltas like a deployment from scratch": refresh *every* resource
in state through the rate-limited cloud API, then re-plan the whole
graph. This is what E2 and F1 measure the engine's scoped plan
(:meth:`repro.core.engine.CloudlessEngine.plan`) against.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

from ..cloud.clock import EventQueue
from ..cloud.gateway import CloudGateway
from ..graph.builder import ResourceGraph, build_graph
from ..graph.plan import Plan, Planner, read_data_sources
from ..lang.config import Configuration
from ..lang.module_loader import ModuleLoader
from ..lang.values import values_equal
from ..state.document import StateDocument

#: reads in flight at once during a refresh
REFRESH_CONCURRENCY = 10


@dataclasses.dataclass
class RefreshResult:
    """Outcome of a state refresh pass."""

    refreshed: List[str]
    drifted: List[str]
    missing: List[str]
    api_calls: int
    duration_s: float


def refresh_state(gateway: CloudGateway, state: StateDocument) -> RefreshResult:
    """Re-read every resource in ``state`` from the cloud, updating
    ``state`` in place."""
    clock = gateway.clock
    started = clock.now
    calls_before = gateway.total_api_calls()
    refreshed: List[str] = []
    drifted: List[str] = []
    missing: List[str] = []

    events = EventQueue(clock)
    queue = list(state.resources())
    inflight: Dict[int, Any] = {}
    token = 0
    while queue or inflight:
        while queue and len(inflight) < REFRESH_CONCURRENCY:
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
    refresh: RefreshResult
    plan_duration_s: float

    @property
    def turnaround_s(self) -> float:
        return self.refresh.duration_s + self.plan_duration_s


class UpdatePipeline:
    """Plans a configuration update the way Terraform does: full
    refresh, then a plan of the whole graph."""

    def __init__(self, gateway: CloudGateway):
        self.gateway = gateway
        self.planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )

    def plan_update(
        self,
        config: Configuration,
        state: StateDocument,
        variables: Optional[Dict[str, Any]] = None,
        loader: Optional[ModuleLoader] = None,
    ) -> UpdatePlanResult:
        graph = build_graph(config, variables=variables, loader=loader)
        data_values = read_data_sources(self.gateway, graph, state)
        refresh = refresh_state(self.gateway, state)
        plan_started = self.gateway.clock.now
        plan = self.planner.plan(graph, state, data_values=data_values)
        return UpdatePlanResult(
            plan=plan,
            graph=graph,
            refresh=refresh,
            plan_duration_s=self.gateway.clock.now - plan_started,
        )
