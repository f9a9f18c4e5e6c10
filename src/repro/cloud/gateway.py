"""Multi-cloud gateway.

A thin router fronting one or more provider control planes over a shared
simulated clock -- the deploy/drift/policy layers talk to this, never to
an individual provider directly, mirroring how IaC frameworks speak
through per-provider plugins.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .aws.provider import AwsControlPlane
from .azure.provider import AzureControlPlane
from .base import CloudAPIError, ControlPlane, PendingOperation
from .clock import SimClock
from .resources import Catalog


class CloudGateway:
    """Routes operations to the control plane that owns a resource type.

    ``planes`` is keyed by type prefix: the plane under ``"aws"`` serves
    every ``aws_*`` type (:meth:`Catalog.try_provider_of`).
    """

    def __init__(self, planes: Dict[str, ControlPlane], clock: SimClock):
        self.clock = clock
        self.planes = dict(planes)
        for plane in self.planes.values():
            if plane.clock is not clock:
                raise ValueError("all control planes must share the gateway clock")
        #: what the planes serve, and where: the routing below is its
        #: lookups (:class:`~repro.cloud.resources.Catalog`)
        self.catalog = Catalog(
            {name: plane.specs for name, plane in self.planes.items()},
            {name: plane.regions for name, plane in self.planes.items()},
        )

    @classmethod
    def simulated(
        cls, seed: int = 0, clock: Optional[SimClock] = None
    ) -> "CloudGateway":
        """A gateway with fresh aws+azure planes on one clock."""
        clock = clock or SimClock()
        planes = {
            "aws": AwsControlPlane(clock=clock, seed=seed),
            "azure": AzureControlPlane(clock=clock, seed=seed + 1000),
        }
        return cls(planes, clock)

    # -- routing ----------------------------------------------------------

    def try_provider_of(self, rtype: str) -> Optional[str]:
        return self.catalog.try_provider_of(rtype)

    def provider_of(self, rtype: str) -> str:
        return self.catalog.provider_of(rtype)

    def plane_for(self, rtype: str) -> ControlPlane:
        return self.planes[self.catalog.provider_of(rtype)]

    def default_region(self, rtype: str) -> str:
        return self.catalog.default_region(rtype)

    def region_for(self, rtype: str, attrs: Dict[str, Any]) -> str:
        return self.catalog.region_for(rtype, attrs)

    # -- operations ----------------------------------------------------------

    def submit(self, operation: str, rtype: str, **kwargs: Any) -> PendingOperation:
        return self.plane_for(rtype).submit(operation, rtype, **kwargs)

    def execute(self, operation: str, rtype: str, **kwargs: Any) -> Any:
        return self.plane_for(rtype).execute(operation, rtype, **kwargs)

    def spec_for(self, rtype: str):
        return self.plane_for(rtype).spec_for(rtype)

    def try_spec(self, rtype: str):
        """spec_for, or None for unknown types (planner convenience)."""
        return self.catalog.try_spec(rtype)

    def read_data(
        self, rtype: str, attrs: Dict[str, Any], region: str = ""
    ) -> Dict[str, Any]:
        """Resolve a data-source query; costs one read-class API call."""
        plane = self.plane_for(rtype)
        pending = plane.submit("read", "", attrs={})  # account for the call
        plane.clock.advance_to(pending.t_complete)
        pending.resolve()
        return plane.read_data(rtype, attrs, region)

    def mean_latency(self, rtype: str, operation: str) -> float:
        return self.plane_for(rtype).latency_profile(rtype).mean_for(operation)

    # -- outages ------------------------------------------------------------

    def inject_outage(self, provider: str, outage: Any) -> None:
        """Schedule an :class:`~repro.cloud.faults.OutageSpec` on one
        provider's control plane."""
        self.planes[provider].faults.add_outage(outage)

    def dark_partitions(self, now: Optional[float] = None) -> Dict[tuple, float]:
        """Every (provider, region) currently in a hard outage, mapped
        to its expected recovery time. A provider-wide outage appears
        as ``(provider, "*")``."""
        now = self.clock.now if now is None else now
        out: Dict[tuple, float] = {}
        for name in sorted(self.planes):
            for region, horizon in self.planes[name].unavailable_regions(now).items():
                out[(name, region)] = horizon
        return out

    def partition_dark(
        self, provider: str, region: str, now: Optional[float] = None
    ) -> Optional[float]:
        """When (provider, region) is expected back, or None if it is
        reachable according to the status page."""
        plane = self.planes.get(provider)
        if plane is None:
            return None
        return plane.outage_horizon(region, now)

    # -- aggregate introspection ---------------------------------------------

    def total_api_calls(self) -> int:
        return sum(p.total_api_calls() for p in self.planes.values())

    def calls_routed(self) -> int:
        """API calls this process has sent through the planes: what a
        before/after pair counts, without replaying a plane a world file
        deferred and nobody called (``total_api_calls`` reads them all)."""
        return sum(p.calls_served for p in self.planes.values())

    def api_calls_by_class(self) -> Dict[str, int]:
        out = {"read": 0, "write": 0}
        for plane in self.planes.values():
            for klass, count in plane.api_calls.items():
                out[klass] = out.get(klass, 0) + count
        return out

    def all_records(self) -> List[Any]:
        out = []
        for plane in self.planes.values():
            out.extend(plane.records.values())
        return out

    def find_record(self, resource_id: str):
        for plane in self.planes.values():
            if resource_id in plane.records:
                return plane.records[resource_id]
        return None

    def find_record_by_token(self, token: str):
        """The live resource a create minted under ``token``, if any.

        This is recovery's probe: an open WAL intent whose token maps to
        a record means the crashed run's create landed cloud-side.
        """
        if not token:
            return None
        for name in sorted(self.planes):
            record = self.planes[name].find_by_token(token)
            if record is not None:
                return record
        return None

    def settle_inflight(self) -> int:
        """Resolve every accepted-but-unresolved write across all planes.

        Models the cloud outliving a crashed client: operations the
        providers accepted before the process died still complete (or
        fail) on their own schedule. Effects land in global
        ``t_complete`` order so cross-plane causality is preserved.
        Returns how many operations settled.
        """
        survivors: List[Any] = []
        for name in sorted(self.planes):
            plane = self.planes[name]
            survivors.extend(p for p in plane._inflight if not p.resolved)
            plane._inflight = []
        count = 0
        for pending in sorted(survivors, key=lambda p: p.t_complete):
            self.clock.advance_to(max(pending.t_complete, self.clock.now))
            try:
                pending.resolve()
            except CloudAPIError:
                pass
            count += 1
        return count
