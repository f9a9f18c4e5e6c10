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


class CloudGateway:
    """Routes operations to the control plane that owns a resource type.

    ``planes`` is keyed by type prefix: the plane under ``"aws"`` serves
    every ``aws_*`` type (:meth:`try_provider_of`).
    """

    def __init__(self, planes: Dict[str, ControlPlane], clock: SimClock):
        self.clock = clock
        self.planes = dict(planes)
        for plane in self.planes.values():
            if plane.clock is not clock:
                raise ValueError("all control planes must share the gateway clock")

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
        """The plane key owning ``rtype``, or None if no plane serves it.

        A type's prefix names its plane (``aws_vpc`` -> ``"aws"``), the
        provider-prefix convention of Terraform's provider plugins: a
        plane is mounted under its prefix, so the prefix is the whole
        routing rule.
        """
        prefix = rtype.split("_", 1)[0]
        return prefix if prefix in self.planes else None

    def provider_of(self, rtype: str) -> str:
        provider = self.try_provider_of(rtype)
        if provider is not None:
            return provider
        raise CloudAPIError(
            "UnknownResourceType",
            f"No provider is configured for resource type '{rtype}'.",
            http_status=404,
            resource_type=rtype,
        )

    def plane_for(self, rtype: str) -> ControlPlane:
        return self.planes[self.provider_of(rtype)]

    def default_region(self, rtype: str) -> str:
        return self.plane_for(rtype).regions[0]

    def region_for(self, rtype: str, attrs: Dict[str, Any]) -> str:
        """The region an instance lands in: location attr, else default."""
        location = attrs.get("location")
        if isinstance(location, str) and location:
            return location
        return self.default_region(rtype)

    # -- operations ----------------------------------------------------------

    def submit(self, operation: str, rtype: str, **kwargs: Any) -> PendingOperation:
        return self.plane_for(rtype).submit(operation, rtype, **kwargs)

    def execute(self, operation: str, rtype: str, **kwargs: Any) -> Any:
        return self.plane_for(rtype).execute(operation, rtype, **kwargs)

    def spec_for(self, rtype: str):
        return self.plane_for(rtype).spec_for(rtype)

    def try_spec(self, rtype: str):
        """spec_for, or None for unknown types (planner convenience)."""
        try:
            return self.plane_for(rtype).spec_for(rtype)
        except CloudAPIError:
            return None

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
        return self.plane_for(rtype).latency.mean(rtype, operation)

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
