"""Cost estimation for budget policies (3.6).

A flat-rate price book over the simulated catalogs; enough to let
budget policies observe "estimated monthly cost" of a plan or a running
estate, which is the observation the paper's budget example needs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..graph.plan import Action
from ..lang.values import is_unknown

# USD per hour by resource type; size multipliers below
HOURLY_BASE: Dict[str, float] = {
    "aws_virtual_machine": 0.05,
    "aws_database_instance": 0.25,
    "aws_load_balancer": 0.03,
    "aws_vpn_gateway": 0.05,
    "aws_vpn_tunnel": 0.05,
    "aws_disk": 0.01,
    "aws_s3_bucket": 0.005,
    "aws_autoscaling_group": 0.0,
    "azure_virtual_machine": 0.055,
    "azure_database": 0.27,
    "azure_load_balancer": 0.032,
    "azure_vpn_gateway": 0.19,
    "azure_vpn_tunnel": 0.05,
    "azure_disk": 0.011,
    "azure_storage_account": 0.006,
    "azure_public_ip": 0.004,
}

SIZE_MULTIPLIER: Dict[str, float] = {
    "small": 1.0,
    "medium": 2.0,
    "large": 4.0,
    "xlarge": 8.0,
    "Standard_B1s": 1.0,
    "Standard_D2s": 2.0,
    "Standard_D4s": 4.0,
    "Standard_D8s": 8.0,
}

HOURS_PER_MONTH = 730.0


class CostEstimator:
    """Estimates monthly cost of plans and states."""

    def __init__(self, hourly: Optional[Dict[str, float]] = None):
        self.hourly = dict(HOURLY_BASE)
        if hourly:
            self.hourly.update(hourly)

    def resource_monthly(self, rtype: str, attrs: Dict[str, Any]) -> float:
        base = self.hourly.get(rtype, 0.0)
        size = attrs.get("size") or attrs.get("instance_size") or ""
        multiplier = SIZE_MULTIPLIER.get(str(size), 1.0)
        storage = attrs.get("storage_gb") or attrs.get("size_gb") or 0
        storage_cost = float(storage) * 0.08 if isinstance(storage, (int, float)) else 0
        return base * multiplier * HOURS_PER_MONTH + storage_cost

    def estimate_state(self, state: Any) -> float:
        return sum(
            self.resource_monthly(entry.address.type, entry.attrs)
            for entry in state.resources()
        )

    def estimate_plan(self, plan: Any) -> float:
        """Monthly cost of the estate as it would look after the plan."""
        total = 0.0
        seen = set()
        for change in plan.changes.values():
            if change.address.mode != "managed":
                continue
            seen.add(str(change.address))
            if change.action is Action.DELETE:
                continue
            attrs = change.desired or (change.prior.attrs if change.prior else {})
            attrs = {k: v for k, v in attrs.items() if not is_unknown(v)}
            total += self.resource_monthly(change.rtype, attrs)
        for entry in plan.state.resources():
            if str(entry.address) not in seen:
                total += self.resource_monthly(entry.address.type, entry.attrs)
        return total
