"""Provisioning latency models.

Per-resource-type latency distributions, calibrated to the rough orders
of magnitude practitioners report: VMs in tens of seconds, managed
databases in minutes, VPN gateways in tens of minutes -- the raw
material behind the paper's "deployments take hours or even days" (3.3)
and the reason critical-path scheduling pays off.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, Optional


@dataclasses.dataclass(frozen=True)
class LatencyProfile:
    """Latency (seconds) for each lifecycle operation of one type.

    ``spread`` is the multiplicative jitter: samples are drawn from a
    lognormal centred on the mean with sigma = ln(1+spread).
    """

    create_s: float
    update_s: float
    delete_s: float
    read_s: float = 0.5
    spread: float = 0.15

    def mean_for(self, operation: str) -> float:
        return getattr(self, _MEAN_FIELDS.get(operation, "read_s"))


#: operation -> the :class:`LatencyProfile` field holding its mean
_MEAN_FIELDS = {
    "create": "create_s",
    "update": "update_s",
    "delete": "delete_s",
    "read": "read_s",
    "list": "read_s",
}

DEFAULT_PROFILE = LatencyProfile(create_s=5.0, update_s=3.0, delete_s=2.0)


class LatencyModel:
    """Samples operation latencies for resource types.

    Deterministic given the seeded ``random.Random`` passed by the
    owning control plane.
    """

    def __init__(self, profiles: Optional[Dict[str, LatencyProfile]] = None):
        self.profiles: Dict[str, LatencyProfile] = dict(profiles or {})

    def register(self, rtype: str, profile: LatencyProfile) -> None:
        self.profiles[rtype] = profile

    def profile_for(self, rtype: str) -> LatencyProfile:
        return self.profiles.get(rtype, DEFAULT_PROFILE)

    def mean(self, rtype: str, operation: str) -> float:
        """Expected latency -- what deployment-time *estimators* use."""
        return self.profile_for(rtype).mean_for(operation)

    def sample(self, rtype: str, operation: str, rng: random.Random) -> float:
        """One realized latency draw -- what the control plane charges."""
        profile = self.profile_for(rtype)
        mean = profile.mean_for(operation)
        if mean <= 0:
            return 0.0
        if profile.spread <= 0:
            return mean
        sigma = math.log(1.0 + profile.spread)
        # lognormal with the requested mean: mu = ln(mean) - sigma^2/2
        mu = math.log(mean) - sigma * sigma / 2.0
        return rng.lognormvariate(mu, sigma)
