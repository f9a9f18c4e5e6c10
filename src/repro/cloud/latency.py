"""Provisioning latency profiles.

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
        """Expected latency -- what deployment-time *estimators* use."""
        return getattr(self, _MEAN_FIELDS.get(operation, "read_s"))

    def sample(self, operation: str, rng: random.Random) -> float:
        """One realized latency draw -- what the control plane charges."""
        mean = self.mean_for(operation)
        if mean <= 0:
            return 0.0
        if self.spread <= 0:
            return mean
        sigma = math.log(1.0 + self.spread)
        # lognormal with the requested mean: mu = ln(mean) - sigma^2/2
        mu = math.log(mean) - sigma * sigma / 2.0
        return rng.lognormvariate(mu, sigma)


#: operation -> the :class:`LatencyProfile` field holding its mean
_MEAN_FIELDS = {
    "create": "create_s",
    "update": "update_s",
    "delete": "delete_s",
    "read": "read_s",
    "list": "read_s",
}

#: the profile of a type no catalog lists, and of the reads and list
#: pages that name no type
DEFAULT_PROFILE = LatencyProfile(create_s=5.0, update_s=3.0, delete_s=2.0)
