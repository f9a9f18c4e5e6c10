"""Synthetic traffic: autoscaling traces (E9) and service load models.

Two generations of load live here:

* **Demand traces** (``ramp_surge_trace``) -- time series of aggregate
  demand (Mbps, CPU%, requests/s) that drive the custom-metric
  autoscaling policies from 3.6.
* **Request-level arrival models** -- the synthetic tenants that hammer
  the multi-tenant control-plane service (:mod:`repro.service`):
  open-loop Poisson arrivals (offered load independent of service
  speed, the saturation probe), seeded tenant mixes
  (steady / bursty / adversarial noisy-neighbor), and
  :class:`LatencyHistogram` for p50/p99/p999 tail accounting.

Everything is seeded: the same ``seed`` reproduces the same arrival
schedule down to the request, which is what lets the service benchmark
gate fairness ratios and the chaos runner replay a storm.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass
class TracePoint:
    t: float
    value: float


def ramp_surge_trace(
    duration_s: float = 3600.0,
    step_s: float = 30.0,
    base: float = 300.0,
    peak: float = 2400.0,
    surge_start: float = 0.25,
    surge_end: float = 0.70,
    noise: float = 0.05,
    seed: int = 0,
) -> List[TracePoint]:
    """Demand ramps up to a surge plateau and back down.

    The canonical shape for scale-out-then-scale-in: utilization crosses
    the high watermark on the way up and the low watermark after the
    surge passes.
    """
    rng = random.Random(seed)
    out: List[TracePoint] = []
    t = 0.0
    while t <= duration_s:
        phase = t / duration_s
        if phase < surge_start:
            demand = base + (peak - base) * (phase / surge_start) * 0.2
        elif phase < surge_end:
            ramp = (phase - surge_start) / (surge_end - surge_start)
            demand = base + (peak - base) * min(1.0, ramp * 2.0)
        else:
            cool = (phase - surge_end) / max(1e-9, 1.0 - surge_end)
            demand = peak - (peak - base) * cool
        demand *= 1.0 + rng.uniform(-noise, noise)
        out.append(TracePoint(t=t, value=max(0.0, demand)))
        t += step_s
    return out


def distribute_demand(
    total: float, instances: int, capacity: float
) -> Tuple[List[float], float]:
    """Spread demand over instances; returns (per-instance load, dropped).

    Load balances evenly; anything beyond aggregate capacity is dropped
    (the SLO-violation signal E9 integrates over time).
    """
    if instances <= 0:
        return [], total
    per_instance = total / instances
    served = min(per_instance, capacity)
    dropped = max(0.0, total - served * instances)
    return [served] * instances, dropped


# -- request-level arrival models (service load) ------------------------------


@dataclasses.dataclass
class Arrival:
    """One synthetic request: who sends what, when."""

    t: float  # seconds from harness start
    tenant: str
    op: str = "apply"
    priority: int = 1


def open_loop_arrivals(
    rate_rps: float,
    duration_s: float,
    seed: int = 0,
    tenant: str = "t00",
    op: str = "apply",
    priority: int = 1,
) -> List[Arrival]:
    """Poisson arrivals: exponential inter-arrival gaps at ``rate_rps``.

    Open loop means the generator never waits for responses -- offered
    load is independent of how slow the service gets, which is the only
    honest way to probe saturation (a closed-loop client politely backs
    off exactly when you want the pressure).
    """
    if rate_rps <= 0 or duration_s <= 0:
        return []
    rng = random.Random(seed)
    out: List[Arrival] = []
    t = rng.expovariate(rate_rps)
    while t < duration_s:
        out.append(Arrival(t=t, tenant=tenant, op=op, priority=priority))
        t += rng.expovariate(rate_rps)
    return out


@dataclasses.dataclass
class TenantProfile:
    """One synthetic tenant's shape in a mix."""

    tenant: str
    kind: str = "steady"  # steady | bursty | noisy
    rate_rps: float = 10.0
    priority: int = 1
    weight: float = 1.0
    op: str = "apply"


def tenant_mix(
    steady: int = 4,
    bursty: int = 0,
    noisy: int = 0,
    base_rate_rps: float = 10.0,
    noisy_factor: float = 8.0,
    seed: int = 0,
) -> List[TenantProfile]:
    """A seeded tenant population: well-behaved, bursty, adversarial.

    Steady tenants offer ``base_rate_rps`` each; bursty tenants offer
    the same average in on/off bursts; noisy tenants (the adversaries)
    offer ``noisy_factor`` times a steady tenant's rate at low priority
    -- the fairness gates check they cannot starve the steady tenants.
    """
    profiles: List[TenantProfile] = []
    index = 0
    for _ in range(max(0, steady)):
        profiles.append(
            TenantProfile(
                tenant=f"t{index:02d}", kind="steady",
                rate_rps=base_rate_rps, priority=1,
            )
        )
        index += 1
    for _ in range(max(0, bursty)):
        profiles.append(
            TenantProfile(
                tenant=f"t{index:02d}", kind="bursty",
                rate_rps=base_rate_rps, priority=1,
            )
        )
        index += 1
    for _ in range(max(0, noisy)):
        profiles.append(
            TenantProfile(
                tenant=f"t{index:02d}", kind="noisy",
                rate_rps=base_rate_rps * noisy_factor, priority=0,
            )
        )
        index += 1
    return profiles


def mixed_arrivals(
    profiles: Iterable[TenantProfile],
    duration_s: float,
    seed: int = 0,
    burst_period_s: float = 1.0,
    burst_duty: float = 0.25,
) -> List[Arrival]:
    """Merge every profile's arrival process into one sorted schedule.

    Each tenant derives its own RNG from ``(seed, tenant)``, so adding
    a tenant never perturbs another tenant's schedule. Bursty tenants
    compress their offered load into the first ``burst_duty`` fraction
    of every ``burst_period_s`` window (same average rate, spiky
    instantaneous rate).
    """
    out: List[Arrival] = []
    for profile in profiles:
        sub_seed = (seed * 1000003 + _tenant_salt(profile.tenant)) & 0x7FFFFFFF
        if profile.kind == "bursty":
            rate = profile.rate_rps / max(1e-9, burst_duty)
            for arrival in open_loop_arrivals(
                rate, duration_s, seed=sub_seed, tenant=profile.tenant,
                op=profile.op, priority=profile.priority,
            ):
                phase = math.fmod(arrival.t, burst_period_s) / burst_period_s
                if phase <= burst_duty:
                    out.append(arrival)
        else:
            out.extend(
                open_loop_arrivals(
                    profile.rate_rps, duration_s, seed=sub_seed,
                    tenant=profile.tenant, op=profile.op,
                    priority=profile.priority,
                )
            )
    out.sort(key=lambda a: (a.t, a.tenant))
    return out


def _tenant_salt(tenant: str) -> int:
    salt = 0
    for ch in tenant:
        salt = (salt * 131 + ord(ch)) & 0x7FFFFFFF
    return salt


# -- latency accounting --------------------------------------------------------


def _geometric_edges(low: float, growth: float, top: float) -> Tuple[float, ...]:
    edges: List[float] = []
    edge = low
    while edge < top:
        edges.append(edge)
        edge *= growth
    return tuple(edges) + (math.inf,)


class LatencyHistogram:
    """Log-bucketed latency histogram with tail percentiles.

    Every histogram has the one bucket grid ``bounds``: geometric from
    ``min_s`` (ratio ``growth`` per bucket) up to an hour, then one
    bucket for everything above. So any two merge bucket-for-bucket and
    percentile math is deterministic: ``percentile(q)`` returns the
    upper edge of the first bucket whose cumulative count reaches ``q``
    of the total -- an overestimate by at most one ``growth`` factor,
    never an underestimate. ``max_s`` is the largest value observed.
    """

    min_s = 1e-4
    growth = 1.5
    bounds = _geometric_edges(min_s, growth, 3600.0)

    def __init__(self) -> None:
        self.counts = [0] * len(self.bounds)
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0

    def bucket_of(self, seconds: float) -> int:
        """Index of the bucket a value lands in (for the tests' oracle)."""
        if seconds <= self.min_s:
            return 0
        index = int(
            math.ceil(
                math.log(seconds / self.min_s) / math.log(self.growth)
                - 1e-12
            )
        )
        return min(index, len(self.bounds) - 1)

    def observe(self, seconds: float) -> None:
        seconds = max(0.0, float(seconds))
        self.counts[self.bucket_of(seconds)] += 1
        self.count += 1
        self.total_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total_s += other.total_s
        self.max_s = max(self.max_s, other.max_s)

    def percentile(self, q: float) -> float:
        """Upper bucket edge covering quantile ``q`` (0 < q <= 1)."""
        if self.count == 0:
            return 0.0
        q = min(1.0, max(0.0, q))
        target = max(1, math.ceil(q * self.count))
        running = 0
        for index, n in enumerate(self.counts):
            running += n
            if running >= target:
                if index == len(self.bounds) - 1:
                    return self.max_s
                return self.bounds[index]
        return self.max_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": round(self.mean_s, 6),
            "p50_s": round(self.p50, 6),
            "p99_s": round(self.p99, 6),
            "p999_s": round(self.p999, 6),
            "max_s": round(self.max_s, 6),
        }


def goodput_fairness_ratio(goodput: Dict[str, int]) -> float:
    """Max/min completed-request ratio across tenants (1.0 == fair).

    Only tenants with at least one completion participate; a tenant
    starved to zero makes the ratio infinite, which is exactly what the
    fairness gate should see.
    """
    counts = [n for n in goodput.values() if n > 0]
    if not counts:
        return 0.0
    if len(counts) < len(goodput):
        return math.inf
    return max(counts) / min(counts)
