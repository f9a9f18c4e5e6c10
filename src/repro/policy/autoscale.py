"""Custom-metric autoscaling (3.6).

The paper's concrete wish: "scale out the number of VPN gateways and
attached tunnels if traffic throughput is close to their capacity", or
"scale out VMs if their attached network interfaces are highly loaded".
Native cloud autoscalers cannot observe those signals;
:class:`CustomMetricScalePolicy` can observe any recorded metric on any
resource type, and acts by evolving the IaC program (a count variable).

:class:`NativeAutoscalePolicy` models today's clouds: it *refuses* at
construction time to watch anything but CPU on an autoscaling group --
the contrast E9 measures.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from .language import (
    ActionRequest,
    MetricsContext,
    PHASE_METRICS,
    Policy,
    SetVariable,
    UnsupportedPolicyError,
)


class MetricStore:
    """Time-series store for resource metrics."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], List[Tuple[float, float]]] = (
            defaultdict(list)
        )

    def record(self, resource_key: str, metric: str, t: float, value: float) -> None:
        self._series[(resource_key, metric)].append((t, value))

    def latest(self, resource_key: str, metric: str) -> Optional[float]:
        series = self._series.get((resource_key, metric))
        return series[-1][1] if series else None

    def window_mean(
        self, resource_key: str, metric: str, window_s: float, now: float
    ) -> Optional[float]:
        series = self._series.get((resource_key, metric))
        if not series:
            return None
        values = [v for t, v in series if t >= now - window_s]
        if not values:
            return series[-1][1]
        return sum(values) / len(values)


@dataclasses.dataclass
class ScaleDecision:
    at: float
    policy: str
    variable: str
    old: int
    new: int
    utilization: float


class CustomMetricScalePolicy(Policy):
    """Scale a count variable on aggregate utilization of any metric.

    Utilization = sum(metric across instances of ``target_type``) /
    (instance count * ``capacity_per_instance``). Above ``high`` the
    count variable increments; below ``low`` it decrements (bounded).
    """

    def __init__(
        self,
        name: str,
        target_type: str,
        metric: str,
        capacity_per_instance: float,
        count_variable: str,
        high: float = 0.8,
        low: float = 0.25,
        min_count: int = 1,
        max_count: int = 16,
        cooldown_s: float = 120.0,
        window_s: float = 60.0,
    ):
        self.target_type = target_type
        self.metric = metric
        self.capacity = float(capacity_per_instance)
        self.count_variable = count_variable
        self.high = high
        self.low = low
        self.min_count = min_count
        self.max_count = max_count
        self.cooldown_s = cooldown_s
        self.window_s = window_s
        self._last_scaled_at = -1e18
        self.decisions: List[ScaleDecision] = []
        super().__init__(
            name=name,
            phase=PHASE_METRICS,
            observe=self._observe,
            condition=self._should_scale,
            actions=[SetVariable(count_variable, self._new_count)],
            description=(
                f"scale var.{count_variable} on {metric} utilization of "
                f"{target_type}"
            ),
        )

    # -- observation: aggregate utilization -----------------------------------

    def _instances(self, ctx: MetricsContext) -> List[str]:
        return [
            str(entry.address)
            for entry in ctx.state.resources()
            if entry.address.type == self.target_type
        ]

    def _observe(self, ctx: MetricsContext) -> float:
        instances = self._instances(ctx)
        if not instances:
            return 0.0
        total = 0.0
        for key in instances:
            value = ctx.metrics.window_mean(
                key, self.metric, self.window_s, ctx.now
            )
            if value is not None:
                total += value
        return total / (len(instances) * self.capacity)

    # -- condition & action ---------------------------------------------------------

    def _current_count(self, ctx: MetricsContext) -> int:
        value = ctx.variables.get(self.count_variable)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return int(value)
        return len(self._instances(ctx)) or self.min_count

    def _should_scale(self, utilization: float) -> bool:
        return utilization > self.high or (utilization < self.low)

    def _new_count(self, ctx: MetricsContext) -> int:
        utilization = ctx.observation
        current = self._current_count(ctx)
        if ctx.now - self._last_scaled_at < self.cooldown_s:
            return current
        if utilization > self.high:
            new = min(self.max_count, current + max(1, int(utilization - self.high + 1)))
        elif utilization < self.low and current > self.min_count:
            new = max(self.min_count, current - 1)
        else:
            new = current
        if new != current:
            self._last_scaled_at = ctx.now
            self.decisions.append(
                ScaleDecision(
                    at=ctx.now,
                    policy=self.name,
                    variable=self.count_variable,
                    old=current,
                    new=new,
                    utilization=utilization,
                )
            )
        return new


#: signals today's native autoscalers actually expose
NATIVE_SUPPORTED_METRICS = {"cpu", "memory"}
NATIVE_SUPPORTED_TYPES = {"aws_autoscaling_group"}


class NativeAutoscalePolicy(CustomMetricScalePolicy):
    """Today's cloud autoscaling: CPU/memory on scaling groups, only.

    Attempting the paper's VPN-throughput policy with this class raises
    :class:`UnsupportedPolicyError` -- faithfully reproducing "users
    cannot easily define policies that are not explicitly supported by
    cloud providers".
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if self.metric not in NATIVE_SUPPORTED_METRICS:
            raise UnsupportedPolicyError(
                f"native autoscaling cannot observe metric {self.metric!r}; "
                f"supported: {sorted(NATIVE_SUPPORTED_METRICS)}"
            )
        if self.target_type not in NATIVE_SUPPORTED_TYPES:
            raise UnsupportedPolicyError(
                f"native autoscaling cannot target {self.target_type!r}; "
                f"supported: {sorted(NATIVE_SUPPORTED_TYPES)}"
            )
