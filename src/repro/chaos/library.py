"""The named scenario library: correlated failures, taxonomized.

Each scenario is a :class:`~repro.chaos.dsl.ScenarioSpec` value --
campaign files reference them by name, ``python -m repro chaos --list``
prints the catalog with its defect-taxonomy coverage, and the CI
campaign keeps every one of them green. The library deliberately spans
the taxonomy: single-mode failures (a transient storm, one outage) sit
next to the correlated shapes real incidents take (multi-zone
blackouts, churn during an outage, a crash during a downscale).
"""

from __future__ import annotations

from typing import Dict, List

from .._exports import callable_module
from ..cloud.faults import FaultSpec, OutageSpec
from .dsl import (
    AsymmetricPartition,
    ClockSkew,
    CorrelatedOutage,
    FaultInjection,
    OutageInjection,
    QuotaStorm,
    RateLimitStorm,
    ScenarioSpec,
    TransientRate,
    VersionSkew,
)

_LIFECYCLE_PHASES = [
    {"op": "apply"},
    {"op": "churn", "updates": 1, "deletes": 1},
    {"op": "reconcile"},
    {"op": "snapshot"},
    {"op": "apply", "workload_args": {"web_vms": 5, "app_vms": 3}},
    {"op": "rollback"},
]


def _scenarios() -> List[ScenarioSpec]:
    return [
        # -- reliability ----------------------------------------------------
        ScenarioSpec(
            name="transient-storm",
            description=(
                "full lifecycle (apply, churn, reconcile, update, "
                "rollback) under a 5% blanket transient fault rate"
            ),
            workload="web_tier",
            workload_args={"web_vms": 4, "app_vms": 3},
            injections=[TransientRate(rate=0.05)],
            phases=list(_LIFECYCLE_PHASES),
            patient_retry=True,
        ),
        ScenarioSpec(
            name="transient-monsoon",
            description="the same lifecycle at a 15% fault rate",
            workload="web_tier",
            workload_args={"web_vms": 4, "app_vms": 3},
            injections=[TransientRate(rate=0.15)],
            phases=list(_LIFECYCLE_PHASES),
            patient_retry=True,
        ),
        ScenarioSpec(
            name="throttle-storm",
            description=(
                "sustained API throttling on every mutating call "
                "(40% Throttling responses, unlimited strikes)"
            ),
            workload="web_tier",
            injections=[
                FaultInjection(
                    fault=FaultSpec(
                        error_code="Throttling",
                        message="Rate exceeded (injected storm)",
                        probability=0.4,
                        transient=True,
                        max_strikes=-1,
                    )
                )
            ],
            patient_retry=True,
        ),
        # -- availability ---------------------------------------------------
        ScenarioSpec(
            name="region-outage-brownout",
            description=(
                "a hard regional outage overlapping a provider-wide "
                "brownout; reachable resources converge, dark ones park"
            ),
            workload="two_region_estate",
            workload_args={"resources": 42},
            injections=[
                OutageInjection(
                    provider="azure",
                    outage=OutageSpec(
                        start_s=0.0, end_s=30000.0, region="westus2"
                    ),
                ),
                OutageInjection(
                    provider="azure",
                    outage=OutageSpec(
                        start_s=500.0,
                        end_s=20000.0,
                        mode="brownout",
                        latency_multiplier=2.0,
                    ),
                ),
            ],
        ),
        ScenarioSpec(
            name="provider-blackout",
            description=(
                "everything goes dark at t=0; one region stays dark "
                "longer -- the whole estate parks, then drains"
            ),
            workload="two_region_estate",
            workload_args={"resources": 42},
            injections=[
                OutageInjection(
                    provider="azure",
                    outage=OutageSpec(start_s=0.0, end_s=8000.0),
                ),
                OutageInjection(
                    provider="azure",
                    outage=OutageSpec(
                        start_s=0.0, end_s=30000.0, region="westus2"
                    ),
                ),
            ],
        ),
        ScenarioSpec(
            name="correlated-zone-outage",
            description=(
                "a correlated multi-zone failure: both regions of the "
                "estate go dark in a staggered cascade"
            ),
            workload="two_region_estate",
            workload_args={"resources": 42},
            injections=[
                CorrelatedOutage(
                    zones=[["azure", "eastus"], ["azure", "westus2"]],
                    start_s=0.0,
                    duration_s=12000.0,
                    stagger_s=3000.0,
                )
            ],
        ),
        ScenarioSpec(
            name="asymmetric-write-partition",
            description=(
                "the control plane goes read-only: mutations fail fast "
                "while list pages and log tails keep answering"
            ),
            workload="web_tier",
            workload_args={"web_vms": 4, "app_vms": 2},
            injections=[
                AsymmetricPartition(
                    provider="aws", start_s=0.0, end_s=12000.0,
                    op_class="write",
                )
            ],
        ),
        # -- capacity / performance ----------------------------------------
        ScenarioSpec(
            name="quota-storm",
            description=(
                "a co-tenant squats the VM quota; creates fail "
                "terminally until capacity is released"
            ),
            workload="web_tier",
            injections=[
                QuotaStorm(
                    provider="aws",
                    rtype="aws_virtual_machine",
                    squatters=3,
                )
            ],
        ),
        ScenarioSpec(
            name="noisy-neighbor",
            description=(
                "a noisy neighbor drains the write token bucket and "
                "reserves its refill stream for 30 minutes"
            ),
            workload="web_tier",
            injections=[
                RateLimitStorm(busy_s=1800.0, op_class="write")
            ],
        ),
        # -- interface / timing --------------------------------------------
        ScenarioSpec(
            name="version-skew",
            description=(
                "the provider rejects the client's API version for VM "
                "creates until it rolls forward mid-apply"
            ),
            workload="web_tier",
            injections=[
                VersionSkew(
                    providers=["aws"],
                    match_type="aws_virtual_machine",
                    match_operation="create",
                    start_s=0.0,
                    end_s=4000.0,
                )
            ],
            patient_retry=True,
        ),
        ScenarioSpec(
            name="clock-skew-watch",
            description=(
                "one plane's clock runs 10 minutes ahead of the "
                "coordinator while drift is churned and watched"
            ),
            workload="web_tier",
            injections=[ClockSkew(provider="aws", offset_s=600.0)],
            phases=[
                {"op": "apply"},
                {"op": "churn", "updates": 1, "deletes": 1},
                {"op": "watch", "cycles": 3, "interval_s": 120.0},
                {"op": "reconcile"},
            ],
        ),
        # -- crash consistency ---------------------------------------------
        ScenarioSpec(
            name="crash-midway",
            description=(
                "the client dies halfway through the apply; resume "
                "must adopt orphans and retire the journal"
            ),
            workload="web_tier",
            phases=[{"op": "crash_apply", "kill_frac": 0.5}],
        ),
        ScenarioSpec(
            name="crash-downscale",
            description=(
                "the client dies halfway through a destructive second "
                "apply; deletes must not strand"
            ),
            workload="web_tier",
            workload_args={"web_vms": 3, "app_vms": 2},
            phases=[
                {"op": "apply"},
                {
                    "op": "crash_apply",
                    "kill_frac": 0.5,
                    "workload_args": {"web_vms": 2, "app_vms": 1},
                },
            ],
        ),
        ScenarioSpec(
            name="crash-under-faults",
            description=(
                "a mid-apply crash while a transient storm is active "
                "-- recovery and retry interleave"
            ),
            workload="web_tier",
            injections=[TransientRate(rate=0.05)],
            phases=[{"op": "crash_apply", "kill_frac": 0.3}],
            patient_retry=True,
        ),
        # -- drift storms (watcher under adversarial mutation) --------------
        ScenarioSpec(
            name="drift-storm-watch",
            description=(
                "burst create/delete/update churn against the watcher: "
                "coalescing, taxonomy classing, and repair under load"
            ),
            workload="web_tier",
            workload_args={"web_vms": 4, "app_vms": 3},
            phases=[
                {"op": "apply"},
                {
                    "op": "churn",
                    "updates": 2,
                    "deletes": 2,
                    "creates": 2,
                    "security": 1,
                },
                {"op": "watch", "cycles": 4, "interval_s": 60.0},
                {"op": "churn", "updates": 1, "deletes": 1},
                {"op": "watch", "cycles": 4, "interval_s": 60.0},
                {"op": "reconcile"},
            ],
        ),
        ScenarioSpec(
            name="drift-storm-under-outage",
            description=(
                "the same mutation storm while the provider is dark: "
                "repairs defer to the recovery horizon, then drain"
            ),
            workload="web_tier",
            workload_args={"web_vms": 4, "app_vms": 3},
            injections=[
                OutageInjection(
                    provider="aws",
                    outage=OutageSpec(start_s=2000.0, end_s=20000.0),
                )
            ],
            phases=[
                {"op": "apply"},
                {"op": "advance", "to_s": 2500.0},
                {
                    "op": "churn",
                    "updates": 2,
                    "deletes": 1,
                    "creates": 1,
                },
                {"op": "watch", "cycles": 3, "interval_s": 120.0},
            ],
            # the outage window opens mid-apply; which resources land
            # before it (and thus which the arms churn) differs, so the
            # arms converge canonically but not id-identically
            strict_hash=False,
        ),
        ScenarioSpec(
            name="tenant-storm",
            description=(
                "multi-tenant service storm: kill the instance mid-apply "
                "for half the tenants, preempt with a successor, resume "
                "the orphans, and require every tenant's estate to "
                "converge to its single-tenant baseline"
            ),
            workload="web_tier",
            workload_args={"web_vms": 2, "app_vms": 1, "with_db": False},
            phases=[
                # the twin engines still run a plain apply so the
                # runner's own convergence/drain machinery has teeth
                {"op": "apply"},
                {
                    "op": "tenant_storm",
                    "tenants": 4,
                    "kill_frac": 0.5,
                    "drift_reads": 1,
                },
            ],
        ),
    ]


def library() -> Dict[str, ScenarioSpec]:
    """Name -> scenario, freshly constructed (specs are mutable)."""
    return {s.name: s for s in _scenarios()}


def scenario(name: str) -> ScenarioSpec:
    specs = library()
    if name not in specs:
        raise KeyError(
            f"unknown scenario {name!r} (known: {', '.join(sorted(specs))})"
        )
    return specs[name]


# ``repro.chaos.library`` is this module and, among the package's
# exports, the function above
callable_module(__name__, "library")
