"""Chaos campaign DSL, scenario library, and campaign runner.

The package turns the repo's ad-hoc chaos sweeps into a declarative
system: scenarios are data (:class:`ScenarioSpec`), campaigns compose
them (:class:`CampaignSpec`), the runner executes seeded trial matrices
against twin engines (:class:`CampaignRunner`), and every trial is
checked against the convergence invariants in
:mod:`repro.chaos.invariants`. The curated scenario catalog lives in
:mod:`repro.chaos.library`; defect-taxonomy classes in
:mod:`repro.chaos.taxonomy`.
"""

from .dsl import (
    AsymmetricPartition,
    CampaignSpec,
    ClockSkew,
    CorrelatedOutage,
    FaultInjection,
    Injection,
    OutageInjection,
    QuotaStorm,
    RateLimitStorm,
    ScenarioSpec,
    SpecValidationError,
    TransientRate,
    VersionSkew,
    WORKLOADS,
    injection_from_dict,
)
from .invariants import (
    assert_converged_like,
    canonical_state,
    convergence_violations,
    live_prefix_counts,
    stranded_ids,
)
from .library import library, scenario
from .runner import (
    CampaignReport,
    CampaignRunner,
    PhaseRecord,
    ScenarioResult,
    TrialResult,
)
from .seeds import derive_seed, trial_count
from .taxonomy import DEFECT_CLASSES, validate_classes

__all__ = [
    "AsymmetricPartition",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "ClockSkew",
    "CorrelatedOutage",
    "DEFECT_CLASSES",
    "FaultInjection",
    "Injection",
    "OutageInjection",
    "PhaseRecord",
    "QuotaStorm",
    "RateLimitStorm",
    "ScenarioResult",
    "ScenarioSpec",
    "SpecValidationError",
    "TransientRate",
    "TrialResult",
    "VersionSkew",
    "WORKLOADS",
    "assert_converged_like",
    "canonical_state",
    "convergence_violations",
    "derive_seed",
    "injection_from_dict",
    "library",
    "live_prefix_counts",
    "scenario",
    "stranded_ids",
    "trial_count",
    "validate_classes",
]
