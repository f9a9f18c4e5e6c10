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

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "dsl": (
            "AsymmetricPartition",
            "CampaignSpec",
            "ClockSkew",
            "CorrelatedOutage",
            "FaultInjection",
            "Injection",
            "OutageInjection",
            "QuotaStorm",
            "RateLimitStorm",
            "ScenarioSpec",
            "SpecValidationError",
            "TransientRate",
            "VersionSkew",
            "WORKLOADS",
            "injection_from_dict",
        ),
        "invariants": (
            "assert_converged_like",
            "canonical_state",
            "convergence_violations",
            "live_prefix_counts",
            "stranded_ids",
        ),
        "library": ("library", "scenario"),
        "runner": (
            "CampaignReport",
            "CampaignRunner",
            "PhaseRecord",
            "ScenarioResult",
            "TrialResult",
        ),
        "seeds": ("derive_seed", "trial_count"),
        "taxonomy": ("DEFECT_CLASSES", "validate_classes"),
    },
)
