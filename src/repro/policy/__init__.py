"""Policing the infrastructure lifecycle (paper 3.6)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "autoscale": (
            "CustomMetricScalePolicy",
            "MetricStore",
            "NATIVE_SUPPORTED_METRICS",
            "NATIVE_SUPPORTED_TYPES",
            "NativeAutoscalePolicy",
            "ScaleDecision",
        ),
        "builtin": (
            "allowed_regions_policy",
            "budget_policy",
            "drift_notification_policy",
            "required_engine_policy",
            "required_tag_policy",
        ),
        "controller": ("AdmissionDecision", "InfrastructureController"),
        "cost": ("CostEstimator", "HOURLY_BASE", "SIZE_MULTIPLIER"),
        "language": (
            "Action",
            "ActionRequest",
            "Deny",
            "DriftContext",
            "MetricsContext",
            "Notify",
            "PHASE_DRIFT",
            "PHASE_METRICS",
            "PHASE_PLAN",
            "PHASES",
            "PlanContext",
            "Policy",
            "SetVariable",
            "UnsupportedPolicyError",
            "Warn",
        ),
        "outlier": (
            "OutlierFinding",
            "TemplateExtractor",
            "TemplateModel",
            "TypeTemplate",
        ),
    },
)
