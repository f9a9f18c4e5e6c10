"""Simulated multi-cloud substrate.

Stands in for real AWS/Azure control planes (see DESIGN.md,
"Substitutions"): a catalog of typed resources and regions that is
plain data (:mod:`repro.cloud.resources`), per-type provisioning
latency, API rate limits, activity logs, quotas, and fault injection --
all over a discrete-event :class:`SimClock` so experiments run in
microseconds of wall time.
"""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "activitylog": ("ActivityEvent", "ActivityLog"),
        "aws.provider": ("AwsControlPlane",),
        "azure.provider": ("AzureControlPlane",),
        "base": ("CloudAPIError", "ControlPlane", "PendingOperation", "ResourceRecord"),
        "clock": ("EventQueue", "SimClock", "SkewedClock"),
        "faults": (
            "FaultInjector",
            "FaultSpec",
            "InjectedFault",
            "OutageSpec",
            "SpecValidationError",
        ),
        "gateway": ("CloudGateway",),
        "latency": ("DEFAULT_PROFILE", "LatencyProfile"),
        "ratelimit": ("RateLimiterBank", "RateLimitStats", "TokenBucket"),
        "resilience": (
            "BreakerPolicy",
            "CircuitBreaker",
            "DEFAULT_TIMEOUTS",
            "HealthMonitor",
            "OperationTimeout",
            "OUTAGE_CODES",
            "PartitionUnavailableError",
            "ResilientGateway",
            "RetryPolicy",
            "RetryStats",
            "TERMINAL",
            "THROTTLED",
            "TIMEOUT",
            "TRANSIENT",
            "UNAVAILABLE",
            "classify",
            "is_outage_error",
        ),
        "resources": (
            "AWS_REGIONS",
            "AZURE_LOCATIONS",
            "AttributeSpec",
            "Catalog",
            "ResourceTypeSpec",
            "aws_catalog",
            "azure_catalog",
            "simulated_catalog",
        ),
    },
)
