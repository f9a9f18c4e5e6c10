"""Simulated multi-cloud substrate.

Stands in for real AWS/Azure control planes (see DESIGN.md,
"Substitutions"): typed resources, regions, per-type provisioning
latency, API rate limits, activity logs, quotas, and fault injection --
all over a discrete-event :class:`SimClock` so experiments run in
microseconds of wall time.
"""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "activitylog": ("ActivityEvent", "ActivityLog"),
        "aws.provider": ("AWS_REGIONS", "AwsControlPlane", "aws_catalog"),
        "azure.provider": ("AZURE_LOCATIONS", "AzureControlPlane", "azure_catalog"),
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
        "latency": ("DEFAULT_PROFILE", "LatencyModel", "LatencyProfile"),
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
        "resources": ("AttributeSpec", "ResourceTypeSpec"),
    },
)
