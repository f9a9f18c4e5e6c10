"""Multi-tenant control-plane service (paper 3.x "cloudless" hosting).

The paper's pitch is cloud management *as a service*: many tenants'
estates managed behind one long-running control plane instead of one
CLI process per operator. This package is that tier over the simulated
engine -- admission control with typed load shedding, per-tenant estate
isolation with lease-fenced sessions, weighted-fair scheduling, circuit
breakers, and a graceful-degradation ladder that keeps read paths
(drift watching) alive while the apply pool is saturated.
"""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "admission": (
            "READ_ONLY_OPS",
            "REJECT_BROWNOUT",
            "REJECT_CIRCUIT_OPEN",
            "REJECT_DEADLINE",
            "REJECT_INVALID_PROGRAM",
            "REJECT_INVALID_REQUEST",
            "REJECT_QUEUE_FULL",
            "REJECT_RATE_LIMITED",
            "REJECT_READ_ONLY",
            "REJECT_SHUTDOWN",
            "REJECT_STALE_SESSION",
            "REJECT_TENANT_QUOTA",
            "REJECT_UNKNOWN_OP",
            "SERVICE_OPS",
            "STATUS_OF",
            "AdmissionController",
            "TenantQuota",
        ),
        "core": ("ControlPlaneService", "ServicePolicy", "ServiceResponse"),
        "degradation": (
            "MODE_BROWNOUT",
            "MODE_NORMAL",
            "MODE_READ_ONLY",
            "DegradationLadder",
        ),
        "fairness": ("WeightedFairQueue",),
        "httpd": ("ServiceHTTPD",),
        "tenants": (
            "SESSION_TTL_S",
            "SessionFencedError",
            "TenantHome",
            "TenantSession",
            "coordination_plane",
        ),
    },
)
