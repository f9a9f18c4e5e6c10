"""Multi-tenant control-plane service (paper 3.x "cloudless" hosting).

The paper's pitch is cloud management *as a service*: many tenants'
estates managed behind one long-running control plane instead of one
CLI process per operator. This package is that tier over the simulated
engine -- admission control with typed load shedding, per-tenant estate
isolation with lease-fenced sessions, weighted-fair scheduling, circuit
breakers, and a graceful-degradation ladder that keeps read paths
(drift watching) alive while the apply pool is saturated.
"""

from .admission import (
    READ_ONLY_OPS,
    REJECT_BROWNOUT,
    REJECT_CIRCUIT_OPEN,
    REJECT_DEADLINE,
    REJECT_INVALID_PROGRAM,
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    REJECT_READ_ONLY,
    REJECT_SHUTDOWN,
    REJECT_STALE_SESSION,
    REJECT_TENANT_QUOTA,
    REJECT_UNKNOWN_OP,
    SERVICE_OPS,
    STATUS_OF,
    AdmissionController,
    TenantQuota,
    TokenBucket,
)
from .breakers import CircuitBreaker, TenantBreakerBank
from .core import ControlPlaneService, ServicePolicy, ServiceResponse
from .degradation import (
    MODE_BROWNOUT,
    MODE_NORMAL,
    MODE_READ_ONLY,
    DegradationLadder,
)
from .fairness import WeightedFairQueue
from .httpd import ServiceHTTPD
from .tenants import (
    SESSION_TTL_S,
    SessionFencedError,
    TenantHome,
    TenantSession,
    coordination_plane,
)

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "ControlPlaneService",
    "DegradationLadder",
    "MODE_BROWNOUT",
    "MODE_NORMAL",
    "MODE_READ_ONLY",
    "READ_ONLY_OPS",
    "REJECT_BROWNOUT",
    "REJECT_CIRCUIT_OPEN",
    "REJECT_DEADLINE",
    "REJECT_INVALID_PROGRAM",
    "REJECT_QUEUE_FULL",
    "REJECT_RATE_LIMITED",
    "REJECT_READ_ONLY",
    "REJECT_SHUTDOWN",
    "REJECT_STALE_SESSION",
    "REJECT_TENANT_QUOTA",
    "REJECT_UNKNOWN_OP",
    "SERVICE_OPS",
    "SESSION_TTL_S",
    "STATUS_OF",
    "ServiceHTTPD",
    "ServicePolicy",
    "ServiceResponse",
    "SessionFencedError",
    "TenantBreakerBank",
    "TenantHome",
    "TenantQuota",
    "TenantSession",
    "TokenBucket",
    "WeightedFairQueue",
    "coordination_plane",
]
