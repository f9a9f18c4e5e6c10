"""Concurrent updates, transactions, and rollback (paper 3.4)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "coordinator": (
            "CoordinationResult",
            "SCHEDULING_POLICIES",
            "UpdateCoordinator",
            "UpdateOutcome",
            "UpdateRequest",
        ),
        "rollback": (
            "NaiveRollback",
            "ReversibilityAwareRollback",
            "RollbackAction",
            "RollbackKind",
            "RollbackPlan",
            "RollbackResult",
            "measure_divergence",
        ),
    },
)
