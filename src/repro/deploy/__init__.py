"""Deployment executors and the full-refresh update baseline (paper 3.3)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "executor": (
            "ApplyResult",
            "BestEffortExecutor",
            "CriticalPathExecutor",
            "OperationRecord",
            "PlanExecutor",
            "Quarantine",
            "RetryPolicy",
            "SequentialExecutor",
        ),
        "recovery": ("CrashRecovery", "RecoveryAction", "RecoveryReport"),
        "wal": ("IntentJournal", "IntentRecord", "SimulatedCrash", "WALCorruptError"),
        "incremental": (
            "RefreshResult",
            "UpdatePipeline",
            "UpdatePlanResult",
            "refresh_state",
        ),
    },
)
