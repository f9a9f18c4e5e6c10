"""Drift detection and reconciliation (paper 3.5)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "detector": (
            "DetectionRun",
            "DriftFinding",
            "FullScanDetector",
            "LogWatchDetector",
        ),
        "reconcile": (
            "ADOPT",
            "ENFORCE",
            "NOTIFY",
            "ReconcileInterrupted",
            "ReconcileReport",
            "Reconciler",
        ),
        "watcher": (
            "DEFER_DARK",
            "DriftWatcher",
            "ReconcileDecision",
            "WatchCycle",
            "classify_defect",
        ),
    },
)
