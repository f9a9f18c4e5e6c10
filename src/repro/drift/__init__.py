"""Drift detection and reconciliation (paper 3.5)."""

from .detector import (
    DetectionRun,
    DriftFinding,
    FullScanDetector,
    LogWatchDetector,
)
from .reconcile import (
    ADOPT,
    ENFORCE,
    NOTIFY,
    ReconcileInterrupted,
    ReconcileReport,
    Reconciler,
)
from .watcher import (
    DEFER_DARK,
    DriftWatcher,
    ReconcileDecision,
    WatchCycle,
    classify_defect,
)

__all__ = [
    "ADOPT",
    "DEFER_DARK",
    "DetectionRun",
    "DriftFinding",
    "DriftWatcher",
    "ENFORCE",
    "FullScanDetector",
    "LogWatchDetector",
    "NOTIFY",
    "ReconcileDecision",
    "ReconcileInterrupted",
    "ReconcileReport",
    "Reconciler",
    "WatchCycle",
    "classify_defect",
]
