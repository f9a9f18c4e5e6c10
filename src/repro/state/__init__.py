"""State management: golden-state document, stores, snapshots ("time
machine"), lock managers, and transactions (paper 3.4)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "document": ("ImmutableEntryError", "ResourceState", "StateDocument"),
        "locks": (
            "GLOBAL_KEY",
            "GlobalLockManager",
            "LockGrant",
            "LockManager",
            "ResourceLockManager",
        ),
        "snapshots": ("Snapshot", "SnapshotDiff", "SnapshotHistory"),
        "store": ("JournalStateStore", "StaleStateError", "StoreOwnedError"),
        "transactions": (
            "CommittedTransaction",
            "SerializabilityChecker",
            "StaleLeaseError",
            "StateDatabase",
            "StateTransaction",
            "TransactionError",
        ),
    },
)
