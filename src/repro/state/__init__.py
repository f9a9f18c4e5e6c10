"""State management: golden-state document, stores, snapshots ("time
machine"), lock managers, and transactions (paper 3.4)."""

from .document import ImmutableEntryError, ResourceState, StateDocument
from .locks import (
    GLOBAL_KEY,
    GlobalLockManager,
    LockGrant,
    LockManager,
    ResourceLockManager,
)
from .snapshots import Snapshot, SnapshotDiff, SnapshotHistory
from .store import (
    JournalStateStore,
    StaleStateError,
    StoreOwnedError,
)
from .transactions import (
    CommittedTransaction,
    SerializabilityChecker,
    StaleLeaseError,
    StateDatabase,
    StateTransaction,
    TransactionError,
)

__all__ = [
    "CommittedTransaction",
    "GLOBAL_KEY",
    "GlobalLockManager",
    "ImmutableEntryError",
    "JournalStateStore",
    "LockGrant",
    "LockManager",
    "ResourceLockManager",
    "ResourceState",
    "SerializabilityChecker",
    "Snapshot",
    "SnapshotDiff",
    "SnapshotHistory",
    "StaleLeaseError",
    "StaleStateError",
    "StateDatabase",
    "StateDocument",
    "StateTransaction",
    "StoreOwnedError",
    "TransactionError",
]
