"""Transactional state updates (3.4).

An update is staged as a :class:`StateTransaction`: it declares the
addresses it will read/write, acquires them through a lock manager,
applies mutations to a private working copy, and commits atomically to
the shared document. A :class:`SerializabilityChecker` verifies (for the
experiments) that the interleaved history is conflict-serializable.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Dict, List, Optional, Set

from ..addressing import ResourceAddress
from .document import ResourceState, StateDocument
from .locks import LockGrant, LockManager


class TransactionError(RuntimeError):
    """Raised on commit/usage protocol violations."""


class StaleLeaseError(TransactionError):
    """A commit arrived after the transaction's lock lease expired.

    The fencing check failed: some other holder may have acquired the
    keys in the meantime, so applying this transaction's writes could
    clobber theirs. The transaction is aborted; the caller must re-begin
    and redo its work against the current document.
    """


@dataclasses.dataclass
class _Op:
    kind: str  # "set" | "remove"
    address: Optional[ResourceAddress] = None
    entry: Optional[ResourceState] = None


class StateTransaction:
    """One atomic, isolated batch of state mutations."""

    def __init__(
        self,
        txn_id: str,
        database: "StateDatabase",
        keys: Set[str],
        grant: Optional[LockGrant] = None,
    ):
        self.txn_id = txn_id
        self._db = database
        self.keys = set(keys)
        self.grant = grant
        self._ops: List[_Op] = []
        self._reads: Set[str] = set()
        self.status = "active"  # active | committed | aborted

    # -- staged operations ----------------------------------------------------

    def read(self, address: ResourceAddress) -> Optional[ResourceState]:
        self._require_active()
        self._require_key(str(address))
        self._reads.add(str(address))
        entry = self._db.document.get(address)
        return entry.copy() if entry else None

    def set(self, entry: ResourceState) -> None:
        self._require_active()
        self._require_key(str(entry.address))
        self._ops.append(_Op("set", address=entry.address, entry=entry.copy()))

    def remove(self, address: ResourceAddress) -> None:
        self._require_active()
        self._require_key(str(address))
        self._ops.append(_Op("remove", address=address))

    # -- lifecycle ----------------------------------------------------------

    def commit(self, now: float = 0.0) -> None:
        self._require_active()
        try:
            self._db._apply(self, now)
        except StaleLeaseError:
            self.status = "aborted"
            raise
        self.status = "committed"

    def abort(self) -> None:
        self._require_active()
        self._db._abort(self)
        self.status = "aborted"

    @property
    def write_set(self) -> Set[str]:
        return {
            str(op.address)
            for op in self._ops
            if op.kind in ("set", "remove") and op.address is not None
        }

    @property
    def read_set(self) -> Set[str]:
        return set(self._reads)

    def _require_active(self) -> None:
        if self.status != "active":
            raise TransactionError(f"transaction {self.txn_id} is {self.status}")

    def _require_key(self, key: str) -> None:
        if key not in self.keys:
            raise TransactionError(
                f"transaction {self.txn_id} touched {key} without locking it"
            )


@dataclasses.dataclass
class CommittedTransaction:
    """History entry for serializability checking."""

    txn_id: str
    read_set: Set[str]
    write_set: Set[str]
    begin_at: float
    commit_at: float


class StateDatabase:
    """The lock-managed, transactional home of the golden state."""

    def __init__(
        self,
        document: StateDocument,
        lock_manager: LockManager,
        lease_ttl: Optional[float] = None,
    ):
        self.document = document
        self.locks = lock_manager
        #: when set, every transaction's locks are TTL leases: the
        #: holder must heartbeat via :meth:`renew` and commits are
        #: fence-checked, so a crashed holder's grant expires instead of
        #: blocking every other team forever
        self.lease_ttl = lease_ttl
        self.history: List[CommittedTransaction] = []
        self._active: Dict[str, StateTransaction] = {}
        self._begin_times: Dict[str, float] = {}
        #: serializes begin/renew/commit/abort so a lease cannot lapse
        #: (nor its keys be re-granted) between the fencing check and
        #: the document writes of a commit
        self._mutex = threading.RLock()

    def begin(
        self, txn_id: str, keys: Set[str], now: float
    ) -> Optional[StateTransaction]:
        """Start a transaction holding ``keys``; None if locks unavailable."""
        with self._mutex:
            if txn_id in self._active:
                raise TransactionError(
                    f"transaction id {txn_id} already active"
                )
            grant = self.locks.try_acquire(
                txn_id, keys, now, ttl=self.lease_ttl
            )
            if not grant:
                return None
            txn = StateTransaction(txn_id, self, keys, grant=grant)
            self._active[txn_id] = txn
            self._begin_times[txn_id] = now
            return txn

    def renew(self, txn_id: str, now: float) -> bool:
        """Heartbeat a transaction's lease; False if it already lapsed."""
        if self.lease_ttl is None:
            return True
        return self.locks.renew(txn_id, now, ttl=self.lease_ttl) is not None

    def _apply(self, txn: StateTransaction, now: float) -> None:
        with self._mutex:
            if self.lease_ttl is not None:
                grant = txn.grant
                fence = grant.fencing_token if grant is not None else -1
                # atomic validate-and-release: commit_fence checks the
                # token and surrenders the grant in one step, so a lease
                # that lapsed by `now` -- even one whose keys another
                # holder has since re-acquired -- deterministically
                # raises instead of depending on sweep order
                if not self.locks.commit_fence(txn.txn_id, fence, now):
                    self._abort_locked(txn)
                    raise StaleLeaseError(
                        f"transaction {txn.txn_id} outlived its lock "
                        f"lease; commit rejected by fencing check"
                    )
            for op in txn._ops:
                if op.kind == "set" and op.entry is not None:
                    self.document.set(op.entry)
                elif op.kind == "remove" and op.address is not None:
                    self.document.remove(op.address)
            self.document.bump()
            self.history.append(
                CommittedTransaction(
                    txn_id=txn.txn_id,
                    read_set=txn.read_set,
                    write_set=txn.write_set,
                    begin_at=self._begin_times.pop(txn.txn_id, 0.0),
                    commit_at=now,
                )
            )
            if self.lease_ttl is None:
                self.locks.release(txn.txn_id)
            del self._active[txn.txn_id]

    def _abort(self, txn: StateTransaction) -> None:
        with self._mutex:
            self._abort_locked(txn)

    def _abort_locked(self, txn: StateTransaction) -> None:
        self.locks.release(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self._begin_times.pop(txn.txn_id, None)


class SerializabilityChecker:
    """Conflict-serializability check over a committed history.

    Builds the precedence graph: T1 -> T2 if T1 committed before T2
    began is *not* required; we add an edge whenever T1's writes
    intersect T2's reads/writes (or T1's reads intersect T2's writes)
    and T1 committed first among overlapping transactions. Acyclic
    graph => serializable.

    Edges are constructed key-indexed: for every state key we keep the
    sorted writer/accessor lists and pair only transactions that
    actually conflict on that key, instead of testing all T^2 pairs for
    set overlap. On the disjoint-key histories the lock manager
    produces, this is near-linear in the history length; the historical
    all-pairs construction survives as
    :meth:`is_serializable_reference` for the regression tests.
    """

    @staticmethod
    def is_serializable(history: List[CommittedTransaction]) -> bool:
        import bisect

        from ..graph.dag import CycleError, Dag

        dag: Dag = Dag()
        for txn in history:
            dag.add_node(txn.txn_id)
        # key -> transactions that wrote / accessed (read or wrote) it
        writers: Dict[str, List[CommittedTransaction]] = {}
        accessors: Dict[str, List[CommittedTransaction]] = {}
        for txn in history:
            for key in txn.write_set:
                writers.setdefault(key, []).append(txn)
                accessors.setdefault(key, []).append(txn)
            for key in txn.read_set - txn.write_set:
                accessors.setdefault(key, []).append(txn)
        edges: Set[tuple] = set()
        for key, key_writers in writers.items():
            key_accessors = sorted(accessors[key], key=lambda t: t.begin_at)
            begins = [t.begin_at for t in key_accessors]
            for first in key_accessors:
                # w-w and w-r conflicts when `first` wrote the key;
                # r-w conflicts otherwise -- then only writers conflict
                targets = (
                    key_accessors
                    if key in first.write_set
                    else key_writers
                )
                if targets is key_accessors:
                    # every accessor beginning at/after first's commit
                    start = bisect.bisect_left(begins, first.commit_at)
                    candidates = key_accessors[start:]
                else:
                    candidates = [
                        t for t in targets if first.commit_at <= t.begin_at
                    ]
                for second in candidates:
                    if second.txn_id != first.txn_id:
                        edges.add((first.txn_id, second.txn_id))
        for before, after in edges:
            try:
                dag.add_edge(before, after)
            except CycleError:
                return False
        return dag.find_cycle() is None

    @staticmethod
    def is_serializable_reference(history: List[CommittedTransaction]) -> bool:
        """The historical O(T^2) all-pairs construction (frozen).

        Kept as the oracle for ``tests/test_state.py``'s 500-transaction
        regression test; semantics must match :meth:`is_serializable`.
        """
        from ..graph.dag import CycleError, Dag

        dag: Dag = Dag()
        for txn in history:
            dag.add_node(txn.txn_id)
        for first in history:
            for second in history:
                if first.txn_id == second.txn_id:
                    return_edge = False
                else:
                    overlap = (
                        first.write_set & (second.read_set | second.write_set)
                    ) or (first.read_set & second.write_set)
                    return_edge = bool(overlap) and first.commit_at <= second.begin_at
                if return_edge:
                    try:
                        dag.add_edge(first.txn_id, second.txn_id)
                    except CycleError:
                        return False
        return dag.find_cycle() is None
