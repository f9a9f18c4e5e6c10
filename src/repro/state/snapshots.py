"""State snapshot history -- the "time machine" (3.4).

Every apply/update checkpoints the state document together with the
configuration source that produced it, so rollback planning can pair
"the config I want to return to" with "the state the world was in".

In memory a checkpoint is an O(1) copy-on-write copy of the document:
entries are sealed and shared, so a hundred versions of a large estate
cost a hundred maps of references. The **persisted** form
(:meth:`SnapshotHistory.export_records`) is O(changed) per version: a
chain of deltas that starts at the live state and walks backwards, each
version recorded as what turns its successor into it. The newest
version is usually an empty delta, trimming old versions never
re-anchors the survivors, and each distinct source file is stored once,
by content key, however many versions share it. Once a version is
persisted it keeps only those keys in memory too
(:meth:`SnapshotHistory.release_sources`).

:meth:`SnapshotHistory.import_records` parses those deltas but replays
none of them: an imported version becomes a document the first time
``get()``/``checkout()``/``diff()`` asks for it, and is memoised.
``Snapshot.state`` must be treated as read-only -- use
:meth:`SnapshotHistory.checkout` for a mutable working copy.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Collection, Dict, List, Optional, Union

from ..addressing import ResourceAddress
from ..perf import PERF
from .document import ResourceState, StateDocument


@dataclasses.dataclass
class Snapshot:
    """One checkpoint of (configuration, state) at a point in time."""

    version: int
    timestamp: float
    state: StateDocument
    config_sources: Dict[str, str]
    description: str = ""

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256()
        for fname in sorted(self.config_sources):
            digest.update(fname.encode())
            digest.update(self.config_sources[fname].encode())
        return digest.hexdigest()[:12]


@dataclasses.dataclass
class SnapshotDiff:
    added: List[str]
    removed: List[str]
    changed: List[str]

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.changed)


def source_key(text: str) -> str:
    """Content key of one source file in the persisted form."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class _Record:
    """One version: a checkpointed document, or an imported delta."""

    version: int
    timestamp: float
    description: str
    #: filename -> text; filename -> content key while ``sources_pending``
    config_sources: Dict[str, str]
    sources_pending: bool = False
    #: the state at this version; None until an imported one is asked for
    doc: Optional[StateDocument] = None
    #: imported versions: the :func:`doc_delta` that turns ``base`` --
    #: the next version, or a copy of the state the chain was exported
    #: from -- into this one
    base: Union[int, StateDocument, None] = None
    delta: Optional[Dict[str, Any]] = None


class SnapshotHistory:
    """Append-only version history with diff, checkout and retention."""

    def __init__(self) -> None:
        self._records: List[_Record] = []
        #: versions trimmed away below the oldest retained one
        self._offset = 0
        self._source_of: Optional[Callable[[str], str]] = None

    def checkpoint(
        self,
        state: StateDocument,
        config_sources: Dict[str, str],
        timestamp: float,
        description: str = "",
    ) -> Snapshot:
        record = _Record(
            version=self.last_version + 1,
            timestamp=timestamp,
            description=description,
            config_sources=dict(config_sources),
            doc=state.copy(),  # O(1): shares the entry map
        )
        self._records.append(record)
        PERF.count("snapshot.checkpoints")
        return self.get(record.version)

    # -- access ------------------------------------------------------------

    @property
    def last_version(self) -> int:
        return self._offset + len(self._records)

    def latest(self) -> Optional[Snapshot]:
        return self.get(self.last_version) if self._records else None

    def _record(self, version: int) -> _Record:
        if not self._offset < version <= self.last_version:
            raise KeyError(f"no snapshot version {version}")
        return self._records[version - 1 - self._offset]

    def get(self, version: int) -> Snapshot:
        record = self._record(version)
        if record.sources_pending:
            assert self._source_of is not None
            record.config_sources = {
                fname: self._source_of(key)
                for fname, key in record.config_sources.items()
            }
            record.sources_pending = False
        return Snapshot(
            version=record.version,
            timestamp=record.timestamp,
            state=self._materialize(version),
            config_sources=record.config_sources,
            description=record.description,
        )

    def checkout(self, version: int) -> StateDocument:
        """A mutable working copy of the state at ``version`` (O(1))."""
        return self._materialize(version).copy()

    def versions(self) -> List[int]:
        return list(range(self._offset + 1, self.last_version + 1))

    def __len__(self) -> int:
        return len(self._records)

    def _materialize(self, version: int) -> StateDocument:
        # walk the delta chain up to a version that has its document
        # (or to the chain's anchor), then rebuild back down
        chain: List[_Record] = []
        record = self._record(version)
        while record.doc is None:
            chain.append(record)
            if not isinstance(record.base, int):
                break
            record = self._record(record.base)
        doc = record.doc if record.doc is not None else record.base
        for record in reversed(chain):
            assert isinstance(doc, StateDocument) and record.delta is not None
            doc = record.doc = doc.copy()
            apply_doc_delta(doc, record.delta)
            PERF.count("snapshot.reconstructions")
        assert doc is not None
        return doc

    def trim(self, keep: int) -> int:
        """Retention: forget all but the newest ``keep`` versions.
        Version numbers stay valid; a version only ever leans on newer
        ones, so the survivors need no re-anchoring."""
        drop = max(0, len(self._records) - keep)
        del self._records[:drop]
        self._offset += drop
        return drop

    # -- diff ----------------------------------------------------------------

    def diff(self, old_version: int, new_version: int) -> SnapshotDiff:
        """Addresses added/removed/changed between two checkpoints.

        ``changed`` considers the cloud identity as well as the attrs: a
        delete->create replacement that lands identical attrs under a
        new ``resource_id`` is a change, not a no-op.
        """
        old = self._materialize(old_version)
        new = self._materialize(new_version)
        old_map = old.entries_map()
        new_map = new.entries_map()
        if old_map is new_map:
            return SnapshotDiff(added=[], removed=[], changed=[])
        added = sorted(k for k in new_map if k not in old_map)
        removed = sorted(k for k in old_map if k not in new_map)
        changed = []
        for key, new_entry in new_map.items():
            old_entry = old_map.get(key)
            if old_entry is None or old_entry is new_entry:
                continue
            if (
                old_entry.attrs != new_entry.attrs
                or old_entry.resource_id != new_entry.resource_id
            ):
                changed.append(key)
        changed.sort()
        return SnapshotDiff(added=added, removed=removed, changed=changed)

    # -- persistence -------------------------------------------------------

    def export_records(
        self,
        state: StateDocument,
        after: int = 0,
        texts: Optional[Dict[str, str]] = None,
    ) -> List[Dict[str, Any]]:
        """Versions above ``after`` as a delta chain hanging off ``state``.

        The newest version is a delta against ``state`` (``"base":
        "state"``), every older one a delta against its successor.
        Source files are named by :func:`source_key`; ``texts`` collects
        key -> text for the ones this history holds as text.
        """
        out: List[Dict[str, Any]] = []
        newer: StateDocument = state
        base: Union[int, str] = "state"
        for version in range(self.last_version, max(after, self._offset), -1):
            record = self._record(version)
            doc = self._materialize(version)
            sources = record.config_sources
            if not record.sources_pending:
                sources = {f: source_key(text) for f, text in sources.items()}
                if texts is not None:
                    texts.update(zip(sources.values(), record.config_sources.values()))
            delta = doc_delta(newer, doc)
            PERF.count("snapshot.deltas")
            PERF.count(
                "snapshot.delta_entries", len(delta["set"]) + len(delta["removed"])
            )
            out.append(
                {
                    "version": version,
                    "timestamp": record.timestamp,
                    "description": record.description,
                    "sources": sources,
                    "base": base,
                    "delta": delta,
                }
            )
            newer, base = doc, version
        out.reverse()
        return out

    def release_sources(
        self, stored: Collection[str], source_of: Callable[[str], str]
    ) -> None:
        """The persisted form now holds the source files ``stored``
        names (content keys): every version made only of those drops
        its text for the keys and reads it back through ``source_of``
        when asked -- the shape :meth:`import_records` leaves, so a
        history weighs the same an hour into a session as re-loaded."""
        self._source_of = source_of
        for record in self._records:
            if record.sources_pending:
                continue
            keys = {f: source_key(text) for f, text in record.config_sources.items()}
            if all(key in stored for key in keys.values()):
                # a new dict: a Snapshot handed out earlier keeps its text
                record.config_sources = keys
                record.sources_pending = True

    def import_records(
        self,
        items: List[Dict[str, Any]],
        state: StateDocument,
        source_of: Callable[[str], str],
    ) -> None:
        """Append :meth:`export_records` output; ``state`` is the
        document the chain was exported from, ``source_of`` turns a
        content key back into text. Validates every delta (on a scratch
        document, so a malformed one fails here and not at the first
        ``rollback``) but rebuilds no version.
        """
        anchor: Optional[StateDocument] = None
        top = items[-1]["version"] if items else 0
        for item in items:
            version, base, delta = item["version"], item["base"], item["delta"]
            if not self._records and isinstance(version, int) and version >= 1:
                self._offset = version - 1
            if version != self.last_version + 1:
                raise ValueError(f"snapshot v{version} is out of sequence")
            if base == "state":
                anchor = base = anchor or state.copy()
            elif base != version + 1 or base > top:
                raise ValueError(f"snapshot v{version} has no base to apply to")
            apply_doc_delta(StateDocument(), delta)
            self._records.append(
                _Record(
                    version=version,
                    timestamp=float(item["timestamp"]),
                    description=str(item["description"]),
                    config_sources={
                        str(f): str(key) for f, key in item["sources"].items()
                    },
                    sources_pending=True,
                    base=base,
                    delta=delta,
                )
            )
        self._source_of = source_of


def _map_delta(old_map, new_map):
    """(set, removed) between two entry maps, identity-fast."""
    if old_map is new_map:
        return {}, []
    delta_set = {}
    for key, entry in new_map.items():
        prev = old_map.get(key)
        if prev is entry:
            continue  # structurally shared: unchanged by construction
        if prev is None or prev != entry:
            delta_set[key] = entry
    delta_removed = [k for k in old_map if k not in new_map]
    return delta_set, delta_removed


def doc_delta(old: StateDocument, new: StateDocument) -> Dict[str, Any]:
    """What turns ``old`` into ``new``, in JSON form (O(changed) when
    the two share entries)."""
    delta_set, delta_removed = _map_delta(old.entries_map(), new.entries_map())
    delta: Dict[str, Any] = {
        "serial": new.serial,
        "lineage": new.lineage,
        "set": [delta_set[k].to_dict() for k in sorted(delta_set)],
        "removed": sorted(delta_removed),
    }
    if new.outputs != old.outputs:
        delta["outputs"] = new.outputs
    return delta


def apply_doc_delta(doc: StateDocument, delta: Dict[str, Any]) -> None:
    """Replay one :func:`doc_delta` onto ``doc`` (idempotent)."""
    for item in delta.get("set", []):
        doc.set(ResourceState.from_dict(item))
    for key in delta.get("removed", []):
        doc.remove(ResourceAddress.parse(key))
    doc.serial = delta.get("serial", doc.serial)
    doc.lineage = delta.get("lineage", doc.lineage)
    if "outputs" in delta:
        doc.outputs = dict(delta["outputs"])
