"""The IaC state document -- the "golden state" of the infrastructure.

Maps resource addresses to cloud-level identities and the attribute
snapshot observed at last apply. The paper calls for "an IaC database
that reflects the golden state of the cloud infrastructure" (3.4);
:class:`StateDocument` is that record, and the snapshot history in
:mod:`repro.state.snapshots` is its time machine.

At 10k-resource estates (PR 1's scale target) the original
Terraform-shaped implementation -- ``copy()`` round-tripping every
resource through ``json.loads(json.dumps(...))``, ``by_resource_id``
scanning linearly -- dominated every checkpoint, rollback checkout and
drift poll. This rewrite makes the document **copy-on-write with
immutable entries**:

* every :class:`ResourceState` stored in a document is *sealed*:
  top-level field assignment raises :class:`ImmutableEntryError`.
  Mutation happens by building a successor entry
  (:meth:`ResourceState.replace`) and :meth:`StateDocument.set`-ing it,
  so entries can be structurally shared between arbitrarily many
  documents and snapshots.
* :meth:`StateDocument.copy` is O(1): the entry map is shared between
  the copies (a refcount cell tracks sharing) and the first mutation on
  either side re-materialises only the map -- a dict of references --
  never the entries.
* secondary indexes are maintained, not scanned: ``by_resource_id`` is
  a dict hit, ``instances_of`` reads a per-declaration bucket, and
  ``addresses()``/``resources()`` reuse a sorted-key cache invalidated
  only when the address *set* changes, and shared by copies until then.

``to_json()`` stays byte-identical to the historical format (pinned by
``tests/golden/test_state_golden.py`` against the frozen deep-copy
implementation in :mod:`repro.state.reference`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..addressing import ResourceAddress
from ..perf import PERF


class ImmutableEntryError(TypeError):
    """Attempted in-place mutation of a sealed state entry.

    Entries stored in a :class:`StateDocument` are shared structurally
    with copies and snapshots; mutate by ``doc.set(entry.replace(...))``
    instead.
    """


def deep_value_copy(value: Any) -> Any:
    """Fast deep copy of JSON-shaped attribute values.

    Matches the semantics of the historical ``json.loads(json.dumps(v))``
    round trip (tuples become lists) without serialising.
    """
    if isinstance(value, dict):
        return {k: deep_value_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [deep_value_copy(v) for v in value]
    return value


@dataclasses.dataclass
class ResourceState:
    """State entry for one deployed resource instance.

    Freshly constructed entries are mutable; storing one in a
    :class:`StateDocument` seals it (see :meth:`seal`). Derive changed
    versions with :meth:`replace` -- unchanged ``attrs`` stay shared
    with the parent entry, so a field-level touch is O(1), not
    O(estate).
    """

    address: ResourceAddress
    resource_id: str
    provider: str
    attrs: Dict[str, Any]
    region: str = ""
    created_at: float = 0.0
    updated_at: float = 0.0
    dependencies: List[str] = dataclasses.field(default_factory=list)

    def __setattr__(self, name: str, value: Any) -> None:
        if getattr(self, "_sealed", False):
            raise ImmutableEntryError(
                f"state entry {self.address} is sealed; use "
                f"doc.set(entry.replace({name}=...)) instead of in-place "
                f"assignment"
            )
        object.__setattr__(self, name, value)

    # -- immutability ------------------------------------------------------

    def seal(self) -> "ResourceState":
        """Freeze top-level fields; idempotent."""
        object.__setattr__(self, "_sealed", True)
        return self

    @property
    def sealed(self) -> bool:
        return bool(getattr(self, "_sealed", False))

    def replace(self, **changes: Any) -> "ResourceState":
        """A new (unsealed) entry with ``changes`` applied.

        Fields not named in ``changes`` are shared with this entry --
        safe because sealed entries never mutate. Callers that intend to
        mutate ``attrs``/``dependencies`` in place afterwards must pass
        fresh containers.
        """
        fields = {
            "address": self.address,
            "resource_id": self.resource_id,
            "provider": self.provider,
            "attrs": self.attrs,
            "region": self.region,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "dependencies": self.dependencies,
        }
        fields.update(changes)
        return ResourceState(**fields)

    @property
    def type(self) -> str:
        return self.address.type

    def to_dict(self) -> Dict[str, Any]:
        return {
            "address": str(self.address),
            "resource_id": self.resource_id,
            "provider": self.provider,
            "attrs": self.attrs,
            "region": self.region,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "dependencies": list(self.dependencies),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResourceState":
        # what ``__init__`` would set, without a sealed check per field:
        # a loaded world builds one entry per resource
        entry = object.__new__(cls)
        entry.__dict__.update(
            address=ResourceAddress.parse(data["address"]),
            resource_id=data["resource_id"],
            provider=data["provider"],
            attrs=dict(data["attrs"]),
            region=data.get("region", ""),
            created_at=data.get("created_at", 0.0),
            updated_at=data.get("updated_at", 0.0),
            dependencies=list(data.get("dependencies", [])),
        )
        return entry

    def copy(self) -> "ResourceState":
        """A private, mutable deep copy (attrs and dependencies owned)."""
        return ResourceState(
            address=self.address,
            resource_id=self.resource_id,
            provider=self.provider,
            attrs=deep_value_copy(self.attrs),
            region=self.region,
            created_at=self.created_at,
            updated_at=self.updated_at,
            dependencies=list(self.dependencies),
        )


def _decl_key(address: ResourceAddress) -> Tuple[str, str, tuple, str]:
    return (address.type, address.name, address.module_path, address.mode)


class StateDocument:
    """All resource states plus outputs, with a monotonically
    increasing ``serial`` for optimistic concurrency.

    Copy-on-write: ``copy()`` shares the entry map (O(1)); the first
    ``set``/``remove`` on a sharing document clones the map of
    *references* only. Entries themselves are sealed and never copied.
    """

    def __init__(self, serial: int = 0, lineage: str = "root"):
        self.serial = serial
        self.lineage = lineage
        self._resources: Dict[str, ResourceState] = {}
        #: refcount cell shared by every document sharing ``_resources``
        self._share: List[int] = [1]
        self.outputs: Dict[str, Any] = {}
        # lazy, per-document secondary indexes (never shared via copy)
        self._by_id: Optional[Dict[str, Dict[str, ResourceState]]] = None
        self._by_decl: Optional[Dict[tuple, Dict[str, ResourceState]]] = None
        #: one-slot cell holding the sorted (address, key) pairs, shared
        #: by copies for as long as their address sets are the same: a
        #: document whose set changes takes a fresh cell, and the list
        #: in a cell is never mutated, so whichever copy sorts first
        #: sorts for all of them
        self._sorted_cell: List[Optional[List[Tuple[ResourceAddress, str]]]] = [
            None
        ]

    # -- copy-on-write machinery -------------------------------------------

    def _own(self) -> None:
        """Ensure this document exclusively owns its entry map."""
        if self._share[0] > 1:
            self._share[0] -= 1
            self._resources = dict(self._resources)
            self._share = [1]
            PERF.count("state.copy_unshared")

    # -- resource access --------------------------------------------------

    def get(self, address: ResourceAddress) -> Optional[ResourceState]:
        return self._resources.get(str(address))

    def entries_map(self) -> Mapping[str, ResourceState]:
        """The internal address->entry map (read-only contract).

        Exposed for the snapshot/delta layer, which exploits entry
        *identity* across shared documents to do O(changed) work.
        """
        return self._resources

    def set(self, entry: ResourceState) -> None:
        entry.seal()
        self._own()
        key = str(entry.address)
        prev = self._resources.get(key)
        self._resources[key] = entry
        if prev is None:
            self._sorted_cell = [None]  # address set changed
        if self._by_id is not None:
            if prev is not None and prev.resource_id:
                bucket = self._by_id.get(prev.resource_id)
                if bucket is not None:
                    bucket.pop(key, None)
                    if not bucket:
                        del self._by_id[prev.resource_id]
            if entry.resource_id:
                self._by_id.setdefault(entry.resource_id, {})[key] = entry
        if self._by_decl is not None:
            self._by_decl.setdefault(_decl_key(entry.address), {})[key] = entry

    def remove(self, address: ResourceAddress) -> Optional[ResourceState]:
        key = str(address)
        if key not in self._resources:
            return None
        self._own()
        entry = self._resources.pop(key)
        self._sorted_cell = [None]
        if self._by_id is not None and entry.resource_id:
            bucket = self._by_id.get(entry.resource_id)
            if bucket is not None:
                bucket.pop(key, None)
                if not bucket:
                    del self._by_id[entry.resource_id]
        if self._by_decl is not None:
            bucket2 = self._by_decl.get(_decl_key(entry.address))
            if bucket2 is not None:
                bucket2.pop(key, None)
        return entry

    def _sorted(self) -> List[Tuple[ResourceAddress, str]]:
        cell = self._sorted_cell
        if cell[0] is None:
            cell[0] = sorted(
                ((e.address, k) for k, e in self._resources.items()),
                key=lambda pair: pair[0],
            )
        return cell[0]

    def addresses(self) -> List[ResourceAddress]:
        return [addr for addr, _ in self._sorted()]

    def resources(self) -> List[ResourceState]:
        return [self._resources[key] for _, key in self._sorted()]

    def instances_of(
        self, rtype: str, name: str, module_path: tuple = (), mode: str = "managed"
    ) -> List[ResourceState]:
        """Every instance of one declaration, sorted by instance key."""
        if self._by_decl is None:
            index: Dict[tuple, Dict[str, ResourceState]] = {}
            for key, entry in self._resources.items():
                index.setdefault(_decl_key(entry.address), {})[key] = entry
            self._by_decl = index
        bucket = self._by_decl.get((rtype, name, module_path, mode))
        if not bucket:
            return []
        return sorted(bucket.values(), key=lambda r: r.address)

    def by_resource_id(self, resource_id: str) -> Optional[ResourceState]:
        """Indexed cloud-id -> entry lookup (O(1) amortised).

        Empty ids (a mid-replacement checkpoint clears ``resource_id``)
        fall back to the historical first-match scan; they are not
        unique, so they are not indexed.
        """
        if not resource_id:
            for entry in self._resources.values():
                if entry.resource_id == resource_id:
                    return entry
            return None
        if self._by_id is None:
            index: Dict[str, Dict[str, ResourceState]] = {}
            for key, entry in self._resources.items():
                if entry.resource_id:
                    index.setdefault(entry.resource_id, {})[key] = entry
            self._by_id = index
        PERF.count("state.by_id_lookups")
        bucket = self._by_id.get(resource_id)
        if not bucket:
            return None
        return next(iter(bucket.values()))

    def __len__(self) -> int:
        return len(self._resources)

    def __contains__(self, address: ResourceAddress) -> bool:
        return str(address) in self._resources

    def __iter__(self) -> Iterator[ResourceState]:
        return iter(self.resources())

    # -- lifecycle ----------------------------------------------------------

    def bump(self) -> None:
        self.serial += 1

    def copy(self) -> "StateDocument":
        """O(1) copy-on-write snapshot of this document.

        Entries and the entry map are shared; either side re-materialises
        the map (references only) on its first mutation. ``outputs`` is
        deep-copied -- it is small and callers mutate it in place.
        """
        out = StateDocument.__new__(StateDocument)
        out.serial = self.serial
        out.lineage = self.lineage
        out._resources = self._resources
        self._share[0] += 1
        out._share = self._share
        out.outputs = deep_value_copy(self.outputs)
        out._by_id = None
        out._by_decl = None
        out._sorted_cell = self._sorted_cell
        PERF.count("state.copies")
        PERF.count("state.copy_entries_shared", len(self._resources))
        return out

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "serial": self.serial,
                "lineage": self.lineage,
                "outputs": self.outputs,
                "resources": [r.to_dict() for r in self.resources()],
            },
            indent=2,
            sort_keys=True,
        )

    def content_hash(self) -> str:
        """sha256 over *what is deployed*, excluding timestamps.

        Two schedules of the same plan (sequential vs critical-path,
        an uninterrupted run vs crash and resume) converge on identical
        resources, ids, and attributes, but give each resource a
        different completion time. This digest is
        the canonical equality check across schedules: everything in
        :meth:`to_json` except ``created_at``/``updated_at`` and the
        serial (which counts mutations, not content).
        """
        resources = []
        for entry in self.resources():
            d = entry.to_dict()
            d.pop("created_at", None)
            d.pop("updated_at", None)
            resources.append(d)
        blob = json.dumps(
            {
                "lineage": self.lineage,
                "outputs": self.outputs,
                "resources": resources,
            },
            sort_keys=True,
            default=repr,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    @classmethod
    def from_json(cls, text: str) -> "StateDocument":
        data = json.loads(text)
        doc = cls(serial=data.get("serial", 0), lineage=data.get("lineage", "root"))
        doc.outputs = dict(data.get("outputs", {}))
        for entry in data.get("resources", []):
            doc.set(ResourceState.from_dict(entry))
        return doc
