"""World persistence: one append-only file of framed records.

A *world file* captures everything that makes a simulated session: the
control planes' resource stores, activity logs, clock, quotas and id
counters, plus the engine's golden state, outputs and snapshot history.
This is what lets ``python -m repro apply`` behave like a real CLI
across invocations -- the simulated cloud survives between runs.

The file is a sequence of **commits**: one frame per section, then a
commit frame. A frame is a header line ``clw3 <kind> <name> <length>
<sha256>`` followed by that many bytes of JSON. Every commit is a
*delta* -- the activity-log events past the loaded cursor and the
current value (or tombstone) of the records they name, the tokens and
id generations minted, the state entries that differ from the copy
taken at load, the new snapshot versions, the source files not stored
yet -- and the first, the *keyframe*, is simply the delta against
nothing: the whole world.

* **Crash contract.** Deltas are appended, keyframes replace the file
  atomically. A frame that fails its length or hash, or sections with
  no commit frame after them, can only be the tail of a write that was
  killed: :func:`load_world` drops it and returns the previous commit.
  The same damage with intact frames after it is not a torn tail and
  raises :class:`WorldFormatError`, as does anything else unreadable.
* **Compaction.** When the deltas would outweigh the keyframe they
  follow, the save writes a fresh keyframe instead. That pass also
  applies retention: activity-log events every watch cursor has
  consumed and snapshot versions beyond :data:`HISTORY_RETENTION` go.
* **Baseline.** The engine remembers (``engine._world_base``) what the
  file held when it was loaded or last saved. A save whose baseline is
  not where the file ends any more writes a keyframe.
* **Deferred planes.** A load verifies every frame and decodes every
  section, and checks each ``plane:*`` section's shape
  (:func:`_check_plane`: whatever :func:`plane_from_dict` could trip on
  is a :class:`WorldFormatError` here, never a traceback mid-verb). It
  then keeps only a copy of each plane's section bytes: a plane is
  replayed, commit by commit, the first time one of its persisted
  attributes (:data:`PLANE_ATTRIBUTES`) is read (``ControlPlane.defer``),
  and its baseline is marked then. A plane nobody read writes no
  section; a keyframe reads them all. So a ``plan`` never builds the
  clouds' records and logs.
* **Older worlds.** A ``{``-led file is format 2 or older (one JSON
  document) and is refused, typed; no migration reads it any more.
* **The plan record.** A ``state`` section may carry one optional
  field, ``plan_basis``: which compile-cache artifact the last plan
  was computed from (its key and per-file source digests), a digest of
  the data-source reads, and the managed addresses that plan does
  *not* vouch for -- every other entry of the state, as this very
  commit leaves it, was found no-op. It is written in the section it
  is about, so the two land or tear together, and it is what lets the
  next process plan what its edit can touch
  (``CloudlessEngine._wake_plan_basis``). Four rules keep it true
  without anyone invalidating it: a verb that planned records what its
  own basis still holds, any other carries the loaded record minus
  the entries it moved (:func:`_plan_record`); a commit that writes
  ``state`` without the field voids it; a new proof is recorded only
  for an artifact-backed basis that proves something; and whoever
  finds no usable record plans whole.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import hashlib
import json
import operator
import os
import tempfile
import zlib
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .addressing import MANAGED
from .cloud.activitylog import ActivityEvent
from .cloud.base import ControlPlane, ResourceRecord
from .core.engine import EXECUTOR_NAMES, CloudlessEngine
from .perf import PERF
from .state.document import StateDocument
from .state.snapshots import apply_doc_delta, doc_delta, source_key

FORMAT_VERSION = 3
MAGIC = b"clw3"
#: snapshot versions a compaction keeps
HISTORY_RETENTION = 32
#: a header line is five short tokens
_MAX_HEADER = 256
#: ceiling on one unpacked source file: a packed blob is outside input
_MAX_SOURCE_BYTES = 64 << 20
#: what an engine is constructed with; a delta cannot change these
_CONSTRUCTION = ("seed", "executor", "validation_level")
#: the ``state`` section's optional field (module docstring)
_PLAN_RECORD = "plan_basis"


class WorldFormatError(ValueError):
    """The world file is not something this program wrote (or a newer
    or older program did): unknown format, damaged frames, bad values."""


#: what a malformed value trips on while it is decoded or replayed
_MALFORMED = (
    AttributeError,
    IndexError,
    KeyError,
    OverflowError,
    RecursionError,
    TypeError,
    ValueError,
)


class _NotADelta(Exception):
    """The engine is no longer the one its baseline describes."""


# -- source files: stored once, packed, by content key -----------------------------


def _pack(text: str) -> str:
    return base64.b64encode(zlib.compress(text.encode("utf-8"))).decode("ascii")


def _unpack(key: str, packed: str) -> str:
    try:
        inflater = zlib.decompressobj()
        raw = inflater.decompress(base64.b64decode(packed), _MAX_SOURCE_BYTES)
        text = raw.decode("utf-8")
    except (zlib.error, binascii.Error, UnicodeDecodeError, ValueError) as exc:
        raise WorldFormatError(f"source blob {key[:12]} does not unpack: {exc}")
    if inflater.unconsumed_tail or source_key(text) != key:
        raise WorldFormatError(f"source blob {key[:12]} is not what its key names")
    return text


# -- the baseline: what the file holds, as seen from the engine ---------------------


class _PlaneMark:
    """One plane at the last load/save: enough to name what changed."""

    def __init__(self, plane: ControlPlane):
        self.log = plane.log
        self.cursor = plane.log.next_cursor
        self.scalars = _plane_scalars(plane)
        self.tokens = dict(plane._tokens)
        self.id_gens = dict(plane._id_gens)


class _Base:
    """The engine's view of its world file as of the last load or save."""

    def __init__(self) -> None:
        #: content key -> packed text: every source file the file holds
        #: (``stored``), and any packed since for a commit yet to land
        self.sources: Dict[str, str] = {}
        self.stored: Set[str] = set()
        self.path: Optional[str] = None
        #: the file's plan record (``record``), and what it will be once
        #: the commit being replayed or written lands (``staged_record``):
        #: the field as written, ``"none"`` while no commit has carried
        #: one, ``"void"`` once one wrote ``state`` without it
        self.record: Any = "none"
        self.staged_record: Any = "none"

    def source(self, key: str) -> str:
        return _unpack(key, self.sources[key])

    def committed(
        self, engine: CloudlessEngine, path: str, seq: int, end: int, tail: bytes
    ) -> None:
        """``path`` now ends at ``end`` with commit ``seq`` (frame
        ``tail``, to recognise the file by) and holds ``engine`` as is."""
        self.path, self.seq, self.end, self.tail = os.path.realpath(path), seq, end, tail
        self.stored = self.staged
        if seq == 0:  # a keyframe: it holds only what is still named
            self.keyframe_end = end
            self.sources = {key: self.sources[key] for key in self.stored}
        # a plane still deferred is marked when it is replayed
        self.planes = {
            n: _PlaneMark(p) for n, p in engine.gateway.planes.items() if not p.deferred
        }
        self.state = engine.state.copy()  # O(1) COW
        self.record = self.staged_record
        engine._plan_record = (
            self.record if isinstance(self.record, str) else (self.record, self.state)
        )
        self.history = engine.history
        self.history_last = engine.history.last_version
        # the file names every committed version's sources by key; so
        # does the history from here on, whatever it was built from
        engine.history.release_sources(self.stored, self.source)
        self.engine_section = _engine_section(engine)

    @property
    def budget(self) -> int:
        """Bytes of delta the file takes before they outweigh its keyframe."""
        return self.keyframe_end - (self.end - self.keyframe_end)


def _base_of(engine: CloudlessEngine) -> _Base:
    if engine._world_base is None:
        engine._world_base = _Base()
    return engine._world_base


# -- sections: a commit, cut where it is encoded and replayed -----------------------


def _plane_scalars(plane: ControlPlane) -> Dict[str, Any]:
    return {
        "seed": plane.seed,
        # durable sequence watermarks: correct cursor math even when the
        # retained event window starts above sequence 0 (compaction)
        "log_base": plane.log.next_cursor - len(plane.log),
        "log_next_seq": plane.log.next_cursor,
        "id_counter": plane._next_id,
        "quotas": [
            {"rtype": rtype, "region": region, "limit": limit}
            for (rtype, region), limit in sorted(plane.quotas.items())
        ],
        "api_calls": dict(plane.api_calls),
    }


def _plane_section(
    plane: ControlPlane, mark: Optional[_PlaneMark]
) -> Optional[Dict[str, Any]]:
    """What changed on ``plane`` since ``mark`` (everything, for no mark)."""
    if mark is None:
        events = plane.log.all_events()
        dirty, tokens, id_gens = set(plane.records), plane._tokens, plane._id_gens
    else:
        if plane.log is not mark.log:
            raise _NotADelta
        # every mutation of ``plane.records`` logs an event naming the
        # record: the log past the cursor is the dirty set
        events = plane.log.events_since(mark.cursor)
        dirty = {e.resource_id for e in events}
        tokens = {k: v for k, v in plane._tokens.items() if mark.tokens.get(k) != v}
        id_gens = {k: g for k, g in plane._id_gens.items() if mark.id_gens.get(k) != g}
        if not (
            mark.tokens.keys() <= plane._tokens.keys()
            and mark.id_gens.keys() <= plane._id_gens.keys()
        ):
            raise _NotADelta  # an index lost keys: additions cannot say that
    scalars = _plane_scalars(plane)
    if mark and not (events or tokens or id_gens) and scalars == mark.scalars:
        return None
    return {
        **scalars,
        "records": [
            dict(vars(plane.records[r])) for r in sorted(dirty) if r in plane.records
        ],
        "gone": sorted(dirty.difference(plane.records)),
        "log": [dict(vars(e)) for e in events],
        # identity-keyed generation counters: without them a reloaded
        # world would re-mint generation-0 ids for recreated names
        "id_gens": [
            {"rtype": t, "region": r, "name": n, "gen": g}
            for (t, r, n), g in sorted(id_gens.items())
        ],
        # idempotency-token index: lets a resumed apply deduplicate
        # creates against resources a crashed run already provisioned
        "tokens": dict(sorted(tokens.items())),
    }


#: the JSON types a row field may hold, by its annotation (a JSON
#: value's type, so ``bool`` is not an ``int``)
_JSON_TYPES: Dict[str, Set[type]] = {
    "str": {str},
    "int": {int},
    "float": {int, float},
    "tuple": {list, tuple},
    "Dict[str, Any]": {dict},
}

#: a row shape: the fields a row may name, and per field a getter (for
#: a field with a default, one that reads the default when the row
#: leaves the field out) and the types its value may have
_Shape = Tuple[frozenset, Dict[str, Tuple[Any, Set[type]]]]


def _rows(annotations: Dict[str, str], defaults: Dict[str, Any]) -> _Shape:
    """The shape of rows with these fields (name -> annotation) and
    these defaults, as :func:`plane_from_dict` lands them."""
    getters = {
        name: (
            operator.methodcaller("get", name, defaults[name])
            if name in defaults
            else operator.itemgetter(name),
            _JSON_TYPES[annotation],
        )
        for name, annotation in annotations.items()
    }
    return frozenset(annotations), getters


def _dataclass_rows(cls: type) -> _Shape:
    """The shape of rows a plane section holds of dataclass ``cls``."""
    fields = dataclasses.fields(cls)
    return _rows(
        {field.name: field.type for field in fields},
        {
            field.name: field.default
            for field in fields
            if field.default is not dataclasses.MISSING
        },
    )


_RECORD_ROWS = _dataclass_rows(ResourceRecord)
_EVENT_ROWS = _dataclass_rows(ActivityEvent)
_ID_GEN_ROWS = _rows({"rtype": "str", "region": "str", "name": "str", "gen": "int"}, {})
_QUOTA_ROWS = _rows({"rtype": "str", "region": "str", "limit": "float"}, {})
#: an event row's ``changed_attrs``, whose items must be strings too
_CHANGED_ATTRS = _EVENT_ROWS[1]["changed_attrs"][0]


def _types(values: Any) -> Set[type]:
    return set(map(type, values))


def _rows_ok(rows: Any, shape: _Shape) -> bool:
    """``rows`` is a list of dicts of ``shape``: one pass per field over
    every row, none of them a Python call per row (a keyframe holds
    thousands)."""
    fields, getters = shape
    if (
        type(rows) is not list
        or not _types(rows) <= {dict}
        or not all(map(fields.issuperset, rows))
    ):
        return False
    try:
        return all(_types(map(get, rows)) <= kinds for get, kinds in getters.values())
    except KeyError:  # a row without a field it must name
        return False


def _str_map(value: Any, kinds: Set[type], keys: Iterable[str] = ()) -> bool:
    return (
        type(value) is dict
        and value.keys() >= set(keys)
        and _types(value) <= {str}
        and _types(value.values()) <= kinds
    )


def _check_plane(data: Any, where: str) -> None:
    """Refuse a plane section :func:`plane_from_dict` could trip on, or
    that would leave a plane its readers trip on. Every load runs it, so
    a plane replayed on first read, mid-verb, cannot fail."""
    get = data.get if type(data) is dict else None
    if not (
        get
        and _rows_ok(get("records", []), _RECORD_ROWS)
        and _rows_ok(get("log", []), _EVENT_ROWS)
        and _types(chain.from_iterable(map(_CHANGED_ATTRS, get("log", [])))) <= {str}
        and _rows_ok(get("id_gens", []), _ID_GEN_ROWS)
        and _rows_ok(get("quotas", []), _QUOTA_ROWS)
        and type(get("gone", [])) is list
        and _types(get("gone", [])) <= {str}
        and type(get("log_next_seq")) in (int, type(None))
        and type(get("log_base", 0)) is int
        and type(get("id_counter", 1)) is int
        and _str_map(get("api_calls", {"read": 0, "write": 0}), {int}, ("read", "write"))
        and _str_map(get("tokens", {}), {str})
    ):
        raise WorldFormatError(f"{where}: malformed plane section")


#: what a world file holds of a plane: the attributes
#: :func:`plane_from_dict` lands and :func:`_plane_section` writes, held
#: back on a deferred plane until one is read
PLANE_ATTRIBUTES = (
    "seed", "records", "log", "_next_id", "_id_gens", "quotas", "api_calls", "_tokens"
)


def plane_from_dict(plane: ControlPlane, data: Dict[str, Any]) -> None:
    """Land one plane section on a plane: a keyframe's on a freshly
    constructed one, a delta's on top of what the file held before.
    What :func:`_check_plane` passes lands without raising."""
    plane.seed = data.get("seed", plane.seed)
    for rid in data.get("gone", []):
        plane.records.pop(rid, None)
    for rec in data.get("records", []):
        plane.records[rec["id"]] = ResourceRecord.from_fields(rec, attrs=dict(rec["attrs"]))
    events = [
        ActivityEvent.from_fields(
            e, provider=plane.provider, changed_attrs=tuple(e.get("changed_attrs", ()))
        )
        for e in data.get("log", [])
    ]
    if events or data.get("log_next_seq") != plane.log.next_cursor:
        plane.log.extend(events, next_sequence=data.get("log_next_seq"))
    plane.log.compact(data.get("log_base", 0))
    plane._next_id = data.get("id_counter", 1)
    for g in data.get("id_gens", []):
        plane._id_gens[(g["rtype"], g["region"], g["name"])] = g["gen"]
    plane.quotas = {
        (q["rtype"], q["region"]): q["limit"] for q in data.get("quotas", [])
    }
    plane.api_calls = dict(data.get("api_calls", {"read": 0, "write": 0}))
    plane._tokens.update(data.get("tokens", {}))


def _engine_section(engine: CloudlessEngine) -> Dict[str, Any]:
    return {
        "seed": engine.seed,
        "clock": engine.clock.now,
        "executor": engine.executor_name,
        "validation_level": engine.validation_level,
        "last_sources": {
            fname: source_key(text) for fname, text in engine.last_sources.items()
        },
        "last_variables": engine.last_variables,
        # per-provider log-watch cursors (event sequences): a reloaded
        # world resumes tailing where it stopped instead of replaying
        # the whole activity log
        "watch_cursors": dict(engine.watch_cursors),
    }


def _sections(
    engine: CloudlessEngine, base: _Base, full: bool
) -> Iterator[Tuple[str, Any]]:
    """One commit's ``(name, value)`` sections: what changed since
    ``base`` was marked, or -- ``full``, a keyframe -- since nothing.
    Lazy, so a writer never holds more than one section's encoding."""
    section = _engine_section(engine)
    planes = engine.gateway.planes
    if not full and (
        engine.history is not base.history
        or {n for n, p in planes.items() if not p.deferred} != set(base.planes)
        or any(section[k] != base.engine_section[k] for k in _CONSTRUCTION)
    ):
        raise _NotADelta
    if full or section != base.engine_section:
        yield "engine", section
    for name, plane in sorted(planes.items()):
        if not full and plane.deferred:
            continue  # never read, so unchanged
        value = _plane_section(plane, None if full else base.planes[name])
        if value is not None:
            yield f"plane:{name}", value
    before = StateDocument() if full else base.state
    delta = doc_delta(before, engine.state)
    base.staged_record = base.record
    if (
        full
        or delta["set"]
        or delta["removed"]
        or "outputs" in delta
        or (delta["serial"], delta["lineage"]) != (before.serial, before.lineage)
    ):
        record = _plan_record(engine, base, None if full else delta)
        if record is not None:
            delta[_PLAN_RECORD] = record
        base.staged_record = _record_after(base.record, record)
        yield "state", delta
    texts = {source_key(text): text for text in engine.last_sources.values()}
    history = engine.history.export_records(
        engine.state, after=0 if full else base.history_last, texts=texts
    )
    if full or history:
        yield "history", history
    named = set(texts).union(*(item["sources"].values() for item in history))
    for key in named.difference(base.sources):
        base.sources[key] = _pack(texts[key])
    # only what is still named survives a keyframe
    fresh = named if full else named - base.stored
    #: what the file holds once this commit lands
    base.staged = fresh if full else base.stored | fresh
    if full or fresh:
        yield "sources", {key: base.sources[key] for key in sorted(fresh)}


def _plan_record(
    engine: CloudlessEngine, base: _Base, delta: Optional[Dict[str, Any]]
) -> Optional[Dict[str, Any]]:
    """The plan record for a commit that writes ``engine.state``
    (``delta``: against ``base.state``, when already computed), or
    ``None`` for none.

    A basis the engine holds for a cache artifact is a proof of its
    own: it vouches for the entries it found no-op that are still the
    state's own objects. An engine without one -- it never planned, or
    compiles without a cache -- carries the record it was loaded with:
    an entry this process did not move is still the entry that proof
    was about. Either way the record lists the managed addresses *not*
    vouched for, and is dropped once that is all of them."""
    entries = engine.state.entries_map()
    basis = engine._plan_basis
    if basis is not None and basis.artifact is not None:
        proof = {**basis.artifact, "data": basis.data_digest}
        noop = basis.noop
        unproven = {a for a, entry in entries.items() if noop.get(a) is not entry}
    elif not isinstance(base.record, str):
        proof = base.record
        if delta is None:
            delta = doc_delta(base.state, engine.state)
        unproven = set(proof["unproven"])
        unproven.update(item["address"] for item in delta["set"])
    else:
        return None
    managed = [a for a, entry in entries.items() if entry.address.mode == MANAGED]
    listed = sorted(unproven.intersection(managed))
    if len(listed) == len(managed):
        return None  # nothing proven
    return {**proof, "unproven": listed}


def _record_after(before: Any, written: Optional[Dict[str, Any]]) -> Any:
    """A file's plan record once a commit has written ``state`` with
    ``written`` as the field (``None``: without it)."""
    if written is not None:
        return written
    return "none" if before == "none" else "void"


def _read_plan_record(state: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """A ``state`` section's plan record, checked for shape (what it
    says is checked against the artifact, by the engine that wakes it)."""
    record = state.get(_PLAN_RECORD)
    if record is None:
        return None
    if not (
        isinstance(record, dict)
        and {"key", "source_sha", "data", "unproven"} <= record.keys()
        and isinstance(record["unproven"], list)
        and all(isinstance(address, str) for address in record["unproven"])
    ):
        raise WorldFormatError("malformed plan-basis record in a state section")
    return record


def _apply(engine: CloudlessEngine, base: _Base, sections: Dict[str, Any]) -> None:
    """Replay one commit's sections but its planes onto an engine; its
    last applied sources stay packed until :func:`_unpack_last_sources`."""
    base.sources.update(sections.get("sources", {}))
    state = sections.get("state")
    if state is not None:
        apply_doc_delta(engine.state, state)
        base.staged_record = _record_after(
            base.staged_record, _read_plan_record(state)
        )
    history = sections.get("history", [])
    for item in history:
        if not base.sources.keys() >= set(item["sources"].values()):
            raise WorldFormatError(
                f"snapshot v{item['version']} names a source file the world lacks"
            )
    engine.history.import_records(history, engine.state, base.source)
    section = sections.get("engine")
    if section is not None:
        engine.clock.advance_to(section["clock"])
        base.engine_section = section
        engine.last_variables = dict(section["last_variables"])
        engine.restore_watch_cursors(section["watch_cursors"])


def _unpack_last_sources(engine: CloudlessEngine, base: _Base) -> None:
    engine.last_sources = {
        fname: base.source(key)
        for fname, key in base.engine_section["last_sources"].items()
    }


def _new_engine(seed: Any, executor: Any, validation_level: Any) -> CloudlessEngine:
    """An engine as a world names it (:data:`_CONSTRUCTION`)."""
    if executor not in EXECUTOR_NAMES:
        raise WorldFormatError(
            f"unsupported world executor {executor!r} "
            f"(expected one of {sorted(EXECUTOR_NAMES)})"
        )
    return CloudlessEngine(
        seed=seed, executor=executor, validation_level=validation_level
    )


def engine_to_dict(engine: CloudlessEngine) -> Dict[str, Any]:
    """The whole world as one JSON-shaped value: a keyframe's sections."""
    return {"format": FORMAT_VERSION, **dict(_sections(engine, _base_of(engine), True))}


def _defer_plane(
    plane: ControlPlane, base: _Base, name: str, payloads: List[bytes], path: str
) -> None:
    """Keep a plane's checked sections, one per commit, encoded until
    the plane is first read; then replay them and mark the plane as the
    file holds it, for the next save to diff against."""

    def replay(plane: ControlPlane) -> None:
        PERF.count("persist.planes_replayed")
        try:
            for payload in payloads:
                plane_from_dict(plane, json.loads(payload))
        except _MALFORMED as exc:  # what the check at load let through
            raise WorldFormatError(f"{path}: malformed plane:{name}: {exc!r}") from exc
        if len(payloads) > 1 and list(plane.records) != sorted(plane.records):
            # the same world loads as the same plane however it was cut
            # into commits: records iterate in id order, as a keyframe's do
            records = sorted(plane.records.items())
            plane.records.clear()
            plane.records.update(records)
        base.planes[name] = _PlaneMark(plane)

    plane.defer(PLANE_ATTRIBUTES, replay)
    PERF.count("persist.planes_deferred")


def _refusal(data: bytes) -> WorldFormatError:
    """A ``{``-led file is a world of format 2 or older: one JSON
    document, which this program no longer reads."""
    try:
        version = json.loads(data).get("format")
    except (AttributeError, RecursionError, ValueError):
        version = None
    return WorldFormatError(
        f"unsupported world format {version!r} (expected {FORMAT_VERSION}; "
        "format 2 and older, one JSON document, are no longer read)"
    )


# -- frames ---------------------------------------------------------------------------


def _frame(kind: str, name: str, value: Any) -> bytes:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{MAGIC.decode()} {kind} {name} {len(payload)} {digest}\n"
    return header.encode("ascii") + payload + b"\n"


def _commit_frames(
    kind: str, sections: Iterable[Tuple[str, Any]], seq: int
) -> Iterator[bytes]:
    """The sections' frames, then the frame that makes them count: it
    names their headers, so a commit with one missing or swapped is void."""
    headers = hashlib.sha256()
    for name, value in sections:
        frame = _frame(kind, name, value)
        headers.update(frame[: frame.index(b"\n")])
        yield frame
    yield _frame("C", "commit", {"seq": seq, "headers": headers.hexdigest()})


def _read_frame(data: bytes, pos: int) -> Optional[Tuple[str, str, memoryview, int]]:
    """``(kind, name, payload, next offset)`` of the frame at ``pos``,
    or None when no intact frame starts there."""
    eol = data.find(b"\n", pos, pos + _MAX_HEADER)
    parts = data[pos:eol].split(b" ") if eol >= 0 else []
    if len(parts) != 5 or parts[0] != MAGIC or not parts[3].isdigit():
        return None
    end = eol + 1 + int(parts[3])
    # the length is outside input: checked against the bytes that are
    # there before anything is sliced or allocated
    if end >= len(data) or data[end : end + 1] != b"\n":
        return None
    payload = memoryview(data)[eol + 1 : end]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != parts[4]:
        return None
    try:
        return parts[1].decode("ascii"), parts[2].decode("ascii"), payload, end + 1
    except UnicodeDecodeError:
        return None


def _read_commits(
    data: bytes, path: str
) -> Tuple[List[Dict[str, memoryview]], List[int], bytes]:
    """Every complete commit's sections (still encoded), the offset past
    each, and the last one's commit frame. A damaged or uncommitted
    tail is dropped."""
    commits: List[Dict[str, memoryview]] = []
    ends: List[int] = []
    pending: List[Tuple[str, str, memoryview]] = []
    headers = hashlib.sha256()
    pos = 0
    tail = b""
    while pos < len(data):
        frame = _read_frame(data, pos)
        if frame is None:
            break
        kind, name, payload, after = frame
        if kind == "C":
            try:
                commit = json.loads(bytes(payload))
                valid = (
                    commit["seq"] == len(commits)
                    and commit["headers"] == headers.hexdigest()
                    and {k for k, _n, _p in pending} == {"D" if commits else "K"}
                )
            except (ValueError, KeyError, TypeError):
                valid = False
            if not valid:
                break
            commits.append({n: p for _k, n, p in pending})
            pending, headers = [], hashlib.sha256()
            ends.append(after)
            tail = data[pos:after]
        else:
            pending.append((kind, name, payload))
            headers.update(data[pos : data.index(b"\n", pos)])
        pos = after
    if pos < len(data):
        # a killed write leaves nothing readable behind the damage; an
        # intact frame further on means the file was damaged at rest
        probe = data.find(b"\n" + MAGIC + b" ", pos)
        while probe >= 0:
            if _read_frame(data, probe + 1) is not None:
                raise WorldFormatError(
                    f"{path}: damaged frame at byte {pos} is not at the tail"
                )
            probe = data.find(b"\n" + MAGIC + b" ", probe + 1)
        PERF.count("persist.torn_tail_recoveries")
    if not commits:
        raise WorldFormatError(f"{path}: not a world file (no complete keyframe)")
    return commits, ends, tail


# -- whole worlds -----------------------------------------------------------------------


def _write_keyframe(engine: CloudlessEngine, path: str) -> None:
    base = _base_of(engine)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        size, frame = 0, b""
        with os.fdopen(fd, "wb") as handle:
            for frame in _commit_frames("K", _sections(engine, base, True), 0):
                handle.write(frame)
                size += len(frame)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    base.committed(engine, path, 0, size, frame)
    PERF.count("persist.keyframe_writes")


def _compact(engine: CloudlessEngine, path: str) -> None:
    """The deltas outweigh their keyframe: apply retention, start over."""
    for name, plane in engine.gateway.planes.items():
        plane.log.compact(engine.watch_cursors.get(name, 0))
    engine.history.trim(HISTORY_RETENTION)
    _write_keyframe(engine, path)
    PERF.count("persist.compactions")


def _append(path: str, base: _Base, frames: List[bytes]) -> bool:
    """Append one commit, if the file still ends with the baseline's:
    same length, same last commit frame. Anything else -- another
    writer's commit, a torn tail, a replaced file -- is not this
    engine's file to extend."""
    try:
        with open(path, "r+b") as handle:
            if handle.seek(0, os.SEEK_END) != base.end:
                return False
            handle.seek(base.end - len(base.tail))
            if handle.read(len(base.tail)) != base.tail:
                return False
            handle.writelines(frames)
    except FileNotFoundError:
        return False
    return True


def save_world(engine: CloudlessEngine, path: str) -> None:
    """Persist ``engine`` at ``path``: a delta behind the commit it was
    loaded from (or last saved as), else a keyframe."""
    base = _base_of(engine)
    if base.path != os.path.realpath(path):
        return _write_keyframe(engine, path)
    # a save that dies half-way leaves a baseline nobody should trust
    base.path = None
    frames: List[bytes] = []
    size = 0
    try:
        for frame in _commit_frames("D", _sections(engine, base, False), base.seq + 1):
            frames.append(frame)
            size += len(frame)
            if size > base.budget:  # a cold apply finds out one section in
                return _compact(engine, path)
    except _NotADelta:
        return _write_keyframe(engine, path)
    if len(frames) == 1:  # a commit frame and nothing to commit
        base.path = os.path.realpath(path)
    elif _append(path, base, frames):
        base.committed(engine, path, base.seq + 1, base.end + size, frames[-1])
        PERF.count("persist.bytes_appended", size)
    else:
        _write_keyframe(engine, path)


def load_world(path: str) -> CloudlessEngine:
    """The engine the world file at ``path`` holds. Every frame is
    verified and every section decoded and checked here; a cloud plane
    is replayed when it is first read (module docstring)."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:1] == b"{":
        raise _refusal(data)
    try:
        commits, ends, tail = _read_commits(data, path)
        planes: Dict[str, List[bytes]] = {}
        for seq, frames in enumerate(commits):
            sections = {
                n: json.loads(bytes(p)) for n, p in frames.items() if not n.startswith("plane:")
            }
            if not seq:
                engine = _new_engine(**{k: sections["engine"][k] for k in _CONSTRUCTION})
                base = _base_of(engine)
            for name, payload in frames.items():
                if name.startswith("plane:") and name[6:] in engine.gateway.planes:
                    # a copy: the file's buffer goes once the load is done
                    kept = bytes(payload)
                    _check_plane(json.loads(kept), f"{path}: {name}")
                    planes.setdefault(name[6:], []).append(kept)
            _apply(engine, base, sections)
        _unpack_last_sources(engine, base)
    except WorldFormatError:
        raise
    except _MALFORMED as exc:
        raise WorldFormatError(f"{path}: malformed world record: {exc!r}") from exc
    for name, payloads in planes.items():
        _defer_plane(engine.gateway.planes[name], base, name, payloads, path)
    base.keyframe_end, base.staged = ends[0], set(base.sources)
    base.committed(engine, path, len(commits) - 1, ends[-1], tail)
    return engine
