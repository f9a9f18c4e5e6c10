"""The on-disk compiled-artifact store.

One artifact file per workload key, where the key is content-free --
sha256 over the sorted source *filenames* plus the variables and
schema fingerprints -- so an edited file maps to the *same* artifact
(and a partial hit reuses its unchanged chunk ASTs) while a different
workload, variable set, or provider catalog maps elsewhere.

An artifact is what one set of source texts compiled to: the
configuration and the graph and, when the verb that wrote it
validated, the verdict and the validation basis. It is kept the way a
world file is, a keyframe and deltas: a *blob*, the pickle of what one
compile parsed, then one *stamp* per later compile that parsed little
of its own. File layout (torn-write-safe)::

    {"version": 7, "variables_fp": ..., "schema_fp": ...,
     "source_sha": {filename: sha256}, "blob_sha": ..., "blob_len": N,
     "verdict": <validation outcome as JSON data, or null>,
     "header_sha": <sha256 of the other fields>}\n
    <N bytes: pickle of (config, graph, basis)>
    {"seq": 1, "blob_sha": ..., "source_sha": {filename: sha256},
     "verdict": ..., "reparsed": {"resources": [[mode, type, name], ...],
     "locals": [name, ...], "variables": [...], "providers": [...]},
     "stamp_sha": <sha256 of the other fields>}\n
    ... one line per later stamp, ``seq`` counting up

*Which part a store writes.* A blob, when the compile parsed more
chunks than it shares with the blob the file holds (a cold compile, a
miss, a blob that did not read, an edit that re-parsed most of the
program), when its stamp would make the stamps outweigh the blob, or
when its validation could not start from the blob's basis (a variable,
a local or the declared names moved): the basis it leaves is then the
one the next edit can start from. Any other storing compile -- the day-2 edit's partial hit -- appends a
stamp: the sources' digests, the verdict, and ``reparsed``, the
declarations, locals, variables and providers of the compile that are
not made of the blob's own parsed blocks
(:func:`repro.graph.impact.reparsed_since`: by identity, since a chunk
a re-parse reused *is* the blob's). A stamp is appended only to the
file as this cache last read or wrote it -- same header, same length,
same last stamp -- as a world delta is; another writer's stamp, a torn
tail or a replaced file make the store write a blob. A stamp is not
fsynced: losing one loses an exactness the next lookup then does not
claim, and nothing else.

*What a lookup reads.* The file stands for its last intact stamp, or
for its header when there is none. A stamp that does not check (seal,
sequence, blob digest, shape) with no intact stamp after it is the
tail of a killed append and is dropped, the world file's rule; with
one after it the file was damaged at rest, and is a miss. A lookup is
exact when the sources are the ones the file stands for, and the blob
is *fresh* when they are also the header's: ``config``, ``graph`` and
the verdict replay as they are. An exact hit by a stamp on a stale
blob replays the stamp's verdict; its ``config`` is the looked-up
texts parsed against the blob's chunk table, and the verb builds the
graph. A partial hit reuses the blob's chunks and hands on the last
stamp's ``reparsed`` (:attr:`CacheLookup.reparsed`): a plan basis
woken for it diffs against the blob's configuration and re-diffs those
names too, because the world's record is about the stamped sources and
they differ from the blob's in those names only
(``CloudlessEngine._wake_plan_basis``).

``basis`` is the :class:`repro.validate.pipeline.ValidationBasis` the
blob's writer's validation left (``None`` if it did not validate): per
declaration, the type stage's diagnostics and the instances' evaluated
attributes, with the variables and the pipeline they hold under. A
partial hit hands it to the next validation
(``CloudlessEngine._validation_scope``), which keeps an entry only
while its declaration is made of the very parsed objects the entry
was computed from -- tuples compared by identity first. A reused chunk
is such an object only if it came out of the same pickle as the
entry's parts, so the basis is in the config's pickle and not beside
it; a stamp carries none, and a block edited since the blob is
validated again by every later edit until a blob is written.

Every dataclass :data:`ARTIFACT_CLASSES` admits (the AST nodes,
declarations, lifecycle options, graph nodes, addresses, diagnostics,
table entries, the basis) is written as its class and its fields in
``__init__`` order, one :attr:`pickle.Pickler.dispatch_table` entry
each (:func:`_codec`), so one list says both what an artifact is made
of and how each part is written: no ``(None, {slot: value})`` state
per object, and none of the memos an object keeps beside its fields.

Everything that decides exact / partial / miss lives in the JSON
lines, so the decision is made from them and the blob's length and
digest alone: :meth:`CompileCache.load` unpickles nothing. It returns
a :class:`CacheLookup`, a facade whose ``config`` and ``graph``
unpickle the blob when first read, once. A verb that needs no node
never pays for it: a ``plan`` of entries the world's plan record
proves all no-op (``CloudlessEngine.plan``) answers from the stamp and
the state. A plan is never journaled: it depends on the state, which
every apply changes, so the next verb always re-plans against the
replayed graph.

The verdict is a field of the header and of each stamp, not a tier:
opaque JSON to this module, written and judged by
:class:`repro.validate.ValidationPipeline` (``verdict`` / ``replay``),
handed back on an exact hit only -- it is a function of the very bytes
``source_sha`` fingerprints, so it never outlives an edit. It sits
under the same seal as the rest of its line.

The blob is read as data. Its digest says the bytes are the ones the
header was written with, not who wrote them, and what they unpickle to
decides what a verb deploys -- and, through the engine's plan basis,
what a plan may skip. So it is read through an unpickler that admits
the classes an artifact is made of (:data:`ARTIFACT_CLASSES`: AST
nodes, declarations, spans, the graph and its contexts, the validation
table) and no other global, and the triple is type-checked.

The basis is trusted the way the verdict is: as data the program
wrote, used only where it holds. Its shape is checked when the blob is
read (:func:`_readable_basis`: a table of entries with tuple parts,
diagnostics or nothing, plain-data attributes, about this very
configuration); what is not that shape is :data:`UNREADABLE`, which
costs the next validation its scope (``validate.full.unreadable``)
and nothing else -- the chunks and the graph still serve. Whether a
readable basis still holds (same pipeline, variables, locals and
declared names) the engine decides, by the rules a resident engine
uses for its own.

A torn blob, header corruption, version skew, fingerprint drift or a
digest mismatch classifies as a miss (counted in
:attr:`CompileCache.corrupt_rejects`), never an error. So does a blob
that does not unpickle that way to a ``(Configuration, ResourceGraph,
basis)`` triple, found out when the facade is first read: the hit is
counted again as the miss it was (:class:`ArtifactUnreadable`), and
the verb compiles cold. Exactness is decided by whole-file sha256 --
same bytes parse to the same chunks, so there is no separate
chunk-fingerprint rescan on the hit path (the chunker is pure, and
chunker changes bump ``FORMAT_VERSION``; so does a change to the
pickled shape, the header or the stamps). Version 6 moved the blob to
``(config, graph, basis)`` written by fields, and version 7 added the
stamps, so a file of either earlier version is a counted miss,
replaced by the verb that reads it
(``tests/fixtures/artifact_v5_a3ccd4f.clcc``,
``tests/fixtures/artifact_v6_76331b4.clcc``). A chunker rewrite that
moves no boundary does not bump it: the compiled scanner that replaced
the per-character one reproduces its chunk tables
(``tests/golden/lang_corpus.json``), and what a version-5 file holds
is span for span what it parses today. Where the old chunker misread
a string (``$$${``) its table is coarser than today's, which costs a
later partial hit some reuse and nothing else: a chunk AST is looked
up by file, start line and text fingerprint.
"""
from __future__ import annotations

import copyreg
import dataclasses
import functools
import hashlib
import importlib
import io
import json
import operator
import os
import pickle
import tempfile
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from ..perf import PERF

FORMAT_VERSION = 7

#: artifact filename suffix (one workload key per file)
SUFFIX = ".clcc"

#: module -> the classes a blob may name (``None``: every class the
#: module defines). All of them are data: built from their fields, with
#: no ``__reduce__`` that calls out.
ARTIFACT_CLASSES: Dict[str, Optional[FrozenSet[str]]] = {
    "repro.lang.ast_nodes": None,
    "repro.lang.config": frozenset(
        {
            "Configuration",
            "LifecycleOptions",
            "ModuleCall",
            "OutputDecl",
            "ProviderConfig",
            "ResourceDecl",
            "VariableDecl",
            "VariableValidation",
        }
    ),
    # (a sink is empty here: a parse that left diagnostics builds no
    # graph; a diagnostic is one the type stage kept for a declaration)
    "repro.lang.diagnostics": frozenset(
        {"Diagnostic", "DiagnosticSink", "Severity", "SourceSpan"}
    ),
    "repro.lang.context": frozenset({"DeferredResolver", "ModuleContext"}),
    # a context keeps the loader its graph was built with: a root
    # directory or a table of texts (a loader class of the embedder's
    # own is not one of these, and its artifacts compile cold)
    "repro.lang.module_loader": frozenset(
        {"DictModuleLoader", "FileSystemModuleLoader", "NullModuleLoader"}
    ),
    "repro.graph.builder": frozenset({"ResourceGraph", "ResourceNode"}),
    "repro.graph.dag": frozenset({"Dag"}),
    "repro.addressing": frozenset({"ResourceAddress"}),
    # a declaration's ``depends_on``
    "repro.lang.references": frozenset({"Reference"}),
    # the validation basis: per declaration, its type diagnostics and
    # its instances' attributes (plain data, unknowns among them)
    "repro.validate.pipeline": frozenset({"ValidationBasis"}),
    "repro.types.checker": frozenset({"DeclEntry", "DeclTable"}),
    "repro.lang.values": frozenset({"Unknown"}),
}


def _by_fields(cls: type) -> Callable[[Any], Tuple[type, Tuple[Any, ...]]]:
    """How a dataclass of an artifact is written: its class and its
    fields in ``__init__`` order, which unpickle through ``cls(*fields)``
    -- no per-object dict of slot names, and nothing that is not a
    field (a declaration's reference memo, an address's text)."""
    names = [field.name for field in dataclasses.fields(cls)]
    if len(names) < 2:  # an attrgetter of one name returns no tuple
        raise TypeError(f"{cls.__qualname__}: give it a reduction of its own")
    get = operator.attrgetter(*names)
    return lambda obj: (cls, get(obj))


@functools.cache
def _codec() -> Dict[type, Callable[[Any], Any]]:
    """The pickler's dispatch table: every dataclass
    :data:`ARTIFACT_CLASSES` admits, written :func:`_by_fields`; the
    other classes (the configuration, the graph, the contexts, the
    table, spans) keep their own reduction."""
    table: Dict[type, Callable[[Any], Any]] = dict(copyreg.dispatch_table)
    for module, names in ARTIFACT_CLASSES.items():
        for name, cls in vars(importlib.import_module(module)).items():
            if (
                dataclasses.is_dataclass(cls)
                and isinstance(cls, type)
                and cls.__module__ == module
                and (names is None or name in names)
            ):
                table[cls] = _by_fields(cls)
    return table


class _ArtifactUnpickler(pickle.Unpickler):
    """Unpickles a blob that names :data:`ARTIFACT_CLASSES` only."""

    def find_class(self, module: str, name: str) -> Any:
        allowed = ARTIFACT_CLASSES.get(module, frozenset())
        if allowed is None or name in allowed:
            found = super().find_class(module, name)
            # a dotted name or a re-export reaches what is not a class
            # of that module
            if isinstance(found, type) and found.__module__ == module:
                return found
        raise pickle.UnpicklingError(f"{module}.{name} is not part of an artifact")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def variables_fingerprint(variables: Optional[Dict[str, Any]]) -> str:
    """Stable digest of the variable values a compile ran under."""
    try:
        blob = json.dumps(
            variables or {}, sort_keys=True, default=repr
        ).encode()
    except (TypeError, ValueError):
        blob = repr(sorted((variables or {}).items())).encode()
    return _sha(blob)


def schema_fingerprint(catalog: Any) -> str:
    """Digest of the provider catalog a compile resolved against (a
    :class:`repro.cloud.resources.Catalog`; a gateway's is
    ``gateway.catalog``).

    A schema change (new attribute, different id prefix, added
    provider) invalidates every artifact: the expanded graph bakes in
    spec-derived decisions, so replaying it against a different
    catalog would be silently wrong.
    """
    parts: List[str] = []
    for provider in sorted(catalog.specs):
        specs = catalog.specs[provider]
        for rtype in sorted(specs):
            parts.append(f"{provider}|{rtype}|{specs[rtype].signature()}")
    return _sha("\n".join(parts).encode())


def source_shas(sources: Dict[str, str]) -> Dict[str, str]:
    """filename -> sha256 of the full source text (the exactness test)."""
    return {fname: _sha(text.encode()) for fname, text in sources.items()}


def _header_sha(fields: Dict[str, Any]) -> str:
    return _sha(json.dumps(fields, sort_keys=True).encode())


#: the tables a stamp's ``reparsed`` names entries of
#: (:meth:`repro.graph.impact.ConfigDelta.names`)
NAME_TABLES = ("resources", "locals", "variables", "providers")
#: ``reparsed`` of a header: the blob is what it stands for
_NOTHING_REPARSED: Dict[str, list] = {table: [] for table in NAME_TABLES}


def _sealed(line: bytes) -> Optional[Dict[str, Any]]:
    """A stamp line's fields, if it parses and its seal matches."""
    try:
        stamp = json.loads(line)
    except ValueError:
        return None
    if not isinstance(stamp, dict):
        return None
    claimed = stamp.pop("stamp_sha", None)
    return stamp if claimed == _header_sha(stamp) else None


def _stamp_of(stamp: Optional[Dict[str, Any]], blob_sha: str, seq: int) -> bool:
    """Whether sealed fields are stamp ``seq`` of this blob, in shape."""
    if stamp is None or stamp.get("blob_sha") != blob_sha:
        return False
    shas, names = stamp.get("source_sha"), stamp.get("reparsed")
    return (
        type(stamp.get("seq")) is int
        and stamp["seq"] == seq
        and type(shas) is dict
        and type(names) is dict
        and names.keys() == set(NAME_TABLES)
        and all(type(names[table]) is list for table in NAME_TABLES)
        and all(
            type(key) is list and len(key) == 3 and all(type(p) is str for p in key)
            for key in names["resources"]
        )
        and all(type(name) is str for table in NAME_TABLES[1:] for name in names[table])
    )


def _stamps(data: bytes, blob_sha: str) -> Optional[List[Tuple[Dict[str, Any], bytes]]]:
    """The intact stamps ``data`` (what follows the blob) starts with,
    each with its line; ``None`` when a damaged one has an intact one
    after it -- a killed append leaves nothing readable behind it, so
    that file was damaged at rest."""
    out: List[Tuple[Dict[str, Any], bytes]] = []
    lines = data.split(b"\n")
    # the last piece is what follows the last newline: empty unless torn
    for at, line in enumerate(lines[:-1]):
        stamp = _sealed(line)
        if not _stamp_of(stamp, blob_sha, len(out) + 1):
            if any(_sealed(later) is not None for later in lines[at + 1 :]):
                return None
            break
        assert stamp is not None
        out.append((stamp, line + b"\n"))
    return out


def _readable_basis(basis: Any, config: Any) -> bool:
    """Whether the third part of a blob is a validation basis this
    program could have written about ``config``: data in the shape
    :class:`repro.validate.pipeline.ValidationBasis` has, or ``None``.
    Whether it still *holds* is the engine's question
    (``CloudlessEngine._validation_scope``), asked of a basis that
    passed this one."""
    if basis is None:
        return True
    from ..lang.diagnostics import Diagnostic, Severity, SourceSpan
    from ..lang.values import is_plain
    from ..types.checker import DeclEntry, DeclTable
    from ..validate.pipeline import ValidationBasis

    def diagnostic(item: Any) -> bool:
        return (
            type(item) is Diagnostic
            and type(item.severity) is Severity
            and all(
                type(text) is str for text in (item.message, item.code, item.detail)
            )
            and (item.span is None or type(item.span) is SourceSpan)
        )

    table = getattr(basis, "table", None)
    if not (
        type(basis) is ValidationBasis
        and basis.config is config
        and type(basis.variables) is dict
        and type(basis.pipeline) is dict
        and type(table) is DeclTable
        and type(table.entries) is dict
    ):
        return False
    for entry in table.entries.values():
        if type(entry) is not DeclEntry or type(entry.parts) is not tuple:
            return False
        types = entry.types
        if types is not None and not (
            type(types) is tuple and all(diagnostic(item) for item in types)
        ):
            return False
        if not is_plain(entry._attrs):
            return False
    return True


#: :attr:`CacheLookup.basis` of a blob whose third part is not a
#: validation basis
UNREADABLE = "unreadable"


class ArtifactUnreadable(ValueError):
    """A hit's blob did not unpickle to an artifact when first read: it
    was a miss after all, and counts as one."""


class _Tip:
    """An artifact file as this cache last read or wrote it: what a
    stamp may be appended to, and what the file stands for."""

    __slots__ = ("header", "blob_sha", "blob_len", "end", "last", "seq", "now", "config")

    def __init__(
        self, header: bytes, blob_sha: str, blob_len: int, stamps: List[bytes], now: Dict[str, Any]
    ):
        #: the header line, newline included
        self.header = header
        self.blob_sha = blob_sha
        self.blob_len = blob_len
        #: the file's length
        self.end = len(header) + blob_len + sum(map(len, stamps))
        #: the last stamp's line (``b""``: none) and how many there are
        self.last = stamps[-1] if stamps else b""
        self.seq = len(stamps)
        #: ``{"source_sha", "verdict", "reparsed"}`` of the last stamp, or
        #: of the header (nothing re-parsed)
        self.now = now
        #: the blob's configuration, once read or written
        self.config: Any = None


class CacheLookup:
    """Outcome of :meth:`CompileCache.load`: a facade over the artifact
    whose ``config``, ``graph`` and ``basis`` are unpickled when first
    read.

    ``kind`` is ``"exact"`` (every file byte-identical to what the
    artifact stands for: ``config``, ``graph`` *and* the recorded
    ``verdict`` replay) or ``"partial"`` (something changed: only
    ``config``'s chunk-AST table is reusable, via
    ``Configuration.parse_streaming(reuse=...)``, ``basis`` says what
    the blob's writer's validation computed of it, and ``reparsed``
    what the artifact's sources may differ from the blob's in).
    On an exact hit by a stamp over a stale blob, ``config`` is the
    looked-up texts parsed against the blob's and ``graph`` is
    ``None``: the verb builds it.
    Reading any of the three raises :class:`ArtifactUnreadable` if the
    blob is not an artifact's.
    """

    def __init__(
        self,
        kind: str,
        blob: bytes,
        verdict: Any = None,
        artifact: Optional[Dict[str, Any]] = None,
        cache: Optional["CompileCache"] = None,
        tip: Optional[_Tip] = None,
        texts: Optional[Dict[str, str]] = None,
    ):
        self.kind = kind
        self._blob: Optional[bytes] = blob
        #: ``(config, graph)`` once unpickled
        self._objects: Optional[Tuple[Any, Any]] = None
        #: the validation basis once unpickled, ``None``, or
        #: :data:`UNREADABLE`
        self._basis: Any = None
        #: who counts the hit a miss if the blob does not read
        self._cache = cache
        #: the file read, which learns the blob's configuration
        self._tip = tip
        #: the texts of an exact hit the blob does not hold
        self._texts = texts
        #: the verdict the artifact recorded as read (untrusted JSON);
        #: ``None`` when its writer never validated, or on a partial hit
        self.verdict = verdict
        #: which artifact this is: ``{"key": its workload key,
        #: "source_sha": the per-file digests it stands for}``
        self.artifact = artifact
        #: the names of :data:`NAME_TABLES` those sources may differ
        #: from the blob's in (its last stamp's ``reparsed``)
        self.reparsed: Dict[str, list] = (
            tip.now["reparsed"] if tip is not None else _NOTHING_REPARSED
        )

    @property
    def exact(self) -> bool:
        return self.kind == "exact"

    @property
    def fresh(self) -> bool:
        """Whether the blob holds the very texts this hit stands for."""
        return self._texts is None

    @property
    def config(self) -> Any:
        return self._read()[0]

    @property
    def graph(self) -> Any:
        return self._read()[1]

    @property
    def basis(self) -> Any:
        """The :class:`repro.validate.pipeline.ValidationBasis` the
        blob's writer's validation left, its ``config`` the blob's;
        ``None`` when the writer did not validate; :data:`UNREADABLE`
        when the part is not one (the configuration and graph still
        serve)."""
        self._read()
        return self._basis

    def _read(self) -> Tuple[Any, Any]:
        if self._objects is None:
            if self._blob is None:
                raise ArtifactUnreadable("compile-cache blob already refused")
            try:
                self._materialize()
            except Exception as exc:
                # unpicklable bytes, classes no artifact is made of, not
                # a (config, graph, basis) triple: all of it is just a
                # cold build
                self._blob = None
                if self._cache is not None:
                    self._cache._reject_late(self.kind)
                raise ArtifactUnreadable(str(exc)) from exc
            assert self._objects is not None
            if self._tip is not None and self._basis is not UNREADABLE:
                # a stamp may go over it (one whose basis is not one is
                # replaced by the next store, with the basis it leaves)
                self._tip.config = self._objects[0]
            if self._texts is not None:
                # stamped texts: what they share with the blob is reused
                from ..lang.config import Configuration

                config = Configuration.parse_streaming(
                    self._texts, reuse=self._objects[0]
                )
                self._objects = (config, None)
        assert self._objects is not None
        return self._objects

    def _materialize(self) -> None:
        """Unpickle the digest-checked blob (O(estate)), as data; the
        first read of ``config``, ``graph`` or ``basis`` runs this, once."""
        assert self._blob is not None
        objects = _ArtifactUnpickler(io.BytesIO(self._blob)).load()
        self._blob = None  # the bytes are no longer needed
        from ..graph.builder import ResourceGraph
        from ..lang.config import Configuration

        if not (
            isinstance(objects, tuple)
            and len(objects) == 3
            and isinstance(objects[0], Configuration)
            and isinstance(objects[1], ResourceGraph)
        ):
            raise ValueError(
                "corrupt compile-cache blob: expected a (config, graph, basis) triple"
            )
        config, graph, basis = objects
        try:
            readable = _readable_basis(basis, config)
        except Exception:  # a part with no such attribute, say
            readable = False
        self._objects = (config, graph)
        # a basis that is not one costs the next validation its scope,
        # never the chunks and the graph
        self._basis = basis if readable else UNREADABLE


class CompileCache:
    """Content-addressed, versioned, torn-write-safe artifact store."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        # perf counters (benchmarks and tests read these)
        self.exact_hits = 0
        self.partial_hits = 0
        self.misses = 0
        #: blobs written plus stamps appended
        self.stores = 0
        self.blob_writes = 0
        self.stamps = 0
        self.corrupt_rejects = 0
        #: artifact path -> the file as this cache last read or wrote it
        self._tips: Dict[str, _Tip] = {}

    # -- keys ----------------------------------------------------------------

    def key_for(
        self,
        sources: Dict[str, str],
        variables_fp: str,
        schema_fp: str,
    ) -> str:
        ident = "|".join(sorted(sources)) + "|" + variables_fp + "|" + schema_fp
        return _sha(ident.encode())[:32]

    def path_for(
        self,
        sources: Dict[str, str],
        variables_fp: str,
        schema_fp: str,
    ) -> str:
        return os.path.join(
            self.cache_dir, self.key_for(sources, variables_fp, schema_fp) + SUFFIX
        )

    # -- load ----------------------------------------------------------------

    def load(
        self,
        sources: Dict[str, str],
        variables_fp: str,
        schema_fp: str,
    ) -> Optional[CacheLookup]:
        """Look the workload up; ``None`` means cold build."""
        path = self.path_for(sources, variables_fp, schema_fp)
        self._tips.pop(path, None)
        try:
            with open(path, "rb") as fh:
                line = fh.readline()
                header = self._checked_header(line, variables_fp, schema_fp)
                if header is None:
                    return self._reject()
                blob = fh.read(header["blob_len"])
                rest = fh.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            return self._reject()
        if len(blob) != header["blob_len"] or _sha(blob) != header["blob_sha"]:
            return self._reject()
        stamps = _stamps(rest, header["blob_sha"])
        if stamps is None:
            return self._reject()
        now = stamps[-1][0] if stamps else {**header, "reparsed": _NOTHING_REPARSED}
        tip = _Tip(
            line,
            header["blob_sha"],
            len(blob),
            [stamped for _s, stamped in stamps],
            {field: now[field] for field in ("source_sha", "verdict", "reparsed")},
        )
        self._tips[path] = tip
        shas = source_shas(sources)
        exact = now["source_sha"] == shas
        if exact:
            self.exact_hits += 1
        else:
            self.partial_hits += 1
        return CacheLookup(
            "exact" if exact else "partial",
            blob,
            verdict=now["verdict"] if exact else None,
            artifact={
                "key": self.key_for(sources, variables_fp, schema_fp),
                "source_sha": now["source_sha"],
            },
            cache=self,
            tip=tip,
            texts=dict(sources) if exact and header["source_sha"] != shas else None,
        )

    def _reject(self) -> None:
        self.corrupt_rejects += 1
        self.misses += 1
        return None

    def _reject_late(self, kind: str) -> None:
        """A hit of ``kind`` whose blob did not read: a miss after all."""
        if kind == "exact":
            self.exact_hits -= 1
        else:
            self.partial_hits -= 1
        self._reject()

    @staticmethod
    def _checked_header(
        line: bytes, variables_fp: str, schema_fp: str
    ) -> Optional[Dict[str, Any]]:
        """Parse the header line; ``None`` unless it is ours, intact
        (its own digest covers the per-file sha table, so a flipped
        byte cannot redirect classification) and for these
        fingerprints."""
        try:
            header = json.loads(line)
        except ValueError:
            return None
        if not isinstance(header, dict):
            return None
        claimed = header.pop("header_sha", None)
        if (
            header.get("version") != FORMAT_VERSION
            or claimed != _header_sha(header)
            or header.get("variables_fp") != variables_fp
            or header.get("schema_fp") != schema_fp
            or type(header.get("blob_len")) is not int
            or header["blob_len"] < 0
        ):
            return None
        return header

    # -- store ---------------------------------------------------------------

    def store(
        self,
        sources: Dict[str, str],
        variables_fp: str,
        schema_fp: str,
        config: Any,
        graph: Any,
        verdict: Any = None,
        basis: Any = None,
        rebase: bool = False,
    ) -> bool:
        """Journal one compile (``verdict``: JSON data; ``basis``: the
        validation's :class:`repro.validate.pipeline.ValidationBasis`
        about ``config``): a stamp when ``config`` is made mostly of the
        chunks of the blob the file holds, else -- or with ``rebase``,
        a ``basis`` that did not start from the blob's -- a fresh blob
        (module docstring). Returns False if nothing could be written
        (the cache is strictly best-effort)."""
        path = self.path_for(sources, variables_fp, schema_fp)
        now = {"source_sha": source_shas(sources), "verdict": verdict}
        tip = self._tips.get(path)
        if not rebase and tip is not None and tip.config is not None:
            if self._stamp(path, tip, config, now):
                return True
        return self._write_blob(path, config, graph, basis, now, variables_fp, schema_fp)

    def _stamp(self, path: str, tip: _Tip, config: Any, now: Dict[str, Any]) -> bool:
        """Append ``now`` as a stamp over ``tip``'s blob, if ``config``
        parsed no more chunks than it shares with it, the stamps do not
        come to outweigh it, and the file is still as ``tip`` has it."""
        chunks, blob_chunks = config._chunk_asts, tip.config._chunk_asts
        reparsed = sum(blob_chunks.get(key) is not ast for key, ast in chunks.items())
        if reparsed > len(chunks) - reparsed:
            return False  # most of the program is not the blob's
        from ..graph.impact import reparsed_since

        now["reparsed"] = reparsed_since(tip.config, config).names()
        if now == tip.now:
            return True  # the file says so already
        stamp = {"seq": tip.seq + 1, "blob_sha": tip.blob_sha, **now}
        stamp["stamp_sha"] = _header_sha(stamp)
        line = (json.dumps(stamp, sort_keys=True) + "\n").encode()
        if tip.end - len(tip.header) - tip.blob_len + len(line) > tip.blob_len:
            return False  # the stamps would outweigh the blob
        try:
            with open(path, "r+b") as fh:
                if (
                    os.fstat(fh.fileno()).st_size != tip.end
                    or fh.read(len(tip.header)) != tip.header
                ):
                    return False
                fh.seek(tip.end - len(tip.last))
                if fh.read(len(tip.last)) != tip.last:
                    return False
                fh.seek(tip.end)
                fh.write(line)
        except OSError:
            return False
        tip.end += len(line)
        tip.last, tip.seq, tip.now = line, tip.seq + 1, now
        self.stores += 1
        self.stamps += 1
        PERF.count("compilecache.stamps")
        return True

    def _write_blob(
        self,
        path: str,
        config: Any,
        graph: Any,
        basis: Any,
        now: Dict[str, Any],
        variables_fp: str,
        schema_fp: str,
    ) -> bool:
        self._tips.pop(path, None)
        buffer = io.BytesIO()
        try:
            pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
            pickler.dispatch_table = _codec()
            pickler.dump((config, graph, basis))
        except Exception:
            return False
        blob = buffer.getvalue()
        header: Dict[str, Any] = {
            "version": FORMAT_VERSION,
            "variables_fp": variables_fp,
            "schema_fp": schema_fp,
            "source_sha": now["source_sha"],
            "blob_sha": _sha(blob),
            "blob_len": len(blob),
            "verdict": now["verdict"],
        }
        header["header_sha"] = _header_sha(header)
        line = (json.dumps(header, sort_keys=True) + "\n").encode()
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(line)
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        tip = _Tip(line, header["blob_sha"], len(blob), [], {**now, "reparsed": _NOTHING_REPARSED})
        tip.config = config
        self._tips[path] = tip
        self.stores += 1
        self.blob_writes += 1
        PERF.count("compilecache.blob_writes")
        return True
