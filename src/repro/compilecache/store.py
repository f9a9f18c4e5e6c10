"""The on-disk compiled-artifact store.

One artifact file per workload key, where the key is content-free --
sha256 over the sorted source *filenames* plus the variables and
schema fingerprints -- so an edited file maps to the *same* artifact
(and a partial hit reuses its unchanged chunk ASTs) while a different
workload, variable set, or provider catalog maps elsewhere.

An artifact is what one set of source texts compiled to: the
``(config, graph)`` pair and, when the verb that wrote it validated,
the verdict. File layout (torn-write-safe, modelled on the state
journal)::

    {"version": 5, "variables_fp": ..., "schema_fp": ...,
     "source_sha": {filename: sha256}, "blob_sha": ..., "blob_len": N,
     "verdict": <validation outcome as JSON data, or null>,
     "header_sha": <sha256 of the other fields>}\n
    <N bytes: pickle of (config, graph)>

Everything that decides exact / partial / miss lives in the JSON
header line, so the decision is made before anything is unpickled; the
blob is then length- and digest-checked and unpickled once. A plan is
never journaled: it depends on the state, which every apply changes,
so the next verb always re-plans against the replayed graph.

The verdict is a header field, not a tier: opaque JSON to this module,
written and judged by :class:`repro.validate.ValidationPipeline`
(``verdict`` / ``replay``), handed back on an exact hit only -- it is a
function of the very bytes ``source_sha`` fingerprints, so it never
outlives an edit. It sits under the same ``header_sha`` as the rest.

The blob is read as data. Its digest says the bytes are the ones the
header was written with, not who wrote them, and what they unpickle to
decides what a verb deploys -- and, through the engine's plan basis,
what a plan may skip. So it is read through an unpickler that admits
the classes an artifact is made of (:data:`ARTIFACT_CLASSES`: AST
nodes, declarations, spans, the graph and its contexts) and no other
global, and the pair is type-checked.

A torn tail, header corruption, version skew, fingerprint drift, a
digest mismatch on either part, or a blob that does not unpickle that
way to a ``(Configuration, ResourceGraph)`` pair classifies as a miss
(counted in :attr:`CompileCache.corrupt_rejects`), never an error.
Exactness is
decided by whole-file sha256 -- same bytes parse to the same chunks,
so there is no separate chunk-fingerprint rescan on the hit path (the
chunker is pure, and chunker changes bump ``FORMAT_VERSION``; so does
a change to the pickled shape or the header -- version 5 adds the
verdict field and the resolver slot's generation). A chunker rewrite
that moves no boundary does not: the compiled scanner that replaced
the per-character one reproduces its chunk tables
(``tests/golden/lang_corpus.json``) and still serves its artifacts
(``tests/fixtures/artifact_v5_a3ccd4f.clcc``). Where the old chunker
misread a string (``$$${``) its table is coarser than today's, which
costs a later partial hit some reuse and nothing else: a chunk AST is
looked up by file, start line and text fingerprint.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import tempfile
from typing import Any, Dict, FrozenSet, List, Optional

FORMAT_VERSION = 5

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
    # (a sink is empty here: a parse that left diagnostics builds no graph)
    "repro.lang.diagnostics": frozenset({"DiagnosticSink", "SourceSpan"}),
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
}


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


def schema_fingerprint(gateway: Any) -> str:
    """Digest of the provider catalogs a compile resolved against.

    A schema change (new attribute, different id prefix, added
    provider) invalidates every artifact: the expanded graph bakes in
    spec-derived decisions, so replaying it against a different
    catalog would be silently wrong.
    """
    parts: List[str] = []
    for provider in sorted(gateway.planes):
        plane = gateway.planes[provider]
        for rtype in sorted(plane.specs):
            parts.append(f"{provider}|{rtype}|{plane.specs[rtype].signature()}")
    return _sha("\n".join(parts).encode())


def source_shas(sources: Dict[str, str]) -> Dict[str, str]:
    """filename -> sha256 of the full source text (the exactness test)."""
    return {fname: _sha(text.encode()) for fname, text in sources.items()}


def _header_sha(fields: Dict[str, Any]) -> str:
    return _sha(json.dumps(fields, sort_keys=True).encode())


class CacheLookup:
    """Outcome of :meth:`CompileCache.load`.

    ``kind`` is ``"exact"`` (every file byte-identical: ``config``,
    ``graph`` *and* the recorded ``verdict`` replay as-is) or
    ``"partial"`` (something changed: only ``config``'s chunk-AST table
    is reusable, via ``Configuration.parse_streaming(reuse=...)``).
    """

    def __init__(
        self,
        kind: str,
        blob: bytes,
        verdict: Any = None,
        artifact: Optional[Dict[str, Any]] = None,
    ):
        self.kind = kind
        self._blob: Optional[bytes] = blob
        self.config: Any = None
        self.graph: Any = None
        #: the header's verdict field as read (untrusted JSON); ``None``
        #: when the writer never validated, or on a partial hit
        self.verdict = verdict
        #: which artifact this is: ``{"key": its workload key,
        #: "source_sha": its header's per-file digests}`` -- the texts
        #: ``config`` was parsed from (on an exact hit, the ones looked up)
        self.artifact = artifact

    @property
    def exact(self) -> bool:
        return self.kind == "exact"

    def _materialize(self) -> None:
        """Unpickle the digest-checked blob (O(estate)), as data; ``load``
        runs this once per hit, so a blob that is not an artifact's
        reads as a miss."""
        assert self._blob is not None
        objects = _ArtifactUnpickler(io.BytesIO(self._blob)).load()
        self._blob = None  # the bytes are no longer needed
        from ..graph.builder import ResourceGraph
        from ..lang.config import Configuration

        if not (
            isinstance(objects, tuple)
            and len(objects) == 2
            and isinstance(objects[0], Configuration)
            and isinstance(objects[1], ResourceGraph)
        ):
            raise ValueError(
                "corrupt compile-cache blob: expected a (config, graph) pair"
            )
        self.config, self.graph = objects


class CompileCache:
    """Content-addressed, versioned, torn-write-safe artifact store."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)
        # perf counters (benchmarks and tests read these)
        self.exact_hits = 0
        self.partial_hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_rejects = 0

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
        try:
            with open(path, "rb") as fh:
                header = self._checked_header(
                    fh.readline(), variables_fp, schema_fp
                )
                blob = fh.read() if header is not None else b""
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            return self._reject()
        if (
            header is None
            or len(blob) != header.get("blob_len")
            or _sha(blob) != header.get("blob_sha")
        ):
            return self._reject()
        exact = header.get("source_sha") == source_shas(sources)
        lookup = CacheLookup(
            "exact" if exact else "partial",
            blob,
            verdict=header.get("verdict") if exact else None,
            artifact={
                "key": self.key_for(sources, variables_fp, schema_fp),
                "source_sha": header.get("source_sha"),
            },
        )
        try:
            lookup._materialize()
        except Exception:
            # unpicklable bytes, classes no artifact is made of, not a
            # (config, graph) pair: all of it is just a cold build
            return self._reject()
        if exact:
            self.exact_hits += 1
        else:
            self.partial_hits += 1
        return lookup

    def _reject(self) -> None:
        self.corrupt_rejects += 1
        self.misses += 1
        return None

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
    ) -> bool:
        """Journal one compile (``verdict``: JSON data, see the module
        docstring). Returns False if anything refused to pickle (the
        cache is strictly best-effort)."""
        try:
            blob = pickle.dumps(
                (config, graph), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:
            return False
        header: Dict[str, Any] = {
            "version": FORMAT_VERSION,
            "variables_fp": variables_fp,
            "schema_fp": schema_fp,
            "source_sha": source_shas(sources),
            "blob_sha": _sha(blob),
            "blob_len": len(blob),
            "verdict": verdict,
        }
        header["header_sha"] = _header_sha(header)
        path = self.path_for(sources, variables_fp, schema_fp)
        fd, tmp = tempfile.mkstemp(
            dir=self.cache_dir, prefix=".tmp-", suffix=SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
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
        self.stores += 1
        return True
