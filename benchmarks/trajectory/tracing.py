"""Spans recorded from outside the program, around one table of seams.

The benchmark owns all instrumentation: :class:`Tracer` swaps each
callable named in :data:`SEAMS` for a timing wrapper, keeps the spans in
memory, and puts the originals back on :meth:`Tracer.restore`. Nothing
under ``src/`` knows it is being measured.

A span is ``(id, parent, name, start, end, attrs)``; times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC, so spans recorded in a
``python -m repro`` child line up with the parent's). The current span
lives in a ``ContextVar``: each asyncio task and each pool thread has
its own, so interleaved coroutines cannot adopt each other's children.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, Optional[Dict[str, Any]]]

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "trajectory_span", default=0
)


class SeamError(RuntimeError):
    """The seam table no longer matches the program (or a wrapper leaked)."""


@dataclasses.dataclass(frozen=True)
class Seam:
    """One wrapped callable.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"`` and names
    the callable where it is *looked up at call time*: a function bound
    by ``from x import f`` is patched in the importing module, because
    patching ``x.f`` would never be seen. ``before(*args)`` and
    ``after(result, *args)`` return counts to attach to the span.
    """

    layer: str
    name: str
    target: str
    generator: bool = False
    before: Optional[Callable[..., Dict[str, Any]]] = None
    after: Optional[Callable[..., Dict[str, Any]]] = None


# -- probes: counts taken at the same seams as the times ----------------------


def _file_bytes(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _cache_load_outcome(lookup, *_args) -> Dict[str, Any]:
    return {"outcome": "miss" if lookup is None else lookup.kind}


def _cache_store_bytes(_stored, cache, sources, variables_fp, schema_fp, *_a):
    return {"bytes": _file_bytes(cache.path_for(sources, variables_fp, schema_fp))}


def _plan_changes(plan, *_args) -> Dict[str, Any]:
    summary = plan.summary()
    return {
        "changes": sum(
            summary.get(k, 0) for k in ("create", "update", "replace", "delete")
        )
    }


def _apply_outcome(result, *_args) -> Dict[str, Any]:
    return {"ops": len(result.operations), "sim_makespan_s": result.makespan_s}


def _cycle_outcome(cycle, *_args) -> Dict[str, Any]:
    calls = cycle.run.api_calls
    if cycle.report is not None:
        calls += cycle.report.api_calls
    return {"findings": len(cycle.findings), "api_calls": calls}


SEAMS: Tuple[Seam, ...] = (
    Seam("cli", "cli.main", "repro.cli:main"),
    # persist: patched in the two modules that call it
    Seam("persist", "persist.load", "repro.cli:load_world"),
    Seam("persist", "persist.save", "repro.cli:save_world"),
    Seam("persist", "persist.load", "repro.service.tenants:load_world"),
    Seam("persist", "persist.save", "repro.service.tenants:save_world"),
    Seam("lang", "lang.parse", "repro.lang.config:Configuration.parse_streaming"),
    Seam("lang", "lang.chunk", "repro.lang.config:iter_chunks", generator=True),
    Seam("lang", "lang.parse_file", "repro.lang.config:parse_file"),
    Seam(
        "validate",
        "validate.validate",
        "repro.validate.pipeline:ValidationPipeline.validate",
        after=lambda report, *_a: {"diagnostics": len(report.diagnostics)},
    ),
    # the rules stage builds its own graph: same layer, second use site
    Seam("graph", "graph.build", "repro.core.engine:build_graph"),
    Seam("graph", "graph.build", "repro.validate.rules:build_graph"),
    Seam("graph", "graph.data_read", "repro.core.engine:read_data_sources"),
    Seam("graph", "graph.plan", "repro.graph.plan:Planner.plan", after=_plan_changes),
    Seam(
        "policy",
        "policy.admit",
        "repro.policy.controller:InfrastructureController.admit",
    ),
    Seam(
        "deploy",
        "deploy.execute",
        "repro.deploy.executor:PlanExecutor.apply",
        after=_apply_outcome,
    ),
    Seam("deploy", "deploy.wal", "repro.deploy.wal:IntentJournal.begin_run"),
    Seam("deploy", "deploy.wal", "repro.deploy.wal:IntentJournal.log_intent"),
    Seam("deploy", "deploy.wal", "repro.deploy.wal:IntentJournal.log_commit"),
    Seam(
        "deploy",
        "deploy.wal",
        "repro.deploy.wal:IntentJournal.mark_clean",
        # the journal is emptied by this call: size it on the way in
        before=lambda journal: {"bytes": _file_bytes(journal.path)},
    ),
    Seam("deploy", "deploy.wal", "repro.deploy.wal:IntentJournal.close"),
    Seam(
        "cloud",
        "cloud.submit",
        "repro.cloud.gateway:CloudGateway.submit",
        after=lambda op, *_a: {"throttled": int(op.t_start > op.t_submit)},
    ),
    Seam("cloud", "cloud.submit", "repro.cloud.resilience:ResilientGateway.execute_on"),
    Seam("state", "state.to_json", "repro.state.document:StateDocument.to_json"),
    Seam("state", "state.copy", "repro.state.document:StateDocument.copy"),
    Seam("state", "state.checkpoint", "repro.state.snapshots:SnapshotHistory.checkpoint"),
    Seam(
        "state",
        "state.store_write",
        "repro.state.store:JournalStateStore.write",
        after=lambda _r, store, *_a: {"bytes": _file_bytes(store.journal_path)},
    ),
    Seam(
        "compilecache",
        "compilecache.load",
        "repro.compilecache.store:CompileCache.load",
        after=_cache_load_outcome,
    ),
    Seam(
        "compilecache",
        "compilecache.store",
        "repro.compilecache.store:CompileCache.store",
        after=_cache_store_bytes,
    ),
    # private, on purpose: an exact hit is a lazy facade, and without
    # this seam its O(estate) unpickle is billed to whichever layer
    # touches the facade first (usually validate)
    Seam(
        "compilecache",
        "compilecache.materialize",
        "repro.compilecache.store:CacheLookup._materialize",
    ),
    Seam("core", "core.apply", "repro.core.engine:CloudlessEngine.apply"),
    Seam("core", "core.plan", "repro.core.engine:CloudlessEngine.plan"),
    Seam("core", "core.validate", "repro.core.engine:CloudlessEngine.validate"),
    Seam("core", "core.watch", "repro.core.engine:CloudlessEngine.watch"),
    Seam("core", "core.watch", "repro.core.engine:CloudlessEngine.watch_continuously"),
    Seam(
        "drift",
        "drift.tail",
        "repro.drift.detector:LogWatchDetector.tail",
        after=lambda r, *_a: {"events": sum(len(v) for v in r[0].values())},
    ),
    Seam(
        "drift",
        "drift.poll",
        "repro.drift.detector:LogWatchDetector.poll",
        after=lambda run, *_a: {
            "findings": len(run.findings),
            "api_calls": run.api_calls,
        },
    ),
    Seam(
        "drift",
        "drift.cycle",
        "repro.drift.watcher:DriftWatcher.cycle",
        after=_cycle_outcome,
    ),
    Seam("drift", "drift.reconcile", "repro.drift.reconcile:Reconciler.reconcile_one"),
    # private, on purpose: the one call that runs a request on a pool
    # thread. Its future is the one submit() returned, which is how the
    # spans under it get the client's op id.
    Seam(
        "service",
        "service.execute",
        "repro.service.core:ControlPlaneService._execute",
        before=lambda _svc, request: {"future": id(request.future)},
    ),
    Seam("service", "service.persist", "repro.service.tenants:TenantSession.persist"),
    Seam("service", "service.session_open", "repro.service.tenants:TenantSession.open"),
    Seam("service", "service.admit", "repro.service.admission:AdmissionController.check"),
    Seam("service", "service.admit", "repro.service.fairness:WeightedFairQueue.push"),
    Seam("service", "service.admit", "repro.service.fairness:WeightedFairQueue.pop"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(seam.layer for seam in SEAMS))


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a seam target."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise SeamError(f"seam {target}: cannot import {module_name}: {exc}")
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise SeamError(f"seam {target}: {part!r} not found")
        owner = getattr(owner, part)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise SeamError(f"seam {target}: {attr!r} not found")
    if inspect.isclass(owner) and attr not in vars(owner):
        # patching an inherited name would shadow it on this class only
        raise SeamError(f"seam {target}: {attr!r} is inherited, name its definer")
    return owner, attr, raw


class Tracer:
    """In-memory span recorder plus the install/restore of wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: span id -> op id, for roots the client tags explicitly
        self.op_of_span: Dict[int, int] = {}
        #: id(future) -> op id, joins service.execute to its request
        self.op_of_future: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._installed: List[Tuple[Seam, Any, str, Any, Any]] = []

    # -- recording -----------------------------------------------------------

    def new_id(self) -> int:
        return next(self._ids)

    @contextmanager
    def under(self, span_id: int) -> Iterator[None]:
        """Make ``span_id`` the parent of every seam entered inside the
        block, in this task or thread only."""
        token = _CURRENT.set(span_id)
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def adopt(self, spans: Iterable[Span], parent: int) -> None:
        """Merge spans recorded by a child process under ``parent``.

        Child ids restart at 1, so they are shifted past every id this
        tracer has handed out; only single-threaded callers adopt.
        """
        spans = list(spans)
        base = self.new_id()
        for sid, par, name, started, ended, attrs in spans:
            self.spans.append(
                (sid + base, par + base if par else parent, name, started, ended, attrs)
            )
        top = max((s[0] for s in spans), default=0)
        self._ids = itertools.count(base + top + 1)

    def _wrap_call(self, seam: Seam, fn: Callable) -> Callable:
        name, before, after = seam.name, seam.before, seam.after
        spans, new_id, clock = self.spans, self.new_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(*args) if before is not None else None
            sid = new_id()
            parent = _CURRENT.get()
            token = _CURRENT.set(sid)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ended = clock()
                _CURRENT.reset(token)
                spans.append((sid, parent, name, started, ended, attrs))
                raise
            ended = clock()
            _CURRENT.reset(token)
            if after is not None:
                attrs = {**(attrs or {}), **after(result, *args)}
            spans.append((sid, parent, name, started, ended, attrs))
            return result

        return wrapper

    def _wrap_generator(self, seam: Seam, fn: Callable) -> Callable:
        """One span per resumption that yields: the time between two
        ``next()`` calls belongs to the consumer, not the generator."""
        name = seam.name
        spans, new_id, clock = self.spans, self.new_id, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                sid = new_id()
                parent = _CURRENT.get()
                token = _CURRENT.set(sid)
                started = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    ended = clock()
                    _CURRENT.reset(token)
                spans.append((sid, parent, name, started, ended, None))
                yield item

        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self, seams: Iterable[Seam]) -> None:
        """Resolve every seam first, then patch: a table that no longer
        matches the program fails before anything is half-wrapped."""
        if self._installed:
            raise SeamError("tracer already installed")
        resolved = [(seam, *_resolve(seam.target)) for seam in seams]
        for seam, owner, attr, raw in resolved:
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not callable(fn):
                raise SeamError(f"seam {seam.target}: not callable")
            wrap = self._wrap_generator if seam.generator else self._wrap_call
            wrapped = wrap(seam, fn)
            patched = kind(wrapped) if kind else wrapped
            setattr(owner, attr, patched)
            self._installed.append((seam, owner, attr, raw, patched))

    def restore(self) -> None:
        """Put every original back and prove it: a seam someone else
        re-patched meanwhile, or one that did not come back, is loud."""
        problems = []
        for seam, owner, attr, raw, patched in reversed(self._installed):
            if inspect.getattr_static(owner, attr) is not patched:
                problems.append(f"{seam.target}: replaced while traced")
            setattr(owner, attr, raw)
            if inspect.getattr_static(owner, attr) is not raw:
                problems.append(f"{seam.target}: original not restored")
        self._installed = []
        if problems:
            raise SeamError("; ".join(problems))

    @property
    def installed(self) -> bool:
        return bool(self._installed)


# -- span arithmetic -----------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> its duration minus the part its children cover.

    Children of one parent run on the parent's thread or task, one
    after another, so the covered part is the sum of their durations;
    it is clamped at the parent's own duration so a clock hiccup can
    never produce negative self time.
    """
    durations: Dict[int, float] = {}
    covered: Dict[int, float] = {}
    for sid, parent, _name, started, ended, _attrs in spans:
        durations[sid] = ended - started
        if parent:
            covered[parent] = covered.get(parent, 0.0) + (ended - started)
    return {
        sid: max(0.0, duration - min(duration, covered.get(sid, 0.0)))
        for sid, duration in durations.items()
    }


def resolve_ops(
    spans: Iterable[Span],
    op_of_span: Dict[int, int],
    op_of_future: Dict[int, int],
) -> Dict[int, int]:
    """Span id -> op id. A span takes its op from an explicit tag, else
    from the request future it executed, else from its parent; a root
    nobody tagged (a fair-queue pop on a worker task) is its own op,
    negated so it cannot collide with a client op id."""
    spans = list(spans)
    parent_of = {s[0]: s[1] for s in spans}
    attrs_of = {s[0]: s[5] for s in spans}
    resolved: Dict[int, int] = {}

    def op_for(sid: int) -> int:
        chain = []
        while sid not in resolved:
            chain.append(sid)
            attrs = attrs_of.get(sid)
            if sid in op_of_span:
                resolved[sid] = op_of_span[sid]
            elif attrs and attrs.get("future") in op_of_future:
                resolved[sid] = op_of_future[attrs["future"]]
            elif parent_of.get(sid, 0) in parent_of:
                sid = parent_of[sid]
                continue
            else:
                resolved[sid] = -sid
        for member in chain:
            resolved[member] = resolved[sid]
        return resolved[sid]

    for sid in parent_of:
        op_for(sid)
    return resolved


@dataclasses.dataclass
class SpanTotals:
    """Everything the per-layer table needs about one span name."""

    count: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    attrs: Dict[str, float] = dataclasses.field(default_factory=dict)
    outcomes: Dict[str, int] = dataclasses.field(default_factory=dict)


def totals_by_name(
    spans: Iterable[Span], weights: Optional[Dict[int, float]] = None
) -> Dict[str, SpanTotals]:
    """Per span name: calls, seconds, summed counts. ``weights`` scales
    each span's seconds (span id -> factor; absent means 1), which is
    how wall becomes reference-speed seconds."""
    spans = list(spans)
    own = self_times(spans)
    weights = weights or {}
    out: Dict[str, SpanTotals] = {}
    for sid, _parent, name, started, ended, attrs in spans:
        totals = out.setdefault(name, SpanTotals())
        weight = weights.get(sid, 1.0)
        totals.count += 1
        totals.inclusive_s += (ended - started) * weight
        totals.self_s += own[sid] * weight
        for key, value in (attrs or {}).items():
            if isinstance(value, str):
                label = f"{key}={value}"
                totals.outcomes[label] = totals.outcomes.get(label, 0) + 1
            elif key != "future" and isinstance(value, (int, float)):
                totals.attrs[key] = totals.attrs.get(key, 0.0) + value
    return out


def write_jsonl(spans: Iterable[Span], ops: Dict[int, int], path: str) -> None:
    """One span per line: id, parent, op, name, start, end, attrs."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid, parent, name, started, ended, attrs in spans:
            record = {
                "id": sid,
                "parent": parent,
                "op": ops[sid],
                "name": name,
                "start": started,
                "end": ended,
            }
            if attrs:
                record["attrs"] = {k: v for k, v in attrs.items() if k != "future"}
            handle.write(json.dumps(record) + "\n")
