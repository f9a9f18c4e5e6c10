"""The cloudless engine: the whole lifecycle behind one facade.

Figure 1(b) of the paper: Developing -> Validating -> Deploying ->
Updating -> Diagnosing, policed throughout by the infrastructure
controller. :class:`CloudlessEngine` wires every subsystem together and
exposes the lifecycle verbs: ``validate``, ``plan``, ``apply``,
``watch``, ``reconcile``, ``rollback``, ``import_estate``, ``destroy``.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..cloud.clock import SimClock
from ..cloud.resources import Catalog, simulated_catalog
from ..lang.diagnostics import CLCError
from ..perf import PERF
from ..state.document import StateDocument
from ..state.snapshots import SnapshotHistory

if TYPE_CHECKING:  # imported by the verbs that run them, not by every verb
    from ..cloud.base import ControlPlane
    from ..cloud.gateway import CloudGateway
    from ..cloud.resilience import ResilientGateway, RetryPolicy
    from ..compilecache import CacheLookup
    from ..debug.correlate import Diagnosis, IaCDebugger
    from ..deploy.executor import ApplyResult, PlanExecutor
    from ..deploy.recovery import RecoveryReport
    from ..deploy.wal import IntentJournal
    from ..drift.detector import DetectionRun, DriftFinding, LogWatchDetector
    from ..drift.reconcile import ReconcileReport
    from ..drift.watcher import DriftWatcher, WatchCycle
    from ..graph.builder import ResourceGraph
    from ..graph.impact import PlanBasis
    from ..graph.plan import Plan, Planner
    from ..lang.config import Configuration
    from ..lang.context import ResourceResolver
    from ..lang.module_loader import ModuleLoader
    from ..policy.controller import AdmissionDecision, InfrastructureController
    from ..policy.cost import CostEstimator
    from ..porting.importer import PortedProject
    from ..update.rollback import RollbackResult
    from ..validate.pipeline import (
        ValidationBasis,
        ValidationPipeline,
        ValidationReport,
    )

#: the scheduling disciplines an engine can be built with, by name:
#: the keys of :data:`repro.deploy.executor.EXECUTORS`, for the callers
#: (a world file's loader) that check a name and run no executor
EXECUTOR_NAMES = ("sequential", "best-effort", "critical-path")


def build_graph(
    config: Configuration,
    variables: Optional[Dict[str, Any]] = None,
    loader: Optional[ModuleLoader] = None,
    resolver: Optional[ResourceResolver] = None,
) -> ResourceGraph:
    """:func:`repro.graph.builder.build_graph`, imported by the verb
    that builds a graph."""
    from ..graph.builder import build_graph as build

    return build(config, variables, loader, resolver)


def read_data_sources(
    gateway: CloudGateway, graph: ResourceGraph, state: StateDocument
) -> Dict[str, Dict[str, Any]]:
    """:func:`repro.graph.plan.read_data_sources`, imported by the verb
    that plans."""
    from ..graph.plan import read_data_sources as read

    return read(gateway, graph, state)


def load_verb_modules() -> None:
    """Import, now, every module a lifecycle verb would import on first
    use. A one-shot process wants each verb to pay for the modules it
    runs and no others. A long-lived one wants them all in place before
    its first tenant arrives: imported in the middle of a request, their
    code and constants land between that tenant's objects on the heap,
    and every later op reads 3-4 % slower (``svc_closed``, 11 of 12
    pairs; docs/performance.md, "The process at both ends"). The clouds
    come first, where an engine's construction used to import them;
    then the graph builder, and the program front end it imports:
    where a verb reads a program, they are loaded before the
    planner."""
    from ..cloud import gateway, resilience  # noqa: F401
    from ..graph import dag  # noqa: F401
    from ..graph import builder  # noqa: F401
    from ..deploy import executor, recovery, wal  # noqa: F401
    from ..drift import detector, reconcile, watcher  # noqa: F401
    from ..graph import impact, plan  # noqa: F401
    from ..lang import ast_nodes, chunker, config, context  # noqa: F401
    from ..lang import evaluator, functions, parser, references  # noqa: F401
    from ..policy import controller, cost  # noqa: F401
    from ..types import checker  # noqa: F401
    from ..validate import pipeline  # noqa: F401
    from ..validate.constraints import aws, azure  # noqa: F401


def _same_blocks(was: Mapping[str, Any], now: Mapping[str, Any]) -> bool:
    """Whether two tables of declarations were classified from the same
    parsed blocks under the same names: a parse gives every block and
    attribute a span object of its own, which a reused chunk still
    holds and a re-parsed one does not."""
    return was.keys() == now.keys() and all(
        decl.span is now[name].span for name, decl in was.items()
    )


def _read_hit(lookup: CacheLookup) -> Optional[Configuration]:
    """The configuration a cache hit holds, unpickled now, or ``None``
    if its blob does not read (the cache counts that hit a miss)."""
    from ..compilecache import ArtifactUnreadable

    try:
        return lookup.config
    except ArtifactUnreadable:
        return None


class EngineError(RuntimeError):
    """Lifecycle-level failures (validation denied, admission denied)."""


@dataclasses.dataclass
class Compiled:
    """One verb's sources compiled once (:meth:`CloudlessEngine.compile`);
    every lifecycle verb accepts it in place of the sources."""

    #: ``None`` while ``lookup`` still holds it
    config: Optional[Configuration]
    #: filename -> source text ("" when only a Configuration was given)
    texts: Dict[str, str]
    variables: Optional[Dict[str, Any]]
    #: replayed from an exact artifact hit, else built on first use;
    #: validation and the plan read the same one
    graph: Optional[ResourceGraph] = None
    #: ``(variables_fp, schema_fp)`` when a cache is attached and this
    #: is not its artifact replayed: the artifact is still to be written
    store_fps: Optional[Tuple[str, str]] = None
    #: the verdict an exact artifact hit recorded, as read (untrusted
    #: data; :meth:`ValidationPipeline.replay` judges it when asked)
    verdict: Any = None
    #: the validation outcome, once a verb has asked for it
    report: Optional[ValidationReport] = None
    #: compiled against the engine's own last compile: the engine is
    #: serving more than one verb, so what this one computes may be kept
    resident: bool = False
    #: the cache artifact that holds this compile, once one does (an
    #: exact hit's, or the one :meth:`CloudlessEngine._store` wrote):
    #: ``{"key": ..., "source_sha": {file: sha256}}``
    artifact: Optional[Dict[str, Any]] = None
    #: an exact hit not unpickled yet: ``config`` and ``graph`` are read
    #: from it when the verb first needs a node
    #: (:meth:`CloudlessEngine._read_artifact`)
    lookup: Optional[CacheLookup] = None


@dataclasses.dataclass
class EngineApplyResult:
    """Everything one ``apply`` produced."""

    validation: Optional[ValidationReport]
    admission: Optional[AdmissionDecision]
    plan: Optional[Plan]
    apply: Optional[ApplyResult]
    diagnoses: List[Diagnosis]
    snapshot_version: Optional[int] = None

    @property
    def ok(self) -> bool:
        if self.validation is not None and not self.validation.ok:
            return False
        if self.admission is not None and not self.admission.allowed:
            return False
        return self.apply is not None and self.apply.ok

    @property
    def partial(self) -> bool:
        """Degraded-mode completion: the reachable subgraph converged
        and the rest is quarantined behind unreachable partitions."""
        return self.apply is not None and self.apply.partial

    @property
    def quarantined(self) -> Dict[str, Any]:
        return self.apply.quarantined if self.apply is not None else {}


@dataclasses.dataclass
class EngineResumeResult:
    """Outcome of a crash-recovery resume: repairs + the continued apply."""

    recovery: Optional[RecoveryReport]
    result: EngineApplyResult

    @property
    def ok(self) -> bool:
        return self.result.ok


Sources = Union[str, Dict[str, str], "Configuration", "Compiled"]


class CloudlessEngine:
    """One tenant's cloudless control plane."""

    def __init__(
        self,
        gateway: Optional[CloudGateway] = None,
        loader: Optional[ModuleLoader] = None,
        executor: str = "critical-path",
        validation_level: str = "rules",
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        wal_path: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ):
        self.seed = seed
        #: when set, every apply journals its intents here and
        #: :meth:`resume` can recover a crashed run from it
        self.wal_path = wal_path
        # the cloud side is built when a verb first calls it (below); a
        # given part is the engine's from the start
        if gateway is not None:
            self.gateway = gateway
        #: what the clouds serve, as data: the given gateway's catalog,
        #: else the simulated pair's. Compile, validation, plan, the
        #: debugger and the importer read it, not a plane
        self.catalog: Catalog = (
            gateway.catalog if gateway is not None else simulated_catalog()
        )
        #: the simulated clouds' clock, which a world file's load
        #: advances before any plane is built; the gateway runs on it
        self.clock: SimClock = gateway.clock if gateway is not None else SimClock()
        #: what :func:`repro.persist.load_world` kept of the planes,
        #: landed on the gateway when it is built
        self._load_planes: Optional[Callable[[CloudGateway], None]] = None
        self.loader = loader
        self.executor_name = executor
        self.concurrency = concurrency
        self.retry = retry
        self.state = StateDocument()
        self.history = SnapshotHistory()
        #: what :attr:`validation` is built with, and what a world file
        #: records of it
        self.validation_level = validation_level
        #: per-provider log-watch cursors (event sequences), as plain
        #: data: :attr:`watcher` reads and advances this very dict, and a
        #: world file round-trips it without building a detector
        self.watch_cursors: Dict[str, int] = {
            name: 0 for name in self.catalog.providers
        }
        #: lazily-built continuous-reconciliation loop (see
        #: :meth:`watch_continuously`); shares ``self.watcher``'s cursors
        self.continuous_watcher: Optional[DriftWatcher] = None
        self.last_sources: Dict[str, str] = {}
        self.last_variables: Dict[str, Any] = {}
        #: :mod:`repro.persist`'s note of what the world file held when
        #: this engine was loaded or last saved; a save writes a delta
        #: against it
        self._world_base: Any = None
        #: ``(texts, config)`` of the last compile from source text (or,
        #: until something reads it, ``(texts, the exact cache hit)``);
        #: the next :meth:`compile` reuses what it can of it. Dropped with
        #: the engine, which is how a re-opened session forgets it.
        self._last_compile: Optional[
            Tuple[Dict[str, str], Union[Configuration, CacheLookup]]
        ] = None
        #: what the last plan of a compile of ours was computed from and
        #: proved no-op, with what its apply committed and proved; the
        #: next plan diffs what is not provably the same
        #: (:meth:`_plan_scope`). Like ``_last_compile`` it is dropped
        #: with the engine.
        self._plan_basis: Optional[PlanBasis] = None
        #: what the world file this engine was loaded from (or last
        #: saved to) says the last plan proved -- :mod:`repro.persist`'s
        #: record and the state as it stood there -- or why it says
        #: nothing: ``"none"`` (no proof was ever recorded) or
        #: ``"void"`` (one was, and a later commit moved the state
        #: without carrying it). The first compile may wake a basis from
        #: it (:meth:`_wake_plan_basis`).
        self._plan_record: Union[str, Tuple[Dict[str, Any], StateDocument]] = "none"
        #: ``(addresses the last plan diffed, nodes in its graph)``
        self.last_plan_scope: Optional[Tuple[int, int]] = None
        #: what the last validation of a compile of ours computed per
        #: declaration, and what that holds under; the next validation
        #: computes what is not provably the same
        #: (:meth:`_validation_scope`). Kept from the second compile on:
        #: a process that compiles once has no next validation. Its
        #: first compile may wake one from the artifact it reuses (the
        #: one the artifact's writer validated from), or learn that the
        #: artifact's is ``"unreadable"``.
        self._validation_basis: Union[ValidationBasis, str, None] = None
        #: ``(declarations the last validation type-checked,
        #: declarations in its program)``
        self.last_validation_scope: Optional[Tuple[int, int]] = None
        #: persistent compiled-artifact cache (``cache_dir=None`` keeps
        #: every compile cold); see :mod:`repro.compilecache`
        self.compile_cache = None
        if cache_dir:
            from ..compilecache import CompileCache

            self.compile_cache = CompileCache(cache_dir)

    # -- helpers ------------------------------------------------------------

    # Subsystems are built by the first verb that uses them: a `watch`
    # never validates, a `plan` never admits or executes, a `plan` the
    # world's record proves or a `show` calls no cloud, and a process
    # imports the modules of the subsystems it builds.

    @functools.cached_property
    def gateway(self) -> CloudGateway:
        from ..cloud.gateway import CloudGateway

        gateway = CloudGateway.simulated(seed=self.seed, clock=self.clock)
        if self._load_planes is not None:
            self._load_planes(gateway)
        return gateway

    @functools.cached_property
    def resilient(self) -> ResilientGateway:
        """The engine's one cloud client for the synchronous lifecycle
        verbs (watch/reconcile/rollback/resume/import/data reads), handed
        unchanged to every subsystem they build. Its ``health`` is the
        one partition-health ledger: the executors gate dispatch on it,
        the client fails fast on it, and drift detection skips
        partitions it marks unreachable. The deploy executors keep the
        raw gateway -- their event-loop retry must stay byte-identical to
        the golden reference."""
        from ..cloud.resilience import HealthMonitor, ResilientGateway

        return ResilientGateway(self.gateway, health=HealthMonitor())

    def planes_read(self) -> Dict[str, ControlPlane]:
        """The planes a verb has read: none before the gateway is
        built, and none a world file still holds encoded
        (``ControlPlane.deferred``)."""
        gateway = vars(self).get("gateway")
        if gateway is None:
            return {}
        return {n: p for n, p in gateway.planes.items() if not p.deferred}

    def _read_planes(self, providers: Optional[Iterable[str]] = None) -> None:
        """Read the planes of ``providers`` (every plane, by default)
        now. A verb that calls a cloud reads each plane it will call
        before it writes anything, so a plane a world file holds
        malformed is refused (:class:`repro.persist.WorldFormatError`)
        while the world file and the intent journal are untouched."""
        planes = self.gateway.planes
        names = planes.keys() if providers is None else planes.keys() & set(providers)
        for name in sorted(names):
            planes[name].records  # a deferred plane is replayed on first read

    @functools.cached_property
    def validation(self) -> ValidationPipeline:
        from ..validate.pipeline import ValidationPipeline

        return ValidationPipeline(catalog=self.catalog, level=self.validation_level)

    @functools.cached_property
    def planner(self) -> Planner:
        from ..graph.plan import Planner

        catalog = self.catalog
        return Planner(
            spec_lookup=catalog.try_spec,
            region_lookup=catalog.region_for,
            provider_lookup=catalog.provider_of,
        )

    @functools.cached_property
    def controller(self) -> InfrastructureController:
        from ..policy.controller import InfrastructureController

        return InfrastructureController()

    @functools.cached_property
    def cost(self) -> CostEstimator:
        from ..policy.cost import CostEstimator

        return CostEstimator()

    @functools.cached_property
    def watcher(self) -> LogWatchDetector:
        from ..drift.detector import LogWatchDetector

        return LogWatchDetector(self.resilient, cursors=self.watch_cursors)

    @functools.cached_property
    def debugger(self) -> IaCDebugger:
        from ..debug.correlate import IaCDebugger

        return IaCDebugger(self.catalog)

    def restore_watch_cursors(self, cursors: Mapping[str, int]) -> None:
        """Adopt checkpointed log-watch cursors, never backwards: a
        reloaded world resumes tailing where it stopped instead of
        replaying the whole activity log."""
        for name, cursor in cursors.items():
            self.watch_cursors[name] = max(int(cursor), self.watch_cursors.get(name, 0))

    def compile(
        self, sources: Sources, variables: Optional[Dict[str, Any]] = None
    ) -> Compiled:
        """Sources -> config (+ graph on an exact cache hit): the one
        step every verb runs once. A :class:`Compiled` passes through
        unchanged, carrying the variables it was compiled under.

        Source text compiles against this engine's last compile: the
        same texts are that ``Configuration`` again, edited ones
        re-parse the chunks that changed. Only the first compile of an
        engine reads the artifact cache or parses cold. Graph and
        verdict are products of one verb and die with its ``Compiled``:
        a graph is all reference cycles, and one kept until the next
        edit replaces it is freed by the oldest generation of the
        collector, which a many-tenant heap rarely runs.

        That first compile is also where a plan basis crosses the
        process (:meth:`_wake_plan_basis`): the artifact it reads holds
        the configuration the world's record is about. A validation
        basis crosses with a partial hit: the artifact holds what the
        validation of its configuration computed per declaration, which
        this compile's validation starts from."""
        if isinstance(sources, Compiled):
            return sources
        if isinstance(sources, str):
            sources = {"main.clc": sources}
        elif not isinstance(sources, Mapping):
            # a Configuration: originals unavailable
            texts = {f.filename: "" for f in sources.files}
            return Compiled(sources, texts, variables)
        texts = dict(sources)
        cache = self.compile_cache
        fps: Optional[Tuple[str, str]] = None
        if cache is not None:
            from ..compilecache import schema_fingerprint, variables_fingerprint

            fps = (variables_fingerprint(variables), schema_fingerprint(self.catalog))
        reuse: Optional[Configuration] = None
        if self._last_compile is not None:
            from ..lang.config import Configuration

            resident_texts, held = self._last_compile
            if not isinstance(held, Configuration):
                # the first compile's exact hit, which no verb has read
                held = _read_hit(held)
            basis = self._plan_basis
            if basis is not None and basis.config is None:
                # woken for that first compile: its configuration
                if held is None:
                    self._plan_basis = None
                else:
                    basis.config = held
            if held is not None and resident_texts == texts:
                PERF.count("compile.resident_exact")
                return Compiled(
                    held, texts, variables, store_fps=fps, resident=True
                )
            reuse = held
            PERF.count("compile.resident_partial")
        else:
            lookup = cache.load(texts, *fps) if fps is not None else None
            if lookup is None or not lookup.exact:
                # the program is read, parsed or unpickled: its front
                # end loads before any of it does
                from ..lang.config import Configuration

                if lookup is not None:
                    # partial hit: unchanged chunks skip lex+parse via
                    # the artifact's resident chunk-AST table, and their
                    # declarations keep what validation computed of them;
                    # the modules of that part load before it is read,
                    # as the front end's do
                    from ..types import checker  # noqa: F401
                    from ..validate import pipeline  # noqa: F401

                    reuse = _read_hit(lookup)
                    if reuse is None:
                        lookup = None
                    else:
                        self._validation_basis = lookup.basis
            self._wake_plan_basis(lookup, variables)
            if lookup is not None and lookup.exact:
                # config and graph are unpickled when a verb needs a node
                self._last_compile = (texts, lookup)
                return Compiled(
                    None,
                    texts,
                    variables,
                    verdict=lookup.verdict,
                    artifact=lookup.artifact,
                    lookup=lookup,
                )
        config = Configuration.parse_streaming(texts, reuse=reuse)
        resident = self._last_compile is not None
        self._last_compile = (texts, config)
        return Compiled(config, texts, variables, store_fps=fps, resident=resident)

    def _wake_plan_basis(
        self, lookup: Any, variables: Optional[Dict[str, Any]]
    ) -> None:
        """Start this engine's plans from what the last process proved,
        if the world says so (``_plan_record``) about the very artifact
        ``lookup`` read: same key -- variables and provider catalog ride
        in it -- and a header that names the sources the record names.
        The basis is then that artifact's configuration and, for every
        address the record does not exclude, the state entry as it was
        loaded; :meth:`_plan_scope` takes it from there, an exact hit
        or a partial one alike. A partial hit's configuration is the
        blob's, which may be older than the sources the record is
        about: the names its last stamp re-parsed since (``stale``)
        are diffed too. Anything else plans whole and counts why."""
        record = self._plan_record
        if isinstance(record, str):
            outcome = record
        elif lookup is None or lookup.artifact["key"] != record[0]["key"]:
            outcome = "no_artifact"  # none was read under the record's key
        elif lookup.artifact["source_sha"] != record[0]["source_sha"]:
            outcome = "other_sources"
        else:
            from ..addressing import MANAGED
            from ..graph.impact import ConfigDelta, PlanBasis

            outcome = "woken"
            proof, state = record
            unproven = set(proof["unproven"])
            noop = {
                address: entry
                for address, entry in state.entries_map().items()
                if address not in unproven
            }
            self._plan_basis = PlanBasis(
                # an exact hit's is read when a verb needs it
                config=None if lookup.exact else lookup.config,
                variables=dict(variables or {}),
                data_digest=proof["data"],
                noop=noop,
                artifact=lookup.artifact,
                # what the record knows of them: every address it proves
                # or does not
                instances=unproven.union(
                    a for a, entry in noop.items() if entry.address.mode == MANAGED
                ),
                nodes=proof.get("nodes"),
                # a partial hit's configuration is the blob's, and the
                # record is about the last stamp's sources
                stale=(
                    ConfigDelta()
                    if lookup.exact
                    else ConfigDelta.from_names(lookup.reparsed)
                ),
            )
        PERF.count(f"plan.basis.{outcome}")

    def _read_artifact(self, compiled: Compiled) -> None:
        """Unpickle an exact hit's configuration and graph, now that the
        verb needs a node (a hit by a stamp over a stale blob parses
        against the blob's chunks and leaves the graph to
        :meth:`_graph`). A blob that does not read is the miss it would
        have been at load: the sources compile cold, and the verb
        writes the artifact again."""
        lookup = compiled.lookup
        if lookup is None:
            return
        compiled.lookup = None
        config = _read_hit(lookup)
        if config is not None:
            compiled.config, compiled.graph = config, lookup.graph
        else:
            from ..compilecache import schema_fingerprint, variables_fingerprint
            from ..lang.config import Configuration

            compiled.config = Configuration.parse_streaming(compiled.texts)
            compiled.verdict = compiled.artifact = None
            compiled.store_fps = (
                variables_fingerprint(compiled.variables),
                schema_fingerprint(self.catalog),
            )
        last = self._last_compile
        if last is not None and last[1] is lookup:
            self._last_compile = (last[0], compiled.config)

    def _ours(self, compiled: Compiled) -> bool:
        """Whether ``compiled`` is this engine's last compile: only a
        configuration the engine parsed is known not to be edited in
        place between two verbs."""
        return (
            self._last_compile is not None
            and compiled.config is self._last_compile[1]
        )

    def _graph(self, compiled: Compiled) -> ResourceGraph:
        """The verb's one graph: validation and the plan both read it."""
        self._read_artifact(compiled)
        if compiled.graph is None:
            from ..graph.builder import GraphBuildError

            try:
                compiled.graph = build_graph(
                    compiled.config,
                    variables=compiled.variables,
                    loader=self.loader,
                )
            except (GraphBuildError, CLCError) as exc:
                raise EngineError(str(exc))
            PERF.count("graph.builds")
        return compiled.graph

    def _store(
        self,
        compiled: Compiled,
        basis: Optional[ValidationBasis] = None,
        rebase: bool = False,
    ) -> None:
        """Write the artifact if it is still to be written: the graph,
        plus the verdict and the validation's ``basis`` when the verb
        validated before it planned (``rebase``: as a blob, since that
        validation could not start from the one the artifact holds)."""
        # module text is outside the exactness test, so a graph
        # expanded through module calls is never journaled
        if (
            compiled.store_fps
            and compiled.graph is not None
            and not compiled.config.module_calls
        ):
            cache = self.compile_cache
            assert cache is not None
            if cache.store(
                compiled.texts,
                *compiled.store_fps,
                compiled.config,
                compiled.graph,
                verdict=(
                    self.validation.verdict(compiled.report)
                    if compiled.report is not None
                    else None
                ),
                basis=basis,
                rebase=rebase,
            ):
                from ..compilecache import source_shas

                compiled.artifact = {
                    "key": cache.key_for(compiled.texts, *compiled.store_fps),
                    "source_sha": source_shas(compiled.texts),
                }
            compiled.store_fps = None

    def _validated(self, compiled: Compiled) -> ValidationReport:
        """The verdict on ``compiled``: reached once per verb, on the
        verb's own graph, or replayed from the artifact that replayed
        the graph when it was reached under this level, these rules and
        this catalog."""
        if compiled.report is None and compiled.verdict is not None:
            from ..validate.pipeline import VerdictMismatch

            try:
                compiled.report = self.validation.replay(compiled.verdict)
                PERF.count("validate.replayed")
            except VerdictMismatch as why:
                PERF.count("compilecache.verdict_mismatch")
                PERF.count(f"compilecache.verdict_mismatch.{why}")
        if compiled.report is None:
            PERF.count("validate.runs")
            compiled.report, basis, scoped = self._validate(compiled)
            # the next process's validation starts from what this one
            # computed: the table rides in the artifact's blob, which
            # one that could not start from the blob's replaces
            self._store(compiled, basis, rebase=not scoped)
        return compiled.report

    def _validate(
        self, compiled: Compiled
    ) -> Tuple[ValidationReport, ValidationBasis, bool]:
        """Validate on the verb's own graph, starting from what the
        last validation left (:meth:`_validation_scope`) and leaving
        what this one computed, if there will be a next: kept by the
        engine, and returned for the artifact with whether it started
        from the last one."""
        try:
            graph: Optional[ResourceGraph] = self._graph(compiled)
        except EngineError:
            # no graph to share: the pipeline reports why in stage
            # order (syntax and type errors first, else its own
            # build's GRAPH diagnostic)
            graph = None
        # only a configuration this engine parsed is known not to be
        # edited in place between two validations, and only a graph
        # nobody has planned on evaluates as validation means it to
        slot = graph.binding_resolver if graph is not None else None
        ours = self._ours(compiled) and getattr(slot, "target", None) is None
        basis, scoped = self._validation_scope(
            self._validation_basis if ours else None, compiled, ours
        )
        table = basis.table
        report = self.validation.validate(
            compiled.config,
            variables=compiled.variables,
            loader=self.loader,
            graph=graph,
            table=table,
        )
        self.last_validation_scope = (table.checked, len(compiled.config.resources))
        PERF.count("validate.decls_checked", table.checked)
        PERF.count("validate.attrs_evaluated", table.evaluated)
        if ours:
            # (a first compile's is the artifact's, now spent)
            self._validation_basis = basis if compiled.resident else None
        return report, basis, scoped

    def _validation_scope(
        self,
        last: Union[ValidationBasis, str, None],
        compiled: Compiled,
        ours: bool,
    ) -> Tuple[ValidationBasis, bool]:
        """What this validation starts from and will leave behind, and
        whether it starts from ``last``: a
        table holding already what ``last`` computed for the
        declarations that are still made of the same parsed parts, or
        an empty one when anything else an entry is a function of may
        have moved -- there is no basis, the program calls modules
        (their text is outside what the engine can diff), the pipeline
        is another (level, rules, catalog), a variable was given
        another value or is declared otherwise, a local is, or other
        names are declared (a reference to an undeclared one evaluates
        to an error, not to an unknown).

        Nothing tells the basis that the program moved: an entry counts
        only while its declaration answers the very parts it was
        computed from, which an edited, moved or re-parsed block does
        not."""
        from ..graph.impact import same_values
        from ..types.checker import DeclTable
        from ..validate.pipeline import ValidationBasis

        config = compiled.config
        basis = ValidationBasis(
            config=config,
            variables=dict(compiled.variables or {}),
            pipeline=self.validation._basis(),
            table=DeclTable(),
        )
        if last is None:
            why = "first" if ours else "foreign"
        elif isinstance(last, str):
            why = last  # the artifact's was not a basis
        elif config.module_calls or last.config.module_calls:
            why = "modules"
        elif basis.pipeline != last.pipeline:
            why = "pipeline"
        elif not (
            same_values(basis.variables, last.variables)
            and _same_blocks(last.config.variables, config.variables)
        ):
            why = "variables"
        elif not _same_blocks(last.config.locals, config.locals):
            why = "locals"
        elif last.config.resources.keys() != config.resources.keys():
            why = "declarations"
        else:
            basis.table.carry_over(last.table, config)
            PERF.count("validate.scoped")
            return basis, True
        PERF.count(f"validate.full.{why}")
        return basis, False

    def _executor(self) -> PlanExecutor:
        from ..deploy.executor import EXECUTORS, make_executor

        if self.executor_name not in EXECUTORS:
            raise EngineError(f"unknown executor {self.executor_name!r}")
        executor = make_executor(
            self.executor_name,
            self.gateway,
            concurrency=self.concurrency,
            retry=self.retry,
            health=self.resilient.health,
        )
        executor.planner = self.planner
        return executor

    # -- lifecycle verbs ---------------------------------------------------------

    def validate(
        self, sources: Sources, variables: Optional[Dict[str, Any]] = None
    ) -> ValidationReport:
        return self._validated(self.compile(sources, variables))

    def plan(
        self,
        sources: Sources,
        variables: Optional[Dict[str, Any]] = None,
        state: Optional[StateDocument] = None,
    ) -> Plan:
        compiled = self.compile(sources, variables)
        working = (state if state is not None else self.state).copy()
        from ..graph.impact import PlanBasis, values_digest

        basis = self._plan_basis
        if (
            basis is not None
            # an unread exact hit, or a configuration this engine parsed
            # (only that one is known not to be edited in place)
            and (compiled.lookup is not None or self._ours(compiled))
            and basis.proves_whole(
                compiled.config, compiled.variables, compiled.artifact, working
            )
        ):
            # the basis proves every instance of this very program no-op,
            # and the program reads no data source: nothing to diff, so
            # no graph to build or unpickle -- a resident tenant's plan
            # of what it applied as much as a CLI plan on an exact hit
            PERF.count("plan.scoped")
            PERF.count("plan.proven")
            self.last_plan_scope = (0, basis.nodes)
            return self.planner.plan(
                functools.partial(self._graph, compiled), working, limit_to=set()
            )
        graph = self._graph(compiled)
        self._store(compiled)  # with no verdict, if the verb never validated
        data_values = read_data_sources(self.resilient, graph, working)
        # any configuration but the engine's own has no basis (nor has
        # one woken for an artifact that did not read after all)
        ours = self._ours(compiled)
        data_digest = values_digest(data_values)
        scope = self._plan_scope(
            self._plan_basis if ours else None, compiled, graph, working, data_digest
        )
        plan = self.planner.plan(
            graph, working, data_values=data_values, limit_to=scope
        )
        self.last_plan_scope = (
            len(graph) if scope is None else len(scope),
            len(graph),
        )
        if ours:
            from ..addressing import MANAGED
            from ..graph.plan import Action

            noop, instances = {}, set()
            for address, change in plan.changes.items():
                if change.node is None or change.address.mode != MANAGED:
                    continue
                instances.add(address)
                if change.action is Action.NOOP and change.prior is not None:
                    noop[address] = change.prior
            self._plan_basis = PlanBasis(
                config=compiled.config,
                variables=dict(compiled.variables or {}),
                data_digest=data_digest,
                noop=noop,
                artifact=compiled.artifact,
                instances=instances,
                nodes=len(graph),
            )
        return plan

    def _plan_scope(
        self,
        basis: Optional[PlanBasis],
        compiled: Compiled,
        graph: ResourceGraph,
        state: StateDocument,
        data_digest: str,
    ) -> Optional[set]:
        """The addresses this plan must diff, or ``None`` for all of
        them: there is no basis, the program calls modules (their text
        is outside what the engine can diff -- the rule :meth:`_store`
        uses), or a data source reads differently.

        Nothing tells the basis that the state moved: a node counts as
        proven only while the state holds the very entry it was no-op
        against, so a repair, a rollback, state surgery, a resumed or
        half-failed apply or another ``state`` all re-diff what they
        touched."""
        from ..graph.impact import change_scope, diff_configurations

        if basis is not None and basis.config is None:
            # woken for an exact hit nothing had read: the compile that
            # woke it is this one, ours, and holds its configuration now
            basis.config = compiled.config
        if basis is None:
            why = "first"
        elif compiled.config.module_calls or basis.config.module_calls:
            why = "modules"
        elif data_digest != basis.data_digest:
            why = "data"
            if self.last_plan_scope is None:
                # no plan of this engine's left that basis: it was woken
                PERF.count("plan.basis.data")
        else:
            delta = diff_configurations(
                basis.config, compiled.config, basis.variables, compiled.variables
            )
            delta.update(basis.stale)
            scope = change_scope(
                graph,
                delta,
                state,
                proven=basis.noop,
                provider_lookup=self.catalog.provider_of,
            )
            PERF.count("plan.scoped")
            PERF.count("plan.scope_nodes", len(scope))
            return scope
        PERF.count("plan.full")
        PERF.count(f"plan.full.{why}")
        return None

    def apply(
        self,
        sources: Sources,
        variables: Optional[Dict[str, Any]] = None,
        validate_first: bool = True,
        admit: bool = True,
        checkpoint: bool = True,
        crash_hook: Optional[Any] = None,
        _journal: Optional[IntentJournal] = None,
    ) -> EngineApplyResult:
        compiled = self.compile(sources, variables)
        variables = compiled.variables
        validation: Optional[ValidationReport] = None
        if validate_first:
            validation = self._validated(compiled)
            if not validation.ok:
                return EngineApplyResult(
                    validation=validation,
                    admission=None,
                    plan=None,
                    apply=None,
                    diagnoses=[],
                )
        plan = self.plan(compiled)
        admission: Optional[AdmissionDecision] = None
        if admit:
            admission = self.controller.admit(
                plan, self.state, cost_estimator=self.cost, variables=variables
            )
            if not admission.allowed:
                return EngineApplyResult(
                    validation=validation,
                    admission=admission,
                    plan=plan,
                    apply=None,
                    diagnoses=[],
                )
        from ..graph.plan import ACTIONABLE

        # every plane the run will call is read before the journal is
        # begun: a malformed one is refused with nothing written
        self._read_planes(
            self.catalog.try_provider_of(change.address.type)
            for change in plan.changes.values()
            if change.action in ACTIONABLE
        )
        journal = _journal
        if journal is None and self.wal_path:
            from ..deploy.wal import IntentJournal

            journal = IntentJournal(self.wal_path)
            journal.begin_run()
        try:
            result = self._executor().apply(
                plan, wal=journal, crash_hook=crash_hook
            )
            if journal is not None and result.ok:
                journal.mark_clean()
        finally:
            # converged, degraded, failed or raised: a run that did not
            # converge keeps its journal's contents (its open and
            # quarantined intents are the resume's work list), and every
            # run closes the handle, so the markers still in its buffer
            # are in the file before a resume -- this process's or the
            # next -- re-reads it
            if journal is not None:
                journal.close()
        assert result.state is not None
        self.state = result.state
        self._prove_commits(compiled, plan, result)
        self._store_outputs(plan, result)
        self.last_sources = compiled.texts
        self.last_variables = dict(variables or {})
        diagnoses = (
            self.debugger.diagnose_apply(plan, result) if result.failed else []
        )
        snapshot_version: Optional[int] = None
        if checkpoint and result.ok:
            snap = self.history.checkpoint(
                self.state,
                compiled.texts,
                timestamp=self.clock.now,
                description=f"apply ({plan.summary()})",
            )
            snapshot_version = snap.version
        return EngineApplyResult(
            validation=validation,
            admission=admission,
            plan=plan,
            apply=result,
            diagnoses=diagnoses,
            snapshot_version=snapshot_version,
        )

    def _prove_commits(
        self, compiled: Compiled, plan: Plan, result: ApplyResult
    ) -> None:
        """Fold what the apply committed into the basis its plan left.
        Both checks are the plan's own no-op rule
        (:meth:`Planner.proves`): the executor checked each entry it
        committed against the values it sent (``result.proven``), and a
        no-op below a committed entry is checked against the values it
        evaluates to now."""
        from ..graph.plan import ACTIONABLE, Action

        entries = self.state.entries_map()
        moved = [
            address
            for address, change in plan.changes.items()
            if change.action in ACTIONABLE
            and change.action is not Action.READ
            and entries.get(address) is not change.prior
        ]
        basis = self._plan_basis
        if not (moved and basis is not None and self._ours(compiled)):
            return
        graph = plan.graph

        def still_noop(address: str, entry: Any) -> bool:
            node = graph.nodes[address]
            try:
                desired = node.evaluate_attrs()
            except Exception:
                return False
            return self.planner.proves(node, desired, entry)

        self._plan_basis = basis.committed(graph, moved, result.proven, still_noop)

    def _store_outputs(self, plan: Plan, result: ApplyResult) -> None:
        """Evaluate root-module outputs post-apply into state.outputs."""
        if not result.ok or plan.graph.root_context is None:
            return
        try:
            outputs = plan.graph.root_context.output_values()
        except Exception:
            return
        from ..lang.values import is_unknown

        self.state.outputs = {
            name: value
            for name, value in outputs.items()
            if not is_unknown(value)
        }

    def destroy(self) -> EngineApplyResult:
        """Tear down everything the state manages."""
        return self.apply("", validate_first=False, admit=False, checkpoint=False)

    # -- crash recovery -----------------------------------------------------

    def resume(
        self,
        sources: Optional[Sources] = None,
        variables: Optional[Dict[str, Any]] = None,
    ) -> "EngineResumeResult":
        """Recover a crashed apply from the intent journal and continue.

        Replays the WAL at ``wal_path``, classifies every intent against
        the live control planes (adopting orphaned creates and noting
        landed deletes -- see :mod:`repro.deploy.recovery`), then
        re-plans and applies the same configuration. The continued apply
        reuses the crashed run's journal and run id, so re-sent creates
        carry the *same* idempotency tokens and cannot duplicate
        resources the crashed run already provisioned.
        """
        if not self.wal_path:
            raise EngineError("resume requires an engine wal_path")
        # recovery probes every plane: all are read before the journal is
        # opened, so a malformed one is refused with nothing written
        self._read_planes()
        from ..deploy.recovery import CrashRecovery
        from ..deploy.wal import IntentJournal

        journal = IntentJournal.resume(self.wal_path)
        recovery: Optional[RecoveryReport] = None
        if journal.run_id is not None and journal.records():
            recovery = CrashRecovery(self.resilient, journal).recover(self.state)
        if sources is None:
            sources = self.last_sources
        if variables is None:
            variables = dict(self.last_variables)
        result = self.apply(
            sources,
            variables=variables,
            _journal=journal if journal.run_id is not None else None,
        )
        if result.plan is not None:
            self._refresh_dependencies(result.plan)
        return EngineResumeResult(recovery=recovery, result=result)

    def _refresh_dependencies(self, plan: Plan) -> None:
        """Backfill state dependencies for adopted (recovered) entries.

        ``_commit_step`` records each entry's managed predecessors at
        commit time; entries adopted by crash recovery never ran a
        commit, so they carry empty dependency lists. Recompute them
        from the plan graph (``ResourceGraph.managed_dependencies``, as
        the commit does) so a recovered state document matches an
        uninterrupted run's byte for byte.
        """
        changed = False
        # (dependencies are nothing a plan compares: a proof carries over)
        proofs = self._plan_basis.noop if self._plan_basis is not None else {}
        for cid, node in plan.graph.nodes.items():
            if node is None or node.address.mode != "managed":
                continue
            entry = self.state.get(node.address)
            if entry is None:
                continue
            deps = plan.graph.managed_dependencies(cid)
            if deps and list(entry.dependencies) != deps:
                refreshed = entry.replace(dependencies=deps)
                self.state.set(refreshed)
                if proofs.get(cid) is entry:
                    proofs[cid] = refreshed
                changed = True
        if changed:
            self.state.bump()

    # -- observe / repair -------------------------------------------------------------

    def watch(self) -> DetectionRun:
        """One drift-detection poll over the activity logs."""
        self._read_planes()
        run = self.watcher.poll(self.state)
        self._police_drift(run.findings)
        return run

    def _police_drift(self, findings: List[DriftFinding]) -> None:
        # a controller nobody has built yet holds no policy to evaluate
        if findings and "controller" in vars(self):
            self.controller.evaluate_drift(findings, self.state, self.clock.now)

    def watch_continuously(
        self,
        cycles: int = 1,
        interval_s: float = 60.0,
        max_lag_s: float = 900.0,
        auto_reconcile: bool = True,
    ) -> List[WatchCycle]:
        """Event-driven continuous reconciliation (see
        :class:`~repro.drift.watcher.DriftWatcher`).

        The watcher is cached across calls so deferred/pending repairs
        survive between invocations; it shares the engine's
        :class:`LogWatchDetector` (one set of cursors, whether you
        ``watch`` once or watch continuously) and partition-health
        ledger."""
        self._read_planes()
        watcher = self.continuous_watcher
        if watcher is None:
            from ..drift.watcher import DriftWatcher

            watcher = self.continuous_watcher = DriftWatcher(
                self.resilient,
                max_lag_s=max_lag_s,
                auto_reconcile=auto_reconcile,
                detector=self.watcher,
            )
        else:
            watcher.max_lag_s = max_lag_s
            watcher.auto_reconcile = auto_reconcile
        out = watcher.run(self.state, cycles=cycles, interval_s=interval_s)
        for cycle in out:
            self._police_drift(cycle.run.findings)
        return out

    def reconcile(
        self,
        findings: List[DriftFinding],
        policy: Optional[Dict[str, str]] = None,
    ) -> ReconcileReport:
        from ..drift.reconcile import Reconciler

        self._read_planes()
        reconciler = Reconciler(self.resilient, policy=policy)
        return reconciler.reconcile(findings, self.state)

    def rollback(self, version: int) -> RollbackResult:
        """Reversibility-aware rollback to a snapshot version."""
        from ..update.rollback import ReversibilityAwareRollback

        snapshot = self.history.get(version)
        self._read_planes()
        planner = ReversibilityAwareRollback(self.resilient)
        plan = planner.plan(snapshot, self.state)
        result = planner.execute(plan, self.state)
        self.last_sources = dict(snapshot.config_sources)
        self.history.checkpoint(
            self.state,
            snapshot.config_sources,
            timestamp=self.clock.now,
            description=f"rollback to v{version}",
        )
        return result

    def learn_validation_rules(self, min_support: int = 3) -> int:
        """Mine validation rules from this engine's own deploy history.

        3.2's knowledge-base loop closed: every checkpointed (healthy)
        configuration is a specification-mining example; invariants that
        held across all of them become compile-time checks on future
        changes. Returns how many rules were added.
        """
        from ..lang.config import Configuration
        from ..validate.mining import DeploymentExample, SpecificationMiner

        examples = []
        for version in self.history.versions():
            snap = self.history.get(version)
            sources = {k: v for k, v in snap.config_sources.items() if v}
            if not sources:
                continue
            try:
                config = Configuration.parse(sources)
                if config.diagnostics.has_errors():
                    continue
                examples.append(
                    DeploymentExample.from_config(config, self.catalog)
                )
            except Exception:
                continue
        if not examples:
            return 0
        rules = SpecificationMiner(min_support=min_support).mine(examples)
        existing = {r.info.rule_id for r in self.validation.engine.rules}
        added = 0
        for rule in rules:
            if rule.info.rule_id not in existing:
                self.validation.engine.rules.append(rule)
                added += 1
        return added

    # -- develop ------------------------------------------------------------------------

    def import_estate(
        self, adopt: bool = True, via_api: bool = False
    ) -> PortedProject:
        """Port the live (non-IaC) estate into a structured program.

        ``via_api=True`` enumerates the estate through the paginated
        list API behind the resilience layer instead of the in-memory
        shortcut."""
        from ..porting.importer import StructuredImporter

        project = StructuredImporter(self.catalog).import_estate(
            self.resilient, via_api=via_api
        )
        if adopt:
            self.state = project.state.copy()
            self.last_sources = dict(project.sources)
            self.history.checkpoint(
                self.state,
                project.sources,
                timestamp=self.clock.now,
                description="imported existing estate",
            )
        return project

    # -- state surgery (refactor support) ------------------------------------

    def state_move(self, src: str, dst: str) -> None:
        """Rename a resource's address in state without touching the
        cloud -- what lets a config refactor (rename, move into a
        module, adopt count) proceed without destroy/recreate."""
        from ..addressing import ResourceAddress

        src_addr = ResourceAddress.parse(src)
        dst_addr = ResourceAddress.parse(dst)
        entry = self.state.get(src_addr)
        if entry is None:
            raise EngineError(f"no state entry at {src}")
        if self.state.get(dst_addr) is not None:
            raise EngineError(f"destination {dst} already exists in state")
        self.state.remove(src_addr)
        self.state.set(entry.replace(address=dst_addr))
        for other in self.state.resources():
            if src in other.dependencies:
                self.state.set(
                    other.replace(
                        dependencies=[
                            dst if dep == src else dep
                            for dep in other.dependencies
                        ]
                    )
                )
        self.state.bump()

    def state_forget(self, address: str) -> bool:
        """Drop a resource from state (the cloud resource survives,
        unmanaged). Returns whether anything was removed."""
        from ..addressing import ResourceAddress

        removed = self.state.remove(ResourceAddress.parse(address))
        if removed is not None:
            self.state.bump()
        return removed is not None

    def regenerate_config(self, adopt: bool = True) -> PortedProject:
        """Regenerate the program from the managed estate's live values.

        The other half of 3.5's reconciliation: after drift is adopted
        (or repairs landed out of band), re-emit a program that matches
        what is actually deployed, so config and cloud agree again.
        Only resources the state already manages are included.
        """
        from ..porting.importer import StructuredImporter

        managed_ids = {entry.resource_id for entry in self.state.resources()}
        project = StructuredImporter(self.catalog).import_estate(
            self.resilient, only_ids=managed_ids
        )
        if adopt:
            self.state = project.state.copy()
            self.last_sources = dict(project.sources)
            self.history.checkpoint(
                self.state,
                project.sources,
                timestamp=self.clock.now,
                description="regenerated program from live estate",
            )
        return project
