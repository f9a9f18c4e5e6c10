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
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple, Union

from ..cloud.gateway import CloudGateway
from ..cloud.resilience import (
    BreakerPolicy,
    HealthMonitor,
    ResilientGateway,
    RetryPolicy,
)
from ..lang.diagnostics import CLCError
from ..perf import PERF
from ..state.document import StateDocument
from ..state.snapshots import SnapshotHistory
from ..types.schema import SchemaRegistry

if TYPE_CHECKING:  # imported by the verbs that run them, not by every verb
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
    pairs; docs/performance.md, "The process at both ends")."""
    from ..deploy import executor, recovery, wal  # noqa: F401
    from ..drift import detector, reconcile, watcher  # noqa: F401
    from ..graph import builder, impact, plan  # noqa: F401
    from ..lang import chunker, config, parser  # noqa: F401
    from ..policy import controller, cost  # noqa: F401
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


class EngineError(RuntimeError):
    """Lifecycle-level failures (validation denied, admission denied)."""


@dataclasses.dataclass
class Compiled:
    """One verb's sources compiled once (:meth:`CloudlessEngine.compile`);
    every lifecycle verb accepts it in place of the sources."""

    config: Configuration
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
        registry: Optional[SchemaRegistry] = None,
        loader: Optional[ModuleLoader] = None,
        executor: str = "critical-path",
        validation_level: str = "rules",
        concurrency: int = 10,
        retry: Optional[RetryPolicy] = None,
        seed: int = 0,
        wal_path: Optional[str] = None,
        health: Optional[HealthMonitor] = None,
        breaker_policy: Optional[BreakerPolicy] = None,
        cache_dir: Optional[str] = None,
    ):
        self.seed = seed
        #: when set, every apply journals its intents here and
        #: :meth:`resume` can recover a crashed run from it
        self.wal_path = wal_path
        self.gateway = gateway or CloudGateway.simulated(seed=seed)
        #: one partition-health ledger shared by every layer: the
        #: executors gate dispatch on it, the resilient wrapper fails
        #: fast on it, and drift detection skips partitions it marks
        #: unreachable
        self.health = health or HealthMonitor(policy=breaker_policy)
        # one shared resilience wrapper for the synchronous lifecycle
        # verbs (watch/reconcile/rollback/import/data reads); the deploy
        # executors keep the raw gateway -- their event-loop retry must
        # stay byte-identical to the golden reference
        self.resilient = ResilientGateway.wrap(self.gateway, health=self.health)
        self.registry = registry or SchemaRegistry.default()
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
        self.watch_cursors: Dict[str, int] = {name: 0 for name in self.gateway.planes}
        #: lazily-built continuous-reconciliation loop (see
        #: :meth:`watch_continuously`); shares ``self.watcher``'s cursors
        self.continuous_watcher: Optional[DriftWatcher] = None
        self.last_sources: Dict[str, str] = {}
        self.last_variables: Dict[str, Any] = {}
        #: :mod:`repro.persist`'s note of what the world file held when
        #: this engine was loaded or last saved; a save writes a delta
        #: against it
        self._world_base: Any = None
        #: ``(texts, config)`` of the last compile from source text; the
        #: next :meth:`compile` reuses what it can of it. Dropped with
        #: the engine, which is how a re-opened session forgets it.
        self._last_compile: Optional[Tuple[Dict[str, str], Configuration]] = None
        #: what the last plan of a compile of ours was computed from and
        #: proved no-op; the next plan diffs what is not provably the
        #: same (:meth:`_plan_scope`). Like ``_last_compile`` it is
        #: dropped with the engine.
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
        #: a process that compiles once has no next validation.
        self._validation_basis: Optional[ValidationBasis] = None
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

    @property
    def clock(self):
        return self.gateway.clock

    # Subsystems are built by the first verb that uses them: a `watch`
    # never validates, a `plan` never admits or executes, and a process
    # imports the modules of the subsystems it builds.

    @functools.cached_property
    def validation(self) -> ValidationPipeline:
        from ..validate.pipeline import ValidationPipeline

        return ValidationPipeline(registry=self.registry, level=self.validation_level)

    @functools.cached_property
    def planner(self) -> Planner:
        from ..graph.plan import Planner

        return Planner(
            spec_lookup=self.gateway.try_spec,
            region_lookup=self.gateway.region_for,
            provider_lookup=self.gateway.provider_of,
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

        return IaCDebugger(self.registry)

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
        the configuration the world's record is about."""
        if isinstance(sources, Compiled):
            return sources
        from ..lang.config import Configuration

        if isinstance(sources, Configuration):
            # originals unavailable
            texts = {f.filename: "" for f in sources.files}
            return Compiled(sources, texts, variables)
        if isinstance(sources, str):
            sources = {"main.clc": sources}
        texts = dict(sources)
        cache = self.compile_cache
        fps: Optional[Tuple[str, str]] = None
        if cache is not None:
            from ..compilecache import schema_fingerprint, variables_fingerprint

            fps = (variables_fingerprint(variables), schema_fingerprint(self.gateway))
        reuse: Optional[Configuration] = None
        if self._last_compile is not None:
            resident_texts, reuse = self._last_compile
            if resident_texts == texts:
                PERF.count("compile.resident_exact")
                return Compiled(
                    reuse, texts, variables, store_fps=fps, resident=True
                )
            PERF.count("compile.resident_partial")
        else:
            lookup = cache.load(texts, *fps) if fps is not None else None
            self._wake_plan_basis(lookup, variables)
            if lookup is not None and lookup.exact:
                self._last_compile = (texts, lookup.config)
                return Compiled(
                    lookup.config,
                    texts,
                    variables,
                    graph=lookup.graph,
                    verdict=lookup.verdict,
                    artifact=lookup.artifact,
                )
            # partial hit: unchanged chunks skip lex+parse via the
            # artifact's resident chunk-AST table
            reuse = lookup.config if lookup is not None else None
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
        or a partial one alike. Anything else plans whole and counts
        why."""
        record = self._plan_record
        if isinstance(record, str):
            outcome = record
        elif lookup is None or lookup.artifact["key"] != record[0]["key"]:
            outcome = "no_artifact"  # none was read under the record's key
        elif lookup.artifact["source_sha"] != record[0]["source_sha"]:
            outcome = "other_sources"
        else:
            from ..graph.impact import PlanBasis

            outcome = "woken"
            proof, state = record
            unproven = set(proof["unproven"])
            self._plan_basis = PlanBasis(
                config=lookup.config,
                variables=dict(variables or {}),
                data_digest=proof["data"],
                noop={
                    address: entry
                    for address, entry in state.entries_map().items()
                    if address not in unproven
                },
                artifact=lookup.artifact,
            )
        PERF.count(f"plan.basis.{outcome}")

    def _graph(self, compiled: Compiled) -> ResourceGraph:
        """The verb's one graph: validation and the plan both read it."""
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

    def _store(self, compiled: Compiled) -> None:
        """Write the artifact if it is still to be written: the graph,
        plus the verdict when the verb validated before it planned."""
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
        this registry."""
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
            compiled.report = self._validate(compiled)
            # (the table a one-shot validation filled is gone by now:
            # the artifact is pickled at the verb's memory peak)
            self._store(compiled)
        return compiled.report

    def _validate(self, compiled: Compiled) -> ValidationReport:
        """Validate on the verb's own graph, starting from what the
        last validation left (:meth:`_validation_scope`) and leaving
        what this one computed, if there will be a next."""
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
        ours = (
            self._last_compile is not None
            and compiled.config is self._last_compile[1]
            and getattr(slot, "target", None) is None
        )
        basis = self._validation_scope(
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
        if ours and compiled.resident:
            self._validation_basis = basis
        return report

    def _validation_scope(
        self, last: Optional[ValidationBasis], compiled: Compiled, ours: bool
    ) -> ValidationBasis:
        """What this validation starts from and will leave behind: a
        table holding already what ``last`` computed for the
        declarations that are still made of the same parsed parts, or
        an empty one when anything else an entry is a function of may
        have moved -- there is no basis, the program calls modules
        (their text is outside what the engine can diff), the pipeline
        is another (level, rules, registry), a variable was given
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
            return basis
        PERF.count(f"validate.full.{why}")
        return basis

    def _executor(self) -> PlanExecutor:
        from ..deploy.executor import EXECUTORS, make_executor

        if self.executor_name not in EXECUTORS:
            raise EngineError(f"unknown executor {self.executor_name!r}")
        return make_executor(
            self.executor_name,
            self.gateway,
            concurrency=self.concurrency,
            retry=self.retry,
            health=self.health,
        )

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
        graph = self._graph(compiled)
        self._store(compiled)  # with no verdict, if the verb never validated
        working = (state if state is not None else self.state).copy()
        data_values = read_data_sources(self.resilient, graph, working)
        # only a configuration this engine parsed is known not to be
        # edited in place between two plans: any other has no basis
        ours = (
            self._last_compile is not None
            and compiled.config is self._last_compile[1]
        )
        from ..graph.impact import PlanBasis, values_digest

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
            from ..graph.plan import Action

            self._plan_basis = PlanBasis(
                config=compiled.config,
                variables=dict(compiled.variables or {}),
                data_digest=data_digest,
                noop={
                    address: change.prior
                    for address, change in plan.changes.items()
                    if change.action is Action.NOOP and change.prior is not None
                },
                artifact=compiled.artifact,
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
            scope = change_scope(
                graph,
                delta,
                state,
                proven=basis.noop,
                provider_lookup=self.gateway.provider_of,
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
        validate_first: bool = True,
        admit: bool = True,
        checkpoint: bool = True,
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
        from ..deploy.recovery import CrashRecovery
        from ..deploy.wal import IntentJournal

        journal = IntentJournal.resume(self.wal_path)
        recovery: Optional[RecoveryReport] = None
        if journal.run_id is not None and journal.records():
            recovery = CrashRecovery(self.gateway, journal).recover(self.state)
        if sources is None:
            sources = self.last_sources
        if variables is None:
            variables = dict(self.last_variables)
        result = self.apply(
            sources,
            variables=variables,
            validate_first=validate_first,
            admit=admit,
            checkpoint=checkpoint,
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
        for cid, node in plan.graph.nodes.items():
            if node is None or node.address.mode != "managed":
                continue
            entry = self.state.get(node.address)
            if entry is None:
                continue
            deps = plan.graph.managed_dependencies(cid)
            if deps and list(entry.dependencies) != deps:
                self.state.set(entry.replace(dependencies=deps))
                changed = True
        if changed:
            self.state.bump()

    # -- observe / repair -------------------------------------------------------------

    def watch(self) -> DetectionRun:
        """One drift-detection poll over the activity logs."""
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
        policy: Optional[Dict[str, str]] = None,
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
        watcher = self.continuous_watcher
        if watcher is None:
            from ..drift.watcher import DriftWatcher

            watcher = self.continuous_watcher = DriftWatcher(
                self.resilient,
                health=self.health,
                policy=policy,
                max_lag_s=max_lag_s,
                auto_reconcile=auto_reconcile,
                detector=self.watcher,
            )
        else:
            watcher.max_lag_s = max_lag_s
            watcher.auto_reconcile = auto_reconcile
            if policy:
                watcher.reconciler.policy.update(policy)
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

        reconciler = Reconciler(self.resilient, policy=policy)
        return reconciler.reconcile(findings, self.state)

    def rollback(self, version: int) -> RollbackResult:
        """Reversibility-aware rollback to a snapshot version."""
        from ..update.rollback import ReversibilityAwareRollback

        snapshot = self.history.get(version)
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
                    DeploymentExample.from_config(config, self.registry)
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

        project = StructuredImporter(self.registry).import_estate(
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
        project = StructuredImporter(self.registry).import_estate(
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
