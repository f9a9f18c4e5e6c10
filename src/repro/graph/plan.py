"""Plan computation: desired graph vs. current state -> execution plan.

Mirrors ``terraform plan`` (paper 2.1): every resource instance is
diffed against the golden state and classified CREATE / UPDATE /
REPLACE / DELETE / READ / NOOP; the result carries an execution DAG that
executors walk (sequentially, best-effort, or critical-path-first).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..addressing import DATA, MANAGED, ResourceAddress
from ..lang.context import DeferredResolver
from ..lang.values import Unknown, collect_unknown_origins, is_unknown, values_equal
from ..state.document import ResourceState, StateDocument
from .builder import ResourceGraph, ResourceNode, provider_of_type
from .dag import Dag


class Action(enum.Enum):
    CREATE = "create"
    UPDATE = "update"
    REPLACE = "replace"
    DELETE = "delete"
    READ = "read"
    NOOP = "noop"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: actions that require touching the cloud
ACTIONABLE = {Action.CREATE, Action.UPDATE, Action.REPLACE, Action.DELETE, Action.READ}


class PlanError(RuntimeError):
    """Raised when a plan cannot be produced (e.g. prevent_destroy)."""


def render_value(value: Any) -> str:
    """``repr`` with dict keys sorted at every depth: a value prints the
    same whatever order it was built in (the state holds a resource's
    attrs in insertion order in a running engine, sorted after a
    reload)."""
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda item: str(item[0]))
        return "{" + ", ".join(f"{k!r}: {render_value(v)}" for k, v in items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    return repr(value)


@dataclasses.dataclass
class AttrDiff:
    """One attribute-level difference."""

    name: str
    old: Any
    new: Any
    requires_replacement: bool = False

    def render_old(self) -> str:
        return render_value(self.old)

    def render_new(self) -> str:
        if is_unknown(self.new):
            return "(known after apply)"
        return render_value(self.new)


@dataclasses.dataclass
class PlannedChange:
    """One resource instance's planned action."""

    action: Action
    address: ResourceAddress
    node: Optional[ResourceNode] = None  # None for DELETE of removed resources
    prior: Optional[ResourceState] = None
    desired: Dict[str, Any] = dataclasses.field(default_factory=dict)
    diffs: List[AttrDiff] = dataclasses.field(default_factory=list)
    region: str = ""
    provider: str = ""

    @property
    def id(self) -> str:
        return str(self.address)

    @property
    def rtype(self) -> str:
        return self.address.type

    def replacement_reasons(self) -> List[str]:
        return [d.name for d in self.diffs if d.requires_replacement]


class UndiffedNoop(PlannedChange):
    """A node a scoped plan left out: ``NOOP`` against ``prior`` on the
    caller's proof, not by evaluating it. It reads like the full plan's
    no-op all the same: ``desired`` is evaluated when first read (the
    cost estimate reads it), ``region`` is the prior's."""

    _desired: Optional[Dict[str, Any]] = None

    @property
    def desired(self) -> Dict[str, Any]:
        if self._desired is None:
            assert self.node is not None
            self._desired = self.node.evaluate_attrs()
        return self._desired

    @desired.setter
    def desired(self, value: Dict[str, Any]) -> None:
        self._desired = value or None  # the dataclass default is {}


class ValueResolver:
    """ResourceResolver backed by graph shape + state + apply results.

    At plan time ``overrides`` holds data-source reads; at apply time
    executors add each completed create/update so downstream attribute
    evaluations see real ids instead of Unknowns.
    """

    def __init__(self, graph: ResourceGraph, state: StateDocument):
        self.graph = graph
        self.state = state
        self.overrides: Dict[str, Dict[str, Any]] = {}
        #: addresses whose state values must NOT be used (planned for
        #: replacement -- their computed attrs change at apply)
        self.pending: set = set()
        #: per-declaration resolve cache, decl key -> [kind, instance
        #: nodes in container order, their values or None]; ``None``
        #: until an apply starts (:meth:`cache_declarations`)
        self._decl_cache: Optional[Dict[Tuple, List[Any]]] = None

    def cache_declarations(self) -> None:
        """Start a fresh per-declaration resolve cache; every
        :meth:`PlanExecutor.apply` calls this before it dispatches.

        Uncached, ``resolve()`` re-sorts a declaration's instances and
        re-assembles the container on *every* reference evaluation --
        O(instances) per evaluated attribute, the dominant apply-time
        cost at estate scale. Cached, the container shape is computed
        once and the per-instance values are rebuilt only when an
        instance of that declaration commits (``set_override``) --
        between commits a resolve is a shallow container copy, which
        keeps aliasing identical to the uncached path (each call returns
        a fresh container; per-instance dicts are shared either way).
        """
        self._decl_cache = {}

    def _invalidate(self, address: str) -> None:
        # whatever the graph's contexts memoised from our answers
        # (locals, child-module inputs) is stale from here on
        slot = self.graph.binding_resolver
        if isinstance(slot, DeferredResolver):
            slot.touch()
        if not self._decl_cache:
            return
        node = self.graph.nodes.get(address)
        if node is not None:  # a DELETE of a removed resource has none
            a = node.address
            decl_key = (a.module_path, a.mode, a.type, a.name)
            entry = self._decl_cache.get(decl_key)
            if entry is not None:
                entry[2] = None  # drop values, keep shape

    def set_override(self, address: str, attrs: Dict[str, Any]) -> None:
        self.overrides[address] = dict(attrs)
        self.pending.discard(address)
        self._invalidate(address)

    def drop_override(self, address: str) -> None:
        self.overrides.pop(address, None)
        self._invalidate(address)

    def mark_pending(self, address: str) -> None:
        self.pending.add(address)
        self._invalidate(address)

    def resolve(self, module_path, mode, rtype, name, span=None):
        decl_key = (tuple(module_path), mode, rtype, name)
        # at plan time a throwaway dict stands in: nothing is retained
        cache = self._decl_cache if self._decl_cache is not None else {}
        entry = cache.get(decl_key)
        if entry is None:
            ids = self.graph.decl_instances.get(decl_key)
            if not ids:
                prefix = "data." if mode == DATA else ""
                mods = "".join(f"module.{m}." for m in module_path)
                return Unknown(f"{mods}{prefix}{rtype}.{name}")
            nodes = [self.graph.nodes[i] for i in ids]
            keys = [n.instance_key for n in nodes]
            if keys == [None]:
                entry = ["single", nodes, None]
            elif all(isinstance(k, int) for k in keys):
                nodes.sort(key=lambda n: n.instance_key)
                entry = ["list", nodes, None]
            else:
                entry = ["map", nodes, None]
            cache[decl_key] = entry
        kind, ordered, values = entry
        if values is None:
            values = entry[2] = [self._value_for(n) for n in ordered]
        if kind == "single":
            return values[0]
        if kind == "list":
            return list(values)
        return {str(n.instance_key): v for n, v in zip(ordered, values)}

    def _value_for(self, node: ResourceNode) -> Any:
        addr_text = node.id
        if addr_text in self.overrides:
            return self.overrides[addr_text]
        if addr_text in self.pending:
            return Unknown(addr_text)
        entry = self.state.get(node.address)
        if entry is not None:
            attrs = dict(entry.attrs)
            attrs.setdefault("id", entry.resource_id)
            return attrs
        return Unknown(addr_text)


class Plan:
    """The full set of planned changes plus execution ordering."""

    def __init__(self, graph: ResourceGraph, state: StateDocument):
        self.graph = graph
        self.state = state
        self.changes: Dict[str, PlannedChange] = {}
        self.resolver = ValueResolver(graph, state)
        #: memoized critical-path analyses for this plan, keyed by
        #: (edge set, durations) -- see repro.graph.critical_path.analyze
        self.analysis_cache: Dict[Any, Any] = {}
        # point the graph's module contexts at this plan's resolver so
        # attribute evaluation sees state/apply-time values
        if isinstance(graph.binding_resolver, DeferredResolver):
            graph.binding_resolver.target = self.resolver

    def add(self, change: PlannedChange) -> None:
        self.changes[change.id] = change
        self.analysis_cache.clear()

    def by_action(self, *actions: Action) -> List[PlannedChange]:
        wanted = set(actions)
        return sorted(
            (c for c in self.changes.values() if c.action in wanted),
            key=lambda c: c.id,
        )

    def actionable(self) -> List[PlannedChange]:
        return sorted(
            (c for c in self.changes.values() if c.action in ACTIONABLE),
            key=lambda c: c.id,
        )

    def summary(self) -> Dict[str, int]:
        out = {a.value: 0 for a in Action}
        for change in self.changes.values():
            out[change.action.value] += 1
        return out

    @property
    def is_empty(self) -> bool:
        mutating = {Action.CREATE, Action.UPDATE, Action.REPLACE, Action.DELETE}
        return not any(c.action in mutating for c in self.changes.values())

    def render(self) -> str:
        """Human-readable plan, terraform-style."""
        lines: List[str] = []
        symbol = {
            Action.CREATE: "+",
            Action.UPDATE: "~",
            Action.REPLACE: "-/+",
            Action.DELETE: "-",
            Action.READ: "<=",
        }
        for change in self.actionable():
            lines.append(f"{symbol[change.action]:>3} {change.id}")
            for diff in change.diffs:
                flag = " # forces replacement" if diff.requires_replacement else ""
                lines.append(
                    f"      {diff.name}: {diff.render_old()} -> "
                    f"{diff.render_new()}{flag}"
                )
        summary = self.summary()
        lines.append(
            f"Plan: {summary['create'] + summary['replace']} to add, "
            f"{summary['update']} to change, "
            f"{summary['delete'] + summary['replace']} to destroy."
        )
        return "\n".join(lines)

    def to_dot(self) -> str:
        """DOT rendering of the full resource graph, colored by action."""
        colors = {
            Action.CREATE: "green",
            Action.UPDATE: "orange",
            Action.REPLACE: "red",
            Action.DELETE: "gray",
            Action.READ: "blue",
            Action.NOOP: "black",
        }

        def color(node_id: str) -> str:
            change = self.changes.get(node_id)
            return colors[change.action] if change else "black"

        dag = self.graph.dag.copy()
        for change in self.by_action(Action.DELETE):
            dag.add_node(change.id)
        return dag.to_dot(name="plan", color=color)

    # -- execution ordering -----------------------------------------------------

    def execution_dag(self) -> Dag[str]:
        """DAG over actionable changes; edge u->v means u runs first."""
        dag: Dag[str] = Dag()
        actionable_ids = {c.id for c in self.actionable()}
        for cid in actionable_ids:
            dag.add_node(cid)

        # forward edges among graph-backed (non-delete) changes, with
        # transitive skipping over NOOP nodes
        forward_actions = {Action.CREATE, Action.UPDATE, Action.REPLACE, Action.READ}
        graph_ids = set(self.graph.nodes)
        for cid in actionable_ids:
            change = self.changes[cid]
            if change.action not in forward_actions or cid not in graph_ids:
                continue
            for ancestor in self._actionable_ancestors(cid, forward_actions):
                dag.add_edge(ancestor, cid)

        # deletes run in reverse dependency order (dependents first),
        # using the dependencies recorded in state at apply time
        delete_ids = {
            c.id for c in self.actionable() if c.action is Action.DELETE
        }
        for cid in delete_ids:
            prior = self.changes[cid].prior
            if prior is None:
                continue
            for dep in prior.dependencies:
                if dep in delete_ids and dep != cid:
                    dag.add_edge(cid, dep)  # delete dependent before dependency

        # surviving resources that referenced a to-be-deleted resource
        # must update first (drop the reference), or the cloud refuses
        # the delete with a DependencyViolation
        if delete_ids:
            for change in self.actionable():
                if change.action not in (Action.UPDATE, Action.REPLACE):
                    continue
                prior = change.prior
                if prior is None:
                    continue
                for dep in prior.dependencies:
                    if dep in delete_ids and dep != change.id:
                        dag.add_edge(change.id, dep)
        return dag

    def _actionable_ancestors(
        self, cid: str, forward_actions: Set[Action]
    ) -> Set[str]:
        """Nearest actionable ancestors, skipping through NOOP nodes."""
        out: Set[str] = set()
        seen: Set[str] = set()
        frontier = list(self.graph.dag.predecessors(cid))
        while frontier:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            change = self.changes.get(cur)
            if change is not None and change.action in forward_actions:
                out.add(cur)
            else:
                frontier.extend(self.graph.dag.predecessors(cur))
        return out


class Planner:
    """Computes plans. ``spec_lookup`` maps rtype -> ResourceTypeSpec."""

    def __init__(
        self,
        spec_lookup: Optional[Callable[[str], Any]] = None,
        region_lookup: Optional[Callable[[str, Dict[str, Any]], str]] = None,
        provider_lookup: Optional[Callable[[str], str]] = None,
    ):
        self._spec_lookup = spec_lookup or (lambda rtype: None)
        self._region_lookup = region_lookup or (lambda rtype, attrs: "")
        self._provider_lookup = provider_lookup or provider_of_type

    def _spec(self, rtype: str):
        try:
            return self._spec_lookup(rtype)
        except Exception:
            return None

    # -- main entry --------------------------------------------------------------

    def plan(
        self,
        graph: ResourceGraph,
        state: StateDocument,
        data_values: Optional[Dict[str, Dict[str, Any]]] = None,
        limit_to: Optional[Set[str]] = None,
    ) -> Plan:
        """Diff ``graph`` against ``state``.

        ``data_values``: pre-read data source values (addr -> attrs).
        ``limit_to``: impact-scoped planning -- only these addresses
        (plus deletions among them) are diffed; everything else is NOOP.
        """
        plan = Plan(graph, state)
        for addr_text, attrs in (data_values or {}).items():
            plan.resolver.set_override(addr_text, attrs)

        # data sources become READ actions
        for nid in graph.data_ids():
            node = graph.nodes[nid]
            plan.add(
                PlannedChange(
                    action=Action.READ,
                    address=node.address,
                    node=node,
                    provider=self._provider_lookup(node.address.type),
                )
            )

        # walk managed instances in dependency order so upstream
        # decisions (replace/create) are known when dependents evaluate
        order = [
            nid
            for nid in graph.dag.topological_order()
            if nid in graph.nodes and graph.nodes[nid].address.mode == MANAGED
        ]
        decided: Dict[str, Action] = {}
        for nid in order:
            node = graph.nodes[nid]
            if limit_to is not None and nid not in limit_to:
                prior = state.get(node.address)
                change = UndiffedNoop(
                    action=Action.NOOP,
                    address=node.address,
                    node=node,
                    prior=prior,
                    region=prior.region if prior else "",
                    provider=self._provider_lookup(node.address.type),
                )
                plan.add(change)
                decided[nid] = Action.NOOP
                continue
            change = self._diff_node(node, state, plan, decided)
            plan.add(change)
            decided[nid] = change.action
            if change.action is Action.REPLACE:
                # dependents must see this resource's values as unknown:
                # its computed attributes change when it is recreated
                plan.resolver.mark_pending(nid)

        # deletions: state entries whose address vanished from the graph
        for entry in state.resources():
            addr_text = str(entry.address)
            if entry.address.mode == DATA:
                continue
            if addr_text in graph.nodes:
                continue
            if limit_to is not None and addr_text not in limit_to:
                continue
            plan.add(
                PlannedChange(
                    action=Action.DELETE,
                    address=entry.address,
                    prior=entry,
                    region=entry.region,
                    provider=entry.provider,
                )
            )
        self._check_prevent_destroy(plan)
        return plan

    # -- per-node diff ---------------------------------------------------------

    def _diff_node(
        self,
        node: ResourceNode,
        state: StateDocument,
        plan: Plan,
        decided: Dict[str, Action],
    ) -> PlannedChange:
        try:
            desired = node.evaluate_attrs()
        except Exception as exc:
            raise PlanError(f"{node.id}: cannot evaluate attributes: {exc}")
        prior = state.get(node.address)
        rtype = node.address.type
        spec = self._spec(rtype)
        region = (
            self._provider_config_region(node, desired)
            or self._region_lookup(rtype, desired)
            or (prior.region if prior else "")
        )
        provider = self._provider_lookup(rtype)
        change = PlannedChange(
            action=Action.NOOP,
            address=node.address,
            node=node,
            prior=prior,
            desired=desired,
            region=region,
            provider=provider,
        )
        if prior is None:
            change.action = Action.CREATE
            change.diffs = [
                AttrDiff(name, None, value)
                for name, value in sorted(desired.items())
                if value is not None
            ]
            return change

        ignore = set(node.decl.lifecycle.ignore_changes)
        requires_replace = False
        for name, new_value in sorted(desired.items()):
            if name in ignore or new_value is None:
                continue
            old_value = prior.attrs.get(name)
            if is_unknown(new_value):
                # unknown because an upstream resource is being
                # created/replaced; only a real change if that is so
                origins = collect_unknown_origins(new_value)
                upstream_changing = any(
                    decided.get(origin) in (Action.CREATE, Action.REPLACE)
                    for origin in origins
                ) or not origins
                if upstream_changing:
                    change.diffs.append(AttrDiff(name, old_value, new_value))
                continue
            if not values_equal(old_value, new_value):
                forces = self._forces_replacement(spec, name)
                change.diffs.append(
                    AttrDiff(name, old_value, new_value, requires_replacement=forces)
                )
                requires_replace = requires_replace or forces

        # moving regions always means replacement
        if region and prior.region and region != prior.region:
            change.diffs.append(
                AttrDiff("location", prior.region, region, requires_replacement=True)
            )
            requires_replace = True

        if not change.diffs:
            change.action = Action.NOOP
        elif requires_replace:
            change.action = Action.REPLACE
        else:
            change.action = Action.UPDATE
        return change

    def _provider_config_region(
        self, node: ResourceNode, desired: Dict[str, Any]
    ) -> str:
        """Region from the module's provider block, unless the resource
        pins its own location attribute.

        ``provider "aws" { region = "us-west-2" }`` makes that region
        the default for every aws resource in the module; a resource's
        explicit ``provider = aws.west`` meta-argument selects an
        aliased block.
        """
        location = desired.get("location")
        if isinstance(location, str) and location:
            return ""  # explicit per-resource location wins
        providers = node.context.config.providers
        block = next(
            (
                providers[key]
                for key in node.provider_keys(self._provider_lookup)
                if key in providers
            ),
            None,
        )
        if block is None:
            return ""
        expr = block.body.attr_expr("region") or block.body.attr_expr("location")
        if expr is None:
            return ""
        try:
            from ..lang.evaluator import Evaluator

            value = Evaluator(node.context.scope()).evaluate(expr)
        except Exception:
            return ""
        return value if isinstance(value, str) else ""

    def _forces_replacement(self, spec: Any, attr_name: str) -> bool:
        if spec is None:
            return False
        if attr_name in getattr(spec, "immutable_attrs", ()):
            return True
        aspec = spec.attr(attr_name) if hasattr(spec, "attr") else None
        return bool(aspec is not None and aspec.forces_replacement)

    def _check_prevent_destroy(self, plan: Plan) -> None:
        for change in plan.by_action(Action.DELETE, Action.REPLACE):
            node = change.node
            if node is not None and node.decl.lifecycle.prevent_destroy:
                raise PlanError(
                    f"{change.id}: planned {change.action.value} but lifecycle "
                    f"prevent_destroy is set"
                )


def read_data_sources(
    gateway: Any, graph: ResourceGraph, state: StateDocument
) -> Dict[str, Dict[str, Any]]:
    """Evaluate and read every data source in the graph through
    ``gateway.read_data`` (plan phase): the ``data_values`` a
    :meth:`Planner.plan` takes.

    Reads run in dependency order because one data source's query may
    reference another's result.
    """
    resolver = ValueResolver(graph, state)
    slot = graph.binding_resolver
    if isinstance(slot, DeferredResolver):
        previous = slot.target
        slot.target = resolver
    else:
        previous = None

    values: Dict[str, Dict[str, Any]] = {}
    try:
        for nid in graph.dag.topological_order():
            node = graph.nodes.get(nid)
            if node is None or node.address.mode != DATA:
                continue
            attrs = node.evaluate_attrs()
            region = ""
            location = attrs.get("location") or attrs.get("region")
            if isinstance(location, str):
                region = location
            result = gateway.read_data(node.address.type, attrs, region)
            values[nid] = result
            resolver.set_override(nid, result)
    finally:
        if isinstance(slot, DeferredResolver):
            slot.target = previous
    return values
