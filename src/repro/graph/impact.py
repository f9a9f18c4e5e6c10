"""Impact-scope analysis for incremental updates (3.3).

"Modifications to individual resources have a limited impact, affecting
only a small subset of successor and predecessor nodes in the resource
dependency graph." This module computes that subset, so incremental
plans refresh and re-diff only what a change can actually touch, instead
of querying all cloud-level resource state from scratch.

One rule, two callers: :func:`diff_configurations` says which
declarations are not what they were, :func:`change_scope` turns that
(plus what the state says) into the addresses a plan must diff.
:class:`~repro.deploy.incremental.UpdatePipeline` plans an update with
them; a :class:`~repro.core.engine.CloudlessEngine` plans with them
against its :class:`PlanBasis` -- the one its own last plan left, or
the one a world file's record of the last process's woke.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from ..addressing import DATA, MANAGED
from ..lang.ast_nodes import Attribute, Body
from ..lang.config import Configuration, ResourceDecl
from ..lang.references import body_references, extract_references
from ..state.document import ResourceState, StateDocument
from .builder import ResourceGraph, provider_of_type


@dataclasses.dataclass
class ConfigDelta:
    """Declarations that differ between two configuration versions.

    Keys are ``(mode, type, name)`` decl keys in the root module; module
    calls that changed are tracked separately (a changed module call
    taints every resource inside that module instance), and so are
    ``provider`` blocks, by their ``name`` / ``name.alias`` key.
    """

    changed_resources: Set[Tuple[str, str, str]] = dataclasses.field(
        default_factory=set
    )
    changed_locals: Set[str] = dataclasses.field(default_factory=set)
    changed_variables: Set[str] = dataclasses.field(default_factory=set)
    changed_modules: Set[str] = dataclasses.field(default_factory=set)
    changed_providers: Set[str] = dataclasses.field(default_factory=set)

    @property
    def is_empty(self) -> bool:
        return not (
            self.changed_resources
            or self.changed_locals
            or self.changed_variables
            or self.changed_modules
            or self.changed_providers
        )


@dataclasses.dataclass
class PlanBasis:
    """What one plan was computed from and what it proved, kept so the
    next plan re-diffs only what is not provably the same.

    Holds no graph, context or resolver: a configuration, plain values
    and state entries, all of which the engine holds anyway. That is
    also what lets one outlive its process: the configuration is a
    compile-cache artifact's, the entries are a world file's, and the
    rest is the record :mod:`repro.persist` writes beside the state."""

    config: Configuration
    variables: Dict[str, Any]
    #: :func:`values_digest` of the data-source reads it was planned with
    data_digest: str
    #: address -> the sealed state entry that plan found it ``NOOP``
    #: against; entries are immutable, so the same entry *is* the same
    #: resource as it was then
    noop: Dict[str, ResourceState]
    #: the compile-cache artifact that holds ``config`` -- ``{"key":
    #: ..., "source_sha": {file: sha256}}`` -- when one does: what a
    #: world file names the proof by
    artifact: Optional[Dict[str, Any]] = None


def same_values(a: Any, b: Any) -> bool:
    """Whether two JSON-shaped values are the same to an expression
    (``1``, ``1.0`` and ``true`` are three values)."""
    return a is b or _value_text(a) == _value_text(b)


def values_digest(value: Any) -> str:
    """A JSON-shaped value's digest: equal for what :func:`same_values`
    calls the same."""
    return hashlib.sha256(_value_text(value).encode()).hexdigest()


def _value_text(value: Any) -> str:
    try:
        return json.dumps(value, sort_keys=True, default=repr)
    except (TypeError, ValueError):
        return repr(value)


def _changed(old: Mapping, new: Mapping, fingerprint: Callable[[Any], Any]) -> set:
    """Keys whose declaration is not what it was. Equality first: an
    unchanged chunk of a re-parse is the same AST objects, which compare
    by identity; one that only moved compares by structure."""
    out = set()
    for key in old.keys() | new.keys():
        o, n = old.get(key), new.get(key)
        if o is None or n is None or (o != n and fingerprint(o) != fingerprint(n)):
            out.add(key)
    return out


def diff_configurations(
    old: Configuration,
    new: Configuration,
    old_variables: Optional[Mapping[str, Any]] = None,
    new_variables: Optional[Mapping[str, Any]] = None,
) -> ConfigDelta:
    """Structural diff of two parsed configurations (root module). A
    variable given a different value counts as changed."""
    delta = ConfigDelta()
    if old is not new:
        delta.changed_resources = _changed(
            old.resources, new.resources, _decl_fingerprint
        )
        delta.changed_locals = _changed(old.locals, new.locals, _expr_fingerprint)
        delta.changed_variables = _changed(
            old.variables,
            new.variables,
            lambda v: (v.type_constraint, _expr_fp(v.default)),
        )
        delta.changed_modules = _changed(
            old.module_calls,
            new.module_calls,
            lambda m: _body_fingerprint(m.body) + (m.source,),
        )
        delta.changed_providers = _changed(
            old.providers, new.providers, lambda p: _body_fingerprint(p.body)
        )
    was, now = old_variables or {}, new_variables or {}
    for name in was.keys() | now.keys():
        if name not in was or name not in now or not same_values(was[name], now[name]):
            delta.changed_variables.add(name)
    return delta


class ImpactAnalyzer:
    """Maps a config delta (or touched addresses) to the affected
    subgraph of resource instances."""

    def __init__(self, graph: ResourceGraph):
        self.graph = graph

    def seeds_from_delta(
        self,
        delta: ConfigDelta,
        provider_lookup: Callable[[str], str] = provider_of_type,
    ) -> Set[str]:
        """Instance addresses a config delta reaches without the graph's
        edges: instances of changed declarations, and of declarations
        that mention something changed."""
        graph = self.graph
        seeds: Set[str] = set()
        for mode, rtype, name in delta.changed_resources:
            seeds.update(graph.decl_instances.get(((), mode, rtype, name), ()))
            # removed declarations have no instances in the new graph but
            # their state entries will be deletions; change_scope unions
            # in the addresses that live only in state
        if delta.is_empty or graph.root_context is None:
            return seeds
        config = graph.root_context.config
        # what a changed declaration is mentioned as (Reference.key)
        changed = {("var", "", name) for name in delta.changed_variables}
        changed.update(("local", "", name) for name in delta.changed_locals)
        changed.update(("module", "", name) for name in delta.changed_modules)
        changed.update(
            ("data" if mode == DATA else "resource", rtype, name)
            for mode, rtype, name in delta.changed_resources
        )
        # a local or a module call that reads something changed has
        # changed too, and so on through local -> local chains
        readers = {
            ("local", "", name): extract_references(attr.expr)
            for name, attr in config.locals.items()
        }
        for name, call in config.module_calls.items():
            readers[("module", "", name)] = call.references()
        for key in changed:
            readers.pop(key, None)
        grew = True
        while grew:
            grew = False
            for key, refs in list(readers.items()):
                if any(ref.key in changed for ref in refs):
                    changed.add(key)
                    del readers[key]
                    grew = True
        providers = set(delta.changed_providers)
        for key, block in config.providers.items():
            if any(ref.key in changed for ref in body_references(block.body)):
                providers.add(key)
        for nid, node in graph.nodes.items():
            path = node.address.module_path
            if path:
                # a module's text is not diffed: all of it or none
                if ("module", "", path[0]) in changed:
                    seeds.add(nid)
            elif any(ref.key in changed for ref in node.decl.references()) or (
                providers
                and not providers.isdisjoint(node.provider_keys(provider_lookup))
            ):
                seeds.add(nid)
        return seeds

    def impact_scope(
        self, seeds: Set[str], include_ancestors: bool = False
    ) -> Set[str]:
        """Seeds plus everything that could observe their change.

        Descendants must be re-planned (their inputs may change).
        Ancestors are only needed for *evaluation* (their state values
        feed expressions), not re-planning -- included on request.
        """
        scope: Set[str] = set()
        for seed in seeds:
            if seed not in self.graph.dag:
                scope.add(seed)
                continue
            scope.add(seed)
            scope |= self.graph.dag.descendants(seed)
            if include_ancestors:
                scope |= self.graph.dag.ancestors(seed)
        return scope

    def scope_fraction(self, seeds: Set[str]) -> float:
        """|impact scope| / |graph| -- the paper's claimed savings lever."""
        if not self.graph.nodes:
            return 0.0
        return len(self.impact_scope(seeds)) / len(self.graph.nodes)


def change_scope(
    graph: ResourceGraph,
    delta: ConfigDelta,
    state: StateDocument,
    proven: Optional[Mapping[str, ResourceState]] = None,
    provider_lookup: Callable[[str], str] = provider_of_type,
) -> Set[str]:
    """The addresses a plan of ``graph`` against ``state`` must diff,
    for ``Planner.plan(limit_to=...)``; every other node is a no-op.

    Seeds: what ``delta`` reaches; addresses that live only in state
    (deletions); and managed nodes the state cannot vouch for -- with no
    entry, or, given ``proven`` (a :class:`PlanBasis`'s record), whose
    entry is not the very one an earlier plan found no-op. The scope is
    the seeds closed under ``dag.descendants``."""
    analyzer = ImpactAnalyzer(graph)
    seeds = analyzer.seeds_from_delta(delta, provider_lookup)
    entries = state.entries_map()
    nodes = graph.nodes
    for address, entry in entries.items():
        if address not in nodes and entry.address.mode == MANAGED:
            seeds.add(address)
    for nid, node in nodes.items():
        if node.address.mode != MANAGED:
            continue
        entry = entries.get(nid)
        if entry is None or (proven is not None and proven.get(nid) is not entry):
            seeds.add(nid)
    return analyzer.impact_scope(seeds)


# -- structural fingerprints -------------------------------------------------


def _decl_fingerprint(decl: ResourceDecl) -> tuple:
    return (
        decl.mode,
        decl.type,
        decl.name,
        _body_fingerprint(decl.body),
        _expr_fp(decl.count),
        _expr_fp(decl.for_each),
        tuple(str(r) for r in decl.depends_on),
        decl.provider,
        dataclasses.astuple(decl.lifecycle),
    )


def _body_fingerprint(body: Body) -> tuple:
    attrs = tuple(
        (name, _expr_fingerprint(attr)) for name, attr in sorted(body.attributes.items())
    )
    blocks = tuple(
        (b.type, tuple(b.labels), _body_fingerprint(b.body)) for b in body.blocks
    )
    return (attrs, blocks)


def _expr_fingerprint(attr: Attribute) -> str:
    return _expr_fp(attr.expr)


def _expr_fp(expr) -> str:
    """Cheap structural fingerprint of an expression AST."""
    if expr is None:
        return ""
    from ..lang.ast_nodes import (
        AttrAccess,
        BinaryOp,
        Conditional,
        ForExpr,
        FunctionCall,
        IndexAccess,
        ListExpr,
        Literal,
        ObjectExpr,
        ScopeRef,
        SplatExpr,
        TemplateExpr,
        UnaryOp,
    )

    if isinstance(expr, Literal):
        return f"lit({expr.value!r})"
    if isinstance(expr, ScopeRef):
        return f"ref({expr.name})"
    if isinstance(expr, AttrAccess):
        return f"{_expr_fp(expr.obj)}.{expr.name}"
    if isinstance(expr, IndexAccess):
        return f"{_expr_fp(expr.obj)}[{_expr_fp(expr.index)}]"
    if isinstance(expr, SplatExpr):
        return f"{_expr_fp(expr.obj)}[*].{'.'.join(expr.attrs)}"
    if isinstance(expr, FunctionCall):
        args = ",".join(_expr_fp(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, UnaryOp):
        return f"{expr.op}{_expr_fp(expr.operand)}"
    if isinstance(expr, BinaryOp):
        return f"({_expr_fp(expr.left)}{expr.op}{_expr_fp(expr.right)})"
    if isinstance(expr, Conditional):
        return (
            f"({_expr_fp(expr.cond)}?{_expr_fp(expr.then)}:"
            f"{_expr_fp(expr.otherwise)})"
        )
    if isinstance(expr, TemplateExpr):
        return "tpl(" + "+".join(_expr_fp(p) for p in expr.parts) + ")"
    if isinstance(expr, ListExpr):
        return "[" + ",".join(_expr_fp(i) for i in expr.items) + "]"
    if isinstance(expr, ObjectExpr):
        inner = ",".join(
            f"{_expr_fp(k)}={_expr_fp(v)}" for k, v in expr.entries
        )
        return "{" + inner + "}"
    if isinstance(expr, ForExpr):
        return (
            f"for({expr.key_var},{expr.value_var},{_expr_fp(expr.collection)},"
            f"{_expr_fp(expr.result_key)},{_expr_fp(expr.result_value)},"
            f"{_expr_fp(expr.condition)},{expr.grouping},{expr.is_object})"
        )
    return repr(expr)
