"""Builds the resource dependency graph from a configuration.

This is the step Terraform calls "graph construction" (paper 2.1): the
module tree is expanded, ``count``/``for_each`` are resolved into
concrete instances, and every expression reference is traced --
transitively through locals, module inputs, and module outputs -- to the
resource instances it ultimately depends on.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..addressing import DATA, MANAGED, InstanceKey, ResourceAddress
from ..lang.config import Configuration, ModuleCall, ResourceDecl
from ..lang.context import DeferredResolver, ModuleContext, ResourceResolver
from ..lang.diagnostics import CLCEvalError, DiagnosticSink
from ..lang.evaluator import Evaluator
from ..lang.module_loader import ModuleLoader, NullModuleLoader
from ..lang.references import Reference, extract_references
from ..lang.values import Unknown
from .dag import CycleError, Dag

ModulePath = Tuple[str, ...]


class GraphBuildError(RuntimeError):
    """Raised when the configuration cannot be expanded into a graph."""


def provider_of_type(rtype: str) -> str:
    """The provider a resource type names by its prefix (``aws_vpc`` ->
    ``aws``): the lookup of a planner nobody gave a catalog."""
    return rtype.split("_", 1)[0]


@dataclasses.dataclass
class ResourceNode:
    """One resource *instance* in the dependency graph."""

    address: ResourceAddress
    decl: ResourceDecl
    context: ModuleContext
    instance_key: InstanceKey = None

    @property
    def id(self) -> str:
        return str(self.address)

    def instance_bindings(self) -> Dict[str, Any]:
        """The ``count.index`` / ``each`` overlay for this instance."""
        if isinstance(self.instance_key, int):
            return {"count": {"index": self.instance_key}}
        if isinstance(self.instance_key, str):
            each_value = self._each_value()
            return {"each": {"key": self.instance_key, "value": each_value}}
        return {}

    def _each_value(self) -> Any:
        assert isinstance(self.instance_key, str)
        if self.decl.for_each is None:
            return self.instance_key
        collection = Evaluator(self.context.scope()).evaluate(self.decl.for_each)
        if isinstance(collection, dict):
            return collection.get(self.instance_key, self.instance_key)
        return self.instance_key

    def provider_keys(
        self, default: Callable[[str], str] = provider_of_type
    ) -> List[str]:
        """Keys of the module's ``provider`` blocks that configure this
        instance, first match wins: the one its ``provider``
        meta-argument names (an alias falls back to the plain block),
        else ``default(type)``."""
        key = self.decl.provider or default(self.address.type)
        return [key, key.split(".", 1)[0]] if "." in key else [key]

    def evaluate_attrs(self) -> Dict[str, Any]:
        """Evaluate the instance's configured attributes (may contain
        Unknowns when dependencies are not yet created)."""
        evaluator = Evaluator(self.context.scope(self.instance_bindings()))
        return {
            name: evaluator.evaluate(attr.expr)
            for name, attr in self.decl.body.attributes.items()
        }


@dataclasses.dataclass
class _ModuleNode:
    path: ModulePath
    config: Configuration
    context: ModuleContext
    parent: Optional["_ModuleNode"] = None
    call: Optional[ModuleCall] = None
    children: Dict[str, "_ModuleNode"] = dataclasses.field(default_factory=dict)


class ResourceGraph:
    """The expanded instance graph + node payloads."""

    def __init__(self) -> None:
        self.dag: Dag[str] = Dag()
        self.nodes: Dict[str, ResourceNode] = {}
        #: (module_path, mode, type, name) -> instance node ids
        self.decl_instances: Dict[Tuple, List[str]] = {}
        self.root_context: Optional[ModuleContext] = None
        #: the resolver installed in module contexts; when it is a
        #: DeferredResolver the planner binds it to a state-backed one
        self.binding_resolver: Optional[ResourceResolver] = None

    def add_node(self, node: ResourceNode) -> None:
        self.nodes[node.id] = node
        self.dag.add_node(node.id)
        key = (
            node.address.module_path,
            node.address.mode,
            node.address.type,
            node.address.name,
        )
        self.decl_instances.setdefault(key, []).append(node.id)

    def node(self, node_id: str) -> ResourceNode:
        return self.nodes[node_id]

    def managed_ids(self) -> List[str]:
        return sorted(
            nid for nid, n in self.nodes.items() if n.address.mode == MANAGED
        )

    def data_ids(self) -> List[str]:
        return sorted(nid for nid, n in self.nodes.items() if n.address.mode == DATA)

    def managed_dependencies(self, node_id: str) -> List[str]:
        """The managed instances ``node_id`` waits for, sorted: what
        state records as the entry's ``dependencies``."""
        return sorted(
            p
            for p in self.dag.predecessors(node_id)
            if self.nodes.get(p) is not None
            and self.nodes[p].address.mode == MANAGED
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes


class GraphBuilder:
    """Expands a configuration into a :class:`ResourceGraph`."""

    def __init__(
        self,
        config: Configuration,
        variables: Optional[Dict[str, Any]] = None,
        loader: Optional[ModuleLoader] = None,
        resolver: Optional[ResourceResolver] = None,
    ):
        self.config = config
        self.variables = variables or {}
        self.loader = loader or NullModuleLoader()
        self.resolver = resolver or DeferredResolver()
        self.diagnostics = DiagnosticSink()
        self._dep_cache: Dict[Tuple, Set[str]] = {}
        self._dep_in_progress: Set[Tuple] = set()

    def build(self) -> ResourceGraph:
        if self.config.diagnostics.has_errors():
            first = self.config.diagnostics.errors[0]
            raise GraphBuildError(f"configuration has errors: {first.message}")
        graph = ResourceGraph()
        root = self._build_module_tree()
        graph.root_context = root.context
        graph.binding_resolver = self.resolver
        modules = self._flatten_modules(root)
        # phase 1: expand every resource decl into instances
        for mnode in modules:
            for decl in mnode.config.resources.values():
                for key in self._expand_keys(mnode, decl):
                    address = ResourceAddress(
                        type=decl.type,
                        name=decl.name,
                        module_path=mnode.path,
                        mode=decl.mode,
                        instance_key=key,
                    )
                    graph.add_node(
                        ResourceNode(
                            address=address,
                            decl=decl,
                            context=mnode.context,
                            instance_key=key,
                        )
                    )
        # phase 2: wire dependency edges
        for mnode in modules:
            for decl in mnode.config.resources.values():
                decl_key = (mnode.path, decl.mode, decl.type, decl.name)
                instance_ids = graph.decl_instances.get(decl_key, [])
                dep_addrs: Set[str] = set()
                for ref in decl.references():
                    dep_addrs |= self._deps_of_reference(mnode, ref, graph)
                for dep in sorted(dep_addrs):
                    for nid in instance_ids:
                        if dep != nid:
                            graph.dag.add_edge(dep, nid)
        try:
            graph.dag.validate_acyclic()
        except CycleError as exc:
            raise GraphBuildError(str(exc))
        return graph

    # -- module tree ------------------------------------------------------

    def _build_module_tree(self) -> _ModuleNode:
        root_ctx = ModuleContext(
            self.config,
            variables=self.variables,
            loader=self.loader,
            resolver=self.resolver,
        )
        root = _ModuleNode(path=(), config=self.config, context=root_ctx)
        self._expand_children(root)
        return root

    def _expand_children(self, mnode: _ModuleNode) -> None:
        for call_name in sorted(mnode.config.module_calls):
            call = mnode.config.module_calls[call_name]
            try:
                child_ctx = mnode.context.child_context(call_name)
            except CLCEvalError as exc:
                raise GraphBuildError(
                    f"module {'.'.join(mnode.path + (call_name,))}: {exc.message}"
                )
            child = _ModuleNode(
                path=mnode.path + (call_name,),
                config=child_ctx.config,
                context=child_ctx,
                parent=mnode,
                call=call,
            )
            mnode.children[call_name] = child
            self._expand_children(child)

    def _flatten_modules(self, root: _ModuleNode) -> List[_ModuleNode]:
        out: List[_ModuleNode] = []
        stack = [root]
        while stack:
            mnode = stack.pop()
            out.append(mnode)
            stack.extend(mnode.children[name] for name in sorted(mnode.children))
        return out

    # -- count / for_each expansion ---------------------------------------------

    def _expand_keys(
        self, mnode: _ModuleNode, decl: ResourceDecl
    ) -> List[InstanceKey]:
        evaluator = Evaluator(mnode.context.scope())
        if decl.count is not None:
            value = evaluator.evaluate(decl.count)
            if isinstance(value, Unknown):
                raise GraphBuildError(
                    f"{decl.address}: 'count' depends on values not known "
                    f"until apply"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise GraphBuildError(f"{decl.address}: 'count' must be a number")
            count = int(value)
            if count < 0:
                raise GraphBuildError(f"{decl.address}: 'count' must be >= 0")
            return list(range(count))
        if decl.for_each is not None:
            value = evaluator.evaluate(decl.for_each)
            if isinstance(value, Unknown):
                raise GraphBuildError(
                    f"{decl.address}: 'for_each' depends on values not known "
                    f"until apply"
                )
            if isinstance(value, dict):
                return sorted(value.keys())
            if isinstance(value, list):
                keys: List[InstanceKey] = []
                for item in value:
                    if not isinstance(item, str):
                        raise GraphBuildError(
                            f"{decl.address}: 'for_each' set elements must be "
                            f"strings"
                        )
                    if item in keys:
                        raise GraphBuildError(
                            f"{decl.address}: duplicate for_each key {item!r}"
                        )
                    keys.append(item)
                return sorted(keys)
            raise GraphBuildError(f"{decl.address}: 'for_each' must be map or set")
        return [None]

    # -- transitive reference resolution ---------------------------------------

    def _deps_of_reference(
        self, mnode: _ModuleNode, ref: Reference, graph: ResourceGraph
    ) -> Set[str]:
        cache_key = (mnode.path, ref.kind, ref.type, ref.name)
        if cache_key in self._dep_cache:
            return self._dep_cache[cache_key]
        if cache_key in self._dep_in_progress:
            raise GraphBuildError(
                f"reference cycle through {ref} in module "
                f"{'.'.join(mnode.path) or '<root>'}"
            )
        self._dep_in_progress.add(cache_key)
        try:
            deps = self._deps_uncached(mnode, ref, graph)
        finally:
            self._dep_in_progress.discard(cache_key)
        self._dep_cache[cache_key] = deps
        return deps

    def _deps_uncached(
        self, mnode: _ModuleNode, ref: Reference, graph: ResourceGraph
    ) -> Set[str]:
        if ref.kind in ("resource", "data"):
            mode = MANAGED if ref.kind == "resource" else DATA
            decl_key = (mnode.path, mode, ref.type, ref.name)
            ids = graph.decl_instances.get(decl_key)
            if ids is None:
                self.diagnostics.error(
                    f"reference to undeclared {ref} in module "
                    f"{'.'.join(mnode.path) or '<root>'}",
                    code="GRAPH001",
                )
                return set()
            return set(ids)
        if ref.kind == "local":
            attr = mnode.config.locals.get(ref.name)
            if attr is None:
                self.diagnostics.error(
                    f"reference to undeclared local.{ref.name}", code="GRAPH002"
                )
                return set()
            deps: Set[str] = set()
            for sub in sorted(extract_references(attr.expr)):
                deps |= self._deps_of_reference(mnode, sub, graph)
            return deps
        if ref.kind == "var":
            if mnode.parent is None or mnode.call is None:
                return set()
            arg = mnode.call.body.attributes.get(ref.name)
            if arg is None:
                return set()
            deps = set()
            for sub in sorted(extract_references(arg.expr)):
                deps |= self._deps_of_reference(mnode.parent, sub, graph)
            return deps
        if ref.kind == "module":
            child = mnode.children.get(ref.name)
            if child is None:
                self.diagnostics.error(
                    f"reference to undeclared module.{ref.name}", code="GRAPH003"
                )
                return set()
            outputs = child.config.outputs
            targets = (
                [outputs[ref.attr]]
                if ref.attr and ref.attr in outputs
                else list(outputs.values())
            )
            deps = set()
            for output in targets:
                for sub in sorted(extract_references(output.value)):
                    deps |= self._deps_of_reference(child, sub, graph)
            # module-level depends_on in the call
            if mnode.children[ref.name].call is not None:
                for dref in mnode.children[ref.name].call.depends_on:
                    deps |= self._deps_of_reference(mnode, dref, graph)
            return deps
        return set()


def build_graph(
    config: Configuration,
    variables: Optional[Dict[str, Any]] = None,
    loader: Optional[ModuleLoader] = None,
    resolver: Optional[ResourceResolver] = None,
) -> ResourceGraph:
    """Convenience wrapper around :class:`GraphBuilder`."""
    return GraphBuilder(config, variables, loader, resolver).build()
