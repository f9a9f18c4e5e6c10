"""Semantic type checking of configurations (3.2).

Infers the semantic type every attribute expression *produces* and
checks it against what the resource schema *expects* -- catching, at
compile time, the class of errors the paper highlights: a reference to
the id of the wrong resource type, an enum value the cloud will reject,
a region that does not exist, an invalid CIDR.
"""

from __future__ import annotations

import ipaddress
from typing import Any, Dict, List, Optional, Set, Tuple

from ..lang.ast_nodes import (
    AttrAccess,
    Conditional,
    Expr,
    FunctionCall,
    IndexAccess,
    ListExpr,
    Literal,
    ObjectExpr,
    ScopeRef,
    SplatExpr,
    TemplateExpr,
)
from ..lang.config import Configuration, ResourceDecl
from ..lang.diagnostics import Diagnostic, DiagnosticSink
from .schema import SchemaRegistry
from .semantic import (
    ANY,
    SemanticType,
    compatible,
    expected_semantic,
    literal_semantic,
)

_CIDR_FUNCTIONS = {"cidrsubnet", "cidrhost", "cidrnetmask"}


class DeclEntry:
    """What validation computed from one declaration."""

    __slots__ = ("parts", "types", "_attrs")

    def __init__(self, parts: Tuple[Any, ...]):
        #: ``decl.parts()`` when the rest was computed
        self.parts = parts
        #: the type stage's diagnostics for it, in order; ``None`` until
        #: a type check has reached it
        self.types: Optional[Tuple[Diagnostic, ...]] = None
        # a declaration expands to one instance with no key or to
        # instances with keys, never both: the one's attributes, or a
        # dict of each one's by key
        self._attrs: Any = None

    def attrs(self, instance_key: Any) -> Optional[Dict[str, Any]]:
        """An instance's attributes as validation evaluates them
        (resources still unknown), if a rule has read them."""
        if instance_key is None or self._attrs is None:
            return self._attrs
        return self._attrs.get(instance_key)

    def keep_attrs(self, instance_key: Any, attrs: Dict[str, Any]) -> None:
        if instance_key is None:
            self._attrs = attrs
        elif self._attrs is None:
            self._attrs = {instance_key: attrs}
        else:
            self._attrs[instance_key] = attrs


class DeclTable:
    """Per-declaration products of one validation: the memo of the
    validation that fills it and, kept by a resident engine, where the
    next one starts (:meth:`carry_over`).

    An entry is a function of the parsed block beside it, the registry,
    the variables, the locals and the set of declared names. The table
    vouches for the first only: whoever carries entries from one
    validation into the next answers for the rest."""

    def __init__(self) -> None:
        self.entries: Dict[Tuple[Any, ...], DeclEntry] = {}
        #: declarations type-checked / instances evaluated by the
        #: validation that fills this table, not taken from the last
        self.checked = 0
        self.evaluated = 0

    def entry(self, module_path: Tuple[str, ...], decl: ResourceDecl) -> DeclEntry:
        key = decl.key
        if module_path:
            key = (module_path,) + key
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = DeclEntry(decl.parts())
        return entry

    def carry_over(self, last: "DeclTable", config: Configuration) -> None:
        """Adopt ``last``'s entries for the declarations of ``config``
        that are still made of the very parts they were computed from."""
        for key, decl in config.resources.items():
            entry = last.entries.get(key)
            if entry is not None:
                parts = decl.parts()
                if entry.parts == parts:
                    # the declaration's own tuple, not an equal one of a
                    # configuration that is gone
                    entry.parts = parts
                    self.entries[key] = entry


class TypeChecker:
    """Checks one configuration against a schema registry."""

    def __init__(
        self,
        registry: SchemaRegistry,
        config: Configuration,
        table: Optional[DeclTable] = None,
    ):
        self.registry = registry
        self.config = config
        self.table = table if table is not None else DeclTable()
        self.sink = DiagnosticSink()
        self._local_cache: Dict[str, SemanticType] = {}
        self._local_stack: Set[str] = set()

    def check(self) -> DiagnosticSink:
        found = DiagnosticSink()
        for decl in self.config.resources.values():
            entry = self.table.entry((), decl)
            if entry.types is None:
                self.sink = DiagnosticSink()
                self._check_resource(decl)
                entry.types = tuple(self.sink.diagnostics)
                self.table.checked += 1
            for diagnostic in entry.types:
                found.emit(diagnostic)
        self.sink = found
        return found

    # -- per-resource checks ----------------------------------------------------

    def _check_resource(self, decl: ResourceDecl) -> None:
        spec = self.registry.spec_for(decl.type)
        if spec is None:
            if decl.mode == "managed":
                self.sink.error(
                    f"{decl.address}: unknown resource type {decl.type!r}",
                    decl.span,
                    "TYPE001",
                )
            return
        if decl.mode == "data":
            return  # data lookups have looser shapes
        declared = set(decl.body.attributes)
        for attr_name in declared:
            aspec = spec.attr(attr_name)
            attr = decl.body.attributes[attr_name]
            if aspec is None:
                self.sink.error(
                    f"{decl.address}: unsupported attribute {attr_name!r} "
                    f"for {decl.type}",
                    attr.span,
                    "TYPE002",
                )
                continue
            if aspec.computed:
                self.sink.error(
                    f"{decl.address}: attribute {attr_name!r} is read-only",
                    attr.span,
                    "TYPE003",
                )
                continue
            self._check_attr_value(decl, attr_name, attr.expr, aspec)
        for aspec in spec.required_attrs():
            if aspec.computed:
                continue
            if aspec.name not in declared:
                self.sink.error(
                    f"{decl.address}: missing required attribute "
                    f"{aspec.name!r}",
                    decl.span,
                    "TYPE004",
                )

    def _check_attr_value(
        self, decl: ResourceDecl, attr_name: str, expr: Expr, aspec
    ) -> None:
        expected = expected_semantic(aspec)
        base = aspec.type.split("(")[0]
        where = f"{decl.address}.{attr_name}"

        if base in ("list",) and isinstance(expr, ListExpr):
            for item in expr.items:
                self._check_single(where, item, expected)
            return
        if base in ("list",) and isinstance(expr, SplatExpr):
            produced = self._infer(expr)
            self._report_if_incompatible(where, expr, expected, produced)
            return
        self._check_single(where, expr, expected, base)

    def _check_single(
        self,
        where: str,
        expr: Expr,
        expected: SemanticType,
        base: str = "",
    ) -> None:
        produced = self._infer(expr)
        # literal-specific precision checks
        if isinstance(expr, Literal):
            self._check_literal(where, expr, expected, base)
        self._report_if_incompatible(where, expr, expected, produced)

    def _check_literal(
        self, where: str, expr: Literal, expected: SemanticType, base: str
    ) -> None:
        value = expr.value
        if value is None:
            return
        if base == "number" and (
            isinstance(value, bool) or not isinstance(value, (int, float))
        ):
            self.sink.error(
                f"{where}: expected a number, got {value!r}", expr.span, "TYPE005"
            )
            return
        if base == "bool" and not isinstance(value, bool):
            self.sink.error(
                f"{where}: expected a bool, got {value!r}", expr.span, "TYPE005"
            )
            return
        if expected.kind == "enum" and isinstance(value, str):
            allowed = expected.detail.split("|")
            if value not in allowed:
                self.sink.error(
                    f"{where}: {value!r} is not one of "
                    f"{', '.join(allowed)}",
                    expr.span,
                    "TYPE006",
                )
        if expected.kind == "cidr" and isinstance(value, str):
            try:
                ipaddress.ip_network(value, strict=True)
            except ValueError:
                self.sink.error(
                    f"{where}: {value!r} is not a valid CIDR block",
                    expr.span,
                    "TYPE007",
                )
        if expected.kind == "region" and isinstance(value, str):
            provider = self.registry.provider_of(where.split(".", 1)[0])
            regions = self.registry.regions_of(provider)
            if regions and value not in regions:
                self.sink.error(
                    f"{where}: {value!r} is not a known {provider} region",
                    expr.span,
                    "TYPE008",
                )

    def _report_if_incompatible(
        self, where: str, expr: Expr, expected: SemanticType, produced: SemanticType
    ) -> None:
        if not compatible(expected, produced):
            self.sink.error(
                f"{where}: expected {expected}, but expression produces "
                f"{produced}",
                expr.span,
                "TYPE009",
            )

    # -- semantic inference over expressions ---------------------------------------

    def _infer(self, expr: Expr) -> SemanticType:
        if isinstance(expr, Literal):
            return literal_semantic(expr.value)
        if isinstance(expr, TemplateExpr):
            return SemanticType("plain", base="string")
        if isinstance(expr, FunctionCall):
            if expr.name in _CIDR_FUNCTIONS:
                return SemanticType("cidr")
            return ANY
        if isinstance(expr, Conditional):
            then = self._infer(expr.then)
            other = self._infer(expr.otherwise)
            return then if then == other else ANY
        if isinstance(expr, ListExpr):
            return SemanticType("plain", base="list")
        if isinstance(expr, ObjectExpr):
            return SemanticType("plain", base="map")
        parts = _traversal(expr)
        if parts is not None:
            return self._infer_traversal(parts)
        if isinstance(expr, SplatExpr):
            parts = _traversal(expr.obj)
            if parts is not None and expr.attrs:
                return self._infer_traversal(parts + list(expr.attrs))
        return ANY

    def _infer_traversal(self, parts: List[str]) -> SemanticType:
        root = parts[0]
        if root == "local" and len(parts) >= 2:
            return self._infer_local(parts[1])
        if root == "var":
            return ANY
        if root == "data" and len(parts) >= 4:
            return self.registry.produced(parts[1], parts[3])
        if root in ("count", "each", "module", "path", "data"):
            return ANY
        # resource traversal: TYPE.NAME.attr
        if len(parts) >= 3 and self.registry.spec_for(root) is not None:
            return self.registry.produced(root, parts[2])
        if len(parts) >= 3 and self.config.resource(root, parts[1]) is not None:
            # declared but unknown to the registry
            return ANY
        return ANY

    def _infer_local(self, name: str) -> SemanticType:
        if name in self._local_cache:
            return self._local_cache[name]
        if name in self._local_stack:
            return ANY
        attr = self.config.locals.get(name)
        if attr is None:
            return ANY
        self._local_stack.add(name)
        try:
            result = self._infer(attr.expr)
        finally:
            self._local_stack.discard(name)
        self._local_cache[name] = result
        return result


def _traversal(expr: Expr) -> Optional[List[str]]:
    """Flatten attr/index accesses into name parts (indices skipped)."""
    parts: List[str] = []
    node = expr
    while True:
        if isinstance(node, AttrAccess):
            parts.append(node.name)
            node = node.obj
        elif isinstance(node, IndexAccess):
            node = node.obj
        elif isinstance(node, ScopeRef):
            parts.append(node.name)
            return list(reversed(parts))
        else:
            return None


def check_types(config: Configuration, registry: Optional[SchemaRegistry] = None):
    """Convenience: type-check ``config``, returning the diagnostics."""
    registry = registry or SchemaRegistry.default()
    return TypeChecker(registry, config).check()
