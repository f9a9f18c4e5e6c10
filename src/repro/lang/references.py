"""Static reference extraction from CLC expressions.

Dependency graphs are built *before* any expression can be evaluated, so
this module walks ASTs and reports which configuration objects an
expression mentions: variables, locals, data sources, managed resources,
and module outputs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Set, Tuple

from .ast_nodes import (
    AttrAccess,
    Body,
    Expr,
    ForExpr,
    IndexAccess,
    ScopeRef,
    SplatExpr,
)

# root identifiers that are *not* resource references
_BUILTIN_ROOTS = {
    "var",
    "local",
    "data",
    "module",
    "count",
    "each",
    "path",
    "self",
    "terraform",
}


@dataclasses.dataclass(frozen=True, order=True)
class Reference:
    """A single reference target.

    ``kind`` is one of ``var | local | data | module | resource``.
    ``type`` is the resource/data type (empty otherwise) and ``name`` the
    declared name (variable name, local name, module call name, ...).
    ``attr`` is the first attribute accessed past the target, if any --
    used by semantic validation to know *which* attribute is consumed.
    """

    kind: str
    type: str
    name: str
    attr: str = ""

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identity of the referenced config object (ignores .attr)."""
        return (self.kind, self.type, self.name)

    def __str__(self) -> str:
        if self.kind == "var":
            return f"var.{self.name}"
        if self.kind == "local":
            return f"local.{self.name}"
        if self.kind == "data":
            return f"data.{self.type}.{self.name}"
        if self.kind == "module":
            return f"module.{self.name}"
        return f"{self.type}.{self.name}"


def _traversal_parts(expr: Expr) -> Optional[List[str]]:
    """Flatten a chain of attribute accesses rooted at a ScopeRef.

    Returns ``None`` when the expression is not a plain traversal (e.g.
    a function call result). Index accesses are transparent --
    ``aws_vm.web[0].id`` reports the same target as ``aws_vm.web.id``.
    """
    parts: List[str] = []
    node = expr
    while True:
        if isinstance(node, AttrAccess):
            parts.append(node.name)
            node = node.obj
        elif isinstance(node, (IndexAccess, SplatExpr)):
            if isinstance(node, SplatExpr):
                parts.extend(reversed(node.attrs))
            node = node.obj
        elif isinstance(node, ScopeRef):
            parts.append(node.name)
            return list(reversed(parts))
        else:
            return None


def _reference_from_parts(parts: List[str], local_names: Set[str]) -> Optional[
    Reference
]:
    root = parts[0]
    if root in local_names:
        return None  # a for-expression loop variable, not a config reference
    if root == "var":
        if len(parts) >= 2:
            return Reference("var", "", parts[1], parts[2] if len(parts) > 2 else "")
        return None
    if root == "local":
        if len(parts) >= 2:
            return Reference(
                "local", "", parts[1], parts[2] if len(parts) > 2 else ""
            )
        return None
    if root == "data":
        if len(parts) >= 3:
            return Reference(
                "data", parts[1], parts[2], parts[3] if len(parts) > 3 else ""
            )
        return None
    if root == "module":
        if len(parts) >= 2:
            return Reference(
                "module", "", parts[1], parts[2] if len(parts) > 2 else ""
            )
        return None
    if root in _BUILTIN_ROOTS:
        return None
    if len(parts) >= 2:
        return Reference(
            "resource", root, parts[1], parts[2] if len(parts) > 2 else ""
        )
    return None


def extract_references(expr: Expr) -> Set[Reference]:
    """All config-object references inside ``expr``."""
    refs: Set[Reference] = set()
    _collect(expr, set(), refs)
    return refs


def _collect(expr: Expr, local_names: Set[str], refs: Set[Reference]) -> None:
    parts = _traversal_parts(expr)
    if parts is not None:
        ref = _reference_from_parts(parts, local_names)
        if ref is not None:
            refs.add(ref)
        # still descend into index expressions hidden inside the traversal
        _descend_indices(expr, local_names, refs)
        return
    if isinstance(expr, ForExpr):
        _collect(expr.collection, local_names, refs)
        inner = set(local_names)
        inner.add(expr.value_var)
        if expr.key_var:
            inner.add(expr.key_var)
        if expr.result_key is not None:
            _collect(expr.result_key, inner, refs)
        _collect(expr.result_value, inner, refs)
        if expr.condition is not None:
            _collect(expr.condition, inner, refs)
        return
    for child in _shallow_children(expr):
        _collect(child, local_names, refs)


def _descend_indices(expr: Expr, local_names: Set[str], refs: Set[Reference]) -> None:
    node = expr
    while True:
        if isinstance(node, AttrAccess):
            node = node.obj
        elif isinstance(node, SplatExpr):
            node = node.obj
        elif isinstance(node, IndexAccess):
            _collect(node.index, local_names, refs)
            node = node.obj
        else:
            return


def _shallow_children(expr: Expr) -> List[Expr]:
    from .ast_nodes import (
        BinaryOp,
        Conditional,
        FunctionCall,
        ListExpr,
        Literal,
        ObjectExpr,
        TemplateExpr,
        UnaryOp,
    )

    if isinstance(expr, TemplateExpr):
        return list(expr.parts)
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, Conditional):
        return [expr.cond, expr.then, expr.otherwise]
    if isinstance(expr, ListExpr):
        return list(expr.items)
    if isinstance(expr, ObjectExpr):
        out: List[Expr] = []
        for key, value in expr.entries:
            out.append(key)
            out.append(value)
        return out
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, (AttrAccess, SplatExpr)):
        return [expr.obj]
    if isinstance(expr, IndexAccess):
        return [expr.obj, expr.index]
    if isinstance(expr, Literal):
        return []
    return []


def body_references(body: Body) -> Set[Reference]:
    """All references made anywhere in a block body (recursively)."""
    refs: Set[Reference] = set()
    for attr in body.attributes.values():
        refs |= extract_references(attr.expr)
    for block in body.blocks:
        refs |= body_references(block.body)
    return refs
