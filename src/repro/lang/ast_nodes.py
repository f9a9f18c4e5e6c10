"""AST node definitions for CLC.

Two families: *expression* nodes (everything to the right of an ``=``)
and *structural* nodes (attributes, blocks, files). All nodes carry a
:class:`~repro.lang.diagnostics.SourceSpan` for error correlation.

Nodes are slotted: a resident service tenant keeps its program's AST
for as long as its session lives, so a node costs its fields and no
``__dict__``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple, Union

from .diagnostics import SourceSpan


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class Literal(Expr):
    """A constant: string, number, bool, or null."""

    value: Any
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class TemplateExpr(Expr):
    """A string with interpolations, e.g. ``"vm-${var.env}"``."""

    parts: List[Expr]  # Literal(str) or arbitrary expressions
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class ScopeRef(Expr):
    """A bare root identifier beginning a traversal, e.g. ``var``."""

    name: str
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class AttrAccess(Expr):
    """``obj.name``"""

    obj: Expr
    name: str
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class IndexAccess(Expr):
    """``obj[index]``"""

    obj: Expr
    index: Expr
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class SplatExpr(Expr):
    """``obj[*].attr1.attr2`` -- project an attribute across a list."""

    obj: Expr
    attrs: List[str]
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class FunctionCall(Expr):
    """``name(arg, ...)``; ``expand_final`` marks a trailing ``...``."""

    name: str
    args: List[Expr]
    expand_final: bool
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class UnaryOp(Expr):
    """``!x`` or ``-x``"""

    op: str
    operand: Expr
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class BinaryOp(Expr):
    """``left <op> right`` for arithmetic/comparison/logic."""

    op: str
    left: Expr
    right: Expr
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class Conditional(Expr):
    """``cond ? then : otherwise``"""

    cond: Expr
    then: Expr
    otherwise: Expr
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class ListExpr(Expr):
    """``[a, b, c]``"""

    items: List[Expr]
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class ObjectExpr(Expr):
    """``{ k = v, ... }`` -- keys are expressions (idents lex as strings)."""

    entries: List[Tuple[Expr, Expr]]
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class ForExpr(Expr):
    """List/map comprehension.

    ``[for k, v in coll : result if cond]`` (is_object=False) or
    ``{for k, v in coll : key => value if cond}`` (is_object=True).
    """

    key_var: Optional[str]
    value_var: str
    collection: Expr
    result_key: Optional[Expr]  # object form only
    result_value: Expr
    condition: Optional[Expr]
    grouping: bool  # `...` after value in object form
    is_object: bool
    span: SourceSpan


# -- structural nodes --------------------------------------------------


@dataclasses.dataclass(slots=True)
class Attribute:
    """``name = expr`` inside a block body."""

    name: str
    expr: Expr
    span: SourceSpan


@dataclasses.dataclass(slots=True)
class Block:
    """``type "label1" "label2" { body }``"""

    type: str
    labels: List[str]
    body: "Body"
    span: SourceSpan

    def label(self, i: int) -> Optional[str]:
        return self.labels[i] if i < len(self.labels) else None


@dataclasses.dataclass(slots=True)
class Body:
    """The contents of a block or file: attributes plus nested blocks."""

    attributes: Dict[str, Attribute] = dataclasses.field(default_factory=dict)
    blocks: List[Block] = dataclasses.field(default_factory=list)

    def blocks_of_type(self, btype: str) -> List[Block]:
        return [b for b in self.blocks if b.type == btype]

    def attr_expr(self, name: str) -> Optional[Expr]:
        attr = self.attributes.get(name)
        return attr.expr if attr else None


@dataclasses.dataclass(slots=True)
class ConfigFile:
    """One parsed CLC source file."""

    body: Body
    filename: str


Node = Union[Expr, Attribute, Block, Body, ConfigFile]


def walk_expr(expr: Expr):
    """Yield ``expr`` and every sub-expression, depth first."""
    yield expr
    if isinstance(expr, TemplateExpr):
        for part in expr.parts:
            yield from walk_expr(part)
    elif isinstance(expr, AttrAccess):
        yield from walk_expr(expr.obj)
    elif isinstance(expr, IndexAccess):
        yield from walk_expr(expr.obj)
        yield from walk_expr(expr.index)
    elif isinstance(expr, SplatExpr):
        yield from walk_expr(expr.obj)
    elif isinstance(expr, FunctionCall):
        for arg in expr.args:
            yield from walk_expr(arg)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, BinaryOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Conditional):
        yield from walk_expr(expr.cond)
        yield from walk_expr(expr.then)
        yield from walk_expr(expr.otherwise)
    elif isinstance(expr, ListExpr):
        for item in expr.items:
            yield from walk_expr(item)
    elif isinstance(expr, ObjectExpr):
        for key, value in expr.entries:
            yield from walk_expr(key)
            yield from walk_expr(value)
    elif isinstance(expr, ForExpr):
        yield from walk_expr(expr.collection)
        if expr.result_key is not None:
            yield from walk_expr(expr.result_key)
        yield from walk_expr(expr.result_value)
        if expr.condition is not None:
            yield from walk_expr(expr.condition)
