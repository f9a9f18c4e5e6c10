"""CLC source emission.

Renders configuration blocks back to CLC text -- the output side of the
porting pipeline (3.1) and of drift-driven config regeneration (3.5).
Values are plain Python data; :class:`RawExpr` wraps expression text
(references, function calls) that must be emitted verbatim.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional, Tuple, Union


@dataclasses.dataclass(frozen=True)
class RawExpr:
    """Verbatim CLC expression text (not a quoted string)."""

    text: str

    def __str__(self) -> str:
        return self.text


Value = Union[None, bool, int, float, str, list, dict, RawExpr]


def render_value(value: Value, indent: int = 0) -> str:
    """Render one attribute value as CLC expression text."""
    pad = "  " * indent
    if isinstance(value, RawExpr):
        return value.text
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        # a cloud string is data: "$${" is the lexer's literal "${"
        return json.dumps(value, ensure_ascii=False).replace("${", "$${")
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = ", ".join(render_value(v, indent) for v in value)
        if len(inner) <= 70:
            return f"[{inner}]"
        lines = ",\n".join(
            f"{pad}  {render_value(v, indent + 1)}" for v in value
        )
        return f"[\n{lines}\n{pad}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        lines = "\n".join(
            f"{pad}  {_render_key(k)} = {render_value(v, indent + 1)}"
            for k, v in value.items()
        )
        return f"{{\n{lines}\n{pad}}}"
    raise TypeError(f"cannot render {type(value).__name__} as CLC")


def _render_key(key: str) -> str:
    if key.isidentifier():
        return key
    return render_value(key)


@dataclasses.dataclass
class EmittedBlock:
    """One top-level block ready for rendering."""

    kind: str  # resource | data | variable | output | module | locals
    labels: List[str]
    attrs: "OrderedAttrs"
    comment: str = ""


OrderedAttrs = List[Tuple[str, Value]]


def emit_block(block: EmittedBlock) -> str:
    """Render one block with aligned attribute assignment."""
    labels = " ".join(json.dumps(l) for l in block.labels)
    header = f"{block.kind} {labels}".rstrip() + " {"
    lines: List[str] = []
    if block.comment:
        lines.append(f"# {block.comment}")
    lines.append(header)
    attrs = [(k, v) for k, v in block.attrs if v is not None or True]
    width = max((len(k) for k, _ in attrs), default=0)
    for key, value in attrs:
        rendered = render_value(value, indent=1)
        lines.append(f"  {key:<{width}} = {rendered}")
    lines.append("}")
    return "\n".join(lines)


def emit_config(blocks: List[EmittedBlock]) -> str:
    """Render a whole file."""
    return "\n\n".join(emit_block(b) for b in blocks) + "\n"


def resource_block(
    rtype: str,
    name: str,
    attrs: OrderedAttrs,
    count: Optional[Value] = None,
    for_each: Optional[Value] = None,
    comment: str = "",
) -> EmittedBlock:
    """Build a resource block, meta-arguments first."""
    ordered: OrderedAttrs = []
    if count is not None:
        ordered.append(("count", count))
    if for_each is not None:
        ordered.append(("for_each", for_each))
    ordered.extend(attrs)
    return EmittedBlock(
        kind="resource", labels=[rtype, name], attrs=ordered, comment=comment
    )


def variable_block(name: str, default: Value = None, vtype: str = "") -> EmittedBlock:
    attrs: OrderedAttrs = []
    if vtype:
        attrs.append(("type", RawExpr(vtype)))
    if default is not None:
        attrs.append(("default", default))
    return EmittedBlock(kind="variable", labels=[name], attrs=attrs)


def module_block(name: str, source: str, args: OrderedAttrs) -> EmittedBlock:
    attrs: OrderedAttrs = [("source", source)]
    attrs.extend(args)
    return EmittedBlock(kind="module", labels=[name], attrs=attrs)
