"""Typed configuration model extracted from parsed CLC files.

The parser gives us generic blocks; this module classifies them into
variables, locals, outputs, resources, data sources, module calls, and
provider configurations -- checking structural rules (labels, duplicate
names, known meta-arguments) and collecting diagnostics.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from ..perf import PERF
from .ast_nodes import (
    Attribute,
    Block,
    Body,
    ConfigFile,
    Expr,
    FunctionCall,
    Literal,
    ScopeRef,
)
from .diagnostics import CLCError, DiagnosticSink, SourceSpan
from .references import Reference, body_references, extract_references

if TYPE_CHECKING:
    from .chunker import SourceChunk

# meta-arguments recognised on resource/data blocks
_RESOURCE_META = {"count", "for_each", "depends_on", "provider", "lifecycle"}
_MODULE_META = {"source", "count", "for_each", "depends_on", "providers", "version"}
_PRIMITIVE_TYPES = {"string", "number", "bool", "any"}
_TYPE_CONSTRUCTORS = {"list", "set", "map", "object", "tuple"}


# A Configuration is unpickled, diffed and expanded by verbs that parse
# nothing (an exact artifact hit, the service's resident compile): the
# chunker, the lexer and the parser are imported by the first parse.


def iter_chunks(source: str) -> Iterator[SourceChunk]:
    """:func:`repro.lang.chunker.iter_chunks`."""
    from .chunker import iter_chunks as chunks

    return chunks(source)


@functools.cache
def _parser() -> Any:
    # once, not per chunk: an import statement is ~1.2 us, and a cold
    # parse of the 1,993-resource estate calls parse_file 1,993 times
    from . import parser

    return parser


def parse_file(
    source: str, filename: str = "<config>", start_line: int = 1
) -> ConfigFile:
    """:func:`repro.lang.parser.parse_file`."""
    return _parser().parse_file(source, filename, start_line)


@dataclasses.dataclass
class LifecycleOptions:
    """Subset of Terraform's ``lifecycle`` meta-block we honour."""

    prevent_destroy: bool = False
    create_before_destroy: bool = False
    ignore_changes: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class VariableValidation:
    """One ``validation { condition, error_message }`` rule."""

    condition: Expr
    error_message: str
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)


@dataclasses.dataclass
class VariableDecl:
    name: str
    type_constraint: str = "any"
    default: Optional[Expr] = None
    description: str = ""
    sensitive: bool = False
    validations: List["VariableValidation"] = dataclasses.field(
        default_factory=list
    )
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)


@dataclasses.dataclass
class OutputDecl:
    name: str
    value: Expr
    description: str = ""
    sensitive: bool = False
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)


class _Referencing:
    """``parts()`` and ``references()`` of a declaration with a body,
    ``count``, ``for_each`` and ``depends_on``.

    What is computed from the parsed block alone -- its references, and
    what validation keeps per declaration -- is asked for again by every
    verb of a resident engine, so it is kept beside the parts it was
    computed from: a declaration edited in place (the mutators, the
    auto-repair) no longer holds those parts and answers afresh. The memo
    is no dataclass field and is not pickled -- a compiled artifact is
    the same bytes with or without it."""

    #: a module call has no ``provider`` meta-argument
    provider = ""

    def parts(self) -> Tuple[Any, ...]:
        """The parsed objects this declaration is made of: the same
        tuple, the very object, for as long as it is made of the same
        ones -- which a reused chunk of a re-parse is, and an edited,
        moved or re-parsed block is not. (The span too: a block with an
        empty body has no other part.)"""
        parts = (
            tuple(self.body.attributes.values()),
            tuple(self.body.blocks),
            self.count,
            self.for_each,
            tuple(self.depends_on),
            self.provider,
            self.span,
        )
        memo = getattr(self, "_references", None)
        # tuples compare by identity first: one pass over pointers
        if memo is None or memo[0] != parts:
            memo = self._references = (parts, None)
        return memo[0]

    def references(self) -> Tuple[Reference, ...]:
        """Config objects referenced by the body and the meta-arguments,
        sorted, each once."""
        parts = self.parts()  # forgets the references of other parts
        found = self._references[1]
        if found is None:
            refs = body_references(self.body)
            if self.count is not None:
                refs |= extract_references(self.count)
            if self.for_each is not None:
                refs |= extract_references(self.for_each)
            refs.update(self.depends_on)
            found = tuple(sorted(refs))
            # one attribute for both: a class takes one new attribute
            # name once it has many instances, and an instance that sets
            # a second builds itself a dict (~770 B a declaration)
            self._references = (parts, found)
        return found

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__
        if "_references" in state:
            state = state.copy()
            del state["_references"]
        return state


@dataclasses.dataclass
class ResourceDecl(_Referencing):
    """One ``resource`` or ``data`` block."""

    mode: str  # "managed" | "data"
    type: str
    name: str
    body: Body
    count: Optional[Expr] = None
    for_each: Optional[Expr] = None
    depends_on: List[Reference] = dataclasses.field(default_factory=list)
    provider: str = ""
    lifecycle: LifecycleOptions = dataclasses.field(default_factory=LifecycleOptions)
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.mode, self.type, self.name)

    @property
    def address(self) -> str:
        prefix = "data." if self.mode == "data" else ""
        return f"{prefix}{self.type}.{self.name}"


@dataclasses.dataclass
class ModuleCall(_Referencing):
    name: str
    source: str
    body: Body  # arguments (meta-args removed)
    count: Optional[Expr] = None
    for_each: Optional[Expr] = None
    depends_on: List[Reference] = dataclasses.field(default_factory=list)
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)


@dataclasses.dataclass
class ProviderConfig:
    name: str
    alias: str = ""
    body: Body = dataclasses.field(default_factory=Body)
    span: SourceSpan = dataclasses.field(default_factory=SourceSpan)

    @property
    def key(self) -> str:
        return f"{self.name}.{self.alias}" if self.alias else self.name


class Configuration:
    """All declarations of one module, ready for expansion/evaluation."""

    def __init__(self) -> None:
        self.variables: Dict[str, VariableDecl] = {}
        self.outputs: Dict[str, OutputDecl] = {}
        self.locals: Dict[str, Attribute] = {}
        self.resources: Dict[Tuple[str, str, str], ResourceDecl] = {}
        self.module_calls: Dict[str, ModuleCall] = {}
        self.providers: Dict[str, ProviderConfig] = {}
        self.files: List[ConfigFile] = []
        self.diagnostics = DiagnosticSink()
        #: per-file ordered chunk fingerprints (streaming parses only);
        #: the compiled-artifact cache keys graph validity off these
        self.block_fingerprints: Dict[str, List[str]] = {}
        #: (filename, start line, chunk fingerprint) -> parsed chunk AST,
        #: so a later ``parse_streaming(reuse=this)`` skips re-lexing text
        #: that is unchanged *and* where it was: spans are file-absolute
        self._chunk_asts: Dict[Tuple[str, int, str], ConfigFile] = {}

    # -- lookup helpers ----------------------------------------------------

    def resource(self, rtype: str, name: str, mode: str = "managed") -> Optional[
        ResourceDecl
    ]:
        return self.resources.get((mode, rtype, name))

    def managed_resources(self) -> List[ResourceDecl]:
        return [r for r in self.resources.values() if r.mode == "managed"]

    def resource_types(self) -> set:
        return {r.type for r in self.resources.values()}

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(
        cls, sources: Any, filename: str = "main.clc"
    ) -> "Configuration":
        """Parse source text (or a {filename: source} mapping):
        :meth:`parse_streaming` with nothing to reuse."""
        return cls.parse_streaming(sources, filename)

    @classmethod
    def parse_streaming(
        cls,
        sources: Any,
        filename: str = "main.clc",
        reuse: Optional["Configuration"] = None,
    ) -> "Configuration":
        """Parse declaration-by-declaration instead of file-at-once.

        Each source file is split into top-level chunks (see
        :mod:`repro.lang.chunker`) and every chunk is lexed and parsed
        independently, so peak memory is bounded by the largest chunk's
        token list rather than the whole file's -- the difference
        between streaming and buffering a 1M-resource estate.

        ``reuse`` is a Configuration from a previous streaming parse of
        (mostly) the same text: chunks whose fingerprints match skip
        lexing and parsing entirely and re-classify the cached AST,
        which makes a warm re-parse O(changed declarations). The result
        is the cold parse's -- same declarations, same diagnostics,
        file-absolute source spans.

        The span rule: an AST carries the line numbers it was parsed at,
        so a cached chunk is reused only in the file and at the start
        line it was parsed in. An edit that keeps line counts reuses
        every other chunk; an inserted or deleted line re-parses the
        chunks below it in that file (never more than a cold parse),
        and two byte-identical chunks in one file are two entries. The
        new table holds the chunks of ``sources`` and nothing older.
        """
        if isinstance(sources, str):
            sources = {filename: sources}
        prev = reuse._chunk_asts if reuse is not None else {}
        cfg = cls()
        parsed = 0
        for fname in sorted(sources):
            merged = Body()
            fps: List[str] = []
            for chunk in iter_chunks(sources[fname]):
                fps.append(chunk.fingerprint)
                key = (fname, chunk.start_line, chunk.fingerprint)
                cached = prev.get(key)
                if cached is None:
                    cached = parse_file(
                        chunk.text, fname, start_line=chunk.start_line
                    )
                    parsed += 1
                cfg._chunk_asts[key] = cached
                for name, attr in cached.body.attributes.items():
                    merged.attributes.setdefault(name, attr)
                merged.blocks.extend(cached.body.blocks)
            cfg.block_fingerprints[fname] = fps
            cfg.add_file(ConfigFile(body=merged, filename=fname))
        PERF.count("lang.chunks_parsed", parsed)
        PERF.count("lang.chunks_reused", len(cfg._chunk_asts) - parsed)
        if reuse is not None:
            # a reused chunk classifies into a new declaration over the
            # same block: what the old one knew of its references holds
            for new, old in (
                (cfg.resources, reuse.resources),
                (cfg.module_calls, reuse.module_calls),
            ):
                for key, decl in new.items():
                    was = old.get(key)
                    if was is not None and was.span is decl.span:
                        memo = getattr(was, "_references", None)
                        if memo is not None:
                            decl._references = memo
        return cfg

    def add_file(self, cfile: ConfigFile) -> None:
        self.files.append(cfile)
        for name, attr in cfile.body.attributes.items():
            self.diagnostics.error(
                f"unexpected top-level attribute {name!r}", attr.span, "CLC001"
            )
        for block in cfile.body.blocks:
            self._classify_block(block)

    def _classify_block(self, block: Block) -> None:
        handler = {
            "variable": self._add_variable,
            "output": self._add_output,
            "locals": self._add_locals,
            "resource": self._add_resource,
            "data": self._add_data,
            "module": self._add_module,
            "provider": self._add_provider,
            "terraform": lambda b: None,  # accepted and ignored
        }.get(block.type)
        if handler is None:
            self.diagnostics.error(
                f"unknown block type {block.type!r}", block.span, "CLC002"
            )
            return
        handler(block)

    # -- block handlers -------------------------------------------------------

    def _add_variable(self, block: Block) -> None:
        name = block.label(0)
        if not name or len(block.labels) != 1:
            self.diagnostics.error(
                "variable block wants exactly one label", block.span, "CLC003"
            )
            return
        if name in self.variables:
            self.diagnostics.error(
                f"duplicate variable {name!r}", block.span, "CLC004"
            )
            return
        decl = VariableDecl(name=name, span=block.span)
        type_expr = block.body.attr_expr("type")
        if type_expr is not None:
            constraint = _type_constraint_from_expr(type_expr)
            if constraint is None:
                self.diagnostics.error(
                    "invalid type constraint", type_expr.span, "CLC005"
                )
            else:
                decl.type_constraint = constraint
        decl.default = block.body.attr_expr("default")
        decl.description = _literal_str(block.body.attr_expr("description")) or ""
        sensitive = block.body.attr_expr("sensitive")
        if isinstance(sensitive, Literal) and sensitive.value is True:
            decl.sensitive = True
        for sub in block.body.blocks_of_type("validation"):
            condition = sub.body.attr_expr("condition")
            message = _literal_str(sub.body.attr_expr("error_message"))
            if condition is None:
                self.diagnostics.error(
                    f"variable {name!r}: validation block needs 'condition'",
                    sub.span,
                    "CLC012",
                )
                continue
            decl.validations.append(
                VariableValidation(
                    condition=condition,
                    error_message=message or f"invalid value for var.{name}",
                    span=sub.span,
                )
            )
        self.variables[name] = decl

    def _add_output(self, block: Block) -> None:
        name = block.label(0)
        if not name or len(block.labels) != 1:
            self.diagnostics.error(
                "output block wants exactly one label", block.span, "CLC003"
            )
            return
        if name in self.outputs:
            self.diagnostics.error(f"duplicate output {name!r}", block.span, "CLC004")
            return
        value = block.body.attr_expr("value")
        if value is None:
            self.diagnostics.error(
                f"output {name!r} is missing 'value'", block.span, "CLC006"
            )
            return
        self.outputs[name] = OutputDecl(
            name=name,
            value=value,
            description=_literal_str(block.body.attr_expr("description")) or "",
            span=block.span,
        )

    def _add_locals(self, block: Block) -> None:
        if block.labels:
            self.diagnostics.error(
                "locals block takes no labels", block.span, "CLC003"
            )
            return
        for name, attr in block.body.attributes.items():
            if name in self.locals:
                self.diagnostics.error(
                    f"duplicate local {name!r}", attr.span, "CLC004"
                )
                continue
            self.locals[name] = attr

    def _add_resource(self, block: Block) -> None:
        self._add_resourceish(block, mode="managed")

    def _add_data(self, block: Block) -> None:
        self._add_resourceish(block, mode="data")

    def _add_resourceish(self, block: Block, mode: str) -> None:
        if len(block.labels) != 2:
            self.diagnostics.error(
                f"{block.type} block wants two labels (type, name)",
                block.span,
                "CLC003",
            )
            return
        rtype, name = block.labels
        key = (mode, rtype, name)
        if key in self.resources:
            self.diagnostics.error(
                f"duplicate {block.type} {rtype}.{name}", block.span, "CLC004"
            )
            return
        decl = ResourceDecl(
            mode=mode, type=rtype, name=name, body=Body(), span=block.span
        )
        decl.count = block.body.attr_expr("count")
        decl.for_each = block.body.attr_expr("for_each")
        if decl.count is not None and decl.for_each is not None:
            self.diagnostics.error(
                f"{decl.address}: 'count' and 'for_each' are mutually exclusive",
                block.span,
                "CLC007",
            )
        depends = block.body.attr_expr("depends_on")
        if depends is not None:
            decl.depends_on = _parse_depends_on(depends, self.diagnostics)
        provider_expr = block.body.attr_expr("provider")
        if provider_expr is not None:
            decl.provider = _provider_ref_text(provider_expr) or ""
            if not decl.provider:
                self.diagnostics.error(
                    f"{decl.address}: invalid provider reference",
                    provider_expr.span,
                    "CLC008",
                )
        # copy non-meta attributes & blocks into the decl body
        for name_, attr in block.body.attributes.items():
            if name_ not in _RESOURCE_META:
                decl.body.attributes[name_] = attr
        for sub in block.body.blocks:
            if sub.type == "lifecycle":
                decl.lifecycle = _parse_lifecycle(sub, self.diagnostics)
            else:
                decl.body.blocks.append(sub)
        self.resources[key] = decl

    def _add_module(self, block: Block) -> None:
        name = block.label(0)
        if not name or len(block.labels) != 1:
            self.diagnostics.error(
                "module block wants exactly one label", block.span, "CLC003"
            )
            return
        if name in self.module_calls:
            self.diagnostics.error(f"duplicate module {name!r}", block.span, "CLC004")
            return
        source = _literal_str(block.body.attr_expr("source"))
        if source is None:
            self.diagnostics.error(
                f"module {name!r} is missing a literal 'source'", block.span, "CLC009"
            )
            return
        call = ModuleCall(name=name, source=source, body=Body(), span=block.span)
        call.count = block.body.attr_expr("count")
        call.for_each = block.body.attr_expr("for_each")
        depends = block.body.attr_expr("depends_on")
        if depends is not None:
            call.depends_on = _parse_depends_on(depends, self.diagnostics)
        for name_, attr in block.body.attributes.items():
            if name_ not in _MODULE_META:
                call.body.attributes[name_] = attr
        self.module_calls[name] = call

    def _add_provider(self, block: Block) -> None:
        name = block.label(0)
        if not name or len(block.labels) != 1:
            self.diagnostics.error(
                "provider block wants exactly one label", block.span, "CLC003"
            )
            return
        alias = _literal_str(block.body.attr_expr("alias")) or ""
        pc = ProviderConfig(name=name, alias=alias, body=Body(), span=block.span)
        for name_, attr in block.body.attributes.items():
            if name_ != "alias":
                pc.body.attributes[name_] = attr
        pc.body.blocks = list(block.body.blocks)
        if pc.key in self.providers:
            self.diagnostics.error(
                f"duplicate provider {pc.key!r}", block.span, "CLC004"
            )
            return
        self.providers[pc.key] = pc


# -- small extraction helpers -------------------------------------------------


def _literal_str(expr: Optional[Expr]) -> Optional[str]:
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def _type_constraint_from_expr(expr: Expr) -> Optional[str]:
    """Render a type-constraint expression (``list(string)``) to text."""
    if isinstance(expr, ScopeRef):
        return expr.name if expr.name in _PRIMITIVE_TYPES else None
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value if expr.value in _PRIMITIVE_TYPES else None
    if isinstance(expr, FunctionCall) and expr.name in _TYPE_CONSTRUCTORS:
        if not expr.args:
            return expr.name
        inner = _type_constraint_from_expr(expr.args[0])
        if inner is None:
            return f"{expr.name}(any)"
        return f"{expr.name}({inner})"
    return None


def _provider_ref_text(expr: Expr) -> Optional[str]:
    from .ast_nodes import AttrAccess

    if isinstance(expr, ScopeRef):
        return expr.name
    if isinstance(expr, AttrAccess) and isinstance(expr.obj, ScopeRef):
        return f"{expr.obj.name}.{expr.name}"
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value
    return None


def _parse_depends_on(expr: Expr, sink: DiagnosticSink) -> List[Reference]:
    from .ast_nodes import ListExpr

    refs: List[Reference] = []
    if not isinstance(expr, ListExpr):
        sink.error("depends_on wants a list of references", expr.span, "CLC010")
        return refs
    for item in expr.items:
        found = sorted(extract_references(item))
        if not found:
            sink.error(
                "depends_on entries must be resource references", item.span, "CLC010"
            )
            continue
        refs.extend(found)
    return refs


def _parse_lifecycle(block: Block, sink: DiagnosticSink) -> LifecycleOptions:
    opts = LifecycleOptions()
    for name, attr in block.body.attributes.items():
        if name == "prevent_destroy":
            if isinstance(attr.expr, Literal) and isinstance(attr.expr.value, bool):
                opts.prevent_destroy = attr.expr.value
            else:
                sink.error("prevent_destroy wants a bool literal", attr.span, "CLC011")
        elif name == "create_before_destroy":
            if isinstance(attr.expr, Literal) and isinstance(attr.expr.value, bool):
                opts.create_before_destroy = attr.expr.value
            else:
                sink.error(
                    "create_before_destroy wants a bool literal", attr.span, "CLC011"
                )
        elif name == "ignore_changes":
            from .ast_nodes import ListExpr

            if isinstance(attr.expr, ListExpr):
                for item in attr.expr.items:
                    refs = sorted(extract_references(item))
                    if isinstance(item, Literal) and isinstance(item.value, str):
                        opts.ignore_changes.append(item.value)
                    elif isinstance(item, ScopeRef):
                        opts.ignore_changes.append(item.name)
                    elif refs:
                        opts.ignore_changes.append(str(refs[0]))
            else:
                sink.error("ignore_changes wants a list", attr.span, "CLC011")
        else:
            sink.error(
                f"unknown lifecycle argument {name!r}", attr.span, "CLC011"
            )
    return opts
