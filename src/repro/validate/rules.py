"""Cloud-specific validation rule engine (3.2).

Rules see a :class:`ValidationContext`: every expanded resource instance
with its statically-evaluated attributes (unknowns where values depend
on deployment), plus helpers to follow references between instances.
This is what lets an IaC-level check express "the VM and its NIC must be
in the same region" *before* any resource exists.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from ..cloud.resources import Catalog, simulated_catalog
from ..lang.diagnostics import DiagnosticSink
from ..lang.values import is_plain, is_unknown
from ..perf import PERF

if TYPE_CHECKING:  # imported by the validations that read a program
    from ..graph.builder import ResourceGraph, ResourceNode
    from ..lang.config import Configuration
    from ..lang.module_loader import ModuleLoader
    from ..types.checker import DeclTable


def build_graph(
    config: Configuration,
    variables: Optional[Dict[str, Any]] = None,
    loader: Optional[ModuleLoader] = None,
) -> ResourceGraph:
    """:func:`repro.graph.builder.build_graph`, imported by the
    validation that builds its own graph."""
    from ..graph.builder import build_graph as build

    return build(config, variables, loader)


class ValidationContext:
    """Expanded instances + evaluated attributes for rule checking."""

    def __init__(
        self,
        config: Configuration,
        graph: ResourceGraph,
        catalog: Catalog,
        table: Optional[DeclTable] = None,
    ):
        self.config = config
        self.graph = graph
        self.catalog = catalog
        if table is None:
            from ..types.checker import DeclTable

            table = DeclTable()
        #: where an instance's evaluated attributes are kept; one that
        #: arrives with entries in it holds what the last validation of
        #: these declarations evaluated
        self.table = table

    @classmethod
    def build(
        cls,
        config: Configuration,
        catalog: Optional[Catalog] = None,
        variables: Optional[Dict[str, Any]] = None,
        loader=None,
        table: Optional[DeclTable] = None,
    ) -> "ValidationContext":
        graph = build_graph(config, variables=variables, loader=loader)
        PERF.count("graph.builds")
        return cls(config, graph, catalog or simulated_catalog(), table)

    # -- instance access ---------------------------------------------------

    def instances(self) -> List[ResourceNode]:
        return [self.graph.nodes[nid] for nid in sorted(self.graph.nodes)]

    def instances_of_type(self, rtype: str) -> List[ResourceNode]:
        return [n for n in self.instances() if n.address.type == rtype]

    def attrs_of(self, node: ResourceNode) -> Dict[str, Any]:
        """Evaluated attributes (unknowns for deploy-time values)."""
        entry = self.table.entry(node.address.module_path, node.decl)
        attrs = entry.attrs(node.instance_key)
        if attrs is None:
            try:
                attrs = node.evaluate_attrs()
            except Exception:
                attrs = {}
            self.table.evaluated += 1
            # a reference to a whole resource type evaluates to a lazy
            # mapping over its module context, and through it the graph:
            # nothing that outlives the verb may hold one
            if is_plain(attrs):
                entry.keep_attrs(node.instance_key, attrs)
        return attrs

    def known_attr(self, node: ResourceNode, name: str) -> Any:
        """Attribute value if statically known, else None."""
        value = self.attrs_of(node).get(name)
        if value is None or is_unknown(value):
            return None
        return value

    def attr_or_default(self, node: ResourceNode, name: str) -> Any:
        """known_attr, falling back to the schema default."""
        value = self.known_attr(node, name)
        if value is not None:
            return value
        aspec = self.catalog.attr_spec(node.address.type, name)
        return aspec.default if aspec else None

    def referenced_instances(
        self, node: ResourceNode, attr_name: str
    ) -> List[ResourceNode]:
        """Instances statically referenced by one attribute expression."""
        attr = node.decl.body.attributes.get(attr_name)
        if attr is None:
            return []
        from ..lang.references import extract_references

        out: List[ResourceNode] = []
        for ref in sorted(extract_references(attr.expr)):
            if ref.kind not in ("resource", "data"):
                continue
            mode = "managed" if ref.kind == "resource" else "data"
            key = (node.address.module_path, mode, ref.type, ref.name)
            for nid in self.graph.decl_instances.get(key, []):
                out.append(self.graph.nodes[nid])
        return out

    def span_of(self, node: ResourceNode, attr_name: str = ""):
        attr = node.decl.body.attributes.get(attr_name)
        if attr is not None:
            return attr.span
        return node.decl.span


@dataclasses.dataclass
class RuleInfo:
    """Static description of a rule (for docs and reports)."""

    rule_id: str
    description: str
    provider: str = ""  # "" = provider-agnostic


class Rule:
    """Base class for validation rules."""

    info = RuleInfo("RULE000", "abstract rule")

    def check(self, ctx: ValidationContext, sink: DiagnosticSink) -> None:
        raise NotImplementedError


class DuplicateNameRule(Rule):
    """Two instances of one type sharing a literal name will collide."""

    info = RuleInfo(
        "GEN001", "resource names must be unique within a type and region"
    )

    def check(self, ctx: ValidationContext, sink: DiagnosticSink) -> None:
        seen: Dict[tuple, ResourceNode] = {}
        for node in ctx.instances():
            if node.address.mode != "managed":
                continue
            name = ctx.known_attr(node, "name")
            if not isinstance(name, str):
                continue
            location = ctx.known_attr(node, "location") or ""
            key = (node.address.type, location, name)
            if key in seen:
                sink.error(
                    f"{node.id}: name {name!r} duplicates "
                    f"{seen[key].id} (cloud will reject the second create)",
                    ctx.span_of(node, "name"),
                    self.info.rule_id,
                )
            else:
                seen[key] = node


class DanglingReferenceRule(Rule):
    """References to resource declarations that do not exist."""

    info = RuleInfo("GEN002", "expressions must reference declared resources")

    def check(self, ctx: ValidationContext, sink: DiagnosticSink) -> None:
        for node in ctx.instances():
            for ref in node.decl.references():
                if ref.kind == "resource":
                    key = (node.address.module_path, "managed", ref.type, ref.name)
                elif ref.kind == "data":
                    key = (node.address.module_path, "data", ref.type, ref.name)
                else:
                    continue
                if key not in ctx.graph.decl_instances:
                    sink.error(
                        f"{node.id}: reference to undeclared {ref}",
                        node.decl.span,
                        self.info.rule_id,
                    )


class RuleEngine:
    """Runs a rule set over a context, accumulating diagnostics."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)

    def run(self, ctx: ValidationContext) -> DiagnosticSink:
        sink = DiagnosticSink()
        for rule in self.rules:
            rule.check(ctx, sink)
        return sink

    @classmethod
    def default(cls) -> "RuleEngine":
        """Engine with every built-in generic + provider rule."""
        from .constraints.aws import AWS_RULES
        from .constraints.azure import AZURE_RULES

        return cls(
            [DuplicateNameRule(), DanglingReferenceRule()]
            + list(AWS_RULES)
            + list(AZURE_RULES)
        )
