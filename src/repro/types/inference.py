"""Type discovery from usage corpora (3.2).

The paper proposes deriving semantic types "from IaC usage examples,
IaC documentation, and cloud-level API specifications" so the knowledge
base can track cloud evolution. This module implements the
usage-example half: given a corpus of known-good configurations, it
observes which resource types flow into which attributes and promotes
consistent observations into semantic annotations.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

from ..cloud.resources import AttributeSpec, Catalog, ResourceTypeSpec
from ..lang.ast_nodes import Expr, ListExpr
from ..lang.config import Configuration
from .checker import _traversal


@dataclasses.dataclass
class Observation:
    """One witnessed value flow: attr of rtype received an id of src."""

    rtype: str
    attr: str
    source_type: str
    as_list: bool


@dataclasses.dataclass
class InferredAnnotation:
    """A learned semantic annotation with its evidence."""

    rtype: str
    attr: str
    semantic: str
    support: int
    confidence: float


@dataclasses.dataclass
class InferenceReport:
    annotations: List[InferredAnnotation]
    observations: int

    def annotation_for(self, rtype: str, attr: str) -> Optional[InferredAnnotation]:
        for ann in self.annotations:
            if ann.rtype == rtype and ann.attr == attr:
                return ann
        return None


class SemanticInferencer:
    """Learns ``ref:`` semantics from example configurations."""

    def __init__(self, min_support: int = 2, min_confidence: float = 0.9):
        self.min_support = min_support
        self.min_confidence = min_confidence

    # -- observation collection -----------------------------------------------

    def observe(self, configs: List[Configuration]) -> List[Observation]:
        out: List[Observation] = []
        for config in configs:
            known_decls = {
                (decl.type, decl.name): decl
                for decl in config.resources.values()
                if decl.mode == "managed"
            }
            for decl in config.resources.values():
                if decl.mode != "managed":
                    continue
                for attr_name, attr in decl.body.attributes.items():
                    out.extend(
                        self._observe_expr(
                            decl.type, attr_name, attr.expr, known_decls
                        )
                    )
        return out

    def _observe_expr(
        self,
        rtype: str,
        attr: str,
        expr: Expr,
        known_decls: Dict[Tuple[str, str], object],
    ) -> List[Observation]:
        out: List[Observation] = []
        items: List[Tuple[Expr, bool]]
        if isinstance(expr, ListExpr):
            items = [(item, True) for item in expr.items]
        else:
            items = [(expr, False)]
        for item, as_list in items:
            parts = _traversal(item)
            if parts is None or len(parts) < 3:
                continue
            src_type, src_name, accessed = parts[0], parts[1], parts[2]
            if accessed != "id":
                continue
            if (src_type, src_name) not in known_decls:
                continue
            out.append(
                Observation(
                    rtype=rtype, attr=attr, source_type=src_type, as_list=as_list
                )
            )
        return out

    # -- rule promotion -----------------------------------------------------------

    def infer(self, configs: List[Configuration]) -> InferenceReport:
        observations = self.observe(configs)
        grouped: Dict[Tuple[str, str], List[Observation]] = defaultdict(list)
        for obs in observations:
            grouped[(obs.rtype, obs.attr)].append(obs)
        annotations: List[InferredAnnotation] = []
        for (rtype, attr), group in sorted(grouped.items()):
            counts = Counter(obs.source_type for obs in group)
            top_type, top_count = counts.most_common(1)[0]
            confidence = top_count / len(group)
            if top_count < self.min_support or confidence < self.min_confidence:
                continue
            as_list = sum(1 for o in group if o.as_list) > len(group) / 2
            prefix = "ref_list:" if as_list else "ref:"
            annotations.append(
                InferredAnnotation(
                    rtype=rtype,
                    attr=attr,
                    semantic=prefix + top_type,
                    support=top_count,
                    confidence=confidence,
                )
            )
        return InferenceReport(annotations=annotations, observations=len(observations))

    # -- catalog enrichment ---------------------------------------------------------

    def enrich(self, catalog: Catalog, report: InferenceReport) -> Catalog:
        """A new catalog with learned annotations merged in.

        Learned semantics never *overwrite* authoritative catalog
        entries -- they fill gaps (attrs with no semantic, or resource
        types the catalog has never seen).
        """
        specs: Dict[str, Dict[str, ResourceTypeSpec]] = defaultdict(dict)
        by_type: Dict[str, List[InferredAnnotation]] = defaultdict(list)
        for ann in report.annotations:
            by_type[ann.rtype].append(ann)

        for provider, table in catalog.specs.items():
            for rtype, spec in table.items():
                new_attrs = dict(spec.attributes)
                for ann in by_type.get(rtype, []):
                    existing = new_attrs.get(ann.attr)
                    if existing is None:
                        new_attrs[ann.attr] = _learned_attr(ann)
                    elif not existing.semantic:
                        new_attrs[ann.attr] = dataclasses.replace(
                            existing, semantic=ann.semantic
                        )
                specs[provider][rtype] = dataclasses.replace(
                    spec, attributes=new_attrs
                )

        # brand-new resource types witnessed only in the corpus
        for rtype, anns in sorted(by_type.items()):
            if catalog.try_spec(rtype) is not None:
                continue
            attrs = {ann.attr: _learned_attr(ann) for ann in anns}
            attrs["id"] = AttributeSpec("id", computed=True)
            provider = rtype.split("_", 1)[0]
            specs[provider][rtype] = ResourceTypeSpec(
                name=rtype,
                provider=provider,
                attributes=attrs,
                latency=_default_latency(),
                id_prefix=f"{rtype[:3]}-",
                description="learned from usage corpus",
            )
        return Catalog(dict(specs), dict(catalog.regions))


def _learned_attr(ann: InferredAnnotation) -> AttributeSpec:
    return AttributeSpec(
        ann.attr,
        type="list" if ann.semantic.startswith("ref_list") else "string",
        semantic=ann.semantic,
    )


def _default_latency():
    from ..cloud.latency import DEFAULT_PROFILE

    return DEFAULT_PROFILE
