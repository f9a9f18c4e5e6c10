"""Type-guided, retrieval-augmented IaC synthesis (3.1).

The paper proposes "decomposing the infrastructure into its component
elements to simplify synthesis, while jointly applying formal and
textual specifications (type-guided and ML-based search)". Here the
formal half is the semantic schema: the synthesizer walks the reference
closure of every requested type (a VM needs a NIC, which needs a
subnet, which needs a network), fills required attributes from their
types, and is therefore *valid by construction*. The retrieval half
(:class:`RetrievalCorpus`) personalizes output with the conventions
dominant in the user's existing configurations.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..cloud.resources import (
    AttributeSpec,
    Catalog,
    ResourceTypeSpec,
    simulated_catalog,
)
from ..lang.config import Configuration
from ..porting.emitter import EmittedBlock, RawExpr, emit_config, resource_block
from .tasks import ResourceRequest, SynthesisTask

_SCALAR = (str, int, float, bool)

#: reference targets that should be dedicated per consumer rather than
#: shared (a VM gets its own NIC; everything else is shared substrate)
_DEDICATED_TYPES = ("network_interface",)

#: share of a type's instances that must set an attribute before its
#: dominant value can become a convention
MIN_USAGE = 0.6
#: share of an attribute's literal values the dominant one must hold to
#: become a convention
MIN_DOMINANCE = 0.6


@dataclasses.dataclass
class SynthesisResult:
    """Synthesized program + provenance."""

    task: SynthesisTask
    sources: Dict[str, str]
    block_count: int
    conventions_applied: List[str] = dataclasses.field(default_factory=list)
    injected_errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def main_source(self) -> str:
        return self.sources["main.clc"]

    def parse(self) -> Configuration:
        return Configuration.parse(self.sources)


class RetrievalCorpus:
    """Conventions mined from the user's existing configurations.

    For each (rtype, attr): how often the attr is set, and its dominant
    literal value. Dominant, frequently-set optional attributes become
    conventions the synthesizer reproduces (the paper's RAG-style
    personalization, grounded instead of generative).
    """

    def __init__(self) -> None:
        self.conventions: Dict[Tuple[str, str], Any] = {}
        self.known_attrs: Dict[str, set] = defaultdict(set)

    def fit(self, configs: List[Configuration]) -> "RetrievalCorpus":
        from ..validate.rules import ValidationContext

        usage: Dict[Tuple[str, str], int] = Counter()
        totals: Counter = Counter()
        values: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
        for config in configs:
            ctx = ValidationContext.build(config)
            for node in ctx.instances():
                if node.address.mode != "managed":
                    continue
                rtype = node.address.type
                totals[rtype] += 1
                for attr in node.decl.body.attributes:
                    self.known_attrs[rtype].add(attr)
                    usage[(rtype, attr)] += 1
                    value = ctx.known_attr(node, attr)
                    if isinstance(value, _SCALAR):
                        values[(rtype, attr)][repr(value)] += 1
        for (rtype, attr), count in usage.items():
            if attr == "name" or totals[rtype] == 0:
                continue
            if count / totals[rtype] < MIN_USAGE:
                continue
            counter = values.get((rtype, attr))
            if not counter:
                continue
            value_repr, value_count = counter.most_common(1)[0]
            if value_count / sum(counter.values()) < MIN_DOMINANCE:
                continue
            self.conventions[(rtype, attr)] = eval(value_repr)  # repr of scalar
        return self

    def conventions_for(self, rtype: str) -> Dict[str, Any]:
        return {
            attr: value
            for (rt, attr), value in self.conventions.items()
            if rt == rtype
        }


class _CidrAllocator:
    """Hands out non-overlapping networks for synthesized estates."""

    def __init__(self) -> None:
        self._next_net = 0
        self._subnet_index: Dict[str, int] = defaultdict(int)

    def network(self) -> str:
        net = f"10.{self._next_net}.0.0/16"
        self._next_net += 1
        return net

    def subnet_expr(self, parent_ref: str, parent_attr: str, is_list: bool) -> RawExpr:
        index = self._subnet_index[parent_ref]
        self._subnet_index[parent_ref] += 1
        source = f"{parent_ref}.{parent_attr}"
        if is_list:
            source += "[0]"
        return RawExpr(f"cidrsubnet({source}, 8, {index})")


class TypeGuidedSynthesizer:
    """Valid-by-construction synthesis over the semantic schema."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        corpus: Optional[RetrievalCorpus] = None,
    ):
        self.catalog = catalog or simulated_catalog()
        self.corpus = corpus

    def synthesize(self, task: SynthesisTask) -> SynthesisResult:
        builder = _Builder(self.catalog, task, self.corpus)
        for request in task.requests:
            for _ in range(request.count):
                builder.create(request.rtype, pinned=request.pinned, dedicated=True)
        blocks = builder.finish()
        return SynthesisResult(
            task=task,
            sources={"main.clc": emit_config(blocks)},
            block_count=len(blocks),
            conventions_applied=builder.conventions_applied,
        )


class _Builder:
    """Shared block-construction machinery (also used by the noisy
    generator, which corrupts its output afterwards)."""

    def __init__(
        self,
        catalog: Catalog,
        task: SynthesisTask,
        corpus: Optional[RetrievalCorpus],
    ):
        self.catalog = catalog
        self.task = task
        self.corpus = corpus
        regions = catalog.regions_of(task.provider)
        self.region = task.region or (regions[0] if regions else "")
        self.blocks: List[EmittedBlock] = []
        self.shared: Dict[str, str] = {}  # rtype -> block name (shared substrate)
        self.counters: Dict[str, int] = defaultdict(int)
        self.conventions_applied: List[str] = []
        self.cidrs = _CidrAllocator()

    # -- public ----------------------------------------------------------------

    def create(
        self,
        rtype: str,
        pinned: Optional[Dict[str, Any]] = None,
        dedicated: bool = False,
    ) -> str:
        """Create one instance of rtype (plus its closure); returns name."""
        return self._instantiate(rtype, pinned or {}, force_new=dedicated)

    def ensure(self, rtype: str) -> str:
        """A shared instance of rtype, created on first use."""
        if rtype in self.shared:
            return self.shared[rtype]
        name = self._instantiate(rtype, {}, force_new=False)
        self.shared[rtype] = name
        return name

    def finish(self) -> List[EmittedBlock]:
        return sorted(self.blocks, key=lambda b: b.labels)

    # -- construction ------------------------------------------------------------

    def _fresh_name(self, rtype: str) -> str:
        short = rtype.split("_", 1)[-1]
        index = self.counters[rtype]
        self.counters[rtype] += 1
        return f"{short}_{index}" if index else short

    def _instantiate(
        self, rtype: str, pinned: Dict[str, Any], force_new: bool
    ) -> str:
        spec = self.catalog.try_spec(rtype)
        if spec is None:
            raise ValueError(f"unknown resource type {rtype!r}")
        name = self._fresh_name(rtype)
        attrs: List[Tuple[str, Any]] = []
        for aspec in sorted(spec.attributes.values(), key=lambda a: a.name):
            if aspec.computed:
                continue
            if aspec.name in pinned:
                attrs.append((aspec.name, pinned[aspec.name]))
                continue
            value = self._fill(rtype, name, aspec)
            if value is not None:
                attrs.append((aspec.name, value))
        if self.corpus is not None:
            attrs = self._apply_conventions(rtype, spec, attrs, pinned)
        self.blocks.append(resource_block(rtype, name, attrs))
        return name

    def _fill(self, rtype: str, name: str, aspec: AttributeSpec) -> Any:
        semantic = aspec.semantic
        if aspec.name == "name":
            return f"{self.task.name}-{name}".replace("_", "-")
        if semantic == "region":
            return self.region
        if semantic.startswith("ref:") or semantic.startswith("ref_list:"):
            if not aspec.required:
                return None
            target_type = aspec.ref_target or ""
            dedicated = any(t in target_type for t in _DEDICATED_TYPES)
            target_name = (
                self.create(target_type)
                if dedicated
                else self.ensure(target_type)
            )
            ref = RawExpr(f"{target_type}.{target_name}.id")
            return [ref] if aspec.is_ref_list else ref
        if semantic == "cidr":
            parent = self._network_parent(rtype)
            if parent is not None:
                parent_ref, parent_attr, is_list = parent
                return self.cidrs.subnet_expr(parent_ref, parent_attr, is_list)
            return self.cidrs.network()
        if semantic == "cidr_list":
            return [self.cidrs.network()]
        if not aspec.required:
            return None
        enum = aspec.enum_values
        if enum:
            return enum[0]
        base = aspec.type.split("(")[0]
        if base == "number":
            return aspec.default if aspec.default is not None else 10
        if base == "bool":
            return aspec.default if aspec.default is not None else False
        if base == "list":
            return []
        if semantic == "password":
            return None
        if aspec.name == "peer_ip":
            return "192.0.2.1"
        return aspec.default if aspec.default is not None else f"{aspec.name}-value"

    def _network_parent(self, rtype: str) -> Optional[Tuple[str, str, bool]]:
        """For a subnet-like type: the parent network ref + cidr attr."""
        spec = self.catalog.try_spec(rtype)
        assert spec is not None
        for aspec in spec.reference_attrs():
            target_type = aspec.ref_target or ""
            target_spec = self.catalog.try_spec(target_type)
            if target_spec is None:
                continue
            for tattr in target_spec.attributes.values():
                if tattr.semantic in ("cidr", "cidr_list"):
                    parent_name = self.ensure(target_type)
                    return (
                        f"{target_type}.{parent_name}",
                        tattr.name,
                        tattr.semantic == "cidr_list",
                    )
        return None

    def _apply_conventions(
        self,
        rtype: str,
        spec: ResourceTypeSpec,
        attrs: List[Tuple[str, Any]],
        pinned: Dict[str, Any],
    ) -> List[Tuple[str, Any]]:
        assert self.corpus is not None
        existing = {k for k, _ in attrs}
        out = list(attrs)
        for attr, value in sorted(self.corpus.conventions_for(rtype).items()):
            aspec = spec.attr(attr)
            if aspec is None or aspec.computed or attr in pinned:
                continue
            if aspec.semantic.startswith("ref") or aspec.semantic in (
                "cidr",
                "cidr_list",
                "region",
            ):
                continue
            if attr in existing:
                out = [(k, value if k == attr else v) for k, v in out]
            else:
                out.append((attr, value))
            self.conventions_applied.append(f"{rtype}.{attr}={value!r}")
        return out

