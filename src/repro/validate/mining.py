"""Specification mining (3.2).

"Our insight is that IaC-style management offers an opportunity to
transform cloud-level constraints into IaC-level program checks, e.g.
through domain-specific customization to existing techniques such as
specification mining." This module learns validation rules from a
corpus of *successfully deployed* configurations (the Encore/ConfigV
recipe): invariants that hold across every healthy example become
checkable rules for new configurations.

Two mined rule families:

* **reference-equality** -- an attribute shared between a resource and
  the resource it references is always equal (e.g. a VM's ``location``
  always equals its NIC's ``location``);
* **implication** -- when attribute X is present, attribute Y always
  has one specific value (e.g. ``admin_password`` present implies
  ``disable_password_auth = false``).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..cloud.resources import Catalog
from ..lang.config import Configuration
from ..lang.diagnostics import DiagnosticSink
from .rules import Rule, RuleInfo, ValidationContext

_SCALAR = (str, int, float, bool)


@dataclasses.dataclass
class ResourceObservation:
    """One resource instance in a healthy deployment."""

    rtype: str
    attrs: Dict[str, Any]
    #: attr name -> list of (target rtype, target attrs)
    refs: Dict[str, List[Tuple[str, Dict[str, Any]]]]


@dataclasses.dataclass
class DeploymentExample:
    """A full healthy estate: the unit of mining evidence."""

    resources: List[ResourceObservation]

    @classmethod
    def from_config(
        cls,
        config: Configuration,
        catalog: Optional[Catalog] = None,
    ) -> "DeploymentExample":
        ctx = ValidationContext.build(config, catalog)
        observations: List[ResourceObservation] = []
        for node in ctx.instances():
            if node.address.mode != "managed":
                continue
            attrs = {
                k: v
                for k, v in ctx.attrs_of(node).items()
                if isinstance(v, _SCALAR)
            }
            refs: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
            for attr_name in node.decl.body.attributes:
                targets = ctx.referenced_instances(node, attr_name)
                if not targets:
                    continue
                refs[attr_name] = [
                    (
                        t.address.type,
                        {
                            k: v
                            for k, v in ctx.attrs_of(t).items()
                            if isinstance(v, _SCALAR)
                        },
                    )
                    for t in targets
                    if t.address.mode == "managed"
                ]
            observations.append(
                ResourceObservation(
                    rtype=node.address.type, attrs=attrs, refs=refs
                )
            )
        return cls(resources=observations)


@dataclasses.dataclass
class MinedEqualitySpec:
    rtype: str
    ref_attr: str
    target_type: str
    shared_attr: str
    support: int


@dataclasses.dataclass
class MinedImplicationSpec:
    rtype: str
    antecedent_attr: str
    consequent_attr: str
    consequent_value: Any
    support: int


class MinedEqualityRule(Rule):
    """Checks a learned cross-resource equality invariant."""

    def __init__(self, spec: MinedEqualitySpec):
        self.spec = spec
        self.info = RuleInfo(
            f"MINED-EQ:{spec.rtype}.{spec.shared_attr}",
            f"{spec.rtype}.{spec.shared_attr} must equal "
            f"{spec.target_type}.{spec.shared_attr} referenced via "
            f"{spec.ref_attr} (mined, support={spec.support})",
        )

    def check(self, ctx: ValidationContext, sink: DiagnosticSink) -> None:
        for node in ctx.instances_of_type(self.spec.rtype):
            own = ctx.known_attr(node, self.spec.shared_attr)
            if not isinstance(own, _SCALAR):
                continue
            for target in ctx.referenced_instances(node, self.spec.ref_attr):
                if target.address.type != self.spec.target_type:
                    continue
                theirs = ctx.known_attr(target, self.spec.shared_attr)
                if isinstance(theirs, _SCALAR) and theirs != own:
                    sink.error(
                        f"{node.id}: {self.spec.shared_attr}={own!r} differs "
                        f"from referenced {target.id} "
                        f"({self.spec.shared_attr}={theirs!r}) "
                        f"[mined invariant, support={self.spec.support}]",
                        ctx.span_of(node, self.spec.ref_attr),
                        self.info.rule_id,
                    )


class MinedImplicationRule(Rule):
    """Checks a learned presence-implies-value invariant."""

    def __init__(self, spec: MinedImplicationSpec):
        self.spec = spec
        self.info = RuleInfo(
            f"MINED-IMP:{spec.rtype}.{spec.antecedent_attr}",
            f"when {spec.rtype}.{spec.antecedent_attr} is set, "
            f"{spec.consequent_attr} must be {spec.consequent_value!r} "
            f"(mined, support={spec.support})",
        )

    def check(self, ctx: ValidationContext, sink: DiagnosticSink) -> None:
        for node in ctx.instances_of_type(self.spec.rtype):
            if self.spec.antecedent_attr not in node.decl.body.attributes:
                continue
            actual = ctx.attr_or_default(node, self.spec.consequent_attr)
            if actual != self.spec.consequent_value:
                sink.error(
                    f"{node.id}: {self.spec.antecedent_attr} is set, so "
                    f"{self.spec.consequent_attr} must be "
                    f"{self.spec.consequent_value!r} (found {actual!r}) "
                    f"[mined invariant, support={self.spec.support}]",
                    ctx.span_of(node, self.spec.antecedent_attr),
                    self.info.rule_id,
                )


class SpecificationMiner:
    """Mines invariants from healthy deployment examples."""

    def __init__(self, min_support: int = 3):
        self.min_support = min_support

    def mine(self, examples: List[DeploymentExample]) -> List[Rule]:
        return [
            MinedEqualityRule(spec) for spec in self._mine_equalities(examples)
        ] + [
            MinedImplicationRule(spec)
            for spec in self._mine_implications(examples)
        ]

    # -- equality invariants --------------------------------------------------

    def _mine_equalities(
        self, examples: List[DeploymentExample]
    ) -> List[MinedEqualitySpec]:
        # (rtype, ref_attr, target_type, shared_attr) -> [equal?, ...]
        evidence: Dict[Tuple[str, str, str, str], List[bool]] = defaultdict(list)
        for example in examples:
            for obs in example.resources:
                for ref_attr, targets in obs.refs.items():
                    for target_type, target_attrs in targets:
                        shared = set(obs.attrs) & set(target_attrs)
                        for attr in shared:
                            if attr in ("name", "id"):
                                continue
                            key = (obs.rtype, ref_attr, target_type, attr)
                            evidence[key].append(
                                obs.attrs[attr] == target_attrs[attr]
                            )
        specs: List[MinedEqualitySpec] = []
        for (rtype, ref_attr, target_type, attr), outcomes in sorted(
            evidence.items()
        ):
            if len(outcomes) >= self.min_support and all(outcomes):
                specs.append(
                    MinedEqualitySpec(
                        rtype=rtype,
                        ref_attr=ref_attr,
                        target_type=target_type,
                        shared_attr=attr,
                        support=len(outcomes),
                    )
                )
        return specs

    # -- implication invariants -------------------------------------------------

    def _mine_implications(
        self, examples: List[DeploymentExample]
    ) -> List[MinedImplicationSpec]:
        # the attribute universe per rtype: an absent consequent is
        # contrary evidence, not a non-observation -- otherwise every
        # always-set attribute spuriously "implies" every co-occurring
        # value
        universe: Dict[str, set] = defaultdict(set)
        for example in examples:
            for obs in example.resources:
                universe[obs.rtype] |= set(obs.attrs)

        # (rtype, antecedent, consequent) -> list of consequent values
        evidence: Dict[Tuple[str, str, str], List[Any]] = defaultdict(list)
        for example in examples:
            for obs in example.resources:
                present = [
                    a for a, v in obs.attrs.items() if v is not None
                ]
                for antecedent in present:
                    for consequent in universe[obs.rtype]:
                        if antecedent == consequent:
                            continue
                        if consequent in ("name", "id"):
                            continue
                        evidence[(obs.rtype, antecedent, consequent)].append(
                            obs.attrs.get(consequent)
                        )
        specs: List[MinedImplicationSpec] = []
        for (rtype, antecedent, consequent), values in sorted(
            evidence.items(), key=lambda kv: str(kv[0])
        ):
            if len(values) < self.min_support:
                continue
            distinct = {repr(v) for v in values}
            if len(distinct) != 1 or values[0] is None:
                continue
            # skip tautologies: the consequent value is just the default
            # everywhere, with or without the antecedent
            all_values = [
                obs.attrs.get(consequent)
                for example in examples
                for obs in example.resources
                if obs.rtype == rtype
            ]
            if len({repr(v) for v in all_values}) == 1:
                continue
            specs.append(
                MinedImplicationSpec(
                    rtype=rtype,
                    antecedent_attr=antecedent,
                    consequent_attr=consequent,
                    consequent_value=values[0],
                    support=len(values),
                )
            )
        return specs
