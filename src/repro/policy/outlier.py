"""Template extraction and outlier detection (3.6).

"Instead of writing exact policies, we can turn the problem into
outlier detection, which compares new IaC programs with templates
extracted from existing repositories to detect deviations from common
practices" -- adapting the template-inference idea of Kakarla et al.
(NSDI'20) to IaC blocks.

The extractor learns, per resource type, which attributes appear and
which values dominate; the scorer flags rare attribute sets and rare
values in a new configuration.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..lang.config import Configuration
from ..validate.rules import ValidationContext

_SCALAR = (str, int, float, bool)

#: an attribute, or a value, seen in fewer of a type's corpus uses than
#: this is rare
RARE_THRESHOLD = 0.2
#: one seen in at least this many is common: its absence, or another
#: value in its place, is a deviation
COMMON_THRESHOLD = 0.9


@dataclasses.dataclass
class OutlierFinding:
    """One deviation from learned practice."""

    address: str
    rtype: str
    kind: str  # "unusual-attr" | "missing-attr" | "unusual-value"
    attr: str
    detail: str
    rarity: float  # 0..1, lower = rarer

    def __str__(self) -> str:
        return (
            f"{self.address}: {self.kind} {self.attr!r} ({self.detail}; "
            f"seen in {self.rarity:.0%} of corpus)"
        )


@dataclasses.dataclass
class TypeTemplate:
    """Learned usage template for one resource type."""

    rtype: str
    observations: int
    attr_frequency: Dict[str, float]
    value_frequency: Dict[str, Dict[str, float]]  # attr -> value repr -> freq


class TemplateModel:
    """Learned templates + scoring."""

    def __init__(self, templates: Dict[str, TypeTemplate]):
        self.templates = templates

    def score_config(self, config: Configuration) -> List[OutlierFinding]:
        ctx = ValidationContext.build(config)
        findings: List[OutlierFinding] = []
        for node in ctx.instances():
            if node.address.mode != "managed":
                continue
            template = self.templates.get(node.address.type)
            if template is None or template.observations < 2:
                continue
            present = set(node.decl.body.attributes)
            for attr in sorted(present):
                freq = template.attr_frequency.get(attr, 0.0)
                if freq < RARE_THRESHOLD:
                    findings.append(
                        OutlierFinding(
                            address=node.id,
                            rtype=node.address.type,
                            kind="unusual-attr",
                            attr=attr,
                            detail="attribute rarely used in corpus",
                            rarity=freq,
                        )
                    )
            for attr, freq in sorted(template.attr_frequency.items()):
                if freq >= COMMON_THRESHOLD and attr not in present:
                    findings.append(
                        OutlierFinding(
                            address=node.id,
                            rtype=node.address.type,
                            kind="missing-attr",
                            attr=attr,
                            detail="attribute set in nearly every corpus use",
                            rarity=1.0 - freq,
                        )
                    )
            for attr in sorted(present):
                value = ctx.known_attr(node, attr)
                if not isinstance(value, _SCALAR):
                    continue
                value_freqs = template.value_frequency.get(attr)
                if not value_freqs:
                    continue
                freq = value_freqs.get(repr(value), 0.0)
                dominant = max(value_freqs.values())
                if dominant >= COMMON_THRESHOLD and freq < RARE_THRESHOLD:
                    findings.append(
                        OutlierFinding(
                            address=node.id,
                            rtype=node.address.type,
                            kind="unusual-value",
                            attr=attr,
                            detail=f"value {value!r} deviates from the norm",
                            rarity=freq,
                        )
                    )
        return findings


class TemplateExtractor:
    """Learns :class:`TemplateModel` from a corpus of configurations."""

    def fit(self, configs: List[Configuration]) -> TemplateModel:
        attr_counts: Dict[str, Counter] = defaultdict(Counter)
        value_counts: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
        type_obs: Counter = Counter()
        for config in configs:
            ctx = ValidationContext.build(config)
            for node in ctx.instances():
                if node.address.mode != "managed":
                    continue
                rtype = node.address.type
                type_obs[rtype] += 1
                for attr in node.decl.body.attributes:
                    attr_counts[rtype][attr] += 1
                    value = ctx.known_attr(node, attr)
                    if isinstance(value, _SCALAR):
                        value_counts[(rtype, attr)][repr(value)] += 1
        templates: Dict[str, TypeTemplate] = {}
        for rtype, total in type_obs.items():
            attr_freq = {
                attr: count / total for attr, count in attr_counts[rtype].items()
            }
            value_freq: Dict[str, Dict[str, float]] = {}
            for (rt, attr), counter in value_counts.items():
                if rt != rtype:
                    continue
                seen = sum(counter.values())
                value_freq[attr] = {
                    value: count / seen for value, count in counter.items()
                }
            templates[rtype] = TypeTemplate(
                rtype=rtype,
                observations=total,
                attr_frequency=attr_freq,
                value_frequency=value_freq,
            )
        return TemplateModel(templates)
