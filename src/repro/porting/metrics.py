"""Code-quality metrics for ported IaC programs (3.1).

The paper asks: "how should we formally define and quantify these code
metrics?" -- where the objective is ease of understanding and
maintenance rather than just correctness. This module operationalizes a
metric suite over CLC sources:

* size (non-blank LoC, block count),
* compaction (resources represented per block),
* repetition (duplicate normalized attribute lines),
* hard-coded cloud ids (opaque strings a human cannot maintain),
* a composite maintainability score in [0, 100].

Plus a *fidelity* check: the ported program, planned against its own
generated state, must be a no-op.
"""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from typing import Dict, List, Optional

from ..lang.config import Configuration
from .importer import PortedProject

_ID_LITERAL_RE = re.compile(r'"(?:[a-z]+-)[0-9a-f]{6,}"')


@dataclasses.dataclass
class QualityMetrics:
    """Metric bundle for one ported project."""

    loc: int
    blocks: int
    resources_represented: int
    repetition: float  # 0..1, fraction of duplicated attribute lines
    hardcoded_ids: int
    reference_count: int
    module_count: int
    variable_count: int

    @property
    def compaction(self) -> float:
        """Resources per resource block (>1 means count/for_each/modules)."""
        if self.blocks == 0:
            return 0.0
        return self.resources_represented / self.blocks

    @property
    def maintainability(self) -> float:
        """Composite score in [0, 100]; higher is easier to maintain.

        Penalizes repetition and hard-coded ids, rewards compaction and
        reference wiring; weights chosen so a fully naive export of a
        repetitive estate lands well below a structured import.
        """
        score = 100.0
        score -= 45.0 * min(1.0, self.repetition)
        if self.resources_represented:
            score -= 35.0 * min(1.0, self.hardcoded_ids / self.resources_represented)
        score += 10.0 * min(1.0, max(0.0, self.compaction - 1.0))
        score += 5.0 * min(1.0, self.module_count / 3.0)
        return max(0.0, min(100.0, score))


def measure_quality(project: PortedProject) -> QualityMetrics:
    """Compute the metric suite over a ported project's sources."""
    texts = list(project.sources.values())
    for files in project.module_sources.values():
        texts.extend(files.values())
    all_text = "\n".join(texts)
    lines = [line for text in texts for line in text.splitlines()]
    nonblank = [line for line in lines if line.strip()]

    block_count = 0
    module_count = 0
    variable_count = 0
    for line in nonblank:
        stripped = line.strip()
        if re.match(r'^(resource|data)\s+"', stripped):
            block_count += 1
        elif stripped.startswith("module "):
            module_count += 1
        elif stripped.startswith("variable "):
            variable_count += 1

    attr_lines = [
        re.sub(r"\s+", " ", line.strip())
        for line in nonblank
        if "=" in line and not line.strip().startswith(("#", "//"))
    ]
    counts = Counter(attr_lines)
    duplicated = sum(c - 1 for c in counts.values() if c > 1)
    repetition = duplicated / len(attr_lines) if attr_lines else 0.0

    hardcoded = len(_ID_LITERAL_RE.findall(all_text))
    references = len(re.findall(r"=\s*\[?[a-z][a-z0-9_]*\.[a-z0-9_]+\.id", all_text))

    return QualityMetrics(
        loc=len(nonblank),
        blocks=block_count + module_count,
        resources_represented=len(project.state),
        repetition=repetition,
        hardcoded_ids=hardcoded,
        reference_count=references,
        module_count=module_count,
        variable_count=variable_count,
    )


@dataclasses.dataclass
class FidelityResult:
    """Round-trip verification of a ported project."""

    parses: bool
    plan_is_noop: bool
    planned_changes: Dict[str, int]
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.parses and self.plan_is_noop


def verify_fidelity(project: PortedProject) -> FidelityResult:
    """Parse the project and plan it against its own state.

    A faithful import produces an empty plan: the configuration
    describes exactly the estate the state says exists.
    """
    from ..cloud.resources import simulated_catalog
    from ..graph.builder import build_graph
    from ..graph.plan import Planner

    try:
        config = Configuration.parse(project.sources)
        if config.diagnostics.has_errors():
            return FidelityResult(
                parses=False,
                plan_is_noop=False,
                planned_changes={},
                error=str(config.diagnostics.errors[0]),
            )
        graph = build_graph(config, loader=project.loader())
        planner = Planner(spec_lookup=simulated_catalog().try_spec)
        plan = planner.plan(graph, project.state)
    except Exception as exc:
        return FidelityResult(
            parses=False, plan_is_noop=False, planned_changes={}, error=str(exc)
        )
    summary = plan.summary()
    return FidelityResult(
        parses=True,
        plan_is_noop=plan.is_empty,
        planned_changes=summary,
    )
