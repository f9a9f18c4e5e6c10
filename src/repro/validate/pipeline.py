"""The staged validation pipeline (3.2).

Three levels, matching the E6 ablation:

* ``syntax`` -- what ``terraform validate`` does today: parse + basic
  structural checks (the baseline);
* ``types``  -- plus semantic type checking;
* ``rules``  -- plus cloud-specific constraint rules (built-in and/or
  mined), i.e. the full cloudless validator.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Union

from ..graph.builder import GraphBuildError
from ..lang.config import Configuration
from ..lang.diagnostics import CLCError, Diagnostic, DiagnosticSink, Severity
from ..types.checker import TypeChecker
from ..types.schema import SchemaRegistry
from .rules import Rule, RuleEngine, ValidationContext

LEVEL_SYNTAX = "syntax"
LEVEL_TYPES = "types"
LEVEL_RULES = "rules"
LEVELS = (LEVEL_SYNTAX, LEVEL_TYPES, LEVEL_RULES)


@dataclasses.dataclass
class ValidationReport:
    """Outcome of one validation run."""

    level: str
    diagnostics: List[Diagnostic]
    stage_errors: Dict[str, int]

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def first_error(self) -> Optional[Diagnostic]:
        errors = self.errors
        return errors[0] if errors else None

    def __str__(self) -> str:
        if self.ok:
            return f"validation ({self.level}): ok"
        lines = [f"validation ({self.level}): {len(self.errors)} error(s)"]
        lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


class ValidationPipeline:
    """Runs validation up to a configured level."""

    def __init__(
        self,
        registry: Optional[SchemaRegistry] = None,
        level: str = LEVEL_RULES,
        extra_rules: Sequence[Rule] = (),
    ):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")
        self.registry = registry or SchemaRegistry.default()
        self.level = level
        self.engine = RuleEngine.default()
        self.engine.rules.extend(extra_rules)

    def validate(
        self,
        config_or_sources: Union[Configuration, str, Dict[str, str]],
        variables: Optional[Dict[str, Any]] = None,
        loader=None,
    ) -> ValidationReport:
        sink = DiagnosticSink()
        stage_errors: Dict[str, int] = {}

        # stage 0: syntax & structure
        if isinstance(config_or_sources, Configuration):
            config = config_or_sources
        else:
            try:
                config = Configuration.parse(config_or_sources)
            except CLCError as exc:
                sink.error(str(exc), code="SYNTAX")
                return ValidationReport(
                    self.level, sink.diagnostics, {"syntax": len(sink.errors)}
                )
        sink.extend(config.diagnostics)
        stage_errors["syntax"] = len(sink.errors)
        if self.level == LEVEL_SYNTAX or sink.has_errors():
            return ValidationReport(self.level, sink.diagnostics, stage_errors)

        # stage 1: semantic types
        type_sink = TypeChecker(self.registry, config).check()
        sink.extend(type_sink)
        stage_errors["types"] = len(type_sink.errors)
        if self.level == LEVEL_TYPES or sink.has_errors():
            return ValidationReport(self.level, sink.diagnostics, stage_errors)

        # stage 2: cloud-specific rules (needs the expanded graph)
        try:
            ctx = ValidationContext.build(
                config, self.registry, variables=variables, loader=loader
            )
        except (GraphBuildError, CLCError) as exc:
            sink.error(str(exc), code="GRAPH")
            stage_errors["rules"] = 1
            return ValidationReport(self.level, sink.diagnostics, stage_errors)
        rule_sink = self.engine.run(ctx)
        sink.extend(rule_sink)
        stage_errors["rules"] = len(rule_sink.errors)
        return ValidationReport(self.level, sink.diagnostics, stage_errors)


def validate(
    config_or_sources: Union[Configuration, str, Dict[str, str]],
    level: str = LEVEL_RULES,
    registry: Optional[SchemaRegistry] = None,
) -> ValidationReport:
    """Convenience one-shot validation."""
    return ValidationPipeline(registry=registry, level=level).validate(
        config_or_sources
    )
