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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from ..cloud.resources import Catalog, simulated_catalog
from ..lang.diagnostics import (
    CLCError,
    Diagnostic,
    DiagnosticSink,
    Severity,
    SourceSpan,
)
from .rules import RuleEngine, ValidationContext

if TYPE_CHECKING:  # imported by the validations that read a program
    from ..graph.builder import ResourceGraph
    from ..lang.config import Configuration
    from ..types.checker import DeclTable

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


@dataclasses.dataclass
class ValidationBasis:
    """What a resident engine keeps of its last validation: the table
    that validation filled, and everything its entries are a function
    of besides the declaration each sits beside -- so the next one can
    tell whether they still hold (``CloudlessEngine._validation_scope``).
    It reaches no graph: attribute values are kept only where they are
    plain data."""

    config: Configuration
    variables: Dict[str, Any]
    #: :meth:`ValidationPipeline._basis` of the pipeline that ran
    pipeline: Dict[str, Any]
    table: DeclTable


class VerdictMismatch(ValueError):
    """A recorded verdict this pipeline cannot replay; ``str()`` is the
    reason, one of ``level | rules | registry | unreadable``."""


def _diagnostic_from_data(item: Any) -> Diagnostic:
    """One recorded diagnostic back; anything but exactly the shape
    :meth:`ValidationPipeline.verdict` writes raises ``ValueError``."""
    severity, code, message, detail, span = item if isinstance(item, list) else ()
    if not all(isinstance(text, str) for text in (code, message, detail)):
        raise ValueError(item)
    if span is not None:
        if not (
            isinstance(span, list)
            and len(span) == 5
            and isinstance(span[0], str)
            and all(type(n) is int for n in span[1:])
        ):
            raise ValueError(item)
        span = SourceSpan(*span)
    return Diagnostic(Severity(severity), message, span, code, detail)


class ValidationPipeline:
    """Runs validation up to a configured level."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        level: str = LEVEL_RULES,
    ):
        if level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}")
        self.catalog = catalog or simulated_catalog()
        self.level = level
        self.engine = RuleEngine.default()

    # -- the verdict as data -------------------------------------------------

    def _basis(self) -> Dict[str, Any]:
        """What a verdict is a function of besides the sources and
        variables it was reached on. A rule's id is its identity (as
        :meth:`CloudlessEngine.learn_validation_rules` already has it).
        The catalog's digest keeps the name ``registry`` that every
        verdict on disk already records it under."""
        return {
            "level": self.level,
            "rules": [rule.info.rule_id for rule in self.engine.rules],
            "registry": self.catalog.validation_digest,
        }

    def verdict(self, report: ValidationReport) -> Dict[str, Any]:
        """``report`` as plain JSON data, with what it holds under."""
        return {
            **self._basis(),
            "stage_errors": dict(report.stage_errors),
            "diagnostics": [
                [
                    d.severity.value,
                    d.code,
                    d.message,
                    d.detail,
                    list(d.span) if d.span is not None else None,
                ]
                for d in report.diagnostics
            ],
        }

    def replay(self, verdict: Any) -> ValidationReport:
        """The report ``verdict`` records, if validating now would be
        the same function of the same inputs; :class:`VerdictMismatch`
        otherwise. The bytes are not trusted to be ours: any shape but
        the one :meth:`verdict` writes is ``unreadable``, never ``ok``."""
        if not isinstance(verdict, dict):
            raise VerdictMismatch("unreadable")
        for field, ours in self._basis().items():
            if verdict.get(field) != ours:
                raise VerdictMismatch(field)
        stage_errors = verdict.get("stage_errors")
        recorded = verdict.get("diagnostics")
        if not (
            isinstance(stage_errors, dict)
            and all(type(n) is int for n in stage_errors.values())
            and isinstance(recorded, list)
        ):
            raise VerdictMismatch("unreadable")
        try:
            diagnostics = [_diagnostic_from_data(item) for item in recorded]
        except ValueError:  # includes an unknown severity
            raise VerdictMismatch("unreadable")
        return ValidationReport(self.level, diagnostics, stage_errors)

    # -- validating ---------------------------------------------------------------

    def validate(
        self,
        config_or_sources: Union[Configuration, str, Dict[str, str]],
        variables: Optional[Dict[str, Any]] = None,
        loader=None,
        graph: Optional[ResourceGraph] = None,
        table: Optional[DeclTable] = None,
    ) -> ValidationReport:
        """Validate up to ``self.level``. ``graph`` is the configuration
        already expanded under these variables and this loader, when the
        caller has it (a verb builds one graph and plans on it too);
        without one the rules stage builds its own.

        ``table`` is where the type stage keeps its verdict on each
        declaration and the rules stage each instance's attributes. What
        a caller left in it is taken as computed by this pipeline from
        these declarations, variables, locals and declared names, and is
        not computed again; every rule still runs over every instance.
        Without one the run starts from an empty table of its own."""
        from ..graph.builder import GraphBuildError
        from ..lang.config import Configuration
        from ..types.checker import DeclTable, TypeChecker

        if table is None:
            table = DeclTable()
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
        type_sink = TypeChecker(self.catalog, config, table).check()
        sink.extend(type_sink)
        stage_errors["types"] = len(type_sink.errors)
        if self.level == LEVEL_TYPES or sink.has_errors():
            return ValidationReport(self.level, sink.diagnostics, stage_errors)

        # stage 2: cloud-specific rules (needs the expanded graph)
        try:
            ctx = (
                ValidationContext(config, graph, self.catalog, table)
                if graph is not None
                else ValidationContext.build(
                    config,
                    self.catalog,
                    variables=variables,
                    loader=loader,
                    table=table,
                )
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
    catalog: Optional[Catalog] = None,
) -> ValidationReport:
    """Convenience one-shot validation."""
    return ValidationPipeline(catalog=catalog, level=level).validate(
        config_or_sources
    )
