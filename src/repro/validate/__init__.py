"""Validation: syntax, semantic types, cloud-specific rules, mining
(paper 3.2)."""

import sys
import types

from .mining import (
    DeploymentExample,
    MinedEqualityRule,
    MinedImplicationRule,
    ResourceObservation,
    SpecificationMiner,
)
from .pipeline import (
    LEVEL_RULES,
    LEVEL_SYNTAX,
    LEVEL_TYPES,
    LEVELS,
    ValidationPipeline,
    ValidationReport,
    validate,
)
from .rules import (
    DanglingReferenceRule,
    DuplicateNameRule,
    Rule,
    RuleEngine,
    RuleInfo,
    ValidationContext,
)

__all__ = [
    "DanglingReferenceRule",
    "DeploymentExample",
    "DuplicateNameRule",
    "LEVEL_RULES",
    "LEVEL_SYNTAX",
    "LEVEL_TYPES",
    "LEVELS",
    "MinedEqualityRule",
    "MinedImplicationRule",
    "ResourceObservation",
    "Rule",
    "RuleEngine",
    "RuleInfo",
    "SpecificationMiner",
    "ValidationContext",
    "ValidationPipeline",
    "ValidationReport",
    "validate",
]


class _CallablePackage(types.ModuleType):
    """``repro.validate`` names this package and, in ``repro``'s public
    API, the :func:`validate` function. The import system binds the
    package to that name whenever anything imports a module under it,
    so the package answers calls as the function would."""

    def __call__(self, *args, **kwargs):
        return validate(*args, **kwargs)


sys.modules[__name__].__class__ = _CallablePackage
