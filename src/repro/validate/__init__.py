"""Validation: syntax, semantic types, cloud-specific rules, mining
(paper 3.2)."""

from .._exports import callable_module, export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "mining": (
            "DeploymentExample",
            "MinedEqualityRule",
            "MinedImplicationRule",
            "ResourceObservation",
            "SpecificationMiner",
        ),
        "pipeline": (
            "LEVEL_RULES",
            "LEVEL_SYNTAX",
            "LEVEL_TYPES",
            "LEVELS",
            "ValidationPipeline",
            "ValidationReport",
            "validate",
        ),
        "rules": (
            "DanglingReferenceRule",
            "DuplicateNameRule",
            "Rule",
            "RuleEngine",
            "RuleInfo",
            "ValidationContext",
        ),
    },
)

# ``repro.validate`` is this package and, in ``repro``'s public API, the
# :func:`validate` function
callable_module(__name__, "validate")
