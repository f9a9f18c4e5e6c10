"""Semantic type system for IaC values (paper 3.2)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "checker": ("TypeChecker", "check_types"),
        "inference": (
            "InferenceReport",
            "InferredAnnotation",
            "Observation",
            "SemanticInferencer",
        ),
        "semantic": (
            "ANY",
            "SemanticType",
            "compatible",
            "expected_semantic",
            "literal_semantic",
            "produced_by_attr",
        ),
    },
)
