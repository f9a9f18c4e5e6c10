"""Porting non-IaC estates to IaC programs (paper 3.1)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "emitter": (
            "EmittedBlock",
            "RawExpr",
            "emit_block",
            "emit_config",
            "module_block",
            "render_value",
            "resource_block",
            "variable_block",
        ),
        "importer": (
            "NaiveExporter",
            "PortedProject",
            "StructuredImporter",
            "enumerate_estate",
        ),
        "metrics": (
            "FidelityResult",
            "QualityMetrics",
            "measure_quality",
            "verify_fidelity",
        ),
    },
)
