"""IaC debugger: error correlation and repair (paper 3.5)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "correlate": ("Diagnosis", "FixSuggestion", "IaCDebugger"),
        "repair": ("RepairOutcome", "apply_diagnoses", "apply_fix"),
    },
)
