"""The cloudless engine facade (paper Figure 1b)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "engine": ("CloudlessEngine", "EngineApplyResult", "EngineError"),
        ".deploy.executor": ("EXECUTORS",),
    },
)
