"""Provider-specific compile-time constraint rules."""

from ..._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "aws": ("AWS_RULES",),
        "azure": ("AZURE_RULES",),
    },
)
