"""Azure-like simulated provider."""

from ..._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "provider": ("AZURE_LOCATIONS", "AzureControlPlane"),
        ".resources": ("azure_catalog",),
    },
)
