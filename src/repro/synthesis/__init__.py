"""IaC program synthesis (paper 3.1)."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "generator": ("ErrorRates", "NoisyGenerator"),
        "synthesizer": ("RetrievalCorpus", "SynthesisResult", "TypeGuidedSynthesizer"),
        "tasks": ("STANDARD_TASKS", "ResourceRequest", "SynthesisTask", "random_task"),
    },
)
