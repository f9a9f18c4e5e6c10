"""Dependency graphs, plans, critical-path and impact analyses."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "builder": (
            "GraphBuildError",
            "GraphBuilder",
            "ResourceGraph",
            "ResourceNode",
            "build_graph",
        ),
        "critical_path": (
            "CriticalPathAnalysis",
            "analyze",
            "estimate_change_duration",
        ),
        "dag": ("CycleError", "Dag"),
        "impact": (
            "ConfigDelta",
            "ImpactAnalyzer",
            "PlanBasis",
            "change_scope",
            "diff_configurations",
        ),
        "plan": (
            "ACTIONABLE",
            "Action",
            "AttrDiff",
            "Plan",
            "PlanError",
            "PlannedChange",
            "Planner",
            "ValueResolver",
            "read_data_sources",
        ),
    },
)
