"""Workload generators, config mutators, and traffic traces."""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "mutate": ("ConfigMutator", "Mutation", "MutationError"),
        "topologies": (
            "hub_spoke",
            "microservices",
            "ml_training",
            "multi_cloud",
            "random_dag_estate",
            "scale_estate",
            "sized_estate",
            "two_region_estate",
            "vpn_site",
            "web_tier",
        ),
        "traffic": (
            "Arrival",
            "LatencyHistogram",
            "TenantProfile",
            "TracePoint",
            "distribute_demand",
            "goodput_fairness_ratio",
            "mixed_arrivals",
            "open_loop_arrivals",
            "ramp_surge_trace",
            "tenant_mix",
        ),
    },
)
