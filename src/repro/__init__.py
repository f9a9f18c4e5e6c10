"""repro: Cloudless Computing.

A complete, from-scratch reproduction of *"Simplifying Cloud Management
with Cloudless Computing"* (HotNets 2023): a principled
Infrastructure-as-Code framework covering the full lifecycle the paper
describes -- development (synthesis + porting), validation (semantic
types + cloud-specific rules + specification mining), deployment
(critical-path scheduling, incremental updates), updating (fine-grained
locking, transactions, reversibility-aware rollback), diagnosing (drift
detection, error correlation, repair), and policing (the infrastructure
controller) -- over a simulated multi-cloud substrate.

Quickstart::

    from repro import CloudlessEngine

    engine = CloudlessEngine()
    result = engine.apply('''
    resource "aws_vpc" "main" {
      name       = "main"
      cidr_block = "10.0.0.0/16"
    }
    ''')
    assert result.ok
"""

from ._exports import export_table

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "addressing": ("ResourceAddress", "data", "managed"),
        "cloud": ("CloudAPIError", "CloudGateway", "SimClock"),
        "core": ("CloudlessEngine", "EngineApplyResult", "EngineError"),
        "deploy": ("BestEffortExecutor", "CriticalPathExecutor", "SequentialExecutor"),
        "graph": ("Action", "Plan", "Planner", "build_graph"),
        "lang": ("Configuration", "ModuleContext"),
        "state": ("StateDocument",),
        "validate": ("ValidationPipeline", "validate"),
    },
)
__all__ = sorted([*__all__, "__version__"])
