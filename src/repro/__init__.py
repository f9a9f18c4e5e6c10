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

import importlib
from typing import Any

__version__ = "1.0.0"

#: public name -> the submodule that defines it. Resolved on first use
#: (PEP 562), so ``python -m repro watch`` imports what a watch runs and
#: not the parser, the validators and both providers' rule sets.
_EXPORTS = {
    "Action": "graph",
    "BestEffortExecutor": "deploy",
    "CloudAPIError": "cloud",
    "CloudGateway": "cloud",
    "CloudlessEngine": "core",
    "Configuration": "lang",
    "CriticalPathExecutor": "deploy",
    "EngineApplyResult": "core",
    "EngineError": "core",
    "ModuleContext": "lang",
    "Plan": "graph",
    "Planner": "graph",
    "ResourceAddress": "addressing",
    "SchemaRegistry": "types",
    "SequentialExecutor": "deploy",
    "SimClock": "cloud",
    "StateDocument": "state",
    "ValidationPipeline": "validate",
    "build_graph": "graph",
    "data": "addressing",
    "managed": "addressing",
    "validate": "validate",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str) -> Any:
    try:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted([*globals(), *_EXPORTS])
