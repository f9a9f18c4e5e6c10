"""Synthesis task definitions (3.1).

A :class:`SynthesisTask` is the structured form of a user intent like
"give me two web VMs behind a load balancer on aws": the resource types
wanted, how many, where, and any pinned attribute values. Both the
noisy generator (the LLM stand-in) and the type-guided synthesizer
consume the same tasks, so E8 compares like for like.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Optional, Tuple


@dataclasses.dataclass
class ResourceRequest:
    """One requested resource kind."""

    rtype: str
    count: int = 1
    pinned: Dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class SynthesisTask:
    """One synthesis intent."""

    name: str
    provider: str
    requests: List[ResourceRequest]
    region: str = ""
    description: str = ""


#: intents modelled on the workloads the paper's introduction motivates
STANDARD_TASKS: List[SynthesisTask] = [
    SynthesisTask(
        name="web-vms",
        provider="aws",
        requests=[ResourceRequest("aws_virtual_machine", count=2)],
        description="two web VMs with networking",
    ),
    SynthesisTask(
        name="web-tier-lb",
        provider="aws",
        requests=[
            ResourceRequest("aws_virtual_machine", count=3),
            ResourceRequest("aws_load_balancer"),
        ],
        description="three VMs behind a load balancer",
    ),
    SynthesisTask(
        name="db-backend",
        provider="aws",
        requests=[
            ResourceRequest(
                "aws_database_instance", pinned={"engine": "postgres"}
            ),
            ResourceRequest("aws_s3_bucket"),
        ],
        description="a postgres database plus an object bucket",
    ),
    SynthesisTask(
        name="vpn-site",
        provider="aws",
        requests=[
            ResourceRequest("aws_vpn_gateway"),
            ResourceRequest(
                "aws_vpn_tunnel", count=2, pinned={"peer_ip": "203.0.113.10"}
            ),
        ],
        description="site-to-site VPN with two tunnels",
    ),
    SynthesisTask(
        name="azure-vm",
        provider="azure",
        requests=[ResourceRequest("azure_virtual_machine", count=2)],
        region="westeurope",
        description="two Azure VMs with networking",
    ),
    SynthesisTask(
        name="azure-db-storage",
        provider="azure",
        requests=[
            ResourceRequest("azure_database", pinned={"engine": "mysql"}),
            ResourceRequest("azure_storage_account"),
        ],
        region="eastus",
        description="an Azure database and a storage account",
    ),
    SynthesisTask(
        name="azure-gateway",
        provider="azure",
        requests=[
            ResourceRequest("azure_vpn_gateway"),
            ResourceRequest("azure_vpn_tunnel", pinned={"peer_ip": "198.51.100.7"}),
        ],
        region="eastus",
        description="an Azure VPN gateway with one connection",
    ),
    SynthesisTask(
        name="autoscaling-web",
        provider="aws",
        requests=[
            ResourceRequest(
                "aws_autoscaling_group", pinned={"min_size": 2, "max_size": 6}
            ),
            ResourceRequest("aws_load_balancer"),
        ],
        description="an autoscaled web tier",
    ),
]


def random_task(rng: random.Random, index: int = 0) -> SynthesisTask:
    """A randomized task over the simulated catalogs (for sweeps)."""
    provider = rng.choice(["aws", "azure"])
    pool = {
        "aws": [
            "aws_virtual_machine",
            "aws_load_balancer",
            "aws_database_instance",
            "aws_s3_bucket",
            "aws_vpn_tunnel",
            "aws_disk",
        ],
        "azure": [
            "azure_virtual_machine",
            "azure_database",
            "azure_storage_account",
            "azure_vpn_tunnel",
            "azure_disk",
        ],
    }[provider]
    k = rng.randint(1, 3)
    requests = [
        ResourceRequest(rtype, count=rng.randint(1, 3))
        for rtype in rng.sample(pool, k)
    ]
    return SynthesisTask(
        name=f"task-{index}",
        provider=provider,
        requests=requests,
        description="randomized sweep task",
    )
