"""Workload/topology generators.

Parameterized CLC programs for the estate shapes the paper's
introduction motivates -- the substrate every benchmark sweeps over.
All generators return plain source text so benches can re-parse,
mutate, and diff them freely.
"""

from __future__ import annotations

import random
from typing import List, Optional


def web_tier(
    web_vms: int = 3,
    app_vms: int = 2,
    with_lb: bool = True,
    with_db: bool = True,
    name: str = "web",
) -> str:
    """Classic three-tier web stack on the aws-like provider."""
    parts = [
        f'''
resource "aws_vpc" "{name}" {{
  name       = "{name}"
  cidr_block = "10.0.0.0/16"
}}

resource "aws_subnet" "{name}_front" {{
  name       = "{name}-front"
  vpc_id     = aws_vpc.{name}.id
  cidr_block = cidrsubnet(aws_vpc.{name}.cidr_block, 8, 0)
}}

resource "aws_subnet" "{name}_back" {{
  name       = "{name}-back"
  vpc_id     = aws_vpc.{name}.id
  cidr_block = cidrsubnet(aws_vpc.{name}.cidr_block, 8, 1)
}}

resource "aws_security_group" "{name}_sg" {{
  name   = "{name}-sg"
  vpc_id = aws_vpc.{name}.id
}}

resource "aws_network_interface" "{name}_web_nic" {{
  count              = {web_vms}
  name               = "{name}-web-nic-${{count.index}}"
  subnet_id          = aws_subnet.{name}_front.id
  security_group_ids = [aws_security_group.{name}_sg.id]
}}

resource "aws_virtual_machine" "{name}_web" {{
  count   = {web_vms}
  name    = "{name}-web-${{count.index}}"
  size    = "small"
  nic_ids = [aws_network_interface.{name}_web_nic[count.index].id]
  tags    = {{ tier = "web" }}
}}

resource "aws_network_interface" "{name}_app_nic" {{
  count     = {app_vms}
  name      = "{name}-app-nic-${{count.index}}"
  subnet_id = aws_subnet.{name}_back.id
}}

resource "aws_virtual_machine" "{name}_app" {{
  count   = {app_vms}
  name    = "{name}-app-${{count.index}}"
  size    = "medium"
  nic_ids = [aws_network_interface.{name}_app_nic[count.index].id]
  tags    = {{ tier = "app" }}
}}
'''
    ]
    if with_lb:
        parts.append(
            f'''
resource "aws_load_balancer" "{name}_lb" {{
  name          = "{name}-lb"
  subnet_ids    = [aws_subnet.{name}_front.id]
  target_vm_ids = aws_virtual_machine.{name}_web[*].id
}}
'''
        )
    if with_db:
        parts.append(
            f'''
resource "aws_database_instance" "{name}_db" {{
  name       = "{name}-db"
  engine     = "postgres"
  size       = "medium"
  subnet_ids = [aws_subnet.{name}_back.id]
}}
'''
        )
    return "\n".join(parts)


def microservices(
    services: int = 4, vms_per_service: int = 2, name: str = "svc"
) -> str:
    """N independent service stacks sharing one VPC -- a wide graph
    (lots of exploitable parallelism for E1)."""
    parts = [
        f'''
resource "aws_vpc" "{name}" {{
  name       = "{name}"
  cidr_block = "10.0.0.0/16"
}}

resource "aws_iam_role" "{name}_role" {{
  name = "{name}-role"
}}
'''
    ]
    for i in range(services):
        parts.append(
            f'''
resource "aws_subnet" "{name}_{i}" {{
  name       = "{name}-{i}"
  vpc_id     = aws_vpc.{name}.id
  cidr_block = cidrsubnet(aws_vpc.{name}.cidr_block, 8, {i})
}}

resource "aws_network_interface" "{name}_{i}_nic" {{
  count     = {vms_per_service}
  name      = "{name}-{i}-nic-${{count.index}}"
  subnet_id = aws_subnet.{name}_{i}.id
}}

resource "aws_virtual_machine" "{name}_{i}_vm" {{
  count   = {vms_per_service}
  name    = "{name}-{i}-vm-${{count.index}}"
  nic_ids = [aws_network_interface.{name}_{i}_nic[count.index].id]
  tags    = {{ service = "{name}-{i}" }}
}}

resource "aws_load_balancer" "{name}_{i}_lb" {{
  name          = "{name}-{i}-lb"
  subnet_ids    = [aws_subnet.{name}_{i}.id]
  target_vm_ids = aws_virtual_machine.{name}_{i}_vm[*].id
}}

resource "aws_dns_record" "{name}_{i}_dns" {{
  name  = "{name}-{i}-dns"
  zone  = "example.sim"
  value = aws_load_balancer.{name}_{i}_lb.dns_name
}}
'''
        )
    return "\n".join(parts)


def hub_spoke(
    spokes: int = 3,
    vms_per_spoke: int = 2,
    with_gateway: bool = True,
    name: str = "hub",
    location: str = "eastus",
) -> str:
    """Azure hub-and-spoke: a deep graph dominated by the VPN gateway's
    25-minute provisioning time (the critical path E1 cares about)."""
    parts = [
        f'''
resource "azure_resource_group" "{name}" {{
  name     = "{name}-rg"
  location = "{location}"
}}

resource "azure_virtual_network" "{name}" {{
  name              = "{name}-vnet"
  resource_group_id = azure_resource_group.{name}.id
  location          = "{location}"
  address_spaces    = ["10.100.0.0/16"]
}}
'''
    ]
    if with_gateway:
        parts.append(
            f'''
resource "azure_vpn_gateway" "{name}_gw" {{
  name     = "{name}-gw"
  location = "{location}"
  vnet_id  = azure_virtual_network.{name}.id
}}

resource "azure_vpn_tunnel" "{name}_tunnel" {{
  name       = "{name}-tunnel"
  gateway_id = azure_vpn_gateway.{name}_gw.id
  peer_ip    = "203.0.113.77"
}}
'''
        )
    for i in range(spokes):
        parts.append(
            f'''
resource "azure_virtual_network" "{name}_spoke_{i}" {{
  name              = "{name}-spoke-{i}"
  resource_group_id = azure_resource_group.{name}.id
  location          = "{location}"
  address_spaces    = ["10.{101 + i}.0.0/16"]
}}

resource "azure_vnet_peering" "{name}_peer_{i}" {{
  name      = "{name}-peer-{i}"
  vnet_a_id = azure_virtual_network.{name}.id
  vnet_b_id = azure_virtual_network.{name}_spoke_{i}.id
}}

resource "azure_subnet" "{name}_spoke_{i}_subnet" {{
  name           = "{name}-spoke-{i}-subnet"
  vnet_id        = azure_virtual_network.{name}_spoke_{i}.id
  address_prefix = "10.{101 + i}.1.0/24"
}}

resource "azure_network_interface" "{name}_spoke_{i}_nic" {{
  count     = {vms_per_spoke}
  name      = "{name}-spoke-{i}-nic-${{count.index}}"
  subnet_id = azure_subnet.{name}_spoke_{i}_subnet.id
  location  = "{location}"
}}

resource "azure_virtual_machine" "{name}_spoke_{i}_vm" {{
  count    = {vms_per_spoke}
  name     = "{name}-spoke-{i}-vm-${{count.index}}"
  location = "{location}"
  nic_ids  = [azure_network_interface.{name}_spoke_{i}_nic[count.index].id]
}}
'''
        )
    return "\n".join(parts)


def ml_training(workers: int = 4, name: str = "train") -> str:
    """ML training rig: worker VMs with big disks and shared storage."""
    return f'''
resource "aws_vpc" "{name}" {{
  name       = "{name}"
  cidr_block = "10.42.0.0/16"
}}

resource "aws_subnet" "{name}" {{
  name       = "{name}-subnet"
  vpc_id     = aws_vpc.{name}.id
  cidr_block = cidrsubnet(aws_vpc.{name}.cidr_block, 8, 0)
}}

resource "aws_s3_bucket" "{name}_data" {{
  name       = "{name}-dataset"
  versioning = true
}}

resource "aws_network_interface" "{name}_nic" {{
  count     = {workers}
  name      = "{name}-nic-${{count.index}}"
  subnet_id = aws_subnet.{name}.id
}}

resource "aws_virtual_machine" "{name}_worker" {{
  count   = {workers}
  name    = "{name}-worker-${{count.index}}"
  size    = "xlarge"
  nic_ids = [aws_network_interface.{name}_nic[count.index].id]
  tags    = {{ dataset = aws_s3_bucket.{name}_data.name }}
}}

resource "aws_disk" "{name}_scratch" {{
  count   = {workers}
  name    = "{name}-scratch-${{count.index}}"
  size_gb = 500
  vm_id   = aws_virtual_machine.{name}_worker[count.index].id
}}
'''


def vpn_site(tunnels: int = 2, name: str = "site") -> str:
    """The paper's 3.6 autoscaling scenario: a VPN gateway with a
    variable number of tunnels, sized by ``var.tunnel_count``."""
    return f'''
variable "tunnel_count" {{
  type    = number
  default = {tunnels}
}}

resource "aws_vpc" "{name}" {{
  name       = "{name}"
  cidr_block = "10.50.0.0/16"
}}

resource "aws_vpn_gateway" "{name}" {{
  name   = "{name}-gw"
  vpc_id = aws_vpc.{name}.id
}}

resource "aws_vpn_tunnel" "{name}" {{
  count         = var.tunnel_count
  name          = "{name}-tunnel-${{count.index}}"
  gateway_id    = aws_vpn_gateway.{name}.id
  peer_ip       = "198.51.100.${{count.index + 1}}"
  capacity_mbps = 500
}}
'''


def multi_cloud(n_per_cloud: int = 2, name: str = "mc") -> str:
    """A mixed aws+azure estate exercising both control planes."""
    return (
        web_tier(web_vms=n_per_cloud, app_vms=1, name=f"{name}_aws")
        + hub_spoke(
            spokes=1,
            vms_per_spoke=n_per_cloud,
            with_gateway=False,
            name=f"{name}_az",
        )
    )


def sized_estate(resources: int, name: str = "estate") -> str:
    """A microservices estate with approximately ``resources`` nodes.

    Each service stack is ~1 subnet + v nics + v vms + lb + dns; used by
    benches that sweep estate size. Caps out around 255 services (one
    /16 only subdivides into 256 /24 subnets) -- use
    :func:`scale_estate` beyond that.
    """
    vms = 2
    per_service = 3 + 2 * vms  # subnet + lb + dns + nics + vms
    services = max(1, (resources - 2) // per_service)
    return microservices(services=services, vms_per_service=vms, name=name)


def scale_estate(
    resources: int, name: str = "scale", services_per_vpc: int = 32
) -> str:
    """A multi-VPC microservices estate sized for large benchmarks.

    :func:`sized_estate` packs every service into one /16, which caps
    out at 256 subnets; this variant spreads services across as many
    VPCs as needed (``10.<g>.0.0/16`` per group of ``services_per_vpc``
    services, so up to 256 groups), letting estates of 10k+ resources
    parse, plan, and apply. Each service is one subnet + 2 nics + 2 vms
    + lb + dns (7 resources); each group adds its VPC.
    """
    vms = 2
    per_service = 3 + 2 * vms
    # total = per_service * s + ceil(s / services_per_vpc) VPCs
    services = max(
        1, (resources * services_per_vpc) // (per_service * services_per_vpc + 1)
    )
    parts: List[str] = []
    for i in range(services):
        g, k = divmod(i, services_per_vpc)
        if k == 0:
            parts.append(
                f'''
resource "aws_vpc" "{name}_g{g}" {{
  name       = "{name}-g{g}"
  cidr_block = "10.{g}.0.0/16"
}}
'''
            )
        parts.append(
            f'''
resource "aws_subnet" "{name}_{i}" {{
  name       = "{name}-{i}"
  vpc_id     = aws_vpc.{name}_g{g}.id
  cidr_block = cidrsubnet(aws_vpc.{name}_g{g}.cidr_block, 8, {k})
}}

resource "aws_network_interface" "{name}_{i}_nic" {{
  count     = {vms}
  name      = "{name}-{i}-nic-${{count.index}}"
  subnet_id = aws_subnet.{name}_{i}.id
}}

resource "aws_virtual_machine" "{name}_{i}_vm" {{
  count   = {vms}
  name    = "{name}-{i}-vm-${{count.index}}"
  nic_ids = [aws_network_interface.{name}_{i}_nic[count.index].id]
  tags    = {{ service = "{name}-{i}" }}
}}

resource "aws_load_balancer" "{name}_{i}_lb" {{
  name          = "{name}-{i}-lb"
  subnet_ids    = [aws_subnet.{name}_{i}.id]
  target_vm_ids = aws_virtual_machine.{name}_{i}_vm[*].id
}}

resource "aws_dns_record" "{name}_{i}_dns" {{
  name  = "{name}-{i}-dns"
  zone  = "example.sim"
  value = aws_load_balancer.{name}_{i}_lb.dns_name
}}
'''
        )
    return "\n".join(parts)


def two_region_estate(
    resources: int,
    name: str = "geo",
    regions: tuple = ("eastus", "westus2"),
    region_filter: Optional[tuple] = None,
) -> str:
    """An azure estate striped round-robin across ``regions``.

    Each stack is rg -> vnet -> subnet -> 2 nics -> 2 vms (7 resources)
    pinned to one region, so a regional outage darkens whole dependency
    chains -- the substrate for the degraded-mode (quarantine) bench and
    chaos sweeps. The subnet carries no ``location`` and lands in the
    provider's default region, exercising dependents whose *parents*
    are behind an outage.

    Naming depends only on the stack index, never on the filter, so
    ``region_filter=("eastus",)`` yields the exact reachable subset of
    the full config: same addresses, same attributes. Benches use that
    to compare a degraded apply against its fault-free reachable
    baseline.
    """
    stacks = max(1, resources // 7)
    parts: List[str] = []
    for g in range(stacks):
        region = regions[g % len(regions)]
        if region_filter is not None and region not in region_filter:
            continue
        parts.append(
            f'''
resource "azure_resource_group" "{name}_{g}" {{
  name     = "{name}-rg-{g}"
  location = "{region}"
}}

resource "azure_virtual_network" "{name}_{g}" {{
  name              = "{name}-vnet-{g}"
  resource_group_id = azure_resource_group.{name}_{g}.id
  location          = "{region}"
  address_spaces    = ["10.{g % 256}.0.0/16"]
}}

resource "azure_subnet" "{name}_{g}" {{
  name           = "{name}-subnet-{g}"
  vnet_id        = azure_virtual_network.{name}_{g}.id
  address_prefix = "10.{g % 256}.1.0/24"
}}

resource "azure_network_interface" "{name}_{g}_nic" {{
  count     = 2
  name      = "{name}-{g}-nic-${{count.index}}"
  subnet_id = azure_subnet.{name}_{g}.id
  location  = "{region}"
}}

resource "azure_virtual_machine" "{name}_{g}_vm" {{
  count    = 2
  name     = "{name}-{g}-vm-${{count.index}}"
  location = "{region}"
  nic_ids  = [azure_network_interface.{name}_{g}_nic[count.index].id]
}}
'''
        )
    return "\n".join(parts)


def random_dag_estate(
    nodes: int, seed: int = 0, max_deps: int = 3, name: str = "rnd"
) -> str:
    """A seeded random dependency DAG of ``nodes`` VPC resources.

    Node ``i`` references up to ``max_deps`` earlier nodes through its
    ``tags`` map, so edges always point from lower to higher index (no
    cycles by construction) while the *shape* -- fan-out, depth, width
    -- is pseudo-random but fully determined by ``seed``. Used by the
    executor-equivalence property tests, where an arbitrary DAG shape
    must produce identical schedules across implementations.
    """
    rng = random.Random(seed)
    parts: List[str] = []
    for i in range(nodes):
        tag_items = ['kind = "random-dag"']
        if i > 0:
            n_deps = rng.randint(0, min(max_deps, i))
            for j, dep in enumerate(sorted(rng.sample(range(i), n_deps))):
                tag_items.append(f"d{j} = aws_vpc.{name}_{dep}.name")
        tags = ", ".join(tag_items)
        parts.append(
            f'''
resource "aws_vpc" "{name}_{i}" {{
  name       = "{name}-{i}"
  cidr_block = "10.{(i >> 8) & 255}.{i & 255}.0/24"
  tags       = {{ {tags} }}
}}
'''
        )
    return "\n".join(parts)
