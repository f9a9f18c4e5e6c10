"""Resource type specifications for the simulated clouds, and their
catalog.

A :class:`ResourceTypeSpec` is the *cloud-level* schema of one resource
type: attribute names/types, which attributes the cloud computes, which
reference other resources (and of what type -- the semantic information
the paper says IaC-level "stringly" types throw away, 3.2), and the
provisioning latency profile.

The catalog -- which types each provider serves, and in which regions
(:func:`aws_catalog`, :func:`azure_catalog`, :class:`Catalog`) -- is
data, kept apart from the planes that serve it. A compile, a validation and
a plan decide from it alone: the compile cache's schema fingerprint,
the type checker and the rules, the planner's spec, region and provider
lookups. None of them calls a cloud, so a verb that
calls none (a ``plan`` the world's record proves, ``show``) reads the
catalog without importing, building or replaying a control plane. Each
plane serves its provider's table of :func:`simulated_catalog`, the
same spec objects, and a gateway exposes the catalog its planes hold
(:attr:`repro.cloud.gateway.CloudGateway.catalog`).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import types
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .latency import LatencyProfile


@dataclasses.dataclass(frozen=True)
class AttributeSpec:
    """Schema of one attribute of a resource type.

    ``semantic`` carries the machine-readable meaning of the value:

    * ``ref:<type>`` / ``ref_list:<type>`` -- id of another resource
    * ``cidr`` / ``cidr_list`` -- network prefixes
    * ``region`` -- a provider region name
    * ``enum:a|b|c`` -- closed vocabulary
    * ``password`` -- secret material
    * ``""`` -- plain value
    """

    name: str
    type: str = "string"
    required: bool = False
    computed: bool = False
    default: Any = None
    semantic: str = ""
    forces_replacement: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        # decode ``semantic`` once; these are read on every simulated
        # API call, and startswith/split per read shows up at estate
        # scale (frozen dataclass, hence object.__setattr__)
        sem = self.semantic
        if sem.startswith("ref:"):
            target: Optional[str] = sem[4:]
        elif sem.startswith("ref_list:"):
            target = sem[9:]
        else:
            target = None
        object.__setattr__(self, "_ref_target", target)
        object.__setattr__(self, "_is_ref_list", sem.startswith("ref_list:"))
        object.__setattr__(
            self,
            "_enum_values",
            sem[5:].split("|") if sem.startswith("enum:") else None,
        )
        object.__setattr__(self, "_base_type", self.type.split("(")[0])

    @property
    def ref_target(self) -> Optional[str]:
        """Referenced resource type, if this is a reference attribute."""
        return self._ref_target  # type: ignore[attr-defined]

    @property
    def is_ref_list(self) -> bool:
        return self._is_ref_list  # type: ignore[attr-defined]

    @property
    def enum_values(self) -> Optional[List[str]]:
        return self._enum_values  # type: ignore[attr-defined]

    @property
    def base_type(self) -> str:
        """``type`` with any precision suffix stripped: ``string(64)``
        -> ``string``."""
        return self._base_type  # type: ignore[attr-defined]


@dataclasses.dataclass(frozen=True)
class ResourceTypeSpec:
    """Cloud-level schema + behaviour of one resource type."""

    name: str
    provider: str
    attributes: Dict[str, AttributeSpec]
    latency: LatencyProfile
    id_prefix: str
    description: str = ""
    # attribute changes that cannot be performed in place; the resource
    # must be destroyed and recreated (drives rollback planning, 3.4)
    immutable_attrs: tuple = ()

    def __post_init__(self) -> None:
        # per-kind views, computed once (validation walks them on every
        # simulated API call; ``attributes`` is never mutated)
        values = tuple(self.attributes.values())
        object.__setattr__(
            self, "_required", [a for a in values if a.required]
        )
        object.__setattr__(
            self, "_computed", [a for a in values if a.computed]
        )
        object.__setattr__(
            self, "_reference", [a for a in values if a.ref_target]
        )
        object.__setattr__(
            self,
            "_settable",
            tuple(
                (name, a.default)
                for name, a in self.attributes.items()
                if not a.computed
            ),
        )

    def signature(self) -> str:
        """One line naming everything a compile or a validation decides
        from this spec; a catalog's fingerprint hashes these."""
        attrs = ",".join(
            f"{a.name}:{a.type}:{int(a.computed)}:{int(a.required)}:"
            f"{int(a.forces_replacement)}:{a.semantic}:{a.default!r}"
            for a in sorted(self.attributes.values(), key=lambda a: a.name)
        )
        immutable = ",".join(self.immutable_attrs)
        return f"{self.provider}|{self.name}|{self.id_prefix}|{immutable}|{attrs}"

    def required_attrs(self) -> List[AttributeSpec]:
        return self._required  # type: ignore[attr-defined]

    def computed_attrs(self) -> List[AttributeSpec]:
        return self._computed  # type: ignore[attr-defined]

    def reference_attrs(self) -> List[AttributeSpec]:
        return self._reference  # type: ignore[attr-defined]

    def settable_defaults(self) -> Tuple[Tuple[str, Any], ...]:
        """``(name, default)`` of every attribute a create may set, in
        declaration order."""
        return self._settable  # type: ignore[attr-defined]

    def attr(self, name: str) -> Optional[AttributeSpec]:
        return self.attributes.get(name)


def settable_attrs(
    spec: Optional[ResourceTypeSpec], attrs: Dict[str, Any]
) -> Dict[str, Any]:
    """The attributes of ``attrs`` a create or update may send: ``None``
    values, attributes ``spec`` does not declare and ones the cloud
    computes are dropped (with no spec, only ``id`` is known computed)."""

    def sendable(key: str) -> bool:
        if spec is None:
            return key != "id"
        aspec = spec.attr(key)
        return aspec is not None and not aspec.computed

    return {k: v for k, v in attrs.items() if v is not None and sendable(k)}


def spec(
    name: str,
    provider: str,
    attrs: List[AttributeSpec],
    create_s: float,
    update_s: Optional[float] = None,
    delete_s: Optional[float] = None,
    id_prefix: str = "",
    description: str = "",
    immutable: tuple = (),
    spread: float = 0.15,
) -> ResourceTypeSpec:
    """Terse constructor used by the provider catalogs."""
    attr_map = {a.name: a for a in attrs}
    if "id" not in attr_map:
        attr_map["id"] = AttributeSpec("id", computed=True, description="cloud id")
    profile = LatencyProfile(
        create_s=create_s,
        update_s=update_s if update_s is not None else max(1.0, create_s * 0.4),
        delete_s=delete_s if delete_s is not None else max(1.0, create_s * 0.3),
        spread=spread,
    )
    return ResourceTypeSpec(
        name=name,
        provider=provider,
        attributes=attr_map,
        latency=profile,
        id_prefix=id_prefix or name.split("_", 1)[-1][:3] + "-",
        description=description,
        immutable_attrs=immutable,
    )


def a(
    name: str,
    type: str = "string",
    required: bool = False,
    computed: bool = False,
    default: Any = None,
    semantic: str = "",
    forces_replacement: bool = False,
    description: str = "",
) -> AttributeSpec:
    """Terse AttributeSpec constructor for catalogs."""
    return AttributeSpec(
        name=name,
        type=type,
        required=required,
        computed=computed,
        default=default,
        semantic=semantic,
        forces_replacement=forces_replacement,
        description=description,
    )


# -- the simulated clouds' catalog ------------------------------------------------

AWS_REGIONS = ["us-east-1", "us-west-2", "eu-west-1", "ap-southeast-1"]


def aws_catalog() -> List[ResourceTypeSpec]:
    """Every resource type the aws-like provider supports."""
    p = "aws"
    return [
        spec(
            "aws_vpc",
            p,
            [
                a("name", required=True),
                a("cidr_block", required=True, semantic="cidr", forces_replacement=True),
                a("tags", type="map"),
                a("arn", computed=True),
            ],
            create_s=4.0,
            id_prefix="vpc-",
            immutable=("cidr_block",),
            description="Isolated virtual network",
        ),
        spec(
            "aws_subnet",
            p,
            [
                a("name", required=True),
                a("vpc_id", required=True, semantic="ref:aws_vpc", forces_replacement=True),
                a("cidr_block", required=True, semantic="cidr", forces_replacement=True),
                a("availability_zone"),
                a("tags", type="map"),
            ],
            create_s=2.5,
            id_prefix="subnet-",
            immutable=("vpc_id", "cidr_block"),
            description="VPC subnet",
        ),
        spec(
            "aws_internet_gateway",
            p,
            [a("name", required=True), a("vpc_id", required=True, semantic="ref:aws_vpc")],
            create_s=3.0,
            id_prefix="igw-",
            description="Internet gateway",
        ),
        spec(
            "aws_route_table",
            p,
            [
                a("name", required=True),
                a("vpc_id", required=True, semantic="ref:aws_vpc"),
                a("routes", type="list"),
            ],
            create_s=2.0,
            id_prefix="rtb-",
            description="Routing table",
        ),
        spec(
            "aws_security_group",
            p,
            [
                a("name", required=True),
                a("vpc_id", required=True, semantic="ref:aws_vpc"),
                a("ingress_rules", type="list"),
                a("egress_rules", type="list"),
            ],
            create_s=2.0,
            id_prefix="sg-",
            description="Stateful firewall",
        ),
        spec(
            "aws_network_interface",
            p,
            [
                a("name", required=True),
                a("subnet_id", required=True, semantic="ref:aws_subnet"),
                a("security_group_ids", type="list", semantic="ref_list:aws_security_group"),
                a("private_ip", computed=True),
            ],
            create_s=2.0,
            id_prefix="eni-",
            description="Elastic network interface",
        ),
        spec(
            "aws_virtual_machine",
            p,
            [
                a("name", required=True),
                a("image", default="linux-base", forces_replacement=True),
                a(
                    "size",
                    default="small",
                    semantic="enum:small|medium|large|xlarge",
                ),
                a("nic_ids", type="list", required=True, semantic="ref_list:aws_network_interface"),
                a("user_data"),
                a("tags", type="map"),
                a("public_ip", computed=True),
            ],
            create_s=45.0,
            update_s=20.0,
            delete_s=15.0,
            id_prefix="i-",
            immutable=("image",),
            description="Virtual machine instance",
        ),
        spec(
            "aws_disk",
            p,
            [
                a("name", required=True),
                a("size_gb", type="number", required=True),
                a("disk_type", default="gp", semantic="enum:gp|io"),
                a("vm_id", semantic="ref:aws_virtual_machine"),
            ],
            create_s=8.0,
            id_prefix="vol-",
            immutable=("disk_type",),
            description="Block storage volume",
        ),
        spec(
            "aws_load_balancer",
            p,
            [
                a("name", required=True),
                a("subnet_ids", type="list", required=True, semantic="ref_list:aws_subnet"),
                a("target_vm_ids", type="list", semantic="ref_list:aws_virtual_machine"),
                a("dns_name", computed=True),
            ],
            create_s=90.0,
            update_s=30.0,
            delete_s=25.0,
            id_prefix="elb-",
            description="Managed load balancer",
        ),
        spec(
            "aws_database_instance",
            p,
            [
                a("name", required=True),
                a("engine", required=True, semantic="enum:postgres|mysql|mariadb", forces_replacement=True),
                a("size", default="small", semantic="enum:small|medium|large"),
                a("storage_gb", type="number", default=20),
                a("subnet_ids", type="list", semantic="ref_list:aws_subnet"),
                a("password", semantic="password"),
                a("endpoint", computed=True),
            ],
            create_s=300.0,
            update_s=120.0,
            delete_s=60.0,
            id_prefix="db-",
            immutable=("engine",),
            description="Managed relational database",
        ),
        spec(
            "aws_s3_bucket",
            p,
            [
                a("name", required=True),
                a("versioning", type="bool", default=False),
                a("arn", computed=True),
            ],
            create_s=3.0,
            id_prefix="bkt-",
            description="Object storage bucket",
        ),
        spec(
            "aws_vpn_gateway",
            p,
            [
                a("name", required=True),
                a("vpc_id", required=True, semantic="ref:aws_vpc"),
                a("public_ip", computed=True),
            ],
            create_s=600.0,
            update_s=120.0,
            delete_s=90.0,
            id_prefix="vgw-",
            description="Site-to-site VPN gateway",
        ),
        spec(
            "aws_vpn_tunnel",
            p,
            [
                a("name", required=True),
                a("gateway_id", required=True, semantic="ref:aws_vpn_gateway"),
                a("peer_ip", required=True),
                a("capacity_mbps", type="number", default=500),
            ],
            create_s=120.0,
            update_s=40.0,
            delete_s=20.0,
            id_prefix="vpn-",
            description="VPN tunnel attached to a gateway",
        ),
        spec(
            "aws_autoscaling_group",
            p,
            [
                a("name", required=True),
                a("min_size", type="number", default=1),
                a("max_size", type="number", default=4),
                a("desired_capacity", type="number", default=1),
                a("subnet_ids", type="list", semantic="ref_list:aws_subnet"),
                a("instance_size", default="small", semantic="enum:small|medium|large"),
            ],
            create_s=30.0,
            id_prefix="asg-",
            description="Autoscaling group",
        ),
        spec(
            "aws_iam_role",
            p,
            [
                a("name", required=True),
                a("policy_json"),
                a("arn", computed=True),
            ],
            create_s=4.0,
            id_prefix="role-",
            description="IAM role",
        ),
        spec(
            "aws_dns_record",
            p,
            [
                a("name", required=True),
                a("zone", required=True),
                a("value", required=True),
                a("ttl", type="number", default=300),
            ],
            create_s=10.0,
            id_prefix="rec-",
            description="DNS record",
        ),
    ]


AZURE_LOCATIONS = ["eastus", "westus2", "westeurope", "southeastasia"]


def azure_catalog() -> List[ResourceTypeSpec]:
    """Every resource type the azure-like provider supports."""
    p = "azure"
    return [
        spec(
            "azure_resource_group",
            p,
            [a("name", required=True), a("location", required=True, semantic="region")],
            create_s=2.0,
            id_prefix="rg-",
            description="Resource group",
        ),
        spec(
            "azure_virtual_network",
            p,
            [
                a("name", required=True),
                a("resource_group_id", required=True, semantic="ref:azure_resource_group"),
                a("location", required=True, semantic="region"),
                a("address_spaces", type="list", required=True, semantic="cidr_list"),
            ],
            create_s=5.0,
            id_prefix="vnet-",
            description="Virtual network",
        ),
        spec(
            "azure_subnet",
            p,
            [
                a("name", required=True),
                a("vnet_id", required=True, semantic="ref:azure_virtual_network", forces_replacement=True),
                a("address_prefix", required=True, semantic="cidr", forces_replacement=True),
            ],
            create_s=3.0,
            id_prefix="snet-",
            immutable=("vnet_id", "address_prefix"),
            description="VNet subnet",
        ),
        spec(
            "azure_network_security_group",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("rules", type="list"),
            ],
            create_s=3.0,
            id_prefix="nsg-",
            description="Network security group",
        ),
        spec(
            "azure_network_interface",
            p,
            [
                a("name", required=True),
                a("subnet_id", required=True, semantic="ref:azure_subnet"),
                a("location", required=True, semantic="region"),
                a("nsg_id", semantic="ref:azure_network_security_group"),
                a("private_ip", computed=True),
            ],
            create_s=3.0,
            id_prefix="nic-",
            description="Network interface card",
        ),
        spec(
            "azure_public_ip",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("sku", default="basic", semantic="enum:basic|standard"),
                a("ip_address", computed=True),
            ],
            create_s=4.0,
            id_prefix="pip-",
            description="Public IP address",
        ),
        spec(
            "azure_virtual_machine",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("size", default="Standard_B1s", semantic="enum:Standard_B1s|Standard_D2s|Standard_D4s|Standard_D8s"),
                a("image", default="ubuntu-lts", forces_replacement=True),
                a("nic_ids", type="list", required=True, semantic="ref_list:azure_network_interface"),
                a("admin_username", default="azureuser"),
                a("admin_password", semantic="password"),
                a("disable_password_auth", type="bool", default=True),
                a("os_disk_gb", type="number", default=30),
                a("private_ip", computed=True),
            ],
            create_s=60.0,
            update_s=25.0,
            delete_s=20.0,
            id_prefix="vm-",
            immutable=("image",),
            description="Linux virtual machine",
        ),
        spec(
            "azure_disk",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("size_gb", type="number", required=True),
                a("vm_id", semantic="ref:azure_virtual_machine"),
            ],
            create_s=6.0,
            id_prefix="disk-",
            description="Managed disk",
        ),
        spec(
            "azure_load_balancer",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("frontend_ip_id", semantic="ref:azure_public_ip"),
                a("backend_vm_ids", type="list", semantic="ref_list:azure_virtual_machine"),
            ],
            create_s=60.0,
            update_s=25.0,
            id_prefix="lb-",
            description="Load balancer",
        ),
        spec(
            "azure_database",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("engine", required=True, semantic="enum:postgres|mysql", forces_replacement=True),
                a("storage_gb", type="number", default=32),
                a("admin_password", semantic="password"),
                a("fqdn", computed=True),
            ],
            create_s=240.0,
            update_s=90.0,
            delete_s=45.0,
            id_prefix="sqldb-",
            immutable=("engine",),
            description="Managed database",
        ),
        spec(
            "azure_storage_account",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("replication", default="LRS", semantic="enum:LRS|ZRS|GRS"),
            ],
            create_s=15.0,
            id_prefix="st-",
            description="Storage account",
        ),
        spec(
            "azure_vpn_gateway",
            p,
            [
                a("name", required=True),
                a("location", required=True, semantic="region"),
                a("vnet_id", required=True, semantic="ref:azure_virtual_network"),
                a("sku", default="VpnGw1", semantic="enum:VpnGw1|VpnGw2|VpnGw3"),
                a("public_ip", computed=True),
            ],
            create_s=1500.0,
            update_s=300.0,
            delete_s=240.0,
            id_prefix="vgw-",
            spread=0.25,
            description="VPN gateway (notoriously slow to provision)",
        ),
        spec(
            "azure_vpn_tunnel",
            p,
            [
                a("name", required=True),
                a("gateway_id", required=True, semantic="ref:azure_vpn_gateway"),
                a("peer_ip", required=True),
                a("capacity_mbps", type="number", default=500),
            ],
            create_s=90.0,
            update_s=30.0,
            id_prefix="cn-",
            description="VPN site-to-site connection",
        ),
        spec(
            "azure_vnet_peering",
            p,
            [
                a("name", required=True),
                a("vnet_a_id", required=True, semantic="ref:azure_virtual_network"),
                a("vnet_b_id", required=True, semantic="ref:azure_virtual_network"),
            ],
            create_s=10.0,
            id_prefix="peer-",
            description="VNet peering link",
        ),
    ]


class Catalog:
    """Per provider: the resource types it serves, by name, and its
    regions, the default first. Read in place, never copied: a
    gateway's catalog is a view of its planes' own tables."""

    def __init__(
        self,
        specs: Dict[str, Mapping[str, ResourceTypeSpec]],
        regions: Dict[str, List[str]],
    ):
        self.specs = specs
        self.regions = regions

    @property
    def providers(self) -> List[str]:
        return list(self.specs)

    def try_provider_of(self, rtype: str) -> Optional[str]:
        """The provider serving ``rtype``, or None if none does.

        A type's prefix names its provider (``aws_vpc`` -> ``"aws"``),
        the provider-prefix convention of Terraform's provider plugins:
        a plane is mounted under its prefix, so the prefix is the whole
        routing rule.
        """
        prefix = rtype.split("_", 1)[0]
        return prefix if prefix in self.specs else None

    def provider_of(self, rtype: str) -> str:
        provider = self.try_provider_of(rtype)
        if provider is not None:
            return provider
        # imported on this path only: reading the catalog loads no plane
        from .base import CloudAPIError

        raise CloudAPIError(
            "UnknownResourceType",
            f"No provider is configured for resource type '{rtype}'.",
            http_status=404,
            resource_type=rtype,
        )

    def try_spec(self, rtype: str) -> Optional[ResourceTypeSpec]:
        """The spec of ``rtype``, or None for a type nobody serves."""
        specs = self.specs.get(rtype.split("_", 1)[0])
        return None if specs is None else specs.get(rtype)

    @functools.cached_property
    def _by_type(self) -> Dict[str, ResourceTypeSpec]:
        return {
            name: spec for table in self.specs.values() for name, spec in table.items()
        }

    def attr_spec(self, rtype: str, attr: str) -> Optional[AttributeSpec]:
        """The spec of ``rtype``'s attribute ``attr``, or None: two dict
        lookups, on every rule's read of a schema default."""
        spec = self._by_type.get(rtype)
        return None if spec is None else spec.attributes.get(attr)

    def regions_of(self, provider: str) -> List[str]:
        """``provider``'s regions, the default first; none for a
        provider the catalog does not hold."""
        return self.regions.get(provider, [])

    @functools.cached_property
    def validation_digest(self) -> str:
        """Digest of everything validation reads here (every spec's
        :meth:`~ResourceTypeSpec.signature` by type name, every
        provider's regions): a recorded verdict holds only under the
        catalog that gave it. Hashed once per catalog: a resident engine
        asks on every validation whether its last one still holds."""
        specs = self._by_type
        lines = [specs[rtype].signature() for rtype in sorted(specs)]
        lines += [
            f"{provider}@{','.join(regions)}"
            for provider, regions in sorted(self.regions.items())
        ]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def default_region(self, rtype: str) -> str:
        return self.regions[self.provider_of(rtype)][0]

    def region_for(self, rtype: str, attrs: Dict[str, Any]) -> str:
        """The region an instance lands in: location attr, else default."""
        location = attrs.get("location")
        if isinstance(location, str) and location:
            return location
        return self.default_region(rtype)


@functools.lru_cache(maxsize=None)
def simulated_catalog() -> Catalog:
    """The catalog of the simulated aws+azure pair, built once per
    process and shared by every engine that was given no gateway: the
    read-only tables every aws and azure plane serves."""
    return Catalog(
        {
            "aws": types.MappingProxyType({s.name: s for s in aws_catalog()}),
            "azure": types.MappingProxyType({s.name: s for s in azure_catalog()}),
        },
        {"aws": list(AWS_REGIONS), "azure": list(AZURE_LOCATIONS)},
    )
