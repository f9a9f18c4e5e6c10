"""The "aws"-like simulated provider.

Catalog of ~16 resource types with AWS-flavoured naming, latency
profiles, and control-plane constraints (CIDR containment/overlap,
reference existence with ``Invalid...NotFound`` error codes).
"""

from __future__ import annotations

import ipaddress
from typing import Any, Dict, List

from ..base import CloudAPIError, ControlPlane, ResourceRecord, parse_network
from ..resources import ResourceTypeSpec, a, spec

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


class AwsControlPlane(ControlPlane):
    """Control plane with AWS-flavoured behaviour and error codes."""

    provider = "aws"
    list_page_size = 25

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("regions", list(AWS_REGIONS))
        kwargs.setdefault("rate_limits", {"read": (20.0, 40), "write": (5.0, 10)})
        super().__init__(**kwargs)

    def _register_catalog(self) -> None:
        for s in aws_catalog():
            self.register_spec(s)

    # -- AWS-style error shapes ------------------------------------------------

    def _not_found_code(self, ref_type: str) -> str:
        short = ref_type.replace("aws_", "") if ref_type else "resource"
        camel = "".join(w.capitalize() for w in short.split("_"))
        return f"Invalid{camel}ID.NotFound"

    def _not_found_message(self, ref_type: str, target_id: str) -> str:
        return f"The id '{target_id}' does not exist"

    # -- provider constraints -----------------------------------------------

    def validate_create(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        if spec.name == "aws_subnet":
            self._check_subnet_cidr(attrs, region)
        if spec.name == "aws_vpc":
            self._check_cidr_shape(attrs.get("cidr_block"), "cidr_block")

    def _check_cidr_shape(self, value: Any, attr: str) -> None:
        if value is None:
            return
        try:
            parse_network(str(value), strict=True)
        except ValueError:
            raise CloudAPIError(
                "InvalidParameterValue",
                f"Value '{value}' for parameter '{attr}' is invalid. "
                f"This is not a valid CIDR block.",
                resource_type="aws_vpc",
                operation="create",
            )

    def _check_subnet_cidr(self, attrs: Dict[str, Any], region: str) -> None:
        vpc_id = attrs.get("vpc_id")
        cidr = attrs.get("cidr_block")
        if not isinstance(vpc_id, str) or not isinstance(cidr, str):
            return
        vpc = self.records.get(vpc_id)
        if vpc is None:
            return  # reference check already produces NotFound
        try:
            subnet_net = parse_network(cidr, strict=True)
            vpc_net = parse_network(str(vpc.attrs.get("cidr_block")), strict=True)
        except ValueError:
            raise CloudAPIError(
                "InvalidParameterValue",
                f"Value '{cidr}' for parameter 'cidrBlock' is invalid.",
                resource_type="aws_subnet",
                operation="create",
            )
        if not subnet_net.subnet_of(vpc_net):
            raise CloudAPIError(
                "InvalidSubnet.Range",
                f"The CIDR '{cidr}' is invalid for the given VPC.",
                resource_type="aws_subnet",
                operation="create",
            )
        for rid in self.records.ids_linked("aws_subnet", "vpc_id", vpc_id):
            record = self.records[rid]
            other = parse_network(str(record.attrs.get("cidr_block")))
            if subnet_net.overlaps(other):
                raise CloudAPIError(
                    "InvalidSubnet.Conflict",
                    f"The CIDR '{cidr}' conflicts with another subnet.",
                    http_status=409,
                    resource_type="aws_subnet",
                    operation="create",
                )
