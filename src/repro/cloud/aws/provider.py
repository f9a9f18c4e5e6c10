"""The "aws"-like simulated provider.

The control plane of the ~16 resource types of
:func:`~repro.cloud.resources.aws_catalog` (AWS-flavoured naming and
latency profiles): control-plane constraints (CIDR containment/overlap,
reference existence with ``Invalid...NotFound`` error codes).
"""

from __future__ import annotations

from typing import Any, Dict

from ..base import CloudAPIError, ControlPlane, parse_network
from ..resources import AWS_REGIONS, ResourceTypeSpec


class AwsControlPlane(ControlPlane):
    """Control plane with AWS-flavoured behaviour and error codes."""

    provider = "aws"
    list_page_size = 25
    rate_limits = {"read": (20.0, 40), "write": (5.0, 10)}

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("regions", list(AWS_REGIONS))
        super().__init__(**kwargs)

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
