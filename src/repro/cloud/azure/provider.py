"""The "azure"-like simulated provider.

Implements the constraint examples the paper uses verbatim (3.2):

* a VM and its network interfaces must be in the same location -- and
  when they are not, the error is the *opaque* "specified network
  interface was not found" message from 3.5;
* ``admin_password`` may only be set when ``disable_password_auth`` is
  explicitly false;
* peered virtual networks must not have overlapping address spaces.
"""

from __future__ import annotations

import ipaddress
from typing import Any, Dict

from ..base import CloudAPIError, ControlPlane, ResourceRecord, parse_network
from ..resources import AZURE_LOCATIONS, ResourceTypeSpec


class AzureControlPlane(ControlPlane):
    """Control plane with Azure-flavoured behaviour and error messages."""

    provider = "azure"
    list_page_size = 20
    # ARM throttles writes notoriously hard
    rate_limits = {"read": (15.0, 30), "write": (3.0, 8)}

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("regions", list(AZURE_LOCATIONS))
        super().__init__(**kwargs)

    def _not_found_code(self, ref_type: str) -> str:
        return "ResourceNotFound"

    def _not_found_message(self, ref_type: str, target_id: str) -> str:
        return (
            f"The Resource '{target_id}' under resource group was not found. "
            f"For more details please go to https://aka.ms/ARMResourceNotFoundFix"
        )

    # -- provider constraints ----------------------------------------------

    def validate_create(
        self, spec: ResourceTypeSpec, attrs: Dict[str, Any], region: str
    ) -> None:
        if spec.name == "azure_virtual_machine":
            self._check_vm_nic_locations(attrs, region)
            self._check_vm_password_rules(attrs)
        if spec.name == "azure_subnet":
            self._check_subnet_prefix(attrs)
        if spec.name == "azure_vnet_peering":
            self._check_peering_overlap(attrs)
        if spec.name == "azure_virtual_network":
            self._check_address_spaces(attrs)

    def validate_update(
        self,
        spec: ResourceTypeSpec,
        record: ResourceRecord,
        new_attrs: Dict[str, Any],
    ) -> None:
        if spec.name == "azure_virtual_machine":
            merged = dict(record.attrs)
            merged.update(new_attrs)
            self._check_vm_password_rules(merged)

    def _check_vm_nic_locations(self, attrs: Dict[str, Any], region: str) -> None:
        """The paper's running example: VM and NIC must share a region.

        And, crucially, the error does NOT say that -- it reports the
        NIC as missing, exactly as 3.5 describes.
        """
        for nic_id in attrs.get("nic_ids") or []:
            nic = self.records.get(nic_id)
            if nic is None or nic.type != "azure_network_interface":
                continue  # existence handled by reference validation
            if nic.region != region:
                raise CloudAPIError(
                    "NetworkInterfaceNotFound",
                    "Linux virtual machine creation failed because the "
                    "specified network interface was not found.",
                    http_status=404,
                    resource_type="azure_virtual_machine",
                    operation="create",
                )

    def _check_vm_password_rules(self, attrs: Dict[str, Any]) -> None:
        password = attrs.get("admin_password")
        disable = attrs.get("disable_password_auth")
        if disable is None:
            disable = True
        if password and disable:
            raise CloudAPIError(
                "InvalidParameter",
                "Parameter 'adminPassword' is not allowed when "
                "'disablePasswordAuthentication' is true.",
                resource_type="azure_virtual_machine",
            )
        if not password and disable is False:
            raise CloudAPIError(
                "InvalidParameter",
                "Parameter 'adminPassword' is required when "
                "'disablePasswordAuthentication' is false.",
                resource_type="azure_virtual_machine",
            )

    def _check_address_spaces(self, attrs: Dict[str, Any]) -> None:
        for space in attrs.get("address_spaces") or []:
            try:
                ipaddress.ip_network(str(space), strict=True)
            except ValueError:
                raise CloudAPIError(
                    "InvalidAddressPrefixFormat",
                    f"Address prefix '{space}' is invalid.",
                    resource_type="azure_virtual_network",
                )

    def _check_subnet_prefix(self, attrs: Dict[str, Any]) -> None:
        vnet_id = attrs.get("vnet_id")
        prefix = attrs.get("address_prefix")
        if not isinstance(vnet_id, str) or not isinstance(prefix, str):
            return
        vnet = self.records.get(vnet_id)
        if vnet is None:
            return
        try:
            subnet_net = parse_network(prefix, strict=True)
        except ValueError:
            raise CloudAPIError(
                "InvalidAddressPrefixFormat",
                f"Address prefix '{prefix}' is invalid.",
                resource_type="azure_subnet",
            )
        spaces = [
            parse_network(str(s)) for s in vnet.attrs.get("address_spaces") or []
        ]
        if not any(subnet_net.subnet_of(space) for space in spaces):
            raise CloudAPIError(
                "NetcfgInvalidSubnet",
                f"Subnet '{attrs.get('name')}' is not valid in virtual "
                f"network '{vnet.name}'.",
                resource_type="azure_subnet",
            )
        for rid in self.records.ids_linked("azure_subnet", "vnet_id", vnet_id):
            record = self.records[rid]
            other = parse_network(str(record.attrs.get("address_prefix")))
            if subnet_net.overlaps(other):
                raise CloudAPIError(
                    "NetcfgSubnetRangesOverlap",
                    f"Subnet '{attrs.get('name')}' is not valid because its "
                    f"IP address range overlaps with that of an existing "
                    f"subnet in virtual network '{vnet.name}'.",
                    http_status=409,
                    resource_type="azure_subnet",
                )

    def _check_peering_overlap(self, attrs: Dict[str, Any]) -> None:
        vnet_a = self.records.get(str(attrs.get("vnet_a_id")))
        vnet_b = self.records.get(str(attrs.get("vnet_b_id")))
        if vnet_a is None or vnet_b is None:
            return
        spaces_a = [
            ipaddress.ip_network(str(s)) for s in vnet_a.attrs.get("address_spaces") or []
        ]
        spaces_b = [
            ipaddress.ip_network(str(s)) for s in vnet_b.attrs.get("address_spaces") or []
        ]
        for sa in spaces_a:
            for sb in spaces_b:
                if sa.overlaps(sb):
                    raise CloudAPIError(
                        "VnetAddressSpacesOverlap",
                        "Cannot create or update peering. Virtual networks "
                        "cannot be peered because their address spaces "
                        "overlap.",
                        http_status=409,
                        resource_type="azure_vnet_peering",
                    )
