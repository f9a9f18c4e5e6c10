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
from typing import Any, Dict, List

from ..base import CloudAPIError, ControlPlane, ResourceRecord, parse_network
from ..resources import ResourceTypeSpec, a, spec

AZURE_LOCATIONS = ["eastus", "westus2", "westeurope", "southeastasia"]


def azure_catalog() -> List[ResourceTypeSpec]:
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


class AzureControlPlane(ControlPlane):
    """Control plane with Azure-flavoured behaviour and error messages."""

    provider = "azure"
    list_page_size = 20

    def __init__(self, **kwargs: Any):
        kwargs.setdefault("regions", list(AZURE_LOCATIONS))
        # ARM throttles writes notoriously hard
        kwargs.setdefault("rate_limits", {"read": (15.0, 30), "write": (3.0, 8)})
        super().__init__(**kwargs)

    def _register_catalog(self) -> None:
        for s in azure_catalog():
            self.register_spec(s)

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
