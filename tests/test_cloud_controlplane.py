"""Control plane tests: CRUD, constraints, quotas, logs, data sources."""

import pytest

from repro.cloud import (
    AwsControlPlane,
    AzureControlPlane,
    CloudAPIError,
    CloudGateway,
    SimClock,
)


def make_aws():
    return AwsControlPlane(clock=SimClock(), seed=5)


def make_azure():
    return AzureControlPlane(clock=SimClock(), seed=5)


class TestCrudLifecycle:
    def test_create_read_update_delete(self):
        plane = make_aws()
        vpc = plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        assert vpc["id"].startswith("vpc-")
        read = plane.execute("read", "aws_vpc", resource_id=vpc["id"])
        assert read["name"] == "v"
        plane.execute(
            "update", "aws_vpc", resource_id=vpc["id"], attrs={"name": "v2"}
        )
        assert plane.records[vpc["id"]].attrs["name"] == "v2"
        plane.execute("delete", "aws_vpc", resource_id=vpc["id"])
        assert vpc["id"] not in plane.records

    def test_create_takes_latency(self):
        plane = make_aws()
        t0 = plane.clock.now
        plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        assert plane.clock.now > t0 + 1.0

    def test_defaults_filled(self):
        plane = make_aws()
        vpc = plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        nothing = plane.execute(
            "create",
            "aws_subnet",
            attrs={"name": "s", "vpc_id": vpc["id"], "cidr_block": "10.0.1.0/24"},
            region="us-east-1",
        )
        nic = plane.execute(
            "create",
            "aws_network_interface",
            attrs={"name": "n", "subnet_id": nothing["id"]},
            region="us-east-1",
        )
        vm = plane.execute(
            "create",
            "aws_virtual_machine",
            attrs={"name": "m", "nic_ids": [nic["id"]]},
            region="us-east-1",
        )
        assert vm["size"] == "small"
        assert vm["image"] == "linux-base"
        assert "public_ip" in vm

    def test_read_missing_returns_none(self):
        plane = make_aws()
        assert plane.execute("read", "aws_vpc", resource_id="vpc-nope") is None

    def test_unknown_type(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute("create", "aws_quantum_computer", attrs={})
        assert err.value.code == "UnknownResourceType"


class TestValidationErrors:
    def test_missing_required(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create", "aws_vpc", attrs={"name": "v"}, region="us-east-1"
            )
        assert err.value.code == "MissingParameter"

    def test_unknown_attr(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_vpc",
                attrs={"name": "v", "cidr_block": "10.0.0.0/16", "flavour": "x"},
                region="us-east-1",
            )
        assert err.value.code == "InvalidParameter"

    def test_wrong_type_value(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError):
            plane.execute(
                "create",
                "aws_vpc",
                attrs={"name": 5, "cidr_block": "10.0.0.0/16"},
                region="us-east-1",
            )

    def test_bad_enum(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_disk",
                attrs={"name": "d", "size_gb": 10, "disk_type": "quantum"},
                region="us-east-1",
            )
        assert err.value.code == "InvalidParameterValue"

    def test_invalid_region(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_vpc",
                attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
                region="mars-north-1",
            )
        assert err.value.code == "InvalidLocation"

    def test_dangling_reference_aws_style(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_subnet",
                attrs={
                    "name": "s",
                    "vpc_id": "vpc-missing",
                    "cidr_block": "10.0.0.0/24",
                },
                region="us-east-1",
            )
        assert err.value.code == "InvalidVpcID.NotFound"

    def test_wrong_type_reference_reports_not_found(self):
        """The leaky-abstraction error from paper 3.2."""
        plane = make_aws()
        vpc = plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_network_interface",
                attrs={"name": "n", "subnet_id": vpc["id"]},  # a VPC, not subnet
                region="us-east-1",
            )
        assert "NotFound" in err.value.code

    def test_name_conflict(self):
        plane = make_aws()
        attrs = {"name": "dup", "cidr_block": "10.0.0.0/16"}
        plane.execute("create", "aws_vpc", attrs=dict(attrs), region="us-east-1")
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create",
                "aws_vpc",
                attrs={"name": "dup", "cidr_block": "10.1.0.0/16"},
                region="us-east-1",
            )
        assert err.value.code == "Conflict"

    def test_quota(self):
        plane = make_aws()
        plane.set_quota("aws_s3_bucket", "us-east-1", 1)
        plane.execute(
            "create", "aws_s3_bucket", attrs={"name": "a"}, region="us-east-1"
        )
        with pytest.raises(CloudAPIError) as err:
            plane.execute(
                "create", "aws_s3_bucket", attrs={"name": "b"}, region="us-east-1"
            )
        assert err.value.code == "QuotaExceeded"

    def test_immutable_attr_update_rejected(self):
        plane = make_aws()
        vpc = plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        with pytest.raises(CloudAPIError):
            plane.execute(
                "update",
                "aws_vpc",
                resource_id=vpc["id"],
                attrs={"cidr_block": "10.9.0.0/16"},
            )

    def test_delete_with_dependents_rejected(self):
        plane = make_aws()
        vpc = plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        plane.execute(
            "create",
            "aws_subnet",
            attrs={"name": "s", "vpc_id": vpc["id"], "cidr_block": "10.0.1.0/24"},
            region="us-east-1",
        )
        with pytest.raises(CloudAPIError) as err:
            plane.execute("delete", "aws_vpc", resource_id=vpc["id"])
        assert err.value.code == "DependencyViolation"


class TestAwsCidrRules:
    def setup_method(self):
        self.plane = make_aws()
        self.vpc = self.plane.execute(
            "create",
            "aws_vpc",
            attrs={"name": "v", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )

    def test_subnet_outside_vpc(self):
        with pytest.raises(CloudAPIError) as err:
            self.plane.execute(
                "create",
                "aws_subnet",
                attrs={
                    "name": "s",
                    "vpc_id": self.vpc["id"],
                    "cidr_block": "192.168.0.0/24",
                },
                region="us-east-1",
            )
        assert err.value.code == "InvalidSubnet.Range"

    def test_overlapping_subnets(self):
        common = {"vpc_id": self.vpc["id"]}
        self.plane.execute(
            "create",
            "aws_subnet",
            attrs={"name": "a", "cidr_block": "10.0.1.0/24", **common},
            region="us-east-1",
        )
        with pytest.raises(CloudAPIError) as err:
            self.plane.execute(
                "create",
                "aws_subnet",
                attrs={"name": "b", "cidr_block": "10.0.1.128/25", **common},
                region="us-east-1",
            )
        assert err.value.code == "InvalidSubnet.Conflict"


class TestAzureRules:
    def setup_method(self):
        self.plane = make_azure()
        self.rg = self.plane.execute(
            "create",
            "azure_resource_group",
            attrs={"name": "rg", "location": "eastus"},
            region="eastus",
        )
        self.vnet = self.plane.execute(
            "create",
            "azure_virtual_network",
            attrs={
                "name": "v",
                "resource_group_id": self.rg["id"],
                "location": "eastus",
                "address_spaces": ["10.0.0.0/16"],
            },
            region="eastus",
        )
        self.subnet = self.plane.execute(
            "create",
            "azure_subnet",
            attrs={
                "name": "s",
                "vnet_id": self.vnet["id"],
                "address_prefix": "10.0.1.0/24",
            },
            region="eastus",
        )
        self.nic = self.plane.execute(
            "create",
            "azure_network_interface",
            attrs={"name": "n", "subnet_id": self.subnet["id"], "location": "eastus"},
            region="eastus",
        )

    def test_vm_nic_region_mismatch_is_opaque(self):
        """The paper's running example, verbatim."""
        with pytest.raises(CloudAPIError) as err:
            self.plane.execute(
                "create",
                "azure_virtual_machine",
                attrs={"name": "vm", "location": "westus2", "nic_ids": [self.nic["id"]]},
                region="westus2",
            )
        assert err.value.code == "NetworkInterfaceNotFound"
        assert "was not found" in err.value.message
        assert "region" not in err.value.message  # the opacity is the point

    def test_vm_same_region_succeeds(self):
        vm = self.plane.execute(
            "create",
            "azure_virtual_machine",
            attrs={"name": "vm", "location": "eastus", "nic_ids": [self.nic["id"]]},
            region="eastus",
        )
        assert vm["id"].startswith("vm-")

    def test_password_requires_auth_enabled(self):
        with pytest.raises(CloudAPIError):
            self.plane.execute(
                "create",
                "azure_virtual_machine",
                attrs={
                    "name": "vm",
                    "location": "eastus",
                    "nic_ids": [self.nic["id"]],
                    "admin_password": "hunter2!",
                },
                region="eastus",
            )

    def test_password_with_auth_enabled(self):
        vm = self.plane.execute(
            "create",
            "azure_virtual_machine",
            attrs={
                "name": "vm",
                "location": "eastus",
                "nic_ids": [self.nic["id"]],
                "admin_password": "hunter2!",
                "disable_password_auth": False,
            },
            region="eastus",
        )
        assert vm["admin_password"] == "hunter2!"

    def test_subnet_outside_vnet(self):
        with pytest.raises(CloudAPIError) as err:
            self.plane.execute(
                "create",
                "azure_subnet",
                attrs={
                    "name": "bad",
                    "vnet_id": self.vnet["id"],
                    "address_prefix": "172.16.0.0/24",
                },
                region="eastus",
            )
        assert err.value.code == "NetcfgInvalidSubnet"

    def test_peering_overlap_rejected(self):
        other = self.plane.execute(
            "create",
            "azure_virtual_network",
            attrs={
                "name": "v2",
                "resource_group_id": self.rg["id"],
                "location": "eastus",
                "address_spaces": ["10.0.0.0/20"],  # overlaps self.vnet
            },
            region="eastus",
        )
        with pytest.raises(CloudAPIError) as err:
            self.plane.execute(
                "create",
                "azure_vnet_peering",
                attrs={
                    "name": "p",
                    "vnet_a_id": self.vnet["id"],
                    "vnet_b_id": other["id"],
                },
                region="eastus",
            )
        assert err.value.code == "VnetAddressSpacesOverlap"


class TestActivityLogAndExternal:
    def test_iac_operations_logged(self):
        plane = make_aws()
        plane.execute(
            "create",
            "aws_s3_bucket",
            attrs={"name": "b"},
            region="us-east-1",
        )
        assert len(plane.log) == 1
        event = plane.log.all_events()[0]
        assert event.actor == "iac"
        assert not event.is_external

    def test_external_operations_flagged(self):
        plane = make_aws()
        bucket = plane.execute(
            "create", "aws_s3_bucket", attrs={"name": "b"}, region="us-east-1"
        )
        plane.external_update(bucket["id"], {"versioning": True}, actor="script")
        events = plane.log.all_events()
        assert events[-1].is_external
        assert events[-1].changed_attrs == ("versioning",)

    def test_external_create_and_delete(self):
        plane = make_aws()
        rid = plane.external_create(
            "aws_s3_bucket", {"name": "shadow"}, "us-east-1", actor="clickops"
        )
        assert rid in plane.records
        plane.external_delete(rid, actor="clickops")
        assert rid not in plane.records

    def test_log_cursor(self):
        plane = make_aws()
        plane.execute(
            "create", "aws_s3_bucket", attrs={"name": "b1"}, region="us-east-1"
        )
        cursor = plane.log.next_cursor
        plane.execute(
            "create", "aws_s3_bucket", attrs={"name": "b2"}, region="us-east-1"
        )
        new = plane.log.events_since(cursor)
        assert len(new) == 1
        assert new[0].resource_name == "b2"


class TestListPagination:
    def test_pages(self):
        plane = make_aws()
        for i in range(60):
            plane.external_create(
                "aws_s3_bucket", {"name": f"b{i}"}, "us-east-1"
            )
        page1 = plane.execute("list", "aws_s3_bucket", attrs={"page_token": 0})
        assert len(page1["items"]) == plane.list_page_size
        assert page1["next_token"] is not None
        total = 0
        token = 0
        while token is not None:
            page = plane.execute("list", "aws_s3_bucket", attrs={"page_token": token})
            total += len(page["items"])
            token = page["next_token"]
        assert total == 60


class TestDataSources:
    def test_region_pseudo_source(self):
        plane = make_aws()
        assert plane.read_data("aws_region", {}, "eu-west-1")["name"] == "eu-west-1"
        assert plane.read_data("aws_region", {})["name"] == plane.regions[0]

    def test_zones(self):
        plane = make_aws()
        zones = plane.read_data("aws_availability_zones", {}, "us-east-1")
        assert len(zones["names"]) == 3

    def test_catalog_lookup_by_name(self):
        plane = make_aws()
        plane.external_create("aws_s3_bucket", {"name": "found-me"}, "us-east-1")
        result = plane.read_data("aws_s3_bucket", {"name": "found-me"})
        assert result["name"] == "found-me"

    def test_catalog_lookup_missing(self):
        plane = make_aws()
        with pytest.raises(CloudAPIError):
            plane.read_data("aws_s3_bucket", {"name": "ghost"})


class TestGateway:
    def test_routing(self, gateway):
        assert gateway.provider_of("aws_vpc") == "aws"
        assert gateway.provider_of("azure_subnet") == "azure"
        for unserved in ("gcp_thing", "nope_thing"):
            assert gateway.try_provider_of(unserved) is None
            with pytest.raises(CloudAPIError):
                gateway.provider_of(unserved)

    def test_shared_clock(self, gateway):
        assert gateway.planes["aws"].clock is gateway.clock
        assert gateway.planes["azure"].clock is gateway.clock

    def test_region_for(self, gateway):
        assert gateway.region_for("azure_virtual_machine", {"location": "westeurope"}) == "westeurope"
        assert gateway.region_for("aws_vpc", {}) == "us-east-1"

    def test_api_call_accounting(self, gateway):
        before = gateway.total_api_calls()
        gateway.execute(
            "create",
            "aws_s3_bucket",
            attrs={"name": "b"},
            region="us-east-1",
        )
        assert gateway.total_api_calls() == before + 1
        assert gateway.api_calls_by_class()["write"] >= 1

    def test_try_spec(self, gateway):
        assert gateway.try_spec("aws_vpc") is not None
        assert gateway.try_spec("aws_nonsense") is None
