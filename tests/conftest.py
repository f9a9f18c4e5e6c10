"""Shared fixtures for the test suite."""

import pytest

from repro.cloud import CloudGateway, SimClock
from repro.core import CloudlessEngine
from repro.cloud.resources import simulated_catalog


@pytest.fixture
def gateway():
    """A fresh simulated multi-cloud gateway."""
    return CloudGateway.simulated(seed=1234)


@pytest.fixture
def engine():
    """A fresh cloudless engine on its own simulated clouds."""
    return CloudlessEngine(seed=1234)


@pytest.fixture(scope="session")
def catalog():
    """The simulated clouds' catalog of resource types (read-only;
    shared by the whole process)."""
    return simulated_catalog()


FIGURE2_SOURCE = '''
data "aws_region" "current" {}

variable "vmName" {
  type    = string
  default = "cloudless"
}

resource "aws_network_interface" "n1" {
  name      = "example-nic"
  subnet_id = aws_subnet.s1.id
}

resource "aws_subnet" "s1" {
  name       = "example-subnet"
  vpc_id     = aws_vpc.v1.id
  cidr_block = "10.0.1.0/24"
}

resource "aws_vpc" "v1" {
  name       = "example-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_virtual_machine" "vm1" {
  name    = var.vmName
  nic_ids = [aws_network_interface.n1.id]
}
'''


@pytest.fixture
def figure2_source():
    """The paper's Figure 2 program, completed with the networking the
    simulated provider requires."""
    return FIGURE2_SOURCE
