"""``enumerate_estate(via_api=True)`` under faults injected mid-page.

Satellite of the crash-safe apply PR: the paginated estate scan must
retry the *faulted page* (same page token) and still see every
resource exactly once. ``FaultSpec.skip_first`` arms the fault after N
matching list calls, so the failure lands on the second or third page
rather than the first call.
"""

import pytest

from repro.cloud import FaultSpec, ResilientGateway, RetryPolicy
from repro.cloud.gateway import CloudGateway
from repro.porting.importer import enumerate_estate

#: page size is 25 (ControlPlane.list_page_size); 60 records on one
#: plane forces a 3-page scan
ESTATE = 60


def seeded_gateway():
    gateway = CloudGateway.simulated(seed=0)
    plane = gateway.planes["aws"]
    for i in range(ESTATE):
        plane.external_create(
            "aws_s3_bucket", {"name": f"bucket-{i:03d}"}, "us-east-1"
        )
    return gateway, plane


def patient(gateway, attempts):
    return ResilientGateway(gateway, retry=RetryPolicy(max_attempts=attempts))


def test_fault_on_second_page_is_retried_with_same_token():
    gateway, plane = seeded_gateway()
    plane.faults.add_rule(
        FaultSpec(
            error_code="Throttling",
            message="Rate exceeded",
            match_operation="list",
            transient=True,
            skip_first=1,  # first page succeeds, second page faults
        )
    )
    records = enumerate_estate(patient(gateway, 4))
    assert len(records) == ESTATE
    assert len({r.id for r in records}) == ESTATE  # no duplicates
    assert plane.faults.fired == 1


def test_fault_on_every_page_once_still_converges():
    gateway, plane = seeded_gateway()
    plane.faults.add_rule(
        FaultSpec(
            error_code="InternalServerError",
            message="An internal error occurred",
            match_operation="list",
            transient=True,
            max_strikes=3,  # one strike per page of the 3-page scan
        )
    )
    records = enumerate_estate(patient(gateway, 4))
    assert len(records) == ESTATE
    assert plane.faults.fired == 3


def test_fault_mid_scan_on_multiple_planes():
    gateway, plane = seeded_gateway()
    azure = gateway.planes["azure"]
    for i in range(30):
        azure.external_create(
            "azure_storage_account",
            {"name": f"stor{i:03d}", "location": "eastus"},
            "eastus",
        )
    for target in (plane, azure):
        target.faults.add_rule(
            FaultSpec(
                error_code="Throttling",
                message="Rate exceeded",
                match_operation="list",
                transient=True,
                skip_first=1,
            )
        )
    records = enumerate_estate(patient(gateway, 4))
    assert len(records) == ESTATE + 30
    assert len({r.id for r in records}) == ESTATE + 30


def test_persistent_list_fault_surfaces_after_retries():
    gateway, plane = seeded_gateway()
    plane.faults.add_rule(
        FaultSpec(
            error_code="AccessDenied",
            message="not authorized to list",
            match_operation="list",
            transient=False,  # permanent: retries cannot save this
            max_strikes=-1,
            skip_first=1,
        )
    )
    from repro.cloud.base import CloudAPIError

    with pytest.raises(CloudAPIError):
        enumerate_estate(patient(gateway, 3))


def test_probability_miss_consumes_no_strike():
    """Regression: a rule that matches but loses the dice roll must not
    burn a strike -- only *firing* consumes the budget. Under seed 17
    the p=0.5 rule misses several matching calls yet still delivers its
    full max_strikes=2 budget."""
    import random

    from repro.cloud.faults import FaultInjector

    injector = FaultInjector(rng=random.Random(17))
    rule = FaultSpec(
        error_code="X",
        message="x",
        match_operation="list",
        probability=0.5,
        skip_first=3,
        max_strikes=2,
    )
    injector.add_rule(rule)
    outcomes = [
        injector.check("t", "list") is not None for _ in range(20)
    ]
    fired_at = [i for i, fired in enumerate(outcomes) if fired]
    # the skip window passes the first 3 matches without rolling dice,
    # then misses at calls 3-5 and 7-9 consume nothing: the full strike
    # budget still lands (at calls 6 and 10 under this seed)
    assert fired_at == [6, 10]
    assert injector.fired == 2
    assert rule.exhausted
    assert rule._seen == 3  # skip window consumed exactly once


def test_fault_spec_validates_budgets():
    with pytest.raises(ValueError):
        FaultSpec(error_code="X", message="x", probability=1.5)
    with pytest.raises(ValueError):
        FaultSpec(error_code="X", message="x", skip_first=-1)
    with pytest.raises(ValueError):
        FaultSpec(error_code="X", message="x", max_strikes=-2)
    # -1 means unlimited and is legal
    spec = FaultSpec(error_code="X", message="x", max_strikes=-1)
    assert not spec.exhausted


def test_skip_first_arms_after_n_matches():
    from repro.cloud.faults import FaultInjector

    injector = FaultInjector()
    injector.add_rule(
        FaultSpec(
            error_code="X", message="x", match_operation="list", skip_first=2
        )
    )
    assert injector.check("t", "list") is None
    assert injector.check("t", "list") is None
    assert injector.check("t", "list") is not None
    # non-matching operations never consume the skip budget
    injector2 = FaultInjector()
    injector2.add_rule(
        FaultSpec(
            error_code="X", message="x", match_operation="list", skip_first=1
        )
    )
    assert injector2.check("t", "create") is None
    assert injector2.check("t", "list") is None  # consumes the skip
    assert injector2.check("t", "list") is not None
