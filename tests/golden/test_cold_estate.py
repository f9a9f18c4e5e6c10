"""Golden cold estate: the two-cloud program the trajectory benchmark
deploys, applied from nothing, reads as it always has.

``scale_estate(1000)`` on aws beside ``two_region_estate(1000)`` on
azure is 1,993 resources in three provider/region partitions. Its cold
apply is what every change to the executor, the simulated cloud or the
state layer must leave alone: the plan the user reads, the simulated
makespan (simulated seconds, not wall), the API calls, and the estate
it converges to (``StateDocument.content_hash``). A change that moves
any of them changed a scheduling decision, a latency or a byte of
state, not just its speed.
"""

import hashlib

import pytest

from repro.core import CloudlessEngine
from repro.workloads import scale_estate, two_region_estate

#: the plan's text (``Plan.render``) is a function of the program alone
PLAN_SHA = "e8d6c61e2395b4ffc985ac9af0d7e62c2a3c2d0933e466328c28b319745791e4"

#: seed -> (simulated makespan, API calls, content hash of the estate)
GOLDEN = {
    3: (
        4752.94,
        1993,
        "bfcd373847adfd233ad301a9dc85000a5a5a6fb8d88c8656bbf2600c7941b026",
    ),
    7: (
        4743.48,
        1993,
        "b35b231a0937bba6786fb688c77adc5fc7aa0aa1dbf5c33bbde0b399abc7afd4",
    ),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids=lambda s: f"seed{s}")
def cold(request):
    engine = CloudlessEngine(seed=request.param)
    result = engine.apply(
        {"aws.clc": scale_estate(1000), "azure.clc": two_region_estate(1000)}
    )
    return request.param, engine, result


def test_the_plan_reads_as_it_did(cold):
    _seed, _engine, result = cold
    assert result.plan.summary()["create"] == 1993
    assert hashlib.sha256(result.plan.render().encode()).hexdigest() == PLAN_SHA


def test_the_apply_takes_the_simulated_time_and_calls_it_did(cold):
    seed, _engine, result = cold
    makespan, api_calls, _hash = GOLDEN[seed]
    assert result.ok
    assert round(result.apply.makespan_s, 2) == makespan
    assert result.apply.api_calls == api_calls
    assert len(result.apply.operations) == api_calls


def test_the_estate_is_the_one_it_was(cold):
    seed, engine, _result = cold
    assert engine.state.content_hash() == GOLDEN[seed][2]
