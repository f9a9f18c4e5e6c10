"""Open-loop timing: latency is charged from when a request was due."""

import asyncio
import dataclasses
import random
import time

import svc_workloads

ESTATE = '''
resource "aws_virtual_machine" "only" {
  name    = "only"
  tags    = { service = "only" }
}
'''


@dataclasses.dataclass
class Arrival:
    t: float
    tenant: str = "t00"
    op: str = "stats"
    priority: int = 1


@dataclasses.dataclass
class Response:
    status: int = 200
    reason: str = ""
    body: dict = None
    queued_s: float = 0.0
    service_s: float = 0.0


class StallingService:
    """Answers at once, except that the first submit blocks the loop --
    the way a service hogging the interpreter lock stalls the generator."""

    def __init__(self, stall_s: float):
        self.stall_s = stall_s
        self.calls = 0

    async def submit(self, tenant, op, payload=None, priority=None):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall_s)
        future = asyncio.get_event_loop().create_future()
        future.set_result(Response(body={"resources": 1}))
        return future


def test_a_stall_is_charged_to_the_requests_it_delayed():
    stall = 0.3
    client = svc_workloads.Client(
        StallingService(stall), None, ESTATE, random.Random(0)
    )
    schedule = [Arrival(0.0), Arrival(0.05), Arrival(0.10)]

    async def drive():
        async def issue(arrival, due):
            return await client.submit(arrival.tenant, arrival.op, due_at=due, phase="lo")

        started, futures, late = await svc_workloads.drive_open_loop(schedule, issue)
        await asyncio.gather(*futures)
        return late

    late = asyncio.run(drive())
    first, second, third = client.samples
    assert all(s.ok for s in client.samples)
    # each was answered the moment it was sent, yet the two that were
    # due during the stall waited for it: measured from submission
    # their latency would read ~0
    assert first.latency_s >= stall
    assert second.latency_s >= stall - 0.05 - 0.02
    assert third.latency_s >= stall - 0.10 - 0.02
    assert late >= stall - 0.10 - 0.02


def test_a_wrong_answer_is_a_failed_op():
    class Lying(StallingService):
        async def submit(self, tenant, op, payload=None, priority=None):
            future = asyncio.get_event_loop().create_future()
            future.set_result(Response(body={"resources": 99}))
            return future

    client = svc_workloads.Client(Lying(0.0), None, ESTATE, random.Random(0))

    async def drive():
        await (await client.submit("t00", "stats"))

    asyncio.run(drive())
    assert client.samples[0].outcome == "failed"
    assert "generator says 1" in client.problems[0]
