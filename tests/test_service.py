"""Multi-tenant control-plane service: admission, isolation, degradation.

Exercises the service tier end to end: typed rejections under every
shed path, per-tenant estate isolation (byte-for-byte vs single-tenant
baselines), weighted-fair scheduling, the degradation ladder, circuit
breakers, lease-fenced zombie sessions, and the kill/preempt/resume
crash cycle.
"""

import asyncio
import json
import math
import time

import pytest

from repro import perf
from repro.chaos.invariants import canonical_state
from repro.cloud.clock import SimClock
from repro.core.engine import CloudlessEngine
from repro.service import (
    MODE_BROWNOUT,
    MODE_NORMAL,
    MODE_READ_ONLY,
    REJECT_BROWNOUT,
    REJECT_CIRCUIT_OPEN,
    REJECT_DEADLINE,
    REJECT_INVALID_PROGRAM,
    REJECT_INVALID_REQUEST,
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    REJECT_READ_ONLY,
    REJECT_STALE_SESSION,
    REJECT_TENANT_QUOTA,
    REJECT_UNKNOWN_OP,
    STATUS_OF,
    ControlPlaneService,
    DegradationLadder,
    ServicePolicy,
    SessionFencedError,
    TenantQuota,
    ServiceHTTPD,
    TenantSession,
    WeightedFairQueue,
)
from repro.service.core import _tenant_seed
from repro.workloads import web_tier

SRC = web_tier(web_vms=1, app_vms=0, with_lb=False, with_db=False)
BIGGER = web_tier(web_vms=2, app_vms=1, with_lb=True, with_db=False)
#: parses, and no engine can apply it: the service's failure to report
#: (a program that does not parse is the tenant's: TestInvalidProgram)
UNAPPLIABLE = 'resource "no_such_type" "x" {\n  name = "x"\n}\n'
TYPO = 'resource "aws_vpc" "m" {\n  name = = "m"\n}\n'


def run(coro):
    return asyncio.run(coro)


def make_service(root, **overrides) -> ControlPlaneService:
    policy = ServicePolicy(apply_pool=2, **overrides)
    return ControlPlaneService(str(root), policy=policy)


class TestRequestLifecycle:
    def test_apply_then_drift_then_stats(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            apply = await svc.request("a", "apply", payload={"sources": SRC})
            drift = await svc.request("a", "drift")
            stats = await svc.request("a", "stats")
            await svc.stop()
            return apply, drift, stats

        apply, drift, stats = run(main())
        assert apply.ok and apply.body["ok"]
        assert drift.ok and drift.body["findings"] == 0
        assert stats.ok and stats.body["resources"] > 0

    def test_stats_reports_the_last_plans_blast_radius(self, tmp_path):
        edited = BIGGER.replace('"web-lb"', '"web-balancer"')
        assert edited != BIGGER

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            out = [await svc.request("a", "stats")]
            for op, payload in (
                ("apply", {"sources": BIGGER}),
                ("plan", {}),
                ("plan", {}),
                ("plan", {"sources": edited}),
            ):
                assert (await svc.request("a", op, payload=payload)).ok
                out.append(await svc.request("a", "stats"))
            await svc.stop()
            # a bare plan validates nothing, nor does a what-if
            assert [r.body["validated_declarations"] for r in out] == [
                None, *[out[1].body["declarations"]] * 4
            ]
            assert out[1].body["declarations"] > 3
            return [(r.body["plan_scope_nodes"], r.body["graph_nodes"]) for r in out]

        unplanned, applied, first, bare, what_if = run(main())
        assert unplanned == (None, None)
        nodes = applied[1]
        assert applied == (nodes, nodes) and nodes > 5
        # the apply proved what it committed: no plan after it diffs
        assert first == bare == (0, nodes)
        assert 0 < what_if[0] < nodes

    def test_unknown_op_is_typed_400(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            response = await svc.request("a", "frobnicate")
            await svc.stop()
            return response

        response = run(main())
        assert response.status == STATUS_OF[REJECT_UNKNOWN_OP] == 400
        assert response.reason == REJECT_UNKNOWN_OP

    def test_submit_before_start_sheds(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            return await (await svc.submit("a", "apply",
                                           payload={"sources": SRC}))

        response = run(main())
        assert response.status == 503 and response.reason == "shutting-down"

    def test_engine_error_is_typed_500(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            response = await svc.request(
                "a", "apply", payload={"sources": UNAPPLIABLE}
            )
            await svc.stop()
            return response

        response = run(main())
        assert response.status == 500
        assert response.reason == "internal-error"


class TestTenantIsolation:
    def test_estates_match_single_tenant_baselines(self, tmp_path):
        """N tenants through one service == N private engines, byte for
        byte; the core zero-bleed property."""

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            futs = []
            for tenant, sources in (("a", SRC), ("b", BIGGER), ("c", SRC)):
                futs.append(
                    await svc.submit(
                        tenant, "apply", payload={"sources": sources}
                    )
                )
            responses = await asyncio.gather(*futs)
            states = {
                t: canonical_state(svc.sessions[t].engine)
                for t in ("a", "b", "c")
            }
            await svc.stop()
            return responses, states

        responses, states = run(main())
        assert all(r.ok for r in responses)
        for tenant, sources in (("a", SRC), ("b", BIGGER), ("c", SRC)):
            baseline = CloudlessEngine(seed=_tenant_seed(tenant))
            assert baseline.apply(sources).ok
            assert states[tenant] == canonical_state(baseline), tenant

    def test_tenant_homes_are_disjoint(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            await svc.request("a", "apply", payload={"sources": SRC})
            await svc.request("b", "apply", payload={"sources": SRC})
            await svc.stop()

        run(main())
        assert (tmp_path / "tenants" / "a" / "world.json").exists()
        assert (tmp_path / "tenants" / "b" / "world.json").exists()

    def test_one_tenants_failure_does_not_break_another(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            bad = await svc.request(
                "bad", "apply", payload={"sources": UNAPPLIABLE}
            )
            good = await svc.request(
                "good", "apply", payload={"sources": SRC}
            )
            await svc.stop()
            return bad, good

        bad, good = run(main())
        assert bad.status == 500
        assert good.ok


class TestAdmissionSheds:
    def test_rate_limit_sheds_429(self, tmp_path):
        async def main():
            svc = make_service(
                tmp_path,
                default_quota=TenantQuota(
                    rate_rps=1.0, burst=2.0, max_pending=50
                ),
            )
            await svc.start()
            futs = [
                await svc.submit("a", "stats") for _ in range(10)
            ]
            responses = await asyncio.gather(*futs)
            await svc.stop()
            return responses

        responses = run(main())
        shed = [r for r in responses if r.reason == REJECT_RATE_LIMITED]
        assert shed and all(r.status == 429 for r in shed)

    def test_tenant_quota_sheds_429(self, tmp_path):
        async def main():
            svc = make_service(
                tmp_path,
                default_quota=TenantQuota(
                    rate_rps=1e6, burst=1e6, max_pending=2
                ),
            )
            await svc.start()
            futs = [
                await svc.submit("a", "apply", payload={"sources": SRC})
                for _ in range(8)
            ]
            responses = await asyncio.gather(*futs)
            await svc.stop()
            return responses

        responses = run(main())
        assert any(r.reason == REJECT_TENANT_QUOTA for r in responses)
        assert all(r.ok or r.reason for r in responses)  # all typed

    def test_queue_bound_sheds_429(self, tmp_path):
        async def main():
            svc = make_service(
                tmp_path,
                max_queue_depth=2,
                default_quota=TenantQuota(
                    rate_rps=1e6, burst=1e6, max_pending=100
                ),
            )
            await svc.start()
            # drift is a read op: the ladder never sheds it, so the only
            # shed path left for the overflow is the global queue bound
            futs = [
                await svc.submit(f"t{i}", "drift") for i in range(12)
            ]
            responses = await asyncio.gather(*futs)
            await svc.stop()
            return responses

        responses = run(main())
        assert any(r.reason == REJECT_QUEUE_FULL for r in responses)

    def test_deadline_exceeded_is_typed_504(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            # a deadline that lapses while queued behind the first apply
            first = await svc.submit("a", "apply", payload={"sources": SRC})
            doomed = await svc.submit(
                "a", "apply", payload={"sources": SRC}, deadline_s=0.0
            )
            responses = await asyncio.gather(first, doomed)
            await svc.stop()
            return responses

        first, doomed = run(main())
        assert first.ok
        assert doomed.status == STATUS_OF[REJECT_DEADLINE] == 504
        assert doomed.reason == REJECT_DEADLINE


class TestFairness:
    def test_weighted_fair_queue_shares(self):
        queue = WeightedFairQueue()
        for i in range(30):
            queue.push("hog", f"h{i}", weight=1.0)
        for i in range(3):
            queue.push("mouse", f"m{i}", weight=1.0)
        # with equal weights and both backlogged, dispatch alternates:
        # the mouse's 3 requests all leave within the first 6 pops
        order = [queue.pop()[0] for _ in range(6)]
        assert order.count("mouse") == 3

    def test_weights_scale_shares(self):
        queue = WeightedFairQueue()
        for i in range(40):
            queue.push("big", f"b{i}", weight=3.0)
            queue.push("small", f"s{i}", weight=1.0)
        first = [queue.pop()[0] for _ in range(20)]
        # 3:1 weights -> ~3x dispatches while both stay backlogged
        assert 12 <= first.count("big") <= 18

    def test_late_joiner_does_not_monopolize(self):
        queue = WeightedFairQueue()
        for i in range(10):
            queue.push("old", f"o{i}")
        for _ in range(5):
            queue.pop()
        for i in range(10):
            queue.push("new", f"n{i}")
        window = [queue.pop()[0] for _ in range(6)]
        assert window.count("new") <= 3  # starts at min pass, not zero

    def test_noisy_neighbor_cannot_starve_steady_tenants(self, tmp_path):
        async def main():
            svc = make_service(
                tmp_path,
                default_quota=TenantQuota(
                    rate_rps=1e6, burst=1e6, max_pending=1000
                ),
            )
            await svc.start()
            futs = []
            # the hog floods 30 applies before the steady tenants ask
            for i in range(30):
                futs.append(
                    await svc.submit(
                        "hog", "apply", payload={"sources": SRC}
                    )
                )
            for tenant in ("s1", "s2"):
                for _ in range(3):
                    futs.append(
                        await svc.submit(
                            tenant, "apply", payload={"sources": SRC}
                        )
                    )
            await asyncio.gather(*futs)
            stats = svc.stats()
            await svc.stop()
            return stats

        stats = run(main())
        assert stats["goodput"]["s1"] == 3
        assert stats["goodput"]["s2"] == 3
        # steady tenants' share was served despite the 10x backlog
        assert stats["fairness_ratio"] < math.inf


class TestDegradation:
    def test_ladder_hysteresis(self):
        ladder = DegradationLadder()
        assert ladder.update(0.5) == MODE_NORMAL
        assert ladder.update(0.75) == MODE_BROWNOUT
        assert ladder.update(0.5) == MODE_BROWNOUT  # above down-threshold
        assert ladder.update(0.95) == MODE_READ_ONLY
        assert ladder.update(0.7) == MODE_READ_ONLY  # above release
        assert ladder.update(0.55) == MODE_BROWNOUT  # one rung at a time
        assert ladder.update(0.3) == MODE_NORMAL

    def test_read_only_keeps_drift_up_and_sheds_apply(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            # prime the tenant so drift has an estate to scan
            await svc.request("a", "apply", payload={"sources": SRC})
            svc.ladder.mode = MODE_READ_ONLY
            svc.ladder.read_only_down = 0.0  # pin: never steps down
            apply = await svc.request("a", "apply", payload={"sources": SRC})
            drift = await svc.request("a", "drift")
            await svc.stop()
            return apply, drift

        apply, drift = run(main())
        assert apply.status == STATUS_OF[REJECT_READ_ONLY] == 503
        assert apply.reason == REJECT_READ_ONLY
        assert drift.ok  # the read path stays available

    def test_brownout_sheds_low_priority_only(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            svc.ladder.mode = MODE_BROWNOUT
            svc.ladder.brownout_down = 0.0  # pin
            low = await svc.request(
                "noisy", "apply", payload={"sources": SRC}, priority=0
            )
            normal = await svc.request(
                "steady", "apply", payload={"sources": SRC}, priority=1
            )
            await svc.stop()
            return low, normal

        low, normal = run(main())
        assert low.reason == REJECT_BROWNOUT and low.status == 503
        assert normal.ok


class TestBreakers:
    def test_failing_tenant_trips_its_breaker_only(self, tmp_path):
        """Five failures open the tenant's breaker and no other; the
        partition breakers' ``resilience.breaker_*`` counters do not
        hear of it."""

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            for _ in range(5):
                await svc.request("bad", "apply", payload={"sources": UNAPPLIABLE})
            tripped = await svc.request(
                "bad", "apply", payload={"sources": SRC}
            )
            bystander = await svc.request(
                "good", "apply", payload={"sources": SRC}
            )
            await svc.stop()
            return tripped, bystander, svc.stats()["breakers"]

        perf.PERF.enable()
        perf.PERF.reset()
        try:
            tripped, bystander, breakers = run(main())
            counters = perf.snapshot()["counters"]
        finally:
            perf.PERF.reset()
            perf.PERF.disable()
        assert tripped.reason == REJECT_CIRCUIT_OPEN
        assert tripped.status == 503
        assert bystander.ok
        assert breakers == {"bad": "open", "good": "closed"}
        assert not [k for k in counters if k.startswith("resilience.breaker_")]

    def test_a_straggler_failure_does_not_rearm_the_cooldown(self, tmp_path):
        """Six failing applies are admitted while the tenant's breaker
        is closed. The fifth opens it at t=0; the sixth, a straggler,
        fails at t=5 while it is open. The breaker learns nothing from
        it, so the tenant is admitted again 10 s after the trip."""
        now = [0.0]

        def late_failure(_event_index):
            now[0] = 5.0
            raise RuntimeError("fails after the trip")

        async def main():
            svc = ControlPlaneService(
                str(tmp_path), policy=ServicePolicy(apply_pool=2),
                clock=lambda: now[0],
            )
            await svc.start()
            failing = [
                await svc.submit("bad", "apply", payload={"sources": UNAPPLIABLE})
                for _ in range(5)
            ]
            failing.append(
                await svc.submit(
                    "bad", "apply",
                    payload={"sources": SRC, "crash_hook": late_failure},
                )
            )
            failed = await asyncio.gather(*failing)
            opened_at = svc.breakers["bad"].opened_at
            now[0] = 9.0
            cooling = await svc.request("bad", "plan", payload={"sources": SRC})
            now[0] = 10.0
            probe = await svc.request("bad", "plan", payload={"sources": SRC})
            state = svc.breakers["bad"].state
            await svc.stop()
            return failed, opened_at, cooling, probe, state

        failed, opened_at, cooling, probe, state = run(main())
        assert [r.status for r in failed] == [500] * 6
        assert cooling.reason == REJECT_CIRCUIT_OPEN
        assert probe.status == 200, (probe.status, probe.reason)
        assert state == "closed"
        assert opened_at == 0.0


    @pytest.mark.parametrize(
        "ending", [REJECT_INVALID_PROGRAM, REJECT_TENANT_QUOTA, REJECT_DEADLINE]
    )
    def test_a_probe_that_neither_succeeds_nor_fails_goes_back(
        self, tmp_path, ending
    ):
        """Five failing applies open the tenant's breaker at t=0. At
        t=11 its probe is a typo answered 400, is shed by the tenant's
        quota, or finds its deadline passed: none of these is the
        tenant's success or failure, so the probe goes back and the
        valid plan at t=30 is the next probe, answered and closing the
        breaker."""
        now = [0.0]

        async def main():
            svc = ControlPlaneService(
                str(tmp_path), policy=ServicePolicy(apply_pool=2),
                clock=lambda: now[0],
            )
            await svc.start()
            for _ in range(5):
                await svc.request("bad", "apply", payload={"sources": UNAPPLIABLE})
            now[0] = 11.0
            if ending == REJECT_TENANT_QUOTA:
                svc.admission.quotas["bad"] = TenantQuota(max_pending=0)
            probe = await svc.request(
                "bad", "plan",
                payload={"sources": TYPO if ending == REJECT_INVALID_PROGRAM else SRC},
                deadline_s=0.0 if ending == REJECT_DEADLINE else None,
            )
            svc.admission.quotas.pop("bad", None)
            later = []
            for t in (30.0, 100.0, 1000.0):
                now[0] = t
                later.append(
                    await svc.request("bad", "plan", payload={"sources": SRC})
                )
            state = svc.breakers["bad"].state
            await svc.stop()
            return probe, later, state

        probe, later, state = run(main())
        assert probe.reason == ending
        assert [(r.status, r.reason) for r in later] == [(200, None)] * 3
        assert state == "closed"


class TestInvalidRequest:
    BAD = [
        {"priority": "high"},
        {"priority": True},
        {"priority": math.nan},
        {"deadline_s": "x"},
        {"deadline_s": False},
        {"deadline_s": math.nan},
    ]

    def test_a_malformed_priority_or_deadline_is_its_senders_400(self, tmp_path):
        """Each malformed value answers its own sender a typed 400 and is
        never queued: under brownout, where the queue compares
        priorities, every other tenant's requests are still answered."""

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            bad = [
                await svc.request("a", "plan", payload={"sources": SRC}, **kwargs)
                for kwargs in self.BAD
            ]
            default = await svc.request(
                "a", "plan", payload={"sources": SRC}, priority=None,
                deadline_s=None,
            )
            svc.ladder.mode = MODE_BROWNOUT
            svc.ladder.brownout_down = 0.0  # pin
            innocent = [
                await svc.request(
                    tenant, "plan", payload={"sources": SRC}, priority=priority
                )
                for tenant, priority in (("b", 1), ("c", 0), ("d", 2.5))
            ]
            await svc.stop()
            return bad, default, innocent

        bad, default, innocent = run(main())
        for response in bad:
            assert response.status == STATUS_OF[REJECT_INVALID_REQUEST] == 400
            assert response.reason == REJECT_INVALID_REQUEST
        assert default.status == 200
        assert [r.status for r in innocent] == [200, 503, 200]
        assert innocent[1].reason == REJECT_BROWNOUT

    def test_the_http_edge_answers_malformed_requests_400(self, tmp_path):
        """Through a real loopback socket: a malformed priority or
        deadline and a negative Content-Length are typed 400s, and a
        well-formed request is answered 200."""

        async def exchange(address, head, body=b""):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(head.encode("ascii") + b"\r\n\r\n" + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=30)
            writer.close()
            await writer.wait_closed()
            status_line, _, rest = raw.partition(b"\r\n")
            return int(status_line.split()[1]), json.loads(rest.split(b"\r\n\r\n", 1)[1])

        def post(tenant, op, payload):
            body = json.dumps(payload).encode("utf-8")
            head = (
                f"POST /v1/{tenant}/{op} HTTP/1.1\r\n"
                f"Content-Length: {len(body)}"
            )
            return head, body

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            httpd = ServiceHTTPD(svc, port=0)
            await httpd.start()
            try:
                address = httpd.address
                answers = [
                    await exchange(address, *post("a", "plan", {"sources": SRC, **bad}))
                    for bad in ({"priority": "high"}, {"deadline_s": "x"})
                ]
                answers.append(
                    await exchange(
                        address, "POST /v1/a/plan HTTP/1.1\r\nContent-Length: -5"
                    )
                )
                answers.append(
                    await exchange(address, *post("a", "plan", {"sources": SRC}))
                )
            finally:
                await httpd.stop()
                await svc.stop()
            return answers

        *bad, good = run(main())
        assert [status for status, _ in bad] == [400, 400, 400]
        assert [body.get("reason") for _, body in bad[:2]] == [
            REJECT_INVALID_REQUEST, REJECT_INVALID_REQUEST,
        ]
        assert bad[2][1] == {"error": "bad content-length"}
        assert good[0] == 200 and good[1]["status"] == 200


class TestHTTPEdgeStatuses:
    """Through a real loopback socket, a request the edge will not read
    whole is a typed 4xx that reaches the client, and the edge answers
    the next request."""

    HEALTHZ = b"GET /healthz HTTP/1.1\r\n\r\n"

    @staticmethod
    async def send(address, raw):
        reader, writer = await asyncio.open_connection(*address)
        writer.write(raw)
        await writer.drain()
        writer.write_eof()
        answer = await asyncio.wait_for(reader.read(), timeout=30)
        writer.close()
        await writer.wait_closed()
        status_line, _, rest = answer.partition(b"\r\n")
        head, _, body = rest.partition(b"\r\n\r\n")
        return int(status_line.split()[1]), status_line, json.loads(body)

    def exchange_all(self, tmp_path, request):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            httpd = ServiceHTTPD(svc, port=0)
            await httpd.start()
            try:
                answer = await self.send(httpd.address, request)
                healthz = await self.send(httpd.address, self.HEALTHZ)
            finally:
                await httpd.stop()
                await svc.stop()
            return answer, healthz

        answer, healthz = run(main())
        assert healthz[0] == 200
        return answer

    def test_an_overlong_header_line_is_431(self, tmp_path):
        request = (
            b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n"
        )
        status, line, body = self.exchange_all(tmp_path, request)
        assert (status, line) == (431, b"HTTP/1.1 431 Request Header Fields Too Large")
        assert body == {"error": "header line too long"}

    def test_a_body_shorter_than_its_length_is_400(self, tmp_path):
        request = b"POST /v1/a/plan HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
        status, line, body = self.exchange_all(tmp_path, request)
        assert (status, line) == (400, b"HTTP/1.1 400 Bad Request")
        assert body == {"error": "body shorter than content-length"}

    def test_a_body_over_the_cap_is_413_before_it_is_read(self, tmp_path):
        from repro.service.httpd import _MAX_BODY

        size = 2 * _MAX_BODY
        request = (
            f"POST /v1/a/plan HTTP/1.1\r\nContent-Length: {size}\r\n\r\n".encode()
            + b" " * size
        )
        status, line, body = self.exchange_all(tmp_path, request)
        assert (status, line) == (413, b"HTTP/1.1 413 Content Too Large")
        assert body == {"error": f"body over {_MAX_BODY} bytes"}

    @pytest.mark.parametrize(
        "line, status, line_out",
        [
            (b"POST /v1/a/b/c", 404, b"HTTP/1.1 404 Not Found"),
            (b"GET /healthz", 200, b"HTTP/1.1 200 OK"),
        ],
    )
    def test_a_large_body_the_route_does_not_read_still_gets_its_answer(
        self, tmp_path, line, status, line_out
    ):
        """Whatever its status, the answer reaches the client: the edge
        reads the body whole first, or drops its rest before the close."""
        size = 900_000
        request = line + f" HTTP/1.1\r\nContent-Length: {size}\r\n\r\n".encode()
        answer = self.exchange_all(tmp_path, request + b" " * size)
        assert answer[:2] == (status, line_out)

    def test_a_connection_past_the_open_bound_is_503_unread(
        self, tmp_path, monkeypatch
    ):
        """Two stalled clients fill a bound of two: a third connection is
        503 without being read, and once the two have timed out (408)
        the edge answers again."""
        import repro.service.httpd as httpd

        monkeypatch.setattr(httpd, "_MAX_OPEN", 2)
        monkeypatch.setattr(httpd, "_READ_S", 0.5)

        async def settle(edge, open_):
            for _ in range(500):
                if edge._open == open_:
                    return
                await asyncio.sleep(0.01)
            raise AssertionError(f"{edge._open} connections open, not {open_}")

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            edge = ServiceHTTPD(svc, port=0)
            await edge.start()
            try:
                stalled = []
                for _ in range(2):
                    reader, writer = await asyncio.open_connection(*edge.address)
                    writer.write(b"POST /v1/a/plan HTTP/1.1\r\nContent-Length: 100\r\n")
                    await writer.drain()  # ... and no end of stream
                    stalled.append((reader, writer))
                await settle(edge, 2)
                third = await self.send(edge.address, self.HEALTHZ)
                timed_out = []
                for reader, writer in stalled:
                    timed_out.append(await asyncio.wait_for(reader.read(), 10))
                    writer.close()
                    await writer.wait_closed()
                await settle(edge, 0)
                healthz = await self.send(edge.address, self.HEALTHZ)
            finally:
                await edge.stop()
                await svc.stop()
            return third, timed_out, healthz

        third, timed_out, healthz = run(main())
        assert third == (
            503,
            b"HTTP/1.1 503 Service Unavailable",
            {"error": "too many open connections"},
        )
        assert all(a.startswith(b"HTTP/1.1 408 ") for a in timed_out)
        assert healthz[0] == 200

    def test_a_stalled_request_is_408_at_the_read_deadline(
        self, tmp_path, monkeypatch
    ):
        """A body that stops short of its length and never ends holds
        its handler until the read deadline, not forever; the edge then
        answers the next request."""
        import repro.service.httpd as httpd

        monkeypatch.setattr(httpd, "_READ_S", 0.5)

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            edge = ServiceHTTPD(svc, port=0)
            await edge.start()
            try:
                reader, writer = await asyncio.open_connection(*edge.address)
                started = time.monotonic()
                writer.write(
                    b"POST /v1/a/plan HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}"
                )
                await writer.drain()  # ... and no end of stream
                answer = await asyncio.wait_for(reader.read(), timeout=10)
                waited = time.monotonic() - started
                writer.close()
                await writer.wait_closed()
                reader, writer = await asyncio.open_connection(*edge.address)
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                writer.write_eof()
                healthz = await asyncio.wait_for(reader.read(), timeout=30)
                writer.close()
                await writer.wait_closed()
            finally:
                await edge.stop()
                await svc.stop()
            return answer, waited, healthz

        answer, waited, healthz = run(main())
        status_line, _, rest = answer.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 408 Request Timeout"
        assert json.loads(rest.partition(b"\r\n\r\n")[2]) == {
            "error": "request not read within 0.5 s"
        }
        assert 0.5 <= waited < 5.0
        assert healthz.startswith(b"HTTP/1.1 200 OK\r\n")


class TestInvalidProgram:
    def test_a_typo_is_the_tenants_error_not_the_services(self, tmp_path):
        """A program that does not parse answers a typed 400 with the
        place in the body; six of them in a row (the breaker opens at
        five failures) leave the tenant's breaker closed, `failed` at
        zero, and the next valid plan answered."""

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            bad = [
                await svc.request("a", op, payload={"sources": TYPO})
                for op in ("plan", "apply", "plan", "plan", "plan", "plan")
            ]
            good = await svc.request("a", "plan", payload={"sources": SRC})
            stats = svc.stats()
            await svc.stop()
            return bad, good, stats

        bad, good, stats = run(main())
        for response in bad:
            assert response.status == STATUS_OF[REJECT_INVALID_PROGRAM] == 400
            assert response.reason == REJECT_INVALID_PROGRAM
            assert response.body["message"] == "expected expression, found = ('=')"
            assert response.body["span"] == ["main.clc", 2, 10, 2, 11]
            assert response.body["detail"].endswith("at main.clc:2:10")
        assert good.status == 200, (good.status, good.reason)
        assert stats["failed"] == 0
        assert stats["breakers"] == {"a": "closed"}
        assert stats["shed"] == {REJECT_INVALID_PROGRAM: 6}


class TestSessionsAndCrash:
    def test_zombie_session_is_fenced(self, tmp_path):
        """A preempted session's mutating ops raise; the service maps
        them to a typed 409."""
        session = TenantSession.open(str(tmp_path), "a", "inst-1", now=0.0)
        usurper = TenantSession.open(
            str(tmp_path), "a", "inst-2", now=1.0, preempt=True
        )
        assert usurper.grant.fencing_token > session.grant.fencing_token
        with pytest.raises(SessionFencedError):
            session.ensure_live(2.0)
        usurper.close(3.0)

    def test_zombie_apply_maps_to_409(self, tmp_path):
        async def main():
            svc = ControlPlaneService(
                str(tmp_path), instance="old",
                policy=ServicePolicy(apply_pool=1),
            )
            await svc.start()
            await svc.request("a", "apply", payload={"sources": SRC})
            # another instance preempts tenant a's session lease
            usurper = TenantSession.open(
                str(tmp_path), "a", "new", now=svc.clock(), preempt=True,
            )
            response = await svc.request(
                "a", "apply", payload={"sources": SRC}
            )
            usurper.close(svc.clock())
            await svc.stop()
            return response

        response = run(main())
        assert response.status == STATUS_OF[REJECT_STALE_SESSION] == 409
        assert response.reason == REJECT_STALE_SESSION

    def test_idle_tenant_reopens_its_lapsed_session(self, tmp_path):
        """Only mutating ops renew the lease, so a tenant quiet for longer
        than the TTL comes back lapsed. Uncontested, its next apply
        re-opens the session; it is not fenced out for good."""
        clock = SimClock()

        async def main():
            svc = ControlPlaneService(
                str(tmp_path),
                policy=ServicePolicy(apply_pool=1),
                clock=lambda: clock.now,
            )
            await svc.start()
            first = await svc.request("a", "apply", payload={"sources": SRC})
            token = svc.sessions["a"].grant.fencing_token
            responses = [first]
            for now in (31.0, 32.0, 33.0):
                clock.advance_to(now)
                responses.append(
                    await svc.request("a", "apply", payload={"sources": BIGGER})
                )
            session = svc.sessions["a"]
            outcome = (
                session.grant.fencing_token,
                session.live(clock.now),
                session.engine.state.content_hash(),
            )
            await svc.stop()
            return responses, token, outcome

        responses, token, (new_token, live, content) = run(main())
        assert [r.status for r in responses] == [200, 200, 200, 200]
        assert new_token > token and live
        uninterrupted = CloudlessEngine(seed=_tenant_seed("a"))
        assert uninterrupted.apply(SRC).ok and uninterrupted.apply(BIGGER).ok
        assert content == uninterrupted.state.content_hash()

    def test_lapsed_session_does_not_take_a_contested_lease(self, tmp_path):
        clock = SimClock()

        async def main():
            svc = ControlPlaneService(
                str(tmp_path), instance="old",
                policy=ServicePolicy(apply_pool=1), clock=lambda: clock.now,
            )
            await svc.start()
            await svc.request("a", "apply", payload={"sources": SRC})
            clock.advance_to(31.0)  # old's lease has lapsed; new takes it
            usurper = TenantSession.open(
                str(tmp_path), "a", "new", now=clock.now, preempt=True
            )
            responses = []
            for now in (32.0, 33.0):
                clock.advance_to(now)
                responses.append(
                    await svc.request("a", "apply", payload={"sources": SRC})
                )
            still_live = usurper.live(clock.now)
            usurper.close(clock.now)
            await svc.stop()
            return responses, still_live

        responses, still_live = run(main())
        assert [r.status for r in responses] == [409, 409]
        assert all(r.reason == REJECT_STALE_SESSION for r in responses)
        assert still_live

    def test_lapsed_lease_under_a_live_owner_marker_is_409(self, tmp_path):
        """Two instances idle past the TTL: the fenced-out one wins the
        lapsed lease but not the owner marker. That is a fencing
        conflict (409), not an engine bug (500)."""
        clock = SimClock()

        async def main():
            a, b = (
                ControlPlaneService(
                    str(tmp_path), instance=name,
                    policy=ServicePolicy(apply_pool=1),
                    clock=lambda: clock.now,
                )
                for name in ("a", "b")
            )
            await a.start()
            await b.start()
            first = await a.request("t", "apply", payload={"sources": SRC})
            clock.advance_to(1.0)
            takeover = await b.request("t", "apply", payload={"sources": SRC})
            clock.advance_to(1.0 + a.policy.session_ttl_s + 1.0)
            fenced = await a.request("t", "apply", payload={"sources": SRC})
            # the lease a won on the way is released, so b still serves
            after = await b.request("t", "apply", payload={"sources": BIGGER})
            await a.stop()
            await b.stop()
            return first, takeover, fenced, after

        first, takeover, fenced, after = run(main())
        assert (first.status, takeover.status, after.status) == (200, 200, 200)
        assert fenced.status == STATUS_OF[REJECT_STALE_SESSION] == 409
        assert fenced.reason == REJECT_STALE_SESSION
        assert "journal" not in fenced.body["detail"]

    def test_kill_restart_resume_converges(self, tmp_path):
        from repro.deploy import SimulatedCrash

        class Kill:
            def __init__(self):
                self.seen = 0

            def __call__(self, *a):
                self.seen += 1
                if self.seen >= 2:
                    raise SimulatedCrash("die")

        async def main():
            svc = ControlPlaneService(
                str(tmp_path), instance="A",
                policy=ServicePolicy(apply_pool=2),
            )
            await svc.start()
            crashed = await svc.request(
                "a", "apply",
                payload={"sources": BIGGER, "crash_hook": Kill()},
            )
            survivor = await svc.request(
                "b", "apply", payload={"sources": SRC}
            )
            await svc.kill()

            succ = ControlPlaneService(
                str(tmp_path), instance="B",
                policy=ServicePolicy(apply_pool=2),
            )
            await succ.start()
            resumed = await succ.request(
                "a", "resume", payload={"sources": BIGGER}
            )
            final_a = await succ.request(
                "a", "apply", payload={"sources": BIGGER}
            )
            final_b = await succ.request(
                "b", "apply", payload={"sources": SRC}
            )
            states = {
                "a": canonical_state(succ.sessions["a"].engine),
                "b": canonical_state(succ.sessions["b"].engine),
            }
            await succ.stop()
            return crashed, survivor, resumed, final_a, final_b, states

        crashed, survivor, resumed, final_a, final_b, states = run(main())
        assert crashed.status == 500 and crashed.reason == "crashed"
        assert survivor.ok
        assert resumed.ok
        # the continued applies are pure noops: nothing was duplicated
        assert final_a.body["summary"]["create"] == 0
        assert final_b.body["summary"]["create"] == 0
        for tenant, sources in (("a", BIGGER), ("b", SRC)):
            baseline = CloudlessEngine(seed=_tenant_seed(tenant))
            assert baseline.apply(sources).ok
            assert states[tenant] == canonical_state(baseline), tenant

    def test_kill_answers_queued_requests_typed(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            futs = [
                await svc.submit(f"t{i}", "apply", payload={"sources": SRC})
                for i in range(6)
            ]
            await svc.kill()
            return await asyncio.gather(*futs)

        responses = run(main())
        # every future resolved: executed, crashed out, or typed-shed
        assert all(r.ok or r.reason for r in responses)
        assert any(r.reason == "shutting-down" for r in responses)

    def test_graceful_stop_releases_owner_markers(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            await svc.request("a", "apply", payload={"sources": SRC})
            await svc.stop()

        run(main())
        assert not (
            tmp_path / "tenants" / "a" / "state.json.owner"
        ).exists()

    def test_kill_leaves_owner_marker_debris(self, tmp_path):
        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            await svc.request("a", "apply", payload={"sources": SRC})
            await svc.kill()

        run(main())
        assert (tmp_path / "tenants" / "a" / "state.json.owner").exists()


VARIABLE_SRC = '''
variable "cidr" {
  type = string
}

resource "aws_vpc" "v" {
  name       = "v"
  cidr_block = var.cidr
}
'''


class TestBarePlan:
    def test_bare_plan_keeps_the_tenants_variables(self, tmp_path):
        """A plan without sources plans what is applied -- under the
        variables it was applied with, not under none."""

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            applied = await svc.request(
                "a",
                "apply",
                payload={"sources": VARIABLE_SRC, "variables": {"cidr": "10.0.0.0/16"}},
            )
            bare = await svc.request("a", "plan")
            what_if = await svc.request(
                "a", "plan", payload={"variables": {"cidr": "10.1.0.0/16"}}
            )
            breaker = svc.breakers["a"].state
            await svc.stop()
            return applied, bare, what_if, breaker

        applied, bare, what_if, breaker = run(main())
        assert applied.status == 200
        assert bare.status == 200, bare.body
        summary = bare.body["summary"]
        assert {k: summary[k] for k in ("create", "update", "replace", "delete")} == {
            "create": 0, "update": 0, "replace": 0, "delete": 0,
        }
        # variables the caller does send still win
        assert what_if.status == 200
        assert what_if.body["summary"]["update"] + what_if.body["summary"]["replace"] == 1
        assert breaker == "closed"


def _retag(text: str, revision: str) -> str:
    """A one-attribute edit of one block that moves no line."""
    from tests.test_engine_resident import retag

    return retag(text, "estate-1", revision)


class TestResidentCompile:
    """A tenant's session keeps its engine, and the engine its last
    compile: an op parses what the tenant changed. Whatever replaces
    the engine (a re-opened lease, a restart) starts cold again."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """Chunks parsed since the last look (pool threads included)."""
        from tests.test_engine_resident import count_parses

        take = count_parses(monkeypatch)
        return lambda: take()["parsed"]

    @staticmethod
    def program():
        from repro.lang.chunker import iter_chunks
        from repro.workloads import sized_estate

        text = sized_estate(20)
        return text, len(list(iter_chunks(text)))

    def test_tenants_with_one_program_text_share_nothing(self, tmp_path, parsed):
        text, n_chunks = self.program()

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            counts = {}
            for tenant in ("a", "b"):
                assert (await svc.request(tenant, "apply", payload={"sources": text})).ok
                counts[f"first {tenant}"] = parsed()
            tables = {
                t: svc.sessions[t].engine._last_compile[1]._chunk_asts for t in "ab"
            }
            edited = await svc.request("a", "apply", payload={"sources": _retag(text, "r1")})
            counts["edit a"] = parsed()
            plan_b = await svc.request("b", "plan")
            counts["plan b"] = parsed()
            plan_a = await svc.request("a", "plan")
            counts["plan a"] = parsed()
            b_table_after = svc.sessions["b"].engine._last_compile[1]._chunk_asts
            await svc.stop()
            return counts, tables, b_table_after, edited, plan_a, plan_b

        counts, tables, b_table_after, edited, plan_a, plan_b = run(main())
        assert counts == {
            "first a": n_chunks, "first b": n_chunks,
            "edit a": 1, "plan b": 0, "plan a": 0,
        }
        assert tables["a"].keys() == tables["b"].keys()
        assert not {id(ast) for ast in tables["a"].values()} & {
            id(ast) for ast in tables["b"].values()
        }
        assert b_table_after is tables["b"]
        assert edited.body["summary"]["update"] == 2
        for plan in (plan_a, plan_b):
            assert plan.ok and plan.body["summary"]["update"] == 0

    def test_a_reopened_lease_starts_cold_then_warms(self, tmp_path, parsed):
        text, n_chunks = self.program()
        clock = SimClock()

        async def main():
            svc = ControlPlaneService(
                str(tmp_path),
                policy=ServicePolicy(apply_pool=1),
                clock=lambda: clock.now,
            )
            await svc.start()
            counts = []
            for now in (0.0, 1.0, 31.5, 32.0):
                clock.advance_to(now)
                response = await svc.request("a", "apply", payload={"sources": text})
                assert response.ok, response
                counts.append(parsed())
            await svc.stop()
            return counts

        # the lease lapsed before the third apply: a new engine, loaded
        # from the world, parses everything once
        assert run(main()) == [n_chunks, 0, n_chunks, 0]

    def test_a_restart_after_kill_starts_cold_then_warms(self, tmp_path, parsed):
        text, n_chunks = self.program()

        async def main():
            first = ControlPlaneService(
                str(tmp_path), instance="A", policy=ServicePolicy(apply_pool=2)
            )
            await first.start()
            assert (await first.request("a", "apply", payload={"sources": text})).ok
            await first.kill()
            parsed()
            second = ControlPlaneService(
                str(tmp_path), instance="B", policy=ServicePolicy(apply_pool=2)
            )
            await second.start()
            counts = []
            for _ in range(2):
                plan = await second.request("a", "plan")
                assert plan.ok and plan.body["summary"]["create"] == 0
                counts.append(parsed())
            await second.stop()
            return counts

        assert run(main()) == [n_chunks, 0]

    def test_an_edited_module_is_picked_up_by_the_next_op(self, tmp_path, parsed):
        """The resident compile is the root module's text and nothing
        else: module text enters at graph build, which every op runs."""
        from repro.lang.module_loader import DictModuleLoader

        root = 'module "m" {\n  source = "./m"\n}\n'

        def module(name):
            return 'resource "aws_s3_bucket" "b" {\n  name = "bucket-%s"\n}\n' % name

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            assert (await svc.request("a", "stats")).ok  # opens the session
            loader = DictModuleLoader({"./m": module("one")})
            svc.sessions["a"].engine.loader = loader
            applied = await svc.request("a", "apply", payload={"sources": root})
            parsed()
            unchanged = await svc.request("a", "plan")
            loader.register("./m", module("two"))
            changed = await svc.request("a", "plan")
            root_parses = parsed()
            reapplied = await svc.request("a", "apply", payload={"sources": root})
            names = sorted(
                e.attrs["name"] for e in svc.sessions["a"].engine.state.resources()
            )
            await svc.stop()
            return applied, unchanged, changed, root_parses, reapplied, names

        applied, unchanged, changed, root_parses, reapplied, names = run(main())
        assert applied.ok and applied.body["summary"]["create"] == 1
        assert unchanged.body["summary"]["create"] == 0
        assert unchanged.body["summary"]["replace"] + unchanged.body["summary"]["update"] == 0
        # the module's chunk is parsed by the loader; the root's is not
        assert changed.body["summary"]["replace"] + changed.body["summary"]["update"] == 1
        assert root_parses == 1
        assert reapplied.ok and names == ["bucket-two"]


class TestResidentHistory:
    """A committed version names its sources by content key in memory,
    as a loaded one does: the world file holds the text, once."""

    def test_forty_applies_keep_keys_and_give_back_text(self, tmp_path):
        from repro.persist import load_world, save_world
        from repro.workloads import sized_estate

        base = sized_estate(20)
        texts = {n: _retag(base, f"r{n}") for n in range(1, 41)}

        async def main():
            svc = make_service(tmp_path)
            await svc.start()
            for n in range(1, 41):
                response = await svc.request("a", "apply", payload={"sources": texts[n]})
                assert response.ok, response
            engine = svc.sessions["a"].engine
            history = engine.history
            assert history.last_version == 40
            for record in history._records:
                assert record.sources_pending, record.version
                (key,) = record.config_sources.values()
                assert len(key) == 64 and int(key, 16) >= 0
            # the text comes back when asked for, version by version
            oldest = history.versions()[0]
            for version in (oldest, oldest + 1, 39, 40):
                assert history.get(version).config_sources == {
                    "main.clc": texts[version]
                }
            assert history.diff(oldest, 40).changed == [
                "aws_virtual_machine.estate_1_vm[0]",
                "aws_virtual_machine.estate_1_vm[1]",
            ]
            # ... which the next commit folds back into keys
            assert not history._record(39).sources_pending
            assert (await svc.request("a", "apply", payload={"sources": texts[1]})).ok
            assert all(r.sources_pending for r in history._records)

            engine.rollback(oldest + 2)
            assert engine.last_sources == {"main.clc": texts[oldest + 2]}
            tags = {
                e.attrs["tags"].get("rev")
                for e in engine.state.resources()
                if e.address.type == "aws_virtual_machine"
                and e.attrs["tags"]["service"] == "estate-1"
            }
            assert tags == {f"r{oldest + 2}"}

            elsewhere = str(tmp_path / "elsewhere.world")
            save_world(engine, elsewhere)
            loaded = load_world(elsewhere)
            assert loaded.history.versions() == history.versions()
            for version in history.versions():
                ours, theirs = history.get(version), loaded.history.get(version)
                assert ours.config_sources == theirs.config_sources
                assert ours.state.content_hash() == theirs.state.content_hash()
            assert loaded.state.content_hash() == engine.state.content_hash()
            assert loaded.last_sources == engine.last_sources
            await svc.stop()

        run(main())

    def test_a_snapshot_handed_out_keeps_its_text(self, tmp_path):
        from repro.persist import save_world

        engine = CloudlessEngine(seed=3)
        assert engine.apply(SRC).ok
        held = engine.history.get(1)
        save_world(engine, str(tmp_path / "w"))
        assert engine.history._record(1).sources_pending
        assert held.config_sources == {"main.clc": SRC}
        assert engine.history.get(1).config_sources == {"main.clc": SRC}

    def test_uncommitted_versions_stay_text(self, tmp_path):
        from repro.persist import save_world

        engine = CloudlessEngine(seed=3)
        assert engine.apply(SRC).ok
        save_world(engine, str(tmp_path / "w"))
        assert engine.apply(BIGGER).ok
        first, second = engine.history._records
        assert first.sources_pending and not second.sources_pending
        assert second.config_sources == {"main.clc": BIGGER}
