"""Multi-tenant control-plane service: admission, isolation, degradation.

Exercises the service tier end to end: typed rejections under every
shed path, per-tenant estate isolation (byte-for-byte vs single-tenant
baselines), weighted-fair scheduling, the degradation ladder, circuit
breakers, lease-fenced zombie sessions, and the kill/preempt/resume
crash cycle.
"""

import asyncio
import math

import pytest

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
    REJECT_QUEUE_FULL,
    REJECT_RATE_LIMITED,
    REJECT_READ_ONLY,
    REJECT_STALE_SESSION,
    REJECT_TENANT_QUOTA,
    REJECT_UNKNOWN_OP,
    STATUS_OF,
    CircuitBreaker,
    ControlPlaneService,
    DegradationLadder,
    ServicePolicy,
    SessionFencedError,
    TenantQuota,
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

        unplanned, applied, proven, bare, what_if = run(main())
        assert unplanned == (None, None)
        nodes = applied[1]
        assert applied == proven == (nodes, nodes) and nodes > 5
        assert bare == (0, nodes)
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
        ladder = DegradationLadder(
            brownout_up=0.7, brownout_down=0.4,
            read_only_up=0.9, read_only_down=0.6,
        )
        assert ladder.update(0.5) == MODE_NORMAL
        assert ladder.update(0.75) == MODE_BROWNOUT
        assert ladder.update(0.5) == MODE_BROWNOUT  # above down-threshold
        assert ladder.update(0.95) == MODE_READ_ONLY
        assert ladder.update(0.7) == MODE_READ_ONLY  # above release
        assert ladder.update(0.55) == MODE_BROWNOUT  # one rung at a time
        assert ladder.update(0.3) == MODE_NORMAL

    def test_ladder_validates_thresholds(self):
        with pytest.raises(ValueError):
            DegradationLadder(brownout_up=0.4, brownout_down=0.7)

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
    def test_breaker_state_machine(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=10.0)
        assert breaker.allow(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.record_failure(1.0)
        assert breaker.state == "open"
        assert not breaker.allow(5.0)  # cooling
        assert breaker.allow(11.0)  # half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow(11.5)  # only one probe
        breaker.record_failure(11.5)
        assert breaker.state == "open"
        assert breaker.allow(22.0)
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failing_tenant_trips_its_breaker_only(self, tmp_path):
        async def main():
            svc = make_service(tmp_path, breaker_threshold=2)
            await svc.start()
            for _ in range(2):
                await svc.request("bad", "apply", payload={"sources": UNAPPLIABLE})
            tripped = await svc.request(
                "bad", "apply", payload={"sources": SRC}
            )
            bystander = await svc.request(
                "good", "apply", payload={"sources": SRC}
            )
            await svc.stop()
            return tripped, bystander

        tripped, bystander = run(main())
        assert tripped.reason == REJECT_CIRCUIT_OPEN
        assert tripped.status == 503
        assert bystander.ok


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
            breaker = svc.breakers.of("a").state
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
