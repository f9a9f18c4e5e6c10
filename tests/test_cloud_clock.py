"""SimClock, EventQueue, rate limiting, latency, fault injection."""

import random

import pytest

from repro.cloud.clock import EventQueue, SimClock
from repro.cloud.faults import FaultInjector, FaultSpec
from repro.cloud.latency import LatencyProfile
from repro.cloud.ratelimit import RateLimiterBank, TokenBucket


class TestSimClock:
    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_no_time_travel(self):
        clock = SimClock(start=10.0)
        with pytest.raises(ValueError):
            clock.advance_to(3.0)

    def test_advance_by(self):
        clock = SimClock()
        clock.advance_by(2.5)
        clock.advance_by(2.5)
        assert clock.now == 5.0
        with pytest.raises(ValueError):
            clock.advance_by(-1)


class TestEventQueue:
    def test_pop_orders_by_time(self):
        clock = SimClock()
        q = EventQueue(clock)
        q.schedule(5.0, "b")
        q.schedule(2.0, "a")
        assert q.pop() == (2.0, "a")
        assert clock.now == 2.0
        assert q.pop() == (5.0, "b")

    def test_fifo_among_ties(self):
        q = EventQueue(SimClock())
        q.schedule(1.0, "first")
        q.schedule(1.0, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_cannot_schedule_past(self):
        clock = SimClock(start=10.0)
        q = EventQueue(clock)
        with pytest.raises(ValueError):
            q.schedule(1.0, "x")

    def test_empty_pop(self):
        assert EventQueue(SimClock()).pop() is None

    def test_past_schedule_error_names_the_event(self):
        clock = SimClock(start=10.0)
        q = EventQueue(clock)
        with pytest.raises(ValueError, match=r"event 'complete' \(res-42\)"):
            q.schedule(1.0, ("complete", "res-42"))
        with pytest.raises(ValueError, match=r"event 'tick'"):
            q.schedule(1.0, "tick")
        with pytest.raises(ValueError, match=r"event of type dict"):
            q.schedule(1.0, {"kind": "opaque"})


class TestTokenBucket:
    def test_burst_is_free(self):
        bucket = TokenBucket(rate=1.0, burst=5)
        for _ in range(5):
            assert bucket.consume(0.0) == 0.0

    def test_throttling_pushes_start_times(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.consume(0.0) == 0.0
        start = bucket.consume(0.0)
        assert start == pytest.approx(1.0)
        assert bucket.consume(0.0) == pytest.approx(2.0)

    def test_refill(self):
        bucket = TokenBucket(rate=2.0, burst=2)
        bucket.consume(0.0)
        bucket.consume(0.0)
        # after 1s, 2 tokens refilled
        assert bucket.consume(1.0) == pytest.approx(1.0)

    def test_available_at_does_not_consume(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        assert bucket.available_at(0.0) == 0.0
        assert bucket.available_at(0.0) == 0.0
        bucket.consume(0.0)
        assert bucket.available_at(0.0) > 0.0

    def test_stats(self):
        bucket = TokenBucket(rate=1.0, burst=1)
        bucket.consume(0.0)
        bucket.consume(0.0)
        assert bucket.stats.calls == 2
        assert bucket.stats.throttled_calls == 1
        assert bucket.stats.total_wait_s > 0

    def test_fractional_burst_is_not_truncated(self):
        # a service tenant's quota may set burst=2.5: a bucket idle
        # long enough refills to 2.5 tokens, not 2
        bucket = TokenBucket(rate=1.0, burst=2.5)
        bucket.consume(0.0)
        assert bucket.consume(100.0) == bucket.consume(100.0) == 100.0
        assert bucket.consume(100.0) == pytest.approx(100.5)

    def test_impossible_request(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        with pytest.raises(ValueError):
            bucket.available_at(0.0, tokens=5)


class TestRateLimiterBank:
    def test_separate_buckets(self):
        bank = RateLimiterBank({"read": (100.0, 100), "write": (1.0, 1)})
        assert bank.consume("read", 0.0) == 0.0
        bank.consume("write", 0.0)
        assert bank.consume("write", 0.0) > 0.0
        # reads unaffected by write pressure
        assert bank.consume("read", 0.0) == 0.0

    def test_unknown_class_falls_back(self):
        bank = RateLimiterBank({"read": (100.0, 100), "write": (1.0, 1)})
        assert bank.consume("mystery", 0.0) == 0.0
        # the unknown class drew on the write bucket
        assert bank.consume("write", 0.0) > 0.0


class TestLatencyProfile:
    def test_mean(self):
        profile = LatencyProfile(40.0, 20.0, 10.0)
        assert profile.mean_for("create") == 40.0
        assert profile.mean_for("delete") == 10.0
        assert profile.mean_for("list") == profile.read_s

    def test_sample_determinism(self):
        profile = LatencyProfile(40.0, 20.0, 10.0)
        a = profile.sample("create", random.Random(7))
        b = profile.sample("create", random.Random(7))
        assert a == b

    def test_sample_near_mean(self):
        profile = LatencyProfile(40.0, 20.0, 10.0, spread=0.1)
        rng = random.Random(1)
        samples = [profile.sample("create", rng) for _ in range(200)]
        mean = sum(samples) / len(samples)
        assert 35.0 < mean < 45.0

    def test_zero_spread_is_exact(self):
        profile = LatencyProfile(40.0, 20.0, 10.0, spread=0.0)
        assert profile.sample("create", random.Random(1)) == 40.0


class TestFaultInjector:
    def test_targeted_rule_fires_once(self):
        injector = FaultInjector(random.Random(0))
        injector.add_rule(
            FaultSpec(
                error_code="Boom",
                message="boom",
                match_type="aws_vm",
                max_strikes=1,
            )
        )
        assert injector.check("aws_vm", "create") is not None
        assert injector.check("aws_vm", "create") is None

    def test_rule_matching(self):
        injector = FaultInjector(random.Random(0))
        injector.add_rule(
            FaultSpec(
                error_code="Boom",
                message="boom",
                match_type="aws_vm",
                match_operation="delete",
                max_strikes=10,
            )
        )
        assert injector.check("aws_vm", "create") is None
        assert injector.check("aws_disk", "delete") is None
        assert injector.check("aws_vm", "delete") is not None

    def test_blanket_transient_rate(self):
        injector = FaultInjector(random.Random(0))
        injector.set_transient_rate(0.5)
        outcomes = [injector.check("t", "create") for _ in range(200)]
        fired = [o for o in outcomes if o is not None]
        assert 50 < len(fired) < 150
        assert all(f.transient for f in fired)

    def test_reads_never_hit_blanket_rate(self):
        injector = FaultInjector(random.Random(0))
        injector.set_transient_rate(0.99)
        assert injector.check("t", "read") is None

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FaultInjector().set_transient_rate(1.5)
