"""Resilience layer: taxonomy, retry policy, ResilientGateway."""

import pytest

from repro.cloud import (
    CloudAPIError,
    CloudGateway,
    FaultInjector,
    FaultSpec,
    OperationTimeout,
    ResilientGateway,
    RetryPolicy,
    TERMINAL,
    THROTTLED,
    TIMEOUT,
    TRANSIENT,
    classify,
)
from repro.cloud.resilience import MAX_BACKOFF_S, THROTTLE_FACTOR, _unit_hash


def gateway(seed=7):
    return CloudGateway.simulated(seed=seed)


def resilient(seed=7, **kwargs):
    return ResilientGateway(gateway(seed=seed), **kwargs)


class TestClassify:
    def test_transient(self):
        err = CloudAPIError("InternalServerError", "retry", transient=True)
        assert classify(err) == TRANSIENT

    def test_throttled_codes(self):
        for code in ("Throttling", "TooManyRequests", "RequestLimitExceeded"):
            err = CloudAPIError(code, "slow down", transient=True)
            assert classify(err) == THROTTLED

    def test_terminal(self):
        err = CloudAPIError("InvalidParameter", "bad", transient=False)
        assert classify(err) == TERMINAL

    def test_timeout(self):
        err = OperationTimeout("budget blown", operation="create")
        assert classify(err) == TIMEOUT
        assert err.code == "OperationTimedOut"
        assert err.http_status == 408


class TestRetryPolicy:
    def test_backoff_matches_legacy_executor_schedule(self):
        # the deploy executors' schedule must stay byte-identical
        policy = RetryPolicy()
        assert [policy.backoff(a) for a in (1, 2, 3)] == [5.0, 10.0, 20.0]

    def test_retries_only_transient_and_throttled(self):
        policy = RetryPolicy()
        assert policy.retries(TRANSIENT)
        assert policy.retries(THROTTLED)
        assert not policy.retries(TERMINAL)
        assert not policy.retries(TIMEOUT)

    def test_throttle_inflation_and_cap(self):
        policy = RetryPolicy(base_backoff_s=200.0)
        assert policy.delay_for(1, TRANSIENT) == 200.0
        # 200 * 2.0 throttle factor, capped at 300
        assert policy.delay_for(1, THROTTLED) == MAX_BACKOFF_S == 300.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_backoff_s=10.0, jitter=0.25)
        a = policy.delay_for(1, TRANSIENT, key="vm|create|r-1")
        b = policy.delay_for(1, TRANSIENT, key="vm|create|r-1")
        c = policy.delay_for(1, TRANSIENT, key="vm|create|r-2")
        assert a == b  # same key, same attempt -> same delay
        assert a != c  # different key -> different jitter
        assert 10.0 <= a < 10.0 * 1.25

    def test_unit_hash_range(self):
        values = [_unit_hash(f"k{i}") for i in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) == len(values)

    def test_deploy_reexports_same_class(self):
        from repro.deploy import RetryPolicy as deploy_policy
        from repro.deploy.executor import RetryPolicy as executor_policy

        assert deploy_policy is RetryPolicy
        assert executor_policy is RetryPolicy


class TestFaultSpecValidation:
    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            FaultSpec(error_code="X", message="m", probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(error_code="X", message="m", probability=-0.1)

    def test_probability_zero_never_fires(self):
        class ZeroRng:
            def random(self):
                return 0.0  # the old `<=` comparison made this fire

        injector = FaultInjector(rng=ZeroRng())
        injector.add_rule(
            FaultSpec(error_code="X", message="m", probability=0.0)
        )
        for _ in range(20):
            assert injector.check("aws_s3_bucket", "create") is None


class TestResilientGateway:
    def test_transient_fault_is_retried_to_success(self):
        rg = resilient()
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="oops",
                match_operation="create",
                transient=True,
                max_strikes=1,
            )
        )
        before = rg.clock.now
        response = rg.execute(
            "create", "aws_s3_bucket", attrs={"name": "b1"}, region="us-east-1"
        )
        assert response["id"]
        assert rg.stats.retries == 1
        assert rg.stats.backoff_s > 0
        assert rg.clock.now >= before + rg.stats.backoff_s

    def test_terminal_fault_is_not_retried(self):
        rg = resilient()
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InvalidParameter",
                message="bad request",
                match_operation="create",
                transient=False,
                max_strikes=1,
            )
        )
        calls_before = rg.total_api_calls()
        with pytest.raises(CloudAPIError) as exc_info:
            rg.execute(
                "create", "aws_s3_bucket", attrs={"name": "b2"},
                region="us-east-1",
            )
        assert exc_info.value.code == "InvalidParameter"
        assert rg.stats.retries == 0
        assert rg.total_api_calls() - calls_before == 1

    def test_gives_up_after_max_attempts(self):
        rg = resilient(retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0))
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="oops",
                match_operation="create",
                transient=True,
                max_strikes=-1,  # unlimited
            )
        )
        with pytest.raises(CloudAPIError):
            rg.execute(
                "create", "aws_s3_bucket", attrs={"name": "b3"},
                region="us-east-1",
            )
        assert rg.stats.gave_up == 1
        assert rg.stats.retries == 1  # one backoff, then gave up

    def test_timeout_budget_raises_operation_timeout(self):
        rg = resilient(timeouts={"create": 1.0})
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="oops",
                match_operation="create",
                transient=True,
                max_strikes=-1,
            )
        )
        with pytest.raises(OperationTimeout) as exc_info:
            rg.execute(
                "create", "aws_s3_bucket", attrs={"name": "b4"},
                region="us-east-1",
            )
        err = exc_info.value
        assert err.budget_s == 1.0
        assert err.last_error is not None
        assert err.last_error.code == "InternalServerError"
        assert rg.stats.timeouts == 1

    def test_submit_passes_through_unretried(self):
        rg = resilient()
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="oops",
                match_operation="create",
                transient=True,
                max_strikes=1,
            )
        )
        pending = rg.submit(
            "create", "aws_s3_bucket", attrs={"name": "b5"}, region="us-east-1"
        )
        rg.clock.advance_to(pending.t_complete)
        # the fault surfaces raw: event-loop callers own their retry
        with pytest.raises(CloudAPIError):
            pending.resolve()
        assert rg.stats.retries == 0

    def test_read_data_is_retried(self):
        rg = resilient()
        rg.execute(
            "create", "aws_s3_bucket", attrs={"name": "data-src"},
            region="us-east-1",
        )
        rg.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="oops",
                match_operation="read",
                transient=True,
                max_strikes=1,
            )
        )
        result = rg.read_data("aws_s3_bucket", {"name": "data-src"})
        assert result.get("name") == "data-src"
        assert rg.stats.retries == 1

    def test_perf_counters_record_retries(self):
        from repro import perf

        perf.PERF.enable()
        perf.PERF.reset()
        try:
            rg = resilient()
            rg.planes["aws"].faults.add_rule(
                FaultSpec(
                    error_code="Throttling",
                    message="slow down",
                    match_operation="create",
                    transient=True,
                    max_strikes=2,
                )
            )
            rg.execute(
                "create", "aws_s3_bucket", attrs={"name": "b6"},
                region="us-east-1",
            )
            snap = perf.snapshot()
            assert snap["counters"]["resilience.retries"] == 2
            assert snap["timers"]["resilience.backoff_sim_s"]["total_s"] > 0
        finally:
            perf.PERF.reset()
            perf.PERF.disable()

    def test_throttled_backoff_exceeds_transient(self):
        policy = RetryPolicy(base_backoff_s=10.0)
        assert policy.delay_for(1, THROTTLED) == THROTTLE_FACTOR * policy.delay_for(
            1, TRANSIENT
        )

    def test_engine_exposes_shared_resilient_wrapper(self):
        from repro.core import CloudlessEngine

        engine = CloudlessEngine(seed=9)
        assert isinstance(engine.resilient, ResilientGateway)
        assert engine.resilient.inner is engine.gateway

    def test_every_subsystem_an_engine_builds_holds_its_one_client(
        self, tmp_path, monkeypatch
    ):
        """Watch, continuous watch, reconcile, rollback, import over the
        API and resume's crash recovery each run on ``engine.resilient``
        itself: one retry policy, one stats ledger, one health ledger."""
        from repro.core import CloudlessEngine
        from repro.deploy import CrashRecovery, SimulatedCrash
        from repro.drift import Reconciler
        from repro.porting import importer
        from repro.update import ReversibilityAwareRollback
        from repro.workloads import web_tier

        built = []

        def spy(cls):
            init = cls.__init__

            def recording(self, gateway, *args, **kwargs):
                built.append((cls.__name__, gateway))
                init(self, gateway, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", recording)

        for cls in (CrashRecovery, Reconciler, ReversibilityAwareRollback):
            spy(cls)
        enumerate_estate = importer.enumerate_estate

        def enumerating(gateway):
            built.append(("enumerate_estate", gateway))
            return enumerate_estate(gateway)

        monkeypatch.setattr(importer, "enumerate_estate", enumerating)

        def die_at_two(index):
            if index == 2:
                raise SimulatedCrash("boundary 2")

        engine = CloudlessEngine(seed=9, wal_path=str(tmp_path / "intents.wal"))
        text = web_tier()
        with pytest.raises(SimulatedCrash):
            engine.apply(text, crash_hook=die_at_two)
        resumed = engine.resume(text)
        assert resumed.ok and resumed.recovery.adopted  # a Reconciler adopted
        engine.watch()
        engine.watch_continuously()
        engine.reconcile([])
        engine.rollback(resumed.result.snapshot_version)
        engine.import_estate(via_api=True)

        one = engine.resilient
        watcher = engine.continuous_watcher
        held = [
            ("watcher", engine.watcher.gateway),
            ("continuous_watcher", watcher.gateway),
            ("its detector", watcher.detector.gateway),
            ("its reconciler", watcher.reconciler.gateway),
            *built,
        ]
        assert [name for name, gateway in held if gateway is not one] == []
        adoptions = ["Reconciler"] * len(resumed.recovery.adopted)
        assert [name for name, _ in built] == ["CrashRecovery", *adoptions] + [
            "Reconciler",  # the continuous watcher's
            "Reconciler",  # reconcile's
            "ReversibilityAwareRollback",
            "enumerate_estate",
        ]


class TestRetryStatsAndPerfCounters:
    """PR 5 satellite: RetryStats.as_dict and the resilience.* perf
    counters under a mixed transient/throttled/terminal/outage storm."""

    def test_as_dict_round_trips_every_counter(self):
        from repro.cloud import RetryStats

        stats = RetryStats(
            retries=3, backoff_s=12.5, gave_up=1, timeouts=2, fast_fails=4
        )
        assert stats.as_dict() == {
            "retries": 3,
            "backoff_s": 12.5,
            "gave_up": 1,
            "timeouts": 2,
            "fast_fails": 4,
        }
        # fresh stats start at zero across the board
        assert all(v == 0 for v in RetryStats().as_dict().values())

    def test_mixed_storm_feeds_stats_and_perf(self):
        from repro import perf
        from repro.cloud import BreakerPolicy, HealthMonitor, OutageSpec
        from repro.cloud.resilience import PartitionUnavailableError

        perf.PERF.enable()
        perf.PERF.reset()
        try:
            health = HealthMonitor(policy=BreakerPolicy(failure_threshold=1))
            rg = resilient(
                seed=11,
                retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
                health=health,
            )
            aws = rg.inner.planes["aws"]
            # 1. one transient strike: retried once, then succeeds
            aws.faults.add_rule(
                FaultSpec(
                    error_code="InternalServerError",
                    message="oops",
                    match_operation="create",
                    transient=True,
                    max_strikes=1,
                )
            )
            rg.execute(
                "create", "aws_s3_bucket", attrs={"name": "a"},
                region="us-east-1",
            )
            # 2. a throttle storm that outlasts the retry budget
            aws.faults.add_rule(
                FaultSpec(
                    error_code="Throttling",
                    message="slow down",
                    match_operation="create",
                    transient=True,
                    max_strikes=2,
                )
            )
            with pytest.raises(CloudAPIError) as throttled:
                rg.execute(
                    "create", "aws_s3_bucket", attrs={"name": "b"},
                    region="us-east-1",
                )
            assert classify(throttled.value) == THROTTLED
            # 3. a terminal error: raised immediately, never retried
            aws.faults.add_rule(
                FaultSpec(
                    error_code="InvalidParameter",
                    message="bad",
                    match_operation="create",
                    transient=False,
                    max_strikes=1,
                )
            )
            with pytest.raises(CloudAPIError) as terminal:
                rg.execute(
                    "create", "aws_s3_bucket", attrs={"name": "c"},
                    region="us-east-1",
                )
            assert classify(terminal.value) == TERMINAL
            # 4. an outage: first failure trips the breaker (threshold
            # 1), the next call is rejected locally
            rg.inner.inject_outage(
                "azure", OutageSpec(start_s=0.0, end_s=1e9, region="westus2")
            )
            for _ in range(2):
                with pytest.raises(PartitionUnavailableError):
                    rg.execute(
                        "create",
                        "azure_resource_group",
                        attrs={"name": "rg", "location": "westus2"},
                        region="westus2",
                    )

            assert rg.stats.retries == 2  # one transient + one throttled
            assert rg.stats.gave_up == 1
            assert rg.stats.fast_fails == 1
            assert rg.stats.timeouts == 0
            assert rg.stats.backoff_s > 0.0
            assert rg.stats.as_dict()["fast_fails"] == 1

            counters = perf.snapshot()["counters"]
            assert counters["resilience.retries"] == 2
            assert counters["resilience.gave_up"] == 1
            assert counters["resilience.fast_fails"] == 1
            assert counters["resilience.breaker_opened"] == 1
        finally:
            perf.PERF.reset()
            perf.PERF.disable()
