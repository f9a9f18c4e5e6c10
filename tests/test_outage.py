"""Outage model, circuit breakers, and degraded-mode apply (PR 5).

Covers the tentpole end to end: time-windowed :class:`OutageSpec`s at
the control plane, the :class:`HealthMonitor`/:class:`CircuitBreaker`
layer, fast-fail through :class:`ResilientGateway`, executor partition
quarantine, drain-on-recovery via ``engine.resume()``, the outage-aware
drift detectors and update coordinator, and the CLI's partial exit code.
"""

import os
from typing import NamedTuple

import pytest

from repro.cloud import (
    BreakerPolicy,
    CircuitBreaker,
    CloudAPIError,
    CloudGateway,
    HealthMonitor,
    OutageSpec,
    PartitionUnavailableError,
    ResilientGateway,
    RetryPolicy,
    UNAVAILABLE,
    classify,
    is_outage_error,
)
from repro.cloud.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    GATE_ALLOW,
    GATE_OPEN,
    GATE_WAIT,
)
from repro.core import CloudlessEngine
from repro.core.engine import EngineApplyResult, EngineResumeResult
from repro.service.core import TENANT_BREAKER
from repro.workloads import two_region_estate, web_tier

OUTAGE = OutageSpec(start_s=0.0, end_s=50000.0, region="westus2")


def make_engine(tmp_path=None, seed=0):
    wal = str(tmp_path / "apply.wal") if tmp_path is not None else None
    return CloudlessEngine(seed=seed, wal_path=wal)


# -- the fault model ----------------------------------------------------------


class TestOutageSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OutageSpec(start_s=100.0, end_s=100.0)
        with pytest.raises(ValueError):
            OutageSpec(start_s=0.0, end_s=10.0, mode="flaky")
        with pytest.raises(ValueError):
            OutageSpec(
                start_s=0.0, end_s=10.0, mode="brownout", latency_multiplier=0.5
            )

    def test_active_window_is_half_open(self):
        spec = OutageSpec(start_s=100.0, end_s=200.0)
        assert not spec.active_at(99.9)
        assert spec.active_at(100.0)
        assert spec.active_at(199.9)
        assert not spec.active_at(200.0)

    def test_region_scoping(self):
        spec = OutageSpec(start_s=0.0, end_s=10.0, region="westus2")
        assert spec.covers("azure_virtual_machine", "westus2")
        assert not spec.covers("azure_virtual_machine", "eastus")
        # a region-scoped outage never covers region-less operations
        assert not spec.covers("azure_virtual_machine", "")

    def test_provider_wide_covers_everything(self):
        spec = OutageSpec(start_s=0.0, end_s=10.0)
        assert spec.covers("azure_virtual_machine", "westus2")
        assert spec.covers("azure_virtual_machine", "")

    def test_match_type_scoping(self):
        spec = OutageSpec(
            start_s=0.0, end_s=10.0, match_type="azure_virtual_machine"
        )
        assert spec.covers("azure_virtual_machine", "eastus")
        assert not spec.covers("azure_subnet", "eastus")


class TestControlPlaneOutage:
    def attrs(self):
        return {"name": "rg-1", "location": "westus2"}

    def test_hard_outage_fails_fast(self):
        gateway = CloudGateway.simulated(seed=3)
        gateway.inject_outage("azure", OUTAGE)
        pending = gateway.submit(
            "create", "azure_resource_group", attrs=self.attrs(),
            region="westus2",
        )
        # fail-fast latency, not the type's provisioning latency
        assert pending.t_complete - pending.t_start <= 10.0
        gateway.clock.advance_to(pending.t_complete)
        with pytest.raises(CloudAPIError) as err:
            pending.resolve()
        assert err.value.code == "ServiceUnavailable"
        assert err.value.transient
        assert is_outage_error(err.value)

    def test_outage_ends_on_schedule(self):
        gateway = CloudGateway.simulated(seed=3)
        gateway.inject_outage("azure", OUTAGE)
        gateway.clock.advance_to(OUTAGE.end_s)
        result = gateway.execute(
            "create", "azure_resource_group", attrs=self.attrs(),
            region="westus2",
        )
        assert result["id"]

    def test_region_scoped_outage_spares_siblings(self):
        gateway = CloudGateway.simulated(seed=3)
        gateway.inject_outage("azure", OUTAGE)
        result = gateway.execute(
            "create",
            "azure_resource_group",
            attrs={"name": "rg-east", "location": "eastus"},
            region="eastus",
        )
        assert result["id"]

    def test_brownout_scales_latency(self):
        def create_duration(with_brownout):
            gateway = CloudGateway.simulated(seed=3)
            if with_brownout:
                gateway.inject_outage(
                    "azure",
                    OutageSpec(
                        start_s=0.0,
                        end_s=1e6,
                        mode="brownout",
                        latency_multiplier=5.0,
                    ),
                )
            pending = gateway.submit(
                "create",
                "azure_resource_group",
                attrs={"name": "rg-1", "location": "eastus"},
            )
            return pending.t_complete - pending.t_start

        base = create_duration(False)
        slow = create_duration(True)
        assert slow == pytest.approx(base * 5.0)

    def test_dark_region_records_hidden_from_list(self):
        gateway = CloudGateway.simulated(seed=3)
        plane = gateway.planes["azure"]
        plane.external_create(
            "azure_storage_account", {"name": "ea", "location": "eastus"}, "eastus"
        )
        plane.external_create(
            "azure_storage_account", {"name": "we", "location": "westus2"}, "westus2"
        )
        gateway.inject_outage("azure", OUTAGE)
        page = gateway.execute(
            "list", "azure_storage_account", attrs={"page_token": 0}
        )
        names = sorted(item["name"] for item in page["items"])
        assert names == ["ea"]
        gateway.clock.advance_to(OUTAGE.end_s)
        page = gateway.execute(
            "list", "azure_storage_account", attrs={"page_token": 0}
        )
        assert sorted(i["name"] for i in page["items"]) == ["ea", "we"]

    def test_status_page(self):
        gateway = CloudGateway.simulated(seed=3)
        gateway.inject_outage("azure", OUTAGE)
        assert gateway.partition_dark("azure", "westus2") == OUTAGE.end_s
        assert gateway.partition_dark("azure", "eastus") is None
        assert gateway.dark_partitions() == {("azure", "westus2"): OUTAGE.end_s}
        gateway.clock.advance_to(OUTAGE.end_s)
        assert gateway.dark_partitions() == {}


# -- breakers -----------------------------------------------------------------


class TestCircuitBreaker:
    """One state machine under both of its policies: a partition's,
    which backs off, and the service's per-tenant one, which does not."""

    @pytest.fixture(
        params=[
            BreakerPolicy(
                failure_threshold=3, recovery_s=100.0, backoff_multiplier=2.0
            ),
            TENANT_BREAKER,
        ],
        ids=["partition", "tenant"],
    )
    def policy(self, request):
        return request.param

    def tripped(self, policy):
        """A breaker opened by failures at t = 0, 1, ..., threshold - 1."""
        breaker = CircuitBreaker(("azure", "westus2"), policy)
        for t in range(policy.failure_threshold):
            breaker.record_failure(float(t))
        return breaker

    def test_opens_at_threshold(self, policy):
        breaker = CircuitBreaker(("azure", "westus2"), policy)
        for t in range(policy.failure_threshold - 1):
            breaker.record_failure(float(t))
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(float(policy.failure_threshold - 1))
        assert breaker.state == BREAKER_OPEN
        assert breaker.gate(float(policy.failure_threshold)) == GATE_OPEN
        assert breaker.blocked(float(policy.failure_threshold))

    def test_half_open_probe_and_close(self, policy):
        breaker = self.tripped(policy)
        probe_at = policy.failure_threshold - 1 + policy.recovery_s
        assert breaker.next_probe_at() == pytest.approx(probe_at)
        # first gate at/after the probe time half-opens and admits one
        # probe; the second holds (WAIT) instead of failing fast
        assert breaker.gate(probe_at) == GATE_ALLOW
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.gate(probe_at) == GATE_WAIT
        breaker.record_success(probe_at + 8.0)
        assert breaker.state == BREAKER_CLOSED
        assert breaker.gate(probe_at + 8.0) == GATE_ALLOW

    def test_failed_probe_backs_off_exponentially(self, policy):
        breaker = self.tripped(policy)
        probe_at = breaker.next_probe_at()
        assert breaker.gate(probe_at) == GATE_ALLOW  # the probe
        breaker.record_failure(probe_at + 2.0)  # probe failed
        assert breaker.state == BREAKER_OPEN
        # the window times the multiplier: doubled for a partition,
        # the same 10 s for a tenant
        assert breaker.next_probe_at() == pytest.approx(
            probe_at + 2.0 + policy.recovery_s * policy.backoff_multiplier
        )

    def test_blocked_is_pure(self, policy):
        breaker = self.tripped(policy)
        probe_at = breaker.next_probe_at()
        # blocked() past the probe time must not consume the probe slot
        assert not breaker.blocked(probe_at)
        assert breaker.state == BREAKER_OPEN
        assert breaker.gate(probe_at) == GATE_ALLOW


class TestHealthMonitor:
    def monitor(self):
        return HealthMonitor(policy=BreakerPolicy(failure_threshold=2))

    def test_region_outage_trips_only_its_partition(self):
        monitor = self.monitor()
        for t in range(2):
            monitor.record(
                "azure",
                "westus2",
                ok=False,
                now=float(t),
                code="ServiceUnavailable",
                outage=True,
            )
        assert monitor.gate("azure", "westus2", 3.0) == GATE_OPEN
        # healthy sibling regions and region-less ops stay reachable
        assert monitor.gate("azure", "eastus", 3.0) == GATE_ALLOW
        assert monitor.gate("azure", "", 3.0) == GATE_ALLOW

    def test_success_closes_and_healthy_traffic_allocates_nothing(self):
        monitor = self.monitor()
        monitor.record("azure", "eastus", ok=True, now=1.0, latency_s=2.0)
        assert monitor.breakers == {}  # no breaker state for healthy traffic
        for t in range(2):
            monitor.record(
                "azure", "westus2", ok=False, now=float(t),
                code="ServiceUnavailable", outage=True,
            )
        assert monitor.blocked("azure", "westus2", 3.0)
        probe_at = monitor.next_probe_at("azure", "westus2")
        monitor.record("azure", "westus2", ok=True, now=probe_at + 1.0)
        assert not monitor.blocked("azure", "westus2", probe_at + 2.0)

    def test_non_outage_errors_do_not_advance_breakers(self):
        monitor = self.monitor()
        for t in range(10):
            monitor.record(
                "azure", "westus2", ok=False, now=float(t),
                code="InternalServerError", outage=False,
            )
        assert monitor.gate("azure", "westus2", 11.0) == GATE_ALLOW
        assert monitor.health_of("azure", "westus2").errors == 10

    def test_snapshot_shape(self):
        monitor = self.monitor()
        monitor.record(
            "azure", "westus2", ok=False, now=0.0,
            code="ServiceUnavailable", outage=True,
        )
        snap = monitor.snapshot()
        assert "azure/westus2" in snap
        assert snap["azure/westus2"]["health"]["outage_errors"] == 1
        assert snap["azure/westus2"]["breaker"]["state"] == BREAKER_CLOSED


class TestFastFail:
    def test_open_breaker_rejects_without_api_call(self):
        health = HealthMonitor(policy=BreakerPolicy(failure_threshold=1))
        gateway = ResilientGateway(
            CloudGateway.simulated(seed=3), health=health
        )
        health.record(
            "azure", "westus2", ok=False, now=0.0,
            code="ServiceUnavailable", outage=True,
        )
        calls_before = gateway.total_api_calls()
        with pytest.raises(PartitionUnavailableError) as err:
            gateway.execute(
                "create",
                "azure_resource_group",
                attrs={"name": "rg", "location": "westus2"},
                region="westus2",
            )
        assert gateway.total_api_calls() == calls_before  # rejected locally
        assert gateway.stats.fast_fails == 1
        assert classify(err.value) == UNAVAILABLE
        assert is_outage_error(err.value)
        assert err.value.retry_at is not None

    def test_breaker_stops_retry_storm_mid_outage(self):
        health = HealthMonitor(policy=BreakerPolicy(failure_threshold=2))
        gateway = ResilientGateway(
            CloudGateway.simulated(seed=3),
            retry=RetryPolicy(max_attempts=10, base_backoff_s=1.0),
            health=health,
        )
        gateway.inner.inject_outage("azure", OUTAGE)
        with pytest.raises(PartitionUnavailableError):
            gateway.execute(
                "create",
                "azure_resource_group",
                attrs={"name": "rg", "location": "westus2"},
                region="westus2",
            )
        # the breaker tripped after `failure_threshold` real calls; the
        # remaining retry budget was NOT burned against the dark region
        hits = gateway.inner.planes["azure"].faults.outage_hits
        assert hits == 2


# -- degraded-mode apply ------------------------------------------------------


class Degraded(NamedTuple):
    """One run of the degraded-apply scenario, recorded for reading."""

    full: CloudlessEngine  # fault-free apply of the whole estate
    reachable: EngineApplyResult  # fault-free apply of the eastus subset
    dark: EngineApplyResult  # the whole estate applied while westus2 is dark
    dark_hits: int  # calls that reached the dark region during it
    hit_budget: int
    resumed: CloudlessEngine  # the dark arm, resumed after the window
    resume: EngineResumeResult  # its ``resume`` outcome


class TestDegradedApply:
    """The whole estate applied with westus2 dark, beside two fault-free
    baselines: the whole estate, and its eastus subset (the exact
    subgraph the outage leaves reachable). 1,000 resources is the tier
    the degraded-mode claim is gated at."""

    @pytest.fixture(scope="class", params=[42, 1000])
    def degraded(self, request, tmp_path_factory):
        size = request.param
        src = two_region_estate(size, regions=("eastus", "westus2"))
        full = CloudlessEngine(seed=0)
        full_result = full.apply(src)
        assert full_result.ok
        reachable = CloudlessEngine(seed=0).apply(
            two_region_estate(
                size, regions=("eastus", "westus2"), region_filter=("eastus",)
            )
        )
        assert reachable.ok
        # dark from the start until long after any apply of the estate
        outage = OutageSpec(
            start_s=0.0,
            end_s=full_result.apply.makespan_s * 4.0 + 50000.0,
            region="westus2",
        )
        wal = tmp_path_factory.mktemp(f"degraded-{size}") / "apply.wal"
        engine = CloudlessEngine(seed=0, wal_path=str(wal))
        engine.gateway.inject_outage("azure", outage)
        dark = engine.apply(src)
        hits = engine.gateway.planes["azure"].faults.outage_hits
        # the breaker trips after `failure_threshold` failures; in-flight
        # operations (bounded by executor concurrency, 10) may also land
        hit_budget = engine.resilient.health.policy.failure_threshold + 2 * 10
        engine.clock.advance_to(outage.end_s + 4000.0)
        resume = engine.resume(src)
        return Degraded(full, reachable, dark, hits, hit_budget, engine, resume)

    def test_partial_apply_quarantines_dark_region(self, degraded):
        dark = degraded.dark
        assert dark.partial and not dark.ok
        assert dark.apply.failed == {}
        assert dark.apply.skipped == []
        assert dark.apply.quarantined_partitions() == ["azure/westus2"]
        # every eastus stack converged; every westus2 stack is parked
        reachable = len(degraded.reachable.apply.succeeded)
        assert len(dark.apply.succeeded) == reachable
        assert len(dark.apply.quarantined) == (
            len(degraded.full.state.resources()) - reachable
        )
        for quarantine in dark.apply.quarantined.values():
            assert quarantine.partition == "azure/westus2"

    def test_failing_fast_does_not_slow_the_healthy_region(self, degraded):
        """The degraded makespan is within 1.1x the reachable baseline's."""
        dark, reachable = degraded.dark.apply, degraded.reachable.apply
        ratio = dark.makespan_s / reachable.makespan_s
        assert ratio <= 1.1, ratio

    def test_no_retry_storm_into_dark_region(self, degraded):
        assert degraded.dark_hits <= degraded.hit_budget, degraded.dark_hits

    def test_resume_drains_quarantine_to_canonical_estate(self, degraded):
        from repro.chaos import assert_converged_like

        outcome = degraded.resume
        assert outcome.ok
        # the journal's quarantined intents were recognized as parked
        assert outcome.recovery is not None
        assert outcome.recovery.summary().get("quarantined", 0) >= 1
        assert_converged_like(degraded.resumed, degraded.full)

    def test_healthy_apply_is_untouched_by_breaker_layer(self, tmp_path):
        src = two_region_estate(14)
        with_health = make_engine(tmp_path)
        reference = CloudlessEngine(seed=0)
        a = with_health.apply(src)
        b = reference.apply(src)
        assert a.ok and b.ok
        assert a.apply.makespan_s == b.apply.makespan_s
        assert a.apply.api_calls == b.apply.api_calls


class TestProbeAnsweredByAnotherError:
    """A partition breaker's half-open probe that fails with an error
    saying nothing about the partition (a one-off 500) goes back to its
    breaker: the probe's retry, or a change it held, probes again."""

    @staticmethod
    def half_open_engine(error_code: str, transient: bool) -> CloudlessEngine:
        """westus2's breaker tripped by five outage errors, due to probe,
        and the next create answered by ``error_code``."""
        from repro.cloud.faults import FaultSpec

        engine = CloudlessEngine(seed=0)
        health = engine.resilient.health
        for t in range(health.policy.failure_threshold):
            health.record(
                "azure", "westus2", ok=False, now=float(t),
                code="ServiceUnavailable", outage=True,
            )
        assert health.breaker("azure", "westus2").state == BREAKER_OPEN
        engine.clock.advance_to(1000.0)
        engine.gateway.planes["azure"].faults.add_rule(
            FaultSpec(
                error_code=error_code,
                match_operation="create",
                max_strikes=1,
                transient=transient,
            )
        )
        return engine

    @staticmethod
    def groups(prefix: str, n: int = 3) -> str:
        return "".join(
            f'resource "azure_resource_group" "{prefix}_{g}" {{\n'
            f'  name     = "{prefix}-{g}-rg"\n'
            f'  location = "westus2"\n'
            f"}}\n"
            for g in range(n)
        )

    def test_an_engine_keeps_applying_to_the_partition(self):
        engine = self.half_open_engine("InternalServerError", transient=True)
        program = ""
        for round_ in range(3):
            program += self.groups(f"r{round_}")
            result = engine.apply(program)
            assert result.ok, (round_, result.apply.quarantined)
        breaker = engine.resilient.health.breaker("azure", "westus2")
        assert breaker.state == BREAKER_CLOSED

    def test_a_failed_probe_does_not_park_what_it_held(self):
        engine = self.half_open_engine("InvalidParameter", transient=False)
        result = engine.apply(self.groups("g"))
        assert len(result.apply.failed) == 1  # the probe: a terminal 400
        assert not result.apply.quarantined
        assert len(result.apply.succeeded) == 2
        breaker = engine.resilient.health.breaker("azure", "westus2")
        assert breaker.state == BREAKER_CLOSED


# -- drift under outage -------------------------------------------------------


class TestDriftUnderOutage:
    def test_full_scan_reports_no_phantom_deletions(self):
        from repro.drift import FullScanDetector

        engine = CloudlessEngine(seed=0)
        assert engine.apply(two_region_estate(14)).ok
        engine.gateway.inject_outage(
            "azure",
            OutageSpec(
                start_s=engine.clock.now,
                end_s=engine.clock.now + 10000.0,
                region="westus2",
            ),
        )
        detector = FullScanDetector(engine.resilient)
        run = detector.scan(engine.state)
        assert [f for f in run.findings if f.kind == "deleted"] == []
        assert "azure/westus2" in run.unreachable

    def test_full_scan_skips_unreachable_provider(self):
        from repro.drift import FullScanDetector

        engine = CloudlessEngine(seed=0)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        engine.gateway.inject_outage(
            "aws",
            OutageSpec(
                start_s=engine.clock.now, end_s=engine.clock.now + 1e6
            ),
        )
        detector = FullScanDetector(
            ResilientGateway(engine.gateway, retry=RetryPolicy(max_attempts=2))
        )
        run = detector.scan(engine.state)
        assert run.findings == []
        assert run.unreachable == ["aws"]

    def test_log_watch_delivers_events_late_not_lost(self):
        from repro.drift import LogWatchDetector

        engine = CloudlessEngine(seed=0)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        detector = LogWatchDetector(
            ResilientGateway(engine.gateway, retry=RetryPolicy(max_attempts=2))
        )
        detector.poll(engine.state)  # drain the apply's own events
        # an intruder deletes a VM, then the provider goes dark
        victim = next(
            e for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        engine.gateway.planes["aws"].external_delete(victim.resource_id)
        outage = OutageSpec(
            start_s=engine.clock.now, end_s=engine.clock.now + 5000.0
        )
        engine.gateway.inject_outage("aws", outage)
        during = detector.poll(engine.state)
        assert during.findings == []
        assert during.unreachable == ["aws"]
        engine.clock.advance_to(outage.end_s)
        after = detector.poll(engine.state)
        assert after.unreachable == []
        assert any(
            f.kind == "deleted" and f.resource_id == victim.resource_id
            for f in after.findings
        )


# -- coordinator deferral -----------------------------------------------------


class TestCoordinatorDeferral:
    def test_dark_partition_defers_admission(self):
        from repro.state import ResourceLockManager, StateDocument
        from repro.update import UpdateCoordinator, UpdateRequest

        gateway = CloudGateway.simulated(seed=3)
        outage = OutageSpec(start_s=0.0, end_s=900.0, region="westus2")
        gateway.inject_outage("azure", outage)
        coordinator = UpdateCoordinator(
            StateDocument(),
            ResourceLockManager(),
            gateway=ResilientGateway(gateway),
        )
        dark = UpdateRequest(
            team="geo-west",
            submitted_at=0.0,
            keys={"azure_virtual_machine.w0"},
            duration_s=60.0,
            partitions={("azure", "westus2")},
        )
        healthy = UpdateRequest(
            team="geo-east",
            submitted_at=0.0,
            keys={"azure_virtual_machine.e0"},
            duration_s=60.0,
            partitions={("azure", "eastus")},
        )
        result = coordinator.run([dark, healthy])
        assert len(result.outcomes) == 2
        by_team = {o.team: o for o in result.outcomes}
        # the healthy team ran immediately; the dark one waited for the
        # status page's recovery horizon instead of burning its window
        assert by_team["geo-east"].acquired_at == pytest.approx(0.0)
        assert by_team["geo-west"].acquired_at >= outage.end_s
        assert len(result.deferrals) == 1
        assert "geo-west" in result.deferrals[0]


# -- recovery classification --------------------------------------------------


class TestRecoveryClassification:
    def test_quarantined_aborts_are_not_terminal_failures(self, tmp_path):
        from repro.deploy import CrashRecovery, IntentJournal
        from repro.deploy.recovery import ABORTED, QUARANTINED
        from repro.state import StateDocument

        path = str(tmp_path / "intents.wal")
        journal = IntentJournal(path)
        journal.begin_run("runq")
        parked = journal.log_intent(
            "azure_resource_group.w", "create", "azure_resource_group"
        )
        journal.log_abort(
            parked, "quarantined: retries exhausted against azure/westus2"
        )
        failed = journal.log_intent(
            "azure_resource_group.x", "create", "azure_resource_group"
        )
        journal.log_abort(failed, "InvalidParameter: bad location")
        journal.close()

        recovery = CrashRecovery(
            ResilientGateway(CloudGateway.simulated(seed=3)),
            IntentJournal.resume(path),
        )
        report = recovery.recover(StateDocument())
        by_cid = {a.intent.cid: a.classification for a in report.actions}
        assert by_cid["azure_resource_group.w"] == QUARANTINED
        assert by_cid["azure_resource_group.x"] == ABORTED
        assert report.summary()["quarantined"] == 1


# -- CLI exit codes -----------------------------------------------------------


class TestCliExitCodes:
    def project(self, tmp_path, resources=14):
        from repro.cli import main

        directory = str(tmp_path)
        assert main(["--chdir", directory, "init"]) == 0
        with open(os.path.join(directory, "main.clc"), "w") as handle:
            handle.write(two_region_estate(resources))
        return directory, main

    def test_apply_exit_0_on_full_success(self, tmp_path):
        directory, main = self.project(tmp_path)
        assert main(["--chdir", directory, "apply"]) == 0

    def test_apply_exit_2_on_partial_then_resume_0(
        self, tmp_path, capsys
    ):
        import repro.cli as cli

        directory, main = self.project(tmp_path)
        real_load = cli.load_world

        def load_with_outage(path):
            engine = real_load(path)
            engine.gateway.inject_outage("azure", OUTAGE)
            return engine

        with pytest.MonkeyPatch.context() as patcher:
            patcher.setattr(cli, "load_world", load_with_outage)
            assert main(["--chdir", directory, "apply"]) == 2
        out = capsys.readouterr().out
        assert "apply DEGRADED" in out
        assert "azure/westus2" in out
        # outages are ephemeral (not persisted): the reloaded world is
        # healthy, so resume drains the quarantined work to completion
        assert main(["--chdir", directory, "resume"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert main(["--chdir", directory, "apply"]) == 0
