"""Drift detection and reconciliation (E5 machinery)."""

import pytest

from repro.cloud import ResilientGateway
from repro.core import CloudlessEngine
from repro.drift import (
    ADOPT,
    ENFORCE,
    FullScanDetector,
    LogWatchDetector,
    NOTIFY,
    Reconciler,
)
from repro.workloads import web_tier


def deployed(seed=50, **kwargs):
    engine = CloudlessEngine(seed=seed)
    assert engine.apply(web_tier(**kwargs)).ok
    return engine


def client(engine):
    """A client of ``engine``'s clouds of its own: default retry, fresh
    stats, no health ledger (``engine.resilient`` keeps the engine's)."""
    return ResilientGateway(engine.gateway)


def a_vm(engine):
    return next(
        e
        for e in engine.state.resources()
        if e.address.type == "aws_virtual_machine"
    )


class TestFullScan:
    def test_clean_estate_no_findings(self):
        engine = deployed()
        run = FullScanDetector(client(engine)).scan(engine.state)
        assert run.findings == []

    def test_detects_modification(self):
        engine = deployed()
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}
        )
        run = FullScanDetector(client(engine)).scan(engine.state)
        kinds = {(f.kind, f.resource_id) for f in run.findings}
        assert ("modified", vm.resource_id) in kinds
        finding = next(f for f in run.findings if f.kind == "modified")
        assert finding.changed_attrs == ["size"]

    def test_detects_deletion_and_unmanaged(self):
        engine = deployed()
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_delete(vm.resource_id)
        rogue = engine.gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "rogue"}, "us-east-1"
        )
        run = FullScanDetector(client(engine)).scan(engine.state)
        kinds = {f.kind for f in run.findings}
        assert kinds == {"deleted", "unmanaged"}

    def test_scan_cost_scales_with_estate(self):
        small = deployed(seed=51, web_vms=1, app_vms=1)
        big = deployed(seed=52, web_vms=8, app_vms=8)
        small_run = FullScanDetector(client(small)).scan(small.state)
        big_run = FullScanDetector(client(big)).scan(big.state)
        assert big_run.api_calls >= small_run.api_calls
        assert big_run.duration_s > 0


class TestLogWatch:
    def test_ignores_iac_activity(self):
        engine = deployed()
        detector = LogWatchDetector(client(engine))
        run = detector.poll(engine.state)
        assert run.findings == []  # all events so far were actor=iac

    def test_detects_external_update(self):
        engine = deployed()
        detector = LogWatchDetector(client(engine))
        detector.poll(engine.state)  # consume history
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="cron-job"
        )
        run = detector.poll(engine.state)
        assert len(run.findings) == 1
        finding = run.findings[0]
        assert finding.kind == "modified"
        assert finding.actor == "cron-job"
        assert finding.changed_attrs == ["size"]
        assert str(finding.address) == str(vm.address)

    def test_cursor_prevents_rereporting(self):
        engine = deployed()
        detector = LogWatchDetector(client(engine))
        detector.poll(engine.state)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        assert len(detector.poll(engine.state).findings) == 1
        assert detector.poll(engine.state).findings == []

    def test_poll_is_cheap(self):
        engine = deployed(web_vms=6, app_vms=6)
        detector = LogWatchDetector(client(engine))
        before = engine.gateway.total_api_calls()
        detector.poll(engine.state)
        # one log read per provider, regardless of estate size
        assert engine.gateway.total_api_calls() - before == 2

    def test_detects_external_create_as_unmanaged(self):
        engine = deployed()
        detector = LogWatchDetector(client(engine))
        detector.poll(engine.state)
        engine.gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "rogue"}, "us-east-1", actor="intern"
        )
        run = detector.poll(engine.state)
        assert [f.kind for f in run.findings] == ["unmanaged"]


class TestReconciler:
    def drifted_engine(self):
        engine = deployed(seed=53)
        detector = LogWatchDetector(client(engine))
        detector.poll(engine.state)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="script"
        )
        findings = detector.poll(engine.state).findings
        return engine, vm, findings

    def test_enforce_restores_golden_state(self):
        engine, vm, findings = self.drifted_engine()
        golden_size = vm.attrs["size"]
        assert golden_size != "large"
        report = Reconciler(client(engine)).reconcile(findings, engine.state)
        assert all(a.ok for a in report.actions)
        live = engine.gateway.find_record(vm.resource_id)
        assert live.attrs["size"] == golden_size

    def test_adopt_pulls_cloud_into_state(self):
        engine, vm, findings = self.drifted_engine()
        report = Reconciler(
            client(engine), policy={"modified": ADOPT}
        ).reconcile(findings, engine.state)
        assert all(a.ok for a in report.actions)
        assert engine.state.by_resource_id(vm.resource_id).attrs["size"] == "large"
        # cloud untouched
        assert engine.gateway.find_record(vm.resource_id).attrs["size"] == "large"

    def test_notify_touches_nothing(self):
        engine, vm, findings = self.drifted_engine()
        report = Reconciler(
            client(engine), policy={"modified": NOTIFY}
        ).reconcile(findings, engine.state)
        assert report.notifications
        assert report.api_calls == 0

    def test_enforce_recreates_deleted(self):
        engine = deployed(seed=54)
        detector = LogWatchDetector(client(engine))
        detector.poll(engine.state)
        bucket = next(
            e for e in engine.state.resources() if e.address.type == "aws_database_instance"
        )
        engine.gateway.planes["aws"].external_delete(bucket.resource_id, actor="x")
        findings = detector.poll(engine.state).findings
        report = Reconciler(client(engine)).reconcile(findings, engine.state)
        assert all(a.ok for a in report.actions)
        new_entry = engine.state.get(bucket.address)
        assert new_entry.resource_id != bucket.resource_id
        assert engine.gateway.find_record(new_entry.resource_id) is not None


class TestDetectorEquivalence:
    def test_both_detect_the_same_modification(self):
        engine = deployed(seed=55)
        log_detector = LogWatchDetector(client(engine))
        log_detector.poll(engine.state)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        log_run = log_detector.poll(engine.state)
        scan_run = FullScanDetector(client(engine)).scan(engine.state)
        log_keys = {f.key for f in log_run.findings}
        scan_keys = {f.key for f in scan_run.findings}
        assert log_keys == scan_keys

    def test_log_watch_is_cheaper(self):
        engine = deployed(seed=56, web_vms=30, app_vms=30)
        log_detector = LogWatchDetector(client(engine))
        log_detector.poll(engine.state)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        before = engine.gateway.total_api_calls()
        log_detector.poll(engine.state)
        log_cost = engine.gateway.total_api_calls() - before
        before = engine.gateway.total_api_calls()
        FullScanDetector(client(engine)).scan(engine.state)
        scan_cost = engine.gateway.total_api_calls() - before
        assert log_cost < scan_cost / 2


class TestResilienceRegressions:
    """Crash consistency and fault tolerance of the drift path."""

    def test_interrupted_replacement_checkpoints_state(self):
        # regression: an immutable-drift replacement whose create half
        # faults used to leave state pointing at the already-deleted id
        from repro.cloud import FaultSpec

        engine = deployed(seed=57)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"image": "win-2022"}
        )
        engine.gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InsufficientCapacity",
                message="no capacity",
                match_type="aws_virtual_machine",
                match_operation="create",
                transient=False,
                max_strikes=1,
            )
        )
        old_id = vm.resource_id
        run = FullScanDetector(client(engine)).scan(engine.state)
        report = engine.reconcile(run.findings)
        assert not report.ok
        assert report.remainder  # precise resumable work
        entry = engine.state.get(vm.address)
        assert entry is not None
        assert entry.resource_id == ""  # checkpointed, not the dead id
        assert engine.gateway.find_record(old_id) is None
        # resume: a fresh detect + reconcile pass finishes the repair
        run2 = FullScanDetector(client(engine)).scan(engine.state)
        report2 = engine.reconcile(run2.findings)
        assert report2.ok
        entry = engine.state.get(vm.address)
        assert entry.resource_id
        assert engine.gateway.find_record(entry.resource_id) is not None

    def test_transient_fault_during_replacement_is_retried(self):
        from repro.cloud import FaultSpec

        engine = deployed(seed=59)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"image": "win-2022"}
        )
        engine.gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalServerError",
                message="retry me",
                match_type="aws_virtual_machine",
                match_operation="create",
                transient=True,
                max_strikes=1,
            )
        )
        run = FullScanDetector(client(engine)).scan(engine.state)
        report = engine.reconcile(run.findings)
        assert report.ok  # the retry absorbed the fault
        assert engine.resilient.stats.retries >= 1
        entry = engine.state.get(vm.address)
        assert engine.gateway.find_record(entry.resource_id) is not None

    def test_fullscan_survives_mid_pagination_fault(self):
        from repro.cloud import FaultSpec

        clean_engine = deployed(seed=58, web_vms=8, app_vms=8)
        clean = FullScanDetector(client(clean_engine)).scan(
            clean_engine.state
        )
        assert clean.findings == []
        assert clean.api_calls >= 2  # estate spans multiple pages

        engine = deployed(seed=58, web_vms=8, app_vms=8)
        engine.gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="Throttling",
                message="rate exceeded",
                match_operation="list",
                transient=True,
                max_strikes=1,
            )
        )
        run = FullScanDetector(client(engine)).scan(engine.state)
        # the faulted page was retried with the same token: the scan
        # still covers the whole estate and costs exactly one extra call
        assert run.findings == []
        assert run.api_calls == clean.api_calls + 1
