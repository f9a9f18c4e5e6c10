"""Event-driven continuous reconciliation (PR 7).

Covers the tentpole :class:`DriftWatcher` (durable cursors, bounded
staleness, coalescing, enforce/adopt/notify/defer-dark auto-reconcile)
and the satellite bugfixes: late-added-plane cursor ``KeyError`` and
sequence-based cursors under log compaction.
"""

import pytest

from repro.addressing import ResourceAddress
from repro.cloud import FaultSpec
from repro.cloud.faults import OutageSpec
from repro.cloud.azure.provider import AzureControlPlane
from repro.core import CloudlessEngine
from repro.drift import (
    DEFER_DARK,
    DriftWatcher,
    ENFORCE,
    LogWatchDetector,
    NOTIFY,
    classify_defect,
)
from repro.drift.detector import DriftFinding
from repro.perf import PERF
from repro.workloads import two_region_estate, web_tier


def deployed(seed=70, **kwargs):
    engine = CloudlessEngine(seed=seed)
    assert engine.apply(web_tier(**kwargs)).ok
    return engine


def aws_only_deployed(seed):
    """A web tier deployed through a gateway that has no azure plane."""
    engine = deployed(seed=seed)
    del engine.gateway.planes["azure"]
    return engine


def a_vm(engine, rtype="aws_virtual_machine"):
    return next(
        e for e in engine.state.resources() if e.address.type == rtype
    )


def consume_history(watcher_or_detector, state):
    """Advance cursors past the apply-time (actor=iac) events."""
    if isinstance(watcher_or_detector, DriftWatcher):
        cycle = watcher_or_detector.cycle(state)
        assert cycle.findings == []
    else:
        assert watcher_or_detector.poll(state).findings == []


class TestCursorSemantics:
    """Satellite 2: cursors are sequences, not list indexes."""

    def test_events_since_is_sequence_based_across_compaction(self):
        engine = deployed(seed=71)
        log = engine.gateway.planes["aws"].log
        cursor = log.next_cursor
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        dropped = log.compact(cursor)
        assert dropped > 0
        events = log.events_since(cursor)
        assert [e.operation for e in events] == ["update"]
        assert events[0].sequence == cursor
        # the checkpointed cursor still means "everything before here"
        assert log.events_since(events[-1].sequence + 1) == []

    def test_poll_cursor_advances_by_sequence_not_index(self):
        engine = deployed(seed=72)
        detector = LogWatchDetector(engine.gateway)
        consume_history(detector, engine.state)
        cursor = detector.cursors["aws"]
        # retention drops the consumed prefix; index-based cursors
        # would now skip or replay, sequence-based cursors do neither
        engine.gateway.planes["aws"].log.compact(cursor)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="cron"
        )
        run = detector.poll(engine.state)
        assert [f.kind for f in run.findings] == ["modified"]
        assert detector.poll(engine.state).findings == []

    def test_restored_log_keeps_minting_unique_sequences(self):
        from repro.cloud.activitylog import ActivityLog

        log = ActivityLog("aws")
        for i in range(4):
            log.append(float(i), "update", "aws_vpc", f"r{i}", "n", "", "x")
        log.compact(4)
        assert len(log) == 0
        restored = ActivityLog("aws")
        restored.restore(log.all_events(), next_sequence=log.next_cursor)
        event = restored.append(9.0, "update", "aws_vpc", "r9", "n", "", "x")
        assert event.sequence == 4  # not 0: no sequence collision


class TestLateAddedPlane:
    """Satellite 1: planes added after construction don't crash polls."""

    def test_late_added_plane_defaults_to_cursor_zero(self):
        engine = aws_only_deployed(seed=73)
        detector = LogWatchDetector(engine.gateway)
        consume_history(detector, engine.state)
        plane = AzureControlPlane(clock=engine.clock, seed=9)
        engine.gateway.planes["azure"] = plane
        plane.external_create(
            "azure_resource_group", {"name": "rogue"}, "eastus", actor="intern"
        )
        run = detector.poll(engine.state)  # used to KeyError on "azure"
        assert [f.kind for f in run.findings] == ["unmanaged"]
        assert detector.cursors["azure"] == plane.log.next_cursor

    def test_log_watch_across_outage_with_late_added_plane(self):
        engine = aws_only_deployed(seed=74)
        detector = LogWatchDetector(engine.gateway)
        consume_history(detector, engine.state)
        now = engine.clock.now
        engine.gateway.inject_outage(
            "aws", OutageSpec(start_s=now, end_s=now + 300.0)
        )
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="cron"
        )
        plane = AzureControlPlane(clock=engine.clock, seed=9)
        engine.gateway.planes["azure"] = plane
        plane.external_create(
            "azure_resource_group", {"name": "edge"}, "eastus", actor="intern"
        )
        run = detector.poll(engine.state)
        # the dark plane is reported unreachable, the new plane's event
        # is still delivered -- no KeyError, no lost events
        assert run.unreachable == ["aws"]
        assert [f.kind for f in run.findings] == ["unmanaged"]
        engine.clock.advance_to(now + 301.0)
        run = detector.poll(engine.state)
        assert [f.kind for f in run.findings] == ["modified"]  # late, not lost


class TestWatcherCoalescing:
    def test_event_burst_collapses_to_one_finding(self):
        engine = deployed(seed=75)
        watcher = DriftWatcher(engine.gateway, auto_reconcile=False)
        consume_history(watcher, engine.state)
        vm = a_vm(engine)
        plane = engine.gateway.planes["aws"]
        plane.external_update(vm.resource_id, {"size": "large"}, actor="a")
        plane.external_update(vm.resource_id, {"size": "xlarge"}, actor="b")
        plane.external_update(vm.resource_id, {"image": "win"}, actor="c")
        cycle = watcher.cycle(engine.state)
        assert len(cycle.findings) == 1
        finding = cycle.findings[0]
        assert finding.kind == "modified"
        assert finding.event_count == 3
        assert finding.changed_attrs == ["image", "size"]

    def test_created_then_deleted_out_of_band_is_no_finding(self):
        engine = deployed(seed=76)
        watcher = DriftWatcher(engine.gateway, auto_reconcile=False)
        consume_history(watcher, engine.state)
        plane = engine.gateway.planes["aws"]
        rid = plane.external_create(
            "aws_s3_bucket", {"name": "flash"}, "us-east-1", actor="intern"
        )
        plane.external_delete(rid, actor="intern")
        cycle = watcher.cycle(engine.state)
        assert cycle.findings == []

    def test_delete_dominates_earlier_updates(self):
        engine = deployed(seed=77)
        watcher = DriftWatcher(engine.gateway, auto_reconcile=False)
        consume_history(watcher, engine.state)
        db = a_vm(engine, rtype="aws_database_instance")
        plane = engine.gateway.planes["aws"]
        plane.external_update(db.resource_id, {"engine": "mysql"}, actor="x")
        plane.external_delete(db.resource_id, actor="x")
        cycle = watcher.cycle(engine.state)
        assert [f.kind for f in cycle.findings] == ["deleted"]
        assert cycle.findings[0].event_count == 2


class TestWatcherReconcile:
    def test_auto_reconcile_enforces_and_notifies(self):
        engine = deployed(seed=78)
        watcher = DriftWatcher(engine.gateway)
        consume_history(watcher, engine.state)
        vm = a_vm(engine)
        golden_size = vm.attrs["size"]
        plane = engine.gateway.planes["aws"]
        plane.external_update(vm.resource_id, {"size": "huge"}, actor="cron")
        plane.external_create(
            "aws_s3_bucket", {"name": "rogue"}, "us-east-1", actor="intern"
        )
        cycle = watcher.cycle(engine.state)
        assert cycle.ok
        decisions = {d.finding.kind: d.decision for d in cycle.decisions}
        assert decisions == {"modified": ENFORCE, "unmanaged": NOTIFY}
        assert cycle.report is not None and cycle.report.ok
        assert cycle.report.notifications  # the rogue bucket
        live = engine.gateway.find_record(vm.resource_id)
        assert live.attrs["size"] == golden_size  # enforced back

    def test_decisions_carry_defect_classes(self):
        deleted = DriftFinding(kind="deleted", resource_id="r", resource_type="t")
        rogue = DriftFinding(kind="unmanaged", resource_id="r", resource_type="t")
        open_cidr = DriftFinding(
            kind="modified",
            resource_id="r",
            resource_type="t",
            changed_attrs=["cidr_block"],
        )
        resized = DriftFinding(
            kind="modified",
            resource_id="r",
            resource_type="t",
            changed_attrs=["size"],
        )
        assert classify_defect(deleted) == "availability/missing-resource"
        assert classify_defect(rogue) == "provisioning/unmanaged-resource"
        assert classify_defect(open_cidr) == "security/misconfiguration"
        assert classify_defect(resized) == "capacity/misconfiguration"

    def test_defer_dark_partition_then_repair_after_recovery(self):
        engine = CloudlessEngine(seed=79)
        assert engine.apply(two_region_estate(14)).ok
        watcher = DriftWatcher(engine.gateway)
        consume_history(watcher, engine.state)
        entry = next(
            e
            for e in engine.state.resources()
            if e.region == "westus2" and e.address.type == "azure_virtual_machine"
        )
        golden_size = entry.attrs["size"]
        engine.gateway.planes["azure"].external_update(
            entry.resource_id, {"size": "enormous"}, actor="cron"
        )
        now = engine.clock.now
        engine.gateway.inject_outage(
            "azure", OutageSpec(start_s=now, end_s=now + 400.0, region="westus2")
        )
        cycle = watcher.cycle(engine.state)
        # the region-less log read still works, so the event is seen --
        # but the repair is deferred to the dark region's horizon, not
        # fired into the outage
        assert [d.decision for d in cycle.decisions] == [DEFER_DARK]
        assert cycle.deferred and cycle.degraded
        assert cycle.report is None  # zero repair API calls
        assert cycle.deferred[0].retry_at == pytest.approx(now + 400.0)
        engine.clock.advance_to(now + 401.0)
        cycle = watcher.cycle(engine.state)
        assert cycle.ok
        assert [d.decision for d in cycle.decisions] == [ENFORCE]
        live = engine.gateway.find_record(entry.resource_id)
        assert live.attrs["size"] == golden_size

    def test_watcher_retries_interrupted_replacement(self):
        """Satellite 4: reconcile remainder resume, watcher-driven."""
        engine = deployed(seed=80)
        watcher = DriftWatcher(engine.gateway)
        consume_history(watcher, engine.state)
        vm = a_vm(engine)
        plane = engine.gateway.planes["aws"]
        plane.external_update(vm.resource_id, {"image": "win-2022"}, actor="x")
        plane.faults.add_rule(
            FaultSpec(
                error_code="InsufficientCapacity",
                message="no capacity",
                match_type="aws_virtual_machine",
                match_operation="create",
                transient=False,
                max_strikes=1,
            )
        )
        cycle = watcher.cycle(engine.state)
        # the delete->create replacement was cut mid-sequence: state is
        # checkpointed (no dead id) and the repair is parked for retry
        assert cycle.report is not None and not cycle.report.ok
        assert cycle.report.remainder
        assert cycle.pending == 1
        assert engine.state.get(vm.address).resource_id == ""
        # an interrupted replacement leaves no external log event; the
        # retry queue, not the log, resumes it on the next cycle
        engine.clock.advance_by(60.0)
        cycle = watcher.cycle(engine.state)
        assert cycle.ok
        assert [f.kind for f in cycle.findings] == ["deleted"]
        entry = engine.state.get(vm.address)
        assert entry.resource_id
        assert engine.gateway.find_record(entry.resource_id) is not None


class TestWatcherStaleness:
    def test_unobserved_partition_goes_stale(self):
        engine = deployed(seed=81)
        watcher = DriftWatcher(engine.gateway, max_lag_s=100.0)
        consume_history(watcher, engine.state)
        now = engine.clock.now
        engine.gateway.inject_outage(
            "azure", OutageSpec(start_s=now, end_s=now + 10_000.0)
        )
        cycles = watcher.run(engine.state, cycles=3, interval_s=120.0)
        assert cycles[-1].run.unreachable == ["azure"]
        assert cycles[-1].lag_s["azure"] > 100.0
        assert cycles[-1].lag_s["aws"] == 0.0
        assert cycles[-1].stale == ["azure"]
        assert cycles[-1].degraded

    def test_perf_counters_exported(self):
        PERF.enable()
        PERF.reset()
        try:
            engine = deployed(seed=82)
            watcher = DriftWatcher(engine.gateway)
            consume_history(watcher, engine.state)
            vm = a_vm(engine)
            plane = engine.gateway.planes["aws"]
            plane.external_update(vm.resource_id, {"size": "big"}, actor="a")
            plane.external_update(vm.resource_id, {"size": "vast"}, actor="a")
            watcher.cycle(engine.state)
            snap = PERF.snapshot()
            assert snap["counters"]["drift.cycles"] == 2
            assert snap["counters"]["drift.external_events"] == 2
            assert snap["counters"]["drift.findings"] == 1
            assert snap["counters"]["drift.coalesced_events"] == 1
            assert snap["counters"]["drift.repairs"] == 1
            assert snap["timers"]["drift.lag_s"]["count"] >= 2
        finally:
            PERF.disable()
            PERF.reset()


class TestCursorPersistence:
    """Satellite 4: cursor checkpoints survive a watcher restart."""

    def test_restarted_watcher_resumes_not_replays(self, tmp_path):
        from repro.persist import load_world, save_world

        def restart(path):
            # a fresh process: the world is all it has
            engine = load_world(path)
            watcher = DriftWatcher(
                engine.gateway, detector=engine.watcher, auto_reconcile=False
            )
            return engine, watcher

        engine = deployed(seed=83)
        path = str(tmp_path / "w.world")
        watcher = DriftWatcher(engine.gateway, detector=engine.watcher)
        consume_history(watcher, engine.state)
        vm = a_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="cron"
        )
        save_world(engine, path)  # checkpoints cursors
        engine, restarted = restart(path)
        cycle = restarted.cycle(engine.state)
        # resumes at the checkpoint: sees exactly the one new event,
        # does not replay the apply-time history
        assert [f.kind for f in cycle.findings] == ["modified"]
        assert cycle.findings[0].event_count == 1
        save_world(engine, path)
        engine, third = restart(path)
        assert third.cycle(engine.state).findings == []

    def test_world_persistence_round_trips_cursors(self, tmp_path):
        from repro.persist import load_world, save_world

        engine = deployed(seed=85)
        engine.watch()  # advances the engine watcher's cursors
        cursors = engine.watcher.cursors
        assert cursors["aws"] > 0
        path = str(tmp_path / "w.world")
        save_world(engine, path)
        reloaded = load_world(path)
        assert reloaded.watcher.cursors == cursors
        # and the reloaded log keeps minting non-colliding sequences
        vm = a_vm(reloaded)
        reloaded.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="cron"
        )
        run = reloaded.watcher.poll(reloaded.state)
        assert [f.kind for f in run.findings] == ["modified"]


class TestWatchCli:
    PROGRAM = """
resource "aws_vpc" "main" {
  name       = "w-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  name       = "w-subnet"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
}

resource "aws_network_interface" "nic" {
  name      = "w-nic"
  subnet_id = aws_subnet.s.id
}

resource "aws_virtual_machine" "web" {
  name    = "w-web"
  nic_ids = [aws_network_interface.nic.id]
}
"""

    @pytest.fixture
    def project(self, tmp_path):
        path = tmp_path / "proj"
        path.mkdir()
        (path / "main.clc").write_text(self.PROGRAM)
        return str(path)

    def run(self, project, *argv):
        from repro.cli import main

        return main(["--chdir", project, *argv])

    def the_vm(self, project):
        import os

        from repro.persist import load_world

        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        return world, engine, a_vm(engine)

    def resize_out_of_band(self, project):
        from repro.persist import save_world

        world, engine, vm = self.the_vm(project)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "xlarge"}, actor="cron"
        )
        save_world(engine, world)

    def test_watch_killed_before_its_commit_is_rerun(
        self, project, capsys, monkeypatch
    ):
        """Cursors, repairs and cloud records are one world commit: a
        watch that dies before the commit has consumed nothing."""
        import repro.cli as cli

        def die(*args):
            raise KeyboardInterrupt

        assert self.run(project, "init") == 0
        assert self.run(project, "apply") == 0
        assert self.run(project, "watch") == 0  # consume history
        self.resize_out_of_band(project)
        with monkeypatch.context() as patcher:
            patcher.setattr(cli, "save_world", die)
            with pytest.raises(KeyboardInterrupt):
                self.run(project, "watch", "--reconcile")
        capsys.readouterr()
        assert self.run(project, "watch", "--reconcile") == 0
        out = capsys.readouterr().out
        assert "[modified] aws_virtual_machine.web (size) by cron" in out
        assert "reset cloud attributes" in out
        _, engine, vm = self.the_vm(project)
        assert engine.gateway.find_record(vm.resource_id).attrs == vm.attrs
        assert vm.attrs["size"] != "xlarge"

    def test_stale_cursor_journal_is_never_read(self, project, capsys):
        """A ``<world>.cursors`` journal from an older run, far ahead of
        a fresh world's log, hides nothing."""
        from repro.state import JournalStateStore, StateDocument

        assert self.run(project, "init") == 0
        assert self.run(project, "apply") == 0
        world, engine, _ = self.the_vm(project)
        ahead = StateDocument()
        ahead.outputs["cursors"] = {
            name: plane.log.next_cursor + 1000
            for name, plane in engine.gateway.planes.items()
        }
        ahead.bump()
        JournalStateStore(world + ".cursors").write(ahead)
        self.resize_out_of_band(project)
        capsys.readouterr()
        assert self.run(project, "watch") == 0
        assert "[modified] aws_virtual_machine.web (size)" in capsys.readouterr().out

    def test_multi_cycle_watch_reconciles_and_exits_zero(
        self, project, capsys
    ):
        assert self.run(project, "init") == 0
        assert self.run(project, "apply") == 0
        assert self.run(project, "watch") == 0  # consume history
        self.resize_out_of_band(project)
        capsys.readouterr()
        code = self.run(
            project, "watch", "--reconcile", "--cycles", "2", "--interval", "30"
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cycle 1/2" in out and "cycle 2/2" in out
        assert "modified" in out
        assert "reset cloud attributes" in out

    def test_watch_without_reconcile_prints_decision(self, project, capsys):
        from repro.persist import load_world, save_world

        assert self.run(project, "init") == 0
        assert self.run(project, "apply") == 0
        assert self.run(project, "watch") == 0
        world, engine, vm = self.the_vm(project)
        engine.gateway.planes["aws"].external_delete(vm.resource_id, actor="x")
        save_world(engine, world)
        capsys.readouterr()
        assert self.run(project, "watch") == 0
        out = capsys.readouterr().out
        assert "[deleted]" in out
        assert "-> enforce" in out  # decided, not executed
        # nothing was repaired: the next reconcile pass still sees it
        reloaded = load_world(world)
        assert reloaded.gateway.find_record(vm.resource_id) is None
