"""Event-driven continuous reconciliation.

Covers :class:`DriftWatcher` (durable cursors, bounded staleness,
enforce/adopt/notify/defer-dark auto-reconcile), the one fold from log
events to findings behind every watch entry point, and two cursor
fixes: a plane added after construction starts at cursor 0 instead of
raising ``KeyError``, and cursors are sequence numbers, so they survive
log compaction.
"""

import asyncio
import random
from typing import Dict, List, NamedTuple, Set, Tuple

import pytest

from repro.addressing import ResourceAddress
from repro.cloud import FaultSpec, ResilientGateway
from repro.cloud.faults import OutageSpec
from repro.cloud.azure.provider import AzureControlPlane
from repro.core import CloudlessEngine
from repro.drift import (
    DEFER_DARK,
    DriftWatcher,
    ENFORCE,
    FullScanDetector,
    LogWatchDetector,
    NOTIFY,
    classify_defect,
)
from repro.drift.detector import DriftFinding
from repro.perf import PERF
from repro.service import ControlPlaneService, ServicePolicy
from repro.workloads import scale_estate, two_region_estate, web_tier


def deployed(seed=70, **kwargs):
    engine = CloudlessEngine(seed=seed)
    assert engine.apply(web_tier(**kwargs)).ok
    return engine


def aws_only_deployed(seed):
    """A web tier deployed through a gateway that has no azure plane."""
    engine = deployed(seed=seed)
    del engine.gateway.planes["azure"]
    return engine


def client(engine):
    """A client of ``engine``'s clouds of its own: default retry, fresh
    stats, no health ledger (``engine.resilient`` keeps the engine's)."""
    return ResilientGateway(engine.gateway)


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
        detector = LogWatchDetector(client(engine))
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
        detector = LogWatchDetector(client(engine))
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
        detector = LogWatchDetector(client(engine))
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


# -- one fold, every entry point ---------------------------------------------
#
# Each log shape mutates a deployed estate out of band and returns the
# findings every entry point must report, as (kind, address,
# changed_attrs, event_count).


def two_resizes(engine):
    vm = a_vm(engine)
    plane = engine.gateway.planes["aws"]
    plane.external_update(vm.resource_id, {"size": "large"}, actor="a")
    plane.external_update(vm.resource_id, {"size": "xlarge"}, actor="b")
    return [("modified", vm.address, ["size"], 2)]


def resize_burst(engine):
    vm = a_vm(engine)
    plane = engine.gateway.planes["aws"]
    plane.external_update(vm.resource_id, {"size": "large"}, actor="a")
    plane.external_update(vm.resource_id, {"size": "xlarge"}, actor="b")
    plane.external_update(vm.resource_id, {"image": "win"}, actor="c")
    return [("modified", vm.address, ["image", "size"], 3)]


def resize_then_delete(engine):
    vm = a_vm(engine)
    plane = engine.gateway.planes["aws"]
    plane.external_update(vm.resource_id, {"size": "large"}, actor="x")
    plane.external_delete(vm.resource_id, actor="x")
    return [("deleted", vm.address, [], 2)]


def update_then_delete_db(engine):
    db = a_vm(engine, rtype="aws_database_instance")
    plane = engine.gateway.planes["aws"]
    plane.external_update(db.resource_id, {"engine": "mysql"}, actor="x")
    plane.external_delete(db.resource_id, actor="x")
    return [("deleted", db.address, [], 2)]


def create_then_delete(engine):
    plane = engine.gateway.planes["aws"]
    rid = plane.external_create(
        "aws_s3_bucket", {"name": "flash"}, "us-east-1", actor="intern"
    )
    plane.external_delete(rid, actor="intern")
    return []


SHAPES = [
    two_resizes,
    resize_burst,
    resize_then_delete,
    update_then_delete_db,
    create_then_delete,
]


def summary(findings):
    return [
        (f.kind, f.address, f.changed_attrs, f.event_count) for f in findings
    ]


def via_watch(shape, tmp_path):
    engine = deployed(seed=75)
    assert engine.watch().findings == []  # the apply's own events
    expected = shape(engine)
    return expected, summary(engine.watch().findings)


def via_watch_continuously(shape, tmp_path):
    engine = deployed(seed=75)
    (cycle,) = engine.watch_continuously(auto_reconcile=False)
    assert cycle.findings == []
    expected = shape(engine)
    (cycle,) = engine.watch_continuously(auto_reconcile=False)
    return expected, summary(cycle.findings)


def via_service_drift(shape, tmp_path):
    """The service's ``drift`` op reports only how many findings."""

    async def main():
        svc = ControlPlaneService(str(tmp_path), policy=ServicePolicy(apply_pool=1))
        await svc.start()
        try:
            apply = await svc.request("a", "apply", payload={"sources": web_tier()})
            assert apply.ok
            assert (await svc.request("a", "drift")).body["findings"] == 0
            expected = shape(svc.sessions["a"].engine)
            drift = await svc.request("a", "drift")
        finally:
            await svc.stop()
        return len(expected), drift.body["findings"]

    return asyncio.run(main())


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: s.__name__)
@pytest.mark.parametrize(
    "entry",
    [via_watch, via_watch_continuously, via_service_drift],
    ids=["watch", "watch_continuously", "service-drift"],
)
def test_every_entry_point_folds_a_log_alike(entry, shape, tmp_path):
    """One finding per drifted resource, from every way in: a burst is
    the union of its attributes, a delete dominates earlier updates,
    and a resource created and deleted out of band is no finding."""
    expected, observed = entry(shape, tmp_path)
    assert observed == expected


def test_watched_resize_then_delete_reconciles_ok():
    engine = deployed(seed=75)
    engine.watch()
    vm = a_vm(engine)
    golden_size = vm.attrs["size"]
    resize_then_delete(engine)
    report = engine.reconcile(engine.watch().findings)
    assert report.ok
    entry = engine.state.get(vm.address)
    assert engine.gateway.find_record(entry.resource_id).attrs["size"] == golden_size


class TestWatcherReconcile:
    def test_auto_reconcile_enforces_and_notifies(self):
        engine = deployed(seed=78)
        watcher = DriftWatcher(client(engine))
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
        watcher = DriftWatcher(client(engine))
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
        watcher = DriftWatcher(client(engine))
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
        watcher = DriftWatcher(client(engine), max_lag_s=100.0)
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
            watcher = DriftWatcher(client(engine))
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


# -- tailing vs sweeping at scale ---------------------------------------------


class Arm(NamedTuple):
    """One detection arm's replay of the mutation schedule."""

    api_calls: int
    mutations: int
    detected: int
    mean_latency_s: float
    seen: Set[Tuple[str, str]]  # (kind, resource id) of every finding
    final: Set[Tuple[str, str]]  # ... of a full scan at quiescence


class TestTailingBeatsSweeping:
    """Section 3.5's claim at 1,000 resources: tailing the activity log
    costs O(planes) per cycle, a driftctl-style sweep O(estate).

    Three arms replay one seeded schedule of external mutations (60 vm
    resizes, 20 dns record deletes, 20 rogue buckets) over an hour,
    each against its own same-seed estate: the sweep every 600 s, the
    same full scan every 60 s (what matching the watcher's freshness by
    sweeping costs), and the watcher every 60 s.
    """

    UPDATES = 60  # deletes and creates are a third of this each
    WINDOW_S = 3600.0
    TAIL_S = 60.0
    SWEEP_S = 600.0
    #: the finding each mutation must surface as
    KIND = {"update": "modified", "delete": "deleted", "create": "unmanaged"}

    @staticmethod
    def estate():
        engine = CloudlessEngine(seed=0)
        assert engine.apply(scale_estate(1000)).ok
        return engine

    def schedule(self, engine):
        """``(t, op, address, attrs)`` sorted by ``t`` (seconds after the
        apply). Addresses are the same in every same-seed estate, and
        each is mutated at most once: one mutation, one finding."""

        def of_type(rtype):
            return sorted(
                (e.address for e in engine.state.resources()
                 if e.address.type == rtype),
                key=str,
            )

        rng = random.Random(0)
        updates = rng.sample(of_type("aws_virtual_machine"), self.UPDATES)
        deletes = rng.sample(of_type("aws_dns_record"), self.UPDATES // 3)
        # the last mutation lands a sweep before the window closes, so
        # the sweep's last pass sees every one (fair latency means)
        horizon = self.WINDOW_S - self.SWEEP_S
        mutations = [
            (rng.uniform(1.0, horizon), "update", address, {"size": f"drift-{i}"})
            for i, address in enumerate(updates)
        ]
        mutations += [
            (rng.uniform(1.0, horizon), "delete", address, None)
            for address in deletes
        ]
        mutations += [
            (rng.uniform(1.0, horizon), "create", None, {"name": f"rogue-{i}"})
            for i in range(self.UPDATES // 3)
        ]
        return sorted(mutations, key=lambda mutation: mutation[0])

    @staticmethod
    def mutate(engine, op, address, attrs):
        """Make one mutation out of band; the resource id it touched."""
        plane = engine.gateway.planes["aws"]
        if op == "create":
            return plane.external_create(
                "aws_s3_bucket", dict(attrs), "us-east-1", actor="console"
            )
        resource_id = engine.state.get(address).resource_id
        if op == "delete":
            plane.external_delete(resource_id, actor="console")
        else:
            plane.external_update(resource_id, dict(attrs), actor="console")
        return resource_id

    def replay(self, engine, schedule, interval_s, detect):
        """Mutate on the schedule and ``detect()`` every ``interval_s``."""
        t0 = engine.clock.now
        ticks = int(self.WINDOW_S // interval_s)
        timeline = sorted(
            [(m[0], 0, m) for m in schedule]
            + [(interval_s * (i + 1), 1, None) for i in range(ticks)],
            key=lambda item: item[:2],
        )
        expect: Dict[Tuple[str, str], int] = {}  # -> index in fired
        fired: List[float] = []
        detected: Dict[int, float] = {}
        seen: Set[Tuple[str, str]] = set()
        api_calls = 0
        for when, _, mutation in timeline:
            if t0 + when > engine.clock.now:  # calls tick the clock too
                engine.clock.advance_to(t0 + when)
            if mutation is not None:
                resource_id = self.mutate(engine, *mutation[1:])
                expect[(self.KIND[mutation[1]], resource_id)] = len(fired)
                fired.append(when)
                continue
            run = detect()
            api_calls += run.api_calls
            for finding in run.findings:
                key = (finding.kind, finding.resource_id)
                seen.add(key)
                if key in expect:
                    detected.setdefault(expect[key], when)
        final = FullScanDetector(client(engine)).scan(engine.state)
        latencies = [detected[i] - fired[i] for i in sorted(detected)]
        return Arm(
            api_calls,
            len(fired),
            len(detected),
            sum(latencies) / len(latencies),
            seen,
            {(f.kind, f.resource_id) for f in final.findings},
        )

    @pytest.fixture(scope="class")
    def arms(self):
        def scanned(engine, interval_s):
            detector = FullScanDetector(client(engine))
            return self.replay(
                engine, schedule, interval_s, lambda: detector.scan(engine.state)
            )

        sweep = self.estate()
        schedule = self.schedule(sweep)
        tail = self.estate()
        watcher = DriftWatcher(client(tail), auto_reconcile=False)
        consume_history(watcher, tail.state)
        return {
            "sweep": scanned(sweep, self.SWEEP_S),
            "scan": scanned(self.estate(), self.TAIL_S),
            "tail": self.replay(
                tail, schedule, self.TAIL_S,
                lambda: watcher.cycle(tail.state).run,
            ),
        }

    def test_every_arm_detects_every_mutation(self, arms):
        for name, arm in arms.items():
            assert (arm.mutations, arm.detected) == (100, 100), name

    def test_tailing_costs_a_tenth_of_scanning_as_often(self, arms):
        """Measured 120 calls against 2,472: 0.049."""
        ratio = arms["tail"].api_calls / arms["scan"].api_calls
        assert ratio <= 0.10, ratio

    def test_tailing_is_fresher_than_the_sweep(self, arms):
        """Measured 30.7 s against 301.9 s."""
        tail, sweep = arms["tail"], arms["sweep"]
        assert tail.mean_latency_s < sweep.mean_latency_s

    def test_tailing_finds_what_a_final_scan_finds(self, arms):
        assert arms["tail"].seen == arms["tail"].final


class TestCursorPersistence:
    """Satellite 4: cursor checkpoints survive a watcher restart."""

    def test_restarted_watcher_resumes_not_replays(self, tmp_path):
        from repro.persist import load_world, save_world

        def restart(path):
            # a fresh process: the world is all it has
            engine = load_world(path)
            watcher = DriftWatcher(
                client(engine),
                detector=engine.watcher,
                auto_reconcile=False,
            )
            return engine, watcher

        engine = deployed(seed=83)
        path = str(tmp_path / "w.world")
        watcher = DriftWatcher(client(engine), detector=engine.watcher)
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
