"""The world file as an append-only delta log.

Four contracts of :mod:`repro.persist`:

* **O(changed)** -- a save appends what the verb changed, whatever the
  estate weighs, and stores each distinct source file once;
* **differential** -- any number of delta saves loads as the same world
  one keyframe save of the same engine does;
* **crash boundary** -- a write cut anywhere loads as exactly the
  previous or the next commit (the sweep is in the style of
  ``tests/test_store_torn.py``);
* **untrusted bytes** -- damage loads as a prior commit or fails with
  :class:`~repro.persist.WorldFormatError`, nothing else.

And two passengers. The *plan record* a ``state`` section may carry
(which artifact the last plan was about, which entries it does not
vouch for): it lands or tears with the state it is about, a commit
that moves the state without it voids it, and it stays a few hundred
bytes however old the directory is. And *deferred planes*: a load
checks every cloud plane section and replays a plane when it is first
read, so a verb that never reads one never pays for it -- and every
world a test here writes loads, deferred, as it loads with every plane
replayed at once.
"""

import hashlib
import json
import os
import random
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import persist
from repro.cli import main as cli_main
from repro.compilecache import CompileCache
from repro.core import CloudlessEngine
from repro.perf import PERF
from repro.persist import (
    HISTORY_RETENTION,
    MAGIC,
    WorldFormatError,
    engine_to_dict,
    load_world,
    save_world,
)
from repro.service.tenants import TenantSession
from repro.workloads import scale_estate, two_region_estate, web_tier

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def estate(n=120):
    return {"aws.clc": scale_estate(n), "azure.clc": two_region_estate(40)}


def edit_services(text, count, revision):
    """Tag ``count`` two-instance VM blocks: ``2 * count`` in-place updates."""
    services = re.findall(r'tags +=\s*\{ service = "([^"]+)"', text)[:count]
    assert len(services) == count
    for service in services:
        text, n = re.subn(
            r'tags( +)= \{ service = "%s"(?:, rev = "[^"]*")? \}' % service,
            lambda m: f'tags{m.group(1)}= {{ service = "{service}", rev = "{revision}" }}',
            text,
        )
        assert n == 1
    return text


def drift_one_vm(engine, size):
    vm = next(
        e for e in engine.state.resources() if e.address.type == "aws_virtual_machine"
    )
    engine.gateway.planes["aws"].external_update(
        vm.resource_id, {"size": size}, actor="cron"
    )


def same_world(a, b):
    assert engine_to_dict(a) == engine_to_dict(b)
    assert a.state.content_hash() == b.state.content_hash()


def commit_frame(frames, seq):
    """The commit frame that makes hand-built ``frames`` count."""
    headers = hashlib.sha256(b"".join(f[: f.index(b"\n")] for f in frames))
    return persist._frame("C", "commit", {"seq": seq, "headers": headers.hexdigest()})


def commits_of(path):
    """Every commit of a world file, its sections decoded."""
    with open(path, "rb") as handle:
        commits, _ends, _tail = persist._read_commits(handle.read(), path)
    return [{n: json.loads(bytes(p)) for n, p in c.items()} for c in commits]


def plan_records(path):
    """The plan record of every commit that writes ``state`` (``None``
    where it writes none)."""
    return [
        c["state"].get("plan_basis") for c in commits_of(path) if "state" in c
    ]


def strip_plan_record(path):
    """Rewrite a world commit for commit without the plan record: what
    the same verbs would have written had none of them kept one."""
    frames = []
    for seq, sections in enumerate(commits_of(path)):
        sections.get("state", {}).pop("plan_basis", None)
        frames.extend(
            persist._commit_frames("D" if seq else "K", sections.items(), seq)
        )
    with open(path, "wb") as handle:
        handle.writelines(frames)


def frame_offsets(data):
    """Offset of every frame header in a world file."""
    return [0] + [m.start() + 1 for m in re.finditer(b"\n" + MAGIC + b" ", data)]


def eager_load(path):
    """``load_world`` with every plane replayed before it returns, as
    every load did before planes were deferred."""
    engine = load_world(path)
    for plane in engine.gateway.planes.values():
        plane.records
    return engine


def loaded_as(load, path):
    """What ``load`` makes of ``path``: the whole world, or the error type."""
    try:
        return engine_to_dict(load(path))
    except WorldFormatError as exc:
        return type(exc)


@pytest.fixture(autouse=True)
def every_world_loads_as_an_eager_load_would(monkeypatch):
    """Every world file a test here writes through ``save_world`` loads,
    deferred, as the same world an eager load makes of it (or both
    refuse it: a test may damage what it wrote)."""
    written = set()
    keyframe, append = persist._write_keyframe, persist._append

    def spied_keyframe(engine, path):
        written.add(os.path.realpath(path))
        return keyframe(engine, path)

    def spied_append(path, base, frames):
        written.add(os.path.realpath(path))
        return append(path, base, frames)

    monkeypatch.setattr(persist, "_write_keyframe", spied_keyframe)
    monkeypatch.setattr(persist, "_append", spied_append)
    yield
    for path in sorted(written):
        if os.path.exists(path):
            assert loaded_as(load_world, path) == loaded_as(eager_load, path), path


# -- O(changed) ---------------------------------------------------------------------


class TestAppendsWhatChanged:
    def test_sixteen_updates_append_a_few_kilobytes(self, tmp_path):
        path = str(tmp_path / "w")
        sources = estate()
        engine = CloudlessEngine(seed=3)
        assert engine.apply(sources).ok
        save_world(engine, path)
        before = os.path.getsize(path)

        engine = load_world(path)
        edited = dict(sources, **{"aws.clc": edit_services(sources["aws.clc"], 8, "r1")})
        result = engine.apply(edited)
        assert result.ok and result.plan.summary().get("update") == 16
        save_world(engine, path)
        appended = os.path.getsize(path) - before
        # 16 records, 16 events, 16 state entries, one snapshot version
        # and the one source file that changed -- not the estate (the
        # keyframe before it), not the file that did not change
        assert 0 < appended <= 64 * 1024 + len(edited["aws.clc"])
        assert appended < before / 4
        with open(path, "rb") as handle:
            handle.seek(before)
            delta = handle.read()
        packed_azure = engine._world_base.sources[
            persist.source_key(sources["azure.clc"])
        ]
        assert packed_azure.encode() not in delta

    def test_snapshot_versions_share_unchanged_source_files(self, tmp_path):
        path = str(tmp_path / "w")
        sources = estate(40)
        engine = CloudlessEngine(seed=3)
        for revision in range(4):
            sources["aws.clc"] = edit_services(sources["aws.clc"], 2, f"r{revision}")
            assert engine.apply(sources).ok
        save_world(engine, path)
        world = engine_to_dict(load_world(path))
        # four versions: four distinct aws.clc, one azure.clc
        assert len(world["history"]) == 4
        assert len(world["sources"]) == 5
        restored = load_world(path)
        for version in restored.history.versions():
            assert (
                restored.history.get(version).config_sources
                == engine.history.get(version).config_sources
            )

    def test_looking_at_the_world_does_not_count_as_storing_it(self, tmp_path):
        """``engine_to_dict`` packs source files it finds new; the next
        delta must still store them."""
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, path)
        assert engine.apply(web_tier(web_vms=3, app_vms=1)).ok
        engine_to_dict(engine)
        save_world(engine, path)
        assert engine._world_base.seq == 1
        same_world(load_world(path), engine)

    def test_nothing_changed_appends_nothing(self, tmp_path):
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, path)
        size = os.path.getsize(path)
        save_world(load_world(path), path)
        assert os.path.getsize(path) == size

    def test_history_is_not_materialised_by_a_load(self, tmp_path):
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        for vms in (2, 3, 4):
            assert engine.apply(web_tier(web_vms=vms, app_vms=1)).ok
            save_world(engine, path)
        restored = load_world(path)
        assert [r.doc for r in restored.history._records] == [None] * 3
        assert len(restored.history.get(1).state) == len(engine.history.get(1).state)

    def test_counters_are_declared_and_move(self, tmp_path):
        from repro.perf import KNOWN_PROBES

        names = ("persist.bytes_appended", "persist.keyframe_writes", "persist.compactions")
        assert set(names) <= set(KNOWN_PROBES)
        path = str(tmp_path / "w")
        PERF.reset()
        PERF.enable()
        try:
            engine = CloudlessEngine(seed=3)
            save_world(engine, path)  # keyframe
            assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
            save_world(engine, path)  # outweighs the empty keyframe: compaction
            drift_one_vm(engine, "large")
            save_world(engine, path)  # delta
            counters = PERF.snapshot()["counters"]
        finally:
            PERF.disable()
            PERF.reset()
        assert counters["persist.keyframe_writes"] == 2
        assert counters["persist.compactions"] == 1
        assert 0 < counters["persist.bytes_appended"] < 4096


# -- differential: N deltas == one keyframe -----------------------------------------


def day_in_the_life(step):
    """apply / edit-apply / external mutation / watch --reconcile /
    destroy, handing the engine to ``step`` after each."""
    sources = estate(40)
    engine = step(CloudlessEngine(seed=11))
    assert engine.apply(sources).ok
    engine = step(engine)
    sources["aws.clc"] = edit_services(sources["aws.clc"], 3, "r1")
    assert engine.apply(sources).ok
    engine = step(engine)
    drift_one_vm(engine, "xlarge")
    engine = step(engine)
    cycles = engine.watch_continuously(cycles=1, auto_reconcile=True)
    assert cycles[0].findings
    engine = step(engine)
    assert engine.destroy().ok
    return step(engine)


class TestDeltasEqualKeyframe:
    def test_one_process_saving_after_every_step(self, tmp_path):
        path, keyframe = str(tmp_path / "deltas"), str(tmp_path / "keyframe")
        appended = []

        def step(engine):
            save_world(engine, path)
            appended.append(engine._world_base.seq)
            # at every step, not only the last: the commits so far load
            # as the live engine, and as one keyframe of it loads
            loaded = load_world(path)
            same_world(loaded, engine)
            save_world(loaded, keyframe)
            assert loaded._world_base.seq == 0
            same_world(load_world(keyframe), engine)
            return engine

        day_in_the_life(step)
        assert max(appended) >= 3  # it really was a chain of deltas

    def test_a_process_per_step_equals_one_uninterrupted_process(self, tmp_path):
        path = str(tmp_path / "deltas")

        def reload(engine):
            save_world(engine, path)
            return load_world(path)

        by_verbs = day_in_the_life(reload)
        in_one_go = day_in_the_life(lambda engine: engine)
        keyframe = str(tmp_path / "keyframe")
        save_world(in_one_go, keyframe)
        same_world(by_verbs, load_world(keyframe))

    def test_service_tenant(self, tmp_path):
        root = str(tmp_path)
        session = TenantSession.open(root, "acme", "svc-0", now=0.0, seed=5)
        sources = estate(40)
        assert session.engine.apply(sources).ok
        session.persist()
        sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r1")
        assert session.engine.apply(sources).ok
        session.persist()
        drift_one_vm(session.engine, "xlarge")
        assert session.engine.watch().findings
        session.persist()
        assert session.engine._world_base.seq == 2  # a keyframe, two deltas
        keyframe = str(tmp_path / "keyframe")
        save_world(load_world(session.home.world_path), keyframe)
        same_world(load_world(keyframe), session.engine)
        # one durable writer: nothing mirrors the state next to the world
        assert sorted(os.listdir(session.home.path)) == [
            "state.json.owner",
            "wal",
            "world.json",
        ]
        session.kill()  # the same single writer, marker left behind
        assert sorted(os.listdir(session.home.path)) == [
            "state.json.owner",
            "wal",
            "world.json",
        ]


# -- compaction and retention ---------------------------------------------------------


class TestCompaction:
    def test_deltas_outweighing_the_keyframe_fold_into_a_new_one(self, tmp_path):
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, path)
        sizes, compacted_at = [os.path.getsize(path)], None
        for round_ in range(200):
            drift_one_vm(engine, f"size-{round_}")
            engine.watch()  # the cursor passes the event: it may be trimmed
            save_world(engine, path)
            sizes.append(os.path.getsize(path))
            if engine._world_base.seq == 0:
                compacted_at = round_
                break
        assert compacted_at, "deltas never outgrew the keyframe"
        # it grew by appends until the rule fired, then started over
        assert sizes[-2] > 1.5 * sizes[0] and sizes[-1] < sizes[-2]
        restored = load_world(path)
        same_world(restored, engine)
        log = restored.gateway.planes["aws"].log
        assert len(log) == 0 and log.next_cursor == engine.watcher.cursors["aws"]

    def test_retention_bounds_history_and_source_blobs(self, tmp_path):
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        sources = web_tier(web_vms=1, app_vms=0, with_lb=False, with_db=False)
        for revision in range(HISTORY_RETENTION + 5):
            assert engine.apply(sources + f"\n# revision {revision}\n").ok
        save_world(engine, path)
        assert len(load_world(path).history) == HISTORY_RETENTION + 5
        persist._compact(engine, path)
        restored = load_world(path)
        first = 6
        assert restored.history.versions() == list(
            range(first, HISTORY_RETENTION + first)
        )
        assert len(engine_to_dict(restored)["sources"]) == HISTORY_RETENTION
        assert restored.rollback(first).ok


# -- the baseline ----------------------------------------------------------------------


class TestBaseline:
    def test_another_writers_commit_is_not_extended(self, tmp_path):
        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, path)
        ours, theirs = load_world(path), load_world(path)
        drift_one_vm(theirs, "theirs")
        save_world(theirs, path)
        drift_one_vm(ours, "ours")
        save_world(ours, path)  # the tail is no longer ours: keyframe
        assert ours._world_base.seq == 0
        same_world(load_world(path), ours)

    def test_saving_elsewhere_writes_a_whole_world(self, tmp_path):
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, str(tmp_path / "a"))
        drift_one_vm(engine, "large")
        save_world(engine, str(tmp_path / "b"))
        same_world(load_world(str(tmp_path / "b")), engine)

    def test_replaced_engine_parts_fall_back_to_a_keyframe(self, tmp_path):
        from repro.state.snapshots import SnapshotHistory

        path = str(tmp_path / "w")
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        save_world(engine, path)
        engine = load_world(path)
        engine.history = SnapshotHistory()
        engine.gateway.planes["aws"]._tokens.clear()
        save_world(engine, path)
        assert engine._world_base.seq == 0
        same_world(load_world(path), engine)


# -- the plan record ---------------------------------------------------------------------


class Project:
    """A project directory driven through ``cli.main``, one engine per
    verb: the only writer that records a proof (it has a compile cache)."""

    def __init__(self, directory, sources):
        self.directory = str(directory)
        self.world = os.path.join(self.directory, "cloudless.world")
        os.makedirs(self.directory, exist_ok=True)
        self.write(sources)
        assert self("init", "--seed", "3") == {}

    def write(self, sources):
        for name, text in sources.items():
            with open(os.path.join(self.directory, name), "w") as handle:
                handle.write(text)

    def __call__(self, *argv):
        """Run the verb (it must exit 0); the ``plan.*`` counters it
        moved (all of them: ``self.moved``)."""
        PERF.reset()
        PERF.enable()
        self.moved = {}
        try:
            assert cli_main(["--chdir", self.directory, *argv]) == 0, argv
        finally:
            self.moved = dict(PERF.counters)
            PERF.disable()
            PERF.reset()
        return {k: v for k, v in self.moved.items() if k.startswith("plan.")}

    def drift(self, *sizes):
        engine = load_world(self.world)
        vms = [
            e for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        ]
        for vm, size in zip(vms, sizes):
            engine.gateway.planes["aws"].external_update(
                vm.resource_id, {"size": size}, actor="cron"
            )
        save_world(engine, self.world)


WHOLE_FIRST = {"plan.full": 1, "plan.full.first": 1}


class TestPlanRecord:
    @pytest.fixture
    def day_two(self, tmp_path, capsys):
        """A project two edits old, and the world's size after each."""
        sources = estate(40)
        project = Project(tmp_path / "project", sources)
        assert project("apply") == {"plan.basis.none": 1, **WHOLE_FIRST}
        # (the cold apply outweighed the empty world: one keyframe)
        assert plan_records(project.world) == [None]
        sizes = []
        for revision in ("r1", "r2"):
            sources["aws.clc"] = edit_services(sources["aws.clc"], 2, revision)
            project.write(sources)
            project("apply")
            sizes.append(os.path.getsize(project.world))
        return project, sizes

    def test_an_apply_records_what_its_plan_did_not_prove(self, day_two):
        project, _sizes = day_two
        first, second = plan_records(project.world)[1:]
        # the first edit's apply planned whole; the second woke its record
        for record in (first, second):
            assert sorted(record) == ["data", "key", "source_sha", "unproven"]
            assert len(record["unproven"]) == 4  # two blocks of two VMs
            assert sorted(record["source_sha"]) == ["aws.clc", "azure.clc"]
        assert first["key"] == second["key"]
        assert first["source_sha"]["aws.clc"] != second["source_sha"]["aws.clc"]
        assert first["source_sha"]["azure.clc"] == second["source_sha"]["azure.clc"]
        graph = len(load_world(project.world).state)
        moved = project("plan")
        assert moved == {
            "plan.basis.woken": 1, "plan.scoped": 1, "plan.scope_nodes": moved["plan.scope_nodes"],
        }
        assert 4 <= moved["plan.scope_nodes"] < graph / 4
        # a plan is read-only: it proved the four and wrote nothing
        assert plan_records(project.world)[1:] == [first, second]

    def test_the_plain_chain_plans_an_edits_worth(self, tmp_path, capsys):
        """edit -> apply -> plan -> edit -> apply: after the first, each
        diffs under a twentieth of the graph, and says what it did."""
        sources = estate(200)
        project = Project(tmp_path / "project", sources)
        project("apply")
        graph = len(load_world(project.world).state)
        sources["aws.clc"] = edit_services(sources["aws.clc"], 1, "r1")
        project.write(sources)
        assert project("apply") == {"plan.basis.none": 1, **WHOLE_FIRST}
        capsys.readouterr()
        chain = [project("plan")]
        assert "0 to add, 0 to change, 0 to destroy" in capsys.readouterr().out
        sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r2")
        project.write(sources)
        chain.append(project("apply"))
        assert "0 to add, 4 to change, 0 to destroy" in capsys.readouterr().out
        chain.append(project("plan"))
        for moved in chain:
            assert moved["plan.basis.woken"] == moved["plan.scoped"] == 1
            assert 0 < moved["plan.scope_nodes"] < graph / 20, (moved, graph)
            assert "plan.full" not in moved

    def test_a_verb_that_does_not_plan_carries_the_record_minus_what_it_moved(
        self, day_two
    ):
        project, _sizes = day_two
        record = plan_records(project.world)[-1]
        project.drift("by-hand")  # the harness's load / save: no state section
        assert plan_records(project.world)[-1] == record
        engine = load_world(project.world)
        moved_entry = sorted(
            str(e.address) for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        project("state", "mv", moved_entry[-1], "aws_virtual_machine.renamed")
        carried = plan_records(project.world)[-1]
        assert {k: carried[k] for k in ("key", "source_sha", "data")} == {
            k: record[k] for k in ("key", "source_sha", "data")
        }
        # the entry it added, and the dependent whose entry it re-pointed;
        # the address it removed is no entry any more
        (dependent,) = [
            str(e.address) for e in load_world(project.world).state.resources()
            if "aws_virtual_machine.renamed" in e.dependencies
        ]
        assert set(carried["unproven"]) == (
            set(record["unproven"]) - {moved_entry[-1]}
            | {"aws_virtual_machine.renamed", dependent}
        )
        # the next plan diffs those and what the move orphaned
        moved = project("plan")
        assert moved["plan.basis.woken"] == 1 and moved["plan.scoped"] == 1

    def test_waking_vouches_for_the_entries_as_they_were_loaded(self, day_two):
        """What a process did to the state before its first compile (a
        ``resume`` adopts orphans there) is not what the record is about."""
        project, _sizes = day_two
        engine = load_world(project.world)
        engine.compile_cache = CompileCache(os.path.join(project.directory, ".clc-cache"))
        vm = engine.state.instances_of("aws_virtual_machine", "scale_3_vm")[0]
        assert str(vm.address) not in engine._plan_record[0]["unproven"]
        engine.state.set(vm.replace(attrs={**vm.attrs, "tags": {"service": "by-hand"}}))
        sources = {
            name: open(os.path.join(project.directory, name)).read()
            for name in ("aws.clc", "azure.clc")
        }
        plan = engine.plan(sources)
        assert engine._plan_basis.artifact is not None
        assert [c.id for c in plan.actionable()] == [str(vm.address)]
        assert engine.last_plan_scope[0] < len(engine.state) / 4

    def test_a_torn_commit_takes_its_record_with_it(self, day_two, capsys):
        project, (previous, _size) = day_two
        with open(project.world, "rb") as handle:
            following = handle.read()
        first, second = plan_records(project.world)[1:]
        assert load_world(project.world)._plan_record[0] == second
        state_frame = next(
            o for o in frame_offsets(following)
            if o >= previous and following[o:].startswith(MAGIC + b" D state ")
        )
        for cut in (state_frame + 60, state_frame + 900, len(following) - 1):
            with open(project.world, "wb") as handle:
                handle.write(following[:cut])
            engine = load_world(project.world)
            record, state = engine._plan_record
            # the previous commit, with that commit's record: the proof
            # is about the state it was written beside
            assert record == first
            assert state.content_hash() == engine.state.content_hash()
        # the artifact is the second edit's: the record does not name it
        assert project("plan") == {"plan.basis.other_sources": 1, **WHOLE_FIRST}
        assert "to change" in capsys.readouterr().out

    def test_a_commit_that_moves_the_state_without_the_field_voids_it(self, day_two):
        """The parent's writer: a ``state`` section as it wrote them."""
        project, _sizes = day_two
        engine = load_world(project.world)
        base = engine._world_base
        (vm,) = engine.state.instances_of("aws_virtual_machine", "scale_0_vm")[:1]
        by_hand = vm.replace(attrs={**vm.attrs, "tags": {"service": "by-hand"}})
        theirs = {
            "serial": engine.state.serial + 1,
            "lineage": engine.state.lineage,
            "set": [by_hand.to_dict()],
            "removed": [],
        }
        with open(project.world, "ab") as handle:
            handle.writelines(persist._commit_frames("D", [("state", theirs)], base.seq + 1))
        assert plan_records(project.world)[-1] is None
        loaded = load_world(project.world)
        assert loaded._plan_record == "void"
        assert loaded.state.get(vm.address).attrs["tags"] == {"service": "by-hand"}
        # had the record survived, this entry would have counted as proven
        moved = project("plan")
        assert moved == {"plan.basis.void": 1, **WHOLE_FIRST}
        project("apply")  # re-proves, records again
        assert plan_records(project.world)[-1]["unproven"] == [str(vm.address)]
        assert project("plan")["plan.basis.woken"] == 1

    def test_a_compaction_keyframe_carries_it(self, day_two):
        project, _sizes = day_two
        record = plan_records(project.world)[-1]
        engine = load_world(project.world)
        persist._compact(engine, project.world)
        assert plan_records(project.world) == [record]
        assert engine._world_base.seq == 0
        moved = project("plan")
        assert moved["plan.basis.woken"] == 1 and moved["plan.scope_nodes"] < 40

    def test_init_force_starts_without_one(self, day_two):
        project, _sizes = day_two
        project("init", "--force", "--seed", "3")
        assert plan_records(project.world) == [None]
        assert load_world(project.world)._plan_record == "none"
        # (the artifact is still there; nothing names it)
        assert project("plan") == {"plan.basis.none": 1, **WHOLE_FIRST}

    def test_only_a_cached_engine_that_proved_something_writes_one(self, tmp_path, capsys):
        """Not a byte more than the parent wrote: after the cold apply
        of the benchmark's estate (1,993 creates prove nothing), from
        ``--no-cache``, and from a service session."""
        big = {"aws.clc": scale_estate(1000), "azure.clc": two_region_estate(1000)}
        project = Project(tmp_path / "cold", big)
        project("apply")
        assert len(load_world(project.world).state) == 1993
        with open(project.world, "rb") as handle:
            assert b"plan_basis" not in handle.read()

        sources = estate(40)
        uncached = Project(tmp_path / "uncached", sources)
        uncached("apply", "--no-cache")
        sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r1")
        uncached.write(sources)
        assert uncached("apply", "--no-cache") == WHOLE_FIRST | {"plan.basis.none": 1}
        assert plan_records(uncached.world) == [None, None]

        session = TenantSession.open(str(tmp_path / "svc"), "acme", "svc-0", now=0.0, seed=5)
        for revision in range(3):
            sources["aws.clc"] = edit_services(sources["aws.clc"], 2, f"s{revision}")
            assert session.engine.apply(sources).ok
            session.persist()
            session.engine.plan(sources)
        diffed, graph = session.engine.last_plan_scope
        assert 0 < diffed < graph / 4  # it does plan by its basis
        with open(session.home.world_path, "rb") as handle:
            assert b"plan_basis" not in handle.read()

    def test_fifty_days_leave_a_few_hundred_bytes(self, tmp_path, capsys):
        sources = estate()
        project = Project(tmp_path / "project", sources)
        project("apply")
        scopes = []
        for day in range(50):
            sources["aws.clc"] = edit_services(sources["aws.clc"], 8, f"d{day}")
            project.write(sources)
            scopes.append(project("apply").get("plan.scope_nodes"))
            project("plan")
            project.drift(f"size-{day}", f"size-{day}")
            project("watch", "--reconcile")
        graph = len(load_world(project.world).state)
        # the first day planned whole; every later one an edit's worth
        # (8 blocks of two VMs, each with a dependent or two) plus what
        # the last day left unproven
        assert scopes[0] is None and max(scopes[1:]) < graph / 2
        records = [r for r in plan_records(project.world) if r is not None]
        assert records and max(len(json.dumps(r)) for r in records) <= 4096
        size = os.path.getsize(project.world)
        strip_plan_record(project.world)
        assert 0 < size - os.path.getsize(project.world) <= size / 100

    @pytest.mark.parametrize(
        "record",
        [
            "a string",
            {"key": "k", "source_sha": {}, "data": "d"},
            {"key": "k", "source_sha": {}, "data": "d", "unproven": "all"},
            {"key": "k", "source_sha": {}, "data": "d", "unproven": [["a"]]},
        ],
    )
    def test_a_malformed_record_is_a_malformed_world(self, day_two, record):
        project, _sizes = day_two
        commits = commits_of(project.world)
        commits[-1]["state"]["plan_basis"] = record
        with open(project.world, "wb") as handle:
            for seq, sections in enumerate(commits):
                handle.writelines(
                    persist._commit_frames("D" if seq else "K", sections.items(), seq)
                )
        with pytest.raises(WorldFormatError, match="plan-basis record"):
            load_world(project.world)


# -- deferred planes ---------------------------------------------------------------------


def replays(moved):
    """``(planes deferred, planes replayed)`` by what a verb moved."""
    return (
        moved.get("persist.planes_deferred", 0),
        moved.get("persist.planes_replayed", 0),
    )


class TestDeferredPlanes:
    @pytest.fixture
    def project(self, tmp_path, capsys):
        """A project one edit old: a keyframe and a few deltas."""
        sources = estate(40)
        project = Project(tmp_path / "project", sources)
        project("apply")
        sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r1")
        project.write(sources)
        project("apply")
        project.sources = sources
        return project

    def test_counters_are_declared(self):
        from repro.perf import KNOWN_PROBES

        assert {"persist.planes_deferred", "persist.planes_replayed"} <= set(KNOWN_PROBES)

    def test_a_plan_replays_no_plane(self, project):
        project("plan")
        assert replays(project.moved) == (2, 0)
        project("show")
        assert replays(project.moved) == (2, 0)

    def test_apply_and_watch_replay_each_plane_they_touch_once(self, project):
        project.sources["aws.clc"] = edit_services(project.sources["aws.clc"], 2, "r2")
        project.write(project.sources)
        project("apply")
        # the executor reads every plane's API-call count, once each
        assert replays(project.moved) == (2, 2)
        project.drift("by-hand")
        project("watch", "--reconcile")
        assert replays(project.moved) == (2, 2)

    def test_a_save_that_read_no_plane_writes_no_plane_section(self, project):
        engine = load_world(project.world)
        vm = engine.state.instances_of("aws_virtual_machine", "scale_0_vm")[0]
        engine.state.remove(vm.address)
        save_world(engine, project.world)
        last = commits_of(project.world)[-1]
        assert "state" in last and not any(n.startswith("plane:") for n in last)
        assert all(plane.deferred for plane in engine.gateway.planes.values())
        same_world(load_world(project.world), eager_load(project.world))

    def test_the_harness_drift_writes_what_an_eager_load_writes(self, project, tmp_path):
        """load / ``external_update`` / save: the aws plane is read,
        azure is not, and the file is byte for byte the eager one."""
        twin = str(tmp_path / "twin")
        shutil.copy(project.world, twin)
        for load, path in ((load_world, project.world), (eager_load, twin)):
            engine = load(path)
            drift_one_vm(engine, "by-hand")
            save_world(engine, path)
        assert engine_to_dict(load_world(project.world)) == engine_to_dict(eager_load(twin))
        with open(project.world, "rb") as ours, open(twin, "rb") as theirs:
            assert ours.read() == theirs.read()

    def test_compaction_after_a_deferred_load_writes_the_eager_keyframe(
        self, project, tmp_path
    ):
        twin = str(tmp_path / "twin")
        shutil.copy(project.world, twin)
        deferred, eager = load_world(project.world), eager_load(twin)
        assert not any(plane.deferred for plane in eager.gateway.planes.values())
        persist._compact(deferred, project.world)
        persist._compact(eager, twin)
        assert deferred._world_base.seq == 0
        with open(project.world, "rb") as ours, open(twin, "rb") as theirs:
            assert ours.read() == theirs.read()

    @pytest.mark.parametrize("boundary", [1, 3])
    def test_crash_at_k_then_resume(self, project, tmp_path, monkeypatch, boundary):
        from tests.test_cli import apply_dying_at

        twin = Project(tmp_path / "twin", project.sources)
        shutil.copy(project.world, twin.world)
        edited = dict(project.sources)
        edited["aws.clc"] = edit_services(edited["aws.clc"], 3, "r2")
        project.write(edited)
        twin.write(edited)
        with apply_dying_at(monkeypatch, boundary):
            project("apply")
        project("resume")
        twin("apply")
        ours, theirs = load_world(project.world), load_world(twin.world)
        assert ours.state.content_hash() == theirs.state.content_hash()
        assert {r.id: r.attrs for r in ours.gateway.all_records()} == {
            r.id: r.attrs for r in theirs.gateway.all_records()
        }

    def test_a_tenant_session_opens_plans_and_applies(self, tmp_path):
        root = str(tmp_path)
        session = TenantSession.open(root, "acme", "svc-0", now=0.0, seed=5)
        sources = estate(40)
        assert session.engine.apply(sources).ok
        session.close(now=1.0)
        PERF.reset()
        PERF.enable()
        try:
            session = TenantSession.open(root, "acme", "svc-1", now=2.0, seed=5)
            assert session.engine.plan(sources).is_empty
            planned = replays(PERF.counters)
            sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r1")
            assert session.engine.apply(sources).ok
            session.persist()
            applied = replays(PERF.counters)
        finally:
            PERF.disable()
            PERF.reset()
        assert planned == (2, 0)
        assert applied == (2, 2)
        keyframe = str(tmp_path / "keyframe")
        save_world(load_world(session.home.world_path), keyframe)
        same_world(load_world(keyframe), session.engine)

    def test_a_deferred_plane_holds_back_what_a_section_writes_and_lands(self):
        """``persist.PLANE_ATTRIBUTES`` names every plane attribute the
        writer reads and the replay touches (``provider`` is the plane
        class's own): one the list missed would be read fresh from a
        deferred plane, without a replay."""
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        writer = Spy(engine.gateway.planes["aws"])
        section = json.loads(json.dumps(persist._plane_section(writer, None)))
        replayed = Spy(CloudlessEngine(seed=3).gateway.planes["aws"])
        persist.plane_from_dict(replayed, section)
        assert writer.touched - {"provider"} == set(persist.PLANE_ATTRIBUTES)
        assert replayed.touched - {"provider"} == set(persist.PLANE_ATTRIBUTES)


class Spy:
    """A plane that notes which of its attributes are read or set."""

    def __init__(self, plane):
        object.__setattr__(self, "plane", plane)
        object.__setattr__(self, "touched", set())

    def __getattr__(self, name):
        self.touched.add(name)
        return getattr(self.plane, name)

    def __setattr__(self, name, value):
        self.touched.add(name)
        setattr(self.plane, name, value)


# -- crash boundary sweep ----------------------------------------------------------------


@pytest.fixture
def two_commits(tmp_path):
    """A world, the same world one delta later, and the loaded dicts."""
    path = str(tmp_path / "w")
    engine = CloudlessEngine(seed=3)
    sources = estate(40)
    assert engine.apply(sources).ok
    save_world(engine, path)
    with open(path, "rb") as handle:
        previous = handle.read()
    before = engine_to_dict(load_world(path))
    sources["aws.clc"] = edit_services(sources["aws.clc"], 2, "r1")
    assert engine.apply(sources).ok
    save_world(engine, path)
    with open(path, "rb") as handle:
        following = handle.read()
    assert following.startswith(previous)
    return path, previous, following, before, engine_to_dict(load_world(path))


class TestCrashBoundaries:
    def test_a_cut_append_loads_as_the_previous_or_the_next_commit(self, two_commits):
        path, previous, following, before, after = two_commits
        boundaries = [o for o in frame_offsets(following) if o >= len(previous)]
        assert len(boundaries) >= 5  # several sections and the commit frame
        cuts = {len(previous), len(following)}
        for offset in boundaries:
            cuts.update((offset - 1, offset, offset + 1, offset + 40))
        cuts.update(range(len(previous), len(following), 97))  # mid-frame
        for cut in sorted(c for c in cuts if len(previous) <= c <= len(following)):
            with open(path, "wb") as handle:
                handle.write(following[:cut])
            loaded = engine_to_dict(load_world(path))
            # only the last byte (the commit frame's newline) commits
            assert loaded == (after if cut == len(following) else before), cut

    def test_the_save_after_a_torn_tail_heals_the_file(self, two_commits):
        path, previous, following, before, after = two_commits
        with open(path, "wb") as handle:
            handle.write(following[: len(previous) + 300])
        engine = load_world(path)
        drift_one_vm(engine, "large")
        save_world(engine, path)
        same_world(load_world(path), engine)
        with open(path, "rb") as handle:
            assert following[len(previous) : len(previous) + 300] not in handle.read()

    def test_a_kill_during_compaction_leaves_the_previous_commit(
        self, two_commits, monkeypatch
    ):
        path, previous, following, before, after = two_commits
        engine = load_world(path)
        drift_one_vm(engine, "large")

        class Killed(BaseException):
            pass

        def die(*_args):
            raise Killed()

        # before the rename: the new keyframe is complete but not visible
        monkeypatch.setattr(os, "replace", die)
        with pytest.raises(Killed):
            persist._compact(engine, path)
        monkeypatch.undo()
        assert engine_to_dict(load_world(path)) == after
        # mid-way through the sections: it is not even complete
        real_frame, calls = persist._frame, []

        def die_on_third(kind, name, value):
            calls.append(name)
            if len(calls) == 3:
                raise Killed()
            return real_frame(kind, name, value)

        monkeypatch.setattr(persist, "_frame", die_on_third)
        with pytest.raises(Killed):
            persist._compact(engine, path)
        monkeypatch.undo()
        assert engine_to_dict(load_world(path)) == after
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]
        # and the engine that survived its failed saves still saves
        save_world(engine, path)
        same_world(load_world(path), engine)

    def test_a_cut_keyframe_is_not_a_world(self, two_commits):
        path, previous, *_ = two_commits
        for cut in (0, 10, len(previous) // 2, len(previous) - 1):
            with open(path, "wb") as handle:
                handle.write(previous[:cut])
            with pytest.raises(WorldFormatError):
                load_world(path)


# -- untrusted bytes ---------------------------------------------------------------------


@pytest.fixture
def commits(tmp_path):
    """A five-commit world and what each prefix of commits loads as."""
    path = str(tmp_path / "w")
    engine = CloudlessEngine(seed=3)
    assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
    save_world(engine, path)
    loads = [engine_to_dict(load_world(path))]
    for size in ("a", "b", "c", "d"):
        drift_one_vm(engine, size)
        save_world(engine, path)
        loads.append(engine_to_dict(load_world(path)))
    with open(path, "rb") as handle:
        return path, handle.read(), loads


def load_or_reject(path, loads):
    try:
        loaded = engine_to_dict(load_world(path))
    except WorldFormatError:
        return None
    assert loaded in loads
    return loaded


#: a well-framed commit's non-finite numbers (Python's ``json`` reads
#: ``Infinity``): where a number is used as an integer
NON_FINITE = {
    "log_base": ("plane:aws", {"log_base": float("inf")}),
    "log_next_seq": ("plane:aws", {"log_next_seq": float("inf")}),
    "watch_cursors": ("engine", {"watch_cursors": {"aws": float("inf")}}),
}

#: JSON values a lie puts where another belongs
LIES = [None, True, 0, -1, 2**70, 1.5, float("inf"), float("nan"), "", "x", [], ["x"], [1], {}, {"x": 1}]


def lie_about(section, level, op, pick, lie, key):
    """A plane ``section`` with one key dropped, retyped or added at
    ``level``: the section itself or one of its rows or maps."""
    places = {"section": section, "tokens": section["tokens"], "api_calls": section["api_calls"]}
    for name in ("records", "log", "id_gens", "quotas"):
        if section[name]:
            places[name] = section[name][pick % len(section[name])]
    if "records" in places:
        places["attrs"] = places["records"]["attrs"]
    target = places.get(level, section)
    names = sorted(target)
    if op == "add" or not names:
        target[key] = lie
    elif op == "drop":
        del target[names[pick % len(names)]]
    else:
        target[names[pick % len(names)]] = lie
    return section


def with_commit(path, data, seq, name, value):
    """Write ``data`` and one more well-framed commit of one section."""
    frames = [persist._frame("D", name, value)]
    frames.append(commit_frame(frames, seq))
    with open(path, "wb") as handle:
        handle.write(data + b"".join(frames))


class TestUntrustedBytes:
    def test_bit_flips(self, commits):
        path, data, loads = commits
        rng = random.Random(16)
        outcomes = set()
        for _ in range(300):
            position, bit = rng.randrange(len(data)), 1 << rng.randrange(8)
            damaged = bytearray(data)
            damaged[position] ^= bit
            with open(path, "wb") as handle:
                handle.write(damaged)
            loaded = load_or_reject(path, loads)
            outcomes.add(None if loaded is None else loads.index(loaded))
        # flips in the last commit fall back to the one before; flips
        # further in are damage at rest and are refused; none gets through
        assert None in outcomes and len(loads) - 1 not in outcomes

    def test_oversized_length_prefix(self, commits):
        path, data, loads = commits
        for offset in frame_offsets(data):
            header_end = data.index(b"\n", offset)
            parts = data[offset:header_end].split(b" ")
            for length in (b"9" * 18, b"9" * 200, str(len(data) * 2).encode()):
                forged = b" ".join([*parts[:3], length, parts[4]])
                with open(path, "wb") as handle:
                    handle.write(data[:offset] + forged + data[header_end:])
                loaded = load_or_reject(path, loads)
                assert loaded is None or loaded != loads[-1]

    def test_garbage_after_a_valid_frame(self, commits):
        path, data, loads = commits
        rng = random.Random(16)
        for garbage in (
            b"\0" * 4096,
            rng.randbytes(5000),
            b"clw3 D state 12 " + b"0" * 64 + b"\n{}",
            b"\n" + MAGIC + b" D state -1 x\n",
            b'{"format": 2}',
        ):
            with open(path, "wb") as handle:
                handle.write(data + garbage)
            assert engine_to_dict(load_world(path)) == loads[-1]

    def test_a_well_framed_lie_is_still_typed(self, commits, monkeypatch):
        path, data, loads = commits
        end_of_keyframe = data.index(b"\n", data.index(b" C commit ") + 10)
        end_of_keyframe = data.index(b"\n", end_of_keyframe + 1) + 1
        keyframe = data[:end_of_keyframe]
        lies = {
            "state": {"set": [{"address": 7}], "removed": [], "serial": 1},
            "plane:aws": {"records": "all of them"},
            "history": [{"version": 2, "base": "state"}],
            "engine": [],
            "sources": {"0" * 64: "not base64 !"},
        }
        for name, value in lies.items():
            frames = [persist._frame("D", name, value)]
            frames.append(commit_frame(frames, 1))
            with open(path, "wb") as handle:
                handle.write(keyframe + b"".join(frames))
            if name == "sources":
                load_world(path)  # a blob nothing names is never unpacked
                continue
            with pytest.raises(WorldFormatError):
                load_world(path)
        # a source blob is outside input too: what it inflates to is bounded
        monkeypatch.setattr(persist, "_MAX_SOURCE_BYTES", 64)
        with open(path, "wb") as handle:
            handle.write(data)
        with pytest.raises(WorldFormatError, match="source blob"):
            load_world(path)

    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_a_non_finite_number_is_typed(self, commits, field, tmp_path, capsys):
        path, data, loads = commits
        name, lie = NON_FINITE[field]
        if name == "engine":
            lie = {**[c["engine"] for c in commits_of(path) if "engine" in c][-1], **lie}
        with_commit(path, data, len(loads), name, lie)
        with pytest.raises(WorldFormatError):
            load_world(path)
        project = tmp_path / "project"
        project.mkdir()
        shutil.copy(path, project / "cloudless.world")
        assert cli_main(["--chdir", str(project), "show"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        level=st.sampled_from(
            ["section", "records", "attrs", "log", "id_gens", "quotas", "tokens", "api_calls"]
        ),
        op=st.sampled_from(["drop", "retype", "add"]),
        pick=st.integers(min_value=0, max_value=10**6),
        lie=st.sampled_from(LIES),
        key=st.text(max_size=6),
    )
    def test_a_plane_the_load_passes_replays_without_raising(
        self, commits, level, op, pick, lie, key
    ):
        """The check at load is all that stands between a lie and a
        replay mid-verb: what it passes replays, and the plane it leaves
        is one the writer and the watcher can use."""
        path, data, loads = commits
        keyframe = persist._read_commits(data, path)[0][0]
        section = lie_about(json.loads(bytes(keyframe["plane:aws"])), level, op, pick, lie, key)
        with_commit(path, data, len(loads), "plane:aws", section)
        try:
            engine = load_world(path)
        except WorldFormatError:
            return
        for plane in engine.gateway.planes.values():
            plane.records
        engine_to_dict(engine)
        engine.watch()

    def test_a_row_may_leave_out_what_its_dataclass_defaults(self):
        """The check takes a row's fields and defaults from the dataclass
        it is replayed as: a record without ``state`` or an event without
        ``changed_attrs`` lands as the defaults, one without ``id`` or
        ``sequence`` is refused."""
        engine = CloudlessEngine(seed=3)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        plane = engine.gateway.planes["aws"]
        full = json.loads(json.dumps(persist._plane_section(plane, None)))
        section = json.loads(json.dumps(full))
        for row in section["records"]:
            del row["state"]
        for row in section["log"]:
            del row["changed_attrs"]
        persist._check_plane(section, "plane:aws")
        fresh = CloudlessEngine(seed=3).gateway.planes["aws"]
        persist.plane_from_dict(fresh, section)
        assert {r.state for r in fresh.records.values()} == {"active"}
        assert {e.changed_attrs for e in fresh.log.all_events()} == {()}
        for rows, field in (("records", "id"), ("log", "sequence")):
            lie = json.loads(json.dumps(full))
            del lie[rows][0][field]
            with pytest.raises(WorldFormatError):
                persist._check_plane(lie, "plane:aws")

    def test_a_nest_too_deep_to_decode_is_typed(self, commits):
        path, data, loads = commits
        payload = b"[" * 100_000 + b"]" * 100_000
        header = b"%s K engine %d %s\n" % (
            MAGIC,
            len(payload),
            hashlib.sha256(payload).hexdigest().encode(),
        )
        frames = [header + payload + b"\n"]
        frames.append(commit_frame(frames, 0))
        with open(path, "wb") as handle:
            handle.write(b"".join(frames))
        with pytest.raises(WorldFormatError):
            load_world(path)


# -- formats ---------------------------------------------------------------------------------


class TestFormats:
    def test_a_format_2_world_is_read_once_and_rewritten(self, tmp_path):
        """A ``{``-led world is refused with a typed error that names
        format 2, and the file is left untouched."""
        path = str(tmp_path / "w")
        shutil.copy(os.path.join(FIXTURES, "world_v2.json"), path)
        with open(path, "rb") as handle:
            before = handle.read()
        with pytest.raises(WorldFormatError, match=r"unsupported world format 2 \(.*format 2"):
            load_world(path)
        with open(path, "rb") as handle:
            assert handle.read() == before

    @pytest.mark.parametrize(
        "content",
        [b'{"format": 1}', b'{"format": 3}', b'{"format": 2, "executor": "sharded"}',
         b"{not json", b"", b"PK\x03\x04", b'{"format": 2, "history": [{"version": 2}]}'],
    )
    def test_anything_else_is_a_typed_error(self, tmp_path, content):
        path = str(tmp_path / "w")
        with open(path, "wb") as handle:
            handle.write(content)
        with pytest.raises(WorldFormatError):
            load_world(path)

    def test_the_cli_says_so_in_one_line(self, tmp_path, capsys):
        with open(str(tmp_path / "cloudless.world"), "wb") as handle:
            handle.write(b'{"format": 1}')
        assert cli_main(["--chdir", str(tmp_path), "show"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unsupported world format 1")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# -- process tax -----------------------------------------------------------------------------


def test_watch_imports_no_module_only_other_verbs_run(tmp_path):
    # per verb, and far stricter: tests/test_process.py
    from tests.test_process import imports_of

    project = str(tmp_path)
    assert cli_main(["--chdir", project, "init"]) == 0
    imported, _total_s, stdout = imports_of(project, "watch")
    assert "no drift detected" in stdout
    assert "repro.core.engine" in imported  # the flag did record imports
    for module in ("debug.correlate", "porting", "synthesis", "update.rollback"):
        assert f"repro.{module}" not in imported, module


def test_every_public_name_still_resolves():
    import importlib

    import repro
    from tests.test_process import SUBPACKAGES

    for package in [repro] + [
        importlib.import_module(f"repro.{name}") for name in SUBPACKAGES
    ]:
        assert package.__all__ == sorted(package.__all__)
        for name in package.__all__:
            assert getattr(package, name) is not None, (package.__name__, name)
        assert set(package.__all__) <= set(dir(package))
        with pytest.raises(AttributeError):
            package.no_such_name
    assert repro.validate("").ok and callable(repro.build_graph)
    # a submodule is an attribute of its package without being imported by name
    assert repro.lang.module_loader.ModuleLoader is repro.lang.ModuleLoader
