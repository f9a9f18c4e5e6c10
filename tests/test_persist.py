"""World persistence round trips."""

import pytest

from repro.core import CloudlessEngine
from repro.persist import (
    WorldFormatError,
    engine_from_dict,
    engine_to_dict,
    load_world,
    save_world,
)
from repro.workloads import web_tier


def deployed_engine():
    engine = CloudlessEngine(seed=77)
    assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
    return engine


class TestRoundTrip:
    def test_state_survives(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        assert len(restored.state) == len(engine.state)
        assert {str(a) for a in restored.state.addresses()} == {
            str(a) for a in engine.state.addresses()
        }

    def test_cloud_records_survive(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        original = {r.id: r.attrs for r in engine.gateway.all_records()}
        roundtrip = {r.id: r.attrs for r in restored.gateway.all_records()}
        assert roundtrip == original

    def test_clock_and_history_survive(self, tmp_path):
        engine = deployed_engine()
        engine.apply(web_tier(web_vms=3, app_vms=1))
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        assert restored.clock.now == pytest.approx(engine.clock.now)
        assert restored.history.versions() == engine.history.versions()
        snap = restored.history.get(1)
        assert len(snap.state) == len(engine.history.get(1).state)

    def test_replan_after_restore_is_noop(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        plan = restored.plan(web_tier(web_vms=2, app_vms=1))
        assert plan.is_empty

    def test_id_counter_survives(self, tmp_path):
        """New resources after restore must not collide with old ids."""
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        old_ids = {r.id for r in restored.gateway.all_records()}
        result = restored.apply(web_tier(web_vms=3, app_vms=1))
        assert result.ok
        new_ids = {r.id for r in restored.gateway.all_records()} - old_ids
        assert new_ids and not (new_ids & old_ids)

    def test_activity_log_cursor_consistency(self, tmp_path):
        engine = deployed_engine()
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        # the watcher on a restored world sees only NEW external events
        run1 = restored.watch()
        assert run1.findings == []
        vm = next(
            e
            for e in restored.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        restored.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "large"}, actor="x"
        )
        run2 = restored.watch()
        assert len(run2.findings) == 1

    def test_rollback_after_restore(self, tmp_path):
        engine = deployed_engine()
        v1 = engine.history.versions()[-1]
        engine.apply(web_tier(web_vms=4, app_vms=1))
        path = str(tmp_path / "w.json")
        save_world(engine, path)
        restored = load_world(path)
        result = restored.rollback(v1)
        assert result.ok
        assert (
            restored.gateway.planes["aws"].count("aws_virtual_machine") == 3
        )

    def test_format_version_checked(self):
        with pytest.raises(ValueError):
            engine_from_dict({"format": 999})

    def test_unknown_executor_rejected_at_load(self, tmp_path):
        """Typed, and that includes ``"sharded"``: the alias for worlds
        written before the sharded layer was deleted is gone too."""
        path = str(tmp_path / "w.json")
        for name in ("bogus", "sharded"):
            engine = CloudlessEngine(seed=77)
            engine.executor_name = name
            save_world(engine, path)
            with pytest.raises(WorldFormatError, match=name):
                load_world(path)

    def test_dict_round_trip_stable(self):
        engine = deployed_engine()
        once = engine_to_dict(engine)
        twice = engine_to_dict(engine_from_dict(once))
        assert once == twice
