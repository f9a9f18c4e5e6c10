"""Rollback: reversibility analysis, cascades, convergence (E4)."""

import pytest

from repro.cloud import ResilientGateway
from repro.core import CloudlessEngine
from repro.update import (
    NaiveRollback,
    ReversibilityAwareRollback,
    RollbackKind,
    measure_divergence,
)
from repro.workloads import web_tier


def deployed_engine(seed=40, **kwargs):
    engine = CloudlessEngine(seed=seed)
    result = engine.apply(web_tier(**kwargs))
    assert result.ok
    return engine, result.snapshot_version


def client(engine):
    """A client of ``engine``'s clouds of its own: default retry, fresh
    stats, no health ledger (``engine.resilient`` keeps the engine's)."""
    return ResilientGateway(engine.gateway)


def first_vm(engine):
    return next(
        e
        for e in engine.state.resources()
        if e.address.type == "aws_virtual_machine"
    )


class TestPlanning:
    def test_clean_state_plans_nothing(self):
        engine, v1 = deployed_engine()
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(engine.history.get(v1), engine.state)
        assert len(plan) == 0

    def test_updatable_drift_plans_update(self):
        engine, v1 = deployed_engine()
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "xlarge"}
        )
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        kinds = {str(a.address): a.kind for a in plan.actions}
        assert kinds[str(vm.address)] is RollbackKind.UPDATE
        assert plan.redeployments == 0

    def test_shadow_drift_plans_replace(self):
        engine, v1 = deployed_engine()
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"network_settings": "custom-routes"}
        )
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        kinds = {str(a.address): a.kind for a in plan.actions}
        assert kinds[str(vm.address)] is RollbackKind.REPLACE
        assert any("out-of-band" in r for a in plan.actions for r in a.reasons)

    def test_immutable_drift_plans_replace(self):
        engine, v1 = deployed_engine()
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"image": "win-2022"}
        )
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        kinds = {str(a.address): a.kind for a in plan.actions}
        assert kinds[str(vm.address)] is RollbackKind.REPLACE

    def test_deleted_resource_plans_recreate(self):
        engine, v1 = deployed_engine()
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_delete(vm.resource_id)
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        kinds = {str(a.address): a.kind for a in plan.actions}
        assert kinds[str(vm.address)] is RollbackKind.RECREATE

    def test_new_resources_plan_delete(self):
        engine, v1 = deployed_engine(web_vms=2)
        engine.apply(web_tier(web_vms=4))
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        deletes = [a for a in plan.actions if a.kind is RollbackKind.DELETE]
        assert len(deletes) == 4  # 2 extra VMs + their 2 NICs

    def test_cascade_through_dependents(self):
        engine, v1 = deployed_engine()
        # shadow-modify a NIC: replacing it forces replacing its VM
        nic = next(
            e
            for e in engine.state.resources()
            if e.address.type == "aws_network_interface"
        )
        engine.gateway.planes["aws"].external_update(
            nic.resource_id, {"network_settings": "hacked"}
        )
        plan = ReversibilityAwareRollback(client(engine)).plan(
            engine.history.get(v1), engine.state
        )
        cascaded = [a for a in plan.actions if a.cascaded]
        assert cascaded, "dependents of a replaced NIC must cascade"
        assert any(
            a.address.type == "aws_virtual_machine" for a in cascaded
        )


class TestConvergence:
    def scenario(self, seed):
        engine, v1 = deployed_engine(seed=seed)
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"network_settings": "custom"}
        )
        engine.apply(web_tier(web_vms=5))
        return engine, engine.history.get(v1)

    def test_aware_rollback_converges(self):
        engine, snapshot = self.scenario(seed=41)
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        result = planner.execute(plan, engine.state)
        assert result.errors == []
        assert measure_divergence(engine.gateway, snapshot, engine.state) == 0

    def test_naive_rollback_leaves_divergence(self):
        engine, snapshot = self.scenario(seed=42)
        planner = NaiveRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        planner.execute(plan, engine.state)
        assert measure_divergence(engine.gateway, snapshot, engine.state) > 0

    def test_aware_redeploys_only_what_it_must(self):
        engine, snapshot = self.scenario(seed=43)
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        # only the shadow-drifted VM is redeployed (it has no dependents)
        assert plan.redeployments <= 2

    def test_engine_rollback_verb(self):
        engine, v1 = deployed_engine(seed=44)
        engine.apply(web_tier(web_vms=4))
        result = engine.rollback(v1)
        assert result.ok
        snapshot = engine.history.get(v1)
        assert measure_divergence(engine.gateway, snapshot, engine.state) == 0
        # rollback itself is checkpointed (the time machine grows)
        assert len(engine.history) >= 3


class TestCrashConsistency:
    """Faults mid-rollback must never corrupt state or duplicate
    resources; interrupted work surfaces as a resumable remainder."""

    def renamed_shadow_scenario(self, seed):
        """Shadow drift that also renamed the live VM -- the case where
        a rebuild whose destroy half fails would, without the guard,
        recreate the snapshot twin alongside the still-live original."""
        engine, v1 = deployed_engine(seed=seed)
        vm = first_vm(engine)
        engine.gateway.planes["aws"].external_update(
            vm.resource_id,
            {"name": "renamed-out-of-band", "network_settings": "custom"},
        )
        return engine, engine.history.get(v1), vm

    def vm_count(self, engine):
        return sum(
            1
            for r in engine.gateway.all_records()
            if r.type == "aws_virtual_machine"
        )

    def test_failed_destroy_skips_recreate(self):
        from repro.cloud import FaultSpec

        engine, snapshot, vm = self.renamed_shadow_scenario(seed=45)
        engine.gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="DependencyViolation",
                message="resource is in use",
                match_type="aws_virtual_machine",
                match_operation="delete",
                transient=False,
                max_strikes=1,
            )
        )
        before = self.vm_count(engine)
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        result = planner.execute(plan, engine.state)
        # regression: no duplicate twin under the same address
        assert self.vm_count(engine) == before
        assert str(vm.address) in result.remainder
        assert any("recreate skipped" in e for e in result.errors)
        # state still points at the live (undeleted) resource
        entry = engine.state.get(vm.address)
        assert engine.gateway.find_record(entry.resource_id) is not None

    def test_interrupted_recreate_checkpoints_and_resumes(self):
        from repro.cloud import FaultSpec

        engine, snapshot, vm = self.renamed_shadow_scenario(seed=46)
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
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        result = planner.execute(plan, engine.state)
        assert str(vm.address) in result.remainder
        entry = engine.state.get(vm.address)
        # checkpoint: the destroy half landed, state must say so
        assert entry is not None and entry.resource_id == ""
        assert engine.gateway.find_record(vm.resource_id) is None
        # resume: re-plan against the same snapshot and run to done
        plan2 = planner.plan(snapshot, engine.state)
        result2 = planner.execute(plan2, engine.state)
        assert result2.errors == []
        assert result2.remainder == []
        assert measure_divergence(engine.gateway, snapshot, engine.state) == 0

    def test_transient_faults_absorbed_by_retry(self):
        from repro.cloud import FaultSpec

        engine, snapshot, vm = self.renamed_shadow_scenario(seed=47)
        for operation in ("delete", "create"):
            engine.gateway.planes["aws"].faults.add_rule(
                FaultSpec(
                    error_code="InternalServerError",
                    message="retry me",
                    match_type="aws_virtual_machine",
                    match_operation=operation,
                    transient=True,
                    max_strikes=1,
                )
            )
        planner = ReversibilityAwareRollback(client(engine))
        plan = planner.plan(snapshot, engine.state)
        result = planner.execute(plan, engine.state)
        assert result.errors == []
        assert result.remainder == []
        assert planner.gateway.stats.retries >= 2
        assert measure_divergence(engine.gateway, snapshot, engine.state) == 0
