"""Executor tests: scheduling strategies, retries, failure handling."""

import os

import pytest

import repro.deploy
from repro.cli import main
from repro.cloud import CloudGateway, FaultSpec, HealthMonitor, SimClock
from repro.deploy import (
    BestEffortExecutor,
    CriticalPathExecutor,
    PlanExecutor,
    RetryPolicy,
    SequentialExecutor,
)
from repro.graph import Planner, build_graph, read_data_sources
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import microservices, web_tier


def plan_on(gateway, source, state=None):
    graph = build_graph(Configuration.parse(source))
    state = state if state is not None else StateDocument()
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    data = read_data_sources(gateway, graph, state)
    return planner.plan(graph, state, data_values=data)


class TestBasicApply:
    def test_creates_everything(self):
        gateway = CloudGateway.simulated(seed=1)
        plan = plan_on(gateway, web_tier(web_vms=2, app_vms=1))
        result = CriticalPathExecutor(gateway).apply(plan)
        assert result.ok
        assert len(result.state) == len(result.succeeded)
        assert gateway.planes["aws"].count("aws_virtual_machine") == 3

    def test_state_entries_carry_identity(self):
        gateway = CloudGateway.simulated(seed=1)
        plan = plan_on(gateway, web_tier(web_vms=1, app_vms=1, with_lb=False, with_db=False))
        result = CriticalPathExecutor(gateway).apply(plan)
        for entry in result.state.resources():
            assert entry.resource_id
            assert entry.provider == "aws"
            assert entry.attrs["id"] == entry.resource_id

    def test_dependencies_recorded_in_state(self):
        gateway = CloudGateway.simulated(seed=1)
        plan = plan_on(gateway, web_tier(web_vms=1, app_vms=1, with_lb=False, with_db=False))
        result = CriticalPathExecutor(gateway).apply(plan)
        from repro.addressing import ResourceAddress

        subnet = result.state.get(ResourceAddress.parse("aws_subnet.web_front"))
        assert "aws_vpc.web" in subnet.dependencies

    def test_second_apply_noop(self):
        gateway = CloudGateway.simulated(seed=1)
        src = web_tier(web_vms=2, app_vms=1)
        plan = plan_on(gateway, src)
        result = CriticalPathExecutor(gateway).apply(plan)
        plan2 = plan_on(gateway, src, result.state)
        assert plan2.is_empty

    def test_update_path(self):
        gateway = CloudGateway.simulated(seed=1)
        src = web_tier(web_vms=1, app_vms=1, with_lb=False, with_db=False)
        result = CriticalPathExecutor(gateway).apply(plan_on(gateway, src))
        bumped = src.replace('size    = "small"', 'size    = "large"')
        plan2 = plan_on(gateway, bumped, result.state)
        result2 = CriticalPathExecutor(gateway).apply(plan2)
        assert result2.ok
        vm = gateway.planes["aws"].find_by_name("aws_virtual_machine", "web-web-0")
        assert vm.attrs["size"] == "large"

    def test_delete_path(self):
        gateway = CloudGateway.simulated(seed=1)
        result = CriticalPathExecutor(gateway).apply(
            plan_on(gateway, web_tier(web_vms=1, app_vms=1))
        )
        plan2 = plan_on(gateway, "", result.state)
        result2 = CriticalPathExecutor(gateway).apply(plan2)
        assert result2.ok
        assert len(result2.state) == 0
        assert gateway.planes["aws"].count() == 0


class TestSchedulingStrategies:
    def test_parallel_beats_sequential(self):
        src = microservices(services=4, vms_per_service=2)
        g1 = CloudGateway.simulated(seed=3)
        seq = SequentialExecutor(g1).apply(plan_on(g1, src))
        g2 = CloudGateway.simulated(seed=3)
        cp = CriticalPathExecutor(g2).apply(plan_on(g2, src))
        assert seq.ok and cp.ok
        assert cp.makespan_s < seq.makespan_s / 2

    def test_critical_path_not_worse_than_best_effort(self):
        src = microservices(services=5, vms_per_service=2)
        g1 = CloudGateway.simulated(seed=4)
        be = BestEffortExecutor(g1, concurrency=4).apply(plan_on(g1, src))
        g2 = CloudGateway.simulated(seed=4)
        cp = CriticalPathExecutor(g2, concurrency=4).apply(plan_on(g2, src))
        assert be.ok and cp.ok
        assert cp.makespan_s <= be.makespan_s * 1.05

    def test_concurrency_limit_respected(self):
        gateway = CloudGateway.simulated(seed=5)
        plan = plan_on(gateway, microservices(services=4, vms_per_service=1))
        executor = BestEffortExecutor(gateway, concurrency=2)
        result = executor.apply(plan)
        # reconstruct max overlap from the operation records
        events = []
        for op in result.operations:
            events.append((op.t_submit, 1))
            events.append((op.t_complete, -1))
        events.sort()
        peak = cur = 0
        for _, delta in events:
            cur += delta
            peak = max(peak, cur)
        assert peak <= 2


    def test_rate_aware_pick_with_unroutable_type(self):
        """A type no provider routes counts as startable now -- its
        submit then fails typed -- while any other routing error is a
        defect and surfaces instead of being scheduled around."""

        class FlatPriority(CriticalPathExecutor):
            # the critical-path analysis prices every type, so it
            # rejects the unroutable one before any queue sees it
            def prepare(self, plan, dag):
                self._priority = {cid: 1.0 for cid in dag.nodes}
                self._plan = plan

        gateway = CloudGateway.simulated(seed=12)
        source = (
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "gcp_bucket" "b" {\n  name = "b"\n}\n'
        )
        plan = Planner(spec_lookup=gateway.try_spec).plan(
            build_graph(Configuration.parse(source)), StateDocument()
        )
        executor = FlatPriority(gateway)
        result = executor.apply(plan)
        assert result.succeeded == ["aws_vpc.v"]
        assert list(result.failed) == ["gcp_bucket.b"]
        assert [op.error_code for op in result.errors_for("gcp_bucket.b")] == [
            "UnknownResourceType"
        ]
        # the heap and the reference statement agree on the order
        ready = sorted(plan.changes)
        queue = executor._make_ready_queue()
        for cid in ready:
            queue.push(cid)
        assert queue.pop() == executor.pick_next(ready)

        def broken_routing(rtype):
            raise KeyError(rtype)

        gateway.plane_for = broken_routing
        with pytest.raises(KeyError):
            executor.pick_next(ready)
        with pytest.raises(KeyError):
            executor._make_ready_queue().push("gcp_bucket.b")

    def test_health_gating_with_unroutable_type(self):
        """Under a health monitor (the only path that asks for a
        change's partition) an unroutable type lands in the ``("", "")``
        partition and is not gated -- its submit fails typed -- while
        any other routing error surfaces instead of being read as
        "no partition"."""
        gateway = CloudGateway.simulated(seed=12)
        source = (
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "gcp_bucket" "b" {\n  name = "b"\n}\n'
        )

        def fresh_plan():
            # a planner that fills in neither provider nor region: the
            # executor must route
            planner = Planner(
                spec_lookup=gateway.try_spec, provider_lookup=lambda rtype: ""
            )
            return planner.plan(
                build_graph(Configuration.parse(source)), StateDocument()
            )

        plan = fresh_plan()
        health = HealthMonitor()
        executor = BestEffortExecutor(gateway, health=health)
        bucket = plan.changes["gcp_bucket.b"]
        assert executor._partition(bucket, plan.state) == ("", "")
        assert executor._partition(plan.changes["aws_vpc.v"], plan.state) == (
            "aws",
            gateway.default_region("aws_vpc"),
        )
        result = executor.apply(plan)
        assert result.succeeded == ["aws_vpc.v"]
        assert list(result.failed) == ["gcp_bucket.b"]
        assert not result.quarantined
        assert [op.error_code for op in result.errors_for("gcp_bucket.b")] == [
            "UnknownResourceType"
        ]
        assert [key[0] for key in health.partitions()] == ["aws"]

        def broken_routing(rtype):
            raise KeyError(rtype)

        plan = fresh_plan()
        gateway.default_region = broken_routing
        with pytest.raises(KeyError):
            BestEffortExecutor(gateway, health=HealthMonitor()).apply(plan)
        gateway.provider_of = broken_routing
        with pytest.raises(KeyError):
            executor._partition(bucket, plan.state)


class TestFailures:
    def test_permanent_failure_skips_descendants(self):
        gateway = CloudGateway.simulated(seed=6)
        gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InsufficientCapacity",
                message="no capacity",
                match_type="aws_subnet",
                transient=False,
                max_strikes=99,
            )
        )
        plan = plan_on(
            gateway, web_tier(web_vms=1, app_vms=1, with_lb=False, with_db=False)
        )
        result = CriticalPathExecutor(gateway).apply(plan)
        assert not result.ok
        assert any("aws_subnet" in k for k in result.failed)
        assert any("aws_virtual_machine" in k for k in result.skipped)
        # the VPC itself deployed fine
        assert "aws_vpc.web" in result.succeeded

    def test_transient_failure_retried(self):
        gateway = CloudGateway.simulated(seed=7)
        gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalError",
                message="retry me",
                match_type="aws_vpc",
                transient=True,
                max_strikes=2,
            )
        )
        plan = plan_on(gateway, 'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n')
        result = CriticalPathExecutor(
            gateway, retry=RetryPolicy(max_attempts=4, base_backoff_s=1.0)
        ).apply(plan)
        assert result.ok
        attempts = [op.attempt for op in result.operations if op.change_id == "aws_vpc.v"]
        assert max(attempts) == 3  # two faults then success

    def test_retries_exhausted(self):
        gateway = CloudGateway.simulated(seed=8)
        gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="InternalError",
                message="always",
                match_type="aws_vpc",
                transient=True,
                max_strikes=-1 if False else 99,
            )
        )
        plan = plan_on(gateway, 'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n')
        result = CriticalPathExecutor(
            gateway, retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0)
        ).apply(plan)
        assert not result.ok
        assert "aws_vpc.v" in result.failed

    def test_failed_apply_keeps_partial_state(self):
        gateway = CloudGateway.simulated(seed=9)
        gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="Bad",
                message="nope",
                match_type="aws_virtual_machine",
                transient=False,
                max_strikes=99,
            )
        )
        plan = plan_on(
            gateway, web_tier(web_vms=1, app_vms=0, with_lb=False, with_db=False)
        )
        result = CriticalPathExecutor(gateway).apply(plan)
        assert not result.ok
        # networking survived in state even though the VM failed
        assert any(
            e.address.type == "aws_subnet" for e in result.state.resources()
        )


class TestReplace:
    def test_replace_destroys_then_creates(self):
        gateway = CloudGateway.simulated(seed=10)
        src = 'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
        result = CriticalPathExecutor(gateway).apply(plan_on(gateway, src))
        old_id = result.state.resources()[0].resource_id
        src2 = src.replace("10.0.0.0/16", "10.7.0.0/16")
        result2 = CriticalPathExecutor(gateway).apply(
            plan_on(gateway, src2, result.state)
        )
        assert result2.ok
        new_entry = result2.state.resources()[0]
        assert new_entry.resource_id != old_id
        assert new_entry.attrs["cidr_block"] == "10.7.0.0/16"
        assert gateway.planes["aws"].count("aws_vpc") == 1


class TestOneApplyMode:
    def test_cli_apply_is_one_dispatch_loop_pass(
        self, monkeypatch, tmp_path, capsys
    ):
        """A CLI ``apply`` goes through ``PlanExecutor.apply`` once, over
        the whole plan; there is no other mode, in the library or the
        CLI, and the flags that once selected one are usage errors."""
        deploy_dir = os.path.dirname(repro.deploy.__file__)
        for name in sorted(os.listdir(deploy_dir)):
            if name.endswith(".py"):
                with open(os.path.join(deploy_dir, name)) as handle:
                    text = handle.read()
                assert "os.fork" not in text and "pickle" not in text, name

        calls = []
        real_apply = PlanExecutor.apply

        def counting_apply(self, plan, *args, **kwargs):
            calls.append(plan)
            return real_apply(self, plan, *args, **kwargs)

        monkeypatch.setattr(PlanExecutor, "apply", counting_apply)
        (tmp_path / "main.clc").write_text(web_tier(web_vms=1, app_vms=0))
        chdir = ["--chdir", str(tmp_path)]
        assert main([*chdir, "init"]) == 0
        for flag in (["--shards", "0"], ["--shard-workers", "2"]):
            with pytest.raises(SystemExit) as usage:
                main([*chdir, "apply", *flag])
            assert usage.value.code == 2
            assert flag[0] in capsys.readouterr().err
        assert calls == []
        assert main([*chdir, "apply"]) == 0
        assert len(calls) == 1
