"""Stress and failure-injection integration tests."""

import pytest

from repro.cloud import CloudGateway, FaultSpec
from repro.core import CloudlessEngine
from repro.deploy import CriticalPathExecutor, RetryPolicy
from repro.graph import Planner, build_graph, read_data_sources
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import microservices, sized_estate


class TestTransientFaultStorm:
    def test_apply_converges_under_flaky_cloud(self):
        """A 15% blanket transient failure rate is survivable with
        retries; the estate converges and state matches the cloud."""
        gateway = CloudGateway.simulated(seed=90)
        gateway.planes["aws"].faults.set_transient_rate(0.15)
        graph = build_graph(
            Configuration.parse(microservices(services=4, vms_per_service=2))
        )
        planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )
        state = StateDocument()
        data = read_data_sources(gateway, graph, state)
        plan = planner.plan(graph, state, data_values=data)
        executor = CriticalPathExecutor(
            gateway, retry=RetryPolicy(max_attempts=6, base_backoff_s=2.0)
        )
        result = executor.apply(plan)
        assert result.ok, result.failed
        assert gateway.planes["aws"].faults.fired > 0  # faults did fire
        # every state entry is backed by a live cloud record
        for entry in result.state.resources():
            assert gateway.find_record(entry.resource_id) is not None

    def test_retries_cost_extra_operations(self):
        def run(rate):
            gateway = CloudGateway.simulated(seed=91)
            gateway.planes["aws"].faults.set_transient_rate(rate)
            graph = build_graph(
                Configuration.parse(microservices(services=3, vms_per_service=1))
            )
            planner = Planner(spec_lookup=gateway.try_spec)
            plan = planner.plan(graph, StateDocument())
            result = CriticalPathExecutor(
                gateway, retry=RetryPolicy(max_attempts=8, base_backoff_s=5.0)
            ).apply(plan)
            assert result.ok
            return result

        clean = run(0.0)
        flaky = run(0.25)
        assert len(flaky.operations) > len(clean.operations)
        assert any(not op.ok for op in flaky.operations)
        assert max(op.attempt for op in flaky.operations) > 1

    def test_hang_fault_delays_completion(self):
        gateway = CloudGateway.simulated(seed=92)
        gateway.planes["aws"].faults.add_rule(
            FaultSpec(
                error_code="RequestTimeout",
                message="stuck",
                match_type="aws_s3_bucket",
                transient=True,
                extra_delay_s=900.0,  # hangs 15 minutes before failing
                max_strikes=1,
            )
        )
        graph = build_graph(
            Configuration.parse('resource "aws_s3_bucket" "b" { name = "x" }\n')
        )
        planner = Planner(spec_lookup=gateway.try_spec)
        plan = planner.plan(graph, StateDocument())
        result = CriticalPathExecutor(
            gateway, retry=RetryPolicy(max_attempts=3, base_backoff_s=1.0)
        ).apply(plan)
        assert result.ok
        assert result.makespan_s > 900.0


class TestScale:
    def test_large_estate_applies(self):
        engine = CloudlessEngine(seed=93)
        result = engine.apply(sized_estate(250))
        assert result.ok
        assert len(engine.state) >= 150
        # and a re-plan over the large estate stays a no-op
        assert engine.plan(sized_estate(250)).is_empty

    def test_large_estate_graph_analyses(self):
        from repro.graph import ImpactAnalyzer

        graph = build_graph(Configuration.parse(sized_estate(250)))
        analyzer = ImpactAnalyzer(graph)
        leaf = next(n for n in graph.nodes if "dns" in n)
        assert len(analyzer.impact_scope({leaf})) < 0.05 * len(graph.nodes)
        assert graph.dag.max_width() > 20

    def test_destroy_large_estate(self):
        engine = CloudlessEngine(seed=94)
        assert engine.apply(sized_estate(150)).ok
        result = engine.destroy()
        assert result.ok
        assert engine.gateway.planes["aws"].count() == 0


class TestQuotaPressure:
    def test_partial_deploy_then_quota_raise(self):
        engine = CloudlessEngine(seed=95)
        engine.gateway.planes["aws"].set_quota(
            "aws_s3_bucket", "us-east-1", 2
        )
        src = (
            'resource "aws_s3_bucket" "b" {\n'
            "  count = 4\n"
            '  name  = "b-${count.index}"\n'
            "}\n"
        )
        first = engine.apply(src, validate_first=False)
        assert not first.ok
        assert engine.gateway.planes["aws"].count("aws_s3_bucket") == 2
        assert any(
            d.error_code == "QuotaExceeded"
            for d in first.diagnoses
        )
        # quota raised: the next apply finishes the job incrementally
        engine.gateway.planes["aws"].set_quota("aws_s3_bucket", "us-east-1", 10)
        second = engine.apply(src, validate_first=False)
        assert second.ok
        assert second.plan.summary()["create"] == 2
