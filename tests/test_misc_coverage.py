"""Coverage for smaller units: critical path, cost, policy actions,
emitter details, data-source chaining, addressing helpers."""

import pytest

from repro.addressing import data, managed
from repro.cloud import CloudGateway
from repro.core import CloudlessEngine
from repro.graph import analyze, build_graph, Planner
from repro.lang import Configuration
from repro.policy import (
    CostEstimator,
    Deny,
    Notify,
    PHASE_PLAN,
    Policy,
    UnsupportedPolicyError,
    Warn,
)
from repro.state import StateDocument
from repro.workloads import web_tier


class TestCriticalPathAnalysis:
    def make_plan(self, gateway):
        graph = build_graph(Configuration.parse(web_tier(web_vms=3, app_vms=2)))
        planner = Planner(
            spec_lookup=gateway.try_spec,
            region_lookup=gateway.region_for,
            provider_lookup=gateway.provider_of,
        )
        return planner.plan(graph, StateDocument())

    def test_analysis_fields(self, gateway):
        plan = self.make_plan(gateway)
        analysis = analyze(plan, gateway.mean_latency)
        assert analysis.critical_length_s > 0
        assert analysis.total_work_s > analysis.critical_length_s
        assert analysis.parallelism_bound > 1.0
        assert analysis.max_width >= 3
        assert analysis.critical_path  # non-empty chain of change ids

    def test_critical_path_ends_at_a_sink(self, gateway):
        plan = self.make_plan(gateway)
        dag = plan.execution_dag()
        analysis = analyze(plan, gateway.mean_latency, execution_dag=dag)
        last = analysis.critical_path[-1]
        assert dag.successors(last) == set()

    def test_priorities_monotone_along_path(self, gateway):
        plan = self.make_plan(gateway)
        analysis = analyze(plan, gateway.mean_latency)
        priorities = [analysis.priorities[n] for n in analysis.critical_path]
        assert priorities == sorted(priorities, reverse=True)

    def test_analysis_cache_evicts_the_least_recently_used(self, gateway):
        """A hit renews an entry: with the cache full, a hit on the
        oldest analysis and one insert evict the second oldest."""
        from repro.graph.critical_path import (
            _ANALYSIS_CACHE_MAX,
            clear_analysis_cache,
        )

        plan = self.make_plan(gateway)

        def analysis(scale):  # a distinct cache key per scale
            return analyze(
                plan, lambda rtype, op: scale * gateway.mean_latency(rtype, op)
            )

        clear_analysis_cache()
        try:
            first, second = analysis(1), analysis(2)
            for scale in range(3, _ANALYSIS_CACHE_MAX + 1):
                analysis(scale)
            assert analysis(1) is first  # a hit on the oldest entry
            analysis(_ANALYSIS_CACHE_MAX + 1)  # one insert past the bound
            assert analysis(1) is first
            assert analysis(2) is not second
        finally:
            clear_analysis_cache()

    def test_empty_plan(self, gateway):
        graph = build_graph(Configuration.parse(""))
        plan = Planner().plan(graph, StateDocument())
        analysis = analyze(plan, gateway.mean_latency)
        assert analysis.critical_length_s == 0.0
        assert analysis.parallelism_bound == 1.0


class TestCostEstimator:
    def test_estimate_state(self):
        engine = CloudlessEngine(seed=50)
        assert engine.apply(web_tier(web_vms=2, app_vms=1)).ok
        estimator = CostEstimator()
        total = estimator.estimate_state(engine.state)
        assert total > 0
        # scaling up raises the estimate
        engine.apply(web_tier(web_vms=5, app_vms=1))
        assert estimator.estimate_state(engine.state) > total

    def test_price_book(self):
        monthly = CostEstimator().resource_monthly(
            "aws_virtual_machine", {"size": "large"}
        )
        # $0.05 an hour, four times over for "large", 730 hours a month
        assert monthly == pytest.approx(0.05 * 4 * 730.0)

    def test_plan_estimate_excludes_deletes(self):
        engine = CloudlessEngine(seed=51)
        assert engine.apply(web_tier(web_vms=4, app_vms=0, with_db=False)).ok
        shrink_plan = engine.plan(web_tier(web_vms=1, app_vms=0, with_db=False))
        estimator = CostEstimator()
        assert estimator.estimate_plan(shrink_plan) < estimator.estimate_state(
            engine.state
        )


class TestPolicyLanguage:
    def test_unknown_phase_rejected(self):
        with pytest.raises(UnsupportedPolicyError):
            Policy(
                name="x",
                phase="full-moon",
                observe=lambda ctx: 1,
                condition=lambda v: True,
                actions=[],
            )

    def test_action_rendering(self):
        policy = Policy(
            name="p",
            phase=PHASE_PLAN,
            observe=lambda ctx: 7,
            condition=lambda v: True,
            actions=[Deny("bad: {observation}"), Warn("careful"), Notify("hi")],
        )

        class Ctx:
            observation = None

        requests = policy.evaluate(Ctx())
        kinds = [r.kind for r in requests]
        assert kinds == ["deny", "warn", "notify"]
        assert "7" in requests[0].message
        assert "[ops]" in requests[2].message

    def test_condition_false_produces_nothing(self):
        policy = Policy(
            name="p",
            phase=PHASE_PLAN,
            observe=lambda ctx: 1,
            condition=lambda v: v > 10,
            actions=[Deny("no")],
        )

        class Ctx:
            observation = None

        assert policy.evaluate(Ctx()) == []


class TestDataSourceChaining:
    def test_data_to_data_dependency(self, gateway):
        """A data source whose query uses another data source's result."""
        from repro.graph.plan import read_data_sources

        gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "seed-us-east-1"}, "us-east-1"
        )
        source = (
            'data "aws_region" "r" {}\n'
            'data "aws_s3_bucket" "b" {\n'
            '  name = "seed-${data.aws_region.r.name}"\n'
            "}\n"
            'resource "aws_dns_record" "d" {\n'
            '  name  = "rec"\n'
            '  zone  = "z"\n'
            "  value = data.aws_s3_bucket.b.id\n"
            "}\n"
        )
        graph = build_graph(Configuration.parse(source))
        values = read_data_sources(gateway, graph, StateDocument())
        assert values["data.aws_s3_bucket.b"]["name"] == "seed-us-east-1"

    def test_reads_in_dependency_order_not_name_order(self, gateway, monkeypatch):
        from repro.graph.plan import read_data_sources

        plane = gateway.planes["aws"]
        plane.external_create("aws_s3_bucket", {"name": "base"}, "us-east-1")
        plane.external_create("aws_s3_bucket", {"name": "base-copy"}, "us-east-1")
        source = (
            'data "aws_s3_bucket" "a" {\n'
            '  name = "${data.aws_s3_bucket.b.name}-copy"\n'
            "}\n"
            'data "aws_s3_bucket" "b" {\n'
            '  name = "base"\n'
            "}\n"
        )
        asked = []
        real = gateway.read_data

        def read_data(rtype, attrs, region=""):
            asked.append(attrs["name"])
            return real(rtype, attrs, region)

        monkeypatch.setattr(gateway, "read_data", read_data)
        graph = build_graph(Configuration.parse(source))
        values = read_data_sources(gateway, graph, StateDocument())
        assert asked == ["base", "base-copy"]
        assert values["data.aws_s3_bucket.a"]["name"] == "base-copy"

    def test_a_graph_without_data_sources_is_not_walked(self, gateway, monkeypatch):
        from repro.graph.plan import read_data_sources

        graph = build_graph(Configuration.parse(web_tier(web_vms=2, app_vms=1)))

        def walk():
            raise AssertionError("walked a graph with no data source")

        monkeypatch.setattr(graph.dag, "topological_order", walk)
        assert read_data_sources(gateway, graph, StateDocument()) == {}

    def test_missing_data_lookup_raises(self, gateway):
        from repro.cloud import CloudAPIError
        from repro.graph.plan import read_data_sources

        source = 'data "aws_s3_bucket" "ghost" {\n  name = "nope"\n}\n'
        graph = build_graph(Configuration.parse(source))
        with pytest.raises(CloudAPIError):
            read_data_sources(gateway, graph, StateDocument())


class TestAddressingHelpers:
    def test_shorthands(self):
        assert str(managed("aws_vpc", "x")) == "aws_vpc.x"
        assert str(data("aws_region", "r")) == "data.aws_region.r"

    def test_in_module_and_with_key(self):
        addr = managed("aws_vm", "web").in_module("net").with_key(2)
        assert str(addr) == "module.net.aws_vm.web[2]"
        assert str(addr.config_address) == "module.net.aws_vm.web"

    def test_invalid_mode(self):
        from repro.addressing import ResourceAddress

        with pytest.raises(ValueError):
            ResourceAddress(type="t", name="n", mode="imaginary")


class TestSpecHelpers:
    def test_attribute_spec_views(self, catalog):
        spec = catalog.try_spec("aws_virtual_machine")
        nic = spec.attr("nic_ids")
        assert nic.ref_target == "aws_network_interface"
        assert nic.is_ref_list
        size = spec.attr("size")
        assert size.enum_values == ["small", "medium", "large", "xlarge"]
        assert spec.attr("id").computed
        assert {a.name for a in spec.required_attrs()} >= {"name", "nic_ids"}

    def test_catalogs_are_well_formed(self, catalog):
        for specs in catalog.specs.values():
            for rtype, spec in sorted(specs.items()):
                assert spec.attr("id") is not None and spec.attr("id").computed
                assert spec.latency.create_s > 0
                for aspec in spec.reference_attrs():
                    target = aspec.ref_target
                    assert catalog.try_spec(target) is not None, (
                        f"{rtype}.{aspec.name} references unknown type {target}"
                    )
