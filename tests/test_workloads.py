"""Workload generators and traffic traces."""

import pytest

from repro.lang import Configuration
from repro.validate import LEVEL_RULES, validate
from repro.workloads import (
    ConfigMutator,
    MutationError,
    distribute_demand,
    hub_spoke,
    microservices,
    ml_training,
    multi_cloud,
    ramp_surge_trace,
    sized_estate,
    vpn_site,
    web_tier,
)


class TestTopologies:
    @pytest.mark.parametrize(
        "source",
        [
            web_tier(),
            microservices(),
            hub_spoke(),
            ml_training(),
            vpn_site(),
            multi_cloud(),
        ],
        ids=["web", "micro", "hub", "ml", "vpn", "multicloud"],
    )
    def test_generators_produce_valid_configs(self, source):
        report = validate(source, level=LEVEL_RULES)
        assert report.ok, str(report)

    def test_web_tier_scales(self):
        small = Configuration.parse(web_tier(web_vms=1, app_vms=1))
        big = Configuration.parse(web_tier(web_vms=8, app_vms=4))
        assert len(big.managed_resources()) == len(small.managed_resources())
        # count meta scales instances, not declarations
        from repro.graph import build_graph

        assert len(build_graph(big)) > len(build_graph(small))

    def test_sized_estate_hits_target(self):
        from repro.graph import build_graph

        for target in (30, 100, 200):
            graph = build_graph(Configuration.parse(sized_estate(target)))
            assert 0.5 * target <= len(graph) <= 1.6 * target

    def test_hub_spoke_gateway_optional(self):
        with_gw = hub_spoke(with_gateway=True)
        without = hub_spoke(with_gateway=False)
        assert "azure_vpn_gateway" in with_gw
        assert "azure_vpn_gateway" not in without

    def test_multi_cloud_spans_providers(self):
        config = Configuration.parse(multi_cloud())
        types = config.resource_types()
        assert any(t.startswith("aws_") for t in types)
        assert any(t.startswith("azure_") for t in types)


class TestMutators:
    def test_every_kind_applies_to_rich_config(self):
        source = web_tier() + hub_spoke(name="h2")
        mutator = ConfigMutator(seed=9)
        for kind, _ in mutator.mutators():
            config = Configuration.parse(source)
            mutation = mutator.apply_kind(config, kind)
            assert mutation.kind == kind
            assert mutation.catchable_at in ("types", "rules")

    def test_apply_random_is_deterministic(self):
        source = web_tier()
        m1 = ConfigMutator(seed=5).apply_random(Configuration.parse(source))
        m2 = ConfigMutator(seed=5).apply_random(Configuration.parse(source))
        assert m1.kind == m2.kind
        assert m1.target == m2.target

    def test_mutation_error_when_no_site(self):
        mutator = ConfigMutator(seed=1)
        config = Configuration.parse("")
        with pytest.raises(MutationError):
            mutator.apply_random(config)

    def test_mutated_config_differs(self):
        source = web_tier()
        clean = Configuration.parse(source)
        mutated = Configuration.parse(source)
        ConfigMutator(seed=2).apply_kind(mutated, "bad_enum")
        clean_report = validate(clean, level=LEVEL_RULES)
        bad_report = validate(mutated, level=LEVEL_RULES)
        assert clean_report.ok and not bad_report.ok


class TestTraffic:
    def test_ramp_surge_shape(self):
        trace = ramp_surge_trace(duration_s=1000, step_s=10, base=100, peak=1000)
        values = [p.value for p in trace]
        assert max(values) > 800
        assert values[0] < 200
        assert values[-1] < 300  # cooled down

    def test_traces_deterministic(self):
        a = [p.value for p in ramp_surge_trace(seed=4)]
        b = [p.value for p in ramp_surge_trace(seed=4)]
        assert a == b

    def test_distribute_demand(self):
        loads, dropped = distribute_demand(1000.0, 4, capacity=300.0)
        assert loads == [250.0] * 4
        assert dropped == 0.0
        loads, dropped = distribute_demand(2000.0, 4, capacity=300.0)
        assert loads == [300.0] * 4
        assert dropped == pytest.approx(800.0)

    def test_distribute_no_instances(self):
        loads, dropped = distribute_demand(100.0, 0, capacity=10.0)
        assert loads == [] and dropped == 100.0
