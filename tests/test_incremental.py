"""Incremental update pipeline and impact analysis (E2 machinery)."""

import pytest

from repro.cloud import CloudGateway
from repro.deploy import CriticalPathExecutor, UpdatePipeline, refresh_state
from repro.deploy.incremental import read_data_sources
from repro.graph import ImpactAnalyzer, Planner, build_graph, diff_configurations
from repro.lang import Configuration
from repro.state import StateDocument
from repro.workloads import microservices


def deploy(gateway, source):
    graph = build_graph(Configuration.parse(source))
    planner = Planner(
        spec_lookup=gateway.try_spec,
        region_lookup=gateway.region_for,
        provider_lookup=gateway.provider_of,
    )
    state = StateDocument()
    data = read_data_sources(gateway, graph, state)
    plan = planner.plan(graph, state, data_values=data)
    result = CriticalPathExecutor(gateway).apply(plan)
    assert result.ok
    return result.state


class TestConfigDelta:
    def test_no_change(self):
        src = microservices(services=2)
        delta = diff_configurations(
            Configuration.parse(src), Configuration.parse(src)
        )
        assert delta.is_empty

    def test_attribute_change_detected(self):
        old = microservices(services=2)
        new = old.replace('zone  = "example.sim"', 'zone  = "other.sim"')
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        assert not delta.is_empty
        changed_types = {key[1] for key in delta.changed_resources}
        assert changed_types == {"aws_dns_record"}

    def test_added_and_removed_decls(self):
        old = 'resource "aws_s3_bucket" "a" { name = "a" }\n'
        new = 'resource "aws_s3_bucket" "b" { name = "b" }\n'
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        names = {key[2] for key in delta.changed_resources}
        assert names == {"a", "b"}

    def test_variable_and_local_changes(self):
        old = 'variable "n" { default = 1 }\nlocals { x = 1 }\n'
        new = 'variable "n" { default = 2 }\nlocals { x = 2 }\n'
        delta = diff_configurations(
            Configuration.parse(old), Configuration.parse(new)
        )
        assert delta.changed_variables == {"n"}
        assert delta.changed_locals == {"x"}


class TestImpactAnalyzer:
    def test_scope_is_descendants(self):
        src = microservices(services=3, vms_per_service=1)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        seeds = {"aws_subnet.svc_0"}
        scope = analyzer.impact_scope(seeds)
        assert "aws_subnet.svc_0" in scope
        assert "aws_virtual_machine.svc_0_vm[0]" in scope
        # service 1 untouched
        assert not any("svc_1" in s for s in scope)

    def test_scope_fraction_small_for_leaf(self):
        src = microservices(services=6, vms_per_service=2)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        fraction = analyzer.scope_fraction({"aws_dns_record.svc_0_dns"})
        assert fraction < 0.1

    def test_root_change_taints_all_dependents(self):
        src = microservices(services=3, vms_per_service=1)
        graph = build_graph(Configuration.parse(src))
        analyzer = ImpactAnalyzer(graph)
        scope = analyzer.impact_scope({"aws_vpc.svc"})
        # everything except the independent IAM role flows from the VPC
        assert scope == set(graph.nodes) - {"aws_iam_role.svc_role"}


class TestRefresh:
    def test_full_refresh_reads_everything(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=2, vms_per_service=1))
        before = gateway.total_api_calls()
        result = refresh_state(gateway, state)
        assert len(result.refreshed) == len(state)
        assert result.api_calls == len(state)
        assert gateway.total_api_calls() - before == len(state)

    def test_scoped_refresh_reads_subset(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=2, vms_per_service=1))
        subset = {str(state.resources()[0].address)}
        result = refresh_state(gateway, state, addresses=subset)
        assert result.api_calls == 1

    def test_refresh_pulls_in_drift(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, microservices(services=1, vms_per_service=1))
        vm = next(
            e for e in state.resources() if e.address.type == "aws_virtual_machine"
        )
        gateway.planes["aws"].external_update(vm.resource_id, {"size": "large"})
        result = refresh_state(gateway, state)
        assert str(vm.address) in result.drifted
        # entries are immutable: the refreshed values live in a
        # successor entry in state, not in the stale reference
        assert state.get(vm.address).attrs["size"] == "large"

    def test_refresh_drops_missing(self):
        gateway = CloudGateway.simulated(seed=20)
        state = deploy(gateway, 'resource "aws_s3_bucket" "b" { name = "b" }\n')
        rid = state.resources()[0].resource_id
        gateway.planes["aws"].external_delete(rid)
        result = refresh_state(gateway, state)
        assert result.missing == ["aws_s3_bucket.b"]
        assert len(state) == 0


class TestUpdatePipeline:
    def run_both(self, delta_fn):
        outcomes = {}
        for incremental in (False, True):
            gateway = CloudGateway.simulated(seed=21)
            old_src = microservices(services=4, vms_per_service=2)
            state = deploy(gateway, old_src)
            new_src = delta_fn(old_src)
            pipeline = UpdatePipeline(gateway, incremental=incremental)
            outcomes[incremental] = pipeline.plan_update(
                Configuration.parse(old_src),
                Configuration.parse(new_src),
                state,
            )
        return outcomes[False], outcomes[True]

    def test_small_delta_small_scope(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.scope_size < scoped.plan.graph if False else True
        assert scoped.scope_size < len(scoped.graph)
        # both plans agree on what changes
        assert full.plan.summary()["update"] == scoped.plan.summary()["update"]

    def test_incremental_uses_fewer_api_calls(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.refresh.api_calls < full.refresh.api_calls / 2

    def test_incremental_faster_turnaround(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        assert scoped.turnaround_s < full.turnaround_s

    def test_plans_equivalent_on_scoped_change(self):
        full, scoped = self.run_both(
            lambda s: s.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )
        full_actions = {
            cid: c.action.value
            for cid, c in full.plan.changes.items()
            if c.action.value not in ("noop", "read")
        }
        scoped_actions = {
            cid: c.action.value
            for cid, c in scoped.plan.changes.items()
            if c.action.value not in ("noop", "read")
        }
        assert full_actions == scoped_actions


class TestSeedingFollowsWhatAnEditReaches:
    """The incremental plan of an edit is the full plan of it: both
    pipelines over one deployed program, the same edit."""

    @staticmethod
    def plan_both(old_src, new_src, variables=None, deployed=None):
        out = {}
        for incremental in (False, True):
            gateway = CloudGateway.simulated(seed=21)
            state = deploy(gateway, deployed or old_src)
            out[incremental] = UpdatePipeline(
                gateway, incremental=incremental
            ).plan_update(
                Configuration.parse(old_src),
                Configuration.parse(new_src),
                state,
                variables=variables,
            )
        assert out[True].plan.render() == out[False].plan.render()
        assert out[True].plan.summary() == out[False].plan.summary()
        return out[False], out[True]

    def test_a_local_read_through_another_local(self):
        old = (
            'locals {\n  base   = "logs-a"\n  bucket = local.base\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = local.bucket\n}\n'
        )
        full, scoped = self.plan_both(old, old.replace("logs-a", "logs-b"))
        assert full.plan.summary()["update"] == 1
        assert scoped.delta.changed_locals == {"base"}
        assert scoped.scope == {"aws_s3_bucket.a"}

    def test_a_provider_blocks_region(self):
        old = (
            'provider "aws" {\n  region = "us-east-1"\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n}\n'
        )
        full, scoped = self.plan_both(old, old.replace("us-east-1", "us-west-2"))
        assert full.plan.summary()["replace"] == 1
        assert scoped.delta.changed_providers == {"aws"}
        assert scoped.scope == {"aws_s3_bucket.a"}

    def test_an_aliased_provider_block_appearing(self):
        old = (
            'provider "aws" {\n  region = "us-east-1"\n}\n'
            'resource "aws_s3_bucket" "a" {\n  provider = aws.west\n  name = "a"\n}\n'
            'resource "aws_s3_bucket" "b" {\n  name = "b"\n}\n'
        )
        new = old + 'provider "aws" {\n  alias  = "west"\n  region = "us-west-2"\n}\n'
        full, scoped = self.plan_both(old, new)
        assert full.plan.summary()["replace"] == 1
        assert scoped.scope == {"aws_s3_bucket.a"}

    def test_a_provider_region_read_from_a_changed_local(self):
        old = (
            'locals {\n  home = "us-east-1"\n}\n'
            'provider "aws" {\n  region = local.home\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n}\n'
        )
        full, scoped = self.plan_both(old, old.replace("us-east-1", "us-west-2"))
        assert full.plan.summary()["replace"] == 1
        assert scoped.delta.changed_providers == set()

    def test_an_ignore_changes_list(self):
        """``lifecycle`` is parsed out of the declaration's body."""
        old = (
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n'
            "  versioning = false\n"
            "  lifecycle {\n    ignore_changes = [versioning]\n  }\n}\n"
        )
        edited = old.replace("versioning = false", "versioning = true")
        full, scoped = self.plan_both(old, edited)
        assert full.plan.is_empty
        full, scoped = self.plan_both(
            edited,
            edited.replace("ignore_changes = [versioning]", "ignore_changes = []"),
            deployed=old,
        )
        assert full.plan.summary()["update"] == 1

    def test_a_declaration_nobody_created(self):
        """An unchanged declaration with no state entry is a create in
        the full plan, so it is one in the scoped plan."""
        old = 'resource "aws_s3_bucket" "a" {\n  name = "a"\n}\n'
        new = old + 'resource "aws_s3_bucket" "b" {\n  name = "b"\n}\n'
        gateway = CloudGateway.simulated(seed=21)
        state = deploy(gateway, old)
        both = Configuration.parse(new)
        result = UpdatePipeline(gateway).plan_update(both, both, state)
        assert result.delta.is_empty
        assert result.plan.summary()["create"] == 1

    def test_a_variable_given_another_value(self):
        src = (
            'variable "env" {\n  default = "dev"\n}\n'
            'locals {\n  prefix = "${var.env}-logs"\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = local.prefix\n}\n'
            'resource "aws_s3_bucket" "b" {\n  name = "fixed"\n}\n'
        )
        config = Configuration.parse(src)
        assert diff_configurations(config, config, {}, {}).is_empty
        assert diff_configurations(config, config, {"env": 1}, {"env": 1}).is_empty
        for was, now in (({}, {"env": "prod"}), ({"env": 1}, {"env": True})):
            delta = diff_configurations(config, config, was, now)
            assert delta.changed_variables == {"env"}
            seeds = ImpactAnalyzer(build_graph(config)).seeds_from_delta(delta)
            assert seeds == {"aws_s3_bucket.a"}
