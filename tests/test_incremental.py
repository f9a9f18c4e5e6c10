"""Impact analysis, the engine's scoped plan of an edit, and the
full-refresh baseline it is measured against (E2 machinery)."""

import dataclasses

from repro import perf
from repro.cloud import CloudGateway
from repro.core import CloudlessEngine
from repro.deploy import (
    CriticalPathExecutor,
    UpdatePipeline,
    UpdatePlanResult,
    refresh_state,
)
from repro.graph import (
    ImpactAnalyzer,
    Plan,
    Planner,
    build_graph,
    diff_configurations,
    read_data_sources,
)
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
        scope = analyzer.impact_scope({"aws_dns_record.svc_0_dns"})
        assert len(scope) / len(graph.nodes) < 0.1

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
        """The engine refreshes an edit through its log watch: one read
        per cloud plane, where the baseline reads every state entry."""
        src = microservices(services=2, vms_per_service=1)
        update = plan_both(src, src.replace('zone  = "example.sim"', 'zone  = "z.sim"'))
        planes = len(CloudGateway.simulated(seed=21).planes)
        assert update.api_calls == planes
        refresh = update.baseline.refresh
        assert refresh.api_calls == len(refresh.refreshed)
        assert update.api_calls < refresh.api_calls

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


@dataclasses.dataclass
class Update:
    """One edit planned twice over one deployed program."""

    #: the full-refresh baseline's
    baseline: UpdatePlanResult
    #: the engine's
    plan: Plan
    #: ``engine.last_plan_scope``: (addresses diffed, graph nodes)
    scope: tuple
    #: what the engine's watch + plan cost
    api_calls: int
    turnaround_s: float


def plan_both(old_src, new_src, deployed=None):
    """A resident engine applies ``deployed`` (``old_src`` by default),
    plans ``old_src``, then watches and plans ``new_src``; the
    full-refresh baseline plans ``new_src`` over the same estate. The
    engine's plan must be a scoped one, and the two must print the same
    plan."""
    engine = CloudlessEngine(seed=21)
    assert engine.apply(deployed or old_src).ok
    engine.plan(old_src)
    started, calls = engine.clock.now, engine.gateway.total_api_calls()
    engine.watch()
    perf.reset()
    perf.enable()
    try:
        plan = engine.plan(new_src)
        assert perf.snapshot()["counters"].get("plan.scoped") == 1
    finally:
        perf.disable()
        perf.reset()
    api_calls = engine.gateway.total_api_calls() - calls
    turnaround_s = engine.clock.now - started
    baseline = UpdatePipeline(engine.gateway).plan_update(
        Configuration.parse(new_src), engine.state.copy()
    )
    assert plan.render() == baseline.plan.render()
    assert plan.summary() == baseline.plan.summary()
    return Update(baseline, plan, engine.last_plan_scope, api_calls, turnaround_s)


class TestUpdatePipeline:
    """The engine's plan of a one-record edit against the baseline's."""

    @staticmethod
    def edit_zone():
        old_src = microservices(services=4, vms_per_service=2)
        return plan_both(
            old_src, old_src.replace('zone  = "example.sim"', 'zone  = "z.sim"')
        )

    def test_small_delta_small_scope(self):
        update = self.edit_zone()
        diffed, nodes = update.scope
        assert diffed < nodes == len(update.baseline.graph)
        assert update.plan.summary()["update"] == 4

    def test_incremental_uses_fewer_api_calls(self):
        update = self.edit_zone()
        assert update.api_calls < update.baseline.refresh.api_calls / 2

    def test_incremental_faster_turnaround(self):
        update = self.edit_zone()
        assert update.turnaround_s < update.baseline.turnaround_s

    def test_plans_equivalent_on_scoped_change(self):
        update = self.edit_zone()

        def actions(plan):
            return {
                cid: c.action.value
                for cid, c in plan.changes.items()
                if c.action.value not in ("noop", "read")
            }

        assert actions(update.plan) == actions(update.baseline.plan)


class TestSeedingFollowsWhatAnEditReaches:
    """The engine's scoped plan of an edit is the full plan of it:
    :func:`plan_both` over one deployed program, the same edit."""

    def test_a_local_read_through_another_local(self):
        old = (
            'locals {\n  base   = "logs-a"\n  bucket = local.base\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = local.bucket\n}\n'
        )
        new = old.replace("logs-a", "logs-b")
        update = plan_both(old, new)
        assert update.plan.summary()["update"] == 1
        delta = diff_configurations(Configuration.parse(old), Configuration.parse(new))
        assert delta.changed_locals == {"base"}
        assert update.scope == (1, 1)

    def test_a_provider_blocks_region(self):
        old = (
            'provider "aws" {\n  region = "us-east-1"\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n}\n'
        )
        new = old.replace("us-east-1", "us-west-2")
        update = plan_both(old, new)
        assert update.plan.summary()["replace"] == 1
        delta = diff_configurations(Configuration.parse(old), Configuration.parse(new))
        assert delta.changed_providers == {"aws"}
        assert update.scope == (1, 1)

    def test_an_aliased_provider_block_appearing(self):
        old = (
            'provider "aws" {\n  region = "us-east-1"\n}\n'
            'resource "aws_s3_bucket" "a" {\n  provider = aws.west\n  name = "a"\n}\n'
            'resource "aws_s3_bucket" "b" {\n  name = "b"\n}\n'
        )
        new = old + 'provider "aws" {\n  alias  = "west"\n  region = "us-west-2"\n}\n'
        update = plan_both(old, new)
        assert update.plan.summary()["replace"] == 1
        assert update.scope == (1, 2)

    def test_a_provider_region_read_from_a_changed_local(self):
        old = (
            'locals {\n  home = "us-east-1"\n}\n'
            'provider "aws" {\n  region = local.home\n}\n'
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n}\n'
        )
        new = old.replace("us-east-1", "us-west-2")
        update = plan_both(old, new)
        assert update.plan.summary()["replace"] == 1
        delta = diff_configurations(Configuration.parse(old), Configuration.parse(new))
        assert delta.changed_providers == set()

    def test_an_ignore_changes_list(self):
        """``lifecycle`` is parsed out of the declaration's body."""
        old = (
            'resource "aws_s3_bucket" "a" {\n  name = "logs-a"\n'
            "  versioning = false\n"
            "  lifecycle {\n    ignore_changes = [versioning]\n  }\n}\n"
        )
        edited = old.replace("versioning = false", "versioning = true")
        assert plan_both(old, edited).plan.is_empty
        update = plan_both(
            edited,
            edited.replace("ignore_changes = [versioning]", "ignore_changes = []"),
            deployed=old,
        )
        assert update.plan.summary()["update"] == 1

    def test_a_declaration_nobody_created(self):
        """An unchanged declaration with no state entry is a create in
        the full plan, so it is one in the scoped plan."""
        old = 'resource "aws_s3_bucket" "a" {\n  name = "a"\n}\n'
        new = old + 'resource "aws_s3_bucket" "b" {\n  name = "b"\n}\n'
        update = plan_both(new, new, deployed=old)
        assert update.plan.summary()["create"] == 1
        assert update.scope == (1, 2)

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
