"""Planner tests: action classification, replacement, execution DAG."""

import pytest

from repro.addressing import ResourceAddress
from repro.graph.builder import build_graph
from repro.graph.plan import Action, PlanError, Planner
from repro.lang import Configuration
from repro.state import ResourceState, StateDocument
from repro.types import SchemaRegistry

REGISTRY = SchemaRegistry.default()


def make_planner():
    return Planner(spec_lookup=REGISTRY.spec_for)


def plan_for(source, state=None):
    graph = build_graph(Configuration.parse(source))
    return make_planner().plan(graph, state or StateDocument())


def vpc_state(attrs=None, region="us-east-1"):
    doc = StateDocument()
    doc.set(
        ResourceState(
            address=ResourceAddress.parse("aws_vpc.main"),
            resource_id="vpc-1",
            provider="aws",
            attrs=attrs
            or {"id": "vpc-1", "name": "main", "cidr_block": "10.0.0.0/16"},
            region=region,
        )
    )
    return doc


VPC_SOURCE = (
    'resource "aws_vpc" "main" {\n'
    '  name       = "main"\n'
    '  cidr_block = "10.0.0.0/16"\n'
    "}\n"
)


class TestActions:
    def test_create_when_absent(self):
        plan = plan_for(VPC_SOURCE)
        assert plan.changes["aws_vpc.main"].action is Action.CREATE

    def test_noop_when_unchanged(self):
        plan = plan_for(VPC_SOURCE, vpc_state())
        assert plan.changes["aws_vpc.main"].action is Action.NOOP
        assert plan.is_empty

    def test_update_on_mutable_change(self):
        plan = plan_for(
            VPC_SOURCE.replace('name       = "main"', 'name       = "renamed"'),
            vpc_state(),
        )
        change = plan.changes["aws_vpc.main"]
        assert change.action is Action.UPDATE
        assert [d.name for d in change.diffs] == ["name"]

    def test_replace_on_immutable_change(self):
        plan = plan_for(
            VPC_SOURCE.replace("10.0.0.0/16", "10.9.0.0/16"), vpc_state()
        )
        change = plan.changes["aws_vpc.main"]
        assert change.action is Action.REPLACE
        assert change.replacement_reasons() == ["cidr_block"]

    def test_delete_when_removed_from_config(self):
        plan = plan_for("", vpc_state())
        assert plan.changes["aws_vpc.main"].action is Action.DELETE

    def test_count_shrink_deletes_extras(self):
        doc = StateDocument()
        for i in range(3):
            doc.set(
                ResourceState(
                    address=ResourceAddress.parse(f"aws_s3_bucket.b[{i}]"),
                    resource_id=f"bkt-{i}",
                    provider="aws",
                    attrs={"id": f"bkt-{i}", "name": f"b-{i}", "versioning": False},
                    region="us-east-1",
                )
            )
        plan = plan_for(
            'resource "aws_s3_bucket" "b" {\n'
            "  count = 2\n"
            '  name  = "b-${count.index}"\n'
            "}\n",
            doc,
        )
        assert plan.changes["aws_s3_bucket.b[2]"].action is Action.DELETE
        assert plan.changes["aws_s3_bucket.b[0]"].action is Action.NOOP

    def test_region_move_is_replacement(self):
        doc = StateDocument()
        doc.set(
            ResourceState(
                address=ResourceAddress.parse("azure_resource_group.rg"),
                resource_id="rg-1",
                provider="azure",
                attrs={"id": "rg-1", "name": "rg", "location": "eastus"},
                region="eastus",
            )
        )
        planner = Planner(
            spec_lookup=REGISTRY.spec_for,
            region_lookup=lambda rtype, attrs: attrs.get("location", ""),
        )
        graph = build_graph(
            Configuration.parse(
                'resource "azure_resource_group" "rg" {\n'
                '  name     = "rg"\n'
                '  location = "westeurope"\n'
                "}\n"
            )
        )
        plan = planner.plan(graph, doc)
        assert plan.changes["azure_resource_group.rg"].action is Action.REPLACE

    def test_ignore_changes_suppresses_diff(self):
        plan = plan_for(
            'resource "aws_vpc" "main" {\n'
            '  name       = "renamed"\n'
            '  cidr_block = "10.0.0.0/16"\n'
            "  lifecycle { ignore_changes = [name] }\n"
            "}\n",
            vpc_state(),
        )
        assert plan.changes["aws_vpc.main"].action is Action.NOOP

    def test_prevent_destroy_blocks_delete(self):
        state = vpc_state()
        with pytest.raises(PlanError):
            plan_for(
                VPC_SOURCE.replace("10.0.0.0/16", "10.1.0.0/16").replace(
                    "}\n", "  lifecycle { prevent_destroy = true }\n}\n"
                ),
                state,
            )

    def test_unknown_values_from_new_deps(self):
        plan = plan_for(
            'resource "aws_vpc" "v" {\n'
            '  name       = "v"\n'
            '  cidr_block = "10.0.0.0/16"\n'
            "}\n"
            'resource "aws_subnet" "s" {\n'
            '  name       = "s"\n'
            "  vpc_id     = aws_vpc.v.id\n"
            '  cidr_block = "10.0.1.0/24"\n'
            "}\n"
        )
        subnet = plan.changes["aws_subnet.s"]
        assert subnet.action is Action.CREATE
        diff_names = {d.name for d in subnet.diffs}
        assert "vpc_id" in diff_names

    def test_dependent_updates_when_dep_replaced(self):
        # vpc replaced -> subnet's vpc_id becomes unknown -> update
        doc = vpc_state()
        doc.set(
            ResourceState(
                address=ResourceAddress.parse("aws_subnet.s"),
                resource_id="subnet-1",
                provider="aws",
                attrs={
                    "id": "subnet-1",
                    "name": "s",
                    "vpc_id": "vpc-1",
                    "cidr_block": "10.9.1.0/24",
                },
                region="us-east-1",
            )
        )
        plan = plan_for(
            'resource "aws_vpc" "main" {\n'
            '  name       = "main"\n'
            '  cidr_block = "10.9.0.0/16"\n'  # forces replacement
            "}\n"
            'resource "aws_subnet" "s" {\n'
            '  name       = "s"\n'
            "  vpc_id     = aws_vpc.main.id\n"
            '  cidr_block = "10.9.1.0/24"\n'
            "}\n",
            doc,
        )
        assert plan.changes["aws_vpc.main"].action is Action.REPLACE
        assert plan.changes["aws_subnet.s"].action in (
            Action.UPDATE,
            Action.REPLACE,
        )


class TestScopedPlanning:
    def test_limit_to_marks_rest_noop(self):
        source = (
            'resource "aws_s3_bucket" "a" { name = "a" }\n'
            'resource "aws_s3_bucket" "b" { name = "b" }\n'
        )
        graph = build_graph(Configuration.parse(source))
        plan = make_planner().plan(
            graph, StateDocument(), limit_to={"aws_s3_bucket.a"}
        )
        assert plan.changes["aws_s3_bucket.a"].action is Action.CREATE
        assert plan.changes["aws_s3_bucket.b"].action is Action.NOOP


class TestExecutionDag:
    def test_creates_follow_dependencies(self):
        plan = plan_for(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "aws_subnet" "s" {\n'
            '  name = "s"\n  vpc_id = aws_vpc.v.id\n  cidr_block = "10.0.1.0/24"\n'
            "}\n"
        )
        dag = plan.execution_dag()
        assert "aws_subnet.s" in dag.successors("aws_vpc.v")

    def test_noop_nodes_are_skipped_transitively(self):
        # v exists (noop); s is new; s must not wait on anything
        doc = vpc_state()
        plan = plan_for(
            VPC_SOURCE
            + 'resource "aws_subnet" "s" {\n'
            '  name = "s"\n  vpc_id = aws_vpc.main.id\n  cidr_block = "10.0.1.0/24"\n'
            "}\n",
            doc,
        )
        dag = plan.execution_dag()
        assert "aws_vpc.main" not in dag.nodes
        assert dag.in_degree("aws_subnet.s") == 0

    def test_deletes_ordered_dependents_first(self):
        doc = vpc_state()
        doc.set(
            ResourceState(
                address=ResourceAddress.parse("aws_subnet.s"),
                resource_id="subnet-1",
                provider="aws",
                attrs={"id": "subnet-1", "name": "s"},
                region="us-east-1",
                dependencies=["aws_vpc.main"],
            )
        )
        plan = plan_for("", doc)
        dag = plan.execution_dag()
        # subnet delete must precede vpc delete
        assert "aws_vpc.main" in dag.successors("aws_subnet.s")

    def test_summary_and_render(self):
        plan = plan_for(VPC_SOURCE)
        assert plan.summary()["create"] == 1
        text = plan.render()
        assert "+ aws_vpc.main" in text
        assert "1 to add" in text

    def test_render_is_a_function_of_the_plan(self):
        """An old value prints with its keys sorted at every depth, not
        in the order the state happens to hold them (insertion order in
        a running engine, sorted after a reload)."""
        source = VPC_SOURCE.replace(
            "}", '  tags = { team = "net", env = { tier = "prod", ring = 2 } }\n}', 1
        )

        def rendered(tags):
            attrs = {
                "id": "vpc-1",
                "name": "main",
                "cidr_block": "10.0.0.0/16",
                "tags": tags,
            }
            return plan_for(source, vpc_state(attrs)).render()

        inserted = rendered(
            {"team": "core", "env": {"tier": "dev", "ring": 1}, "also": [{"b": 1, "a": 2}]}
        )
        reloaded = rendered(
            {"also": [{"a": 2, "b": 1}], "env": {"ring": 1, "tier": "dev"}, "team": "core"}
        )
        assert inserted == reloaded
        assert (
            "tags: {'also': [{'a': 2, 'b': 1}], 'env': {'ring': 1, 'tier': 'dev'}, "
            "'team': 'core'} -> {'env': {'ring': 2, 'tier': 'prod'}, 'team': 'net'}"
        ) in inserted
