"""Porting: naive export vs structured import, metrics, fidelity (E7)."""

import pytest

from repro.cloud import CloudGateway
from repro.porting import (
    NaiveExporter,
    RawExpr,
    StructuredImporter,
    emit_config,
    measure_quality,
    render_value,
    resource_block,
    verify_fidelity,
)


def build_repetitive_estate(gateway, vms=4):
    vpc = gateway.execute(
        "create",
        "aws_vpc",
        attrs={"name": "prod", "cidr_block": "10.0.0.0/16"},
        region="us-east-1",
    )
    subnets = [
        gateway.execute(
            "create",
            "aws_subnet",
            attrs={
                "name": f"app-{i}",
                "vpc_id": vpc["id"],
                "cidr_block": f"10.0.{i}.0/24",
            },
            region="us-east-1",
        )
        for i in range(vms)
    ]
    nics = [
        gateway.execute(
            "create",
            "aws_network_interface",
            attrs={"name": f"nic-{i}", "subnet_id": subnets[i]["id"]},
            region="us-east-1",
        )
        for i in range(vms)
    ]
    for i in range(vms):
        gateway.execute(
            "create",
            "aws_virtual_machine",
            attrs={"name": f"web-{i}", "nic_ids": [nics[i]["id"]]},
            region="us-east-1",
        )
    return 1 + 3 * vms


def build_repeated_stacks(gateway, stacks=3):
    """N isomorphic vpc+subnet+db stacks (module extraction bait)."""
    for i in range(stacks):
        vpc = gateway.execute(
            "create",
            "aws_vpc",
            attrs={"name": f"env{i}", "cidr_block": f"10.{i}.0.0/16"},
            region="us-east-1",
        )
        subnet = gateway.execute(
            "create",
            "aws_subnet",
            attrs={
                "name": f"env{i}-main",
                "vpc_id": vpc["id"],
                "cidr_block": f"10.{i}.1.0/24",
            },
            region="us-east-1",
        )
        gateway.execute(
            "create",
            "aws_database_instance",
            attrs={
                "name": f"env{i}-db",
                "engine": "postgres",
                "subnet_ids": [subnet["id"]],
            },
            region="us-east-1",
        )
    return 3 * stacks


class TestEmitter:
    def test_render_scalars(self):
        assert render_value("x") == '"x"'
        assert render_value(5) == "5"
        assert render_value(True) == "true"
        assert render_value(None) == "null"
        assert render_value(RawExpr("var.x")) == "var.x"

    def test_render_collections(self):
        assert render_value([1, 2]) == "[1, 2]"
        assert render_value({}) == "{}"
        assert "a = 1" in render_value({"a": 1})

    def test_emitted_block_reparses(self):
        from repro.lang import Configuration

        block = resource_block(
            "aws_vpc",
            "main",
            [("name", "x"), ("cidr_block", "10.0.0.0/16"), ("tags", {"env": "p"})],
        )
        config = Configuration.parse(emit_config([block]))
        assert not config.diagnostics.has_errors()
        assert config.resource("aws_vpc", "main") is not None

    def test_count_meta_comes_first(self):
        text = emit_config([resource_block("t", "n", [("name", "x")], count=3)])
        lines = [l.strip() for l in text.splitlines() if "=" in l]
        assert lines[0].startswith("count")


class TestNaiveExporter:
    def test_one_block_per_resource(self, gateway):
        n = build_repetitive_estate(gateway)
        project = NaiveExporter().export(gateway)
        metrics = measure_quality(project)
        assert metrics.blocks == n
        assert metrics.resources_represented == n

    def test_hardcoded_ids_remain(self, gateway):
        build_repetitive_estate(gateway)
        project = NaiveExporter().export(gateway)
        metrics = measure_quality(project)
        assert metrics.hardcoded_ids > 0
        assert metrics.reference_count == 0

    def test_naive_is_still_faithful(self, gateway):
        build_repetitive_estate(gateway)
        project = NaiveExporter().export(gateway)
        assert verify_fidelity(project).ok


class TestStructuredImporter:
    def test_count_compaction(self, gateway):
        n = build_repetitive_estate(gateway, vms=4)
        project = StructuredImporter().import_estate(gateway)
        metrics = measure_quality(project)
        assert metrics.blocks < n / 2
        assert metrics.resources_represented == n
        assert "count" in project.main_source

    def test_cidr_ladder_detected(self, gateway):
        build_repetitive_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        assert 'cidrsubnet("10.0.0.0/16", 8, count.index)' in project.main_source

    def test_index_aligned_references(self, gateway):
        build_repetitive_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        assert "[count.index].id" in project.main_source

    def test_no_hardcoded_ids(self, gateway):
        build_repetitive_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        metrics = measure_quality(project)
        assert metrics.hardcoded_ids == 0
        assert metrics.reference_count > 0

    def test_defaults_pruned(self, gateway):
        gateway.execute(
            "create",
            "aws_virtual_machine_like" if False else "aws_s3_bucket",
            attrs={"name": "b"},
            region="us-east-1",
        )
        project = StructuredImporter().import_estate(gateway)
        # versioning=False is the schema default; must not be emitted
        assert "versioning" not in project.main_source

    def test_fidelity_round_trip(self, gateway):
        build_repetitive_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        result = verify_fidelity(project)
        assert result.ok, result

    def test_interpolation_markers_in_cloud_strings_survive(self, gateway):
        """A cloud string is data: ``${`` in it must come back as text,
        not be evaluated when the generated program is parsed."""
        policy = '{"Resource": "arn:aws:iam::*:user/${aws:username}"}'
        gateway.execute(
            "create",
            "aws_iam_role",
            attrs={"name": "self-service", "policy_json": policy},
            region="us-east-1",
        )
        project = StructuredImporter().import_estate(gateway)
        assert "$${aws:username}" in project.main_source
        assert verify_fidelity(project).ok

    def test_quality_beats_naive(self, gateway):
        build_repetitive_estate(gateway, vms=6)
        naive = NaiveExporter().export(gateway)
        smart = StructuredImporter().import_estate(gateway)
        naive_metrics = measure_quality(naive)
        smart_metrics = measure_quality(smart)
        assert smart_metrics.loc < naive_metrics.loc / 2
        assert smart_metrics.maintainability > naive_metrics.maintainability + 20

    def test_grouping_can_be_disabled(self, gateway):
        build_repetitive_estate(gateway)
        project = StructuredImporter(enable_grouping=False).import_estate(gateway)
        assert "count" not in project.main_source
        assert verify_fidelity(project).ok

    def test_mixed_attrs_not_overgrouped(self, gateway):
        # two buckets with different attribute sets must stay separate
        gateway.execute(
            "create",
            "aws_s3_bucket",
            attrs={"name": "plain-0"},
            region="us-east-1",
        )
        gateway.execute(
            "create",
            "aws_s3_bucket",
            attrs={"name": "plain-1", "versioning": True},
            region="us-east-1",
        )
        project = StructuredImporter().import_estate(gateway)
        assert verify_fidelity(project).ok


class TestSameShapeDifferentPrefix:
    def test_microservices_estate_imports(self):
        """``svc-0-nic-0`` and ``svc-1-nic-0`` share a shape and a name
        index but not a prefix: ordering the bucket must not fall
        through to comparing the records themselves."""
        from repro.core.engine import CloudlessEngine
        from repro.state import StateDocument
        from repro.workloads import microservices

        engine = CloudlessEngine(seed=5)
        assert engine.apply(microservices(4)).ok
        engine.state = StateDocument()
        project = engine.import_estate()
        assert verify_fidelity(project).ok
        assert engine.plan(project.sources).is_empty


class TestModuleExtraction:
    def test_repeated_stacks_become_modules(self, gateway):
        build_repeated_stacks(gateway, stacks=3)
        project = StructuredImporter().import_estate(gateway)
        metrics = measure_quality(project)
        assert metrics.module_count == 3
        assert project.module_sources
        # one module definition instead of three stack copies
        assert len(project.module_sources) == 1

    def test_module_import_fidelity(self, gateway):
        build_repeated_stacks(gateway, stacks=3)
        project = StructuredImporter().import_estate(gateway)
        result = verify_fidelity(project)
        assert result.ok, result

    def test_modules_can_be_disabled(self, gateway):
        build_repeated_stacks(gateway, stacks=3)
        project = StructuredImporter(enable_modules=False).import_estate(gateway)
        assert measure_quality(project).module_count == 0
        assert verify_fidelity(project).ok

    def test_varying_values_become_variables(self, gateway):
        build_repeated_stacks(gateway, stacks=2)
        project = StructuredImporter().import_estate(gateway)
        module_text = next(iter(project.module_sources.values()))["main.clc"]
        assert "variable" in module_text
        assert "var." in module_text


class TestForEachCompaction:
    def build_named_estate(self, gateway):
        vpc = gateway.execute(
            "create",
            "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        sub = gateway.execute(
            "create",
            "aws_subnet",
            attrs={
                "name": "main",
                "vpc_id": vpc["id"],
                "cidr_block": "10.0.1.0/24",
            },
            region="us-east-1",
        )
        for env in ("alpha", "bravo", "charlie"):
            gateway.execute(
                "create",
                "aws_network_interface",
                attrs={"name": f"nic-{env}", "subnet_id": sub["id"]},
                region="us-east-1",
            )

    def test_named_repeats_become_for_each(self, gateway):
        self.build_named_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        assert "for_each" in project.main_source
        assert "each.key" in project.main_source
        assert verify_fidelity(project).ok

    def test_for_each_state_uses_string_keys(self, gateway):
        self.build_named_estate(gateway)
        project = StructuredImporter().import_estate(gateway)
        keyed = [
            e
            for e in project.state.resources()
            if isinstance(e.address.instance_key, str)
        ]
        assert len(keyed) == 3

    def test_varying_attrs_use_each_value(self, gateway):
        vpc = gateway.execute(
            "create",
            "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        for env, gb in (("api", 100), ("worker", 500), ("cron", 250)):
            gateway.execute(
                "create",
                "aws_disk",
                attrs={"name": f"disk-{env}", "size_gb": gb},
                region="us-east-1",
            )
        project = StructuredImporter().import_estate(gateway)
        assert "each.value.size_gb" in project.main_source
        assert verify_fidelity(project).ok

    def test_varying_refs_stay_single(self, gateway):
        # members pointing at *different* targets with non-indexed names
        # cannot for_each-group
        vpc = gateway.execute(
            "create",
            "aws_vpc",
            attrs={"name": "net", "cidr_block": "10.0.0.0/16"},
            region="us-east-1",
        )
        subs = []
        for env in ("east", "west"):
            subs.append(
                gateway.execute(
                    "create",
                    "aws_subnet",
                    attrs={
                        "name": f"sub-{env}",
                        "vpc_id": vpc["id"],
                        "cidr_block": f"10.0.{len(subs)}.0/24",
                    },
                    region="us-east-1",
                )
            )
        for env, sub in zip(("east", "west"), subs):
            gateway.execute(
                "create",
                "aws_network_interface",
                attrs={"name": f"nic-{env}", "subnet_id": sub["id"]},
                region="us-east-1",
            )
        project = StructuredImporter().import_estate(gateway)
        # NICs reference different subnets -> must not merge into one block
        assert project.main_source.count('resource "aws_network_interface"') == 2
        assert verify_fidelity(project).ok


def build_named_estate(gateway):
    TestForEachCompaction().build_named_estate(gateway)


def build_microservices(gateway):
    from repro.core.engine import CloudlessEngine
    from repro.workloads import microservices

    assert CloudlessEngine(gateway=gateway).apply(microservices(3)).ok


def graph_dependencies(project):
    """Per managed instance of the emitted program, the managed
    instances its graph makes it wait for: what an apply records."""
    from repro.graph import build_graph
    from repro.lang import Configuration

    graph = build_graph(
        Configuration.parse(project.sources), loader=project.loader()
    )
    managed = set(graph.managed_ids())
    return {
        nid: sorted(p for p in graph.dag.predecessors(nid) if p in managed)
        for nid in managed
    }


class TestAdoptedDependencies:
    """An adopted entry records the edges of the program it is adopted
    into, so deletes of an imported estate run dependents first."""

    @pytest.mark.parametrize(
        "build",
        [
            build_repetitive_estate,
            build_repeated_stacks,
            build_named_estate,
            build_microservices,
        ],
    )
    def test_state_dependencies_are_the_program_graphs(self, gateway, build):
        build(gateway)
        project = StructuredImporter().import_estate(gateway)
        recorded = {
            str(entry.address): list(entry.dependencies)
            for entry in project.state.resources()
        }
        assert recorded == graph_dependencies(project)
        assert any(recorded.values())
