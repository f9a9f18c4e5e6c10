"""Semantic types: model, checker, inference from corpora."""

import pytest

from repro.cloud.resources import simulated_catalog
from repro.lang import Configuration
from repro.types import (
    SemanticInferencer,
    SemanticType,
    TypeChecker,
    check_types,
    compatible,
    expected_semantic,
    literal_semantic,
    produced_by_attr,
)


class TestSemanticModel:
    def test_literal_classification(self):
        assert literal_semantic("10.0.0.0/16").kind == "cidr"
        assert literal_semantic("hello").kind == "plain"
        assert literal_semantic(5).base == "number"
        assert literal_semantic(True).base == "bool"

    def test_compatibility_matrix(self):
        nic = SemanticType("resource_id", "azure_network_interface")
        subnet = SemanticType("resource_id", "azure_subnet")
        plain_str = SemanticType("plain", base="string")
        any_ = SemanticType("any")
        assert compatible(nic, nic)
        assert not compatible(nic, subnet)
        assert compatible(nic, plain_str)  # hand-written id: allowed
        assert compatible(nic, any_)
        assert compatible(any_, subnet)

    def test_registry_semantics(self, catalog):
        produced = produced_by_attr(
            "aws_subnet", "id", catalog.attr_spec("aws_subnet", "id")
        )
        assert produced.kind == "resource_id"
        assert produced.detail == "aws_subnet"
        expected = expected_semantic(
            catalog.attr_spec("aws_virtual_machine", "nic_ids")
        )
        assert expected.detail == "aws_network_interface"


class TestTypeChecker:
    def check(self, source):
        return check_types(Configuration.parse(source))

    def test_clean_config_passes(self, figure2_source):
        assert not self.check(figure2_source).has_errors()

    def test_unknown_type(self):
        sink = self.check('resource "aws_hoverboard" "h" { name = "x" }\n')
        assert any(d.code == "TYPE001" for d in sink.errors)

    def test_unsupported_attribute(self):
        sink = self.check(
            'resource "aws_s3_bucket" "b" {\n  name = "b"\n  colour = "red"\n}\n'
        )
        assert any(d.code == "TYPE002" for d in sink.errors)

    def test_read_only_attribute(self):
        sink = self.check(
            'resource "aws_s3_bucket" "b" {\n  name = "b"\n  arn = "x"\n}\n'
        )
        assert any(d.code == "TYPE003" for d in sink.errors)

    def test_missing_required(self):
        sink = self.check('resource "aws_vpc" "v" { name = "v" }\n')
        assert any(d.code == "TYPE004" for d in sink.errors)

    def test_wrong_base_type(self):
        sink = self.check(
            'resource "aws_disk" "d" {\n  name = "d"\n  size_gb = "lots"\n}\n'
        )
        assert any(d.code == "TYPE005" for d in sink.errors)

    def test_bad_enum(self):
        sink = self.check(
            'resource "aws_disk" "d" {\n'
            "  name = \"d\"\n  size_gb = 10\n  disk_type = \"quantum\"\n}\n"
        )
        assert any(d.code == "TYPE006" for d in sink.errors)

    def test_invalid_cidr(self):
        sink = self.check(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/99"\n}\n'
        )
        assert any(d.code == "TYPE007" for d in sink.errors)

    def test_unknown_region(self):
        sink = self.check(
            'resource "azure_resource_group" "r" {\n'
            '  name = "r"\n  location = "atlantis"\n}\n'
        )
        assert any(d.code == "TYPE008" for d in sink.errors)

    def test_wrong_ref_type(self):
        sink = self.check(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "aws_network_interface" "n" {\n'
            '  name = "n"\n'
            "  subnet_id = aws_vpc.v.id\n"
            "}\n"
        )
        assert any(d.code == "TYPE009" for d in sink.errors)

    def test_ref_list_elements_checked(self):
        sink = self.check(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "aws_virtual_machine" "m" {\n'
            '  name = "m"\n'
            "  nic_ids = [aws_vpc.v.id]\n"
            "}\n"
        )
        assert any(d.code == "TYPE009" for d in sink.errors)

    def test_ref_through_local(self):
        sink = self.check(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            "locals { wrong = aws_vpc.v.id }\n"
            'resource "aws_network_interface" "n" {\n'
            '  name = "n"\n'
            "  subnet_id = local.wrong\n"
            "}\n"
        )
        assert any(d.code == "TYPE009" for d in sink.errors)

    def test_cidr_function_result_accepted(self):
        sink = self.check(
            'resource "aws_vpc" "v" {\n  name = "v"\n  cidr_block = "10.0.0.0/16"\n}\n'
            'resource "aws_subnet" "s" {\n'
            '  name = "s"\n'
            "  vpc_id = aws_vpc.v.id\n"
            "  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 8, 0)\n"
            "}\n"
        )
        assert not sink.has_errors()

    def test_variable_values_not_rejected(self):
        # var values are unknowable statically; must not be flagged
        sink = self.check(
            'variable "subnet" { type = string }\n'
            'resource "aws_network_interface" "n" {\n'
            '  name = "n"\n'
            "  subnet_id = var.subnet\n"
            "}\n"
        )
        assert not sink.has_errors()


class TestInference:
    CORPUS = [
        (
            'resource "custom_widget" "w{i}" {{\n'
            '  name    = "w{i}"\n'
            "  gear_id = custom_gear.g{i}.id\n"
            "}}\n"
            'resource "custom_gear" "g{i}" {{\n'
            '  name = "g{i}"\n'
            "}}\n"
        )
    ]

    def corpus_configs(self, n=3):
        out = []
        for i in range(n):
            out.append(Configuration.parse(self.CORPUS[0].format(i=i)))
        return out

    def test_learns_ref_semantics(self):
        inferencer = SemanticInferencer(min_support=2)
        report = inferencer.infer(self.corpus_configs())
        ann = report.annotation_for("custom_widget", "gear_id")
        assert ann is not None
        assert ann.semantic == "ref:custom_gear"
        assert ann.support >= 2

    def test_below_support_not_promoted(self):
        inferencer = SemanticInferencer(min_support=5)
        report = inferencer.infer(self.corpus_configs(2))
        assert report.annotation_for("custom_widget", "gear_id") is None

    def test_enriched_registry_checks_new_types(self):
        inferencer = SemanticInferencer(min_support=2)
        report = inferencer.infer(self.corpus_configs())
        enriched = inferencer.enrich(simulated_catalog(), report)
        # the new catalog now rejects a wrong-typed reference into a
        # resource type it learned only from the corpus
        bad = Configuration.parse(
            'resource "custom_widget" "w" {\n'
            "  gear_id = aws_vpc.v.id\n"
            "}\n"
            'resource "aws_vpc" "v" {\n'
            '  name = "v"\n'
            '  cidr_block = "10.0.0.0/16"\n'
            "}\n"
        )
        sink = TypeChecker(enriched, bad).check()
        assert any(d.code == "TYPE009" for d in sink.errors)

    def test_learned_semantics_do_not_override_catalog(self):
        inferencer = SemanticInferencer(min_support=1)
        # corpus that wires VM nic_ids to subnets (wrongly)
        bad_corpus = [
            Configuration.parse(
                'resource "aws_virtual_machine" "m" {\n'
                "  nic_ids = [aws_subnet.s.id]\n"
                "}\n"
                'resource "aws_subnet" "s" {\n'
                '  name = "s"\n'
                "}\n"
            )
        ]
        report = inferencer.infer(bad_corpus)
        enriched = inferencer.enrich(simulated_catalog(), report)
        expected = expected_semantic(
            enriched.attr_spec("aws_virtual_machine", "nic_ids")
        )
        assert expected.detail == "aws_network_interface"  # unchanged
