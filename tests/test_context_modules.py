"""ModuleContext: variables, lazy locals, child modules, outputs."""

import pytest

from repro.lang import (
    CLCEvalError,
    Configuration,
    DictModuleLoader,
    Evaluator,
    ModuleContext,
    StaticResolver,
    Unknown,
)


class TestVariables:
    def test_defaults_applied(self):
        cfg = Configuration.parse('variable "a" { default = 5 }\n')
        ctx = ModuleContext(cfg)
        assert ctx.variables["a"] == 5

    def test_provided_overrides_default(self):
        cfg = Configuration.parse('variable "a" { default = 5 }\n')
        ctx = ModuleContext(cfg, variables={"a": 9})
        assert ctx.variables["a"] == 9

    def test_missing_required_variable(self):
        cfg = Configuration.parse('variable "a" { type = number }\n')
        with pytest.raises(CLCEvalError):
            ModuleContext(cfg)

    def test_type_coercion(self):
        cfg = Configuration.parse('variable "a" { type = number }\n')
        ctx = ModuleContext(cfg, variables={"a": "7"})
        assert ctx.variables["a"] == 7

    def test_bad_coercion(self):
        cfg = Configuration.parse('variable "a" { type = number }\n')
        with pytest.raises(CLCEvalError):
            ModuleContext(cfg, variables={"a": "seven"})

    def test_unknown_variable_rejected(self):
        cfg = Configuration.parse("")
        with pytest.raises(CLCEvalError):
            ModuleContext(cfg, variables={"mystery": 1})


class TestLocals:
    def test_locals_chain(self):
        cfg = Configuration.parse(
            'variable "base" { default = "app" }\n'
            "locals {\n"
            '  full  = "${var.base}-prod"\n'
            "  upper = upper(local.full)\n"
            "}\n"
        )
        ctx = ModuleContext(cfg)
        value = Evaluator(ctx.scope()).evaluate(
            cfg.locals["upper"].expr
        )
        assert value == "APP-PROD"

    def test_local_cycle_detected(self):
        cfg = Configuration.parse(
            "locals {\n  a = local.b\n  b = local.a\n}\n"
        )
        ctx = ModuleContext(cfg)
        with pytest.raises(CLCEvalError):
            Evaluator(ctx.scope()).evaluate(cfg.locals["a"].expr)

    def test_local_referencing_resource_is_unknown_without_resolver(self):
        cfg = Configuration.parse(
            'resource "aws_vpc" "v" { name = "x" }\n'
            "locals { vid = aws_vpc.v.id }\n"
        )
        ctx = ModuleContext(cfg)
        value = Evaluator(ctx.scope()).evaluate(cfg.locals["vid"].expr)
        assert isinstance(value, Unknown)


class TestResolvers:
    def test_static_resolver_provides_values(self):
        cfg = Configuration.parse(
            'resource "aws_vpc" "v" { name = "x" }\n'
            "locals { vid = aws_vpc.v.id }\n"
        )
        ctx = ModuleContext(
            cfg, resolver=StaticResolver({"aws_vpc.v": {"id": "vpc-9"}})
        )
        value = Evaluator(ctx.scope()).evaluate(cfg.locals["vid"].expr)
        assert value == "vpc-9"

    def test_data_resolution(self):
        cfg = Configuration.parse(
            'data "aws_region" "r" {}\nlocals { n = data.aws_region.r.name }\n'
        )
        ctx = ModuleContext(
            cfg,
            resolver=StaticResolver({"data.aws_region.r": {"name": "eu"}}),
        )
        assert Evaluator(ctx.scope()).evaluate(cfg.locals["n"].expr) == "eu"

    def test_each_reference_resolves_once(self):
        """``aws_vpc.v`` is looked up in a mapping of the type's names:
        answering ``in`` must not fetch the value it is about to fetch."""

        class Counting(StaticResolver):
            def __init__(self, values):
                super().__init__(values)
                self.calls = []

            def resolve(self, module_path, mode, rtype, name, span=None):
                self.calls.append((mode, rtype, name))
                return super().resolve(module_path, mode, rtype, name, span)

        cfg = Configuration.parse(
            'resource "aws_vpc" "v" { name = "x" }\n'
            'data "aws_region" "r" {}\n'
            "locals {\n"
            "  vid  = aws_vpc.v.id\n"
            "  both = [aws_vpc.v.id, data.aws_region.r.name, local.vid]\n"
            "}\n"
        )
        resolver = Counting(
            {"aws_vpc.v": {"id": "vpc-9"}, "data.aws_region.r": {"name": "eu"}}
        )
        ctx = ModuleContext(cfg, resolver=resolver)
        value = Evaluator(ctx.scope()).evaluate(cfg.locals["both"].expr)
        assert value == ["vpc-9", "eu", "vpc-9"]
        assert sorted(resolver.calls) == [
            ("data", "aws_region", "r"),
            ("managed", "aws_vpc", "v"),
            ("managed", "aws_vpc", "v"),  # the one ``local.vid`` reads
        ]

    def test_unknown_root_identifier(self):
        cfg = Configuration.parse("locals { x = not_a_thing.y.z }\n")
        ctx = ModuleContext(cfg)
        with pytest.raises(CLCEvalError):
            Evaluator(ctx.scope()).evaluate(cfg.locals["x"].expr)


class TestModules:
    def make_loader(self):
        return DictModuleLoader(
            {
                "./net": (
                    'variable "cidr" { type = string }\n'
                    'resource "aws_vpc" "this" {\n'
                    '  name       = "net"\n'
                    "  cidr_block = var.cidr\n"
                    "}\n"
                    'output "vpc_cidr" { value = var.cidr }\n'
                )
            }
        )

    def test_child_module_outputs(self):
        cfg = Configuration.parse(
            'module "net" {\n  source = "./net"\n  cidr = "10.1.0.0/16"\n}\n'
            "locals { c = module.net.vpc_cidr }\n"
        )
        ctx = ModuleContext(cfg, loader=self.make_loader())
        assert (
            Evaluator(ctx.scope()).evaluate(cfg.locals["c"].expr)
            == "10.1.0.0/16"
        )

    def test_module_args_evaluated_in_parent_scope(self):
        cfg = Configuration.parse(
            'variable "base" { default = "10.9" }\n'
            'module "net" {\n'
            '  source = "./net"\n'
            '  cidr   = "${var.base}.0.0/16"\n'
            "}\n"
            "locals { c = module.net.vpc_cidr }\n"
        )
        ctx = ModuleContext(cfg, loader=self.make_loader())
        assert (
            Evaluator(ctx.scope()).evaluate(cfg.locals["c"].expr)
            == "10.9.0.0/16"
        )

    def test_missing_module_output(self):
        cfg = Configuration.parse(
            'module "net" {\n  source = "./net"\n  cidr = "10.0.0.0/16"\n}\n'
            "locals { c = module.net.nope }\n"
        )
        ctx = ModuleContext(cfg, loader=self.make_loader())
        with pytest.raises(CLCEvalError):
            Evaluator(ctx.scope()).evaluate(cfg.locals["c"].expr)

    def test_output_values(self):
        cfg = Configuration.parse('output "x" { value = 1 + 1 }\n')
        ctx = ModuleContext(cfg)
        assert ctx.output_values() == {"x": 2}
