"""What a module context memoises follows the resolver that answered it.

A graph's contexts share one ``DeferredResolver``; its ``generation``
moves whenever an answer can (``target`` re-pointed; a commit, a data
read or a pending replacement in the bound ``ValueResolver``). Lazy
locals and child-module inputs are dropped when it has. Before that, a
local over a resource kept the plan-time ``Unknown`` into the apply,
and a module whose input read a resource could never be applied.

What does *not* follow the resolver (PR 23): a resource's attributes
are evaluated three times by a cold apply -- validating, planning,
executing -- under three different generations by construction, so no
memo keyed by the generation removes one of them. The evaluations that
do repeat are the validate-time ones, across verbs, where the slot is
unbound: those are kept per declaration beside the parsed parts they
are a function of (``types.checker.DeclTable``).
"""

import pytest

from repro.cloud import CloudGateway
from repro.core.engine import CloudlessEngine, EngineError
from repro.graph import GraphBuildError, Planner, build_graph
from repro.graph.plan import Plan, read_data_sources
from repro.lang import (
    Configuration,
    DictModuleLoader,
    Evaluator,
    ModuleContext,
    StaticResolver,
    Unknown,
)
from repro.lang.parser import parse_expression_source
from repro.state.document import StateDocument
from repro.validate import ValidationPipeline

LOCAL_OVER_RESOURCE = '''
resource "aws_vpc" "a" {
  name       = "a"
  cidr_block = "10.0.0.0/16"
}

locals {
  vid = aws_vpc.a.id
}

resource "aws_subnet" "s" {
  name       = "s"
  vpc_id     = local.vid
  cidr_block = "10.0.1.0/24"
}
'''

NET = '''
variable "vpc_id" {}

resource "aws_subnet" "s" {
  name       = "s"
  vpc_id     = var.vpc_id
  cidr_block = "10.0.1.0/24"
}
'''

MODULE_OVER_RESOURCE = '''
resource "aws_vpc" "a" {
  name       = "a"
  cidr_block = "10.0.0.0/16"
}

module "net" {
  source = "./net"
  vpc_id = aws_vpc.a.id
}
'''


def value_of(ctx, text):
    return Evaluator(ctx.scope()).evaluate(parse_expression_source(text))


class TestLocalsFollowTheResolver:
    def graph(self):
        return build_graph(Configuration.parse(LOCAL_OVER_RESOURCE))

    def test_reread_after_every_change_of_answer(self):
        graph = self.graph()
        root = graph.root_context
        assert isinstance(value_of(root, "local.vid"), Unknown)
        plan = Plan(graph, StateDocument())  # binds the slot
        assert isinstance(value_of(root, "local.vid"), Unknown)
        plan.resolver.set_override("aws_vpc.a", {"id": "vpc-1"})
        assert value_of(root, "local.vid") == "vpc-1"
        plan.resolver.set_override("aws_vpc.a", {"id": "vpc-2"})
        assert value_of(root, "local.vid") == "vpc-2"
        plan.resolver.mark_pending("aws_vpc.a")
        assert value_of(root, "local.vid") == "vpc-2"  # an override still wins
        plan.resolver.drop_override("aws_vpc.a")
        assert isinstance(value_of(root, "local.vid"), Unknown)
        # another plan of the same graph: its own state's answer
        graph.binding_resolver.target = None
        assert isinstance(value_of(root, "local.vid"), Unknown)

    def test_memoised_while_nothing_moves(self, monkeypatch):
        graph = self.graph()
        plan = Plan(graph, StateDocument())
        plan.resolver.set_override("aws_vpc.a", {"id": "vpc-1"})
        calls = []
        real = plan.resolver.resolve
        monkeypatch.setattr(
            plan.resolver, "resolve", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        assert value_of(graph.root_context, "local.vid") == "vpc-1"
        asked = len(calls)
        assert asked
        for _ in range(3):
            assert value_of(graph.root_context, "local.vid") == "vpc-1"
        assert len(calls) == asked

    def test_reread_across_read_data_sources(self):
        """One data source's query reads a local over another's result,
        and someone looked at the local first."""
        graph = build_graph(
            Configuration.parse(
                'data "aws_region" "here" {}\n'
                "locals {\n  region = data.aws_region.here.name\n}\n"
                'data "aws_image" "img" {\n  family = local.region\n}\n'
            )
        )
        root = graph.root_context
        assert isinstance(value_of(root, "local.region"), Unknown)
        gateway = CloudGateway.simulated(seed=1)
        values = read_data_sources(gateway, graph, StateDocument())
        region = values["data.aws_region.here"]["name"]
        assert values["data.aws_image.img"]["family"] == region
        # the read's resolver is gone again, and so is what it answered
        assert isinstance(value_of(root, "local.region"), Unknown)
        plan = Planner().plan(graph, StateDocument(), data_values=values)
        assert value_of(root, "local.region") == region
        assert plan.changes["data.aws_image.img"].action.value == "read"

    def test_reread_between_validation_and_plan(self):
        engine = CloudlessEngine(seed=3)
        assert engine.apply(LOCAL_OVER_RESOURCE).ok
        config = Configuration.parse(LOCAL_OVER_RESOURCE)
        graph = build_graph(config)
        assert ValidationPipeline().validate(config, graph=graph).ok
        assert isinstance(value_of(graph.root_context, "local.vid"), Unknown)
        plan = engine.planner.plan(graph, engine.state.copy())
        assert plan.is_empty
        assert value_of(graph.root_context, "local.vid").startswith("vpc-")

    def test_a_resolver_that_never_changes_never_moves(self):
        cfg = Configuration.parse("locals {\n  v = aws_vpc.a.id\n}\n"
                                  'resource "aws_vpc" "a" {\n  name = "a"\n}\n')
        resolver = StaticResolver({"aws_vpc.a": {"id": "vpc-9"}})
        ctx = ModuleContext(cfg, resolver=resolver)
        assert resolver.generation == 0
        assert value_of(ctx, "local.v") == "vpc-9"
        assert ctx._locals._cache == {"v": "vpc-9"}

    def test_the_issues_program_converges_in_one_apply(self):
        engine = CloudlessEngine(seed=3)
        result = engine.apply(LOCAL_OVER_RESOURCE)
        assert result.ok, [str(d) for d in result.diagnoses]
        assert engine.plan(LOCAL_OVER_RESOURCE).is_empty

    def test_count_over_such_a_local_still_fails_at_build(self):
        text = LOCAL_OVER_RESOURCE.replace(
            '  name       = "s"', '  count      = length(local.vid)\n  name       = "s"'
        )
        with pytest.raises(GraphBuildError, match="'count' depends on values"):
            build_graph(Configuration.parse(text))
        each = LOCAL_OVER_RESOURCE.replace(
            '  name       = "s"', '  for_each   = toset([local.vid])\n  name       = "s"'
        )
        with pytest.raises(GraphBuildError, match="'for_each' depends on values"):
            build_graph(Configuration.parse(each))
        engine = CloudlessEngine(seed=3)
        assert [d.code for d in engine.validate(text).errors] == ["GRAPH"]
        with pytest.raises(EngineError, match="'count' depends on values"):
            engine.plan(text)


class TestModuleInputsFollowTheResolver:
    def engine(self, **modules):
        loader = DictModuleLoader(
            {f"./{name}": {"main.clc": text} for name, text in modules.items()}
        )
        return CloudlessEngine(seed=3, loader=loader)

    def test_the_issues_program_converges_in_one_apply(self):
        engine = self.engine(net=NET)
        result = engine.apply(MODULE_OVER_RESOURCE)
        assert result.ok, [str(d) for d in result.diagnoses]
        subnet = next(
            e for e in engine.state.resources() if e.address.type == "aws_subnet"
        )
        assert str(subnet.address) == "module.net.aws_subnet.s"
        vpc = next(e for e in engine.state.resources() if e.address.type == "aws_vpc")
        assert subnet.attrs["vpc_id"] == vpc.resource_id
        assert engine.plan(MODULE_OVER_RESOURCE).is_empty

    def test_inputs_are_refinalised_not_just_reevaluated(self):
        """Coercion, defaults and ``validation`` rules run on the value
        the resource turned out to have."""
        child = '''
variable "tag" {
  type = string
}

variable "zone" {
  default = "z1"
}

resource "aws_s3_bucket" "b" {
  name = "b-${var.tag}-${var.zone}"
}
'''
        root = '''
resource "aws_vpc" "a" {
  name       = "a"
  cidr_block = "10.0.0.0/16"
}

module "m" {
  source = "./m"
  tag    = length(aws_vpc.a.name) + length(aws_vpc.a.id) * 0
}
'''
        engine = self.engine(m=child)
        assert engine.apply(root).ok
        bucket = next(
            e for e in engine.state.resources() if e.address.type == "aws_s3_bucket"
        )
        assert bucket.attrs["name"] == "b-1-z1"  # a number coerced to a string

    def test_a_validation_rule_sees_the_real_value(self):
        child = NET.replace(
            'variable "vpc_id" {}',
            'variable "vpc_id" {\n'
            "  validation {\n"
            '    condition     = substr(var.vpc_id, 0, 4) == "net-"\n'
            '    error_message = "not a net id"\n'
            "  }\n"
            "}",
        )
        engine = self.engine(net=child)
        result = engine.apply(MODULE_OVER_RESOURCE)
        # unknown while validating and planning, false once the VPC exists
        assert result.validation.ok and not result.ok
        failed = result.apply.failed["module.net.aws_subnet.s"]
        assert "not a net id" in str(failed)

    def test_literal_arguments_are_finalised_once(self, monkeypatch):
        calls = []
        real = ModuleContext._finalize_variables

        def counted(self, given):
            calls.append(self.module_path)
            return real(self, given)

        monkeypatch.setattr(ModuleContext, "_finalize_variables", counted)
        literal = MODULE_OVER_RESOURCE.replace("aws_vpc.a.id", '"vpc-fixed"')
        graph = build_graph(
            Configuration.parse(literal),
            loader=DictModuleLoader({"./net": {"main.clc": NET}}),
        )
        child = graph.nodes["module.net.aws_subnet.s"].context
        assert child._inputs is None
        plan = Plan(graph, StateDocument())
        plan.resolver.set_override("aws_vpc.a", {"id": "vpc-1"})
        assert child.variables == {"vpc_id": "vpc-fixed"}
        assert calls == [(), ("net",)]

        del calls[:]
        graph = build_graph(
            Configuration.parse(MODULE_OVER_RESOURCE),
            loader=DictModuleLoader({"./net": {"main.clc": NET}}),
        )
        child = graph.nodes["module.net.aws_subnet.s"].context
        plan = Plan(graph, StateDocument())
        plan.resolver.set_override("aws_vpc.a", {"id": "vpc-1"})
        assert child.variables == {"vpc_id": "vpc-1"}
        assert child.variables == {"vpc_id": "vpc-1"}  # memoised until it moves
        assert calls == [(), ("net",), ("net",)]

    def test_inputs_reach_a_grandchild_through_locals_and_variables(self):
        outer = '''
variable "vpc_id" {}

locals {
  home = var.vpc_id
}

module "inner" {
  source = "./net"
  vpc_id = local.home
}

output "subnet_id" {
  value = module.inner.subnet_id
}
'''
        inner = NET + '\noutput "subnet_id" {\n  value = aws_subnet.s.id\n}\n'
        root = MODULE_OVER_RESOURCE.replace("./net", "./outer") + '''
resource "aws_network_interface" "n" {
  name      = "n"
  subnet_id = module.net.subnet_id
}
'''
        engine = self.engine(outer=outer, net=inner)
        result = engine.apply(root)
        assert result.ok, [str(d) for d in result.diagnoses]
        assert len(engine.state) == 3
        assert engine.plan(root).is_empty


class TestReferencesFollowTheParsedBlock:
    """``references()`` is a function of the declaration's parsed parts
    and is computed once for them: across graph builds, across the
    resident engine's re-compiles of a chunk it reused -- and never for
    parts the declaration no longer holds."""

    TEXT = LOCAL_OVER_RESOURCE + '''
resource "aws_subnet" "t" {
  count      = 2
  name       = "t-${count.index}"
  vpc_id     = aws_vpc.a.id
  cidr_block = "10.0.${count.index + 2}.0/24"
  depends_on = [aws_subnet.s]
}
'''

    @pytest.fixture
    def walks(self, monkeypatch):
        import repro.lang.config as lang_config

        calls = []
        real = lang_config.body_references

        def counted(body):
            calls.append(body)
            return real(body)

        monkeypatch.setattr(lang_config, "body_references", counted)
        return calls

    def test_one_walk_per_declaration_however_many_graphs(self, walks):
        config = Configuration.parse(self.TEXT)
        decl = config.resource("aws_subnet", "t")
        first = decl.references()
        assert {str(r) for r in first} == {"aws_vpc.a", "aws_subnet.s"}
        assert decl.references() is first and len(walks) == 1
        for _ in range(3):
            build_graph(config)
        assert len(walks) == len(config.resources)

    def test_a_declaration_edited_in_place_answers_for_what_it_holds(self, walks):
        """The mutators and the auto-repair replace attributes of a
        parsed declaration; a graph built after that must not wire the
        edges of before."""
        from repro.lang.ast_nodes import Attribute, Literal

        config = Configuration.parse(self.TEXT)
        graph = build_graph(config)
        assert "aws_vpc.a" in graph.dag.predecessors("aws_subnet.t[0]")
        decl = config.resource("aws_subnet", "t")
        span = decl.body.attributes["vpc_id"].span
        decl.body.attributes["vpc_id"] = Attribute(
            "vpc_id", Literal("vpc-fixed", span), span
        )
        assert {str(r) for r in decl.references()} == {"aws_subnet.s"}
        del decl.depends_on[:]
        assert decl.references() == ()
        decl.count = parse_expression_source("length(aws_vpc.a.name)")
        assert {str(r) for r in decl.references()} == {"aws_vpc.a"}
        decl.count = None
        graph = build_graph(config)
        assert graph.dag.predecessors("aws_subnet.t") == set()

    def test_a_reused_chunk_keeps_it_a_reparsed_one_does_not(self, walks):
        engine = CloudlessEngine(seed=3)
        assert engine.apply(self.TEXT).ok
        old = engine._last_compile[1]
        n = len(old.resources)
        assert len(walks) == n
        assert engine.plan(self.TEXT).is_empty  # the same Configuration
        edited = self.TEXT.replace('"t-${count.index}"', '"u-${count.index}"')
        plan = engine.plan(edited)  # one chunk re-parsed, new declarations all
        assert plan.summary()["update"] == 2
        assert len(walks) == n + 1
        new = engine._last_compile[1]
        assert new.resource("aws_vpc", "a") is not old.resource("aws_vpc", "a")

    def test_the_artifact_does_not_carry_it(self, tmp_path):
        import io
        import pickle

        from repro.compilecache.store import _ArtifactUnpickler, _codec

        def artifact_bytes(obj):
            buffer = io.BytesIO()
            pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
            pickler.dispatch_table = _codec()
            pickler.dump(obj)
            return buffer.getvalue()

        config = Configuration.parse_streaming({"main.clc": self.TEXT})
        before = artifact_bytes(config)
        graph = build_graph(config)
        assert all("_references" in d.__dict__ for d in config.resources.values())
        assert artifact_bytes(config) == before
        blob = artifact_bytes((config, graph))
        again = _ArtifactUnpickler(io.BytesIO(blob)).load()[0]
        assert not any("_references" in d.__dict__ for d in again.resources.values())
        assert again.resource("aws_subnet", "t").references() == config.resource(
            "aws_subnet", "t"
        ).references()


class TestValidationFollowsTheParsedBlock:
    """A declaration's type verdict and its instances' validate-time
    attribute values are functions of the parsed block (given the
    catalog, variables, locals and declared names, which whoever
    carries a table over answers for): computed once for the parts a
    declaration holds, and never taken for parts it no longer holds."""

    TEXT = TestReferencesFollowTheParsedBlock.TEXT

    @pytest.fixture
    def work(self, monkeypatch):
        from repro.graph.builder import ResourceNode
        from repro.types.checker import TypeChecker

        done = {"checked": [], "evaluated": []}
        check, evaluate = TypeChecker._check_resource, ResourceNode.evaluate_attrs

        def checking(checker, decl):
            done["checked"].append(decl.address)
            return check(checker, decl)

        def evaluating(node):
            done["evaluated"].append((node.id, node.context.resolver.generation))
            return evaluate(node)

        monkeypatch.setattr(TypeChecker, "_check_resource", checking)
        monkeypatch.setattr(ResourceNode, "evaluate_attrs", evaluating)

        def take():
            out = {kind: list(items) for kind, items in done.items()}
            for items in done.values():
                del items[:]
            return out

        return take

    def test_a_cold_apply_evaluates_under_three_generations(self, work):
        """Why the memo is not keyed by the resolver's generation: the
        only evaluations of one resource that share one are those of
        the first wave, dispatched before anything has been committed
        (at most ``concurrency`` of them; 10 of 5,979 on the
        1,993-resource estate)."""
        engine = CloudlessEngine(seed=3, concurrency=2)
        text = "".join(
            f'''
resource "aws_vpc" "{net}" {{
  name       = "{net}"
  cidr_block = "10.{n}.0.0/16"
}}

resource "aws_subnet" "{net}" {{
  count      = 3
  name       = "{net}-${{count.index}}"
  vpc_id     = aws_vpc.{net}.id
  cidr_block = "10.{n}.${{count.index}}.0/24"
}}
'''
            for n, net in enumerate(("a", "b"))
        )
        assert engine.apply(text).ok and len(engine.state) == 8
        evaluated = work()["evaluated"]
        assert len(evaluated) == 3 * len(engine.state)
        by_node = {}
        for node, generation in evaluated:
            by_node.setdefault(node, []).append(generation)
        shared = 0
        for node, generations in by_node.items():
            assert len(generations) == 3 and generations[0] == 0, node
            assert generations[0] < generations[1] <= generations[2], node
            shared += generations[1] == generations[2]
        assert shared == 2  # the two VPCs
        # what repeats is the first of the three, across verbs
        assert engine.apply(text).ok  # resident: kept from here
        work()
        assert engine.apply(text).ok
        assert work() == {"checked": [], "evaluated": []}

    def test_a_table_carried_over_is_not_computed_again(self, work):
        from repro.types.checker import DeclTable

        pipeline = ValidationPipeline()
        config = Configuration.parse(self.TEXT)
        first = DeclTable()
        want = pipeline.verdict(pipeline.validate(config, table=first))
        assert (first.checked, first.evaluated) == (3, 4)
        done = work()
        assert len(done["checked"]) == 3 and len(done["evaluated"]) == 4
        second = DeclTable()
        second.carry_over(first, config)
        assert pipeline.verdict(pipeline.validate(config, table=second)) == want
        assert (second.checked, second.evaluated) == (0, 0)
        assert work() == {"checked": [], "evaluated": []}
        # within one validation it is the memo it replaced
        assert work() == {"checked": [], "evaluated": []}

    def test_a_declaration_edited_in_place_is_computed_for_what_it_holds(self, work):
        from repro.lang.ast_nodes import Attribute, Literal
        from repro.types.checker import DeclTable

        pipeline = ValidationPipeline()
        config = Configuration.parse(self.TEXT)
        first = DeclTable()
        assert pipeline.validate(config, table=first).ok
        work()
        decl = config.resource("aws_subnet", "t")
        span = decl.body.attributes["cidr_block"].span
        decl.body.attributes["cidr_block"] = Attribute(
            "cidr_block", Literal("10.0.1.0/24", span), span  # aws_subnet.s has it
        )
        second = DeclTable()
        second.carry_over(first, config)
        assert sorted(key[-1] for key in second.entries) == ["a", "s"]
        report = pipeline.validate(config, table=second)
        assert report.errors and {d.code for d in report.errors} == {"AWS001"}
        assert pipeline.verdict(report) == pipeline.verdict(pipeline.validate(config))
        done = work()
        assert done["checked"][0] == "aws_subnet.t"
        assert {node for node, _ in done["evaluated"][:2]} == {
            "aws_subnet.t[0]", "aws_subnet.t[1]"
        }

    def test_stand_alone_validation_starts_from_nothing(self, work):
        from repro.validate import ValidationContext, validate

        for _ in range(2):
            assert validate(self.TEXT).ok
            done = work()
            assert len(done["checked"]) == 3 and len(done["evaluated"]) == 4
        ctx = ValidationContext.build(Configuration.parse(self.TEXT))
        assert not hasattr(ctx, "_attr_cache") and ctx.table.entries == {}
        (subnet,) = ctx.instances_of_type("aws_vpc")
        assert ctx.attrs_of(subnet) is ctx.attrs_of(subnet)
        assert len(work()["evaluated"]) == 1
