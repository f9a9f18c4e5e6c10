"""A long-lived engine compiles against its own last compile.

``CloudlessEngine.compile`` keeps the texts and ``Configuration`` of
the last compile it ran from source text: the same texts come back as
that configuration, edited ones re-parse only the chunks that changed.
These tests hold the two properties that makes safe -- a resident
engine answers exactly what a freshly loaded one would, and it parses
exactly what changed -- and that the table it keeps is bounded by the
program, not by the session's history.

Since PR 21 it also plans against its own last plan (the *plan basis*):
only what that plan did not prove no-op, or what changed since, is
diffed. The licence is ``full_plan`` -- the same compile planned whole
by ``Planner.plan`` called directly -- which every step of every script
here is compared with, and a twin engine that forgets its basis before
each verb and must end every step on the same estate.

Since PR 23 it validates against its own last validation too (the
*validation basis*): a declaration still made of the parsed parts its
type verdict and its instances' attribute values were computed from is
not type-checked or evaluated again; the rules run whole. Same licence:
a twin that forgets the basis before each verb, and the engine's own
pipeline run on a fresh parse, must reach the same verdict -- the same
diagnostics in the same order at the same spans.

Since PR 24 the plan basis crosses the process: the world file records
which artifact the last plan was about and which entries it does not
vouch for, and a CLI verb's compile wakes a basis from it. Same licence
once more: a twin project directory whose world has the record cut out
before every verb, so every verb there plans whole.
"""

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import random
import re
import shutil
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.lang.config as lang_config
from repro import cli, perf
from repro.core.engine import CloudlessEngine, EngineError
from repro.deploy.incremental import read_data_sources
from repro.deploy.wal import SimulatedCrash
from repro.graph import GraphBuildError, PlanError, build_graph
from repro.graph.builder import ResourceGraph, ResourceNode
from repro.graph.impact import values_digest
from repro.lang.chunker import iter_chunks
from repro.lang.context import ModuleContext, ResourceResolver, _KeyedMapping
from repro.persist import load_world, save_world
from repro.policy import CostEstimator, InfrastructureController, budget_policy
from repro.workloads import hub_spoke, sized_estate
from repro.workloads.mutate import MutationError
from tests.golden.lang_corpus import _mutant_base, mutant_source
from tests.test_world_log import strip_plan_record

HEAD = '''variable "env" {
  type = string
}

variable "zone" {
  type    = string
  default = "example.sim"
}

locals {
  prefix = "${var.env}-edge"
}

resource "aws_s3_bucket" "logs" {
  name = "${local.prefix}-logs"
}

'''
PROGRAM = HEAD + sized_estate(30)
EXTRA = '''
resource "aws_s3_bucket" "extra_%d" {
  name = "${local.prefix}-extra-%d"
}
'''


#: every kind of declaration an edit can reach a resource through
WIDE_HEAD = '''variable "env" {
  type = string
}

variable "replicas" {
  type    = number
  default = 2
}

provider "aws" {
  region = "us-east-1"
}

locals {
  prefix = "${var.env}-edge"
  base   = "${local.prefix}-logs"
  bucket = local.base
}

data "aws_s3_bucket" "shared" {
  name = "shared-legacy"
}

resource "aws_s3_bucket" "logs" {
  name       = local.bucket
  versioning = data.aws_s3_bucket.shared.versioning
}

resource "aws_s3_bucket" "replica" {
  count = var.replicas
  name  = "${local.prefix}-replica-${count.index}"
}

resource "aws_s3_bucket" "each" {
  for_each = toset(["a", "b"])
  name     = "${local.prefix}-each-${each.key}"
}

'''
WIDE = WIDE_HEAD + sized_estate(30)


def retag(text: str, service: str, revision: str) -> str:
    """A one-attribute, line-count-preserving edit of one VM block."""
    edited, n = re.subn(
        r'tags    = \{ service = "%s"(, rev = "[^"]*")? \}' % service,
        'tags    = { service = "%s", rev = "%s" }' % (service, revision),
        text,
    )
    assert n == 1
    return edited


def plan_sha(plan) -> str:
    """The plan as the user reads it: ``render()`` is a function of the
    plan (values print with their keys sorted), whichever order the
    state holds an old value's dict in."""
    return hashlib.sha256(plan.render().encode()).hexdigest()


def full_plan(engine, sources, variables=None, state=None):
    """The oracle: this engine's compile of ``sources`` planned whole,
    on a graph of its own, by ``Planner.plan`` called directly."""
    compiled = engine.compile(sources, variables)
    graph = build_graph(
        compiled.config, variables=compiled.variables, loader=engine.loader
    )
    working = (engine.state if state is None else state).copy()
    data_values = read_data_sources(engine.resilient, graph, working)
    return engine.planner.plan(graph, working, data_values=data_values)


def assert_same_plan(got, want):
    assert got.render() == want.render()
    assert plan_sha(got) == plan_sha(want)
    assert got.summary() == want.summary()
    assert {c.id: c.action for c in got.changes.values()} == {
        c.id: c.action for c in want.changes.values()
    }
    assert CostEstimator().estimate_plan(got) == CostEstimator().estimate_plan(want)


def count_parses(monkeypatch):
    """Counts of the two calls a parse is made of, since the last look."""
    calls = {"chunks": 0, "parsed": 0}
    real_chunks, real_parse = lang_config.iter_chunks, lang_config.parse_file

    def counted_chunks(source):
        for chunk in real_chunks(source):
            calls["chunks"] += 1
            yield chunk

    def counted_parse(*args, **kwargs):
        calls["parsed"] += 1
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(lang_config, "iter_chunks", counted_chunks)
    monkeypatch.setattr(lang_config, "parse_file", counted_parse)

    def take():
        seen = dict(calls)
        calls.update(chunks=0, parsed=0)
        return seen

    return take


@pytest.fixture
def spy(monkeypatch):
    return count_parses(monkeypatch)


class TestResidentEqualsFresh:
    """One resident engine against a fresh engine per step, loaded from
    the world the resident one saved just before that step."""

    @staticmethod
    def observe(engine, step):
        kind, sources, variables = step
        if kind == "plan":
            sources = engine.last_sources if sources is None else sources
            variables = engine.last_variables if variables is None else variables
            want = full_plan(engine, sources, variables)
            plan = engine.plan(sources, variables=variables)
            diagnostics = ""
        elif kind == "destroy":
            want = full_plan(engine, "")
            result = engine.destroy()
            assert result.ok
            plan, diagnostics = result.plan, ""
        elif kind == "invalid":
            result = engine.apply(sources, variables=variables)
            assert not result.ok and result.plan is None
            return (str(result.validation), engine.state.content_hash())
        else:
            want = full_plan(engine, sources, variables)
            result = engine.apply(sources, variables=variables)
            assert result.ok, str(result.validation)
            plan, diagnostics = result.plan, str(result.validation.diagnostics)
        # the engine planned what its basis could not vouch for: the
        # same plan as diffing every node
        assert_same_plan(plan, want)
        return (
            plan.summary(),
            plan_sha(plan),
            diagnostics,
            engine.state.content_hash(),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_step_matches_a_freshly_loaded_engine(self, tmp_path, seed):
        rng = random.Random(seed)
        services = [f"estate-{i}" for i in range(3)]
        one = {"env": "prod"}
        two = {"env": "stage", "zone": "other.sim"}
        text = PROGRAM
        steps = [("apply", text, one), ("plan", None, None)]
        edits = ["retag", "retag", "add block", "insert line", "drop block", "retag"]
        rng.shuffle(edits)
        for n, edit in enumerate(edits):
            if edit == "retag":
                text = retag(text, rng.choice(services), f"r{n}")
            elif edit == "add block":
                text = text + EXTRA % (n, n)
            elif edit == "insert line":
                text = HEAD + f"# note {n}\n" + text[len(HEAD):]
            else:
                chunks = [c.text for c in iter_chunks(text)]
                text = "".join(c for c in chunks if f'"estate_{n % 3}_dns"' not in c)
            steps.append(("apply", text, one))
            if n % 2:
                steps.append(("plan", None, None))
        steps += [
            # a line that does not parse into a block the classifier
            # knows: the diagnostic's line number is part of the answer
            ("invalid", text + '\nresource "oops" {\n}\n', one),
            ("apply", text, two),  # same text, other variables
            ("plan", None, None),
            ("plan", text, one),  # a what-if under the old variables
            ("destroy", None, None),
            ("apply", PROGRAM, two),
            ("plan", None, None),
        ]

        resident = CloudlessEngine(seed=7)
        world = str(tmp_path / "world")
        for number, step in enumerate(steps):
            save_world(resident, world)
            fresh = load_world(world)
            assert fresh._last_compile is None
            want = self.observe(fresh, step)
            got = self.observe(resident, step)
            assert got == want, (number, step[0])
        assert resident.state.content_hash() != CloudlessEngine().state.content_hash()

    def test_every_kind_of_edit_with_every_verb_between(self, tmp_path):
        """One engine plans by its basis; its twin forgets the basis
        before every step, so it plans whole. Same verbs, same external
        events, same seed: the same plans and the same estate."""

        def once(old, new):
            def edit(text):
                assert text.count(old) == 1, old
                return text.replace(old, new)

            return edit

        def verb(kind, edit=None, **variables):
            def step(engine, text):
                text = edit(text) if edit else text
                wanted = {"env": "prod", **variables}
                want = full_plan(engine, text, wanted)
                if kind == "plan":
                    plan = engine.plan(text, variables=wanted)
                else:
                    result = engine.apply(text, variables=wanted)
                    assert result.ok, str(result.validation)
                    plan = result.plan
                assert_same_plan(plan, want)
                # a plan alone leaves the program as it was
                return plan, (text if kind == "apply" else None)

            return step

        def bare_plan(engine, text):
            want = full_plan(engine, engine.last_sources, engine.last_variables)
            plan = engine.plan(engine.last_sources, variables=engine.last_variables)
            assert_same_plan(plan, want)
            return plan, None

        def shared_bucket_flips(engine, text):
            plane = engine.gateway.planes["aws"]
            record = plane.find_by_name("aws_s3_bucket", "shared-legacy")
            plane.external_update(record.id, {"versioning": True})
            return None, None

        def adopt_a_retag(engine, text):
            vm = engine.state.instances_of("aws_virtual_machine", "estate_0_vm")[1]
            engine.gateway.planes["aws"].external_update(
                vm.resource_id, {"tags": {"service": "estate-0", "by": "hand"}}
            )
            # (the hand-made shared bucket shows up too, as unmanaged)
            modified = [f for f in engine.watch().findings if f.kind == "modified"]
            assert len(modified) == 1
            report = engine.reconcile(modified, policy={"modified": "adopt"})
            assert all(action.ok for action in report.actions)
            return None, None

        def roll_back(engine, text):
            assert engine.rollback(3).ok
            return None, engine.last_sources["main.clc"]

        def move_logs(engine, text):
            engine.state_move("aws_s3_bucket.logs", "aws_s3_bucket.journal")
            return None, once('"aws_s3_bucket" "logs"', '"aws_s3_bucket" "journal"')(text)

        def forget_one(engine, text):
            assert engine.state_forget('aws_s3_bucket.each["b"]')
            return None, None

        def crash_then_resume(engine, text):
            text = text + EXTRA % (1, 1) + EXTRA % (2, 2) + EXTRA % (3, 3)

            def die_at_two(index):
                if index == 2:
                    raise SimulatedCrash("boundary 2")

            with pytest.raises(SimulatedCrash):
                engine.apply(text, variables={"env": "prod"}, crash_hook=die_at_two)
            resumed = engine.resume(text, variables={"env": "prod"})
            assert resumed.ok and resumed.recovery.adopted
            return resumed.result.plan, text

        def denied(engine, text):
            wanted = {"env": "prod", "replicas": 40}
            want = full_plan(engine, text, wanted)
            result = engine.apply(text, variables=wanted)
            assert result.admission is not None and not result.admission.allowed
            assert_same_plan(result.plan, want)
            return result.plan, None

        def invalid(engine, text):
            result = engine.apply(
                text + '\nresource "oops" {\n}\n', variables={"env": "prod"}
            )
            assert not result.ok and result.plan is None
            return None, None

        def destroy(engine, text):
            want = full_plan(engine, "")
            result = engine.destroy()
            assert result.ok
            assert_same_plan(result.plan, want)
            return result.plan, None

        each = 'for_each = toset(["a", "b"])'
        script = [
            ("first apply", verb("apply")),
            ("bare plan", bare_plan),
            ("bare plan again", bare_plan),
            ("retag", verb("apply", lambda t: retag(t, "estate-1", "r1"))),
            ("transitive local", verb("apply", once('}-edge"', '}-rim"'))),
            ("what-if: variable value", verb("plan", env="stage")),
            ("variable default: count grows",
             verb("apply", once("default = 2", "default = 3"))),
            ("variable value: count shrinks", verb("apply", replicas=1)),
            ("for_each grows",
             verb("apply", once(each, 'for_each = toset(["a", "b", "c"])'))),
            ("what-if: provider region",
             verb("plan", once('region = "us-east-1"', 'region = "us-west-2"'))),
            ("add block", verb("apply", lambda t: t + EXTRA % (0, 0))),
            ("insert line", verb("apply", lambda t: "# a note\n" + t)),
            ("data source reads differently", shared_bucket_flips),
            ("bare plan", bare_plan),
            ("apply it", verb("apply")),
            ("adopt an external retag", adopt_a_retag),
            ("bare plan", bare_plan),
            ("enforce the program again", verb("apply")),
            ("roll back", roll_back),
            ("bare plan", bare_plan),
            ("apply what was rolled back to", verb("apply")),
            ("state mv", move_logs),
            ("apply the rename", verb("apply")),
            ("state rm", forget_one),
            ("what-if: the forgotten instance", verb("plan")),
            ("for_each shrinks",
             verb("apply", once(each, 'for_each = toset(["a"])'))),
            ("crash at the second boundary, resume", crash_then_resume),
            ("denied admission", denied),
            ("bare plan", bare_plan),
            ("failed validation", invalid),
            ("drop block", verb("apply", lambda t: "".join(
                c.text for c in iter_chunks(t) if '"estate_2_dns"' not in c.text
            ))),
            ("destroy", destroy),
            ("apply again", verb("apply")),
            ("bare plan", bare_plan),
        ]

        engines, texts, seen = [], [], []
        for name in ("scoped", "whole"):
            engine = CloudlessEngine(seed=7, wal_path=str(tmp_path / f"{name}.wal"))
            engine.gateway.planes["aws"].external_create(
                "aws_s3_bucket", {"name": "shared-legacy"}, "us-east-1"
            )
            engines.append(engine)
            texts.append(WIDE)
            seen.append([])
        budget = None
        scopes = {}
        for label, step in script:
            for n, engine in enumerate(engines):
                if n == 1:
                    engine._plan_basis = None
                if label == "denied admission" and budget is None:
                    budget = CostEstimator().estimate_state(engine.state) + 50.0
                if label == "denied admission":
                    engine.controller.register(budget_policy(budget))
                plan, text = step(engine, texts[n])
                if text is not None:
                    texts[n] = text
                seen[n].append((
                    label,
                    plan and (plan.summary(), plan_sha(plan)),
                    engine.state.content_hash(),
                ))
            assert seen[0][-1] == seen[1][-1], label
            if plan is not None:
                scopes.setdefault(label, []).append(engines[0].last_plan_scope)
        assert texts[0] == texts[1]
        # and the basis did spare work: (addresses diffed, graph nodes)
        assert scopes["first apply"] == [(36, 36)]
        assert scopes["bare plan again"] == [(0, 36)]
        assert scopes["retag"] == [(4, 36)]  # two VMs, their lb, its dns
        # the state entries the last apply wrote, and what the edit reaches
        assert scopes["transitive local"] == [(4 + 5, 36)]
        assert scopes["what-if: variable value"] == [(5, 36)]
        assert scopes["variable value: count shrinks"] == [(3, 35)]
        assert scopes["what-if: provider region"] == [(38, 38)]
        assert scopes["insert line"] == [(1, 39)]
        assert scopes["apply the rename"] == [(1, 36)]

    def test_a_changed_variable_reaches_locals_through_the_resident_config(self):
        """Why the graph is rebuilt per verb: a local's value belongs to
        the variables of the plan that evaluated it."""
        engine = CloudlessEngine(seed=7)
        assert engine.apply(PROGRAM, variables={"env": "prod"}).ok
        what_if = engine.plan(engine.last_sources, variables={"env": "stage"})
        assert "'prod-edge-logs' -> 'stage-edge-logs'" in what_if.render()
        bare = engine.plan(engine.last_sources, variables=engine.last_variables)
        assert bare.is_empty


@pytest.fixture
def counters():
    """The perf counters that moved since the last look."""
    perf.reset()
    perf.enable()

    def take():
        moved = dict(perf.snapshot()["counters"])
        perf.reset()
        return moved

    yield take
    perf.disable()
    perf.reset()


@pytest.fixture
def evaluated(monkeypatch):
    """Addresses whose attributes were evaluated since the last look."""
    seen = []
    real = ResourceNode.evaluate_attrs

    def spying(node):
        seen.append(node.id)
        return real(node)

    monkeypatch.setattr(ResourceNode, "evaluate_attrs", spying)

    def take():
        out = sorted(seen)
        del seen[:]
        return out

    return take


class TestPlansWhatTheEditCanTouch:
    @pytest.mark.parametrize(
        "name", ["locals", "modules", "data", "expanded", "edits"]
    )
    def test_the_edit_scripts_of_the_shared_graph_suite(self, name):
        from tests.test_verb_products import LOADER, SCRIPTS, VARIABLES

        variables = VARIABLES.get(name)
        engine = CloudlessEngine(seed=5, loader=LOADER)
        for text in SCRIPTS[name]:
            want = full_plan(engine, text, variables)
            got = engine.plan(text, variables=variables)
            assert_same_plan(got, want)
            want = full_plan(engine, text, variables)
            result = engine.apply(text, variables=variables)
            assert result.ok
            assert_same_plan(result.plan, want)
            assert engine.plan(text, variables=variables).is_empty

    def test_what_a_plan_evaluates(self, evaluated):
        engine = CloudlessEngine(seed=7)
        variables = {"env": "prod"}
        assert engine.apply(PROGRAM, variables=variables).ok
        # every entry is new to the basis: all of them are diffed once
        assert engine.apply(PROGRAM, variables=variables).plan.is_empty
        evaluated()

        assert engine.plan(PROGRAM, variables=variables).is_empty
        assert evaluated() == []
        assert engine.last_plan_scope == (0, len(engine.state))

        edited = retag(PROGRAM, "estate-1", "r1")
        plan = engine.plan(edited, variables=variables)
        assert plan.summary()["update"] == 2
        assert evaluated() == [
            "aws_dns_record.estate_1_dns",
            "aws_load_balancer.estate_1_lb",
            "aws_virtual_machine.estate_1_vm[0]",
            "aws_virtual_machine.estate_1_vm[1]",
        ]
        # an undiffed no-op reads like a diffed one to whoever asks
        undiffed = plan.changes["aws_s3_bucket.logs"]
        assert undiffed.desired == {"name": "prod-edge-logs"}
        assert evaluated() == ["aws_s3_bucket.logs"]
        assert (undiffed.region, undiffed.provider) == ("us-east-1", "aws")

    def test_a_budget_reads_an_undiffed_estate_as_a_diffed_one(self):
        """The state holds what the cloud reports, the plan what the
        program asks for; a cost that fell back on the former for the
        nodes a scoped plan skipped would price a resized VM."""
        engine = CloudlessEngine(seed=7)
        variables = {"env": "prod"}
        assert engine.apply(PROGRAM, variables=variables).ok
        vm = engine.state.instances_of("aws_virtual_machine", "estate_0_vm")[0]
        engine.gateway.planes["aws"].external_update(vm.resource_id, {"size": "xlarge"})
        report = engine.reconcile(engine.watch().findings, policy={"modified": "adopt"})
        assert [a.ok for a in report.actions] == [True]
        engine.plan(PROGRAM, variables=variables)

        scoped = engine.plan(PROGRAM, variables=variables)
        assert engine.last_plan_scope[0] == 0 and scoped.is_empty
        whole = full_plan(engine, PROGRAM, variables)
        cost = CostEstimator()
        asked_for = cost.estimate_plan(whole)
        assert cost.estimate_plan(scoped) == asked_for
        assert cost.estimate_state(engine.state) > asked_for + 200  # 7 x 36.50
        controller = InfrastructureController()
        controller.register(budget_policy(asked_for + 1.0))
        decisions = [
            controller.admit(plan, engine.state, cost_estimator=cost)
            for plan in (scoped, whole)
        ]
        assert [d.allowed for d in decisions] == [True, True]
        assert str(decisions[0]) == str(decisions[1])

    def test_why_a_plan_was_whole(self, counters):
        from tests.test_verb_products import LOADER, SCRIPTS

        engine = CloudlessEngine(seed=7)
        engine.plan(PROGRAM, variables={"env": "prod"})
        assert counters()["plan.full.first"] == 1
        engine.plan(PROGRAM, variables={"env": "prod"})
        moved = counters()
        assert moved["plan.scoped"] == 1 and "plan.full" not in moved
        # nothing is deployed: every instance is still to be diffed
        assert moved["plan.scope_nodes"] == engine.last_plan_scope[1] == 31

        engine = CloudlessEngine(seed=7, loader=LOADER)
        for text in SCRIPTS["modules"]:
            engine.plan(text)
        moved = counters()
        assert (moved["plan.full.first"], moved["plan.full.modules"]) == (1, 1)
        assert moved["plan.full"] == 2

        engine = CloudlessEngine(seed=7)
        plane = engine.gateway.planes["aws"]
        shared = plane.external_create(
            "aws_s3_bucket", {"name": "shared-legacy"}, "us-east-1"
        )
        assert engine.apply(WIDE, variables={"env": "prod"}).ok
        engine.plan(WIDE, variables={"env": "prod"})
        counters()
        plane.external_update(shared, {"versioning": True})
        plan = engine.plan(WIDE, variables={"env": "prod"})
        assert counters()["plan.full.data"] == 1
        assert [c.id for c in plan.actionable() if c.action.value == "update"] == [
            "aws_s3_bucket.logs"
        ]
        for name in (
            "plan.scoped", "plan.scope_nodes", "plan.full", "plan.full.first",
            "plan.full.modules", "plan.full.data",
        ):
            assert name in perf.KNOWN_PROBES

    def test_a_configuration_the_caller_built_has_no_basis(self, counters):
        """Only the engine's own parse is known not to change between
        two plans: the auto-repair edits a caller's in place."""
        config = lang_config.Configuration.parse(HEAD)
        engine = CloudlessEngine(seed=7)
        assert engine.apply(config, variables={"env": "prod"}).ok
        assert engine.plan(config, variables={"env": "prod"}).is_empty
        assert counters()["plan.full.first"] == 2 and engine._plan_basis is None
        attr = config.resources[("managed", "aws_s3_bucket", "logs")].body.attributes
        attr["versioning"] = lang_config.Attribute(
            "versioning", lang_config.Literal(True, attr["name"].span), attr["name"].span
        )
        plan = engine.plan(config, variables={"env": "prod"})
        assert plan.summary()["update"] == 1
        # and it disturbs no basis the engine does have
        assert engine.apply(HEAD, variables={"env": "prod"}).ok
        basis = engine._plan_basis
        engine.plan(config, variables={"env": "prod"})
        assert engine._plan_basis is basis

    def test_another_state_is_diffed_where_it_differs(self):
        engine = CloudlessEngine(seed=7)
        assert engine.apply(PROGRAM, variables={"env": "prod"}).ok
        assert engine.plan(PROGRAM, variables={"env": "prod"}).is_empty
        other = engine.state.copy()
        (logs,) = other.instances_of("aws_s3_bucket", "logs")
        other.set(logs.replace(attrs={**logs.attrs, "name": "by-hand"}))
        other.remove(other.instances_of("aws_dns_record", "estate_0_dns")[0].address)
        got = engine.plan(PROGRAM, variables={"env": "prod"}, state=other)
        assert_same_plan(
            got, full_plan(engine, PROGRAM, {"env": "prod"}, state=other)
        )
        assert got.summary()["create"] == 1 and engine.last_plan_scope[0] == 2
        assert engine.plan(PROGRAM, variables={"env": "prod"}).is_empty

    def test_a_plan_that_raises_leaves_the_basis(self):
        guarded = (
            'variable "home" {\n  default = "us-east-1"\n}\n'
            'provider "aws" {\n  region = var.home\n}\n'
            'resource "aws_s3_bucket" "logs" {\n  name = "logs"\n'
            "  lifecycle {\n    prevent_destroy = true\n  }\n}\n"
        )
        engine = CloudlessEngine(seed=7)
        assert engine.apply(guarded).ok
        engine.plan(guarded)
        basis = engine._plan_basis
        assert list(basis.noop) == ["aws_s3_bucket.logs"]
        with pytest.raises(PlanError, match="prevent_destroy"):
            engine.plan(guarded, variables={"home": "us-west-2"})  # a move replaces
        assert engine._plan_basis is basis
        assert engine.plan(guarded).is_empty

    def test_the_basis_holds_no_graph(self):
        """A graph is all reference cycles; what outlives the verb must
        not reach one (nor a context or resolver, which reach it)."""
        engine = CloudlessEngine(seed=7)
        engine.gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "shared-legacy"}, "us-east-1"
        )
        assert engine.apply(WIDE, variables={"env": "prod"}).ok
        engine.plan(engine.last_sources, variables=engine.last_variables)
        basis = engine._plan_basis
        assert len(basis.noop) == len(engine.state)
        assert basis.data_digest != values_digest({})  # a data source was read
        seen = set()
        for obj in reachable([basis], seen):
            assert not isinstance(
                obj, (ResourceGraph, ResourceNode, ModuleContext, ResourceResolver)
            ), type(obj)
        assert len(seen) > 1000  # it did walk the configuration


def reachable(roots, seen):
    """Every object ``gc`` can reach from ``roots`` whose id is not in
    ``seen`` yet (classes aside), each once; ``seen`` is added to."""
    frontier = list(roots)
    while frontier:
        obj = frontier.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            yield obj
            frontier.extend(gc.get_referents(obj))


def deep_size(roots, beside=()):
    """Bytes reachable from ``roots`` and not from ``beside``."""
    seen = set()
    for _ in reachable(beside, seen):
        pass
    return sum(sys.getsizeof(obj) for obj in reachable(roots, seen))


def held_attrs(engine):
    """``{declaration key: {instance key: kept attribute values}}`` of
    the engine's validation basis."""
    basis = engine._validation_basis
    out = {}
    for key, entry in basis.table.entries.items():
        decl, held = basis.config.resources[key], entry._attrs
        if held is None:
            out[key] = {}
        elif decl.count is None and decl.for_each is None:
            out[key] = {None: held}
        else:
            out[key] = dict(held)
    return out


class TestValidatesWhatTheEditCanTouch:
    @staticmethod
    def twin_of(engine, *args, **kwargs):
        """What a whole validation of the engine's own compile says:
        its pipeline, an empty table, a graph of its own."""
        compiled = engine.compile(*args, **kwargs)
        return engine.validation.verdict(
            engine.validation.validate(compiled.config, variables=compiled.variables)
        )

    def verdict(self, engine, *args, **kwargs):
        got = engine.validation.verdict(engine.validate(*args, **kwargs))
        assert got == self.twin_of(engine, *args, **kwargs)
        return [d[1] for d in got["diagnostics"]]

    def test_what_a_validation_computes(self, evaluated):
        engine = CloudlessEngine(seed=7)
        variables = {"env": "prod"}
        declared = len(lang_config.Configuration.parse(PROGRAM).resources)
        assert engine.apply(PROGRAM, variables=variables).ok
        # a process that compiles once keeps nothing
        assert engine._validation_basis is None
        assert engine.last_validation_scope == (declared, declared)
        assert engine.validate(PROGRAM, variables=variables).ok
        assert engine.last_validation_scope == (declared, declared)
        assert len(evaluated()) > 3 * len(engine.state)  # validate, plan, apply, validate

        assert engine.validate(PROGRAM, variables=variables).ok
        assert evaluated() == []
        assert engine.last_validation_scope == (0, declared)

        edited = retag(PROGRAM, "estate-1", "r1")
        assert engine.validate(edited, variables=variables).ok
        assert evaluated() == [
            "aws_virtual_machine.estate_1_vm[0]",
            "aws_virtual_machine.estate_1_vm[1]",
        ]
        assert engine.last_validation_scope == (1, declared)
        # an apply validates on the graph it plans on, once
        assert engine.apply(edited, variables=variables).ok
        assert engine.last_validation_scope == (0, declared)

    #: every input of an entry besides its own block, each in a program
    #: where an entry wrongly kept changes the verdict: two buckets are
    #: duplicates or not by what the second one's name evaluates to
    SENSITIVE = '''variable "env" {
  type = string
}

variable "tier" {
  default = "gold"
}

locals {
  second = "silver"
}

resource "aws_s3_bucket" "one" {
  name = "gold"
}

resource "aws_s3_bucket" "two" {
  name = %s
}
'''
    VPC = '''
resource "aws_vpc" "net" {
  name       = "net"
  cidr_block = "10.0.0.0/16"
}
'''

    def test_why_a_validation_was_whole(self, counters):
        from tests.test_verb_products import LOADER, SCRIPTS

        def resident(text, **variables):
            engine = CloudlessEngine(seed=7)
            for _ in range(3):
                assert engine.validate(text, variables=variables).ok
            return engine

        by_value = self.SENSITIVE % "var.env"
        engine = CloudlessEngine(seed=7)
        assert self.verdict(engine, by_value, variables={"env": "a"}) == []
        assert counters()["validate.full.first"] == 1 and engine._validation_basis is None
        assert self.verdict(engine, by_value, variables={"env": "a"}) == []
        assert counters()["validate.full.first"] == 1
        basis = engine._validation_basis
        assert basis is not None and engine.last_validation_scope == (2, 2)
        assert self.verdict(engine, by_value, variables={"env": "a"}) == []
        moved = counters()
        assert moved["validate.scoped"] == 1 and engine.last_validation_scope == (0, 2)
        assert not any(name.startswith("validate.full") for name in moved)
        assert moved["validate.attrs_evaluated"] == moved["validate.decls_checked"] == 0

        # a variable's value
        assert self.verdict(engine, by_value, variables={"env": "gold"}) == ["GEN001"]
        assert counters()["validate.full.variables"] == 1
        # a Configuration the caller parsed: neither read nor replaced
        basis = engine._validation_basis
        config = lang_config.Configuration.parse(by_value)
        assert not engine.validate(config, variables={"env": "gold"}).ok
        assert counters()["validate.full.foreign"] == 1
        assert engine._validation_basis is basis
        # a graph somebody has planned on answers with the state's values
        compiled = engine.compile(by_value, {"env": "a"})
        engine.plan(compiled)
        assert engine.validate(compiled).ok
        assert counters()["validate.full.foreign"] == 1
        assert engine._validation_basis is basis

        # a variable's declaration
        by_default = self.SENSITIVE % "var.tier"
        engine = CloudlessEngine(seed=7)
        for _ in range(2):
            assert self.verdict(engine, by_default, variables={"env": "a"}) == ["GEN001"]
        counters()
        edited = by_default.replace('"gold"\n}\n\nlocals', '"iron"\n}\n\nlocals')
        assert self.verdict(engine, edited, variables={"env": "a"}) == []
        assert counters()["validate.full.variables"] == 1

        # a local
        by_local = self.SENSITIVE % "local.second"
        engine = resident(by_local, env="a")
        counters()
        edited = by_local.replace('"silver"', '"gold"')
        assert self.verdict(engine, edited, variables={"env": "a"}) == ["GEN001"]
        assert counters()["validate.full.locals"] == 1

        # the declared names: an attribute that reads an undeclared one
        # does not evaluate, so the bucket has no name to duplicate
        by_name = self.SENSITIVE % '"gold"\n  versioning = aws_vpc.net.name == "net"' + self.VPC
        engine = CloudlessEngine(seed=7)
        for _ in range(2):
            assert self.verdict(engine, by_name, variables={"env": "a"}) == ["GEN001"]
        counters()
        dropped = by_name[: -len(self.VPC)]
        assert self.verdict(engine, dropped, variables={"env": "a"}) == ["GEN002"]
        assert counters()["validate.full.declarations"] == 1
        assert self.verdict(engine, by_name, variables={"env": "a"}) == ["GEN001"]
        assert counters()["validate.full.declarations"] == 1

        # the pipeline: a registry that reads the schema otherwise
        engine = resident(by_value, env="a")
        counters()
        spec = engine.registry.spec_for("aws_s3_bucket")
        engine.registry.register(
            dataclasses.replace(
                spec,
                attributes={
                    **spec.attributes,
                    "name": dataclasses.replace(spec.attributes["name"], type="number"),
                },
            )
        )
        assert self.verdict(engine, by_value, variables={"env": "a"}) == ["TYPE005"]
        assert counters()["validate.full.pipeline"] == 1
        # ... or runs other rules
        estate = hub_spoke(spokes=1)
        engine = resident(estate)
        assert engine.apply(estate).ok
        assert engine.learn_validation_rules(min_support=1) > 0
        counters()
        assert self.verdict(engine, estate) == []
        assert counters()["validate.full.pipeline"] == 1

        # module calls, on either side
        engine = CloudlessEngine(seed=7, loader=LOADER)
        plain, calling = SCRIPTS["locals"][0], SCRIPTS["modules"][0]
        for text in (plain, plain, calling, calling, plain):
            assert engine.validate(text).ok
        moved = counters()
        assert (moved["validate.full.first"], moved["validate.full.modules"]) == (2, 3)

        for name in (
            "validate.scoped", "validate.decls_checked", "validate.attrs_evaluated",
            *("validate.full." + why for why in (
                "first", "foreign", "modules", "pipeline", "variables", "locals",
                "declarations",
            )),
        ):
            assert name in perf.KNOWN_PROBES

    def test_a_block_that_only_moved_says_where_it_is_now(self):
        """An empty body is made of no parsed object but its span."""
        empty = 'resource "aws_s3_bucket" "empty" {\n}\n'
        engine = CloudlessEngine(seed=7)
        for _ in range(2):
            report = engine.validate(HEAD + empty, variables={"env": "prod"})
        (error,) = report.errors
        assert error.code == "TYPE004"
        moved = engine.validate(HEAD + "# a note\n" + empty, variables={"env": "prod"})
        # above the inserted line nothing moved
        assert engine.last_validation_scope == (1, 2)
        assert moved.errors[0].span.start_line == error.span.start_line + 1

    def test_types_fail_then_are_fixed(self, evaluated):
        """A run that stops at the type stage reads no attribute; what
        the run before it evaluated is still there for the fix."""
        engine = CloudlessEngine(seed=7)
        variables = {"env": "prod"}
        for _ in range(2):
            assert engine.validate(PROGRAM, variables=variables).ok
        evaluated()
        broken = PROGRAM.replace('zone  = "example.sim"', 'zzzz  = "example.sim"', 1)
        report = engine.validate(broken, variables=variables)
        assert [d.code for d in report.errors] == ["TYPE002", "TYPE004"]
        assert "rules" not in report.stage_errors and evaluated() == []
        assert engine.validate(PROGRAM, variables=variables).ok
        assert evaluated() == ["aws_dns_record.estate_0_dns"]
        assert engine.last_validation_scope[0] == 1

    def test_the_basis_holds_no_graph(self):
        """As for the plan basis; and an attribute that evaluates to a
        whole resource type is a lazy mapping over its module context,
        which is evaluated again rather than kept."""
        text = WIDE + (
            'resource "aws_virtual_machine" "all" {\n  name = "all"\n'
            "  nic_ids = []\n  tags = aws_s3_bucket\n}\n"
        )
        engine = CloudlessEngine(seed=7)
        for _ in range(2):
            assert engine.validate(text, variables={"env": "prod"}).ok
        held = {key[-1]: sorted(kept, key=str) for key, kept in held_attrs(engine).items()}
        assert held["all"] == [] and held["logs"] == [None]
        assert held["replica"] == [0, 1] and held["each"] == ["a", "b"]
        seen = set()
        for obj in reachable([engine._validation_basis], seen):
            assert not isinstance(
                obj,
                (ResourceGraph, ResourceNode, ModuleContext, ResourceResolver, _KeyedMapping),
            ), type(obj)
        assert len(seen) > 1000  # it did walk the configuration

    def test_bounded_by_the_last_validated_program(self):
        text = WIDE.replace("count = var.replicas", "count = 2")
        engine = CloudlessEngine(seed=7)
        rng = random.Random(5)
        count = 2
        for n in range(200):
            count = rng.choice([c for c in range(5) if c != count])
            edited = text.replace("count = 2", f"count = {count}")
            if n % 3 == 0:
                edited += EXTRA % (n, n)
            assert engine.validate(edited, variables={"env": "prod"}).ok
        config = engine._last_compile[1]
        assert engine._validation_basis.config is config
        entries = engine._validation_basis.table.entries
        assert sorted(entries) == sorted(config.resources)
        instances = {key[-1]: sorted(kept, key=str) for key, kept in held_attrs(engine).items()}
        assert instances["replica"] == list(range(count))
        assert instances["each"] == ["a", "b"] and instances["estate_0_vm"] == [0, 1]
        graph = build_graph(config, variables={"env": "prod"})
        assert sum(len(held) for held in instances.values()) == len(graph.managed_ids())

    def test_a_tenants_basis_is_small(self):
        """What a session holds for it beyond the program it holds
        anyway: the 100-resource estate of the service benchmark."""
        text = sized_estate(100)
        engine = CloudlessEngine(seed=7)
        assert engine.apply(text).ok
        for n in range(3):
            assert engine.apply(retag(text, "estate-1", f"r{n}")).ok
        assert len(engine.state) == 100
        assert sum(len(kept) for kept in held_attrs(engine).values()) == 100
        size = deep_size([engine._validation_basis], beside=[engine._last_compile])
        assert 10_000 < size <= 64 * 1024, size

    def test_one_apply_keeps_nothing(self, tmp_path):
        """The CLI case: a process that compiles once, from text or
        from the artifact cache, has no next validation to keep for."""
        for _ in range(2):  # a miss, then an exact hit
            engine = CloudlessEngine(seed=7, cache_dir=str(tmp_path / "cache"))
            assert engine.apply(PROGRAM, variables={"env": "prod"}).ok
            assert engine._validation_basis is None


class TestMutantSequences:
    """``ConfigMutator`` plants one realistic mistake per step (a bad
    enum, a reference to the wrong type, a dropped attribute, a region
    that does not exist ...), written back into the text. Some of the
    programs do not build, some applies fail half-way: whatever
    happens, the engine that plans by its basis and the twin that
    forgets it before every verb say and do the same."""

    @staticmethod
    def attempt(engine, verb, text):
        try:
            want = full_plan(engine, text)
        except (GraphBuildError, PlanError) as exc:
            with pytest.raises((EngineError, PlanError)):
                engine.plan(text)
            return type(exc).__name__
        if verb == "plan":
            plan = engine.plan(text)
        else:
            plan = engine.apply(text, validate_first=False, admit=False).plan
        assert_same_plan(plan, want)
        return plan_sha(plan)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=5),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.sampled_from(["plan", "apply", "apply"]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_scoped_equals_whole(self, base, steps):
        text = _mutant_base(base)
        scoped, whole = CloudlessEngine(seed=3), CloudlessEngine(seed=3)
        for engine in (scoped, whole):
            assert engine.apply(text).ok
            assert engine.plan(text).is_empty  # every node is proven once
        for seed, verb in steps:
            try:
                text = mutant_source(text, seed)
            except MutationError:
                continue
            whole._plan_basis = None
            assert self.attempt(scoped, verb, text) == self.attempt(whole, verb, text)
            assert scoped.state.content_hash() == whole.state.content_hash()
        whole._plan_basis = None
        assert self.attempt(scoped, "plan", text) == self.attempt(whole, "plan", text)

    @staticmethod
    def edited(text, kind, seed):
        """``text`` after one edit of ``kind``, or ``None`` when the
        edit finds nothing to do there. Whether the result validates is
        not the edit's business: half of these leave a reference to a
        name that is gone."""
        chunks = [c.text for c in iter_chunks(text)]
        blocks = [n for n, c in enumerate(chunks) if c.lstrip().startswith("resource")]
        at = blocks[seed % len(blocks)]
        if kind == "mutant":
            try:
                return mutant_source(text, seed)
            except MutationError:
                return None
        if kind == "comment":  # every block below it moves down a line
            chunks.insert(at, f"# note {seed}\n")
        elif kind == "add":
            chunks.insert(at, EXTRA % (seed, seed))
        elif kind == "drop":
            del chunks[at]
        elif kind == "rename":
            chunks[at] = re.sub(r'^(\s*resource "\w+" "\w+)"', r'\1_x"', chunks[at], 1)
        elif kind == "count":  # 2 -> 1 -> 0 -> 3: shrinks twice, then grows
            counted = [n for n in blocks if re.search(r"count\s*=\s*\d+", chunks[n])]
            if not counted:
                return None
            at = counted[seed % len(counted)]
            chunks[at] = re.sub(
                r"(count\s*=\s*)(\d+)",
                lambda m: m.group(1) + str((int(m.group(2)) - 1) % 4),
                chunks[at],
                1,
            )
        elif kind == "local":
            old, new = ('}-edge"', '}-rim"') if '}-edge"' in text else ('}-rim"', '}-edge"')
            return text.replace(old, new)
        elif kind == "default":
            return re.sub(
                r"default = (\d)", lambda m: f"default = {(int(m.group(1)) + 1) % 4}", text, 1
            )
        return "".join(chunks)

    @settings(max_examples=120, deadline=None)
    @given(
        base=st.integers(min_value=0, max_value=5),
        steps=st.lists(
            st.tuples(
                st.sampled_from([
                    "mutant", "mutant", "mutant", "undo", "comment", "add", "drop",
                    "rename", "count", "local", "default", "variable", "learn", "same",
                ]),
                st.integers(min_value=0, max_value=10_000),
                st.sampled_from(["validate", "validate", "plan", "apply"]),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_reused_validation_equals_whole(self, base, steps):
        """Three answers per verb: the engine that keeps its validation
        basis, the twin that forgets it first, and the first one's own
        pipeline on a fresh parse with an empty table."""
        # (a default, so that the miner can read the history's programs)
        text = WIDE_HEAD.replace("string\n", 'string\n  default = "prod"\n', 1)
        text += _mutant_base(base)
        variables = {"env": "prod"}
        reusing, whole = CloudlessEngine(seed=3), CloudlessEngine(seed=3)
        for engine in (reusing, whole):
            engine.gateway.planes["aws"].external_create(
                "aws_s3_bucket", {"name": "shared-legacy"}, "us-east-1"
            )
            assert engine.apply(text, variables=variables).ok
            assert engine.validate(text, variables=variables).ok  # kept from here
        assert reusing._validation_basis is not None
        history = [text]
        for kind, seed, verb in steps:
            if kind == "undo":  # a mistake, then its fix
                text = history[-2] if len(history) > 1 else text
            elif kind == "variable":
                variables = {"env": "stage" if variables["env"] == "prod" else "prod"}
            elif kind == "learn":
                assert reusing.learn_validation_rules(
                    min_support=1
                ) == whole.learn_validation_rules(min_support=1)
            elif kind != "same":
                text = self.edited(text, kind, seed) or text
            history.append(text)
            whole._validation_basis = None
            verdicts = []
            for engine in (reusing, whole):
                try:
                    if verb == "validate":
                        report = engine.validate(text, variables=variables)
                    elif verb == "apply":
                        report = engine.apply(text, variables=variables).validation
                    else:
                        engine.plan(text, variables=variables)
                        report = None
                except (EngineError, PlanError) as exc:
                    verdicts.append(type(exc).__name__)
                    continue
                verdicts.append(report and engine.validation.verdict(report))
            assert verdicts[0] == verdicts[1], (kind, verb)
            assert reusing.state.content_hash() == whole.state.content_hash()
            if not isinstance(verdicts[0], dict):
                continue
            fresh = reusing.validation.validate(
                lang_config.Configuration.parse_streaming({"main.clc": text}),
                variables=variables,
            )
            assert reusing.validation.verdict(fresh) == verdicts[0], (kind, verb)
            # and what is kept is what a whole run computes, whether or
            # not a rule happened to read it this time
            kept, computed = (e._validation_basis.table.entries for e in (reusing, whole))
            assert computed.keys() <= kept.keys() <= reusing._last_compile[1].resources.keys()
            for key, entry in computed.items():
                assert entry.types is None or kept[key].types == entry.types, key
            kept, computed = held_attrs(reusing), held_attrs(whole)
            for key, instances in computed.items():
                for instance, attrs in instances.items():
                    assert kept[key][instance] == attrs, (key, instance)

    # -- across processes: the CLI, one engine per verb ---------------------------

    @staticmethod
    def cli_verb(project, *argv, dying_at=None):
        """One verb through ``cli.main``: exit code (or the name of what
        killed it: the planted crash, a plan the program cannot have),
        what it printed, and the perf counters it moved."""
        real_apply = CloudlessEngine.apply

        def hook(index):
            if index == dying_at:
                raise SimulatedCrash(f"boundary {dying_at}")

        def dying(self, *args, **kwargs):
            return real_apply(self, *args, crash_hook=hook, **kwargs)

        out = io.StringIO()
        perf.reset()
        perf.enable()
        try:
            if dying_at is not None:
                CloudlessEngine.apply = dying
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = cli.main(["--chdir", project, *argv])
                except (SimulatedCrash, PlanError) as exc:
                    code = type(exc).__name__
            moved = dict(perf.snapshot()["counters"])
        finally:
            CloudlessEngine.apply = real_apply
            perf.disable()
            perf.reset()
        # (a journal's run id is drawn per run)
        said = re.sub(r"recovered run \w+", "recovered run <id>", out.getvalue())
        return code, said.replace(project, "<project>"), moved

    #: (``import`` last: it replaces the program with a generated one)
    CLI_STEPS = (
        "retag", "mutant", "plan", "plan-apply", "what-if", "drift", "mv",
        "rm", "rollback", "crash", "no-cache", "rm-cache", "var",
        "count", "add", "drop", "rename", "provider", "data", "import",
    )

    def cli_step(self, kind, seed, text, variables):
        """One step of a CLI session as ``(actions, variables after)``,
        or ``None`` when ``text`` gives it nothing to do. An action is
        ``("write", text)``, ``("act", callable on a loaded engine)``,
        ``("rm-cache",)`` or ``("verb", argv, boundary to die at)``."""

        def verb(*argv, dying_at=None):
            takes = argv[0] in ("apply", "plan", "resume")
            return ("verb", argv + (tuple(variables) if takes else ()), dying_at)

        def applied(edited):
            return edited and [("write", edited), verb("apply")]

        def flipped(template, one, other):
            old, new = (one, other) if template % one in text else (other, one)
            return (template % old, template % new) if template % old in text else None

        if kind == "retag":
            service = f"estate-{seed % 3}"
            if f'tags    = {{ service = "{service}"' not in text:
                return None
            return applied(retag(text, service, f"r{seed}")), variables
        if kind == "mutant":
            try:
                return applied(mutant_source(text, seed)), variables
            except MutationError:
                return None
        if kind in ("add", "drop", "rename"):
            return applied(self.edited(text, kind, seed)), variables
        if kind == "count":
            actions = applied(self.edited(text, "default", seed))
        elif kind == "plan":
            actions = [verb("plan")]
        elif kind == "plan-apply":
            # the everyday pair: the plan re-wrote the artifact the
            # world's record is about, so the apply plans whole
            service = f"estate-{seed % 3}"
            if f'tags    = {{ service = "{service}"' not in text:
                return None
            edited = retag(text, service, f"p{seed}")
            actions = [("write", edited), verb("plan"), *applied(edited)]
        elif kind == "what-if":
            # planned and never applied; then the apply of another edit
            actions = [
                ("write", self.edited(text, "add", seed)),
                verb("plan"),
                *applied(self.edited(text, "comment", seed)),
            ]
        elif kind == "drift":

            def drift(engine):
                vms = engine.state.instances_of("aws_virtual_machine", "estate_0_vm")
                if vms:
                    engine.gateway.planes["aws"].external_update(
                        vms[seed % len(vms)].resource_id, {"size": f"by-hand-{seed % 3}"}
                    )

            actions = [("act", drift), verb("watch", "--reconcile"), verb("plan")]
        elif kind == "mv":
            names = flipped('"aws_s3_bucket" "%s"', "logs", "journal")
            if names is None:
                return None
            old, new = (re.search(r'"(\w+)"$', name).group(1) for name in names)
            actions = [
                verb("state", "mv", f"aws_s3_bucket.{old}", f"aws_s3_bucket.{new}"),
                *applied(text.replace(*names)),
            ]
        elif kind == "rm":
            address = "aws_virtual_machine.estate_1_vm[0]"
            actions = [verb("state", "rm", address), verb("plan"), verb("apply")]
        elif kind == "import":
            # (it rewrites the program, which declares no variable)
            variables = ()
            actions = [verb("import"), verb("plan")]
        elif kind == "rollback":
            actions = [verb("rollback", "1"), verb("plan"), verb("apply")]
        elif kind == "crash":
            actions = [
                ("write", text + EXTRA % (seed, seed) + EXTRA % (seed + 1, seed + 1)),
                verb("apply", dying_at=1 + seed % 2),
                verb("resume"),
                verb("plan"),
            ]
        elif kind == "no-cache":
            actions = [
                ("write", self.edited(text, "comment", seed)),
                verb("apply", "--no-cache"),
                verb("plan"),
            ]
        elif kind == "rm-cache":
            actions = [("rm-cache",), verb("plan")]
        elif kind == "var":
            if not variables:
                return None
            variables = ("--var", "env=stage" if "env=prod" in variables else "env=prod")
            actions = [verb("apply")]
        elif kind == "provider":
            regions = flipped('region = "%s"', "us-east-1", "us-east-2")
            if regions is None:
                return None
            actions = [
                ("write", text.replace(*regions)),
                verb("plan"),
                *applied(self.edited(text, "comment", seed)),
            ]
        elif kind == "data":

            def flip(engine):
                plane = engine.gateway.planes["aws"]
                record = plane.find_by_name("aws_s3_bucket", "shared-legacy")
                plane.external_update(
                    record.id, {"versioning": not record.attrs.get("versioning")}
                )

            actions = [("act", flip), verb("plan"), verb("apply")]
        return actions, variables

    @settings(max_examples=30, deadline=None)
    @example(steps=[(kind, 7) for kind in CLI_STEPS[:7]])
    @example(steps=[(kind, 8) for kind in CLI_STEPS[7:13]])
    @example(steps=[(kind, 9) for kind in CLI_STEPS[13:]])
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(CLI_STEPS), st.integers(min_value=0, max_value=10_000)
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_crossing_the_process_equals_planning_whole(self, steps):
        """Two project directories, the same verbs through ``cli.main``:
        one as the verbs leave it, one whose plan record is cut out of
        the world before every verb. The same exit code, output (the
        rendered plan), state, files and API-call counts after every
        verb; and whoever planned whole said why. An edit whose apply
        fails is taken back before the next step, as its author would."""
        with tempfile.TemporaryDirectory() as root:
            kept, stripped = (os.path.join(root, name) for name in ("kept", "stripped"))
            variables = ("--var", "env=prod")
            for project in (kept, stripped):
                os.makedirs(project)
                with open(os.path.join(project, "main.clc"), "w") as handle:
                    handle.write(WIDE)
                assert self.cli_verb(project, "init", "--seed", "3")[0] == 0
                self.prepare(
                    project,
                    ("act", lambda engine: engine.gateway.planes["aws"].external_create(
                        "aws_s3_bucket", {"name": "shared-legacy"}, "us-east-1"
                    )),
                )
                assert self.cli_verb(project, "apply", *variables)[0] == 0
            woken = 0
            good = WIDE  # the last program an apply accepted
            # (the head and the tail: an edit applied, then a plan of it)
            for kind, seed in [("retag", 1), ("plan", 0), *steps, ("plan", 0)]:
                step = self.cli_step(kind, seed, good, variables)
                if step is None or not step[0]:
                    continue
                actions, variables = step
                for action in [("write", good), *actions]:
                    if action[0] != "verb":
                        for project in (kept, stripped):
                            self.prepare(project, action)
                        continue
                    strip_plan_record(os.path.join(stripped, "cloudless.world"))
                    (seen, moved), (twin, twin_moved) = (
                        self.observe(project, action) for project in (kept, stripped)
                    )
                    assert seen == twin, (kind, seed, action[1])
                    if seen[0] == 0 and action[1][0] in ("apply", "resume", "import"):
                        good = seen[-1]
                    whys = {n for n in moved if n.startswith("plan.basis.")}
                    assert whys <= set(perf.KNOWN_PROBES)
                    woken += moved.get("plan.basis.woken", 0)
                    # whoever planned whole said why: the record did not
                    # wake, or what it woke was no use
                    if "plan.full" in moved:
                        assert whys - {"plan.basis.woken"}, (kind, action[1], moved)
                    assert "plan.scoped" not in twin_moved
                    assert all(
                        n == "plan.basis.none"
                        for n in twin_moved
                        if n.startswith("plan.basis.")
                    ), (kind, action[1], twin_moved)
            assert woken >= 1

    @staticmethod
    def prepare(project, action):
        """What happens to a project between two verbs."""
        if action[0] == "write":
            with open(os.path.join(project, "main.clc"), "w") as handle:
                handle.write(action[1])
        elif action[0] == "act":
            world = os.path.join(project, "cloudless.world")
            engine = load_world(world)  # the harness's cache-less load / save
            action[1](engine)
            save_world(engine, world)
        else:
            assert action == ("rm-cache",)
            shutil.rmtree(os.path.join(project, ".clc-cache"))

    def observe(self, project, action):
        """A verb, and what it left: ``((exit code, output, state hash,
        API calls per plane, program on disk), counters moved)``."""
        _verb, argv, dying_at = action
        code, out, moved = self.cli_verb(project, *argv, dying_at=dying_at)
        engine = load_world(os.path.join(project, "cloudless.world"))
        with open(os.path.join(project, "main.clc")) as handle:
            program = handle.read()
        calls = {n: dict(p.api_calls) for n, p in engine.gateway.planes.items()}
        return (code, out, engine.state.content_hash(), calls, program), moved


class TestParsesWhatChanged:
    def test_counts(self, spy):
        engine = CloudlessEngine(seed=7)
        n_chunks = len(list(iter_chunks(PROGRAM)))
        variables = {"env": "prod"}

        assert engine.apply(PROGRAM, variables=variables).ok
        assert spy() == {"chunks": n_chunks, "parsed": n_chunks}

        # a bare plan: what is applied, as the service passes it
        plan = engine.plan(engine.last_sources, variables=engine.last_variables)
        assert plan.is_empty
        assert spy() == {"chunks": 0, "parsed": 0}

        # a one-block edit that keeps every line where it was
        edited = retag(PROGRAM, "estate-1", "r1")
        result = engine.apply(edited, variables=variables)
        assert result.ok and result.plan.summary()["update"] == 2
        assert spy() == {"chunks": n_chunks, "parsed": 1}

        # the same text under other variables: nothing to parse
        result = engine.apply(edited, variables={"env": "stage"})
        assert result.ok and result.plan.summary()["update"] == 1
        assert spy() == {"chunks": 0, "parsed": 0}

        # validate and plan of one text share the compile too
        assert engine.validate(edited, variables={"env": "stage"}).ok
        engine.plan(edited, variables={"env": "stage"})
        assert spy() == {"chunks": 0, "parsed": 0}

    def test_an_inserted_line_reparses_what_moved_and_nothing_above(self, spy):
        engine = CloudlessEngine(seed=7)
        engine.compile(PROGRAM)
        spy()
        # HEAD's closing blank line leads the chunk the note lands in
        head_chunks = len(list(iter_chunks(HEAD.rstrip("\n") + "\n")))
        n_chunks = len(list(iter_chunks(PROGRAM)))
        engine.compile(HEAD + "# a note\n" + PROGRAM[len(HEAD):])
        assert spy() == {"chunks": n_chunks, "parsed": n_chunks - head_chunks}

    def test_a_failed_parse_keeps_the_last_good_compile(self, spy):
        from repro.lang.diagnostics import CLCSyntaxError

        engine = CloudlessEngine(seed=7)
        first = engine.compile(PROGRAM)
        with pytest.raises(CLCSyntaxError):
            engine.compile(PROGRAM + "\nresource {{{\n")
        spy()
        again = engine.compile(PROGRAM)
        assert again.config is first.config and again is not first
        assert spy() == {"chunks": 0, "parsed": 0}

    def test_only_source_text_is_remembered(self):
        engine = CloudlessEngine(seed=7)
        compiled = engine.compile(PROGRAM)
        assert engine.compile(compiled) is compiled
        engine.compile(lang_config.Configuration.parse(""))
        assert engine._last_compile[1] is compiled.config
        assert compiled.graph is None  # built per verb, never kept

    def test_probes_are_declared_and_count(self):
        from repro import perf

        for name in (
            "lang.chunks_parsed",
            "lang.chunks_reused",
            "compile.resident_exact",
            "compile.resident_partial",
        ):
            assert name in perf.KNOWN_PROBES
        n_chunks = len(list(iter_chunks(PROGRAM)))
        engine = CloudlessEngine(seed=7)
        perf.reset()
        perf.enable()
        try:
            engine.compile(PROGRAM)
            engine.compile(PROGRAM)
            engine.compile(retag(PROGRAM, "estate-0", "r1"))
            counters = perf.snapshot()["counters"]
        finally:
            perf.disable()
            perf.reset()
        assert counters["lang.chunks_parsed"] == n_chunks + 1
        assert counters["lang.chunks_reused"] == n_chunks - 1
        assert counters["compile.resident_exact"] == 1
        assert counters["compile.resident_partial"] == 1


class TestBoundedByTheProgram:
    def test_fifty_distinct_edits_leave_one_programs_chunks(self):
        engine = CloudlessEngine(seed=7)
        text = PROGRAM
        for n in range(50):
            kind = n % 3
            if kind == 0:
                text = retag(PROGRAM, f"estate-{n % 3}", f"r{n}")
            elif kind == 1:
                text = text + EXTRA % (n, n)
            else:
                text = f"# generation {n}\n" + text
            engine.compile(text)
        texts, config = engine._last_compile
        chunks = list(iter_chunks(text))
        assert texts == {"main.clc": text}
        assert set(config._chunk_asts) == {
            ("main.clc", c.start_line, c.fingerprint) for c in chunks
        }
        assert len(config._chunk_asts) == len(chunks)


class TestCacheStillFirst:
    """With a cache directory the first compile of a process is today's
    path; the resident compile only replaces later artifact reads."""

    def test_first_compile_reads_the_artifact_later_ones_do_not(self, tmp_path, spy):
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(seed=7, cache_dir=cache_dir)
        cold.plan(PROGRAM, variables={"env": "prod"})
        assert cold.compile_cache.misses == 1 and cold.compile_cache.stores == 1
        spy()

        warm = CloudlessEngine(seed=7, cache_dir=cache_dir)
        first = warm.compile(PROGRAM, variables={"env": "prod"})
        assert warm.compile_cache.exact_hits == 1 and first.graph is not None
        edited = retag(PROGRAM, "estate-1", "r1")
        second = warm.compile(edited, variables={"env": "prod"})
        assert second.store_fps is not None and second.graph is None
        assert spy()["parsed"] == 1
        # one lookup for the process: the edit compiled against memory
        cache = warm.compile_cache
        assert (cache.exact_hits, cache.partial_hits, cache.misses) == (1, 0, 0)
        warm.plan(second)
        assert cache.stores == 1
        assert os.listdir(cache_dir)

        next_process = CloudlessEngine(seed=7, cache_dir=cache_dir)
        assert next_process.compile(edited, variables={"env": "prod"}).graph is not None
