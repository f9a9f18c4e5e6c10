"""A compile has three products -- ``Configuration``, graph, verdict --
each made once per verb and replayed together when the compile is.

* *Differential*: the engine's one-graph verb against a reference that
  builds a graph for validation and another for the plan.
* *Counting*: how many graphs, type checks and rule runs a verb costs.
* *Replay is exactly as strict as validating*: what a recorded verdict
  is a function of, and that it never outlives any of it.
* *Untrusted bytes*: a verdict field that is not ours is no verdict.
"""

import contextlib
import io
import json
import os

import pytest

import repro.core.engine as engine_module
import repro.validate.rules as rules_module
from repro import cli, perf
from repro.cloud import CloudGateway
from repro.compilecache.store import _header_sha
from repro.core.engine import CloudlessEngine, Compiled
from repro.graph import build_graph
from repro.lang import Configuration
from repro.lang.module_loader import DictModuleLoader
from repro.types import SchemaRegistry
from repro.types.checker import TypeChecker
from repro.validate.pipeline import LEVEL_TYPES, VerdictMismatch
from repro.validate.rules import Rule, RuleEngine, RuleInfo
from repro.workloads import sized_estate
from tests.test_engine_resident import EXTRA, PROGRAM, retag
from tests.test_validation import AZURE_STACK

# -- programs -----------------------------------------------------------------


def locals_over_resources(n: int) -> str:
    return f'''
resource "aws_vpc" "a" {{
  name       = "net-{n}"
  cidr_block = "10.0.0.0/16"
}}

locals {{
  vid    = aws_vpc.a.id
  block  = aws_vpc.a.cidr_block
  prefix = "tier-{n}"
}}

resource "aws_subnet" "s" {{
  count      = {n + 2}
  name       = "${{local.prefix}}-${{count.index}}"
  vpc_id     = local.vid
  cidr_block = cidrsubnet(local.block, 8, count.index)
}}

output "first" {{
  value = aws_subnet.s[0].id
}}
'''


NET_MODULE = '''
variable "vpc_id" {
  type = string
}

variable "label" {
  type    = string
  default = "net"
  validation {
    condition     = length(var.label) > 0
    error_message = "label must not be empty"
  }
}

locals {
  home = var.vpc_id
}

resource "aws_subnet" "s" {
  name       = "${var.label}-subnet"
  vpc_id     = local.home
  cidr_block = "10.0.1.0/24"
}

output "subnet_id" {
  value = aws_subnet.s.id
}
'''


def module_inputs_and_outputs(n: int) -> str:
    return f'''
resource "aws_vpc" "a" {{
  name       = "hub-{n}"
  cidr_block = "10.0.0.0/16"
}}

module "net" {{
  source = "./net"
  vpc_id = aws_vpc.a.id
  label  = "m{n}"
}}

resource "aws_network_interface" "n" {{
  name      = "nic-{n}"
  subnet_id = module.net.subnet_id
}}
'''


def data_feeding_locals(n: int) -> str:
    return f'''
data "aws_region" "here" {{}}

data "aws_availability_zones" "az" {{}}

locals {{
  region = data.aws_region.here.name
  zone   = data.aws_availability_zones.az.names[{n % 3}]
}}

resource "aws_vpc" "v" {{
  name       = "${{local.region}}-net"
  cidr_block = "10.0.0.0/16"
}}

resource "aws_subnet" "b" {{
  for_each          = toset(["logs", "media", "state-{n}"])
  name              = "${{local.region}}-${{each.key}}"
  vpc_id            = aws_vpc.v.id
  cidr_block        = cidrsubnet("10.0.0.0/16", 8, length(each.key))
  availability_zone = local.zone
  tags              = {{ region = local.region }}
}}
'''


def expanded(n: int) -> str:
    return f'''
variable "zones" {{
  type    = list(string)
  default = ["a", "bb"]
}}

resource "aws_vpc" "v" {{
  name       = "v-{n}"
  cidr_block = "10.0.0.0/16"
}}

resource "aws_subnet" "z" {{
  for_each   = toset(var.zones)
  name       = "z-${{each.key}}"
  vpc_id     = aws_vpc.v.id
  cidr_block = cidrsubnet(aws_vpc.v.cidr_block, 8, length(each.key) + {n})
}}

resource "aws_s3_bucket" "c" {{
  count = {n + 1}
  name  = "c-{n}-${{count.index}}"
}}
'''


LOADER = DictModuleLoader({"./net": {"main.clc": NET_MODULE}})

#: name -> the texts one engine applies in order (an edit script)
SCRIPTS = {
    "locals": [locals_over_resources(1), locals_over_resources(2)],
    "modules": [module_inputs_and_outputs(1), module_inputs_and_outputs(2)],
    "data": [data_feeding_locals(0), data_feeding_locals(1)],
    "expanded": [expanded(0), expanded(2), expanded(1)],
    # PR 18's edits: retag a block, add one, retag another
    "edits": [
        PROGRAM,
        retag(PROGRAM, "estate-1", "r1"),
        retag(PROGRAM, "estate-1", "r1") + EXTRA % (1, 1),
        retag(retag(PROGRAM, "estate-1", "r1"), "estate-2", "r2"),
    ],
}
VARIABLES = {"edits": {"env": "prod"}}


def changes_of(plan):
    return [
        (
            change.id,
            change.action.value,
            [
                (d.name, d.render_old(), d.render_new(), d.requires_replacement)
                for d in change.diffs
            ],
        )
        for change in plan.actionable()
    ]


class TestSharedGraphEqualsTwoGraphs:
    """The verb's one graph serves validation (unbound: everything a
    resource would answer is Unknown) and then the plan (bound to the
    state). The reference builds a graph for each, as every verb did."""

    @staticmethod
    def reference_apply(engine, text, variables):
        texts = {"main.clc": text}
        config = Configuration.parse_streaming(texts)
        report = engine.validation.validate(
            config, variables=variables, loader=engine.loader
        )
        graph = build_graph(config, variables=variables, loader=engine.loader)
        compiled = Compiled(config, texts, variables, graph=graph, report=report)
        return engine.apply(compiled)

    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    def test_every_step_of_the_script(self, name):
        variables = VARIABLES.get(name)
        shared = CloudlessEngine(seed=5, loader=LOADER)
        reference = CloudlessEngine(seed=5, loader=LOADER)
        for step, text in enumerate(SCRIPTS[name]):
            got = shared.apply(text, variables=variables)
            want = self.reference_apply(reference, text, variables)
            assert got.ok and want.ok, (step, str(got.validation))
            assert str(got.validation) == str(want.validation)
            assert changes_of(got.plan) == changes_of(want.plan), step
            assert got.plan.render() == want.plan.render()
            assert shared.state.content_hash() == reference.state.content_hash()
            assert shared.state.outputs == reference.state.outputs
            # converged in one apply
            assert shared.plan(text, variables=variables).is_empty, step

    def test_a_plan_after_a_validation_reads_the_state(self):
        """The graph validation saw Unknowns through is the one the plan
        reads the applied ids through."""
        engine = CloudlessEngine(seed=5)
        text = locals_over_resources(1)
        assert engine.apply(text).ok
        compiled = engine.compile(text)
        assert engine.validate(compiled).ok
        graph = compiled.graph
        plan = engine.plan(compiled)
        assert compiled.graph is graph and plan.graph is graph
        assert plan.is_empty


# -- counting -----------------------------------------------------------------


@pytest.fixture
def spy(monkeypatch):
    """Counts of graph builds (either use site), type checks and rule
    runs since the last look."""
    calls = {"builds": 0, "type_checks": 0, "rule_runs": 0}

    def counting(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        engine_module, "build_graph", counting("builds", engine_module.build_graph)
    )
    monkeypatch.setattr(
        rules_module, "build_graph", counting("builds", rules_module.build_graph)
    )
    monkeypatch.setattr(
        TypeChecker, "check", counting("type_checks", TypeChecker.check)
    )
    monkeypatch.setattr(RuleEngine, "run", counting("rule_runs", RuleEngine.run))

    def take():
        seen = dict(calls)
        for key in calls:
            calls[key] = 0
        return seen

    return take


ONE_OF_EACH = {"builds": 1, "type_checks": 1, "rule_runs": 1}
NOTHING = {"builds": 0, "type_checks": 0, "rule_runs": 0}
ESTATE = sized_estate(30)


def run_cli(project, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--chdir", str(project), *argv])
    return code, out.getvalue() + err.getvalue()


@pytest.fixture
def project(tmp_path):
    (tmp_path / "main.clc").write_text(ESTATE)
    assert run_cli(tmp_path, "init")[0] == 0
    return tmp_path


class TestCounts:
    def test_engine_apply_builds_one_graph(self, spy):
        engine = CloudlessEngine(seed=5)
        assert engine.apply(ESTATE).ok
        assert spy() == ONE_OF_EACH
        # the service's op: a one-block edit on a resident engine
        assert engine.apply(retag(ESTATE, "estate-1", "r1")).ok
        assert spy() == ONE_OF_EACH
        # a bare plan never validated and still builds its one
        engine.plan(engine.last_sources)
        assert spy() == {"builds": 1, "type_checks": 0, "rule_runs": 0}

    def test_validating_twice_in_one_verb_runs_once(self, spy):
        engine = CloudlessEngine(seed=5)
        compiled = engine.compile(ESTATE)
        first = engine.validate(compiled)
        assert engine.validate(compiled) is first
        result = engine.apply(compiled)
        assert result.ok and result.validation is first
        assert spy() == ONE_OF_EACH

    def test_cli_plan_on_an_exact_hit_builds_and_checks_nothing(self, project, spy):
        assert run_cli(project, "apply")[0] == 0
        assert spy() == ONE_OF_EACH
        code, text = run_cli(project, "plan")
        assert code == 0 and "0 to add, 0 to change" in text
        assert spy() == NOTHING
        assert run_cli(project, "validate") == (0, "validation (rules): ok\n")
        assert spy() == NOTHING

    def test_cli_apply_after_a_one_block_edit(self, project, spy):
        assert run_cli(project, "apply")[0] == 0
        spy()
        (project / "main.clc").write_text(retag(ESTATE, "estate-1", "r1"))
        code, text = run_cli(project, "apply")
        assert code == 0 and "2 to change" in text
        assert spy() == ONE_OF_EACH
        # and what it wrote carries its verdict
        assert run_cli(project, "plan")[0] == 0
        assert spy() == NOTHING

    def test_cli_validate_then_plan_is_one_build(self, project, spy):
        assert run_cli(project, "validate")[0] == 0
        assert spy() == ONE_OF_EACH
        assert run_cli(project, "plan")[0] == 0
        assert spy() == NOTHING

    def test_a_verb_that_never_validates_writes_no_verdict(self, tmp_path, spy):
        cache_dir = str(tmp_path / "cache")
        CloudlessEngine(seed=5, cache_dir=cache_dir).plan(ESTATE)
        assert spy() == {"builds": 1, "type_checks": 0, "rule_runs": 0}
        warm = CloudlessEngine(seed=5, cache_dir=cache_dir)
        compiled = warm.compile(ESTATE)
        assert compiled.graph is not None and compiled.verdict is None
        assert warm.validate(compiled).ok
        # validated on the replayed graph; the artifact is not rewritten
        assert spy() == {"builds": 0, "type_checks": 1, "rule_runs": 1}
        assert warm.compile_cache.stores == 0

    def test_probes_are_declared_and_count(self, tmp_path):
        for name in (
            "graph.builds",
            "validate.runs",
            "validate.replayed",
            "compilecache.verdict_mismatch",
        ):
            assert name in perf.KNOWN_PROBES
        cache_dir = str(tmp_path / "cache")
        perf.reset()
        perf.enable()
        try:
            assert CloudlessEngine(seed=5, cache_dir=cache_dir).apply(ESTATE).ok
            assert CloudlessEngine(seed=5, cache_dir=cache_dir).validate(ESTATE).ok
            other = CloudlessEngine(
                seed=5, cache_dir=cache_dir, validation_level=LEVEL_TYPES
            )
            assert other.validate(ESTATE).ok
            counters = perf.snapshot()["counters"]
        finally:
            perf.disable()
            perf.reset()
        assert counters["graph.builds"] == 1
        assert counters["validate.runs"] == 2
        assert counters["validate.replayed"] == 1
        assert counters["compilecache.verdict_mismatch"] == 1
        assert counters["compilecache.verdict_mismatch.level"] == 1


# -- replay is exactly as strict as validating --------------------------------

TYPE_ERROR = '''
resource "aws_vpc" "v" {
  name       = "v"
  cidr_block = "10.0.0.0/16"
}

resource "aws_network_interface" "n" {
  name      = "n"
  subnet_id = aws_vpc.v.id
}
'''

#: the paper's Figure 2 mistake: a VM and its NIC in different regions
RULE_ERROR = AZURE_STACK.replace(
    'location = "eastus"\n  nic_ids', 'location = "westus2"\n  nic_ids'
)
assert RULE_ERROR != AZURE_STACK


class AlwaysComplains(Rule):
    info = RuleInfo("TEST001", "complains about everything")

    def check(self, ctx, sink):
        sink.error("no", code=self.info.rule_id)


class TestReplayIsAsStrictAsValidating:
    @pytest.mark.parametrize("source", [TYPE_ERROR, RULE_ERROR], ids=["type", "rule"])
    @pytest.mark.parametrize("verb", ["validate", "plan", "apply"])
    def test_an_invalid_program_says_the_same_three_ways(
        self, tmp_path, spy, source, verb
    ):
        (tmp_path / "main.clc").write_text(source)
        assert run_cli(tmp_path, "init")[0] == 0
        cold = run_cli(tmp_path, verb)
        assert cold[0] == 1 and "error" in cold[1]
        assert spy()["type_checks"] == 1
        assert run_cli(tmp_path, verb) == cold  # the exact hit
        assert spy() == NOTHING
        assert run_cli(tmp_path, verb, "--no-cache") == cold
        assert spy()["type_checks"] == 1

    def warm(self, cache_dir, **kwargs):
        """An engine about to take an exact hit on the verdict a first
        engine recorded for ``ESTATE``."""
        first = CloudlessEngine(seed=5, cache_dir=cache_dir)
        assert first.validate(ESTATE).ok and first.compile_cache.stores == 1
        return CloudlessEngine(seed=5, cache_dir=cache_dir, **kwargs)

    def test_the_same_engine_settings_replay(self, tmp_path, spy):
        engine = self.warm(str(tmp_path))
        spy()
        assert str(engine.validate(ESTATE)) == "validation (rules): ok"
        assert engine.compile_cache.exact_hits == 1 and spy() == NOTHING

    def test_another_level_validates(self, tmp_path, spy):
        engine = self.warm(str(tmp_path), validation_level=LEVEL_TYPES)
        spy()
        assert str(engine.validate(ESTATE)) == "validation (types): ok"
        assert engine.compile_cache.exact_hits == 1
        assert spy() == {"builds": 0, "type_checks": 1, "rule_runs": 0}

    def test_a_mined_rule_validates(self, tmp_path, spy):
        engine = self.warm(str(tmp_path))
        engine.validation.engine.rules.append(AlwaysComplains())
        spy()
        report = engine.validate(ESTATE)
        assert not report.ok and report.first_error().code == "TEST001"
        assert spy() == {"builds": 0, "type_checks": 1, "rule_runs": 1}

    def test_another_registry_validates(self, tmp_path, spy):
        registry = SchemaRegistry.default()
        registry.set_regions("aws", ["mars-north-1"])
        engine = self.warm(str(tmp_path), registry=registry)
        spy()
        engine.validate(ESTATE)
        assert engine.compile_cache.exact_hits == 1
        assert spy()["type_checks"] == 1

    def test_a_changed_variable_validates(self, tmp_path, spy):
        cache_dir = str(tmp_path)
        first = CloudlessEngine(seed=5, cache_dir=cache_dir)
        assert first.validate(PROGRAM, variables={"env": "prod"}).ok
        spy()
        engine = CloudlessEngine(seed=5, cache_dir=cache_dir)
        assert engine.validate(PROGRAM, variables={"env": "stage"}).ok
        assert spy() == ONE_OF_EACH
        assert engine.validate(PROGRAM, variables={"env": "prod"}).ok

    def test_module_calls_always_validate(self, tmp_path, spy):
        cache_dir = str(tmp_path)
        text = module_inputs_and_outputs(1)
        for _ in range(2):
            engine = CloudlessEngine(seed=5, cache_dir=cache_dir, loader=LOADER)
            assert engine.validate(text).ok
            assert spy() == ONE_OF_EACH
            assert engine.compile_cache.stores == 0

    def test_a_verdict_never_outlives_an_edit(self, project, spy):
        assert run_cli(project, "plan")[0] == 0
        assert run_cli(project, "plan")[0] == 0
        assert spy()["type_checks"] == 1
        (project / "main.clc").write_text(ESTATE + TYPE_ERROR)
        code, text = run_cli(project, "plan")
        assert code == 1 and "validation (rules): 1 error(s)" in text
        assert spy()["type_checks"] == 1
        # ... nor a failing one the fix
        (project / "main.clc").write_text(ESTATE)
        code, text = run_cli(project, "plan")
        assert code == 0 and "to add" in text
        assert spy()["type_checks"] == 1

    def test_a_graph_error_is_still_a_diagnostic(self):
        """Validation reports what stops the graph; the engine does not
        raise it (the plan would)."""
        engine = CloudlessEngine(seed=5)
        text = '''
resource "aws_vpc" "v" {
  name       = "v"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  count      = length(aws_vpc.v.id)
  name       = "s"
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
'''
        report = engine.validate(text)
        assert [d.code for d in report.errors] == ["GRAPH"]
        assert "'count' depends on values not known until apply" in str(report)
        result = engine.apply(text)
        assert not result.ok and result.plan is None
        with pytest.raises(engine_module.EngineError):
            engine.plan(text)


# -- untrusted bytes ----------------------------------------------------------


class TestVerdictBytesAreNotTrusted:
    @pytest.fixture
    def artifact(self, tmp_path):
        """A cache holding ``RULE_ERROR``'s artifact, failing verdict
        and all; returns ``(cache_dir, path, header, blob)``."""
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(seed=5, cache_dir=cache_dir)
        assert not engine.validate(RULE_ERROR).ok
        (name,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, name)
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            blob = handle.read()
        assert header["verdict"]["diagnostics"]
        return cache_dir, path, header, blob

    @staticmethod
    def rewrite(path, header, blob, recompute):
        header = dict(header)
        if recompute:
            header.pop("header_sha")
            header["header_sha"] = _header_sha(header)
        with open(path, "wb") as handle:
            handle.write((json.dumps(header, sort_keys=True) + "\n").encode())
            handle.write(blob)

    @staticmethod
    def damage(verdict, how):
        verdict = json.loads(json.dumps(verdict))
        if how == "absent":
            return None
        if how == "a string":
            return "ok"
        if how == "a list":
            return [verdict]
        if how == "no diagnostics field":
            del verdict["diagnostics"]
        elif how == "diagnostics a dict":
            verdict["diagnostics"] = {}
        elif how == "diagnostics a string":
            verdict["diagnostics"] = ""
        elif how == "truncated diagnostic":
            verdict["diagnostics"][0] = verdict["diagnostics"][0][:3]
        elif how == "unknown severity":
            verdict["diagnostics"][0][0] = "fine"
        elif how == "severity a list":
            verdict["diagnostics"][0][0] = ["error"]
        elif how == "message a number":
            verdict["diagnostics"][0][2] = 7
        elif how == "span a string":
            verdict["diagnostics"][0][4] = "main.clc:1:1"
        elif how == "span of floats":
            verdict["diagnostics"][0][4] = ["main.clc", 1.5, 1, 1, 1]
        elif how == "stage_errors a list":
            verdict["stage_errors"] = []
        elif how == "stage_errors of strings":
            verdict["stage_errors"] = {"rules": "0"}
        elif how == "rules a string":
            verdict["rules"] = "GEN001"
        elif how == "level a number":
            verdict["level"] = 3
        else:
            raise AssertionError(how)
        return verdict

    DAMAGE = [
        "absent",
        "a string",
        "a list",
        "no diagnostics field",
        "diagnostics a dict",
        "diagnostics a string",
        "truncated diagnostic",
        "unknown severity",
        "severity a list",
        "message a number",
        "span a string",
        "span of floats",
        "stage_errors a list",
        "stage_errors of strings",
        "rules a string",
        "level a number",
    ]

    @pytest.mark.parametrize("how", DAMAGE)
    def test_a_damaged_verdict_under_a_valid_digest_is_no_verdict(
        self, artifact, spy, how
    ):
        cache_dir, path, header, blob = artifact
        want = str(CloudlessEngine(seed=5).validate(RULE_ERROR))
        header["verdict"] = self.damage(header["verdict"], how)
        self.rewrite(path, header, blob, recompute=True)
        spy()
        engine = CloudlessEngine(seed=5, cache_dir=cache_dir)
        report = engine.validate(RULE_ERROR)
        assert not report.ok and str(report) == want
        cache = engine.compile_cache
        assert (cache.exact_hits, cache.corrupt_rejects) == (1, 0)
        # validated for real, on the replayed graph
        assert spy() == {"builds": 0, "type_checks": 1, "rule_runs": 1}

    @pytest.mark.parametrize("how", DAMAGE)
    def test_a_damaged_verdict_under_the_old_digest_is_a_counted_miss(
        self, artifact, spy, how
    ):
        cache_dir, path, header, blob = artifact
        header["verdict"] = self.damage(header["verdict"], how)
        self.rewrite(path, header, blob, recompute=False)
        spy()
        engine = CloudlessEngine(seed=5, cache_dir=cache_dir)
        assert not engine.validate(RULE_ERROR).ok
        cache = engine.compile_cache
        assert (cache.exact_hits, cache.misses, cache.corrupt_rejects) == (0, 1, 1)
        assert spy() == ONE_OF_EACH

    def test_a_flipped_or_torn_header_is_a_counted_miss(self, artifact):
        cache_dir, path, header, blob = artifact
        line = (json.dumps(header, sort_keys=True) + "\n").encode()
        at = line.index(b'"verdict"') + 20
        flipped = line[:at] + bytes([line[at] ^ 1]) + line[at + 1 :]
        for damaged in (flipped + blob, line[: at + 5], line[: at + 5] + b"\n" + blob):
            with open(path, "wb") as handle:
                handle.write(damaged)
            engine = CloudlessEngine(seed=5, cache_dir=cache_dir)
            assert not engine.validate(RULE_ERROR).ok
            cache = engine.compile_cache
            assert (cache.exact_hits, cache.misses, cache.corrupt_rejects) == (0, 1, 1)
            # replaced by a good one
            assert CloudlessEngine(seed=5, cache_dir=cache_dir).compile(
                RULE_ERROR
            ).verdict == header["verdict"]

    def test_replay_names_why_it_will_not(self):
        pipeline = CloudlessEngine(seed=5).validation
        good = pipeline.verdict(pipeline.validate(RULE_ERROR))
        assert str(pipeline.replay(good)) == str(pipeline.validate(RULE_ERROR))
        for field, value, why in (
            ("level", "types", "level"),
            ("rules", good["rules"][:-1], "rules"),
            ("rules", list(reversed(good["rules"])), "rules"),
            ("registry", "0" * 64, "registry"),
            ("registry", None, "registry"),
            ("diagnostics", None, "unreadable"),
            ("stage_errors", {"rules": "1"}, "unreadable"),
        ):
            with pytest.raises(VerdictMismatch) as caught:
                pipeline.replay({**good, field: value})
            assert str(caught.value) == why

    def test_the_parent_commits_artifact_is_a_counted_miss(self, tmp_path):
        """``fixtures/artifact_v4.clcc`` was written by the program one
        commit before the header carried a verdict
        (tests/fixtures/README.md): turned away at the header, counted,
        replaced."""
        import shutil

        from repro.compilecache import schema_fingerprint, variables_fingerprint
        from tests.test_compilecache import SOURCE

        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        cache = engine.compile_cache
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "artifact_v4.clcc")
        with open(fixture, "rb") as handle:
            assert json.loads(handle.readline())["version"] == 4
        fps = (variables_fingerprint(None), schema_fingerprint(gateway))
        shutil.copy(fixture, cache.path_for({"main.clc": SOURCE}, *fps))

        assert engine.validate(SOURCE).ok
        assert (cache.misses, cache.corrupt_rejects, cache.stores) == (1, 1, 1)
        assert cache.exact_hits == cache.partial_hits == 0
        healed = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        assert healed.compile(SOURCE).verdict is not None
        assert healed.compile_cache.exact_hits == 1
