"""A long-lived engine compiles against its own last compile.

``CloudlessEngine.compile`` keeps the texts and ``Configuration`` of
the last compile it ran from source text: the same texts come back as
that configuration, edited ones re-parse only the chunks that changed.
These tests hold the two properties that makes safe -- a resident
engine answers exactly what a freshly loaded one would, and it parses
exactly what changed -- and that the table it keeps is bounded by the
program, not by the session's history.
"""

import hashlib
import os
import random
import re

import pytest

import repro.lang.config as lang_config
from repro.core.engine import CloudlessEngine
from repro.lang.chunker import iter_chunks
from repro.persist import load_world, save_world
from repro.workloads import sized_estate

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
            plan = engine.plan(
                engine.last_sources if sources is None else sources,
                variables=engine.last_variables if variables is None else variables,
            )
            diagnostics = ""
        elif kind == "destroy":
            result = engine.destroy()
            assert result.ok
            plan, diagnostics = result.plan, ""
        else:
            result = engine.apply(sources, variables=variables)
            if kind == "invalid":
                assert not result.ok and result.plan is None
                return (str(result.validation), engine.state.content_hash())
            assert result.ok, str(result.validation)
            plan, diagnostics = result.plan, str(result.validation.diagnostics)
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

    def test_a_changed_variable_reaches_locals_through_the_resident_config(self):
        """Why the graph is rebuilt per verb: a local's value belongs to
        the variables of the plan that evaluated it."""
        engine = CloudlessEngine(seed=7)
        assert engine.apply(PROGRAM, variables={"env": "prod"}).ok
        what_if = engine.plan(engine.last_sources, variables={"env": "stage"})
        assert "'prod-edge-logs' -> 'stage-edge-logs'" in what_if.render()
        bare = engine.plan(engine.last_sources, variables=engine.last_variables)
        assert bare.is_empty


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
