"""CLI end-to-end tests (in tmp project directories)."""

import contextlib
import os

import pytest

from repro.cli import main

PROGRAM = """
variable "vm_count" {
  type    = number
  default = 2
}

resource "aws_vpc" "main" {
  name       = "cli-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "s" {
  name       = "cli-subnet"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 0)
}

resource "aws_virtual_machine" "web" {
  count   = var.vm_count
  name    = "cli-web-${count.index}"
  nic_ids = [aws_network_interface.nic[count.index].id]
}

resource "aws_network_interface" "nic" {
  count     = var.vm_count
  name      = "cli-nic-${count.index}"
  subnet_id = aws_subnet.s.id
}

output "vm_names" { value = aws_virtual_machine.web[*].name }
"""


@pytest.fixture
def project(tmp_path):
    path = tmp_path / "proj"
    path.mkdir()
    (path / "main.clc").write_text(PROGRAM)
    return str(path)


def run(project, *argv):
    return main(["--chdir", project, *argv])


@contextlib.contextmanager
def apply_dying_at(monkeypatch, boundary):
    """A CLI ``apply`` inside the block is killed by a crash hook at
    executor boundary ``boundary`` (1 = after the first commit)."""
    from repro.core.engine import CloudlessEngine
    from repro.deploy import SimulatedCrash

    real_apply = CloudlessEngine.apply

    def hook(index):
        if index == boundary:
            raise SimulatedCrash()

    with monkeypatch.context() as patcher:
        patcher.setattr(
            CloudlessEngine,
            "apply",
            lambda self, *a, **kw: real_apply(self, *a, crash_hook=hook, **kw),
        )
        with pytest.raises(SimulatedCrash):
            yield


class TestCliLifecycle:
    def test_init_creates_world(self, project, capsys):
        assert run(project, "init") == 0
        assert os.path.exists(os.path.join(project, "cloudless.world"))
        assert "aws, azure" in capsys.readouterr().out

    def test_init_refuses_overwrite(self, project):
        assert run(project, "init") == 0
        assert run(project, "init") == 1
        assert run(project, "init", "--force") == 0

    def test_init_force_resets_the_worlds_siblings(
        self, project, capsys, monkeypatch
    ):
        """A new world must not inherit a dead one's intent journal (or
        the cursor journal an older ``watch`` left)."""
        world = os.path.join(project, "cloudless.world")
        assert run(project, "init") == 0
        with apply_dying_at(monkeypatch, 1):
            run(project, "apply")
        leftovers = [
            world + suffix
            for suffix in (".cursors", ".cursors.journal", ".cursors.bak")
        ]
        for path in leftovers:
            with open(path, "w") as handle:
                handle.write("{}\n")
        assert run(project, "init", "--force") == 0
        assert not any(map(os.path.exists, leftovers + [world + ".wal"]))
        capsys.readouterr()
        assert run(project, "resume") == 0
        out = capsys.readouterr().out
        assert out.startswith("journal clean: nothing to recover")

    def test_verbs_write_the_world_its_wal_and_the_cache_only(self, project):
        assert run(project, "init") == 0
        assert run(project, "apply") == 0
        assert run(project, "watch", "--reconcile") == 0
        assert sorted(os.listdir(project)) == [
            ".clc-cache", "cloudless.world", "cloudless.world.wal", "main.clc",
        ]

    def test_validate_plan_apply_show(self, project, capsys):
        run(project, "init")
        assert run(project, "validate") == 0
        assert run(project, "plan") == 0
        out = capsys.readouterr().out
        assert "6 to add" in out
        assert run(project, "apply") == 0
        out = capsys.readouterr().out
        assert "apply complete" in out
        assert "vm_names" in out
        assert run(project, "show") == 0
        out = capsys.readouterr().out
        assert "aws_vpc.main" in out

    def test_apply_persists_between_invocations(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "plan") == 0
        out = capsys.readouterr().out
        assert "0 to add, 0 to change, 0 to destroy" in out

    def test_vars_flow(self, project, capsys):
        run(project, "init")
        assert run(project, "apply", "--var", "vm_count=3") == 0
        out = capsys.readouterr().out
        assert "cli-web-2" in out

    def test_validation_gate_blocks_apply(self, project, capsys):
        run(project, "init")
        broken = PROGRAM.replace(
            "nic_ids = [aws_network_interface.nic[count.index].id]",
            "nic_ids = [aws_subnet.s.id]",
        )
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(broken)
        assert run(project, "apply") == 1
        out = capsys.readouterr().out
        assert "TYPE009" in out

    def test_history_and_rollback(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        run(project, "apply", "--var", "vm_count=4")
        capsys.readouterr()
        assert run(project, "history") == 0
        out = capsys.readouterr().out
        assert "v1" in out and "v2" in out
        assert run(project, "rollback", "1") == 0
        capsys.readouterr()
        run(project, "show")
        out = capsys.readouterr().out
        assert "web[3]" not in out
        # a version that is not (or, after retention, no longer) there
        assert run(project, "rollback", "99") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: no snapshot version 99 (retained: v1..v3)")

    def test_watch_detects_and_reconciles(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "watch") == 0
        assert "no drift" in capsys.readouterr().out
        # drift out of band, through the persisted world
        from repro.persist import load_world, save_world

        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        vm = next(
            e
            for e in engine.state.resources()
            if e.address.type == "aws_virtual_machine"
        )
        engine.gateway.planes["aws"].external_update(
            vm.resource_id, {"size": "xlarge"}, actor="cron"
        )
        save_world(engine, world)
        assert run(project, "watch", "--reconcile") == 0
        out = capsys.readouterr().out
        assert "modified" in out
        assert "reset cloud attributes" in out

    def test_destroy(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        assert run(project, "destroy") == 0
        capsys.readouterr()
        run(project, "show")
        assert "state is empty" in capsys.readouterr().out

    def test_import_writes_files(self, tmp_path, capsys):
        project = str(tmp_path / "legacy")
        os.mkdir(project)
        assert run(project, "init") == 0
        from repro.persist import load_world, save_world

        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        engine.gateway.planes["aws"].external_create(
            "aws_s3_bucket", {"name": "clickops-bucket"}, "us-east-1"
        )
        save_world(engine, world)
        assert run(project, "import") == 0
        main_clc = os.path.join(project, "main.clc")
        assert os.path.exists(main_clc)
        with open(main_clc) as handle:
            assert "clickops-bucket" in handle.read()
        capsys.readouterr()
        assert run(project, "plan") == 0
        assert "0 to add" in capsys.readouterr().out

    def test_missing_world_is_friendly(self, project, capsys):
        assert run(project, "plan") == 1
        assert "init" in capsys.readouterr().err

    def test_bad_var_syntax(self, project):
        run(project, "init")
        assert run(project, "apply", "--var", "oops") == 1


class TestCliExtras:
    def test_providers_lists_catalog(self, project, capsys):
        run(project, "init")
        assert run(project, "providers") == 0
        out = capsys.readouterr().out
        assert "aws_virtual_machine" in out
        assert "azure_vpn_gateway" in out
        assert "us-east-1" in out

    def test_graph_emits_dot(self, project, capsys):
        run(project, "init")
        capsys.readouterr()
        assert run(project, "graph") == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "plan"')
        assert "aws_vpc.main" in out

    def test_outputs_command(self, project, capsys):
        run(project, "init")
        run(project, "apply")
        capsys.readouterr()
        assert run(project, "outputs") == 0
        assert "vm_names" in capsys.readouterr().out

    def test_engine_error_is_friendly(self, project, capsys):
        run(project, "init")
        # a variable validation failure surfaces as a clean CLI error
        with open(os.path.join(project, "main.clc"), "a") as handle:
            handle.write(
                'variable "guard" {\n'
                "  default = 1\n"
                "  validation {\n"
                "    condition     = var.guard > 5\n"
                '    error_message = "guard too small"\n'
                "  }\n"
                "}\n"
            )
        assert run(project, "plan") == 1
        # the validation pipeline reports it with the offending line
        out = capsys.readouterr().out
        assert "guard too small" in out and "main.clc" in out


    @pytest.mark.parametrize("verb", ["validate", "plan", "apply", "graph"])
    def test_a_typo_is_one_line_not_a_traceback(self, project, capsys, verb):
        """A program that does not parse is the user's error: one
        ``error: <message> at <file>:<line>:<col>`` line, exit 1."""
        run(project, "init")
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write('resource "aws_vpc" "m" {\n  name = = "m"\n}\n')
        capsys.readouterr()
        assert run(project, verb) == 1
        err = capsys.readouterr().err
        assert err == "error: expected expression, found = ('=') at main.clc:2:10\n"


class TestImportedModules:
    def test_plan_after_module_producing_import(self, tmp_path, capsys):
        """``import`` extracts repeated stacks into ``modules/``; the
        program it writes must be usable by the verbs that follow."""
        from repro.persist import load_world, save_world
        from tests.test_porting import build_repeated_stacks

        project = str(tmp_path)
        assert run(project, "init") == 0
        world = os.path.join(project, "cloudless.world")
        engine = load_world(world)
        build_repeated_stacks(engine.gateway, 3)
        save_world(engine, world)
        assert run(project, "import") == 0
        assert os.path.exists(
            os.path.join(project, "modules", "stack_1", "main.clc")
        )
        capsys.readouterr()
        assert run(project, "validate") == 0
        assert run(project, "plan") == 0
        assert "0 to add, 0 to change, 0 to destroy" in capsys.readouterr().out
        assert run(project, "apply") == 0


class TestCollectorPausedForOneShotVerbs:
    """A one-shot verb runs with the cyclic collector off and leaves it
    as it found it, however the verb ends; the long-lived verbs keep
    it on."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Collector states observed inside the verbs' world load."""
        import gc

        import repro.cli as cli

        states = []
        real = cli.load_world

        def spying_load(path):
            states.append(gc.isenabled())
            return real(path)

        monkeypatch.setattr(cli, "load_world", spying_load)
        return states

    @pytest.mark.parametrize("enabled_before", [True, False])
    def test_restored_after_passing_failing_and_raising_verbs(
        self, project, seen, enabled_before, capsys
    ):
        import gc

        assert run(project, "init") == 0
        was = gc.isenabled()
        (gc.enable if enabled_before else gc.disable)()
        try:
            assert run(project, "apply") == 0
            assert gc.isenabled() is enabled_before
            # a failing verb: validation errors exit 1
            with open(os.path.join(project, "main.clc"), "a") as handle:
                handle.write('resource "aws_vpc" "main" {\n  name = "again"\n}\n')
            assert run(project, "plan") == 1
            assert gc.isenabled() is enabled_before
            # a raised CliError: no such snapshot
            assert run(project, "rollback", "99") == 1
            assert "no snapshot version 99" in capsys.readouterr().err
            assert gc.isenabled() is enabled_before
            # an unreadable world: a WorldFormatError out of the load
            os.unlink(os.path.join(project, "main.clc"))
            with open(os.path.join(project, "cloudless.world"), "w") as handle:
                handle.write("clw3 ")
            assert run(project, "show") == 1
            assert gc.isenabled() is enabled_before
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False] * 4

    def test_serve_selftest_runs_with_it_enabled(self, tmp_path, monkeypatch, capsys):
        import gc

        import repro.cli as cli

        states = []
        real = cli._serve_selftest

        async def spying_selftest(service, args):
            states.append(gc.isenabled())
            return await real(service, args)

        monkeypatch.setattr(cli, "_serve_selftest", spying_selftest)
        assert gc.isenabled()
        code = main(
            ["--chdir", str(tmp_path), "serve", "--selftest", "--duration", "0.3"]
        )
        assert code == 0, capsys.readouterr().out
        assert states == [True] and gc.isenabled()

    def test_chaos_keeps_it_enabled(self, monkeypatch, capsys):
        import gc
        import importlib

        # ``repro.chaos.library`` the module, not the function of that name
        chaos_library = importlib.import_module("repro.chaos.library")
        states = []
        real = chaos_library.library

        def spying_library():
            states.append(gc.isenabled())
            return real()

        monkeypatch.setattr(chaos_library, "library", spying_library)
        assert main(["chaos", "--list"]) == 0
        assert states == [True]


class TestOneCompilePerVerb:
    """Each planning verb compiles its sources once: at most one
    ``parse_streaming``, one cache load and one artifact unpickle, and
    the artifact is rewritten only when a source file changed."""

    @pytest.fixture
    def spied(self, tmp_path, monkeypatch):
        import repro.lang.config as lang_config
        from repro.compilecache.store import CacheLookup, CompileCache
        from repro.lang.config import Configuration
        from repro.workloads import scale_estate

        calls = {}

        def spy(owner, name, key):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        real_parse = Configuration.parse_streaming.__func__

        def counted_parse(cls, *args, **kwargs):
            calls["parse"] = calls.get("parse", 0) + 1
            return real_parse(cls, *args, **kwargs)

        monkeypatch.setattr(
            Configuration, "parse_streaming", classmethod(counted_parse)
        )
        spy(lang_config, "parse_file", "chunks")
        spy(CompileCache, "load", "load")
        spy(CompileCache, "store", "store")
        spy(CacheLookup, "_materialize", "unpickle")

        project = str(tmp_path)
        source = scale_estate(30)
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(source)
        assert run(project, "init") == 0

        def verb(*argv, expect=0):
            calls.clear()
            assert run(project, *argv) == expect
            return {
                key: calls.get(key, 0)
                for key in ("parse", "chunks", "load", "store", "unpickle")
            }

        return project, source, verb

    def test_spy_counts(self, spied, monkeypatch):
        from repro.lang.chunker import iter_chunks

        project, source, verb = spied
        n_chunks = len(list(iter_chunks(source)))

        # cold plan: one parse of every chunk, one store
        assert verb("plan") == {
            "parse": 1, "chunks": n_chunks, "load": 1, "store": 1,
            "unpickle": 0,
        }
        # an exact hit (graph and verdict replayed): nothing to journal
        assert verb("validate") == {
            "parse": 0, "chunks": 0, "load": 1, "store": 0, "unpickle": 1,
        }
        # apply then plan, the day-2 shape: exact hits, nothing rewritten
        warm = {"parse": 0, "chunks": 0, "load": 1, "store": 0, "unpickle": 1}
        assert verb("apply") == warm
        assert verb("plan") == warm

        # edit one block: only its chunk is parsed, the artifact is
        # rewritten once
        edited = source.replace(
            'service = "scale-3" }', 'service = "scale-3b" }'
        )
        assert edited != source
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(edited)
        assert verb("apply") == {
            "parse": 1, "chunks": 1, "load": 1, "store": 1, "unpickle": 1,
        }

        # crash an apply of a second edit mid-run; resume compiles once
        # and finds the artifact the crashed apply journaled
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(
                edited.replace('service = "scale-1" }', 'service = "scale-1b" }')
            )
        with apply_dying_at(monkeypatch, 1):
            run(project, "apply")
        assert verb("resume") == warm
        assert verb("plan") == warm

    def test_cold_exact_and_partial_plans_print_the_same(self, spied, capsys):
        project, source, verb = spied
        assert run(project, "apply") == 0

        def plan_text(*flags):
            capsys.readouterr()
            counts = verb("plan", *flags)
            return capsys.readouterr().out, counts

        cold, counts = plan_text("--no-cache")
        assert counts["load"] == 0 and counts["parse"] == 1
        exact, counts = plan_text()
        assert counts["parse"] == 0 and counts["unpickle"] == 1
        # journal a different text under the same key, so the original
        # comes back as a partial hit
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(source + '\nresource "aws_s3_bucket" "x" { name = "x" }\n')
        assert verb("plan")["store"] == 1
        with open(os.path.join(project, "main.clc"), "w") as handle:
            handle.write(source)
        partial, counts = plan_text()
        # every chunk of the original is resident in the artifact
        assert counts["parse"] == 1 and counts["chunks"] == 0
        assert counts["store"] == 1
        assert cold == exact == partial
        assert "0 to add, 0 to change, 0 to destroy" in cold
