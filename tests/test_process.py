"""The process at both ends: what a verb imports, and how it leaves.

* **Start.** A package ``__init__`` is an export table
  (:mod:`repro._exports`), the engine builds a subsystem when a verb
  first uses it, so a CLI process imports the modules its verb runs.
  The ``-X importtime`` tests pin, per verb, ``repro.*`` modules that
  must not load.
* **End.** ``python -m repro`` is :func:`repro.cli.run`: for a one-shot
  verb it flushes and leaves through ``os._exit`` instead of tearing
  the interpreter down. The exit tests run each verb both ways -- ``run``
  and plain ``sys.exit(main())`` -- on two copies of one directory and
  require the same output, exit code and files.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.cli import main as cli_main
from repro.persist import engine_to_dict, load_world, save_world
from repro.workloads import two_region_estate, web_tier

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "repro")
SUBPACKAGES = sorted(
    os.path.relpath(directory, SRC).replace(os.sep, ".")
    for directory, _dirs, files in os.walk(SRC)
    if "__init__.py" in files and directory != SRC
)


def child_env(**extra):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **extra)


def write_program(project, text):
    with open(os.path.join(project, "main.clc"), "w", encoding="utf-8") as handle:
        handle.write(text)


# -- start: what a verb imports --------------------------------------------------------


def imports_of(project, *verb):
    """``repro.*`` modules ``python -m repro <verb>`` imported, and the
    flag's own total for the ``repro.cli`` import in seconds."""
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", "--chdir", project, *verb],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    rows = [
        line[len("import time:"):].split("|")
        for line in run.stderr.splitlines()
        if line.startswith("import time:") and "cumulative" not in line
    ]
    modules = {row[2].strip() for row in rows}
    total_s = sum(int(row[0]) for row in rows) / 1e6
    return {m for m in modules if m.split(".")[0] == "repro"}, total_s, run.stdout


@pytest.fixture(scope="module")
def applied(tmp_path_factory):
    """A project whose program is applied and whose artifact is cached."""
    project = str(tmp_path_factory.mktemp("applied"))
    write_program(project, web_tier(web_vms=3, app_vms=2))
    assert cli_main(["--chdir", project, "init"]) == 0
    assert cli_main(["--chdir", project, "apply"]) == 0
    return project


#: verb -> (modules that must load: the flag recorded, and the verb did
#: its work; modules that must not). ``repro.lang`` is the package, an
#: export table: ``watch`` and ``show`` load ``lang.diagnostics`` (the
#: CLI's error type), ``lang.values`` (``values_equal``, which drift
#: compares with) and ``lang.module_loader`` (every engine the CLI loads
#: gets one; it parses when a module call asks) and nothing else of it.
READS_NO_PROGRAM = (
    "repro.lang.config", "repro.lang.lexer", "repro.lang.parser",
    "repro.lang.chunker", "repro.lang.ast_nodes", "repro.lang.evaluator",
    "repro.lang.context", "repro.graph", "repro.validate", "repro.policy",
    "repro.deploy", "repro.compilecache", "repro.types.checker",
)
NEVER_ON_A_HAPPY_PATH = (
    "repro.debug", "repro.porting", "repro.synthesis", "repro.update",
    "repro.chaos", "repro.service", "repro.workloads", "repro.state.locks",
    "repro.state.store", "repro.state.transactions", "repro.validate.mining",
    "repro.types.inference", "repro.deploy.reference", "repro.state.reference",
)
VERB_IMPORTS = {
    "init": (
        ("repro.core.engine", "repro.persist"),
        READS_NO_PROGRAM + ("repro.drift",),
    ),
    "watch": (
        ("repro.core.engine", "repro.drift.watcher"),
        READS_NO_PROGRAM,
    ),
    "show": (
        ("repro.core.engine", "repro.persist"),
        READS_NO_PROGRAM + ("repro.drift",),
    ),
    # an exact artifact hit: the graph and the verdict are replayed
    "plan": (
        ("repro.compilecache.store", "repro.graph.plan", "repro.validate.pipeline"),
        (
            "repro.lang.lexer", "repro.lang.parser", "repro.lang.chunker",
            "repro.deploy", "repro.policy", "repro.drift",
        ),
    ),
    # an edited program: a partial hit that parses, validates and deploys
    "apply": (
        ("repro.lang.parser", "repro.deploy.executor", "repro.policy.controller"),
        ("repro.drift.watcher", "repro.drift.reconcile", "repro.deploy.recovery"),
    ),
}


#: ``watch`` is the verb that runs least: the ceiling on its ``repro.*``
#: modules (packages count). CI prints every verb's count and fails here.
WATCH_MODULES_MAX = 36


def loaded(modules, name):
    """``name`` or anything under it."""
    return sorted(m for m in modules if m == name or m.startswith(name + "."))


@pytest.mark.parametrize("verb", sorted(VERB_IMPORTS))
def test_a_verb_imports_what_it_runs(verb, applied, tmp_path):
    project = str(tmp_path / "project")
    if verb == "init":
        os.makedirs(project)
    else:
        shutil.copytree(applied, project)
    if verb == "apply":
        write_program(project, web_tier(web_vms=4, app_vms=2))
    modules, _total_s, stdout = imports_of(project, verb)
    if verb == "apply":
        assert "2 to add, 1 to change" in stdout, stdout
    if verb == "watch":
        assert len(modules) <= WATCH_MODULES_MAX, sorted(modules)
    must, must_not = VERB_IMPORTS[verb]
    for name in must:
        assert name in modules, (verb, name)
    for name in must_not + NEVER_ON_A_HAPPY_PATH:
        assert not loaded(modules, name), (verb, loaded(modules, name))


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_importing_a_package_imports_none_of_its_modules(package):
    """In a fresh interpreter: an ``__init__`` is a table, not a loader."""
    code = (
        "import importlib, sys\n"
        f"importlib.import_module('repro.{package}')\n"
        f"print([m for m in sys.modules if m.startswith('repro.{package}.')])"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_a_service_imports_before_its_first_tenant_arrives(tmp_path):
    """The other policy, for the process that lives on: everything an op
    runs is loaded when the service is built (``load_verb_modules``),
    so no tenant's request imports anything."""
    code = (
        "import asyncio, sys\n"
        "from repro.service import ControlPlaneService\n"
        "from repro.workloads import web_tier\n"
        "async def main():\n"
        "    service = ControlPlaneService(sys.argv[1])\n"
        "    await service.start()\n"
        "    before = set(sys.modules)\n"
        "    for op in ('apply', 'plan', 'drift', 'stats', 'apply'):\n"
        "        payload = {'sources': web_tier(web_vms=2, app_vms=1)}\n"
        "        answer = await (await service.submit('t', op, payload=payload))\n"
        "        assert answer.status == 200, answer\n"
        "    await service.stop()\n"
        "    print(sorted(m for m in set(sys.modules) - before if m.startswith('repro')))\n"
        "asyncio.run(main())\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "root")],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_every_package_is_covered():
    assert {"cloud", "cloud.aws", "lang", "validate.constraints"} <= set(SUBPACKAGES)
    assert len(SUBPACKAGES) >= 21


def test_a_name_shared_with_its_module_is_callable_either_way():
    """``repro.chaos.library`` is a module and an exported function:
    which one the package holds depends on import order."""
    import importlib

    import repro.chaos

    module = importlib.import_module("repro.chaos.library")
    assert module.library().keys() == module().keys() == repro.chaos.library().keys()


def test_the_world_loader_and_the_engine_agree_on_executor_names():
    from repro.core.engine import EXECUTOR_NAMES
    from repro.deploy.executor import EXECUTORS

    assert sorted(EXECUTOR_NAMES) == sorted(EXECUTORS)


# -- end: the fast exit is invisible ------------------------------------------------------

ORDINARY = "import sys; from repro.cli import main; sys.exit(main())"
FAST = "from repro.cli import run; run()"
#: outages are not persisted: the degraded apply needs one injected
#: into the process that applies
AZURE_DARK = (
    "import repro.cli as cli\n"
    "from repro.cloud.faults import OutageSpec\n"
    "real = cli.load_world\n"
    "def dark(path):\n"
    "    engine = real(path)\n"
    "    engine.gateway.inject_outage('azure', OutageSpec(start_s=0.0, end_s=50000.0, region='westus2'))\n"
    "    return engine\n"
    "cli.load_world = dark\n"
)

OVERLAPPING = '''
resource "aws_vpc" "v" {
  name       = "v"
  cidr_block = "10.0.0.0/16"
}
resource "aws_subnet" "a" {
  name       = "a"
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
resource "aws_subnet" "b" {
  name       = "b"
  vpc_id     = aws_vpc.v.id
  cidr_block = "10.0.1.0/24"
}
'''


def spawn(project, verb, fast, prelude=""):
    """One verb in a child, leaving through ``run`` (``python -m repro``
    itself when nothing is injected) or through ``sys.exit(main())``."""
    argv = ["--chdir", project, *verb]
    if fast and not prelude:
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, "-c", prelude + (FAST if fast else ORDINARY), *argv]
    # one hash seed: a pickled artifact's bytes follow set iteration order
    return subprocess.run(
        command, env=child_env(PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120,
    )


#: an apply's run id is ``uuid4().hex[:12]``, the one thing two runs of
#: one verb differ in; it prefixes every idempotency token
RUN_ID = re.compile(r'\b[0-9a-f]{12}(?=[/"])')


def left_behind(project):
    """Everything a verb left in ``project``, comparable across two runs:
    file bytes, except that run ids are masked (so the world is its size,
    its commit count and its decoded sections)."""
    out = {}
    for directory, _dirs, files in os.walk(project):
        for fname in files:
            path = os.path.join(directory, fname)
            with open(path, "rb") as handle:
                data = handle.read()
            name = os.path.relpath(path, project)
            if name == "cloudless.world":
                decoded = json.dumps(engine_to_dict(load_world(path)), sort_keys=True)
                out[name] = (
                    len(data), data.count(b"\nclw3 C "), RUN_ID.sub("RUN", decoded)
                )
            elif name == "cloudless.world.wal":
                out[name] = RUN_ID.sub("RUN", data.decode("utf-8"))
            else:
                out[name] = data
    return out


def init_project(project, text):
    os.makedirs(project)
    write_program(project, text)
    assert cli_main(["--chdir", project, "init"]) == 0


def setup_init(project):
    os.makedirs(project)
    write_program(project, web_tier(web_vms=1, app_vms=1))


def setup_applied(project):
    init_project(project, web_tier(web_vms=2, app_vms=1))
    assert cli_main(["--chdir", project, "apply"]) == 0


def setup_initialised(project):
    init_project(project, web_tier(web_vms=2, app_vms=1))


def setup_denied(project):
    init_project(project, OVERLAPPING)


def setup_quota(project):
    init_project(project, web_tier(web_vms=2, app_vms=1))
    world = os.path.join(project, "cloudless.world")
    engine = load_world(world)
    plane = engine.gateway.planes["aws"]
    plane.set_quota("aws_subnet", plane.regions[0], 1)
    save_world(engine, world)


def setup_two_regions(project):
    init_project(project, two_region_estate(14))


def setup_drifted(project):
    setup_applied(project)
    world = os.path.join(project, "cloudless.world")
    engine = load_world(world)
    vm = next(e for e in engine.state.resources() if e.type == "aws_virtual_machine")
    engine.gateway.planes["aws"].external_update(
        vm.resource_id, {"size": "xlarge"}, actor="cron"
    )
    save_world(engine, world)


def setup_degraded(project):
    setup_two_regions(project)
    run = spawn(project, ["apply"], fast=False, prelude=AZURE_DARK)
    assert run.returncode == 2, run.stdout + run.stderr


#: name -> (setup, verb, prelude, exit code, a line the verb must print)
EXITS = {
    "init": (setup_init, ["init"], "", 0, "initialized"),
    "plan": (setup_applied, ["plan"], "", 0, "0 to add"),
    "apply-ok": (setup_initialised, ["apply"], "", 0, "apply complete"),
    "apply-denied": (setup_denied, ["apply"], "", 1, "AWS001"),
    "apply-failed": (setup_quota, ["apply"], "", 1, "apply FAILED"),
    "apply-degraded": (setup_two_regions, ["apply"], AZURE_DARK, 2, "apply DEGRADED"),
    "watch-reconcile": (setup_drifted, ["watch", "--reconcile"], "", 0, "enforce"),
    "resume": (setup_degraded, ["resume"], "", 0, "resume complete"),
    "destroy": (setup_applied, ["destroy"], "", 0, "destroyed"),
    "error": (setup_init, ["show"], "", 1, ""),
}


@pytest.mark.parametrize("name", sorted(EXITS))
def test_the_fast_exit_is_invisible(name, tmp_path):
    setup, verb, prelude, code, says = EXITS[name]
    template = str(tmp_path / "template")
    setup(template)
    results = {}
    for fast in (True, False):
        # the same path both times: messages and artifacts may name it
        project = str(tmp_path / "project")
        shutil.copytree(template, project)
        run = spawn(project, verb, fast, prelude)
        results[fast] = (run.returncode, run.stdout, run.stderr, left_behind(project))
        shutil.rmtree(project)
    returncode, stdout, stderr, files = results[True]
    assert returncode == code, stdout + stderr
    assert says in stdout, stdout
    assert "Traceback" not in stderr
    assert results[True] == results[False]
    if name in ("apply-failed", "apply-degraded"):
        # what did not converge is still journaled, markers and all
        assert '"rec":"intent"' in files["cloudless.world.wal"]
    if name == "apply-failed":
        assert '"rec":"abort"' in files["cloudless.world.wal"]


def test_a_failed_apply_leaves_its_markers_on_disk(tmp_path):
    """Commit and abort markers ride the journal's buffer; an apply that
    neither converged nor degraded used to return with the handle open,
    so the file ended at the last intent and a resume in the same
    process re-read a journal with no marker in it."""
    from repro.core import CloudlessEngine
    from repro.deploy.wal import IntentJournal

    wal = str(tmp_path / "apply.wal")
    engine = CloudlessEngine(seed=3, wal_path=wal)
    journal = IntentJournal(wal)
    journal.begin_run()
    result = engine.apply(OVERLAPPING, validate_first=False, _journal=journal)
    assert not result.ok and not result.partial and result.apply.failed
    in_memory = journal.records()
    assert {r.status for r in in_memory} >= {"committed", "aborted"}
    assert IntentJournal.resume(wal).records() == in_memory


def test_a_raising_apply_closes_its_journal(tmp_path):
    from repro.core import CloudlessEngine
    from repro.deploy.wal import IntentJournal, SimulatedCrash

    def crash(_event, count=[0]):
        count[0] += 1
        if count[0] == 3:
            raise SimulatedCrash("killed")

    wal = str(tmp_path / "apply.wal")
    engine = CloudlessEngine(seed=3, wal_path=wal)
    journal = IntentJournal(wal)
    journal.begin_run()
    with pytest.raises(SimulatedCrash):
        engine.apply(
            web_tier(web_vms=2, app_vms=1), _journal=journal, crash_hook=crash
        )
    assert journal._handle is None
    assert IntentJournal.resume(wal).records() == journal.records()


def test_a_quiet_reader_and_a_failing_flush(tmp_path):
    """``plan | head -1``: no traceback, no "Exception ignored", whether
    the pipe breaks under a print or under the flush at exit."""
    project = str(tmp_path / "project")
    setup_applied(project)
    for unbuffered in ("1", ""):
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "--chdir", project, "show"],
            env=child_env(PYTHONUNBUFFERED=unbuffered),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()  # the reader is gone before a byte is written
        _out, err = child.communicate(timeout=120)
        assert child.returncode == 0 and err == b"", (unbuffered, err)
    # any other flush failure is the interpreter's to report, as before
    code = (
        "import sys\n"
        "import repro.cli as cli\n"
        "def full(): raise OSError(28, 'No space left on device')\n"
        "cli.main = lambda args: (setattr(sys.stdout, 'flush', full), 3)[1]\n"
        "cli.run()\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, "--chdir", project, "show"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode in (3, 120) and "No space left" in run.stderr


def test_a_one_shot_verb_leaves_nothing_for_tear_down():
    """``run`` skips interpreter tear-down for every verb but ``serve``
    and ``chaos``: nothing they can reach may count on it. A hook or a
    thread added outside those two packages fails here first."""
    hook = re.compile(r"\bimport atexit\b|\bfrom atexit\b|\batexit\.")
    thread = re.compile(r"\bThread\(|\bThreadPoolExecutor\b|\bTimer\(|\bmultiprocessing\b")
    offenders = []
    for directory, _dirs, files in os.walk(SRC):
        if os.path.relpath(directory, SRC).split(os.sep)[0] in ("service", "chaos"):
            continue
        for fname in files:
            if fname.endswith(".py"):
                path = os.path.join(directory, fname)
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
                if hook.search(text) or thread.search(text):
                    offenders.append(os.path.relpath(path, SRC))
    assert offenders == []


def test_one_predicate_pauses_the_collector_and_picks_the_exit():
    import inspect

    import repro.cli as cli

    assert "_one_shot(args)" in inspect.getsource(cli.main)
    assert "_one_shot(args)" in inspect.getsource(cli.run)
    parser = cli.build_parser()
    long_lived = {
        verb for verb in ("init", "plan", "apply", "watch", "show", "serve")
        if not cli._one_shot(parser.parse_args([verb]))
    }
    assert long_lived == {"serve"}
    assert not cli._one_shot(parser.parse_args(["chaos", "--list"]))


def process_tax_summary() -> int:
    """``python -m tests.test_process``: one markdown row per verb for
    CI's job summary; non-zero when ``watch`` is over its ceiling."""
    with tempfile.TemporaryDirectory() as scratch:
        project = os.path.join(scratch, "project")
        os.makedirs(project)
        print("| verb | `repro.*` modules | `-X importtime` total (s) |")
        print("|---|---|---|")
        counts = {}
        for verb in ("init", "apply", "plan", "show", "watch"):
            if verb == "apply":
                write_program(project, web_tier(web_vms=3, app_vms=2))
            modules, total_s, _stdout = imports_of(project, verb)
            counts[verb] = len(modules)
            print(f"| `{verb}` | {len(modules)} | {total_s:.3f} |")
    print(f"\n`watch` ceiling: {WATCH_MODULES_MAX}")
    return int(counts["watch"] > WATCH_MODULES_MAX)


if __name__ == "__main__":
    sys.exit(process_tax_summary())
