"""Reach audit: which functions in ``src/repro`` each kind of run calls.

    python benchmarks/reach.py            # record, print the table and the worklist
    python benchmarks/reach.py --check    # ... and fail on an untriaged function
                                          # or a stale triage row

Every function and method in ``src/repro`` (found by parsing the
source) is put in the first of four classes that reaches it:

* **product** -- the paths a user runs: every CLI verb on a small
  project (``import`` on a hand-built estate, ``chaos`` on the CI
  campaign, ``serve`` as ``--selftest``), the five ``examples/`` and
  the E1-E10/F1 scripts as ``__main__``;
* **tier-1** -- ``python -m pytest`` over ``tests/``;
* **bench** -- the five ``bench_p*`` smoke commands of CI's
  ``bench-smoke`` job, less their wall-clock gates (a profiled process
  is slower; timing is that job's to check);
* **nothing** -- none of the above.

Every step runs a fixed, seeded amount of work rather than for a
fixed time (the service steps replay a seeded arrival schedule), and
``PYTHONHASHSEED`` is pinned, so recordings of one tree agree. A step
that exits non-zero stops the run, and the tool exits 1 naming it: a
crash must not pass for code nothing reaches.

Each command runs in its own interpreter with a generated
``sitecustomize`` first on ``PYTHONPATH``, so every Python process it
starts, children and grandchildren too, records the code objects it
enters (``sys.setprofile`` and ``threading.setprofile``) and writes the
ones under ``src/repro`` when it exits. The recorder also wraps
``os._exit``: a CLI verb leaves that way (``repro.cli.run``) and skips
``atexit``, so without the wrap most verbs would record nothing.

Lines are counted for the *outermost* function of a class other than
product: a closure inside an unreached function is part of its body.
``docs/reach.md`` holds the table this prints and the triage: one row
per entry reached by nothing or only by ``bench``, one per tier-1-only
entry of at least ``TRIAGE_MIN_LINES`` lines, and one per module for
the rest. ``--check`` exits 1 when a function reached by nothing has no
``keep`` row there, and, before it records anything, when a row names
a function or module the source no longer has. A full run takes
several minutes on a two-core box (tier-1 is about half of it).
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from typing import Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRIAGE = os.path.join(ROOT, "docs", "reach.md")

#: a tier-1-only entry this long gets its own triage row
TRIAGE_MIN_LINES = 12
#: first class that reaches a function wins
CLASSES = ("product", "tier-1", "bench", "nothing")

#: installed as ``sitecustomize`` in every recorded interpreter
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import threading

_ROOT = os.environ["REACH_ROOT"]
_OUT = os.environ["REACH_OUT"]
_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    paths = {}
    hits = set()
    for code in list(_seen):
        path = paths.get(code.co_filename)
        if path is None:
            path = paths[code.co_filename] = os.path.normpath(
                os.path.abspath(code.co_filename)
            )
        if path.startswith(_ROOT):
            hits.add(f"{path}\\t{code.co_firstlineno}")
    _seen.clear()
    name = os.path.join(_OUT, f"{os.getpid()}.reach")
    with open(name, "a", encoding="utf-8") as handle:
        handle.write("".join(f"{hit}\\n" for hit in sorted(hits)))


def _exit(code, _real=os._exit):
    _dump()
    _real(code)


os._exit = _exit
atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


class Function(NamedTuple):
    key: str  # "repro/lang/parser.py::Parser.parse"
    path: str  # absolute source path
    first: int  # first line: the first decorator's, as ``co_firstlineno``
    lines: int
    parent: Optional[Tuple[str, int]]  # enclosing function, if any


class StepFailed(Exception):
    """A recorded or setup step exited non-zero."""


class Step(NamedTuple):
    argv: List[str]
    cwd: str = ROOT
    record: bool = True


# -- the source side ----------------------------------------------------------


def functions(src: str = SRC) -> Dict[Tuple[str, int], Function]:
    """Every function and method under ``src``, by (path, first line)."""
    out: Dict[Tuple[str, int], Function] = {}
    for directory, _, files in os.walk(src):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), path)
            rel = os.path.relpath(path, src).replace(os.sep, "/")
            _collect(tree, path, rel, "", None, out)
    return out


def _collect(node, path, rel, prefix, parent, out) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            qualname = prefix + child.name
            out[(path, first)] = Function(
                f"{rel}::{qualname}",
                path,
                first,
                child.end_lineno - first + 1,
                parent,
            )
            _collect(child, path, rel, qualname + ".<locals>.", (path, first), out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, path, rel, prefix + child.name + ".", parent, out)
        else:
            _collect(child, path, rel, prefix, parent, out)


# -- the recording side -------------------------------------------------------


def record(steps: Iterable[Step], root: str = SRC) -> Set[Tuple[str, int]]:
    """Run ``steps`` in order with ``root`` on ``PYTHONPATH``; the
    (path, first line) of every code object under ``root`` that a
    recorded step's processes entered. Raises :class:`StepFailed` on
    the first step that exits non-zero."""
    root = os.path.normpath(os.path.abspath(root))
    seen: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        site = os.path.join(scratch, "site")
        out = os.path.join(scratch, "out")
        os.mkdir(site)
        os.mkdir(out)
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE)
        for step in steps:
            # iteration over a set of str is salted per process
            # unless pinned
            env = dict(os.environ, PYTHONHASHSEED="0")
            path = [root]
            if step.record:
                path.insert(0, site)
                env.update(REACH_ROOT=root, REACH_OUT=out)
            env["PYTHONPATH"] = os.pathsep.join(
                path + [p for p in [os.environ.get("PYTHONPATH")] if p]
            )
            done = subprocess.run(
                step.argv, cwd=step.cwd, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if done.returncode:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                raise StepFailed(
                    f"exit {done.returncode}: {' '.join(step.argv)}: {tail[0]}"
                )
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as handle:
                for line in handle:
                    path, first = line.rstrip("\n").split("\t")
                    seen.add((path, int(first)))
    return seen


def _python(*argv: str) -> List[str]:
    return [sys.executable, *argv]


def _cli(project: str, *argv: str) -> Step:
    return Step(_python("-m", "repro", "--chdir", project, *argv))


def _setup(code: str, cwd: str) -> Step:
    return Step(_python("-c", code), cwd=cwd, record=False)


_DRIFT = """
from repro.persist import load_world, save_world
engine = load_world("cloudless.world")
vm = next(e for e in engine.state.resources() if e.address.type == "aws_virtual_machine")
engine.gateway.planes["aws"].external_update(vm.resource_id, {"size": "xlarge"}, actor="cron")
save_world(engine, "cloudless.world")
"""

_LEGACY = """
import sys
sys.path.insert(0, %r)
from repro.persist import load_world, save_world
from tests.test_porting import build_repeated_stacks, build_repetitive_estate
engine = load_world("cloudless.world")
build_repetitive_estate(engine.gateway)
build_repeated_stacks(engine.gateway)
save_world(engine, "cloudless.world")
""" % ROOT


def product_steps(work: str) -> List[Step]:
    project = os.path.join(work, "project")
    legacy = os.path.join(work, "legacy")
    os.mkdir(project)
    os.mkdir(legacy)
    steps = [
        _setup(
            "from repro.workloads import web_tier\n"
            "open('main.clc', 'w').write(web_tier(web_vms=3, app_vms=2))",
            project,
        ),
        _cli(project, "init", "--seed", "1"),
        _cli(project, "validate"),
        _cli(project, "plan"),
        _cli(project, "graph"),
        _cli(project, "apply"),
        _cli(project, "apply"),
        _cli(project, "show"),
        _cli(project, "outputs"),
        _cli(project, "providers"),
        _setup(
            "open('main.clc', 'a').write('resource \"aws_s3_bucket\" \"logs\" "
            "{\\n  name = \"reach-logs\"\\n}\\n')",
            project,
        ),
        _cli(project, "plan"),
        _cli(project, "apply"),
        _cli(project, "resume"),
        _setup(_DRIFT, project),
        _cli(project, "watch"),
        _setup(_DRIFT, project),
        _cli(project, "watch", "--reconcile", "--cycles", "2"),
        _cli(project, "state", "mv", "aws_s3_bucket.logs", "aws_s3_bucket.archive"),
        _cli(project, "state", "rm", "aws_s3_bucket.archive"),
        _cli(project, "history"),
        _cli(project, "rollback", "1"),
        _cli(project, "destroy"),
        _cli(legacy, "init"),
        _setup(_LEGACY, legacy),
        _cli(legacy, "import"),
        _cli(legacy, "plan"),
        _cli(legacy, "destroy"),
        Step(
            _python(
                "-m", "repro", "chaos",
                "--campaign", os.path.join(ROOT, "examples", "campaigns", "ci-smoke.json"),
                "--report", os.path.join(work, "chaos-report.json"),
            )
        ),
        Step(_python("-m", "repro", "serve", "--selftest", "--duration", "1.5")),
    ]
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            steps.append(Step(_python(os.path.join(examples, name)), cwd=work))
    for name in sorted(os.listdir(HERE)):
        if re.fullmatch(r"bench_(e\d+|f1)_\w+\.py", name):
            steps.append(Step(_python(os.path.join(HERE, name)), cwd=work))
    return steps


def tier1_steps(work: str) -> List[Step]:
    return [Step(_python("-m", "pytest", "-q", "-p", "no:cacheprovider", "tests"))]


def bench_steps(work: str) -> List[Step]:
    """The ``bench-smoke`` job of ``.github/workflows/ci.yml``, less
    ``--budget-s``, ``--min-*-speedup`` and ``--gate-overhead``."""

    def bench(script: str, *argv: str) -> Step:
        out = os.path.join(work, script.replace(".py", ".json"))
        return Step(_python(os.path.join(HERE, script), *argv, "--out", out))

    return [
        bench("bench_p1_scale.py", "--sizes", "1000", "--executors",
              "critical-path", "--reference"),
        bench("bench_p3_state.py", "--sizes", "1000"),
        bench("bench_p4_crash.py", "--resources", "1000"),
        bench("bench_p8_coldstart.py", "--sizes", "1000", "--rss-size", "0"),
        bench("bench_p10_service.py", "--duration", "1.0"),
    ]


RUNS = {"product": product_steps, "tier-1": tier1_steps, "bench": bench_steps}


# -- the report ---------------------------------------------------------------


def classify(
    funcs: Dict[Tuple[str, int], Function], reached: Dict[str, Set[Tuple[str, int]]]
) -> Dict[Tuple[str, int], str]:
    """Each function's class: the first of ``CLASSES`` that reached it."""
    return {
        where: next((c for c in CLASSES[:-1] if where in reached.get(c, ())), "nothing")
        for where in funcs
    }


def outermost(
    funcs: Dict[Tuple[str, int], Function], kinds: Dict[Tuple[str, int], str]
) -> List[Function]:
    """Functions not reached by a product path whose enclosing functions
    all are: the bodies the line counts are made of."""

    def covered(where: Optional[Tuple[str, int]]) -> bool:
        while where is not None:
            if kinds[where] != "product":
                return True
            where = funcs[where].parent
        return False

    return sorted(
        (f for w, f in funcs.items() if kinds[w] != "product" and not covered(f.parent)),
        key=lambda f: f.key,
    )


def package(key: str) -> str:
    parts = key.split("::")[0].split("/")
    return parts[1] if len(parts) > 2 else parts[1][:-3]


def table(funcs, kinds) -> str:
    rows: Dict[str, List[int]] = {}
    for where, func in funcs.items():
        row = rows.setdefault(package(func.key), [0] * 8)
        row[0] += 1
        row[1] += kinds[where] == "product"
    for func in outermost(funcs, kinds):
        row = rows[package(func.key)]
        i = 2 * CLASSES.index(kinds[(func.path, func.first)])
        row[i] += 1
        row[i + 1] += func.lines
    total = [sum(col) for col in zip(*rows.values())]
    lines = [
        "| package | functions | product | tier-1 only | lines | bench only "
        "| lines | nothing | lines |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name, row in sorted(rows.items(), key=lambda kv: (-sum(kv[1][3::2]), kv[0])):
        lines.append(f"| `{name}` | " + " | ".join(map(str, row)) + " |")
    lines.append("| **all** | " + " | ".join(f"**{n}**" for n in total) + " |")
    return "\n".join(lines)


def needs_row(func: Function, kind: str) -> bool:
    return kind in ("nothing", "bench") or func.lines >= TRIAGE_MIN_LINES


_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|[^|]*\|[^|]*\|\s*(\w[\w-]*)\s*\|")


def triage(path: str = TRIAGE) -> Dict[str, str]:
    """``docs/reach.md``'s triage rows: entry -> verdict."""
    rows: Dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            match = _ROW.match(line)
            if match and ("::" in match.group(1) or match.group(1).endswith(".py")):
                rows[match.group(1)] = match.group(2)
    return rows


def stale(funcs, rows: Dict[str, str]) -> List[str]:
    """Triage rows naming a function (``path::qualname``) or a module
    that ``funcs`` no longer has."""
    keys = {f.key for f in funcs.values()}
    modules = {key.split("::")[0] for key in keys}
    return sorted(entry for entry in rows if entry not in keys | modules)


def worklist(funcs, kinds, rows: Dict[str, str]) -> Tuple[List[str], List[str]]:
    """(report lines, entries reached by nothing without a keep row)."""
    lines: List[str] = []
    unkept: List[str] = []
    for func in outermost(funcs, kinds):
        kind = kinds[(func.path, func.first)]
        module = func.key.split("::")[0]
        verdict = rows.get(func.key) or (
            None if needs_row(func, kind) else rows.get(module)
        )
        if kind == "nothing" and rows.get(func.key) != "keep":
            unkept.append(func.key)
        lines.append(
            f"{kind:8s} {func.lines:4d}  {func.key}  [{verdict or 'no row'}]"
        )
    return lines, unkept


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if a function reached by nothing has no keep row in "
        f"{os.path.relpath(TRIAGE, ROOT)}, or a row there names a function "
        f"the source no longer has",
    )
    args = parser.parse_args(argv)
    funcs = functions()
    rows = triage()
    gone = stale(funcs, rows)
    if args.check and gone:
        for key in gone:
            print(f"reach: triage row names what is gone: {key}", file=sys.stderr)
        return 1
    reached = {}
    with tempfile.TemporaryDirectory(prefix="reach-work-") as work:
        for name, steps in RUNS.items():
            print(f"reach: recording {name}", file=sys.stderr)
            os.mkdir(os.path.join(work, name))
            try:
                reached[name] = record(steps(os.path.join(work, name)))
            except StepFailed as failed:
                print(f"reach: {name} step failed, {failed}", file=sys.stderr)
                return 1
    kinds = classify(funcs, reached)
    print(table(funcs, kinds))
    lines, unkept = worklist(funcs, kinds, rows)
    print()
    print("\n".join(lines))
    if args.check and unkept:
        for key in unkept:
            print(f"reach: reached by nothing, no keep row: {key}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
