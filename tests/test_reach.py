"""The reach recorder (``benchmarks/reach.py``) on a tiny package."""

import importlib.util
import os
import sys
import textwrap

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "benchmarks", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PACKAGE = '''
import functools
import os
import subprocess
import sys


def used():
    return 1


def unused():
    return 2


def in_child():
    return 3


@functools.lru_cache(maxsize=None)
def decorated():
    def inner():
        return 4

    return inner()


class Box:
    def method(self):
        return 5

    def never(self):
        return 6


def spawn():
    """A grandchild that leaves through os._exit, skipping atexit."""
    code = "import os, pkg.mod; pkg.mod.in_child(); os._exit(0)"
    subprocess.run([sys.executable, "-c", code], check=True)
'''


@pytest.fixture
def package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "mod.py").write_text(textwrap.dedent(PACKAGE))
    return str(tmp_path)


def test_functions_are_keyed_by_first_line_and_qualname(reach, package):
    funcs = reach.functions(package)
    keys = {f.key: f for f in funcs.values()}
    assert set(keys) == {
        "pkg/mod.py::used",
        "pkg/mod.py::unused",
        "pkg/mod.py::in_child",
        "pkg/mod.py::decorated",
        "pkg/mod.py::decorated.<locals>.inner",
        "pkg/mod.py::Box.method",
        "pkg/mod.py::Box.never",
        "pkg/mod.py::spawn",
    }
    decorated = keys["pkg/mod.py::decorated"]
    # a decorated function's code starts at its first decorator
    assert decorated.first == PACKAGE.splitlines().index(
        "@functools.lru_cache(maxsize=None)"
    ) + 1
    assert keys["pkg/mod.py::decorated.<locals>.inner"].parent == (
        decorated.path,
        decorated.first,
    )


def test_children_and_os_exit_are_recorded(reach, package):
    call = "import pkg.mod as m; m.used(); m.decorated(); m.Box().method(); m.spawn()"
    setup = "import pkg.mod as m; m.unused()"
    seen = reach.record(
        [
            reach.Step([sys.executable, "-c", call], cwd=package),
            reach.Step([sys.executable, "-c", setup], cwd=package, record=False),
        ],
        root=package,
    )
    funcs = reach.functions(package)
    names = {funcs[w].key.split("::")[1] for w in seen if w in funcs}
    assert names == {
        "used",
        "decorated",
        "decorated.<locals>.inner",
        "Box.method",
        "spawn",
        "in_child",  # only the os._exit grandchild calls it
    }


def test_classes_and_outermost_bodies(reach, package):
    funcs = reach.functions(package)
    by_name = {f.key.split("::")[1]: w for w, f in funcs.items()}
    reached = {
        "product": {by_name["used"], by_name["spawn"]},
        "tier-1": {by_name["decorated"], by_name["decorated.<locals>.inner"]},
        "bench": {by_name["Box.method"], by_name["used"]},
    }
    kinds = reach.classify(funcs, reached)
    assert {funcs[w].key.split("::")[1]: k for w, k in kinds.items()} == {
        "used": "product",
        "spawn": "product",
        "decorated": "tier-1",
        "decorated.<locals>.inner": "tier-1",
        "Box.method": "bench",
        "Box.never": "nothing",
        "unused": "nothing",
        "in_child": "nothing",
    }
    # the closure is part of its tier-1-only parent's body
    assert [f.key.split("::")[1] for f in reach.outermost(funcs, kinds)] == [
        "Box.method",
        "Box.never",
        "decorated",
        "in_child",
        "unused",
    ]


def test_a_failing_step_stops_the_run_and_is_named(reach, package):
    crash = "import pkg.mod as m; m.used(); raise SystemExit('boom')"
    after = "import pkg.mod as m; m.unused()"
    with pytest.raises(reach.StepFailed, match="exit 1: .*m.used.*: boom"):
        reach.record(
            [
                reach.Step([sys.executable, "-c", crash], cwd=package),
                reach.Step([sys.executable, "-c", after], cwd=package),
            ],
            root=package,
        )


def test_a_row_naming_a_function_the_source_lost_is_stale(reach, package, tmp_path):
    page = tmp_path / "reach.md"
    page.write_text(
        "| entry | lines | reach | verdict | reason |\n"
        "|---|---|---|---|---|\n"
        "| `pkg/mod.py::unused` | 2 | nothing | keep | still there |\n"
        "| `pkg/mod.py::Box.gone` | 2 | nothing | keep | deleted method |\n"
        "| `pkg/mod.py` | 3 | tier-1 (1) | keep | module row |\n"
        "| `pkg/old.py` | 3 | tier-1 (1) | keep | deleted module |\n"
    )
    rows = reach.triage(str(page))
    assert len(rows) == 4
    assert reach.stale(reach.functions(package), rows) == [
        "pkg/mod.py::Box.gone",
        "pkg/old.py",
    ]
