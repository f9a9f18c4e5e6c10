"""Span arithmetic and the seam-table guard."""

import sys
import types

import pytest

import layers
import tracing
from tracing import Seam, SeamError, Tracer


def span(sid, parent, name, start, end, attrs=None):
    return (sid, parent, name, start, end, attrs)


# -- self time -----------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    spans = [
        span(1, 0, "root", 0.0, 10.0),
        span(2, 1, "child", 1.0, 4.0),
        span(3, 1, "child", 5.0, 7.0),
        span(4, 2, "grandchild", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}
    # the tree's self times add back up to the root's wall
    assert sum(own.values()) == 10.0


def test_self_time_never_negative():
    # children that (by clock skew) outlast their parent
    spans = [span(1, 0, "root", 0.0, 1.0), span(2, 1, "child", 0.0, 1.5)]
    assert tracing.self_times(spans)[1] == 0.0


def test_totals_split_numbers_from_outcomes():
    spans = [
        span(1, 0, "cache.load", 0.0, 1.0, {"outcome": "exact"}),
        span(2, 0, "cache.load", 1.0, 3.0, {"outcome": "miss"}),
        span(3, 0, "wal", 3.0, 4.0, {"bytes": 10, "future": 1234}),
    ]
    totals = tracing.totals_by_name(spans)
    assert totals["cache.load"].count == 2
    assert totals["cache.load"].inclusive_s == 3.0
    assert totals["cache.load"].outcomes == {"outcome=exact": 1, "outcome=miss": 1}
    assert totals["wal"].attrs == {"bytes": 10}


# -- op ids ------------------------------------------------------------------------


def test_ops_come_from_tag_future_or_parent():
    spans = [
        span(1, 0, "service.request", 0.0, 5.0),
        span(2, 1, "service.admit", 0.1, 0.2),
        span(3, 0, "service.execute", 1.0, 4.0, {"future": 77}),
        span(4, 3, "core.apply", 1.5, 3.5),
        span(5, 0, "service.admit", 6.0, 6.1),  # a pop nobody owns
    ]
    ops = tracing.resolve_ops(spans, {1: 9}, {77: 9})
    assert ops == {1: 9, 2: 9, 3: 9, 4: 9, 5: -5}


def test_execute_root_is_linked_under_its_request():
    spans = [
        span(1, 0, "service.request", 0.0, 5.0),
        span(3, 0, "service.execute", 1.0, 4.0, {"future": 77}),
        span(4, 3, "core.apply", 1.5, 3.5),
    ]
    ops = tracing.resolve_ops(spans, {1: 9}, {77: 9})
    linked = layers.link_service_roots(spans, ops)
    own = tracing.self_times(linked)
    # the request keeps what is not engine work: 5 - 3
    assert own == {1: 2.0, 3: 1.0, 4: 2.0}
    spans = [(1, 0, "service.request", 0.0, 5.0, {"kind": "apply"})] + linked[1:]
    row = layers.verb_breakdown(spans, ops, {})["apply"]
    assert row["wall_s"] == 5.0
    assert row["service"] + row["core"] == pytest.approx(5.0)
    # at machine speed 2 every span of the op is worth half as much
    halved = layers.verb_breakdown(spans, ops, {sid: 0.5 for sid in ops})["apply"]
    assert halved["wall_s"] == 2.5
    assert halved["service"] + halved["core"] == pytest.approx(2.5)


# -- wrappers and the guard ----------------------------------------------------------


@pytest.fixture
def program():
    """A throwaway module standing in for the program under test."""
    module = types.ModuleType("trajectory_fake_program")

    def leaf(x):
        return x + 1

    def chunks(n):
        for i in range(n):
            yield i

    class Engine:
        def run(self, x):
            return sum(module.chunks(x)) + module.leaf(x)

        @classmethod
        def open(cls):
            return cls()

    module.leaf, module.chunks, module.Engine = leaf, chunks, Engine
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


SEAMS = (
    Seam("core", "core.run", "trajectory_fake_program:Engine.run",
         after=lambda result, *_a: {"result": result}),
    Seam("core", "core.open", "trajectory_fake_program:Engine.open"),
    Seam("lang", "lang.leaf", "trajectory_fake_program:leaf"),
    Seam("lang", "lang.chunk", "trajectory_fake_program:chunks", generator=True),
)


def test_wrappers_record_nested_spans_and_restore(program):
    original_run = program.Engine.run
    tracer = Tracer()
    tracer.install(SEAMS)
    assert program.Engine.open().run(3) == 0 + 1 + 2 + 4
    tracer.restore()
    assert program.Engine.run is original_run
    assert not tracer.installed
    names = [s[2] for s in tracer.spans]
    # one span per chunk that was yielded, none for the exhausted resume
    assert names.count("lang.chunk") == 3
    assert names.count("lang.leaf") == 1
    run = next(s for s in tracer.spans if s[2] == "core.run")
    assert run[5] == {"result": 7}
    children = [s for s in tracer.spans if s[1] == run[0]]
    assert len(children) == 4
    # untraced again: nothing more is recorded
    before = len(tracer.spans)
    program.Engine().run(2)
    assert len(tracer.spans) == before


def test_a_seam_that_no_longer_resolves_fails_before_patching(program):
    tracer = Tracer()
    broken = SEAMS + (Seam("core", "core.gone", "trajectory_fake_program:Engine.gone"),)
    with pytest.raises(SeamError, match="gone"):
        tracer.install(broken)
    assert not tracer.installed
    assert "wrapper" not in repr(program.leaf)
    with pytest.raises(SeamError, match="cannot import"):
        tracer.install([Seam("x", "x.y", "trajectory_no_such_module:f")])


def test_an_inherited_name_must_be_patched_on_its_definer(program):
    class Child(program.Engine):
        pass

    program.Child = Child
    with pytest.raises(SeamError, match="inherited"):
        Tracer().install([Seam("core", "core.run", "trajectory_fake_program:Child.run")])


def test_restore_reports_a_wrapper_someone_replaced(program):
    tracer = Tracer()
    tracer.install(SEAMS)
    program.leaf = lambda x: x  # a second patcher got in between
    with pytest.raises(SeamError, match="replaced while traced"):
        tracer.restore()
    assert not tracer.installed


def test_a_layer_that_recorded_nothing_is_named():
    silent = layers.silent_layers(
        "cli_cold", [span(1, 0, "cli.main", 0, 1), span(2, 1, "persist.load", 0, 1)]
    )
    assert "lang" in silent and "cli" not in silent and "persist" not in silent


def test_the_real_seam_table_resolves():
    """Against the program at this commit: every target exists."""
    for seam in tracing.SEAMS:
        tracing._resolve(seam.target)
