"""The percentile rule, failure accounting, and the BENCHMARK.json contract."""

import json
import os

import pytest

import layers
import measure
from measure import Outcome, Sample

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


def test_ten_samples_beyond_rule():
    assert not measure.enough_beyond(99, 0.9)
    assert measure.enough_beyond(100, 0.9)
    assert not measure.enough_beyond(999, 0.99)
    assert measure.enough_beyond(1000, 0.99)
    # the median is held to ten samples in all
    assert not measure.enough_beyond(9, 0.5)
    assert measure.enough_beyond(10, 0.5)


def test_percentile_interpolates():
    values = [4.0, 1.0, 3.0, 2.0]
    assert measure.median(values) == 2.5
    assert measure.percentile(values, 0.0) == 1.0
    assert measure.percentile(values, 1.0) == 4.0
    assert measure.percentile([], 0.9) == 0.0


@pytest.mark.parametrize(
    "status, reason, designed, want",
    [
        (200, None, False, "ok"),
        # typed sheds are the designed answer only where shedding is designed
        (429, "tenant-quota", True, "shed"),
        (503, "brownout-shed", True, "shed"),
        (504, "deadline-exceeded", True, "shed"),
        (429, "tenant-quota", False, "failed"),
        # never exempt: untyped, 5xx that is not a shed, 4xx
        (503, None, True, "failed"),
        (500, "internal-error", True, "failed"),
        (409, "stale-session", True, "failed"),
        (400, "unknown-op", True, "failed"),
    ],
)
def test_classify(status, reason, designed, want):
    assert measure.classify(status, reason, designed) == want


def outcome_of(samples, **kwargs):
    return Outcome(samples, setups=[(0.0, 4.0)], peak_rss_mb=3.0, **kwargs)


def test_sheds_are_attempted_but_not_failed():
    samples = [
        Sample("apply", 0.1, "ok", phase="hi"),
        Sample("apply", 0.0, "shed", phase="hi"),
        Sample("plan", 0.0, "failed", phase="lo"),
    ]
    outcome = outcome_of(samples, checks=2, checks_failed=1)
    assert measure.account(outcome) == (5, 2)


def test_end_to_end_uses_ok_untraced_samples_of_the_quoted_phase():
    samples = [
        Sample("apply", 1.0, "ok", phase="lo"),
        Sample("apply", 3.0, "ok", phase="lo"),
        Sample("apply", 50.0, "ok", phase="hi"),
        Sample("apply", 70.0, "ok", phase="lo", traced=True),
        Sample("apply", 90.0, "failed", phase="lo"),
    ]
    metrics, raw, counts = measure.end_to_end(outcome_of(samples, latency_phase="lo"))
    assert metrics["apply_p50_s"] == 2.0 and counts["apply_p50_s"] == 2
    assert metrics == raw  # nothing normalised yet: speed 1.0 throughout
    assert set(metrics) == {name for name, *_ in measure.END_TO_END}


def test_reported_seconds_are_wall_over_machine_speed():
    samples = [
        Sample("apply", 3.0, "ok", started_at=10.0, done_at=13.0),
        Sample("plan", 1.0, "ok", started_at=20.0, done_at=21.0),
    ]
    outcome = outcome_of(samples)
    # the box ran at half speed while the apply ran, at full speed otherwise
    measure.normalise(outcome, lambda start, end: 2.0 if start == 10.0 else 1.0)
    metrics, raw, _counts = measure.end_to_end(outcome)
    assert (raw["apply_p50_s"], metrics["apply_p50_s"]) == (3.0, 1.5)
    assert (raw["plan_p50_s"], metrics["plan_p50_s"]) == (1.0, 1.0)
    assert (raw["setup_s"], metrics["setup_s"]) == (4.0, 4.0)
    # two ops in 4 s of wall, in 2.5 reference-speed seconds
    assert (raw["ops_per_s"], metrics["ops_per_s"]) == (0.5, 0.8)


def test_open_loop_throughput_is_goodput_inside_the_window():
    samples = [
        Sample("apply", 0.1, "ok", phase="hi", done_at=101.0),
        Sample("plan", 0.1, "ok", phase="hi", done_at=103.0),
        Sample("plan", 0.1, "ok", phase="hi", done_at=109.0),  # drained after it
        Sample("apply", 0.0, "shed", phase="hi", done_at=102.0),
        Sample("apply", 0.1, "ok", phase="lo", done_at=102.0),
    ]
    outcome = outcome_of(samples, goodput_window=(100.0, 104.0))
    measure.normalise(outcome, lambda start, end: 1.5)
    metrics, raw, _counts = measure.end_to_end(outcome)
    assert raw["ops_per_s"] == 0.5
    # a box at speed 1.5 would have completed 1.5x as much at reference speed
    assert metrics["ops_per_s"] == 0.75


def test_speed_is_the_mean_probe_around_an_interval():
    import speed

    took = [1, 1, 1, 3, 3, 3, 1, 1, 1, 1]
    log = speed.SpeedLog([(float(t), n * speed.REFERENCE_S) for t, n in enumerate(took)])
    assert log.speed(3.0, 5.0) == pytest.approx(3.0)  # probes at 3, 4, 5 (window 0.5 s)
    assert log.speed(0.0, 9.0) == pytest.approx(1.6)
    # shorter than the period: the probes within the window either side
    assert log.speed(5.4, 5.6) == pytest.approx(2.0)
    # a starved sidecar left a gap: the nearest probes stand in
    assert log.speed(20.0, 21.0) == pytest.approx(1.0)
    gap = speed.SpeedLog([(0.0, speed.REFERENCE_S), (10.0, 3 * speed.REFERENCE_S)])
    assert gap.speed(4.0, 5.0) == pytest.approx(2.0)
    with pytest.raises(RuntimeError, match="logged nothing"):
        speed.SpeedLog([]).speed(0.0, 1.0)


def test_benchmark_json_lists_exactly_what_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(measure.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == list(layers.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(layers.EXPECTED_LAYERS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))


def test_layer_metrics_cover_every_row_even_with_no_spans():
    outcome = outcome_of([], extra={"resources_per_parse": 1})
    values = layers.layer_metrics(outcome, [], {})
    assert list(values) == [name for name, *_ in layers.PER_LAYER]
    assert all(v == 0.0 for v in values.values())
