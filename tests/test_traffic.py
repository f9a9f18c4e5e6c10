"""Synthetic traffic harness: seeded generators and latency accounting.

A load harness that is not deterministic cannot gate CI, and one whose
percentile math is wrong gates the wrong thing. These tests pin both:
arrival schedules are pure functions of their seeds, the open-loop
generator has the statistical shape it claims, and histogram
percentiles never under-report the tail.
"""

import math
import statistics

import pytest

from repro.workloads import (
    Arrival,
    LatencyHistogram,
    goodput_fairness_ratio,
    mixed_arrivals,
    open_loop_arrivals,
    tenant_mix,
)


class TestOpenLoop:
    def test_same_seed_same_schedule(self):
        a = open_loop_arrivals(50.0, 2.0, seed=7)
        b = open_loop_arrivals(50.0, 2.0, seed=7)
        assert a == b

    def test_different_seed_different_schedule(self):
        a = open_loop_arrivals(50.0, 2.0, seed=7)
        b = open_loop_arrivals(50.0, 2.0, seed=8)
        assert a != b

    def test_rate_is_roughly_honored(self):
        arrivals = open_loop_arrivals(200.0, 5.0, seed=1)
        # Poisson(1000) stays within +-12% with overwhelming probability
        assert 880 <= len(arrivals) <= 1120

    def test_arrivals_sorted_and_inside_window(self):
        arrivals = open_loop_arrivals(30.0, 3.0, seed=3)
        times = [a.t for a in arrivals]
        assert times == sorted(times)
        assert all(0.0 < t < 3.0 for t in times)

    def test_gaps_are_exponential_not_uniform(self):
        """Open loop means memoryless gaps: the gap distribution's
        coefficient of variation is ~1 (uniform spacing would be ~0)."""
        arrivals = open_loop_arrivals(100.0, 20.0, seed=5)
        gaps = [
            b.t - a.t for a, b in zip(arrivals, arrivals[1:])
        ]
        cv = statistics.pstdev(gaps) / statistics.mean(gaps)
        assert 0.8 < cv < 1.2

    def test_degenerate_inputs_yield_empty(self):
        assert open_loop_arrivals(0.0, 5.0) == []
        assert open_loop_arrivals(10.0, 0.0) == []

    def test_metadata_threads_through(self):
        arrivals = open_loop_arrivals(
            10.0, 1.0, seed=0, tenant="acme", op="drift", priority=0
        )
        assert arrivals
        assert all(
            a.tenant == "acme" and a.op == "drift" and a.priority == 0
            for a in arrivals
        )


class TestTenantMix:
    def test_mix_shape(self):
        profiles = tenant_mix(
            steady=3, bursty=1, noisy=1, base_rate_rps=10.0,
            noisy_factor=8.0,
        )
        kinds = [p.kind for p in profiles]
        assert kinds == ["steady", "steady", "steady", "bursty", "noisy"]
        noisy = profiles[-1]
        assert noisy.rate_rps == 80.0
        assert noisy.priority == 0  # adversaries ride at low priority
        assert all(p.priority == 1 for p in profiles[:-1])

    def test_mixed_arrivals_deterministic_and_sorted(self):
        profiles = tenant_mix(steady=2, noisy=1, base_rate_rps=30.0)
        a = mixed_arrivals(profiles, duration_s=2.0, seed=4)
        assert a == mixed_arrivals(profiles, duration_s=2.0, seed=4)
        assert [x.t for x in a] == sorted(x.t for x in a)

    def test_adding_a_tenant_never_perturbs_others(self):
        """Per-tenant derived RNGs: tenant t00's schedule is identical
        whether or not t01 exists in the mix."""
        solo = mixed_arrivals(
            tenant_mix(steady=1, base_rate_rps=40.0), 2.0, seed=6
        )
        both = mixed_arrivals(
            tenant_mix(steady=2, base_rate_rps=40.0), 2.0, seed=6
        )
        assert [a for a in both if a.tenant == "t00"] == solo

    def test_bursty_tenants_compress_into_duty_windows(self):
        profiles = tenant_mix(bursty=1, steady=0, base_rate_rps=100.0)
        arrivals = mixed_arrivals(
            profiles, 5.0, seed=1, burst_period_s=1.0, burst_duty=0.25
        )
        assert arrivals
        for arrival in arrivals:
            assert math.fmod(arrival.t, 1.0) <= 0.25 + 1e-9
        # same average rate as a steady tenant, within Poisson noise
        assert len(arrivals) == pytest.approx(500, rel=0.25)


class TestLatencyHistogram:
    def test_bucket_edges_never_underestimate(self):
        """percentile() returns a bucket's upper edge: for any sample
        set, p100 >= true max (within the top-bucket max_s case)."""
        hist = LatencyHistogram()
        samples = [0.001, 0.003, 0.01, 0.2, 1.7]
        for s in samples:
            hist.observe(s)
        assert hist.percentile(1.0) >= max(samples)

    def test_percentiles_against_bucket_oracle(self):
        hist = LatencyHistogram()
        samples = [i / 1000.0 for i in range(1, 1001)]  # 1ms..1s
        for s in samples:
            hist.observe(s)
        for q in (0.5, 0.9, 0.99, 0.999):
            true_value = samples[
                max(0, math.ceil(q * len(samples)) - 1)
            ]
            reported = hist.percentile(q)
            assert reported >= true_value  # never under-reports
            # and overestimates by at most one growth factor
            assert reported <= true_value * hist.growth * (1 + 1e-9)

    def test_merge_equals_single_histogram(self):
        left, right, whole = (
            LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        )
        for i, s in enumerate(x / 100.0 for x in range(1, 200)):
            (left if i % 2 else right).observe(s)
            whole.observe(s)
        left.merge(right)
        assert left.counts == whole.counts
        assert left.count == whole.count
        assert left.p99 == whole.p99
        assert left.max_s == whole.max_s

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.p50 == 0.0 and hist.p999 == 0.0
        assert hist.mean_s == 0.0

    def test_top_bucket_reports_observed_max(self):
        hist = LatencyHistogram()
        hist.observe(5000.0)  # beyond the grid's hour
        assert hist.percentile(1.0) == 5000.0

    def test_to_dict_round_numbers(self):
        hist = LatencyHistogram()
        hist.observe(0.1)
        d = hist.to_dict()
        assert d["count"] == 1
        assert d["max_s"] == 0.1


class TestFairnessRatio:
    def test_perfectly_fair(self):
        assert goodput_fairness_ratio({"a": 10, "b": 10}) == 1.0

    def test_ratio(self):
        assert goodput_fairness_ratio({"a": 30, "b": 10}) == 3.0

    def test_starvation_is_infinite(self):
        assert goodput_fairness_ratio({"a": 10, "b": 0}) == math.inf

    def test_empty_and_all_starved(self):
        assert goodput_fairness_ratio({}) == 0.0
        assert goodput_fairness_ratio({"a": 0, "b": 0}) == 0.0
