"""Metrics: percentiles, AoI, fairness."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis import (
    AgeOfInformation,
    LatencySummary,
    completion_fraction,
    goodput_bps,
    jains_fairness,
    percentile,
)


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 0.50) == 50
        assert percentile(samples, 0.99) == 99
        assert percentile(samples, 1.0) == 100
        assert percentile(samples, 0.0) == 1

    def test_value_always_from_samples(self):
        samples = [3, 1, 4, 1, 5]
        for f in (0.1, 0.5, 0.9):
            assert percentile(samples, f) in samples

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_range(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.integers(0, 10**9), min_size=1), st.floats(0, 1))
    def test_monotone_in_fraction(self, samples, f):
        assert percentile(samples, f) <= percentile(samples, 1.0)
        assert percentile(samples, f) >= percentile(samples, 0.0)


class TestLatencySummary:
    def test_summary_fields(self):
        summary = LatencySummary.of([10, 20, 30, 40, 50])
        assert summary.count == 5
        assert summary.min_ns == 10
        assert summary.max_ns == 50
        assert summary.p50_ns == 30
        assert summary.mean_ns == 30

    def test_ms_conversion(self):
        summary = LatencySummary.of([2_000_000])
        assert summary.as_ms()["p50"] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LatencySummary.of([])


class TestGoodput:
    def test_arithmetic(self):
        assert goodput_bps(125, 1_000_000_000) == 1000.0  # 125 B/s = 1 kb/s

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            goodput_bps(1, 0)


class TestAoI:
    def test_single_delivery(self):
        aoi = AgeOfInformation()
        aoi.observe(delivery_ns=150, generated_ns=100)
        assert aoi.average_ns == 50
        assert aoi.peak_ns == 50

    def test_sawtooth_average(self):
        aoi = AgeOfInformation()
        # Fresh samples every 100 ns, each aged 10 ns at delivery:
        # age runs 10 -> 110 between deliveries; mean 60.
        for k in range(1, 101):
            aoi.observe(delivery_ns=k * 100, generated_ns=k * 100 - 10)
        assert aoi.average_ns == pytest.approx(60, rel=0.01)
        assert aoi.peak_ns == 110

    def test_orders_enforced(self):
        aoi = AgeOfInformation()
        with pytest.raises(ValueError):
            aoi.observe(delivery_ns=50, generated_ns=100)
        aoi.observe(delivery_ns=100, generated_ns=90)
        with pytest.raises(ValueError):
            aoi.observe(delivery_ns=50, generated_ns=10)

    def test_stale_deliveries_raise_average(self):
        fresh = AgeOfInformation()
        stale = AgeOfInformation()
        for k in range(1, 51):
            fresh.observe(k * 100, k * 100 - 5)
            stale.observe(k * 100, k * 100 - 80)
        assert stale.average_ns > fresh.average_ns


class TestFairness:
    def test_equal_rates_perfect(self):
        assert jains_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_starved_flow_unfair(self):
        assert jains_fairness([10.0, 0.0]) == pytest.approx(0.5)

    def test_all_zero(self):
        assert jains_fairness([0.0, 0.0]) == 1.0

    def test_empty_is_fair(self):
        assert jains_fairness([]) == 1.0


def test_completion_fraction():
    assert completion_fraction(5, 10) == 0.5
    assert completion_fraction(0, 0) == 1.0
