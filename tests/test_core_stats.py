"""Tests for repro.core.stats: percentiles, CDFs, knee finding."""

import math

import pytest
from hypothesis import given, settings

from tests.strategies import float_samples

from repro.core.stats import (
    Cdf,
    find_knee,
    find_knee_detailed,
    fraction,
    fraction_above,
    fraction_below,
    percentile,
    summarize,
)
from repro.errors import AnalysisError


class TestFractions:
    def test_fraction(self):
        assert fraction([True, False, True, True]) == pytest.approx(0.75)

    def test_fraction_empty(self):
        assert fraction([]) == 0.0

    def test_fraction_below_inclusive(self):
        assert fraction_below([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)

    def test_fraction_above_exclusive(self):
        assert fraction_above([1.0, 2.0, 3.0], 2.0) == pytest.approx(1 / 3)

    def test_fractions_empty(self):
        assert fraction_below([], 1.0) == 0.0
        assert fraction_above([], 1.0) == 0.0


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_bounds(self):
        with pytest.raises(AnalysisError):
            percentile([1.0], 101)
        with pytest.raises(AnalysisError):
            percentile([], 50)


class TestCdf:
    def test_evaluate(self):
        cdf = Cdf.from_values([1.0, 2.0, 3.0, 4.0])
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(2.0) == pytest.approx(0.5)
        assert cdf.evaluate(10.0) == 1.0

    def test_quantile_endpoints(self):
        cdf = Cdf.from_values([5.0, 1.0, 3.0])
        assert cdf.quantile(0.0) == 1.0
        assert cdf.quantile(1.0) == 5.0
        assert cdf.median == 3.0

    def test_quantile_bounds(self):
        cdf = Cdf.from_values([1.0])
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            Cdf.from_values([])

    def test_series_monotone(self):
        cdf = Cdf.from_values(list(range(100)))
        series = cdf.series(20)
        xs = [x for x, _ in series]
        ys = [y for _, y in series]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_series_point_count_validation(self):
        cdf = Cdf.from_values([1.0, 2.0])
        with pytest.raises(AnalysisError):
            cdf.series(1)

    @pytest.mark.property
    @given(float_samples)
    @settings(max_examples=60)
    def test_quantile_evaluate_consistency(self, values):
        cdf = Cdf.from_values(values)
        for q in (0.1, 0.5, 0.9):
            x = cdf.quantile(q)
            assert cdf.evaluate(x) >= q - 1e-9


class TestKnee:
    def test_finds_bimodal_boundary(self):
        # Two log-separated modes: ~2 ms and ~10 s.
        low = [0.002 * (1 + 0.1 * (i % 10)) for i in range(500)]
        high = [10.0 * (1 + 0.1 * (i % 10)) for i in range(500)]
        knee = find_knee(low + high)
        assert 0.002 < knee < 10.0

    def test_too_few_samples(self):
        with pytest.raises(AnalysisError):
            find_knee([1.0, 2.0])

    def test_degenerate_range(self):
        with pytest.raises(AnalysisError):
            find_knee([1.0] * 100)

    def test_linear_axis(self):
        values = [1.0] * 50 + [float(i) for i in range(50)]
        knee = find_knee(values, log_x=False)
        assert 0.0 <= knee <= 50.0


class TestSummarize:
    def test_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            summarize([])


class TestKneeDetailed:
    def test_zero_gaps_anchor_cumulative_mass(self):
        # 900 zero gaps cannot sit on the log axis, but their cumulative
        # mass must still anchor the knee: 90% of samples precede the
        # first positive value, so the knee is at the first positive.
        values = [0.0] * 900 + [0.001 * (10 ** (i / 33)) for i in range(100)]
        result = find_knee_detailed(values, log_x=True)
        assert result.excluded_samples == 900
        assert result.total_samples == 1000
        assert result.excluded_fraction == pytest.approx(0.9)
        assert result.knee == pytest.approx(0.001)

    def test_exclusions_do_not_shift_bimodal_knee(self):
        # Adding clamped-to-zero gaps must not move the knee away from
        # the bimodal boundary (the pre-fix code renormalised fractions
        # over survivors only, distorting exactly this case).
        low = [0.002 * (1 + 0.1 * (i % 10)) for i in range(500)]
        high = [10.0 * (1 + 0.1 * (i % 10)) for i in range(500)]
        clean = find_knee_detailed(low + high)
        noisy = find_knee_detailed([0.0] * 200 + low + high)
        assert clean.excluded_samples == 0
        assert noisy.excluded_samples == 200
        assert noisy.knee == pytest.approx(clean.knee)
        assert 0.002 < noisy.knee < 10.0

    def test_linear_axis_excludes_nothing(self):
        values = [0.0] * 50 + [float(i) for i in range(50)]
        result = find_knee_detailed(values, log_x=False)
        assert result.excluded_samples == 0
        assert result.total_samples == 100

    def test_find_knee_wrapper_agrees(self):
        values = [0.0] * 100 + [0.002 * (1 + 0.1 * (i % 10)) for i in range(200)] + [
            10.0 * (1 + 0.1 * (i % 10)) for i in range(200)
        ]
        assert find_knee(values) == find_knee_detailed(values).knee

    def test_all_excluded_rejected(self):
        with pytest.raises(AnalysisError):
            find_knee_detailed([0.0] * 100, log_x=True)
