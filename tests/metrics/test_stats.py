"""Tests for the statistics primitives."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import (
    cdf_at,
    ks_distance,
    mean,
    median,
    pearson_correlation,
    percentile,
)

floats_list = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100
)


class TestMedian:
    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_averages(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_single(self):
        assert median([7.0]) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_does_not_mutate(self):
        data = [3.0, 1.0, 2.0]
        median(data)
        assert data == [3.0, 1.0, 2.0]


class TestPercentile:
    def test_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 5.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == 2.5

    def test_median_agreement(self):
        data = [random.Random(1).random() for _ in range(101)]
        assert percentile(data, 50) == pytest.approx(median(data))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2.0, 4.0, 6.0, 8.0]
        assert pearson_correlation(xs, ys) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 3.0]
        ys = [3.0, 2.0, 1.0]
        assert pearson_correlation(xs, ys) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = random.Random(2)
        xs = [rng.random() for _ in range(5000)]
        ys = [rng.random() for _ in range(5000)]
        assert abs(pearson_correlation(xs, ys)) < 0.05

    def test_constant_series_returns_zero(self):
        """The flat-latency limit: no variance, no correlation."""
        assert pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson_correlation([1.0], [1.0])

    def test_agrees_with_numpy(self):
        import numpy

        rng = random.Random(3)
        xs = [rng.gauss(0, 1) for _ in range(200)]
        ys = [x * 0.5 + rng.gauss(0, 1) for x in xs]
        ours = pearson_correlation(xs, ys)
        theirs = float(numpy.corrcoef(xs, ys)[0, 1])
        assert ours == pytest.approx(theirs, abs=1e-10)


class TestCdf:
    def test_cdf_at(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert cdf_at(data, 2.0) == 0.5
        assert cdf_at(data, 0.0) == 0.0
        assert cdf_at(data, 10.0) == 1.0

    def test_cdf_at_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_at([], 1.0)


class TestKsDistance:
    def test_identical_samples_zero(self):
        data = [1.0, 2.0, 3.0]
        assert ks_distance(data, data) == 0.0

    def test_disjoint_samples_one(self):
        assert ks_distance([1.0, 2.0], [10.0, 20.0]) == 1.0

    def test_same_distribution_small(self):
        rng = random.Random(4)
        a = [rng.gauss(0, 1) for _ in range(3000)]
        b = [rng.gauss(0, 1) for _ in range(3000)]
        assert ks_distance(a, b) < 0.05

    def test_shifted_distribution_large(self):
        rng = random.Random(5)
        a = [rng.gauss(0, 1) for _ in range(1000)]
        b = [rng.gauss(2, 1) for _ in range(1000)]
        assert ks_distance(a, b) > 0.5

    def test_symmetry(self):
        rng = random.Random(6)
        a = [rng.random() for _ in range(100)]
        b = [rng.random() * 2 for _ in range(150)]
        assert ks_distance(a, b) == pytest.approx(ks_distance(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([], [1.0])


@given(floats_list)
@settings(max_examples=100)
def test_property_median_between_min_max(values):
    m = median(values)
    assert min(values) <= m <= max(values)


@given(floats_list)
@settings(max_examples=100)
def test_property_percentile_monotone_in_q(values):
    assert percentile(values, 25) <= percentile(values, 50) <= percentile(values, 90)


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=2, max_size=50))
@settings(max_examples=100)
def test_property_pearson_bounded(values):
    shifted = [v * 2 + 1 for v in values]
    r = pearson_correlation(values, shifted)
    assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
