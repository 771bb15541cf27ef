"""Tests for confidence-interval statistics."""

import numpy as np
import pytest

from repro.measure.stats import ConfidenceInterval, confidence_interval


class TestConfidenceInterval:
    def test_symmetric_around_mean(self):
        ci = confidence_interval([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.high - ci.mean == pytest.approx(ci.mean - ci.low)

    def test_known_t_value(self):
        # n=5, std=1 -> sem=1/sqrt(5), t(0.975, df=4)=2.7764
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        ci = confidence_interval(values)
        sem = np.std(values, ddof=1) / np.sqrt(5)
        assert ci.half_width == pytest.approx(2.7764 * sem, rel=1e-3)

    def test_tighter_with_more_samples(self):
        rng = np.random.default_rng(0)
        small = confidence_interval(rng.normal(10, 1, 5))
        large = confidence_interval(rng.normal(10, 1, 200))
        assert large.half_width < small.half_width

    def test_identical_values_give_zero_width(self):
        ci = confidence_interval([5.0, 5.0, 5.0])
        assert ci.low == ci.high == ci.mean == 5.0
        assert ci.relative_half_width == 0.0

    def test_relative_half_width(self):
        ci = ConfidenceInterval(mean=100.0, low=99.3, high=100.7, level=0.95, n=5)
        assert ci.relative_half_width == pytest.approx(0.007)

    def test_contains(self):
        ci = ConfidenceInterval(mean=2.0, low=1.0, high=3.0, level=0.95, n=3)
        assert ci.contains(2.5)
        assert not ci.contains(3.5)

    def test_overlaps(self):
        a = ConfidenceInterval(2.0, 1.0, 3.0, 0.95, 3)
        b = ConfidenceInterval(3.5, 2.5, 4.5, 0.95, 3)
        c = ConfidenceInterval(6.0, 5.0, 7.0, 0.95, 3)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)

    def test_validation(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=1.5)

    def test_level_changes_width(self):
        values = [1.0, 2.0, 3.0, 4.0]
        narrow = confidence_interval(values, level=0.80)
        wide = confidence_interval(values, level=0.99)
        assert wide.half_width > narrow.half_width


class TestScipyParity:
    """The interval's t quantile is bitwise scipy's ``t.ppf``."""

    LEVELS = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)

    def test_bounds_match_scipy_t_ppf(self):
        from scipy import stats

        rng = np.random.default_rng(12)
        for df in range(1, 500):
            # Centred samples keep the bounds close to +-t*sem, so a t off
            # by one ulp shows in them.
            values = rng.normal(0.0, 1.0, df + 1)
            values -= np.mean(values)
            mean = float(np.mean(values))
            sem = float(np.std(values, ddof=1) / np.sqrt(values.size))
            for level in self.LEVELS:
                t = float(stats.t.ppf(0.5 + level / 2.0, df=df))
                ci = confidence_interval(values, level=level)
                assert (ci.low, ci.high) == (mean - t * sem, mean + t * sem), (
                    df, level,
                )
