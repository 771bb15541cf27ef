"""Tests for Welch-test experiment comparison."""

import warnings

import numpy as np
import pytest

from repro.measure.compare import _welch_t_test, welch_compare

PRECISION_LOSS = "Precision loss occurred in moment calculation"


class TestWelchCompare:
    def test_clearly_different_samples(self):
        rng = np.random.default_rng(0)
        a = rng.normal(86.0, 0.2, 8)
        b = rng.normal(80.3, 0.2, 8)
        cmp = welch_compare(a, b)
        assert cmp.significant
        assert cmp.p_value < 1e-6
        assert cmp.difference == pytest.approx(5.7, abs=0.5)
        assert cmp.relative_difference == pytest.approx(5.7 / 80.3, abs=0.01)

    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(85.0, 0.3, 6)
        b = rng.normal(85.0, 0.3, 6)
        cmp = welch_compare(a, b)
        assert not cmp.significant

    def test_constant_equal_samples(self):
        cmp = welch_compare([5.0, 5.0], [5.0, 5.0])
        assert not cmp.significant
        assert cmp.p_value == 1.0

    def test_constant_unequal_samples(self):
        cmp = welch_compare([5.0, 5.0], [6.0, 6.0])
        assert cmp.significant
        assert cmp.p_value == 0.0

    def test_alpha_controls_verdict(self):
        rng = np.random.default_rng(2)
        a = rng.normal(85.0, 1.0, 4)
        b = rng.normal(85.9, 1.0, 4)
        loose = welch_compare(a, b, alpha=0.9)
        strict = welch_compare(a, b, alpha=1e-6)
        assert loose.significant or not strict.significant

    def test_validation(self):
        with pytest.raises(ValueError):
            welch_compare([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_compare([1.0, 2.0], [1.0, 2.0], alpha=1.5)

    def test_matches_paper_style_ci_reasoning(self):
        """Welch agrees with Table 2's interval-overlap reasoning on the
        actual experiment data."""
        from repro.core.catalog import constant_speed
        from repro.measure.compare import energies
        from repro.measure.runner import repeat_workload
        from repro.workloads.mpeg import MpegConfig, mpeg_workload

        wl = mpeg_workload(MpegConfig(duration_s=10.0))
        const = repeat_workload(wl, lambda: constant_speed(206.4), runs=3)
        slow = repeat_workload(wl, lambda: constant_speed(132.7), runs=3)
        cmp = welch_compare(energies(slow), energies(const))
        assert cmp.significant
        assert cmp.difference < 0  # 132.7 MHz uses less energy


def _welch_pairs(count, seed=2000):
    """Seeded sample pairs of sizes 2-12 at scales 1e-3-1e3.

    The pairs cycle through five kinds: plain normal samples; samples
    rounded to 2 dp (some then all zeros, so the statistic is NaN); one
    zero-variance sample; two nearly identical samples a few ulps from a
    common value; and one nearly identical sample beside a plain one.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n1, n2 = (int(n) for n in rng.integers(2, 13, size=2))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)

        def normal(n):
            return rng.normal(rng.uniform(-5, 5) * scale,
                              rng.uniform(0.01, 1.0) * scale, n)

        def nearly_identical(n, base):
            return base + rng.integers(-2, 3, n) * np.spacing(base)

        kind = i % 5
        a, b = normal(n1), normal(n2)
        if kind == 1:
            a, b = np.round(a, 2), np.round(b, 2)
        elif kind == 2:
            b = np.full(n2, b[0])
        elif kind == 3:
            base = rng.uniform(1.0, 100.0) * scale
            a, b = nearly_identical(n1, base), nearly_identical(n2, base)
        elif kind == 4:
            a = nearly_identical(n1, rng.uniform(1.0, 100.0) * scale)
        yield a, b


def _same_bits(x, y):
    return (np.isnan(x) and np.isnan(y)) or (
        np.float64(x).tobytes() == np.float64(y).tobytes()
    )


def _precision_warnings(caught):
    return [w for w in caught
            if w.category is RuntimeWarning and PRECISION_LOSS in str(w.message)]


class TestScipyParity:
    """The Welch helper is bitwise scipy's unequal-variance ``ttest_ind``."""

    def test_bitwise_equal_to_ttest_ind(self):
        from scipy import stats

        warned = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for a, b in _welch_pairs(10_000):
                expected = stats.ttest_ind(a, b, equal_var=False)
                n_theirs = len(_precision_warnings(caught))
                caught.clear()
                t_stat, p_value = _welch_t_test(a, b)
                n_ours = len(_precision_warnings(caught))
                caught.clear()
                assert _same_bits(t_stat, expected.statistic), (a, b)
                assert _same_bits(p_value, expected.pvalue), (a, b)
                assert n_ours == n_theirs, (a, b)
                warned += n_theirs > 0
        # Zero-variance and nearly identical pairs are 3 of the 5 kinds.
        assert warned >= 5_000

    def test_precision_warning_points_at_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            welch_compare([1.0, 1.0 + 2**-52], [2.0, 3.0])
        (warning,) = _precision_warnings(caught)
        assert warning.filename == __file__

    def test_distinct_samples_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            welch_compare([1.0, 2.0, 3.0], [2.0, 4.0, 5.0])
