"""Statistical comparison of repeated experiments.

The paper reasons about Table 2 through 95 % confidence-interval overlap
("statistically significant reduction", "no statistical decrease").  This
module adds the sharper standard tool -- Welch's unequal-variance t-test
-- so configurations can be compared with explicit p-values, plus a small
report type used by benchmarks and examples.

The test itself is a few lines of numpy that repeat scipy 1.17's
unequal-variance ``ttest_ind`` arithmetic step for step, so statistics and
p-values are bitwise the same as scipy's.  Only ``scipy.special.stdtr``
is needed, and it is imported when a test is computed, so importing this
module loads no scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing two samples of measured energies.

    Attributes:
        mean_a / mean_b: sample means.
        difference: ``mean_a - mean_b``.
        relative_difference: difference as a fraction of ``mean_b``.
        t_statistic: Welch's t.
        p_value: two-sided p-value.
        significant: whether p < alpha.
        alpha: the significance level used.
    """

    mean_a: float
    mean_b: float
    difference: float
    relative_difference: float
    t_statistic: float
    p_value: float
    significant: bool
    alpha: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        verdict = "significant" if self.significant else "not significant"
        return (
            f"{self.mean_a:.2f} vs {self.mean_b:.2f} "
            f"(diff {self.difference:+.2f}, p={self.p_value:.4f}, {verdict})"
        )


def welch_compare(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.05,
) -> Comparison:
    """Welch's two-sided t-test on two samples.

    Args:
        sample_a / sample_b: at least two observations each.
        alpha: significance level.

    Raises:
        ValueError: with fewer than two observations or a bad alpha.
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two observations per sample")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if np.std(a, ddof=1) == 0.0 and np.std(b, ddof=1) == 0.0:
        identical = float(np.mean(a)) == float(np.mean(b))
        t_stat, p_value = (0.0, 1.0) if identical else (float("inf"), 0.0)
    else:
        t_stat, p_value = _welch_t_test(a, b)
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    diff = mean_a - mean_b
    return Comparison(
        mean_a=mean_a,
        mean_b=mean_b,
        difference=diff,
        relative_difference=diff / mean_b if mean_b else float("inf"),
        t_statistic=float(t_stat),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        alpha=alpha,
    )


def _sample_variance(x: np.ndarray) -> np.float64:
    """Unbiased variance, computed the way scipy's ``_var(ddof=1)`` does.

    ``np.var(ddof=1)`` rounds differently.  Like scipy's ``_demean``, this
    warns when the samples are so nearly identical that subtracting the
    mean cancels catastrophically.
    """
    mean = np.mean(x, keepdims=True)
    centred = x - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_diff = np.max(np.abs(centred)) / np.abs(mean[0])
    if rel_diff < np.finfo(x.dtype).eps * 10 and x.size > 1:
        warnings.warn(
            "Precision loss occurred in moment calculation due to "
            "catastrophic cancellation. This occurs when the data "
            "are nearly identical. Results may be unreliable.",
            RuntimeWarning,
            stacklevel=4,
        )
    n = np.asarray(x.size, dtype=x.dtype)
    return np.mean(centred**2) * (n / (n - 1))


def _welch_t_test(a: np.ndarray, b: np.ndarray) -> Tuple[float, float]:
    """Welch's t statistic and two-sided p-value, bitwise as scipy's."""
    from scipy.special import stdtr

    n1, n2 = a.size, b.size
    vn1 = _sample_variance(a) / n1
    vn2 = _sample_variance(b) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1**2 / (n1 - 1) + vn2**2 / (n2 - 1))
        # Undefined df means both variances are zero; any df will do.
        df = 1.0 if np.isnan(df) else df
        t = (np.mean(a) - np.mean(b)) / np.sqrt(vn1 + vn2)
    return float(t), float(2 * stdtr(df, -np.abs(t)))


def energies(results) -> "list[float]":
    """Extract the measured energies from a RepeatedResult."""
    return [r.energy_j for r in results.results]
