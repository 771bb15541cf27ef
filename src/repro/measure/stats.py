"""Confidence intervals over repeated runs (§4.1).

The paper reports 95 % confidence intervals for energy over multiple runs
of each workload and found them "to be less than 0.7 % of the mean energy".
We use the standard two-sided Student-t interval on the sample mean.
The t quantile comes from ``scipy.special.stdtrit``, the function scipy's
own t-distribution ``ppf`` calls.  It is imported only when an interval is
computed, so importing this module loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval on a mean.

    Attributes:
        mean: sample mean.
        low / high: interval bounds.
        level: confidence level (0.95).
        n: number of observations.
    """

    mean: float
    low: float
    high: float
    level: float
    n: int

    @property
    def half_width(self) -> float:
        """Half the interval width."""
        return (self.high - self.low) / 2.0

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (the paper's 0.7 % metric)."""
        if self.mean == 0:
            return float("inf")
        return abs(self.half_width / self.mean)

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.low <= value <= self.high

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        """True if the two intervals overlap.

        The paper uses non-overlap as its "statistically significant
        difference" criterion when comparing Table 2 rows.
        """
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.low:.2f} - {self.high:.2f} (mean {self.mean:.2f}, n={self.n})"


def confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval on the mean of ``values``.

    Args:
        values: at least two observations.
        level: confidence level in (0, 1).

    Raises:
        ValueError: with fewer than two observations or a bad level.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two observations for an interval")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must be in (0, 1)")
    mean = float(np.mean(arr))
    sem = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    if sem == 0.0:
        return ConfidenceInterval(mean, mean, mean, level, int(arr.size))
    from scipy.special import stdtrit

    t = float(stdtrit(arr.size - 1, 0.5 + level / 2.0))
    half = t * sem
    return ConfidenceInterval(mean, mean - half, mean + half, level, int(arr.size))
