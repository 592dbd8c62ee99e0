"""Descriptive statistics for experiment results."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QUARTILE_METHOD = "linear"  # interpolation between order statistics


@dataclass
class BoxStats:
    n: int
    mean: float
    std: float
    median: float
    q1: float
    q3: float
    iqr: float
    lower_fence: float
    upper_fence: float
    outliers: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "mean": self.mean, "std": self.std,
            "median": self.median, "q1": self.q1, "q3": self.q3,
            "iqr": self.iqr, "lower_fence": self.lower_fence,
            "upper_fence": self.upper_fence, "outliers": list(self.outliers),
            "quartile_method": QUARTILE_METHOD,
        }


def box_stats(samples) -> BoxStats | None:
    """Boxplot statistics; outliers lie strictly outside the 1.5 IQR fences.

    Returns None for an empty sample set.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        return None
    q1, med, q3 = np.percentile(x, [25.0, 50.0, 75.0], method=QUARTILE_METHOD)
    iqr = q3 - q1
    lo = q1 - 1.5 * iqr
    hi = q3 + 1.5 * iqr
    outliers = sorted(float(v) for v in x[(x < lo) | (x > hi)])
    return BoxStats(n=int(x.size), mean=float(x.mean()),
                    std=float(x.std()), median=float(med),
                    q1=float(q1), q3=float(q3), iqr=float(iqr),
                    lower_fence=float(lo), upper_fence=float(hi),
                    outliers=outliers)


def rank_score(per_seed_means) -> tuple:
    """(mean, std, mean + std) of per-seed travel-time means."""
    x = np.asarray(list(per_seed_means), dtype=float)
    mu = float(x.mean())
    sigma = float(x.std())
    return mu, sigma, mu + sigma


def mean_ci95(per_run_values) -> tuple:
    """Mean and 95% normal-approximation half-width across runs.

    A 2-D array holds one row per bin and one column per run; its rows are
    reduced along the last axis, which gives each row the bits of the 1-D
    call, and the means and half-widths come back as arrays.
    """
    x = np.asarray(per_run_values if isinstance(per_run_values, np.ndarray)
                   else list(per_run_values), dtype=float)
    n = x.shape[-1]
    if n == 0:
        mean = half = np.full(x.shape[:-1], np.nan)
    else:
        mean = x.mean(axis=-1)
        half = (1.96 * x.std(ddof=1, axis=-1) / np.sqrt(n) if n > 1
                else np.zeros_like(mean))
    if x.ndim == 1:
        return float(mean), float(half)
    return mean, half
