"""Descriptive statistics for experiment results."""

from __future__ import annotations

import math
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

    Returns None for an empty sample set. `samples` may be any iterable
    of finite numbers; it is read once, with no intermediate list. A NaN
    or infinite sample raises ValueError, and so does a statistic that
    overflows even so (quartiles of [-1e308, 1e308]).
    """
    x = np.fromiter(samples, dtype=float)
    if x.size == 0:
        return None
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"non-finite sample {float(x[bad[0]])!r} at "
                         f"index {bad[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        q1, med, q3 = _quartiles(np.sort(x))
        iqr = q3 - q1
        lo = q1 - 1.5 * iqr
        hi = q3 + 1.5 * iqr
        mean, std = float(x.mean()), float(x.std())
        if not (math.isfinite(mean) and math.isfinite(std)):
            # the sum or the squares overflowed; only then scale by the
            # largest magnitude, so ordinary samples keep their bits
            scale = max(x.max(), -x.min())
            if not math.isfinite(mean):
                mean = float((x / scale).mean() * scale)
            if not math.isfinite(std):
                std = float((x / scale).std() * scale)
    outliers = sorted(float(v) for v in x[(x < lo) | (x > hi)])
    stats = BoxStats(n=int(x.size), mean=mean, std=std, median=float(med),
                     q1=float(q1), q3=float(q3), iqr=float(iqr),
                     lower_fence=float(lo), upper_fence=float(hi),
                     outliers=outliers)
    inf = [k for k, v in vars(stats).items()
           if isinstance(v, float) and not math.isfinite(v)]
    if inf:
        raise ValueError(f"samples overflow {', '.join(inf)}")
    return stats


def _quartiles(s: np.ndarray) -> tuple:
    """q1, median and q3 of sorted finite samples, with the bits of
    `np.percentile(s, [25, 50, 75], method="linear")` up to the sign of a
    zero, but without the `numpy.ma` import (about 1.7 MB) that
    `np.percentile` makes through `np.unique`."""
    n = len(s)
    out = []
    for q in (0.25, 0.5, 0.75):
        vi = (n - 1) * q
        i = math.floor(vi)
        g = vi - i
        a, b = s[i], s[min(i + 1, n - 1)]
        # as numpy's _lerp: step from the nearer of the two order statistics
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return tuple(out)


def rank_score(per_seed_means) -> tuple:
    """(mean, std, mean + std) of per-seed travel-time means."""
    x = np.asarray(list(per_seed_means), dtype=float)
    mu = float(x.mean())
    sigma = float(x.std())
    return mu, sigma, mu + sigma


def mean_ci95(per_run_values) -> tuple:
    """Mean and 95% normal-approximation half-width across one or more
    runs.

    A 2-D array holds one row per bin and one column per run; its rows are
    reduced along the last axis, which gives each row the bits of the 1-D
    call, and the means and half-widths come back as arrays.
    """
    x = np.asarray(per_run_values if isinstance(per_run_values, np.ndarray)
                   else list(per_run_values), dtype=float)
    n = x.shape[-1]
    mean = x.mean(axis=-1)
    half = (1.96 * x.std(ddof=1, axis=-1) / np.sqrt(n) if n > 1
            else np.zeros_like(mean))
    if x.ndim == 1:
        return float(mean), float(half)
    return mean, half
