"""Malthusian growth-rate estimation from total-population time series."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .io import check_table, r_squared, read_columns


@dataclass(frozen=True)
class GrowthSeries:
    """Cell counts N(t) at strictly increasing times (hours)."""

    times: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        times, counts = check_table(self.times, self.counts, 3, "growth series")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "counts", counts)
        if np.any(counts <= 0):
            raise ValidationError("counts must be positive")


@dataclass(frozen=True)
class GrowthFit:
    """Log-linear fit of N(t): slope lam, intercept, R^2, doubling time ln2/lam."""

    lam: float
    intercept: float
    r_squared: float
    doubling_time: float | None


def fit_growth(series: GrowthSeries) -> GrowthFit:
    """Ordinary least squares of ln(N(t)/N(0)) against t.

    The slope is the Malthusian parameter; the doubling time ln2/lam is
    reported when the slope is positive.  Raises DegenerateInputError if the
    times are too close together for the slope to be a finite number.
    """
    t = series.times
    y = np.log(series.counts) - math.log(series.counts[0])
    t_mean = t.mean()
    y_mean = y.mean()
    dt = t - t_mean
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lam = float(np.dot(dt, y - y_mean) / np.dot(dt, dt))
    if not math.isfinite(lam):
        raise DegenerateInputError(f"the times {t[0]:g} .. {t[-1]:g} are too close together "
                                   "for a finite growth rate")
    intercept = float(y_mean - lam * t_mean)
    doubling = math.log(2.0) / lam if lam > 0 else None
    fit_r2 = r_squared(y, y - (intercept + lam * t))
    return GrowthFit(lam=lam, intercept=intercept, r_squared=fit_r2, doubling_time=doubling)


def load_growth_csv(path) -> GrowthSeries:
    """Read a two-column CSV `t,N`; an optional header row is skipped."""
    times, counts = read_columns(path, 2)
    return GrowthSeries(times=times, counts=counts)
