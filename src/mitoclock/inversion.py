"""Numeric recovery of the division rate from a tabulated IMT density.

With no death the density and the rate are linked by

    rate(a) = density(a) / integral_a^inf density,

so a sampled density can be inverted pointwise.  The denominator decays to
zero in the tail, so the quotient is only reported on the range where it
stays above a floor relative to the total mass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import FitConvergenceError, TruncationWarning, ValidationError
from .fitter import _least_squares
from .imt_models import Model, TabulatedRate, _erfc
from .io import check_number, check_table, r_squared, read_columns, write_columns

DENOMINATOR_FLOOR = 1e-10  # times total mass; below this the quotient is 0/0 noise
TAIL_BIAS_GUARD = 1e3  # denominator must exceed this multiple of the estimated missing tail
TAIL_TOL = 1e-6  # times peak; the last value must be below this for the tail estimate


def _missing_tail_estimate(ages: np.ndarray, values: np.ndarray) -> float:
    """Mass beyond the table, from the terminal log-slope and its drift.

    With local decay rate r(a) = -d(log I)/da, the missing mass is
    I_end/r * (1 - r'/r^2 + ...); the quadratic log fit supplies both terms.
    """
    last = values[-1]
    if last <= 0:
        return 0.0
    window = max(5, ages.size // 50)
    tail_ages = ages[-window:]
    tail_vals = values[-window:]
    positive = tail_vals > 0
    if positive.sum() < 3 or tail_vals[positive][0] <= last:
        return last * (ages[-1] - ages[0])  # non-decaying tail: be pessimistic
    x = tail_ages[positive] - ages[-1]
    y = np.log(tail_vals[positive])
    deg = 2 if x.size >= 4 else 1
    coeffs = np.polyfit(x, y, deg)
    if deg == 2:
        rate = -coeffs[1]
        rate_slope = -2.0 * coeffs[0]
    else:
        rate = -coeffs[0]
        rate_slope = 0.0
    if rate <= 0:
        return last * (ages[-1] - ages[0])
    correction = 1.0 - rate_slope / (rate * rate)
    if not (0.0 < correction < 10.0):
        correction = 1.0
    return last / rate * correction


def invert_imt(ages, values) -> TabulatedRate:
    """Invert a tabulated IMT density into a tabulated division rate.

    The tail integral uses the composite trapezoid over the table plus the
    estimated mass beyond the last age (terminal decay rate continued), which
    requires the input to have decayed: values[-1] must be below
    TAIL_TOL * peak.  The returned table is truncated to ages where the
    within-table integral both exceeds DENOMINATOR_FLOOR times the total mass
    and dominates the estimated missing tail by TAIL_BIAS_GUARD, so that
    uncertainty in the tail estimate cannot bias the quotient; a
    TruncationWarning reports the last reliable age if that happens before
    the end of the table.
    """
    ages, values = check_table(ages, values, 3, "density table")
    peak = values.max()
    if peak <= 0:
        raise ValidationError("density is identically zero")
    if values[-1] > TAIL_TOL * peak:
        raise ValidationError(
            f"density has not decayed at the last age ({values[-1]:.3g} > "
            f"{TAIL_TOL:g} * peak); extend the table"
        )

    segments = 0.5 * (values[1:] + values[:-1]) * np.diff(ages)
    total = segments.sum()
    inside = np.concatenate((np.cumsum(segments[::-1])[::-1], [0.0]))
    missing = _missing_tail_estimate(ages, values)
    floor = max(DENOMINATOR_FLOOR * total, TAIL_BIAS_GUARD * missing)

    reliable = inside >= floor
    cut = int(np.argmin(reliable)) if not reliable.all() else ages.size
    if cut < 2:
        raise ValidationError("tail integral underflows immediately; density too degenerate")
    if cut < ages.size - 1:
        warnings.warn(
            f"division rate truncated to ages <= {ages[cut - 1]:g} "
            f"(tail integral below floor beyond that)",
            TruncationWarning,
            stacklevel=2,
        )
    return TabulatedRate(ages[:cut], values[:cut] / (inside[:cut] + missing))


@dataclass(frozen=True)
class ErfcComparison:
    """Agreement between a tabulated rate and an erfc-shaped candidate."""

    r_squared: float
    max_abs_err: float


def erfc_distance(rate: TabulatedRate, beta0: float, m: float, sigma: float) -> ErfcComparison:
    """Compare a tabulated rate against beta0*erfc((m - a)/sigma) on its grid."""
    beta0, m = check_number(beta0, "beta0"), check_number(m, "m")
    sigma = check_number(sigma, "sigma", 0, strict=True)
    candidate, _ = _erfc(rate.ages, beta0, m, sigma)
    resid = rate.values - candidate
    return ErfcComparison(r_squared(rate.values, resid), float(np.abs(resid).max()))


def best_erfc_fit(rate: TabulatedRate) -> tuple[Model, ErfcComparison]:
    """Least-squares erfc-shaped rate closest to a tabulated one.

    Raises FitConvergenceError, carrying (model, comparison) of the last iterate, if the
    solver does not converge.
    """
    ages, values = rate.ages, rate.values
    top = values.max()
    if top <= 0:
        raise ValidationError("rate table is identically zero")
    # plateau level ~ 2*beta0; half-rise locates m; rise width scales sigma
    beta0_init = max(0.5 * values[-1], 0.25 * top, 1e-6)
    above = ages[values > 0.5 * top]
    m_init = float(above[0]) if above.size else float(ages[ages.size // 2])
    sigma_init = max(0.05 * (ages[-1] - ages[0]), 1e-3)

    def residual_and_jacobian(theta):
        rate, _, d_rate, _ = _erfc(ages, *theta, partials=True)
        return rate - values, d_rate.T

    best = _least_squares(residual_and_jacobian, [beta0_init, m_init, sigma_init],
                          np.array([1e-9, 0.0, 1e-6]), max_nfev=300, tol=1e-8)
    b0, m, s = (float(v) for v in best.x)
    model = Model(family="erfc", beta0=b0, m=m, sigma=s)
    comparison = erfc_distance(rate, b0, m, s)
    if not best.converged:
        raise FitConvergenceError(
            f"the closest erfc rate did not converge within {best.n_evaluations} evaluations",
            best=(model, comparison),
        )
    return model, comparison


def write_rate_csv(rate: TabulatedRate, path) -> None:
    write_columns(path, ("age", "beta"), (rate.ages, rate.values))


def read_rate_csv(path) -> TabulatedRate:
    return TabulatedRate(*read_columns(path, 2))
