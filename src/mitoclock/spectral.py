"""Growth eigenproblem for the age-structured renewal dynamics.

Given a division rate beta(a) and a death rate mu, the asymptotic growth
rate lam is the unique root of

    g(lam) = 2 * integral_0^inf beta(a) exp(-integral_0^a (beta + mu + lam)) da - 1,

which is strictly decreasing in lam.  The associated equilibrium age profile
and its adjoint weight are tabulated on a uniform grid and normalized so that
integral(p_hat) = 1 and integral(p_hat * phi) = 1.

All quadrature on the grid uses exponentially fitted panel weights: within a
panel the rate is linear and the survival exponent is linear, so the scheme
is exact for piecewise-constant rates.  The root residual, the renewal
boundary identity and the adjoint normalization then close to root-finder
tolerance rather than O(step^2), which the rest of the package relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .io import write_columns

SURVIVAL_TOL = 1e-12  # divergence check: exp(-hazard) must fall below this
LAMBDA_MAX = 10.0
MAX_ROOT_STEPS = 100  # regula falsi steps allowed before solve_lambda gives up
DEFAULT_STEP = 0.05
QUADRATURE_REFINE = 4  # panel subdivisions in the renewal quadrature
MAX_CELLS = 10**6  # most age cells (a_max / step) any grid may have
_EXP_SPAN = 600.0  # largest rise of the survival exponent summed with one shift


class AgeProfile(NamedTuple):
    """A function of age tabulated on a grid."""

    ages: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class EigenPair:
    """Growth rate with its equilibrium profile and adjoint weight."""

    lam: float
    grid: np.ndarray
    p_hat: np.ndarray
    phi: np.ndarray

    def profile(self) -> AgeProfile:
        return AgeProfile(self.grid, self.p_hat)

    def adjoint(self) -> AgeProfile:
        return AgeProfile(self.grid, self.phi)

    def to_csv(self, path) -> None:
        write_columns(path, ("age", "p_hat", "phi"), (self.grid, self.p_hat, self.phi))


def _exp_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Panel weights E0(x) = (1-e^-x)/x and E1(x) = (1-(1+x)e^-x)/x^2."""
    small = np.abs(x) < 1e-5
    xs = np.where(small, 1.0, x)  # placeholder to avoid 0/0; overwritten below
    ex = np.exp(-xs)
    e0 = (1.0 - ex) / xs
    e1 = (1.0 - (1.0 + xs) * ex) / (xs * xs)
    e0 = np.where(small, 1.0 - x / 2.0 + x * x / 6.0, e0)
    e1 = np.where(small, 0.5 - x / 3.0 + x * x / 8.0, e1)
    return e0, e1


def _refine_grid(grid: np.ndarray, k: int) -> np.ndarray:
    offsets = np.arange(k) / k
    fine = (grid[:-1, None] + np.diff(grid)[:, None] * offsets).ravel()
    return np.append(fine, grid[-1])


def _renewal_value(beta: np.ndarray, hazard: np.ndarray, grid: np.ndarray,
                   mu: float, lam: float) -> float:
    """2 * integral of beta * exp(-hazard - (mu+lam)a) over the grid."""
    s = hazard + (mu + lam) * grid
    h = np.diff(grid)
    x = np.diff(s)
    e0, e1 = _exp_weights(x)
    panels = h * np.exp(-s[:-1]) * (beta[:-1] * e0 + np.diff(beta) * e1)
    return 2.0 * float(panels.sum())


def build_grid(rate, step: float = DEFAULT_STEP, a_max: float | None = None) -> np.ndarray:
    """Uniform age grid covering the rate's divergence range.

    Without an explicit a_max, the upper end starts at m + 12*sigma (closed
    forms) or the table end and is extended until division survival drops
    below SURVIVAL_TOL, by at most 400 steps of 4*sigma plus twice the plateau
    length log(1/SURVIVAL_TOL)/rate(m + 12*sigma) (closed forms) or 400
    quarters of the table.  Raises ConfigurationError if the rate never
    accumulates enough hazard (e.g. a rate that is identically zero), and
    ValidationError if the grid would have more than MAX_CELLS cells.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(f"step must be finite and positive, got {step}")
    if a_max is None:
        model = getattr(rate, "model", None)
        if model is not None:
            a_max = model.m + 12.0 * model.sigma
            chunk = 4.0 * model.sigma
            # past m + 12 sigma a closed-form rate only grows, so survival falls below
            # SURVIVAL_TOL within log(1/SURVIVAL_TOL)/rate(a_max) more hours: on a slow
            # plateau that can be far more than 400 chunks of the sigma scale
            cap = a_max + 400.0 * chunk + 2.0 * math.log(1.0 / SURVIVAL_TOL) / float(rate(a_max))
        else:
            a_max = float(rate.ages[-1])
            chunk = max(0.25 * a_max, 10.0 * step)
            cap = a_max + 400.0 * chunk
        while math.exp(-float(rate.hazard(a_max))) >= SURVIVAL_TOL:
            a_max += chunk
            if a_max > cap:
                raise ConfigurationError(
                    "division survival never drops below tolerance; "
                    "rate does not diverge on any reachable grid"
                )
    check_cell_count(a_max, step)
    n = max(2, int(math.ceil(a_max / step - 1e-9)))
    return np.arange(n + 1) * step


def check_cell_count(a_max: float, step: float) -> None:
    """Raise ValidationError if an age grid of this extent and step exceeds MAX_CELLS."""
    if not a_max / step <= MAX_CELLS:
        raise ValidationError(f"a_max / step = {a_max / step:.3g} age cells > {MAX_CELLS}")


def solve_lambda(rate, mu: float, step: float = DEFAULT_STEP,
                 grid: np.ndarray | None = None) -> float:
    """Root of the renewal equation: the asymptotic growth rate.

    Requires a finite mu >= 0 and a divergent division rate (survival below
    SURVIVAL_TOL at the top of the grid).
    """
    if not (math.isfinite(mu) and mu >= 0):
        raise ValidationError(f"death rate must be finite and nonnegative, got {mu}")
    if grid is None:
        grid = build_grid(rate, step)
    fine = _refine_grid(grid, QUADRATURE_REFINE)
    beta = np.asarray(rate(fine), dtype=float)
    hazard = np.asarray(rate.hazard(fine), dtype=float)
    if math.exp(-float(hazard[-1])) >= SURVIVAL_TOL:
        raise ConfigurationError(
            f"division survival at the grid end ({math.exp(-float(hazard[-1])):.2e}) "
            f"exceeds {SURVIVAL_TOL:g}; extend the grid or check the rate"
        )

    def g(lam):
        value = _renewal_value(beta, hazard, fine, mu, lam) - 1.0
        if not math.isfinite(value):
            raise ConfigurationError(f"renewal function is {value} at lambda = {lam}")
        return value

    lo = -mu  # g(-mu) = 1 - 2*survival > 0 by the divergence check
    hi = max(0.5, lo + 0.5)
    while (g_hi := g(hi)) > 0.0:
        hi = 2.0 * hi + 1.0
        if hi > LAMBDA_MAX:
            raise ConfigurationError(
                f"no sign change up to lambda = {LAMBDA_MAX}; rate not divergent on grid"
            )
    # Regula falsi with Anderson-Bjorck weighting (BIT 13, 1973) on [a, b] = [lo, hi], b the
    # newest point: when a new point lands on b's side, g_a is scaled down so that end moves
    # too.  It stops once |b - a| <= 1e-14 + 8.9e-16*|b|, brentq's rule at xtol = 1e-14.
    a, g_a, b, g_b = lo, g(lo), hi, g_hi
    for _ in range(MAX_ROOT_STEPS):
        lam = b - g_b * (b - a) / (g_b - g_a)
        g_lam = g(lam)
        if g_lam == 0.0:
            return lam
        if (g_lam > 0.0) == (g_b > 0.0):
            scale = 1.0 - g_lam / g_b
            g_a *= scale if scale > 0.0 else 0.5
        else:
            a, g_a = b, g_b
        b, g_b = lam, g_lam
        if abs(b - a) <= 1e-14 + 8.9e-16 * abs(b):
            return b
    raise ConfigurationError(f"growth rate not bracketed to tolerance in {MAX_ROOT_STEPS} steps")


def renewal_residual(rate, mu: float, lam: float, grid: np.ndarray) -> float:
    """g(lam) for a given growth rate; zero at the solved eigenvalue."""
    fine = _refine_grid(grid, QUADRATURE_REFINE)
    beta = np.asarray(rate(fine), dtype=float)
    hazard = np.asarray(rate.hazard(fine), dtype=float)
    return _renewal_value(beta, hazard, fine, mu, lam) - 1.0


def equilibrium(rate, mu: float, step: float = DEFAULT_STEP,
                grid: np.ndarray | None = None) -> EigenPair:
    """Growth rate, equilibrium age profile and adjoint weight on one grid.

    p_hat(a) is proportional to exp(-integral_0^a (beta + mu + lam)) with unit
    integral.  phi solves the adjoint problem backward from the top of the
    grid and is rescaled so integral(p_hat * phi) = 1; for a constant rate it
    is identically 1.
    """
    if grid is None:
        grid = build_grid(rate, step)
    lam = solve_lambda(rate, mu, grid=grid)
    beta = np.asarray(rate(grid), dtype=float)
    s = np.asarray(rate.hazard(grid), dtype=float) + (mu + lam) * grid
    u = np.exp(-s)
    p_hat = u / np.trapezoid(u, grid)

    h = np.diff(grid)
    x = np.diff(s)
    e0, e1 = _exp_weights(x)
    q = 2.0 * h * (beta[:-1] * e0 + np.diff(beta) * e1)  # 2 e^{s_j} * panel integral
    phi = _adjoint(s, q)
    phi /= np.trapezoid(phi * p_hat, grid)
    return EigenPair(lam=lam, grid=grid, p_hat=p_hat, phi=phi)


def _adjoint(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """phi solving phi_j = exp(s_j - s_{j+1})*phi_{j+1} + q_j backward from phi = 0 at the top.

    That is phi_j = exp(s_j) * sum_{k >= j} q_k exp(-s_k), one reversed cumulative sum.
    s is nondecreasing, so it is summed in blocks over which s rises by at most
    _EXP_SPAN, each shifted by its first s, so that no exponential overflows.
    """
    phi = np.zeros_like(s)
    top = s.size - 1
    blocks = np.flatnonzero(np.diff((s[:-1] - s[0]) // _EXP_SPAN, prepend=-1.0))
    for start in blocks[::-1]:
        block = slice(start, top)
        ahead = np.cumsum((q[block] * np.exp(s[start] - s[block]))[::-1])[::-1]
        phi[block] = np.exp(s[block] - s[start]) * ahead + np.exp(s[block] - s[top]) * phi[top]
        top = start
    return phi


def gre_functional(profile: AgeProfile, adjoint: AgeProfile, lam: float, t: float) -> float:
    """Conserved weighted mass: exp(-lam*t) * integral(profile * adjoint).

    Constant along exact solutions of the renewal dynamics; its numerical
    drift measures scheme dissipation.
    """
    ages, values = np.asarray(profile.ages), np.asarray(profile.values)
    phi_ages, phi_values = np.asarray(adjoint.ages), np.asarray(adjoint.values)
    if ages.shape != values.shape or phi_ages.shape != phi_values.shape:
        raise ValidationError("each table needs matching ages and values")
    if ages.shape != phi_ages.shape or not np.allclose(ages, phi_ages, rtol=0, atol=1e-9):
        raise ValidationError("profile and adjoint must share the same age grid")
    return float(math.exp(-lam * t) * np.trapezoid(values * phi_values, ages))
