"""Growth eigenproblem for the age-structured renewal dynamics.

Given a division rate beta(a) with hazard H(a) = integral_0^a beta and a
death rate mu, the asymptotic growth rate is lam = k* - mu, k* the root of

    g(k) = 2 * integral_0^inf beta(a) exp(-H(a) - k*a) da - 1,   k = mu + lam,

which is strictly decreasing in k and does not depend on mu: death is
subtracted once, at the end.  The associated equilibrium age profile
and its adjoint weight are tabulated on a uniform grid and normalized so that
integral(p_hat) = 1 and integral(p_hat * phi) = 1.

The renewal integral is taken by parts on [0, A], s = H + k*a, with beta(A) held past A,

    2 * integral beta exp(-s) = 2 * (1 - exp(-s(A))*k/(beta(A) + k) - k * integral exp(-s)),

on NODES_PER_CELL Gauss-Legendre nodes per grid cell, reading the hazard (and beta(A))
alone: exp(-s) is one derivative smoother than beta * exp(-s).  The gamma rates have a
kink at m, so the cell that holds a closed-form rate's m is split there into
two panels.  Each cell's adjoint source uses the same identity.

Every grid is sized from the hazard alone (`build_grid`), so a rate is any callable
with a `.hazard(ages)`; this module reads nothing else of it but its value at A and a
closed-form rate's `.model.m`, for that split.  `solve_lambda`, `equilibrium` and
`renewal_residual` take a step and never a grid: each runs on build_grid(rate, step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ValidationError
from .imt_models import _gauss_legendre
from .io import check_number, write_columns

SURVIVAL_TOL = 1e-12  # a default grid ends where exp(-hazard) falls below this
LAMBDA_MAX = 10.0
MAX_ROOT_STEPS = 100  # regula falsi steps allowed before solve_lambda gives up
DEFAULT_STEP = 0.05
NODES_PER_CELL = 4  # Gauss-Legendre nodes per grid cell in the renewal quadrature
MAX_CELLS = 10**6  # most age cells (a_max / step) any grid may have
_EXP_SPAN = 600.0  # largest rise of the survival exponent summed with one shift
# leggauss(NODES_PER_CELL) of numpy.polynomial.legendre, written out as in imt_models
_CELL_RULE = (np.array([-0.8611363115940526, -0.33998104358485626,
                        0.33998104358485626, 0.8611363115940526]),
              np.array([0.34785484513745357, 0.6521451548625464,
                        0.6521451548625464, 0.34785484513745357]))


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


class _RenewalTable(NamedTuple):
    """The hazard on the Gauss-Legendre nodes of every grid cell and at the grid's top A.

    The cell that holds a closed-form rate's m is split there, as `imt_models._mass`
    splits its panels at m, so that no panel straddles the gamma rates' kink.  Unlike
    `_mass`, whose panels start where the density leaves 0, the table covers every cell
    from age 0: the renewal integral is taken over the survival exp(-H - k a), which is
    not 0 where the density is.
    """

    ages: np.ndarray  # nodes, shape (panels, NODES_PER_CELL), as are weights and hazard
    weights: np.ndarray
    hazard: np.ndarray
    cell: np.ndarray  # the grid cell each panel lies in
    top: float
    hazard_top: float
    rate_top: float


def _renewal_table(rate, grid: np.ndarray) -> _RenewalTable:
    edges = grid
    m = getattr(getattr(rate, "model", None), "m", None)
    if m is not None and grid[0] < m < grid[-1] and m not in grid:
        edges = np.insert(grid, np.searchsorted(grid, m), m)
    ages, weights = _gauss_legendre(edges, _CELL_RULE)
    cell = np.searchsorted(grid, edges[:-1], side="right") - 1
    hazard = np.asarray(rate.hazard(np.append(ages.ravel(), grid[-1])), dtype=float)
    return _RenewalTable(ages, weights, hazard[:-1].reshape(ages.shape), cell, grid[-1],
                         hazard[-1], float(rate(grid[-1])))


def _renewal_value(table: _RenewalTable, k: float) -> float:
    """2 * integral of beta * exp(-hazard - k*a), by parts, the rate held at beta(A) past A."""
    if not table.rate_top + k > 0:
        raise ValidationError(f"k = mu + lambda = {k:g} leaves a renewal tail that does not decay")
    survival = np.exp(-(table.hazard + k * table.ages))
    tail = float(np.exp(-(table.hazard_top + k * table.top))) * k / (table.rate_top + k)
    return 2.0 * (1.0 - tail - k * float(np.sum(table.weights * survival)))


def _cell_sources(table: _RenewalTable, s: np.ndarray, k: float) -> np.ndarray:
    """q_j = 2 exp(s_j) * integral of beta * exp(-s) over cell j, by parts; no exponent is > 0."""
    exponent = s[table.cell, None] - (table.hazard + k * table.ages)
    inner = np.sum(table.weights * np.exp(exponent), axis=1)
    inner = np.bincount(table.cell, weights=inner)  # the two halves of a split cell
    return 2.0 * -np.expm1(s[:-1] - s[1:]) - 2.0 * k * inner


def build_grid(rate, step: float = DEFAULT_STEP, a_max: float | None = None) -> np.ndarray:
    """Uniform age grid [0, n*step] of n >= 2 cells: up to a given a_max, or until the
    rate has all but divided.

    With a_max, n = max(2, ceil(a_max/step - 1e-9)); the simulator's age cells are this
    grid too, so this is the one place that rule lives.  Without it, n*step is the first
    cell edge at which division survival exp(-hazard) is no longer >= SURVIVAL_TOL (a
    NaN hazard ends the grid there too).  As the hazard never falls, n is found from it
    alone, read at one age at a time: doubled from 2, then bisected, in at most
    2*log2(MAX_CELLS) + 1 reads.  Raises ConfigurationError if survival is still
    >= SURVIVAL_TOL after MAX_CELLS cells (e.g. a rate that is identically zero), and
    ValidationError if a_max/step exceeds MAX_CELLS.
    """
    step = check_number(step, "step", 0, strict=True)
    if a_max is not None:
        a_max = check_number(a_max, "a_max", 0, strict=True)
        check_cell_count(a_max, step)
        return np.arange(max(2, int(math.ceil(a_max / step - 1e-9))) + 1) * step

    def survives(n: int) -> bool:
        return math.exp(-float(rate.hazard(n * step))) >= SURVIVAL_TOL

    lo, hi = 1, 2  # survival holds at lo (or lo is below the 2 cells of any grid), not at hi
    while survives(hi):
        if hi == MAX_CELLS:
            raise ConfigurationError(f"division survival is still >= {SURVIVAL_TOL:g} after "
                                     f"MAX_CELLS = {MAX_CELLS} cells of {step:g}, at age "
                                     f"{hi * step:g}: the rate does not diverge within reach")
        lo, hi = hi, min(2 * hi, MAX_CELLS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if survives(mid) else (lo, mid)
    return np.arange(hi + 1) * step


def check_cell_count(a_max: float, step: float) -> None:
    """Raise ValidationError if an age grid of this extent and step exceeds MAX_CELLS."""
    if not a_max / step <= MAX_CELLS:
        raise ValidationError(f"a_max / step = {a_max / step:.3g} age cells > {MAX_CELLS}")


def solve_lambda(rate, mu: float, step: float = DEFAULT_STEP) -> float:
    """Root of the renewal equation on build_grid(rate, step): the asymptotic growth rate
    lam = k* - mu.

    Requires a finite mu >= 0, a rate that diverges within MAX_CELLS cells and
    lam <= LAMBDA_MAX.
    """
    grid = build_grid(rate, step)
    mu = check_number(mu, "death rate mu", 0)
    return _root(_renewal_table(rate, grid), mu) - mu


def _root(table: _RenewalTable, mu: float) -> float:
    """k* = mu + lam on a table that equilibrium reuses; mu sets only the bracket's cap."""

    def g(k):
        value = _renewal_value(table, k) - 1.0
        if not math.isfinite(value):
            raise ConfigurationError(f"renewal function is {value} at k = mu + lambda = {k}")
        return value

    # g(0) = 1 > 0: at k = 0 every cell divides, within the grid or past its top
    return falsi_root(g, g(0.0), mu)


def falsi_root(g, g0: float, mu: float) -> float:
    """Root k* of a decreasing g(k), given g0 = g(0) > 0, bracketed by doubling up to k = mu +
    LAMBDA_MAX; g is never called at 0.

    Regula falsi with Anderson-Bjorck weighting (BIT 13, 1973) on [a, b] = [0, hi], b the
    newest point: when a new point lands on b's side, g_a is scaled down so that end moves
    too.  It stops once |b - a| <= 1e-14 + 8.9e-16*|b|, brentq's rule at xtol = 1e-14.
    """
    hi, cap = 0.5, mu + LAMBDA_MAX
    while (g_hi := g(hi)) > 0.0:
        if hi == cap:
            raise ConfigurationError(f"growth rate exceeds LAMBDA_MAX = {LAMBDA_MAX}: "
                                     f"renewal function > 0 at k = {cap:g}")
        hi = min(2.0 * hi + 1.0, cap)
    a, g_a, b, g_b = 0.0, g0, hi, g_hi
    for _ in range(MAX_ROOT_STEPS):
        k = b - g_b * (b - a) / (g_b - g_a)
        g_k = g(k)
        if g_k == 0.0:
            return k
        if (g_k > 0.0) == (g_b > 0.0):
            scale = 1.0 - g_k / g_b
            g_a *= scale if scale > 0.0 else 0.5
        else:
            a, g_a = b, g_b
        b, g_b = k, g_k
        if abs(b - a) <= 1e-14 + 8.9e-16 * abs(b):
            return b
    raise ConfigurationError(f"growth rate not bracketed to tolerance in {MAX_ROOT_STEPS} steps")


def renewal_residual(rate, mu: float, lam: float, step: float = DEFAULT_STEP) -> float:
    """g(lam) on build_grid(rate, step) for a given growth rate; zero at the solved eigenvalue."""
    k = check_number(mu, "death rate mu", 0) + check_number(lam, "growth rate lambda")
    return _renewal_value(_renewal_table(rate, build_grid(rate, step)), k) - 1.0


def equilibrium(rate, mu: float, step: float = DEFAULT_STEP) -> EigenPair:
    """Growth rate, equilibrium age profile and adjoint weight on build_grid(rate, step).

    p_hat(a) is proportional to exp(-integral_0^a (beta + mu + lam)) with unit
    integral.  phi solves the adjoint problem backward from the top of the
    grid and is rescaled so integral(p_hat * phi) = 1; for a constant rate it
    is identically 1.
    """
    grid = build_grid(rate, step)
    mu = check_number(mu, "death rate mu", 0)
    table = _renewal_table(rate, grid)
    k = _root(table, mu)
    s = np.asarray(rate.hazard(grid), dtype=float) + k * grid
    u = np.exp(-s)
    p_hat = u / np.trapezoid(u, grid)
    phi = _adjoint(s, _cell_sources(table, s, k))
    phi /= np.trapezoid(phi * p_hat, grid)
    return EigenPair(lam=k - mu, grid=grid, p_hat=p_hat, phi=phi)


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

    Constant along exact solutions of the renewal dynamics.  Along the
    simulator's lockstep scheme it drifts as exp((lam_d - lam)*t), where lam_d
    is the growth rate of the scheme's own newborn step, so its drift measures
    that growth-rate bias.
    """
    ages, values = np.asarray(profile.ages), np.asarray(profile.values)
    phi_ages, phi_values = np.asarray(adjoint.ages), np.asarray(adjoint.values)
    if ages.shape != values.shape or phi_ages.shape != phi_values.shape:
        raise ValidationError("each table needs matching ages and values")
    if ages.shape != phi_ages.shape or not np.allclose(ages, phi_ages, rtol=0, atol=1e-9):
        raise ValidationError("profile and adjoint must share the same age grid")
    lam, t = check_number(lam, "growth rate lambda"), check_number(t, "time t")
    try:
        decay = math.exp(-lam * t)
    except OverflowError:
        raise ValidationError(f"exp(-lam*t) overflows at lam = {lam}, t = {t}") from None
    return float(decay * np.trapezoid(values * phi_values, ages))
