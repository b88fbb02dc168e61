"""Nonlinear least-squares fitting of reweighted IMT histograms.

The objective is the unweighted sum of squared differences between the model
curve `reweighted_density(model, lam, a_i)` and the bin heights at the bin
midpoints.  The landscape is mildly nonconvex (the minimum age and width
trade off against the rate plateau), so one optimizer runs from a set of
seeded starts in turn, until two of them agree on the lowest cost found, and
the lowest-cost answer wins: `_least_squares`, a projected trust-region
Levenberg-Marquardt method in numpy, given each family's analytic Jacobian by
`imt_models`.  Each solve ends once an accepted step lowers the cost by less
than COST_TOL = 1e-12 of it, rather than waiting for the trust region to
shrink.  A family whose rate is 0 up to m has a kink in its cost
wherever m crosses a bin midpoint, so its best answer is solved again from
the smooth pieces on either side.  Runs are deterministic given the seed,
which defaults to the MITOCLOCK_SEED environment variable, then 0.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryWarning,
    DegenerateInputError,
    FitConvergenceError,
    StateError,
    ValidationError,
)
from .histogram import Histogram, Kind
from .imt_models import (
    FAMILIES,
    PARAMS,
    _ZERO_BELOW_M,
    Model,
    _density,
    reweighted_density,
    reweighted_mass,
)
from .io import r_squared

SEED_ENV_VAR = "MITOCLOCK_SEED"
N_STARTS = 8  # most least-squares starts per fit: the default guess and seeded jitters of it
MASS_TOLERANCE = 0.12  # largest |fitted mass - 1| mass_check passes
COST_TOL = 1e-12  # an accepted step that lowers the cost by less than this fraction ends a solve

# bounds keep every candidate evaluable
_LOWER = {"beta0": 1e-6, "m": 0.0, "sigma": 1e-3, "mu": 0.0}


@dataclass(frozen=True)
class FitResult:
    """Fitted model with goodness-of-fit and the unit-mass diagnostic.

    `n_evaluations` counts the residual-and-Jacobian evaluations, one per
    trial point, of every least-squares solve that ran: the starts and any
    re-solves across a kink; `fit_imt`'s `max_iter` caps those of each solve.
    """

    model: Model
    r_squared: float
    integral_i_tilde: float
    lambda_used: float
    residuals: np.ndarray
    n_evaluations: int

    def summary_line(self) -> str:
        p = self.model
        beta0 = "-" if p.beta0 is None else f"{p.beta0:.5g}"
        mu = "-" if p.mu is None else f"{p.mu:.5g}"
        return (
            f"{p.family} beta0={beta0} m={p.m:.5g} sigma={p.sigma:.5g} mu={mu} "
            f"R2={self.r_squared:.5f} integral={self.integral_i_tilde:.4f}"
        )

    def to_json(self) -> str:
        payload = {
            "model": self.model.param_dict(),
            "r_squared": self.r_squared,
            "integral_i_tilde": self.integral_i_tilde,
            "lambda_used": self.lambda_used,
            "residuals": [float(r) for r in self.residuals],
            "n_evaluations": self.n_evaluations,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


@dataclass(frozen=True)
class MassCheck:
    """Outcome of the a-posteriori unit-mass diagnostic."""

    ok: bool
    deviation: float


def mass_check(result: FitResult) -> MassCheck:
    """Pass iff the fitted curve's total mass is within MASS_TOLERANCE of 1."""
    deviation = abs(result.integral_i_tilde - 1.0)
    return MassCheck(ok=deviation <= MASS_TOLERANCE, deviation=deviation)


def _model_from_theta(family: str, theta) -> Model:
    return Model(family=family, **dict(zip(PARAMS[family], map(float, theta))))


def _trust_region_step(eig, grad, radius):
    """Step q minimizing the linear model 1/2 |r + jac q|^2 with |q| <= radius, grad = jac.T r,
    given eig = (w, v), the eigendecomposition of jac.T jac.

    q = -(jac.T jac + alpha I)^-1 grad.  alpha = 0 if jac.T jac is well conditioned and
    that step fits in the region; otherwise Newton steps on 1/|q(alpha)| = 1/radius, from
    a lower bound on the root, find |q| within 10 % of the radius (Moré 1978).
    """
    w, v = eig
    c = grad @ v
    alpha = 0.0
    if w[0] <= 1e-15 * w[-1] or _norm(c / w) > radius:
        w = np.maximum(w, 0.0)
        alpha = max(_norm(c) / radius - w[-1], 1e-15 * w[-1], 1e-300)
        for _ in range(10):
            d = c / (w + alpha)
            norm = _norm(d)
            if abs(norm - radius) <= 0.1 * radius:
                break
            alpha += (norm / radius - 1.0) * norm * norm / float(d * d @ (1.0 / (w + alpha)))
    return -(v @ (c / (w + alpha)))


def _norm(v) -> float:
    return math.sqrt(float(v @ v))


class _Solution(NamedTuple):
    x: np.ndarray
    residuals: np.ndarray  # r(x)
    n_evaluations: int
    converged: bool


def _least_squares(residual_and_jacobian, x0, lower, max_nfev: int, tol: float) -> _Solution:
    """Minimize 1/2 |r(x)|^2 subject to x >= lower by a projected trust-region
    Levenberg-Marquardt method.

    residual_and_jacobian(x) gives r and its Jacobian at each trial point, and
    max_nfev caps those evaluations.  The region bounds |D p|, D the running
    maximum of each Jacobian column's norm (Moré 1978), from 0.1 |D x0|.  A variable
    at its bound whose gradient points outward is held there, and every step is
    clipped to the bounds, so a pinned variable lands on its bound exactly
    (Kanzow, Yamashita & Fukushima 2004).  It converges when the free variables'
    gradient is below tol, when a step is shorter than tol * (tol + |x|), or when a
    step with ratio > 0.25 lowers the cost by less than COST_TOL times it: past that
    the cost has stopped moving, and a noisy fit would spend the rest of its
    evaluations on shrinking the region (MINPACK's relative cost test, Moré 1978).
    A rejected step leaves x where it was, so the eigendecomposition of the scaled
    jac.T jac is reused until a step is accepted.
    """
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    r, jac = residual_and_jacobian(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    scale = np.sqrt((jac * jac).sum(axis=0))
    scale[scale == 0.0] = 1.0
    radius = 0.1 * _norm(scale * x) or 0.1
    eig = None  # of the scaled jac.T jac of the free variables, kept while x does not move
    while nfev < max_nfev:
        grad = r @ jac
        free = (x > lower) | (grad <= 0.0)
        if np.abs(np.where(free, grad, 0.0)).max() < tol:
            return _Solution(x, r, nfev, True)
        if eig is None:
            scaled = jac[:, free] / scale[free]
            eig = np.linalg.eigh(scaled.T @ scaled)
        step = np.zeros_like(x)
        step[free] = _trust_region_step(eig, grad[free] / scale[free], radius) / scale[free]
        x_new = np.maximum(x + step, lower)
        step = x_new - x
        r_new, jac_new = residual_and_jacobian(x_new)
        nfev += 1
        cost_new = 0.5 * float(r_new @ r_new)
        reduction = cost - cost_new if math.isfinite(cost_new) else -math.inf
        model_step = jac @ step
        predicted = -float(grad @ step + 0.5 * model_step @ model_step)
        ratio = reduction / predicted if predicted > 0.0 else -1.0
        if ratio < 0.25:
            radius = 0.25 * _norm(scale * step)
        elif ratio > 0.75:
            radius = max(radius, 2.0 * _norm(scale * step))
        converged = ((reduction < COST_TOL * cost and ratio > 0.25)
                     or _norm(step) < tol * (tol + _norm(x)))
        if reduction > 0.0:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            scale = np.maximum(scale, np.sqrt((jac * jac).sum(axis=0)))
            eig = None
        if converged:
            return _Solution(x, r, nfev, True)
    return _Solution(x, r, nfev, False)


def _default_init(family: str, h: Histogram) -> np.ndarray:
    mids = h.midpoints
    heights = h.heights
    peak = heights.max()
    above = mids[heights > 0.05 * peak]
    # one bin early: the gamma densities have a kink at m, and a start past it can stall
    m0 = max(float(above[0]) - h.bin_width, 0.0) if above.size else float(mids[0])
    mean = float((mids * heights).sum() * h.bin_width)
    var = float((((mids - mean) ** 2) * heights).sum() * h.bin_width)
    sigma0 = max(0.5 * math.sqrt(max(var, 0.0)), 2.0 * _LOWER["sigma"])
    beta0 = max(0.5 * peak, 1e-3)
    init = {"m": m0, "sigma": sigma0, "beta0": beta0, "mu": 1e-3}
    return np.array([init[name] for name in PARAMS[family]])


def _spread_starts(x0: np.ndarray, names, rng) -> list[np.ndarray]:
    starts = [x0]
    for _ in range(N_STARTS - 1):
        jitter = np.exp(rng.uniform(-0.7, 0.7, size=x0.size))
        theta = np.maximum(x0 * jitter, [_LOWER[n] for n in names])
        starts.append(theta)
    return starts


def _ssr(fit: _Solution) -> float:
    return float(fit.residuals @ fit.residuals)


def _pinned(names, x, lower) -> list[str]:
    """The names of the parameters of x at their lower bound."""
    return [name for name, value, lo in zip(names, x, lower) if value <= lo + 1e-8 * (1.0 + lo)]


def _seed(seed) -> int:
    """seed, or else MITOCLOCK_SEED, or else 0, as an int; ValidationError naming its source
    unless it is a nonnegative integer."""
    name = "seed"
    if seed is None:
        name, seed = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
        seed = int(seed) if seed.isdecimal() else seed
    if isinstance(seed, numbers.Integral) and seed >= 0:
        return int(seed)
    raise ValidationError(f"{name} must be a nonnegative integer, got {seed!r}")


def fit_imt(
    h: Histogram,
    family: str,
    init=None,
    seed: int | None = None,
    max_iter: int = 4000,
) -> FitResult:
    """Fit a reweighted histogram with the chosen family's reweighted density.

    Runs bounded least squares from `init`, the family's parameters in `PARAMS`
    order (or a default guess from the histogram's moments), then from seeded
    jitters of it in turn, and stops once two starts agree on the lowest cost
    found so far, to within 1e-10 * |heights|^2, or after `N_STARTS` starts.  Only a start that
    converged with no parameter pinned at a bound counts toward agreement.
    For a family whose rate is 0 up to m, two more solves start from the best
    answer with m moved just below the bin midpoint below it and just above
    the midpoint above it.  Returns the lowest-cost answer of all solves.
    `max_iter`, a positive integer, caps the residual-and-Jacobian evaluations
    of each solve; a solve that reaches it has not converged.  The seed, or
    MITOCLOCK_SEED without one, must be a nonnegative integer.  Raises FitConvergenceError
    (carrying the best result found) if no solve converges, and emits a
    BoundaryWarning when a fitted parameter is pinned at a bound.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if h.kind is not Kind.REWEIGHTED:
        raise StateError("fit_imt expects a reweighted histogram; call reweight() first")
    if not h.heights.any():
        raise DegenerateInputError("histogram has no mass; there is nothing to fit")
    seed = _seed(seed)
    if not (isinstance(max_iter, numbers.Integral) and max_iter > 0):
        raise ValidationError(f"max_iter must be a positive integer, got {max_iter!r}")
    lam = h.lambda_used
    names = PARAMS[family]
    mids = h.midpoints
    heights = h.heights

    def residual_and_jacobian(theta):
        density, partials = _density(family, theta, mids, lam, partials=True)
        return 2.0 * density - heights, 2.0 * partials.T

    if init is None:
        x0 = _default_init(family, h)
    else:
        try:
            x0 = np.asarray(init, dtype=float).reshape(len(names))
        except (TypeError, ValueError):
            raise ValidationError(f"init: {family} takes {len(names)} parameters {names}, "
                                  f"got {init!r}") from None
    lower = np.array([_LOWER[n] for n in names])
    x0 = np.maximum(x0, lower)

    rng = np.random.default_rng(seed)
    agree_tol = 1e-10 * float(heights @ heights)
    fits, settled = [], []  # settled: the SSRs of converged starts with no parameter pinned
    for theta0 in _spread_starts(x0, names, rng):
        fit = _least_squares(residual_and_jacobian, theta0, lower, max_iter, 1e-15)
        fits.append(fit)
        if fit.converged and not _pinned(names, fit.x, lower):
            settled.append(_ssr(fit))
        lowest = min(map(_ssr, fits))
        if sum(ssr <= lowest + agree_tol for ssr in settled) >= 2:
            break
    if family in _ZERO_BELOW_M:
        # re-solve in the smooth pieces on either side of the best one: from m just below
        # the midpoint below it and just above the midpoint above it, where there is one
        best = min(fits, key=_ssr)
        k = names.index("m")
        j = int(np.searchsorted(mids, best.x[k], side="right"))
        shift = 1e-6 * h.bin_width
        for m in np.concatenate((mids[:j][-1:] - shift, mids[j:][:1] + shift)):
            theta0 = best.x.copy()
            theta0[k] = m
            fits.append(_least_squares(residual_and_jacobian, theta0, lower, max_iter, 1e-15))
    best = min(fits, key=_ssr)

    model = _model_from_theta(family, best.x)
    residuals = heights - reweighted_density(model, lam, mids)

    result = FitResult(
        model=model,
        r_squared=r_squared(heights, residuals),
        integral_i_tilde=reweighted_mass(model, lam),
        lambda_used=lam,
        residuals=residuals,
        n_evaluations=sum(fit.n_evaluations for fit in fits),
    )
    if not any(fit.converged for fit in fits):
        raise FitConvergenceError(
            f"no least-squares solve converged within {max_iter} evaluations", best=result
        )
    pinned = _pinned(names, best.x, lower)
    if pinned:
        warnings.warn(
            f"fitted parameters pinned at their lower bound: {', '.join(pinned)}",
            BoundaryWarning,
            stacklevel=2,
        )
    return result

