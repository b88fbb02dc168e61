"""Nonlinear least-squares fitting of reweighted IMT histograms.

The objective is the unweighted sum of squared differences between the model
curve `reweighted_density(model, lam, a_i)` and the bin heights at the bin
midpoints.  The landscape is mildly nonconvex (the minimum age and width
trade off against the rate plateau), so one optimizer runs from each of a
set of seeded starts and the lowest-cost answer wins: `_least_squares`, a
projected trust-region Levenberg-Marquardt method in numpy, given each
family's analytic Jacobian by `imt_models`.  Runs are deterministic given
the seed, which defaults to the MITOCLOCK_SEED environment variable, then 0.
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
    Model,
    _density_and_jacobian,
    reweighted_density,
    reweighted_mass,
)
from .io import r_squared

SEED_ENV_VAR = "MITOCLOCK_SEED"
N_STARTS = 8  # least-squares starts per fit: the default guess and seeded jitters of it
MASS_TOLERANCE = 0.12  # largest |fitted mass - 1| mass_check passes

# bounds keep every candidate evaluable
_LOWER = {"beta0": 1e-6, "m": 0.0, "sigma": 1e-3, "mu": 0.0}


@dataclass(frozen=True)
class FitResult:
    """Fitted model with goodness-of-fit and the unit-mass diagnostic.

    `n_evaluations` counts the residual-and-Jacobian evaluations over all
    starts, one per trial point; `fit_imt`'s `max_iter` caps those of each
    start.
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


def _trust_region_step(jac, grad, radius):
    """Step q minimizing the linear model 1/2 |r + jac q|^2 with |q| <= radius, grad = jac.T r.

    q = -(jac.T jac + alpha I)^-1 grad.  alpha = 0 if jac.T jac is well conditioned and
    that step fits in the region; otherwise Newton steps on 1/|q(alpha)| = 1/radius, from
    a lower bound on the root, find |q| within 10 % of the radius (Moré 1978).
    """
    w, v = np.linalg.eigh(jac.T @ jac)
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
    gradient is below tol, when a step with ratio > 0.25 lowers the cost by less
    than tol times it, or when a step is shorter than tol * (tol + |x|).
    """
    x = np.maximum(np.asarray(x0, dtype=float), lower)
    r, jac = residual_and_jacobian(x)
    nfev = 1
    cost = 0.5 * float(r @ r)
    scale = np.sqrt((jac * jac).sum(axis=0))
    scale[scale == 0.0] = 1.0
    radius = 0.1 * _norm(scale * x) or 0.1
    while nfev < max_nfev:
        grad = r @ jac
        free = (x > lower) | (grad <= 0.0)
        if np.abs(np.where(free, grad, 0.0)).max() < tol:
            return _Solution(x, r, nfev, True)
        step = np.zeros_like(x)
        step[free] = _trust_region_step(jac[:, free] / scale[free], grad[free] / scale[free],
                                        radius) / scale[free]
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
        converged = ((reduction < tol * cost and ratio > 0.25)
                     or _norm(step) < tol * (tol + _norm(x)))
        if reduction > 0.0:
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            scale = np.maximum(scale, np.sqrt((jac * jac).sum(axis=0)))
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

    Runs bounded least squares from `init` (or a default guess from the
    histogram's moments) and `N_STARTS - 1` seeded jitters of it, and returns
    the lowest-cost answer.  `max_iter` caps the residual-and-Jacobian
    evaluations of each start; a start that reaches it has not converged.
    The seed, or MITOCLOCK_SEED without one, must be a nonnegative integer.
    Raises FitConvergenceError (carrying the best result found) if no start
    converges, and emits a BoundaryWarning when a fitted parameter is pinned
    at a bound.
    """
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if h.kind is not Kind.REWEIGHTED:
        raise StateError("fit_imt expects a reweighted histogram; call reweight() first")
    if not h.heights.any():
        raise DegenerateInputError("histogram has no mass; there is nothing to fit")
    seed = _seed(seed)
    lam = h.lambda_used
    names = PARAMS[family]
    mids = h.midpoints
    heights = h.heights

    def residual_and_jacobian(theta):
        density, jac = _density_and_jacobian(family, theta, lam, mids)
        return density - heights, jac

    x0 = np.asarray(init, dtype=float) if init is not None else _default_init(family, h)
    if x0.size != len(names):
        raise ValidationError(f"{family} takes {len(names)} parameters {names}, got {x0.size}")
    lower = np.array([_LOWER[n] for n in names])
    x0 = np.maximum(x0, lower)

    rng = np.random.default_rng(seed)
    fits = [_least_squares(residual_and_jacobian, theta0, lower, max_iter, 1e-15)
            for theta0 in _spread_starts(x0, names, rng)]
    best = min(fits, key=lambda fit: float(fit.residuals @ fit.residuals))

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
            f"no least-squares start converged within {max_iter} evaluations", best=result
        )
    pinned = [
        name
        for name, value, lo in zip(names, best.x, lower)
        if value <= lo + 1e-8 * (1.0 + lo)
    ]
    if pinned:
        warnings.warn(
            f"fitted parameters pinned at their lower bound: {', '.join(pinned)}",
            BoundaryWarning,
            stacklevel=2,
        )
    return result

