"""Nonlinear least-squares fitting of reweighted IMT histograms.

The objective is the unweighted sum of squared differences between the model
curve `reweighted_density(model, lam, a_i)` and the bin heights at the bin
midpoints.  The landscape is mildly nonconvex (the minimum age and width
trade off against the rate plateau), so one optimizer, bounded trust-region
reflective least squares with a finite-difference Jacobian, runs from each
of a set of seeded starts and the lowest-cost answer wins.  Runs are
deterministic given the seed, which defaults to the MITOCLOCK_SEED
environment variable, then 0.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryWarning,
    DegenerateInputError,
    FitConvergenceError,
    StateError,
    ValidationError,
)
from .histogram import Histogram, Kind
from .imt_models import FAMILIES, PARAMS, Model, reweighted_density, reweighted_mass
from .io import r_squared

SEED_ENV_VAR = "MITOCLOCK_SEED"
N_STARTS = 8  # least-squares starts per fit: the default guess and seeded jitters of it
MASS_TOLERANCE = 0.12  # largest |fitted mass - 1| mass_check passes

# bounds keep every candidate evaluable
_LOWER = {"beta0": 1e-6, "m": 0.0, "sigma": 1e-3, "mu": 0.0}


@dataclass(frozen=True)
class FitResult:
    """Fitted model with goodness-of-fit and the unit-mass diagnostic.

    `n_evaluations` counts every residual evaluation over all starts,
    finite-difference Jacobian columns included; `fit_imt`'s `max_iter`
    caps the evaluations of each start, Jacobian columns excluded.
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
    the lowest-cost answer.  `max_iter` caps the residual evaluations of each
    start, Jacobian columns excluded.  Raises FitConvergenceError (carrying
    the best result found) if no start converges, and emits a BoundaryWarning
    when a fitted parameter is pinned at a bound.
    """
    from scipy import optimize
    if family not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if h.kind is not Kind.REWEIGHTED:
        raise StateError("fit_imt expects a reweighted histogram; call reweight() first")
    if not h.heights.any():
        raise DegenerateInputError("histogram has no mass; there is nothing to fit")
    if seed is None:
        seed = int(os.environ.get(SEED_ENV_VAR, "0"))
    lam = h.lambda_used
    names = PARAMS[family]
    mids = h.midpoints
    heights = h.heights
    n_eval = 0

    def residual(theta):
        nonlocal n_eval
        n_eval += 1
        return reweighted_density(_model_from_theta(family, theta), lam, mids) - heights

    x0 = np.asarray(init, dtype=float) if init is not None else _default_init(family, h)
    if x0.size != len(names):
        raise ValidationError(f"{family} takes {len(names)} parameters {names}, got {x0.size}")
    lower = np.array([_LOWER[n] for n in names])
    x0 = np.maximum(x0, lower)

    rng = np.random.default_rng(seed)
    fits = [
        optimize.least_squares(residual, theta0, bounds=(lower, np.inf), xtol=1e-15,
                               ftol=1e-15, gtol=1e-15, max_nfev=max_iter)
        for theta0 in _spread_starts(x0, names, rng)
    ]
    best = min(fits, key=lambda res: res.cost)

    model = _model_from_theta(family, best.x)
    residuals = -best.fun

    result = FitResult(
        model=model,
        r_squared=r_squared(heights, residuals),
        integral_i_tilde=reweighted_mass(model, lam),
        lambda_used=lam,
        residuals=residuals,
        n_evaluations=n_eval,
    )
    if not any(res.success for res in fits):
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

