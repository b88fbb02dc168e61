"""Verification suites: numerical identities a fitted model must satisfy.

Each suite takes a closed-form model and returns its checks.  `mitoclock
verify --suite NAME` prints them; the acceptance tests run the same suites
and hold the returned values to their own tolerances.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import simulator, spectral
from .imt_models import ClosedFormRate

GAP_FLOOR = 1e-12  # imt-convergence: L1 gaps at or below this are rounding noise
WINDOW_SURVIVALS = (1e-2, 1e-4, 1e-6)  # imt-convergence: survival at each window's end


class Check(NamedTuple):
    """One verified identity: what was checked, whether it held, the measured value."""

    name: str
    ok: bool
    value: object


def imt_windows(model) -> tuple[float, list[float]]:
    """Cohort start t0 and the observation windows of the imt-convergence suite.

    t0 = max(m - 4 sigma, 0).  The windows are t0 + a_q, where a_q is the age at which
    division survival exp(-H) falls to q = WINDOW_SURVIVALS, read by interpolation on the
    hazard over spectral.build_grid(rate): each model is judged on its own time scale,
    not on sigma's, which a slow plateau after a narrow rise outlasts by far.
    """
    t0 = max(model.m - 4.0 * model.sigma, 0.0)
    rate = ClosedFormRate(model)
    grid = spectral.build_grid(rate)
    ages = np.interp(-np.log(WINDOW_SURVIVALS), rate.hazard(grid), grid)
    return t0, [t0 + a for a in ages.tolist()]


def _verify_eigen(model):
    rate, mu = ClosedFormRate(model), model.death_rate
    pair = spectral.equilibrium(rate, mu)
    grid = pair.grid
    residual = abs(spectral.renewal_residual(rate, mu, pair.lam, grid))
    delta = 0.01
    shifted = spectral.solve_lambda(rate, mu + delta, grid=grid)
    shift_err = abs(shifted - (pair.lam - delta))
    mass_err = abs(float(np.trapezoid(pair.p_hat, grid)) - 1.0)
    adjoint_err = abs(float(np.trapezoid(pair.p_hat * pair.phi, grid)) - 1.0)
    births = 2.0 * float(np.trapezoid(np.asarray(rate(grid)) * pair.p_hat, grid))
    boundary = abs(pair.p_hat[0] - births) / pair.p_hat[0]
    return [
        Check("renewal residual < 1e-10", residual < 1e-10, residual),
        Check("mu-shift identity < 1e-10", shift_err < 1e-10, shift_err),
        Check("p_hat mass within 1e-8", mass_err < 1e-8, mass_err),
        Check("adjoint normalization within 1e-6", adjoint_err < 1e-6, adjoint_err),
        Check("boundary identity (trapezoid) within 1e-4", boundary < 1e-4, boundary),
    ]


def _verify_gre(model):
    rate, mu = ClosedFormRate(model), model.death_rate
    pair = spectral.equilibrium(rate, mu, step=0.05)
    config = simulator.SimConfig(rate=rate, mu=mu, f=0.0, t_end=100.0, dt=0.05)
    times = [0.0, 20.0, 40.0, 60.0, 80.0, 100.0]
    out = simulator.simulate(config, snapshot_times=times)
    centers = out.final_profile.ages
    adjoint = spectral.AgeProfile(centers, np.interp(centers, pair.grid, pair.phi))
    values = [
        spectral.gre_functional(spectral.AgeProfile(centers, snap), adjoint, pair.lam, t)
        for t, snap in out.snapshots
    ]
    drift = max(abs(v / values[0] - 1.0) for v in values)
    lowest = min(float(snap.min()) for _, snap in out.snapshots)
    # the scheme's own growth rate: the drift is exp((lambda_d - lambda) t) - 1
    gap = abs(simulator.scheme_growth_rate(config) - pair.lam)
    bound = config.dt**2 * (1e-5 + 1e-2 * mu)
    return [
        Check("entropy-weighted mass drift < 0.5% over 100 h", drift < 0.005, drift),
        Check("age profile nonnegative at every snapshot", lowest >= 0, lowest),
        Check(f"|lambda_d - lambda| <= dt^2 (1e-5 + 1e-2 mu) = {bound:.3g}", gap <= bound, gap),
    ]


def _verify_imt_convergence(model):
    rate, mu = ClosedFormRate(model), model.death_rate
    t0, windows = imt_windows(model)
    gaps = [simulator.imt_experiment(rate, mu, t0, w)[1] for w in windows]
    # a later gap may match or exceed an earlier one only when both are rounding noise
    decreasing = all(b < a or max(a, b) <= GAP_FLOOR for a, b in zip(gaps, gaps[1:]))
    return [
        Check(f"L1 gap at T={windows[-1]:.1f} < 0.02", gaps[-1] < 0.02, gaps[-1]),
        Check("L1 gap decreases with T", decreasing, tuple(gaps)),
    ]


def predicted_fraction(config, t0: float) -> float:
    """The labelled fraction F the scheme must give at t0, from its own arrival series.

    With Q empty at t = 0 and K = t0/dt steps, F = S / (S + D), where
    S = dt * sum_{k<K} quiescence_influx_k (1 - dt*mu_q)^(K-1-k) is the quiescent pool the
    arrivals leave at t0 and D = dt * sum_{k<K} births_k the mass that entered P.  Both
    series record arriving mass, so the newborns' arrival factors enter S and D alike.
    """
    return _predicted(simulator.simulate(config), config, t0)


def _predicted(out, config, t0: float) -> float:
    k = int(round(t0 / config.dt))
    decay = (1.0 - config.dt * config.quiescent_death_rate) ** np.arange(k - 1, -1, -1)
    s = config.dt * float(out.quiescence_influx[:k] @ decay)
    total = config.dt * float(out.births[:k].sum())
    return s / (s + total)


def _verify_fraction(model):
    rate, mu = ClosedFormRate(model), model.death_rate
    # F == f without death; with death the quiescent pool decays, so F must
    # match predicted_fraction instead, and the value shown stays |F - f|
    cases = [(0.0, f) for f in (0.0, 0.3, 0.6, 0.84)]
    if mu > 0:
        cases += [(mu, f) for f in (0.3, 0.6, 0.84)]
    checks = []
    t0 = 20.0
    for death, f in cases:
        config = simulator.SimConfig(rate=rate, mu=death, f=f, t_end=t0, dt=0.05)
        out = simulator.simulate(config)  # one run gives F and its prediction
        fraction = simulator._labelled_fraction(out, config.dt, t0)
        err = abs(fraction - f)
        if death == 0.0:
            checks.append(Check(f"|F - f| < 1e-4 at f={f:g}, mu=0", err < 1e-4, err))
        else:
            gap = abs(fraction - _predicted(out, config, t0))
            name = f"|F - F_pred| < 1e-12 at f={f:g}, mu={death:g}; shown: |F - f|"
            checks.append(Check(name, gap < 1e-12, err))
    return checks


# verify suite name -> suite(model) returning its list of Checks
SUITES = {
    "eigen": _verify_eigen,
    "gre": _verify_gre,
    "imt-convergence": _verify_imt_convergence,
    "fraction": _verify_fraction,
}
