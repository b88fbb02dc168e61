import numpy as np
import pytest

import mitoclock as mc
from mitoclock import checks, simulator

MODEL = mc.Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)


@pytest.mark.parametrize(
    "gaps, ok",
    [
        ((3e-2, 2e-3, 1e-4), True),
        ((3e-13, 4e-13, 2e-13), True),
        ((1e-12, 1e-12, 1e-12), True),
        ((1e-11, 2e-11, 5e-12), False),
        ((2e-12, 2e-12, 1e-13), False),
        ((5e-3, 6e-3, 1e-3), False),
    ],
    ids=["decreasing", "noise", "at-floor", "rising-above-floor", "tie-above-floor", "rising"],
)
def test_gap_trend_allows_ties_only_below_the_floor(monkeypatch, gaps, ok):
    remaining = iter(gaps)
    monkeypatch.setattr(
        checks.simulator, "imt_experiment", lambda rate, mu, t0, big_t: (None, next(remaining))
    )
    _, decreasing = checks.SUITES["imt-convergence"](MODEL)
    assert decreasing.ok is ok
    assert decreasing.value == gaps


def test_imt_windows_end_where_division_survival_falls():
    # t0 + a_q, with exp(-H(a_q)) = q: each window's end is read off the model's own hazard
    t0, windows = checks.imt_windows(MODEL)
    assert t0 == MODEL.m - 4.0 * MODEL.sigma
    survival = np.exp(-mc.cumulative_hazard(MODEL, np.array(windows) - t0))
    np.testing.assert_allclose(survival, checks.WINDOW_SURVIVALS, rtol=1e-3)


def test_imt_convergence_judges_a_slow_plateau_on_its_own_scale():
    # erfc with a narrow rise (sigma 0.1) to a slow plateau (0.1/h): its division ages
    # reach ~150 h, far past m + 15 sigma = 11.5 h
    model = mc.Model(family="erfc", beta0=0.05, m=10.0, sigma=0.1)
    _, windows = checks.imt_windows(model)
    assert windows[-1] > 150.0
    last, decreasing = checks.SUITES["imt-convergence"](model)
    assert last.ok and decreasing.ok
    assert decreasing.value[-1] < 1e-6


def test_gre_passes_under_heavy_death():
    # the reference erfc-mu shape at mu = 0.5, mu*dt = 0.025: the scheme's growth rate
    # must match lambda to O(dt^2), or the weighted mass drifts by percents over 100 h
    model = mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.5)
    drift, nonnegative, discrete = checks.SUITES["gre"](model)
    assert drift.ok and nonnegative.ok and discrete.ok
    assert drift.value < 1e-3


REFERENCE_SHAPE = dict(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141)


@pytest.mark.parametrize("mu, gap", [(0.0, 2.6e-9), (0.00333, 8.6e-9), (0.05, 1.0e-7),
                                     (0.5, 1.9e-6)])
def test_discrete_lambda_is_second_order_close(mu, gap):
    # lambda_d - lambda on the reference shape at dt 0.05; with the newborns' arrival
    # factor dropped from the kernel the gap is first order, ~1e-4 at mu 0.5
    _, _, discrete = checks.SUITES["gre"](mc.Model(mu=mu, **REFERENCE_SHAPE))
    assert discrete.ok
    assert discrete.value == pytest.approx(gap, rel=0.05)


def test_discrete_lambda_is_the_growth_rate_simulate_shows():
    # lambda_d comes from the kernel simulate solves with: the simulated ln N slope over
    # one cycle late in the run matches it to 1e-9, while the arrival factor alone
    # (exp(-mu*dt/2) on every newborn) moves lambda_d by ~mu*dt/(2*cycle) = 5e-4 here
    model = mc.Model(mu=0.5, **REFERENCE_SHAPE)
    rate = mc.ClosedFormRate(model)
    config = mc.SimConfig(rate=rate, mu=0.5, f=0.0, t_end=400.0, dt=0.05)
    out = mc.simulate(config)
    late = out.times >= 350.0
    slope = np.log(out.N[-1] / out.N[late][0]) / (out.times[-1] - out.times[late][0])
    lam_d = simulator.scheme_growth_rate(config)
    assert abs(slope - lam_d) < 1e-9
    assert abs(lam_d - mc.solve_lambda(rate, 0.5)) > 1e-6


def test_fraction_suite_runs_each_case_once(monkeypatch):
    # 4 death-free cases and 3 with death: one simulate run gives F and its prediction
    calls = []
    run = simulator.simulate
    monkeypatch.setattr(simulator, "simulate", lambda *a, **k: calls.append(1) or run(*a, **k))
    results = checks.SUITES["fraction"](mc.Model(mu=0.00333, **REFERENCE_SHAPE))
    assert len(results) == 7 and all(check.ok for check in results)
    assert len(calls) == 7
