import pytest

import mitoclock as mc
from mitoclock import checks

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


def test_gre_passes_under_heavy_death():
    # the reference erfc-mu shape at mu = 0.5, mu*dt = 0.025: the scheme's growth rate
    # must match lambda to O(dt^2), or the weighted mass drifts by percents over 100 h
    model = mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.5)
    drift, nonnegative = checks.SUITES["gre"](model)
    assert drift.ok and nonnegative.ok
    assert drift.value < 1e-3
