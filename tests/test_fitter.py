import numpy as np
import pytest

import mitoclock as mc
from mitoclock import (
    BoundaryWarning,
    DegenerateInputError,
    FitConvergenceError,
    Histogram,
    Kind,
    StateError,
    ValidationError,
    fit_imt,
    mass_check,
    reweighted_density,
)
from mitoclock.fitter import _least_squares

LAM = 0.022
BIN_WIDTH = 10.0 / 8.0
N_BINS = 63
MIDPOINTS = (np.arange(1, N_BINS + 1) + 0.5) * BIN_WIDTH


def synthetic_histogram(model, lam=LAM, noise=None, seed=0):
    heights = np.asarray(reweighted_density(model, lam, MIDPOINTS))
    if noise:
        rng = np.random.default_rng(seed)
        heights = np.maximum(heights * (1.0 + noise * rng.standard_normal(heights.size)), 0.0)
    return Histogram(bin_width=BIN_WIDTH, heights=heights, kind=Kind.REWEIGHTED, lambda_used=lam)


# one generating model per family, in FAMILIES order
TRUTHS = [
    mc.Model(family="gamma1", m=17.0, sigma=2.0),
    mc.Model(family="gamma2", m=19.0, sigma=2.5),
    mc.Model(family="emg", beta0=0.2, m=22.0, sigma=2.0),
    mc.Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451),
    mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333),
]


@pytest.mark.parametrize("model", TRUTHS, ids=lambda m: m.family)
def test_round_trip_recovery(model):
    result = fit_imt(synthetic_histogram(model), model.family, seed=0)
    for name in ("beta0", "m", "sigma", "mu"):
        truth = getattr(model, name)
        if truth is not None:
            assert getattr(result.model, name) == pytest.approx(truth, rel=1e-6)
    assert result.r_squared > 0.999999
    assert result.n_evaluations > 0
    assert result.residuals.shape == (N_BINS,)


NOISY_CASES = [pytest.param(model, 21, id=model.family) for model in TRUTHS] + [
    # the first bin above 5 % of the peak has its midpoint just past m, the density's
    # kink; starting m at that midpoint left every start in a worse local minimum
    pytest.param(mc.Model(family="gamma1", m=16.824864251493057, sigma=1.6482745578592004),
                 28, id="gamma1-kink"),
]


@pytest.mark.parametrize("model, noise_seed", NOISY_CASES)
def test_noisy_fit_is_at_least_as_good_as_the_truth(model, noise_seed):
    h = synthetic_histogram(model, noise=0.05, seed=noise_seed)
    truth_residuals = h.heights - np.asarray(reweighted_density(model, LAM, MIDPOINTS))
    result = fit_imt(h, model.family, seed=1)
    ssr = float(np.dot(result.residuals, result.residuals))
    assert ssr <= float(np.dot(truth_residuals, truth_residuals))
    assert result.n_evaluations > 0


def test_round_trip_with_death_recovers_within_one_percent():
    model = mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)
    result = fit_imt(synthetic_histogram(model), "erfc-mu", seed=3)
    assert result.model.beta0 == pytest.approx(model.beta0, rel=0.01)
    assert result.model.m == pytest.approx(model.m, rel=0.01)
    assert result.model.sigma == pytest.approx(model.sigma, rel=0.01)
    assert result.model.mu == pytest.approx(model.mu, rel=0.01)
    assert result.r_squared >= 0.9999


def test_residuals_consistent_with_r_squared():
    model = mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0)
    h = synthetic_histogram(model, noise=0.05, seed=11)
    result = fit_imt(h, "erfc", seed=0)
    ss_res = float(np.dot(result.residuals, result.residuals))
    centered = h.heights - h.heights.mean()
    ss_tot = float(np.dot(centered, centered))
    assert result.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-12)
    np.testing.assert_allclose(
        result.residuals,
        h.heights - np.asarray(reweighted_density(result.model, LAM, MIDPOINTS)),
        atol=1e-14,
    )


def test_death_family_reduces_to_no_death_when_mu_vanishes():
    model = mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0)
    h = synthetic_histogram(model)
    plain = fit_imt(h, "erfc", seed=0)
    with pytest.warns(BoundaryWarning, match="mu"):
        with_death = fit_imt(h, "erfc-mu", seed=0)
    assert with_death.model.mu == pytest.approx(0.0, abs=1e-7)
    assert with_death.model.beta0 == pytest.approx(plain.model.beta0, rel=1e-4)
    assert with_death.model.m == pytest.approx(plain.model.m, rel=1e-4)
    assert with_death.model.sigma == pytest.approx(plain.model.sigma, rel=1e-4)


def test_death_rate_pinned_at_zero_lands_exactly_on_its_bound():
    # with this noise the best erfc-mu fit would take mu < 0; clipped steps put it on 0
    h = synthetic_histogram(mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0),
                            noise=0.05, seed=0)
    with pytest.warns(BoundaryWarning, match="mu"):
        result = fit_imt(h, "erfc-mu", seed=0)
    assert result.model.mu == 0.0


def test_bounded_least_squares_holds_an_outward_variable_on_its_bound():
    # min |A x - b|^2 over x >= (0, 1): unconstrained, x = (-1, 2); with the bound
    # x0 = 0 pins and x1 solves the remaining problem, 3/2
    a = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 2.0]])
    b = a @ np.array([-1.0, 2.0])
    x, r, nfev, converged = _least_squares(lambda x: (a @ x - b, a), np.array([3.0, 3.0]),
                                           np.array([0.0, 1.0]), max_nfev=100, tol=1e-15)
    assert converged and nfev < 100
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.5, rel=1e-14)
    np.testing.assert_allclose(r, a @ x - b, rtol=0, atol=1e-15)


def test_death_family_mass_is_closer_to_one_on_shipped_data(data_dir):
    h = mc.reweight(mc.normalize(mc.load_histogram(data_dir / "imt_histogram.csv", BIN_WIDTH)), LAM)
    plain = fit_imt(h, "erfc", seed=0)
    with_death = fit_imt(h, "erfc-mu", seed=0)
    assert with_death.r_squared >= plain.r_squared - 1e-9
    assert abs(with_death.integral_i_tilde - 1.0) < abs(plain.integral_i_tilde - 1.0)


def test_deterministic_given_seed():
    assert [model.family for model in TRUTHS] == list(mc.FAMILIES)
    for model in TRUTHS:
        h = synthetic_histogram(model, noise=0.05, seed=5)
        a = fit_imt(h, model.family, seed=7)
        b = fit_imt(h, model.family, seed=7)
        assert a.model == b.model
        assert a.n_evaluations == b.n_evaluations > 0


def test_seed_env_variable(monkeypatch):
    model = mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0)
    h = synthetic_histogram(model, noise=0.05, seed=5)
    monkeypatch.setenv("MITOCLOCK_SEED", "7")
    from_env = fit_imt(h, "erfc")
    explicit = fit_imt(h, "erfc", seed=7)
    assert from_env.model == explicit.model


@pytest.mark.parametrize("seed", ["x", 1.5, -1])
def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(seed):
    h = synthetic_histogram(mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0))
    with pytest.raises(ValidationError, match=r"^seed must be a nonnegative integer"):
        fit_imt(h, "erfc", seed=seed)


@pytest.mark.parametrize("value", ["abc", "1.5", "-1", ""])
def test_a_seed_env_variable_that_is_not_a_nonnegative_integer_is_rejected(monkeypatch, value):
    h = synthetic_histogram(mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0))
    monkeypatch.setenv("MITOCLOCK_SEED", value)
    with pytest.raises(ValidationError, match=r"^MITOCLOCK_SEED must be a nonnegative integer"):
        fit_imt(h, "erfc")


def test_explicit_init_is_honored():
    model = mc.Model(family="gamma1", m=17.0, sigma=2.0)
    h = synthetic_histogram(model)
    result = fit_imt(h, "gamma1", init=[16.0, 2.5], seed=0)
    assert result.model.m == pytest.approx(17.0, rel=1e-6)
    with pytest.raises(ValidationError):
        fit_imt(h, "gamma1", init=[16.0, 2.5, 0.1], seed=0)


@pytest.mark.parametrize("family", mc.FAMILIES)
def test_histogram_without_mass_is_rejected(family):
    empty = Histogram(
        bin_width=BIN_WIDTH, heights=np.zeros(N_BINS), kind=Kind.REWEIGHTED, lambda_used=LAM
    )
    with pytest.raises(DegenerateInputError):
        fit_imt(empty, family, seed=0)


def test_requires_reweighted_histogram():
    raw = Histogram(bin_width=1.0, heights=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(StateError):
        fit_imt(raw, "erfc")
    with pytest.raises(ValidationError):
        fit_imt(synthetic_histogram(mc.Model(family="gamma1", m=17.0, sigma=2.0)), "gauss")


def test_nonconvergence_carries_best_result():
    model = mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0)
    h = synthetic_histogram(model, noise=0.05, seed=5)
    with pytest.raises(FitConvergenceError) as excinfo:
        fit_imt(h, "erfc", seed=0, max_iter=2)
    assert excinfo.value.best is not None
    assert excinfo.value.best.model.family == "erfc"
    # max_iter caps each start's residual-and-Jacobian evaluations
    assert excinfo.value.best.n_evaluations == 2 * mc.fitter.N_STARTS


def test_mass_check_thresholds():
    model = mc.Model(family="erfc", beta0=0.15, m=24.0, sigma=3.0)
    result = fit_imt(synthetic_histogram(model), "erfc", seed=0)

    def with_mass(value):
        return mc.FitResult(
            model=result.model,
            r_squared=result.r_squared,
            integral_i_tilde=value,
            lambda_used=result.lambda_used,
            residuals=result.residuals,
            n_evaluations=result.n_evaluations,
        )

    assert mass_check(with_mass(1.0132)).ok
    assert mass_check(with_mass(1.0983)).ok
    bad = mass_check(with_mass(1.5))
    assert not bad.ok
    assert bad.deviation == pytest.approx(0.5)


def test_fit_result_json_round_trip():
    import json

    model = mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)
    result = fit_imt(synthetic_histogram(model), "erfc-mu", seed=0)
    payload = json.loads(result.to_json())
    assert mc.model_from_dict(payload["model"]) == result.model
    assert len(payload["residuals"]) == N_BINS
    assert payload["lambda_used"] == LAM
    assert "erfc-mu" in result.summary_line()
