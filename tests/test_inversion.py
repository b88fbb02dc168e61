import numpy as np
import pytest
from scipy import special, stats

from mitoclock import (
    Model,
    TruncationWarning,
    ValidationError,
    best_erfc_fit,
    division_rate,
    erfc,
    erfc_distance,
    imt_density,
    invert_imt,
)
from mitoclock.inversion import read_rate_csv, write_rate_csv


def sample_density(model, step=0.01, upto=60.0):
    ages = np.arange(0.0, upto + step / 2, step)
    return ages, np.asarray(imt_density(model, ages))


def invert_model(model, step=0.01, upto=60.0):
    ages, dens = sample_density(model, step, upto)
    with pytest.warns(TruncationWarning):
        return invert_imt(ages, dens)


@pytest.mark.parametrize("family", ["gamma1", "gamma2"])
def test_gamma_inversion_matches_closed_form(family):
    model = Model(family=family, m=17.0, sigma=2.0)
    rate = invert_model(model)
    exact = np.asarray(division_rate(model, rate.ages))
    assert np.abs(rate.values - exact).max() < 1e-4
    assert rate.ages[-1] > 40.0  # most of the sampled range stays reliable


@pytest.mark.parametrize("family", ["gamma1", "gamma2"])
def test_gamma_inversion_error_shrinks_with_step(family):
    model = Model(family=family, m=17.0, sigma=2.0)
    errs = {}
    for step in (0.01, 0.005):
        rate = invert_model(model, step=step)
        exact = np.asarray(division_rate(model, rate.ages))
        errs[step] = np.abs(rate.values - exact).max()
    assert errs[0.01] / errs[0.005] >= 3.0


def test_inverted_rate_is_nonnegative_and_zero_before_support():
    model = Model(family="gamma1", m=17.0, sigma=2.0)
    rate = invert_model(model)
    assert np.all(rate.values >= 0)
    below = rate.ages < 17.0
    assert np.all(rate.values[below] == 0.0)


def test_emg_inversion_small_far_below_the_rise():
    emg = Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    rate = invert_model(emg)
    early = rate.ages < 22.0 - 5.0 * 2.0
    assert np.all(rate.values[early] < 1e-8)


def test_emg_inversion_matches_closed_form_survivor():
    # independent oracle: hazard = density / survivor, with the survivor in
    # closed form for a Gaussian convolved with an exponential
    b0, m, s = 0.2, 22.0, 2.0
    k, mu_g, s_g = 2.0 * b0, m - b0 * s * s, s / np.sqrt(2.0)
    emg = Model(family="emg", beta0=b0, m=m, sigma=s)
    rate = invert_model(emg)
    u = (rate.ages - mu_g) / s_g
    survivor = (
        1.0
        - stats.norm.cdf(u)
        + np.exp(-k * (rate.ages - mu_g) + 0.5 * k * k * s_g * s_g)
        * stats.norm.cdf(u - k * s_g)
    )
    oracle = np.asarray(imt_density(emg, rate.ages)) / survivor
    assert np.abs(rate.values - oracle).max() < 1e-5


def test_emg_inversion_is_an_error_function():
    emg = Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    rate = invert_model(emg)
    best, comparison = best_erfc_fit(rate)
    assert comparison.r_squared >= 0.9999
    assert comparison.max_abs_err < 1e-3
    # the best-matching error function sits near, but not at, the density's
    # own (beta0, m, sigma); the same-parameter curve deviates at the rise
    same = erfc_distance(rate, 0.2, 22.0, 2.0)
    assert 0.99 < same.r_squared < 0.9999
    assert 0.03 < same.max_abs_err < 0.06


def test_erfc_rate_density_inverts_to_its_own_rate():
    model = Model(family="erfc", beta0=0.2, m=22.0, sigma=2.0)
    rate = invert_model(model)
    comparison = erfc_distance(rate, 0.2, 22.0, 2.0)
    assert comparison.r_squared > 0.9999999
    assert comparison.max_abs_err < 1e-5


def test_gamma1_rate_is_not_an_error_function():
    rate = invert_model(Model(family="gamma1", m=17.0, sigma=2.0))
    _, comparison = best_erfc_fit(rate)
    assert comparison.r_squared < 0.999  # rational shape != erfc shape


def test_self_comparison_is_exact():
    ages = np.linspace(0.0, 50.0, 200)
    values = 0.3 * erfc((20.0 - ages) / 3.0)  # the package's own erfc: a self-comparison
    from mitoclock import TabulatedRate

    rate = TabulatedRate(ages, values)
    comparison = erfc_distance(rate, 0.3, 20.0, 3.0)
    assert comparison.r_squared == pytest.approx(1.0, abs=1e-15)
    assert comparison.max_abs_err == 0.0


def test_erfc_distance_validation():
    from mitoclock import TabulatedRate

    rate = TabulatedRate([0.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValidationError):
        erfc_distance(rate, 0.1, 1.0, -1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["beta0", "m", "sigma"])
def test_erfc_distance_rejects_non_finite_parameters(name, value):
    from mitoclock import TabulatedRate

    params = {"beta0": 0.1, "m": 1.0, "sigma": 1.0, name: value}
    with pytest.raises(ValidationError):
        erfc_distance(TabulatedRate([0.0, 1.0], [0.1, 0.1]), **params)


def test_invert_rejects_fat_tail():
    ages = np.linspace(0.0, 30.0, 200)
    model = Model(family="gamma1", m=17.0, sigma=2.0)
    dens = np.asarray(imt_density(model, ages))  # still ~3e-3 of peak at 30 h
    with pytest.raises(ValidationError, match="not decayed"):
        invert_imt(ages, dens)


def test_invert_warns_on_truncation():
    model = Model(family="gamma1", m=17.0, sigma=2.0)
    ages, dens = sample_density(model)
    with pytest.warns(TruncationWarning, match="truncated"):
        invert_imt(ages, dens)


def test_invert_validation():
    with pytest.raises(ValidationError):
        invert_imt([0.0, 1.0, 1.0], [0.1, 0.2, 0.0])
    with pytest.raises(ValidationError):
        invert_imt([0.0, 1.0, 2.0], [0.1, -0.2, 0.0])
    with pytest.raises(ValidationError):
        invert_imt([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])


def test_rate_csv_round_trip(tmp_path):
    rate = invert_model(Model(family="gamma2", m=17.0, sigma=2.0))
    path = tmp_path / "beta.csv"
    write_rate_csv(rate, path)
    back = read_rate_csv(path)
    np.testing.assert_array_equal(back.ages, rate.ages)
    np.testing.assert_array_equal(back.values, rate.values)


@pytest.mark.parametrize(
    "text",
    ["0.0,0.0\n1.0,0.5\n2.0,1.0\n", "# recovered rate\nage,beta\n0.0,0.0\n\n1.0,0.5\n2.0,1.0\n"],
    ids=["no-header", "comment-then-header"],
)
def test_rate_csv_reader_keeps_every_data_row(tmp_path, text):
    path = tmp_path / "beta.csv"
    path.write_text(text)
    rate = read_rate_csv(path)
    np.testing.assert_array_equal(rate.ages, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(rate.values, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_rate_csv_reader_rejects_a_non_finite_age(tmp_path, cell, row):
    ages = ["0.0", "1.0", "2.0"]
    ages[row] = cell
    path = tmp_path / "beta.csv"
    path.write_text("age,beta\n" + "".join(f"{a},0.5\n" for a in ages))
    with pytest.raises(ValidationError, match=f"line {row + 2}"):
        read_rate_csv(path)


def test_best_erfc_fit_recovers_exact_parameters():
    ages = np.linspace(0.0, 60.0, 500)
    values = 0.15 * special.erfc((24.0 - ages) / 3.2)
    from mitoclock import TabulatedRate

    model, comparison = best_erfc_fit(TabulatedRate(ages, values))
    assert model.beta0 == pytest.approx(0.15, rel=1e-6)
    assert model.m == pytest.approx(24.0, rel=1e-6)
    assert model.sigma == pytest.approx(3.2, rel=1e-6)
    assert comparison.r_squared == pytest.approx(1.0, abs=1e-12)


def test_best_erfc_fit_that_does_not_converge_raises(monkeypatch):
    from mitoclock import ErfcComparison, FitConvergenceError, TabulatedRate, inversion

    solve = inversion._least_squares

    def two_evaluations(residual_and_jacobian, x0, lower, max_nfev, tol):
        return solve(residual_and_jacobian, x0, lower, 2, tol)

    monkeypatch.setattr(inversion, "_least_squares", two_evaluations)
    ages = np.linspace(0.0, 60.0, 500)
    rate = TabulatedRate(ages, 0.15 * special.erfc((24.0 - ages) / 3.2))
    with pytest.raises(FitConvergenceError, match="did not converge") as excinfo:
        best_erfc_fit(rate)
    model, comparison = excinfo.value.best
    assert model.family == "erfc"
    assert isinstance(comparison, ErfcComparison)
