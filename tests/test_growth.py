import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitoclock import (
    DegenerateInputError,
    GrowthSeries,
    ParseError,
    ValidationError,
    fit_growth,
    load_growth_csv,
)


def exponential_series(lam=0.022, n0=1000.0, t_end=100.0, step=5.0):
    t = np.arange(0.0, t_end + step / 2, step)
    return GrowthSeries(t, n0 * np.exp(lam * t))


def test_exact_exponential_recovered():
    fit = fit_growth(exponential_series())
    assert fit.lam == pytest.approx(0.022, abs=1e-14)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.doubling_time == pytest.approx(math.log(2.0) / 0.022, rel=1e-12)
    assert fit.doubling_time == pytest.approx(31.5067, abs=1e-4)


def test_shipped_growth_curve(data_dir):
    series = load_growth_csv(data_dir / "growth_curve.csv")
    fit = fit_growth(series)
    assert abs(fit.lam - 0.022) < 1e-3
    assert 0.99 < fit.r_squared < 0.999
    assert fit.r_squared == pytest.approx(0.9967, abs=2e-3)


def test_negative_slope_has_no_doubling_time():
    t = np.array([0.0, 10.0, 20.0, 30.0])
    fit = fit_growth(GrowthSeries(t, 100.0 * np.exp(-0.01 * t)))
    assert fit.lam < 0
    assert fit.doubling_time is None


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
@settings(max_examples=40, deadline=None)
def test_scale_invariance(scale):
    base = exponential_series()
    noisy = GrowthSeries(base.times, base.counts * (1.0 + 0.05 * np.sin(base.times)))
    ref = fit_growth(noisy)
    scaled = fit_growth(GrowthSeries(noisy.times, noisy.counts * scale))
    assert scaled.lam == pytest.approx(ref.lam, abs=1e-12)


@given(shift=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_time_shift_changes_intercept_only(shift):
    base = exponential_series()
    noisy = GrowthSeries(base.times, base.counts * (1.0 + 0.05 * np.cos(base.times)))
    ref = fit_growth(noisy)
    shifted = fit_growth(GrowthSeries(noisy.times + shift, noisy.counts))
    assert shifted.lam == pytest.approx(ref.lam, abs=1e-10)
    if abs(shift) > 1e-6:
        assert shifted.intercept != pytest.approx(ref.intercept, abs=1e-12) or ref.lam == 0


def test_multiplicative_noise_recovery():
    lam0 = 0.022
    t = np.linspace(0.0, 95.0, 20)
    rng = np.random.default_rng(42)
    counts = 500.0 * np.exp(lam0 * t) * (1.0 + 0.01 * rng.standard_normal(t.size))
    fit = fit_growth(GrowthSeries(t, counts))
    assert abs(fit.lam - lam0) < 0.002


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_counts_spanning_the_float_range_give_a_finite_rate():
    # counts / counts[0] would overflow; the difference of their logs does not
    fit = fit_growth(GrowthSeries(np.array([0.0, 1.0, 2.0]), np.array([1e-300, 1e300, 1.0])))
    assert fit.lam == pytest.approx(math.log(1e300) / 2.0, rel=1e-12)
    assert all(map(math.isfinite, (fit.lam, fit.intercept, fit.r_squared, fit.doubling_time)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_times_too_close_for_a_finite_slope_are_rejected():
    series = GrowthSeries(np.array([0.0, 1e-300, 2e-300]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DegenerateInputError, match="too close together"):
        fit_growth(series)


def test_validation_errors():
    with pytest.raises(ValidationError):
        GrowthSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        GrowthSeries(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValidationError):
        GrowthSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 3.0]))


def test_csv_loader(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("t,N\n0,100\n5,120\n10,140\n")
    series = load_growth_csv(path)
    np.testing.assert_allclose(series.times, [0.0, 5.0, 10.0])
    np.testing.assert_allclose(series.counts, [100.0, 120.0, 140.0])

    bare = tmp_path / "bare.csv"
    bare.write_text("0,100\n5,120\n10,140\n")
    series2 = load_growth_csv(bare)
    np.testing.assert_allclose(series2.times, series.times)

    bad = tmp_path / "bad.csv"
    bad.write_text("0,100\n5\n")
    with pytest.raises(ParseError):
        load_growth_csv(bad)
