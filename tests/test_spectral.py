import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from mitoclock import (
    ClosedFormRate,
    ConfigurationError,
    Model,
    SimConfig,
    TabulatedRate,
    ValidationError,
    equilibrium,
    gre_functional,
    solve_lambda,
)
from mitoclock import spectral
from mitoclock.imt_models import reweighted_mass
from mitoclock.simulator import scheme_growth_rate
from mitoclock.spectral import (
    LAMBDA_MAX,
    SURVIVAL_TOL,
    AgeProfile,
    _adjoint,
    _cell_sources,
    _renewal_table,
    _renewal_value,
    build_grid,
    falsi_root,
    renewal_residual,
)

FIT_ERFC_MU = Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)


def constant_rate(b0, span=None):
    # survival drops below tolerance once b0 * span >> 27.6
    span = span if span is not None else 40.0 / b0
    return TabulatedRate([0.0, span], [b0, b0])


def test_constant_rate_growth_equals_rate():
    for b0 in (0.1, 0.25, 0.5):
        lam = solve_lambda(constant_rate(b0), 0.0)
        assert lam == pytest.approx(b0, abs=1e-12)


def test_growth_rate_up_to_lambda_max_is_reached():
    # the bracket doubles 0.5 -> 2 -> 5; its next point is clamped to k = mu + LAMBDA_MAX
    assert solve_lambda(constant_rate(7.0), 0.0) == pytest.approx(7.0, abs=1e-9)


def test_growth_rate_past_lambda_max_names_the_bound():
    # the rate diverges within a few hundredths of an hour; the diagnosis names the bound
    rate = ClosedFormRate(Model(family="gamma2", m=0.0, sigma=1e-3))
    with pytest.raises(ConfigurationError, match="growth rate.*LAMBDA_MAX"):
        equilibrium(rate, 0.0)


REFERENCE_SHAPE = dict(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141)


@pytest.mark.parametrize("mu", [1e3, 1e4])
def test_growth_rate_is_finite_under_large_death(mu):
    rate = ClosedFormRate(Model(mu=mu, **REFERENCE_SHAPE))
    k = solve_lambda(rate, 0.0)
    lam = solve_lambda(rate, mu)
    assert lam == k - mu
    pair = equilibrium(rate, mu)
    assert pair.lam == lam
    assert np.isfinite(pair.p_hat).all() and np.isfinite(pair.phi).all()
    assert abs(np.trapezoid(pair.p_hat, pair.grid) - 1.0) < 1e-8


def test_growth_rate_at_the_largest_death_rate_is_minus_mu():
    # k* ~ 0.02 is solved in [0, 0.5]; mu enters only the final subtraction
    rate = ClosedFormRate(Model(mu=0.0, **REFERENCE_SHAPE))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert solve_lambda(rate, 1e308) == -1e308


@pytest.mark.parametrize("mu", [0.0, FIT_ERFC_MU.mu])
def test_each_growth_rate_root_evaluates_g_at_zero_once(mu, monkeypatch):
    rate = ClosedFormRate(FIT_ERFC_MU)
    roots = []  # per root: g0, g, and the k of each call falsi_root made

    def recorded(g, g0, mu):
        ks = []
        roots.append((g0, g, ks))
        return falsi_root(lambda k: ks.append(k) or g(k), g0, mu)

    renewal_ks = []

    def renewal_value(table, k):
        renewal_ks.append(k)
        return _renewal_value(table, k)

    monkeypatch.setattr(spectral, "falsi_root", recorded)
    monkeypatch.setattr(spectral, "_renewal_value", renewal_value)
    solve_lambda(rate, mu)
    scheme_growth_rate(SimConfig(rate=rate, mu=mu, f=0.0, t_end=1.0))
    # every g of solve_lambda reads _renewal_value, so this counts all its calls at k = 0;
    # in both roots falsi_root is handed g(0) and never calls g at 0 itself
    assert renewal_ks.count(0.0) == 1
    assert len(roots) == 2
    for g0, g, ks in roots:
        assert 0.0 not in ks
        assert g0 == g(0.0) > 0.0


@given(
    family=st.sampled_from(["gamma1", "gamma2", "erfc"]),
    m=st.floats(min_value=0.0, max_value=30.0),
    sigma=st.floats(min_value=0.1, max_value=5.0),
    beta0=st.floats(min_value=0.02, max_value=0.5),
    mu=st.floats(min_value=0.0, max_value=1e308),
)
@settings(max_examples=30, deadline=None)
def test_death_rate_shift_identity_is_exact(family, m, sigma, beta0, mu):
    # the root is taken in k = mu + lambda, which does not depend on mu
    params = {"m": m, "sigma": sigma, **({"beta0": beta0} if family == "erfc" else {})}
    rate = ClosedFormRate(Model(family=family, **params))
    assert solve_lambda(rate, mu, step=0.2) == solve_lambda(rate, 0.0, step=0.2) - mu


def test_growth_rate_is_positive_without_death():
    for model in (Model(family="gamma1", m=17.0, sigma=2.0), Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)):
        assert solve_lambda(ClosedFormRate(model), 0.0) > 0


@given(
    b0=st.floats(min_value=0.05, max_value=0.6),
    mu=st.floats(min_value=0.0, max_value=0.05),
    delta=st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=25, deadline=None)
def test_death_rate_shift_identity(b0, mu, delta):
    rate = constant_rate(b0)
    base = solve_lambda(rate, mu, step=0.05)
    shifted = solve_lambda(rate, mu + delta, step=0.05)
    assert shifted == pytest.approx(base - delta, abs=1e-10)


def test_shift_identity_for_fitted_rate():
    rate = ClosedFormRate(FIT_ERFC_MU)
    base = solve_lambda(rate, 0.00333, step=0.05)
    shifted = solve_lambda(rate, 0.00333 + 0.01, step=0.05)
    assert shifted == pytest.approx(base - 0.01, abs=1e-10)


def test_fitted_rate_growth_matches_experiment():
    lam = solve_lambda(ClosedFormRate(FIT_ERFC_MU), 0.00333)
    assert lam == pytest.approx(0.022, rel=0.10)
    assert lam == pytest.approx(0.022565, abs=2e-4)  # regression pin


def test_renewal_residual_vanishes_at_solution():
    rate = ClosedFormRate(FIT_ERFC_MU)
    lam = solve_lambda(rate, 0.00333, step=0.05)
    assert abs(renewal_residual(rate, 0.00333, lam, step=0.05)) < 1e-10


@pytest.mark.parametrize(
    "mu, lam", [(0.00333, float("nan")), (0.00333, float("inf")), (float("nan"), 0.02), (-0.5, 0.02)]
)
def test_renewal_residual_rejects_bad_rates(mu, lam):
    rate = ClosedFormRate(FIT_ERFC_MU)
    with pytest.raises(ValidationError):
        renewal_residual(rate, mu, lam, step=0.05)


def test_renewal_value_is_decreasing_in_lambda():
    rate = ClosedFormRate(FIT_ERFC_MU)
    lams = (-0.002, 0.0, 0.01, 0.02, 0.05, 0.1)
    values = [renewal_residual(rate, 0.00333, lam, step=0.05) for lam in lams]
    assert all(a > b for a, b in zip(values, values[1:]))


def _seeded_models():
    """13 seeded models for each (family, death rate): 208 in all."""
    rng = np.random.default_rng(20)
    for family in ("gamma1", "gamma2", "erfc", "erfc-mu"):
        for mu in (0.0, 0.003, 0.01, 0.05):
            for _ in range(13):
                params = {"m": rng.uniform(5.0, 30.0), "sigma": rng.uniform(0.5, 5.0)}
                if family.startswith("erfc"):
                    params["beta0"] = rng.uniform(0.05, 0.5)
                if family == "erfc-mu":
                    params["mu"] = mu
                yield Model(family=family, **params), mu


def test_solve_lambda_matches_brentq():
    # brentq at the tolerances solve_lambda stops at is the reference root;
    # a coarse grid keeps the reference cheap and changes neither algorithm
    for model, mu in _seeded_models():
        rate = ClosedFormRate(model)
        lam = solve_lambda(rate, mu, step=0.2)
        reference = optimize.brentq(
            lambda x: renewal_residual(rate, mu, x, step=0.2), -mu, LAMBDA_MAX, xtol=1e-14,
            rtol=8.9e-16
        )
        assert abs(lam - reference) <= 2e-14, model
        assert abs(renewal_residual(rate, mu, lam, step=0.2)) <= 1e-12, model


@given(
    family=st.sampled_from(["gamma1", "gamma2", "erfc", "erfc-mu"]),
    m=st.floats(min_value=0.0, max_value=30.0),
    sigma=st.floats(min_value=0.1, max_value=5.0),
    beta0=st.floats(min_value=0.02, max_value=0.5),
    mu=st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=40, deadline=None)
# the kink at m inside the first cell, which holds most of the division mass
@example(family="gamma1", m=0.03125, sigma=0.109375, beta0=0.5, mu=0.0)
def test_growth_rate_gives_unit_reweighted_mass(family, m, sigma, beta0, mu):
    # reweighted_mass is the independent reference: 16-point Gauss-Legendre panels at most
    # sigma wide, split at m.  The renewal rule splits the cell that holds m in the same
    # place, so the gamma rates' kink at m falls on a panel edge.  It is exact to rounding
    # for the smooth erfc rates; the gamma bound leaves room for the fastest draws
    # (m 0, sigma 0.1), whose survival falls over two grid cells.
    params = {"m": m, "sigma": sigma}
    if family.startswith("erfc"):
        params["beta0"] = beta0
    if family == "erfc-mu":
        params["mu"] = mu
    model = Model(family=family, **params)
    lam = solve_lambda(ClosedFormRate(model), model.death_rate)
    tol = 1e-11 if family.startswith("erfc") else 1e-9
    assert abs(reweighted_mass(model, lam) - 1.0) <= tol


def test_the_renewal_tail_puts_the_growth_rate_on_the_unit_mass_root():
    # the renewal integral holds the rate at beta(A) past the grid's top A; without that
    # tail these masses were up to 8.7e-13 from 1.  Sigmas near the 0.05 h step are left
    # out: there the error is the cells' resolution, with the tail or without it
    rng = np.random.default_rng(31)
    for family in ("gamma1", "gamma2", "erfc", "erfc-mu"):
        for _ in range(25):
            params = {"m": rng.uniform(0.0, 30.0), "sigma": rng.uniform(0.3, 5.0)}
            if family.startswith("erfc"):
                params["beta0"] = rng.uniform(0.05, 1.0)
            if family == "erfc-mu":
                params["mu"] = rng.uniform(0.0, 0.05)
            model = Model(family=family, **params)
            lam = solve_lambda(ClosedFormRate(model), model.death_rate)
            assert abs(reweighted_mass(model, lam) - 1.0) <= 1e-13, model


def test_a_renewal_tail_that_does_not_decay_is_rejected():
    # past the grid's top the rate is held at 2*beta0 = 0.358, so k = mu + lambda must
    # exceed -0.358 there
    rate = ClosedFormRate(FIT_ERFC_MU)
    assert math.isfinite(renewal_residual(rate, FIT_ERFC_MU.mu, -0.3))
    with pytest.raises(ValidationError, match="does not decay"):
        renewal_residual(rate, FIT_ERFC_MU.mu, -0.4)


class _NanHazard(ClosedFormRate):
    """A divergent rate whose hazard evaluates to NaN."""

    def hazard(self, a):
        return np.full(np.shape(a), np.nan)


def test_non_finite_renewal_value_raises():
    with pytest.raises(ConfigurationError, match="renewal function is nan"):
        solve_lambda(_NanHazard(FIT_ERFC_MU), 0.0)


def test_zero_rate_rejected():
    zero = TabulatedRate([0.0, 100.0], [0.0, 0.0])
    with pytest.raises(ConfigurationError):
        solve_lambda(zero, 0.0)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), -0.01])
def test_death_rate_must_be_finite_and_nonnegative(mu):
    with pytest.raises(ValidationError):
        solve_lambda(ClosedFormRate(FIT_ERFC_MU), mu)


@pytest.mark.parametrize("mu", [None, "0.01", [0.01]])  # None: the mu of a gamma1 fit
@pytest.mark.parametrize("solve", [solve_lambda, equilibrium], ids=["solve_lambda", "equilibrium"])
def test_death_rate_that_is_not_a_number_is_a_validation_error(solve, mu):
    with pytest.raises(ValidationError, match="death rate"):
        solve(ClosedFormRate(FIT_ERFC_MU), mu)


def test_equilibrium_constant_rate_is_exponential_with_unit_adjoint():
    b0 = 0.5
    rate = constant_rate(b0)
    pair = equilibrium(rate, 0.0)
    expected = 2.0 * b0 * np.exp(-2.0 * b0 * pair.grid)
    np.testing.assert_allclose(pair.p_hat, expected, rtol=1e-3)
    assert pair.p_hat[0] == pytest.approx(2.0 * b0, rel=1e-3)
    # phi = 1 away from the imposed-decay layer at the top of the grid
    interior = pair.grid <= pair.grid[-1] - 20.0
    np.testing.assert_allclose(pair.phi[interior], 1.0, atol=1e-6)


def test_equilibrium_invariants_for_fitted_rate():
    rate = ClosedFormRate(FIT_ERFC_MU)
    pair = equilibrium(rate, 0.00333)
    grid = pair.grid
    assert abs(np.trapezoid(pair.p_hat, grid) - 1.0) < 1e-8
    assert abs(np.trapezoid(pair.p_hat * pair.phi, grid) - 1.0) < 1e-6
    assert np.all(pair.p_hat > 0)
    assert np.all(np.diff(pair.p_hat) <= 1e-15)  # monotone decreasing
    # essentially supported below m + 6 sigma
    tail = grid > FIT_ERFC_MU.m + 6.0 * FIT_ERFC_MU.sigma
    assert np.trapezoid(pair.p_hat[tail], grid[tail]) < 1e-4
    # renewal boundary identity, self-consistent quadrature
    assert abs(renewal_residual(rate, 0.00333, pair.lam)) < 1e-10
    # and with the plain trapezoid (smooth rate, so this stays tight)
    births = 2.0 * np.trapezoid(np.asarray(rate(grid)) * pair.p_hat, grid)
    assert abs(pair.p_hat[0] - births) < 1e-6 * pair.p_hat[0]


@pytest.mark.parametrize("family", ["gamma1", "gamma2"])
def test_equilibrium_boundary_identity_for_kinked_rates(family):
    rate = ClosedFormRate(Model(family=family, m=17.0, sigma=2.0))
    pair = equilibrium(rate, 0.0)
    assert abs(renewal_residual(rate, 0.0, pair.lam)) < 1e-10
    births = 2.0 * np.trapezoid(np.asarray(rate(pair.grid)) * pair.p_hat, pair.grid)
    assert abs(pair.p_hat[0] - births) < 1e-4 * pair.p_hat[0]


def test_adjoint_satisfies_its_equation():
    rate = ClosedFormRate(FIT_ERFC_MU)
    pair = equilibrium(rate, 0.00333)
    grid, phi = pair.grid, pair.phi
    beta = np.asarray(rate(grid))
    dphi = np.gradient(phi, grid)
    residual = pair.lam * phi - dphi + (beta + 0.00333) * phi - 2.0 * phi[0] * beta
    assert np.abs(residual[5:-5]).max() < 1e-3 * max(1.0, phi.max())


def test_gre_functional_normalization_and_linearity():
    rate = ClosedFormRate(FIT_ERFC_MU)
    pair = equilibrium(rate, 0.00333)
    value = gre_functional(pair.profile(), pair.adjoint(), pair.lam, 0.0)
    assert value == pytest.approx(1.0, abs=1e-12)
    scaled = AgeProfile(pair.grid, 3.5 * pair.p_hat)
    assert gre_functional(scaled, pair.adjoint(), pair.lam, 0.0) == pytest.approx(3.5, rel=1e-12)
    # discounting in time
    later = gre_functional(pair.profile(), pair.adjoint(), pair.lam, 10.0)
    assert later == pytest.approx(np.exp(-pair.lam * 10.0), rel=1e-12)


def test_gre_functional_grid_mismatch():
    rate = ClosedFormRate(FIT_ERFC_MU)
    pair = equilibrium(rate, 0.00333)
    other = AgeProfile(pair.grid + 0.5, pair.phi)
    with pytest.raises(ValidationError):
        gre_functional(pair.profile(), other, pair.lam, 0.0)


# NaN lam, an infinite horizon, and exp(-lam*t) past the float range
@pytest.mark.parametrize("lam, t", [(float("nan"), 0.0), (0.02, float("inf")), (-1e4, 1.0)])
def test_gre_functional_rejects_bad_lam_and_t(lam, t):
    pair = equilibrium(ClosedFormRate(FIT_ERFC_MU), 0.00333)
    with pytest.raises(ValidationError):
        gre_functional(pair.profile(), pair.adjoint(), lam, t)


def test_eigenpair_csv_export(tmp_path):
    pair = equilibrium(constant_rate(0.5), 0.0)
    path = tmp_path / "pair.csv"
    pair.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], pair.grid)
    np.testing.assert_allclose(data[:, 1], pair.p_hat)
    np.testing.assert_allclose(data[:, 2], pair.phi)


def test_build_grid_extends_until_survival_is_negligible():
    rate = ClosedFormRate(Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451))
    grid = build_grid(rate, step=0.05)
    assert float(np.exp(-rate.hazard(grid[-1]))) < 1e-12
    assert grid[0] == 0.0
    assert np.allclose(np.diff(grid), 0.05)


@pytest.mark.parametrize("step", [float("nan"), float("inf"), 0.0, -0.05])
def test_build_grid_rejects_bad_step(step):
    rate = ClosedFormRate(Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451))
    with pytest.raises(ValidationError):
        build_grid(rate, step=step)


def test_build_grid_covers_a_slow_plateau_after_a_narrow_rise():
    # survival reaches SURVIVAL_TOL near 286 h, ~2800 sigma past m (the cap was 1612 sigma)
    rate = ClosedFormRate(Model(family="erfc", beta0=0.05, m=10.0, sigma=0.1))
    grid = build_grid(rate, step=0.05)
    assert float(np.exp(-rate.hazard(grid[-1]))) < SURVIVAL_TOL
    assert 280.0 < grid[-1] < 290.0
    pair = equilibrium(rate, 0.0, step=0.05)
    assert abs(renewal_residual(rate, 0.0, pair.lam, step=0.05)) < 1e-10


@pytest.mark.parametrize("step", [0.05, 0.2])
@pytest.mark.parametrize("model", [Model(family="gamma1", m=17.0, sigma=2.0), FIT_ERFC_MU],
                         ids=["gamma1", "erfc-mu"])
def test_every_eigen_solve_runs_on_build_grid(model, step):
    rate, mu = ClosedFormRate(model), model.death_rate
    pair = equilibrium(rate, mu, step)
    np.testing.assert_array_equal(pair.grid, build_grid(rate, step))
    assert solve_lambda(rate, mu, step) == pair.lam
    assert abs(renewal_residual(rate, mu, pair.lam, step)) <= 1e-12


class _ScalarReads:
    """Counts the hazard reads of a rate, each at one age; the rate itself must not be called."""

    def __init__(self, rate):
        self.rate, self.reads = rate, 0

    def __call__(self, a):
        raise AssertionError("the rate itself was evaluated")

    def hazard(self, a):
        assert np.ndim(a) == 0
        self.reads += 1
        return self.rate.hazard(a)


READ_BUDGET = 41  # 2*log2(MAX_CELLS) + 1: doubling n from 2, then bisecting
GRID_RATES = {
    "gamma1": ClosedFormRate(Model(family="gamma1", m=17.0, sigma=2.0)),
    "gamma2": ClosedFormRate(Model(family="gamma2", m=17.0, sigma=2.0)),
    "erfc": ClosedFormRate(Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)),
    "erfc-mu": ClosedFormRate(FIT_ERFC_MU),
    "slow-plateau": ClosedFormRate(Model(family="erfc", beta0=0.05, m=10.0, sigma=0.1)),
    # survival reaches SURVIVAL_TOL near 34550 h, ~691000 cells: the longest bisection
    "near-MAX_CELLS": ClosedFormRate(Model(family="erfc", beta0=4e-4, m=10.0, sigma=1.0)),
    "table": TabulatedRate([0.0, 10.0, 20.0, 30.0], [0.0, 0.1, 0.3, 0.5]),
}


@pytest.mark.parametrize("rate", GRID_RATES.values(), ids=GRID_RATES)
def test_default_grid_ends_at_the_first_edge_past_the_survival_tolerance(rate):
    counted = _ScalarReads(rate)
    grid = build_grid(counted, step=0.05)
    assert counted.reads <= READ_BUDGET
    np.testing.assert_array_equal(grid, np.arange(grid.size) * 0.05)
    before, end = (math.exp(-float(rate.hazard(a))) for a in grid[-2:])
    assert before >= SURVIVAL_TOL > end


def test_a_rate_that_does_not_diverge_within_max_cells_fails_within_the_read_budget():
    # beta0 1e-6 is fit_imt's lower bound; survival at MAX_CELLS cells of 0.05 h is still ~0.9
    counted = _ScalarReads(ClosedFormRate(Model(family="erfc", beta0=1e-6, m=10.0, sigma=1.0)))
    with pytest.raises(ConfigurationError, match="MAX_CELLS"):
        build_grid(counted, step=0.05)
    assert counted.reads <= READ_BUDGET


def adjoint_by_recursion(s, q):
    """phi_j = exp(-(s_{j+1} - s_j)) * phi_{j+1} + q_j backward from phi = 0 at the top."""
    decay = np.exp(-np.diff(s))
    phi = np.zeros_like(s)
    for j in range(s.size - 2, -1, -1):
        phi[j] = decay[j] * phi[j + 1] + q[j]
    return phi


@pytest.mark.parametrize("mu", [0.0, 0.5, 20.0])
def test_adjoint_sum_matches_the_recursion(mu):
    # on a grid to 3000 h the survival exponent s rises by ~1100, more than one
    # exponential shift can span
    rate = ClosedFormRate(FIT_ERFC_MU)
    lam = solve_lambda(rate, mu)
    grid = np.arange(0.0, 3000.0 + 1e-9, 0.05)
    s = rate.hazard(grid) + (mu + lam) * grid
    assert s[-1] - s[0] > 1000.0
    q = _cell_sources(_renewal_table(rate, grid), s, mu + lam)
    got = _adjoint(s, q)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, adjoint_by_recursion(s, q), rtol=1e-12, atol=0)
