import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitoclock import (
    ClosedFormRate,
    ConfigurationError,
    CustomProfile,
    GridTooSmallError,
    Model,
    SimConfig,
    TabulatedRate,
    ValidationError,
    imt_experiment,
    invert_imt,
    quiescent_fraction,
    simulate,
    solve_lambda,
)
from mitoclock import simulator
from mitoclock.checks import predicted_fraction
from mitoclock.imt_models import cumulative_hazard, division_rate
from mitoclock.simulator import (
    ESCAPE_TOL,
    MAX_STEPS,
    _CellGrid,
    _equilibrium_masses,
    _equilibrium_start,
    _growth_rate,
    scheme_growth_rate,
)
from mitoclock.spectral import MAX_CELLS, build_grid

FIT_ERFC_MU = Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)
FIT_ERFC = Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)


def zero_rate(span=300.0):
    return TabulatedRate([0.0, span], [0.0, 0.0])


def bump_profile():
    return CustomProfile(np.array([0.0, 1.0, 9.0, 10.0]), np.array([0.0, 0.1, 0.1, 0.0]))


def test_config_validation():
    rate = ClosedFormRate(FIT_ERFC_MU)
    with pytest.raises(ValidationError):
        SimConfig(rate=rate, mu=0.0, f=-0.1, t_end=10.0)
    with pytest.raises(ValidationError):
        SimConfig(rate=rate, mu=0.0, f=2.0, t_end=10.0)
    with pytest.raises(ValidationError):
        SimConfig(rate=rate, mu=-1.0, f=0.0, t_end=10.0)
    with pytest.raises(ValidationError):
        SimConfig(rate=rate, mu=0.0, f=0.0, t_end=10.0, dt=0.0)
    with pytest.raises(ValidationError, match="CustomProfile"):
        SimConfig(rate=rate, mu=0.0, f=0.0, t_end=10.0, initial="equilibrium")


NAN, INF = float("nan"), float("inf")
# bad (ages, values) tables; every constructor of a table runs the one io.check_table
BAD_TABLES = {
    "nan-value": ([0.0, 1.0, 2.0], [0.0, NAN, 0.0]),
    "inf-age": ([0.0, INF], [0.1, 0.1]),
    "decreasing": ([2.0, 1.0, 0.0], [0.1, 0.1, 0.1]),
    "repeated-age": ([0.0, 1.0, 1.0], [0.1, 0.1, 0.1]),
    "length-mismatch": ([0.0, 1.0, 2.0], [0.1, 0.1]),
    "negative": ([0.0, 1.0], [0.1, -0.1]),
    "single-point": ([1.0], [0.1]),
    "nan-first-age": ([NAN, 1.0, 2.0], [0.1, 0.2, 0.0]),
    "nan-middle-age": ([0.0, NAN, 2.0], [0.1, 0.2, 0.0]),
    "nan-last-age": ([0.0, 1.0, NAN], [0.1, 0.2, 0.0]),
    "inf-first-age": ([-INF, 1.0, 2.0], [0.1, 0.2, 0.0]),
    "inf-middle-age": ([0.0, INF, 2.0], [0.1, 0.2, 0.0]),
    "inf-last-age": ([0.0, 1.0, INF], [0.1, 0.2, 0.0]),
}


@pytest.mark.parametrize("ages, values", BAD_TABLES.values(), ids=BAD_TABLES)
def test_custom_profile_validation(ages, values):
    with pytest.raises(ValidationError):
        CustomProfile(np.array(ages), np.array(values))


@pytest.mark.parametrize("ages, values", BAD_TABLES.values(), ids=BAD_TABLES)
@pytest.mark.parametrize("build", [TabulatedRate, invert_imt], ids=["rate", "density"])
def test_rate_and_density_tables_share_the_profile_check(build, ages, values):
    with pytest.raises(ValidationError):
        build(np.array(ages), np.array(values))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["t_end", "dt", "mu", "a_max", "mu_q"])
def test_config_rejects_non_finite_numbers(name, value):
    kwargs = dict(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.5, t_end=10.0)
    kwargs[name] = value
    with pytest.raises(ValidationError):
        SimConfig(**kwargs)


NOT_NUMBERS = [("mu", None), ("f", None), ("t_end", None), ("dt", None), ("mu", "0.01"),
               ("f", "0.5"), ("t_end", [10.0]), ("dt", "0.05"), ("a_max", "90"), ("mu_q", "0")]


@pytest.mark.parametrize("name, value", NOT_NUMBERS)
def test_config_rejects_values_that_are_not_numbers(name, value):
    # only a_max and mu_q may be None
    kwargs = dict(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.5, t_end=10.0)
    kwargs[name] = value
    with pytest.raises(ValidationError, match=f"{name} must be a finite number"):
        SimConfig(**kwargs)


@pytest.mark.parametrize("a_max", [-5.0, 0.0])
def test_config_rejects_a_non_positive_a_max(a_max):
    with pytest.raises(ValidationError, match="a_max must be positive"):
        SimConfig(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.5, t_end=10.0, a_max=a_max)


def test_positive_a_max_below_two_cells_is_a_grid_too_small_error():
    config = SimConfig(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.5, t_end=10.0, a_max=0.01)
    with pytest.raises(GridTooSmallError):
        simulate(config)


class UntouchableRate:
    """A rate that fails the test if anything evaluates it."""

    def __call__(self, a):
        raise AssertionError("rate evaluated")

    def hazard(self, a):
        raise AssertionError("hazard evaluated")


def test_step_count_is_capped():
    # 1e12 steps: built but never run; the guard must fire before any work
    assert MAX_STEPS < 1e12
    with pytest.raises(ValidationError, match="steps"):
        SimConfig(rate=UntouchableRate(), mu=0.0, f=0.5, t_end=1e9, dt=1e-3)
    with pytest.raises(ValidationError, match="steps"):
        imt_experiment(UntouchableRate(), 0.0, 0.0, 1e9, dt=1e-3)


class HazardFreeRate(UntouchableRate):
    """No hazard anywhere, so imt_experiment reaches its cell grid; evaluating the rate fails."""

    def hazard(self, a):
        return 0.0


def test_cell_count_is_capped():
    # 1e7 and 5e6 age cells: the guard must fire before any array is allocated
    assert MAX_CELLS < 5e6
    with pytest.raises(ValidationError, match="cells"):
        SimConfig(rate=UntouchableRate(), mu=0.0, f=0.5, t_end=1e-5, dt=1e-5, a_max=100.0)
    with pytest.raises(ValidationError, match="cells"):
        build_grid(UntouchableRate(), step=1e-5, a_max=100.0)
    with pytest.raises(ValidationError, match="cells"):
        imt_experiment(HazardFreeRate(), 0.0, 0.0, 1e5, dt=0.02)


def test_pure_transport_conserves_mass():
    config = SimConfig(
        rate=zero_rate(), mu=0.0, f=0.0, t_end=200.0, dt=0.05, a_max=220.0, initial=bump_profile()
    )
    out = simulate(config)
    assert np.abs(out.N / out.N[0] - 1.0).max() < 1e-12
    assert np.all(out.births == 0.0)


def test_grid_too_small_raises():
    config = SimConfig(
        rate=zero_rate(), mu=0.0, f=0.0, t_end=50.0, dt=0.05, a_max=30.0, initial=bump_profile()
    )
    with pytest.raises(GridTooSmallError):
        simulate(config)


def test_growth_slope_matches_eigenvalue():
    rate = ClosedFormRate(FIT_ERFC_MU)
    lam = solve_lambda(rate, FIT_ERFC_MU.mu)
    out = simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.0, t_end=60.0, dt=0.05))
    mask = out.times >= 20.0
    slope = np.polyfit(out.times[mask], np.log(out.N[mask]), 1)[0]
    assert slope == pytest.approx(lam, rel=0.01)


def test_everyone_quiescent_drains_proliferating_pool():
    rate = ClosedFormRate(FIT_ERFC)
    out = simulate(SimConfig(rate=rate, mu=0.0, f=1.0, t_end=150.0, dt=0.05))
    assert out.P[-1] < 0.01 * out.P[0]
    assert np.all(out.births == 0.0)
    # every initial cell eventually divides into two quiescent daughters
    assert out.Q[-1] == pytest.approx(2.0 * out.P[0], rel=0.01)
    assert np.all(np.diff(out.Q) >= 0)


def test_per_step_budget_closes_at_first_order():
    rate = ClosedFormRate(FIT_ERFC_MU)
    residuals = {}
    for dt in (0.1, 0.05):
        out = simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.3, t_end=30.0, dt=dt))
        flux = 0.5 * (out.births + out.quiescence_influx)  # total division flux
        expected = dt * (2.0 * (1.0 - 0.3) * flux - flux - FIT_ERFC_MU.mu * out.P)
        residuals[dt] = np.abs(np.diff(out.P) - expected[:-1]).max()
    assert residuals[0.1] / residuals[0.05] > 2.5  # O(dt^2) closure


def test_positivity_everywhere():
    rate = ClosedFormRate(FIT_ERFC_MU)
    out = simulate(
        SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.6, t_end=80.0, dt=0.05),
        snapshot_times=[0.0, 40.0, 80.0],
    )
    assert np.all(out.P >= 0) and np.all(out.Q >= 0) and np.all(out.N >= 0)
    for _, profile in out.snapshots:
        assert np.all(profile >= 0)
    assert np.all(out.final_profile.values >= 0)


def test_n_is_p_plus_q():
    rate = ClosedFormRate(FIT_ERFC_MU)
    out = simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.6, t_end=40.0, dt=0.05))
    np.testing.assert_allclose(out.N, out.P + out.Q, rtol=0, atol=1e-15)


@pytest.mark.parametrize("f", [0.0, 0.3, 0.6, 0.84])
def test_quiescent_fraction_equals_f_without_death(f):
    rate = ClosedFormRate(FIT_ERFC_MU)
    config = SimConfig(rate=rate, mu=0.0, f=f, t_end=20.0, dt=0.05)
    assert abs(quiescent_fraction(config, 20.0) - f) < 1e-12


# one member of each closed-form family, simulated without death (mu = mu_q = 0)
CLOSED_FORM_RATES = {
    "gamma1": ClosedFormRate(Model(family="gamma1", m=10.0, sigma=2.0)),
    "gamma2": ClosedFormRate(Model(family="gamma2", m=10.0, sigma=2.0)),
    "erfc": ClosedFormRate(FIT_ERFC),
    "erfc-mu": ClosedFormRate(FIT_ERFC_MU),
}
FRACTIONS = st.floats(min_value=0.0, max_value=1.0)
STEPS = st.sampled_from([0.025, 0.05, 0.1])


@pytest.mark.parametrize("family", CLOSED_FORM_RATES)
@given(f=FRACTIONS, dt=STEPS)
@settings(max_examples=25, deadline=None)
def test_labeled_fraction_is_f_without_death(family, f, dt):
    config = SimConfig(rate=CLOSED_FORM_RATES[family], mu=0.0, f=f, t_end=15.0, dt=dt)
    assert abs(quiescent_fraction(config, 15.0) - f) < 1e-12


@pytest.mark.parametrize("family", CLOSED_FORM_RATES)
@given(f=FRACTIONS, dt=STEPS)
@settings(max_examples=25, deadline=None)
def test_population_grows_by_the_division_mass_without_death(family, f, dt):
    # each division adds one cell net: 2 daughters (into P or Q) for 1 mother
    rate = CLOSED_FORM_RATES[family]
    out = simulate(SimConfig(rate=rate, mu=0.0, f=f, t_end=15.0, dt=dt, mu_q=0.0))
    divisions = dt * (out.births + out.quiescence_influx)[:-1] / 2.0
    assert np.all(np.abs(np.diff(out.N) - divisions) <= 1e-12 * out.N[1:])


@pytest.mark.parametrize("family", ["gamma1", "gamma2"])
@given(f=FRACTIONS, dt=STEPS)
@settings(max_examples=25, deadline=None)
def test_population_ignores_f_until_treated_daughters_can_divide(family, f, dt):
    # a daughter born at t > 0 cannot divide before age m, so until t = m every
    # division comes from the initial cells and N cannot depend on f; P and Q
    # are summed separately, so N agrees to rounding, not bit for bit
    rate = CLOSED_FORM_RATES[family]
    runs = [simulate(SimConfig(rate=rate, mu=0.0, f=g, t_end=12.0, dt=dt)) for g in (0.0, f)]
    early = runs[0].times < rate.model.m
    np.testing.assert_allclose(runs[1].N[early], runs[0].N[early], rtol=1e-13, atol=0)


@given(
    beta=st.floats(min_value=0.01, max_value=1.0),
    mu=st.floats(min_value=0.0, max_value=1.0),
    mu_q=st.floats(min_value=0.0, max_value=1.0),
    f=FRACTIONS,
    dt=STEPS,
)
@settings(max_examples=25, deadline=None)
def test_constant_rate_closes_both_pools_with_death(beta, mu, mu_q, f, dt):
    # with beta constant every cell keeps and divides the same share per step, and
    # no mass reaches the top cell by t_end, so P and Q follow scalar recursions;
    # daughters take half a step of death on entering P
    config = SimConfig(rate=TabulatedRate([0.0, 300.0], [beta, beta]), mu=mu, f=f, t_end=50.0,
                       dt=dt, a_max=220.0, mu_q=mu_q, initial=bump_profile())
    out = simulate(config)
    keep = math.exp(-(beta + mu) * dt)
    newborn = 2.0 * (1.0 - f) * math.exp(-mu * dt / 2.0)
    growth = keep + newborn * (1.0 - keep) * beta / (beta + mu)
    np.testing.assert_allclose(out.P[1:], growth * out.P[:-1], rtol=1e-12, atol=0)
    inflow = (1.0 - dt * mu_q) * out.Q[:-1] + dt * out.quiescence_influx[:-1]
    # atol: a subnormal f gives subnormal Q values, which carry no relative precision
    np.testing.assert_allclose(out.Q[1:], inflow, rtol=1e-12, atol=1e-300)


def shifted_run(config, snapshot_times=()):
    """simulate by a loop that shifts the whole age array up one cell every step.

    Returns (P, Q, births, influx, snapshots, final profile), or raises the
    GridTooSmallError simulate must raise.
    """
    dt, f, mu_q = config.dt, config.f, config.quiescent_death_rate
    a_max = config.a_max
    if a_max is None:
        a_max = float(build_grid(config.rate, step=dt)[-1])
    cells = _CellGrid(config.rate, config.mu, dt, a_max)
    init = config.initial
    if init is None:
        m = _equilibrium_start(cells, _growth_rate(cells, config.mu), config.mu).masses(0)
    else:
        inside = (cells.centers >= init.ages[0]) & (cells.centers <= init.ages[-1])
        m = np.where(inside, np.interp(cells.centers, init.ages, init.values), 0.0) * dt
    newborn = 2.0 * (1.0 - f) * math.exp(-config.mu * dt / 2.0)
    into_q = 2.0 * f * math.exp(-mu_q * dt / 2.0)
    steps = int(round(config.t_end / dt))
    snap_steps = {int(round(t / dt)) for t in snapshot_times}
    q, rows, snaps = 0.0, [], {}
    for n in range(steps + 1):
        divisions = float(cells.div_frac @ m)
        total_p = float(m.sum())
        rows.append((total_p, q, newborn * divisions / dt, into_q * divisions / dt))
        if n in snap_steps:
            snaps[n] = m / dt
        if n == steps:
            break
        if m[-1] > ESCAPE_TOL * max(total_p + q, 1e-300):
            raise GridTooSmallError(
                f"age profile reached a_max = {a_max:g} at t = {n * dt:g} "
                f"(top cell holds {m[-1]:.3e}); increase a_max"
            )
        m[1:] = m[:-1] * cells.keep[:-1]
        m[0] = newborn * divisions
        q = q + into_q * divisions - dt * mu_q * q
    p, q, births, influx = np.array(rows).T
    return p, q, births, influx, [snaps[int(round(t / dt))] for t in snapshot_times], m / dt


def custom_start(width, heights):
    """A piecewise-linear start on [0, width], zero at both ends."""
    ages = np.linspace(0.0, width, len(heights) + 2)
    return CustomProfile(ages, np.concatenate(([0.0], heights, [0.0])))


STARTS = st.one_of(
    st.none(),
    st.builds(custom_start, st.floats(min_value=0.5, max_value=20.0),
              st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4)),
)
DEATH = st.floats(min_value=0.0, max_value=1.0)


@pytest.mark.parametrize("family", CLOSED_FORM_RATES)
@given(f=FRACTIONS, mu=DEATH, mu_q=st.one_of(st.none(), DEATH), dt=STEPS, start=STARTS,
       snaps=st.lists(st.floats(min_value=0.0, max_value=15.0), max_size=3))
@settings(max_examples=25, deadline=None)
def test_simulate_matches_the_shift_loop(family, f, mu, mu_q, dt, start, snaps):
    config = SimConfig(rate=CLOSED_FORM_RATES[family], mu=mu, f=f, t_end=15.0, dt=dt,
                       mu_q=mu_q, initial=start)
    assert_matches_the_shift_loop(config, snaps)


def assert_matches_the_shift_loop(config, snaps):
    p, q, births, influx, snapshots, final = shifted_run(config, snaps)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = simulate(config, snapshot_times=snaps)
    # atol: a subnormal f gives subnormal Q values, which carry no relative precision
    close = dict(rtol=1e-13, atol=1e-300)
    assert [t for t, _ in out.snapshots] == snaps
    tiny = np.finfo(float).tiny
    for got, want in ((out.P, p), (out.Q, q), (out.N, p + q), (out.births, births),
                      (out.quiescence_influx, influx), (out.final_profile.values, final),
                      *((got, want) for (_, got), want in zip(out.snapshots, snapshots))):
        np.testing.assert_allclose(got, want, **close)
        # every sum is of nonnegative terms: a value is exactly 0 where the shift loop's
        # is, short of the subnormals, which the shift loop rounds step by step
        moved = (got == 0) != (want == 0)
        np.testing.assert_array_equal(moved & ((got >= tiny) | (want >= tiny)), False)
    return out


# a triangular spike of rate 200/h on [20, 30] h: survival from birth falls to
# exp(-1000), 0.0 in double, so L_k cannot carry start mass past it
SPIKE = TabulatedRate([0.0, 20.0, 25.0, 30.0, 300.0], [0.0, 0.0, 200.0, 0.0, 0.0])
REFERENCE = CLOSED_FORM_RATES["erfc-mu"]
GOLDEN = {
    # 180 cells and 1200 steps: newborns cross the whole grid many times
    "more-steps-than-cells": SimConfig(
        rate=ClosedFormRate(Model(family="gamma1", m=1.0, sigma=0.25)), mu=0.01, f=0.3,
        t_end=60.0, dt=0.05),
    "steps-not-a-block-multiple": SimConfig(rate=REFERENCE, mu=0.00333, f=0.6, t_end=50.35),
    "shorter-than-one-block": SimConfig(rate=REFERENCE, mu=0.00333, f=0.6, t_end=1.0),
    "everyone-quiescent": SimConfig(rate=REFERENCE, mu=0.00333, f=1.0, t_end=60.0),
    "dt-mu_q-one": SimConfig(rate=REFERENCE, mu=0.00333, f=0.84, t_end=60.0, mu_q=20.0),
    # 20 000 steps of quiescent decay: 1 - dt*mu_q rounded to a double would move Q by 1e-12
    "long-quiescent": SimConfig(rate=REFERENCE, mu=0.00333, f=0.84, t_end=1000.0),
    "start-past-a-spike": SimConfig(
        rate=SPIKE, mu=0.0, f=0.0, t_end=50.0, a_max=100.0,
        initial=CustomProfile(np.array([35.0, 40.0]), np.array([0.1, 0.1]))),
    "start-across-a-spike": SimConfig(
        rate=SPIKE, mu=0.01, f=0.3, t_end=50.0, a_max=100.0,
        initial=CustomProfile(np.array([10.0, 40.0]), np.array([0.1, 0.1]))),
    # 17 cells keep exactly 0, so L counted from cell 0 is 0 past them: the start's cells
    # there must come from its anchored segments, not from ratios of L, which are 0/0
    "start-past-a-zero-keep": SimConfig(
        rate=TabulatedRate([0.0, 20.0, 20.5, 21.0, 300.0], [0.0, 0.0, 1e5, 0.0, 0.0]), mu=0.0,
        f=0.0, t_end=30.0, a_max=100.0,
        initial=CustomProfile(np.array([10.0, 40.0]), np.array([0.1, 0.1]))),
    # steep death: survival L_k underflows within the cells, where the equilibrium start
    # still holds mass
    "steep-death": SimConfig(rate=REFERENCE, mu=19.9, f=0.3, t_end=90.0, mu_q=0.0),
    "steep-death-coarse": SimConfig(rate=REFERENCE, mu=5.0, f=0.3, t_end=90.0, dt=0.1,
                                    mu_q=0.0),
    # N falls below 1e-300, where the escape test compares the top cell with 1e-309: the
    # start's top cell is 1.7e-322 at t = 70.65 h, so nothing escapes
    "steep-death-subnormal-top": SimConfig(rate=REFERENCE, mu=10.0, f=0.0, t_end=90.0,
                                           mu_q=0.0),
    # more cells than one slab and more steps than one epoch: the far slabs' history
    # products are taken once per epoch
    "far-slabs": SimConfig(rate=REFERENCE, mu=0.00333, f=0.6, t_end=100.0, dt=0.02),
    # 10 228 cells and 9 000 steps: a start that is not the scheme's own eigenvector drifts
    # past 1e-13 here
    "fine": SimConfig(rate=REFERENCE, mu=0.00333, f=0.6, t_end=90.0, dt=0.01),
    # 12 500 cells, three far slabs, the last narrower than a slab; the start past
    # where L_k underflows is solved in anchored runs of their own
    "far-slabs-custom-start": SimConfig(
        rate=REFERENCE, mu=0.01, f=0.3, t_end=100.0, dt=0.02, a_max=250.0,
        initial=CustomProfile(np.array([0.0, 200.0]), np.array([0.01, 0.01]))),
}


@pytest.mark.parametrize("config", GOLDEN.values(), ids=GOLDEN)
def test_golden_runs_match_the_shift_loop(config):
    out = assert_matches_the_shift_loop(config, [0.0, config.t_end / 3, config.t_end])
    assert np.isfinite(out.N).all()


SMALL_BLOCKS = ("more-steps-than-cells", "steps-not-a-block-multiple", "steep-death-coarse",
                "start-across-a-spike")


def small_blocks(monkeypatch, slab=32):
    # nested as the module asks (SLAB a multiple of BLOCK * SUPERBLOCK), small enough
    # that a run crosses tens of slabs, epochs and superblocks
    for constant, value in (("BLOCK", 4), ("SUPERBLOCK", 4), ("SLAB", slab)):
        monkeypatch.setattr(simulator, constant, value)
    # a plan's near panel has these sizes: it must be neither read from nor left to the cache
    monkeypatch.setattr(simulator, "_plan", simulator._plan.__wrapped__)


# at SLAB = BLOCK * SUPERBLOCK an epoch is one superblock
@pytest.mark.parametrize("slab", (32, 16))
@pytest.mark.parametrize("name", SMALL_BLOCKS)
def test_small_blocks_cross_many_slabs_and_epochs(monkeypatch, name, slab):
    small_blocks(monkeypatch, slab)
    config = GOLDEN[name]
    assert config.t_end / config.dt > 2 * simulator.SLAB
    assert_matches_the_shift_loop(config, [0.0, config.t_end / 3, config.t_end])


def solve_at_small_blocks(survival, kernel, steps):
    """_solve of a unit source at steps 1 and 2, c = 1.2, its near panel built from its
    tables: (b_0..b_steps, d, P)."""
    near = np.vstack([simulator._panel(series, 0, min(simulator.SLAB, survival.size))
                      for series in (kernel, survival)])
    w, d, p = simulator._solve(survival, kernel, 1.2, steps, renewal_source(steps), near)
    return w[1:steps + 2][::-1], d, p


def renewal_source(steps):
    return np.isin(np.arange(steps + 1), (1, 2)) * 1.0


def renewal_tables(cells):
    """L of random keeps in (0.9, 1), and K = 0.1 L from lag 5 on: d stops for four steps
    after each generation, so d, b and P hold runs of exact zeros."""
    keep = np.random.default_rng(cells).uniform(0.9, 1.0, cells - 1)
    survival = np.cumprod(np.append(1.0, keep))
    return survival, np.where(np.arange(cells) >= 5, 0.1, 0.0) * survival


# steps + 1 below one block, not a multiple of BLOCK, and more than 2 * SLAB; fewer cells
# than one slab and more than two
SOLVE_SIZES = [(steps, cells) for steps in (2, 49, 100) for cells in (20, 75)]


@pytest.mark.parametrize("steps, cells", SOLVE_SIZES)
def test_the_mass_series_is_read_from_the_finished_births(monkeypatch, steps, cells):
    # P never feeds back: twice L leaves b and d bit for bit and doubles P exactly
    small_blocks(monkeypatch)
    survival, kernel = renewal_tables(cells)
    births, d, p = solve_at_small_blocks(survival, kernel, steps)
    births2, d2, p2 = solve_at_small_blocks(2.0 * survival, kernel, steps)
    assert births2.tobytes() == births.tobytes() and d2.tobytes() == d.tobytes()
    assert p2.tobytes() == (2.0 * p).tobytes()


@pytest.mark.parametrize("steps, cells", SOLVE_SIZES)
def test_the_mass_series_is_the_births_convolved_with_survival(monkeypatch, steps, cells):
    small_blocks(monkeypatch)
    survival, kernel = renewal_tables(cells)
    births, d, p = solve_at_small_blocks(survival, kernel, steps)
    np.testing.assert_array_equal(births, np.append(0.0, 1.2 * d[:-1]))
    renewal = renewal_source(steps) + np.convolve(births, kernel)[:steps + 1]
    for got, want in ((d, renewal), (p, np.convolve(births, survival)[:steps + 1])):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(got == 0, want == 0)
        assert (want == 0).any() and (want > 0).any()


@pytest.mark.parametrize("family", CLOSED_FORM_RATES)
@given(mu=st.floats(min_value=0.0, max_value=0.5), dt=STEPS)
@settings(max_examples=25, deadline=None)
def test_equilibrium_start_grows_at_the_schemes_own_rate(family, mu, dt):
    # the start is the scheme's own eigenvector, so an untreated run grows as
    # exp(lambda_d t) from its first step, with no transient
    config = SimConfig(rate=CLOSED_FORM_RATES[family], mu=mu, f=0.0, t_end=60.0, dt=dt)
    out = simulate(config)
    drift = out.N / out.N[0] * np.exp(-scheme_growth_rate(config) * out.times) - 1.0
    assert np.abs(drift).max() <= 1e-12


@pytest.mark.parametrize("mu", [7.0, 10.0, 19.9])
def test_scheme_growth_rate_solves_its_renewal_sum_under_steep_death(mu):
    # 2 exp(-mu*dt/2) sum_j K_j exp(-lambda_d*dt*(j+1)) - 1 with K_j = div_frac_j * L_j,
    # L_j summed in the log from the per-step losses dh_j + mu*dt
    config = SimConfig(rate=REFERENCE, mu=mu, f=0.0, t_end=10.0, mu_q=0.0)
    lam = scheme_growth_rate(config)
    assert math.isfinite(lam)
    cells = _CellGrid(config.rate, mu, config.dt)
    log_survival = -np.concatenate(([0.0], np.cumsum(cells.dh + mu * config.dt)[:-1]))
    lags = config.dt * np.arange(1, cells.dh.size + 1)
    terms = cells.div_frac * np.exp(log_survival - lam * lags)
    assert abs(2.0 * math.exp(-mu * config.dt / 2.0) * terms.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("mu", [500.0, 1e5])
def test_scheme_growth_rate_stays_in_its_bounds_at_any_death_rate(mu):
    # sum_j div_frac_j exp(H(c_0) - H(c_j)) <= 1 bounds the root, -mu < lambda_d <=
    # -mu/2 + log(2)/dt; exp(-mu*dt/2) underflows at mu 1e5, so the sum must be solved in
    # the log
    config = SimConfig(rate=REFERENCE, mu=mu, f=0.3, t_end=5.0, mu_q=0.0)
    lam = scheme_growth_rate(config)
    assert -mu < lam <= -mu / 2 + math.log(2.0) / config.dt
    assert np.isfinite(simulate(config).N).all()


def test_scheme_growth_rate_up_to_lambda_max_is_reached():
    # a constant 7/h: the bracket's last point is clamped to k = mu + LAMBDA_MAX
    config = SimConfig(rate=TabulatedRate([0.0, 40.0 / 7.0], [7.0, 7.0]), mu=0.0, f=0.0,
                       t_end=1.0, dt=0.01)
    assert math.isfinite(scheme_growth_rate(config))


def test_cells_short_of_the_divergence_range_are_a_grid_too_small_error():
    # gamma2 (m 17) on cells up to 20 h: most cells have not divided by a_max
    config = SimConfig(rate=ClosedFormRate(GAMMA2), mu=0.0, f=0.0, t_end=10.0, a_max=20.0)
    for run in (simulate, scheme_growth_rate):
        with pytest.raises(GridTooSmallError, match="divergence range.*increase a_max"):
            run(config)


def test_births_are_zero_at_the_shift_loops_steps():
    # every term of the renewal sums is nonnegative, so no newborn mass appears as
    # rounding noise before the start's oldest cells reach the spike at t ~ 10 h
    config = SimConfig(rate=SPIKE, mu=0.01, f=0.3, t_end=40.0, a_max=100.0,
                       initial=CustomProfile(np.array([0.0, 10.0]), np.array([0.1, 0.1])))
    _, _, births, _, _, _ = shifted_run(config)
    out = simulate(config)
    np.testing.assert_array_equal(out.births == 0.0, births == 0.0)
    assert out.births[:190].max() == 0.0 and out.births[-1] > 0.0


def test_escape_fed_by_newborns_after_the_start_has_left():
    # the start on [0, 0.5] h has left a_max = 10 h by t = 10 h.  Its own crossing
    # bounds any newborn cohort's top-cell share of N (a cohort's descendants are part
    # of N), so only the threshold's floor lets newborns escape first: N is below
    # 1e-300 while the start crosses, above it when the newborns do
    start = CustomProfile(np.array([0.0, 0.5]), np.array([1e-306, 1e-306]))
    config = SimConfig(rate=ClosedFormRate(Model(family="gamma1", m=3.0, sigma=1.0)), mu=0.0,
                       f=0.0, t_end=60.0, dt=0.05, a_max=10.0, initial=start)
    with pytest.raises(GridTooSmallError) as expected:
        shifted_run(config)
    with pytest.raises(GridTooSmallError) as raised:
        simulate(config)
    assert str(raised.value) == str(expected.value)
    assert "at t = 32.55 " in str(raised.value)


@pytest.mark.parametrize("mu, mu_q", [(0.0, 40.5), (45.0, None)])
def test_quiescent_loss_above_one_per_step_rejected(mu, mu_q):
    # dt*mu_q > 1 would make the Euler factor 1 - dt*mu_q negative, and Q with it;
    # mu_q defaults to mu
    rate = ClosedFormRate(FIT_ERFC_MU)
    with pytest.raises(ValidationError, match=r"dt \* mu_q = 2\.\d+ > 1"):
        SimConfig(rate=rate, mu=mu, f=0.5, t_end=10.0, dt=0.05, mu_q=mu_q)
    SimConfig(rate=rate, mu=mu, f=0.5, t_end=10.0, dt=0.02, mu_q=mu_q)  # 0.81, 0.9: allowed


@given(a_max=st.floats(min_value=4.0, max_value=14.0),
       width=st.floats(min_value=0.5, max_value=3.0), f=FRACTIONS, dt=STEPS)
@settings(max_examples=25, deadline=None)
def test_escape_is_reported_at_the_shift_loops_step(a_max, width, f, dt):
    # gamma1 (m 10) from a flat start: cohorts reach a_max before most of them divide
    config = SimConfig(rate=CLOSED_FORM_RATES["gamma1"], mu=0.0, f=f, t_end=30.0, dt=dt,
                       a_max=a_max, initial=custom_start(width, [0.1]))
    with pytest.raises(GridTooSmallError) as expected:
        shifted_run(config)
    with pytest.raises(GridTooSmallError) as raised:
        simulate(config)
    assert str(raised.value) == str(expected.value)


def test_quiescent_fraction_with_death_stays_close():
    rate = ClosedFormRate(FIT_ERFC_MU)
    config = SimConfig(rate=rate, mu=0.00333, f=0.84, t_end=20.0, dt=0.05)
    frac = quiescent_fraction(config, 20.0)
    assert abs(frac - 0.84) < 0.01
    assert frac < 0.84  # deaths shave the labeled quiescent pool


@pytest.mark.parametrize("mu_q", [None, 0.02])
@pytest.mark.parametrize("mu", [0.0, 0.0043, 0.005, 0.01])
def test_quiescent_fraction_matches_its_closed_form(mu, mu_q):
    rate = ClosedFormRate(Model(family="erfc-mu", beta0=0.2526, m=15.37, sigma=2.63, mu=0.0043))
    for f in (0.0, 0.3, 0.6, 0.84, 1.0):
        config = SimConfig(rate=rate, mu=mu, f=f, t_end=20.0, dt=0.05, mu_q=mu_q)
        predicted = predicted_fraction(simulate(config), config, 20.0)
        assert abs(quiescent_fraction(config, 20.0) - predicted) < 1e-12


def test_quiescent_fraction_horizon_check():
    rate = ClosedFormRate(FIT_ERFC_MU)
    config = SimConfig(rate=rate, mu=0.0, f=0.3, t_end=10.0, dt=0.05)
    with pytest.raises(ValidationError):
        quiescent_fraction(config, 20.0)


@pytest.mark.parametrize("t0", [float("nan"), float("inf"), -1.0])
def test_quiescent_fraction_rejects_bad_t0(t0):
    config = SimConfig(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.3, t_end=10.0, dt=0.05)
    with pytest.raises(ValidationError):
        quiescent_fraction(config, t0)


def test_treated_growth_departs_after_min_division_age():
    rate = ClosedFormRate(FIT_ERFC_MU)
    runs = {
        f: simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=f, t_end=45.0, dt=0.05))
        for f in (0.0, 0.84)
    }
    t = runs[0.0].times
    gap = np.abs(
        np.log(runs[0.84].N / runs[0.84].N[0]) - np.log(runs[0.0].N / runs[0.0].N[0])
    )
    assert gap[t <= 12.0].max() < 1e-6  # identical before any treated cohort divides
    assert gap[np.searchsorted(t, 40.0)] > 0.02
    # treated curve grows slower through the bend
    late = slice(np.searchsorted(t, 25.0), np.searchsorted(t, 45.0))
    slope_treated = np.polyfit(t[late], np.log(runs[0.84].N[late]), 1)[0]
    slope_untreated = np.polyfit(t[late], np.log(runs[0.0].N[late]), 1)[0]
    assert slope_treated < 0.5 * slope_untreated


def test_treated_growth_pulses_with_the_cycle_length():
    # after the first bend the slope partially recovers one cycle later,
    # then dips again as the next thinned generation matures
    rate = ClosedFormRate(FIT_ERFC_MU)
    out = simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.84, t_end=110.0, dt=0.05))
    ln_n = np.log(out.N / out.N[0])

    def slope(lo, hi):
        mask = (out.times >= lo) & (out.times <= hi)
        return np.polyfit(out.times[mask], ln_n[mask], 1)[0]

    untreated = solve_lambda(rate, FIT_ERFC_MU.mu)
    assert slope(10.0, 18.0) == pytest.approx(untreated, rel=0.01)
    first_dip = slope(35.0, 40.0)
    recovery = slope(45.0, 50.0)
    second_dip = slope(60.0, 70.0)
    assert first_dip < 0.2 * untreated
    assert recovery > first_dip
    assert second_dip < first_dip


def test_quiescent_death_rate_knob():
    rate = ClosedFormRate(FIT_ERFC_MU)
    base = simulate(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.6, t_end=40.0, dt=0.05))
    harsher = simulate(
        SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.6, t_end=40.0, dt=0.05, mu_q=0.02)
    )
    assert harsher.Q[-1] < base.Q[-1]
    np.testing.assert_allclose(harsher.P, base.P, rtol=1e-12)  # P never sees mu_q


def test_snapshots_and_csv_round_trip(tmp_path):
    rate = ClosedFormRate(FIT_ERFC_MU)
    out = simulate(
        SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.0, t_end=10.0, dt=0.1),
        snapshot_times=[0.0, 5.0, 10.0],
    )
    assert [t for t, _ in out.snapshots] == [0.0, 5.0, 10.0]
    path = tmp_path / "run.csv"
    out.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], out.times)
    np.testing.assert_allclose(data[:, 3], out.N)
    out.profile_to_csv(tmp_path / "profile.csv")
    prof = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(prof[:, 0], out.final_profile.ages)


def test_snapshots_one_per_requested_time_in_order():
    rate = ClosedFormRate(FIT_ERFC_MU)
    config = SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.0, t_end=10.0, dt=0.05)
    # 5.0 and 5.01 fall on the same step; each still gets its own snapshot
    out = simulate(config, snapshot_times=[10.0, 5.0, 5.01, 0.0])
    assert [t for t, _ in out.snapshots] == [10.0, 5.0, 5.01, 0.0]
    np.testing.assert_array_equal(out.snapshots[1][1], out.snapshots[2][1])
    np.testing.assert_array_equal(out.snapshots[0][1], out.final_profile.values)


@pytest.mark.parametrize("t", [50.0, -3.0, float("nan"), float("inf")])
def test_snapshot_time_outside_the_run_rejected(t):
    config = SimConfig(rate=ClosedFormRate(FIT_ERFC_MU), mu=0.0, f=0.0, t_end=10.0, dt=0.05)
    with pytest.raises(ValidationError, match="snapshot time"):
        simulate(config, snapshot_times=[5.0, t])


class _NanHazard(ClosedFormRate):
    """A rate whose hazard evaluates to NaN."""

    def hazard(self, a):
        return np.full(np.shape(a), np.nan)


class _NanRate(ClosedFormRate):
    """A divergent hazard with a rate that evaluates to NaN."""

    def __call__(self, a):
        return np.full(np.shape(a), np.nan)


def test_non_finite_hazard_on_the_cells_rejected():
    rate = _NanHazard(Model(family="gamma2", m=17.0, sigma=2.0))
    start = CustomProfile(np.array([0.0, 30.0]), np.array([0.1, 0.1]))
    config = SimConfig(rate=rate, mu=0.0, f=0.0, t_end=10.0, a_max=215.0, initial=start)
    with pytest.raises(ConfigurationError, match="not finite on the age cells"):
        simulate(config)


def test_non_finite_rate_on_the_cells_rejected():
    with pytest.raises(ConfigurationError, match="not finite on the age cells"):
        imt_experiment(_NanRate(FIT_ERFC), 0.0, 5.0, 80.0)


class _CountingRate(ClosedFormRate):
    """A closed-form rate that records the shape of every age argument it is given,
    and the ages of every hazard call."""

    def __init__(self, model):
        super().__init__(model)
        self.rate_shapes, self.hazard_shapes, self.hazard_ages = [], [], []

    def __call__(self, a):
        self.rate_shapes.append(np.shape(a))
        return super().__call__(a)

    def hazard(self, a):
        self.hazard_shapes.append(np.shape(a))
        self.hazard_ages.append(np.array(a, dtype=float))
        return super().hazard(a)


CELL_RUNS = {
    "simulate": simulate,
    "quiescent_fraction": lambda config: quiescent_fraction(config, 10.0),
    "scheme_growth_rate": scheme_growth_rate,
}


@pytest.mark.parametrize("a_max", [None, 90.0])
@pytest.mark.parametrize("run", CELL_RUNS.values(), ids=CELL_RUNS)
def test_cell_setup_reads_the_hazard_once_and_the_rate_never(run, a_max):
    n_cells = build_grid(ClosedFormRate(FIT_ERFC_MU), 0.05, a_max).size - 1
    rate = _CountingRate(FIT_ERFC_MU)
    run(SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=0.6, t_end=20.0, dt=0.05, a_max=a_max))
    # the grid's own extension may read the rate and the hazard at one age at a time
    assert all(shape == () for shape in rate.rate_shapes)
    # one array call to the hazard, on the J + 1 lattice points (j + 1/2)*dt: the
    # equilibrium start takes its growth rate from the cells, with no renewal table
    assert [shape for shape in rate.hazard_shapes if shape] == [(n_cells + 1,)]
    lattice = rate.hazard_ages[rate.hazard_shapes.index((n_cells + 1,))]
    np.testing.assert_array_equal(lattice, (np.arange(n_cells + 1) + 0.5) * 0.05)


def test_off_lattice_a_max_takes_the_grid_cells_and_keeps_its_value():
    config = SimConfig(rate=zero_rate(), mu=0.0, f=0.0, t_end=50.0, dt=0.05, a_max=10.03,
                       initial=bump_profile())
    cells = _CellGrid(config.rate, config.mu, config.dt, config.a_max)
    assert cells.centers.size == build_grid(config.rate, 0.05, 10.03).size - 1 == 201
    with pytest.raises(GridTooSmallError, match=r"reached a_max = 10\.03 at t = "):
        simulate(config)


# --- the set-up that the doses of one sweep share -------------------------

def sweep(rate, doses, **settings) -> list:
    """One SimConfig per dose f, all of one rate and settings."""
    return [SimConfig(rate=rate, f=f, **settings) for f in doses]


PLAN_SWEEPS = {
    "reference": sweep(REFERENCE, (0.0, 0.6, 0.84), mu=0.00333, t_end=60.0),
    "mu_q": sweep(REFERENCE, (0.3, 0.6), mu=0.00333, t_end=60.0, mu_q=0.1),
    "a_max": sweep(REFERENCE, (0.0, 0.6), mu=0.00333, t_end=60.0, a_max=215.0),
    "gamma1": sweep(ClosedFormRate(Model(family="gamma1", m=17.0, sigma=2.0)), (0.0, 0.6),
                    mu=0.01, t_end=60.0),
    "tabulated": sweep(TabulatedRate([0.0, 10.0, 20.0, 40.0], [0.0, 0.1, 0.2, 0.2]), (0.0, 0.6),
                       mu=0.01, t_end=60.0, a_max=250.0),
    # L_k underflows within the cells (see GOLDEN)
    "steep-death": sweep(REFERENCE, (0.3, 0.0), mu=19.9, t_end=90.0, dt=0.05, mu_q=0.0),
    # a start split into anchored segments across the spike (see GOLDEN)
    "custom": sweep(SPIKE, (0.0, 0.3, 0.6), mu=0.01, t_end=50.0, a_max=100.0,
                    initial=CustomProfile(np.array([10.0, 40.0]), np.array([0.1, 0.1]))),
}


def output_arrays(out) -> list:
    return [out.times, out.P, out.Q, out.N, out.births, out.quiescence_influx,
            *out.final_profile, *(profile for _, profile in out.snapshots)]


@pytest.mark.parametrize("configs", PLAN_SWEEPS.values(), ids=PLAN_SWEEPS)
def test_runs_on_a_shared_plan_equal_runs_on_a_fresh_one_bit_for_bit(configs):
    simulator._plan.cache_clear()
    shared = [simulate(config, snapshot_times=[0.0, 30.0]) for config in configs]
    assert simulator._plan.cache_info().hits == len(configs) - 1
    for config, out in zip(configs, shared):
        simulator._plan.cache_clear()
        fresh = simulate(config, snapshot_times=[0.0, 30.0])
        for a, b in zip(output_arrays(out), output_arrays(fresh), strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("configs", PLAN_SWEEPS.values(), ids=PLAN_SWEEPS)
def test_every_start_takes_one_renewal_solve_per_dose(monkeypatch, configs):
    # each dose solves its own births alone, from an empty history (_solve takes no start);
    # the equilibrium start is plan data, in closed form: no anchored run at any death rate
    def anchors(cells, m0):
        raise AssertionError("an equilibrium start was split into anchored runs")

    solves = []
    solve = simulator._solve

    def counted_solve(*args):
        solves.append(args)
        return solve(*args)

    if configs[0].initial is None:
        monkeypatch.setattr(simulator, "_anchors", anchors)
    monkeypatch.setattr(simulator, "_solve", counted_solve)
    simulator._plan.cache_clear()
    for config in configs:
        simulate(config)
    assert len(solves) == len(configs)


def test_a_dose_sweep_builds_its_cells_once(monkeypatch):
    built = []

    class CountedCells(_CellGrid):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulator, "_CellGrid", CountedCells)
    # a rate of its own: no earlier test built its plan
    rate = ClosedFormRate(FIT_ERFC_MU)
    for initial in (bump_profile(), None):  # a custom start's sweep, then an equilibrium one
        configs = sweep(rate, (0.0, 0.3, 0.6), mu=FIT_ERFC_MU.mu, t_end=20.0, initial=initial)
        for config in configs:
            simulate(config)
        assert len(built) == 1
    # the gre suite's lambda_d is read from the same plan
    assert scheme_growth_rate(configs[0]) == scheme_growth_rate(configs[-1])
    assert len(built) == 1


def test_writing_into_a_runs_output_leaves_the_next_run_unchanged():
    config = SimConfig(rate=REFERENCE, mu=0.00333, f=0.6, t_end=20.0)
    first = simulate(config, snapshot_times=[10.0])
    expected = [array.copy() for array in output_arrays(first)]
    for array in output_arrays(first):
        array[...] = -1.0
    for a, b in zip(output_arrays(simulate(config, snapshot_times=[10.0])), expected):
        assert a.tobytes() == b.tobytes()


def test_a_custom_start_reads_the_plans_cells_but_never_solves_for_lambda_d(monkeypatch):
    def growth_rate(cells, mu):
        raise AssertionError("a custom start solved for lambda_d")

    monkeypatch.setattr(simulator, "_growth_rate", growth_rate)
    # cells up to 20 h, short of gamma2's divergence range: lambda_d would be a
    # GridTooSmallError (test_cells_short_of_the_divergence_range_are_a_grid_too_small_error)
    config = SimConfig(rate=ClosedFormRate(GAMMA2), mu=0.0, f=0.0, t_end=5.0, a_max=20.0,
                       initial=bump_profile())
    out = simulate(config)
    assert out.N[0] == pytest.approx(0.9, rel=1e-12)
    hits = simulator._plan.cache_info().hits
    plan = simulator._plan(config.rate, config.mu, config.dt, config.a_max)
    assert simulator._plan.cache_info().hits == hits + 1  # the plan simulate built
    assert out.final_profile.ages.tobytes() == plan.cells.centers.tobytes()


def test_a_custom_start_keeps_its_table_past_the_callers_edits():
    ages, values = np.array([0.0, 10.0]), np.array([0.1, 0.1])
    start = CustomProfile(ages, values)
    ages[:], values[:] = (5.0, 6.0), 0.0
    assert start.ages.tolist() == [0.0, 10.0] and start.values.tolist() == [0.1, 0.1]
    with pytest.raises(ValueError, match="read-only"):
        start.values[0] = 1.0


# --- custom starts the cells cannot hold ----------------------------------

GAMMA2 = Model(family="gamma2", m=17.0, sigma=2.0)
UNHELD_STARTS = {
    # 0.1/h on [0, 10] and on [40, 50]: a_max 30 kept only the first part, N(0) = 1.025
    "past-the-top": (30.0, [0.0, 10.0, 10.5, 39.5, 40.0, 50.0], [0.1, 0.1, 0.0, 0.0, 0.1, 0.1],
                     r"up to age 50, outside the age cells \[0, 30\]"),
    # 0.1/h on [-5, 5]: only the half at positive ages was kept, N(0) = 0.5
    "negative-ages": (215.0, [-5.0, 5.0], [0.1, 0.1], r"down to age -5, outside"),
    # 1.0/h on [10.01, 10.02] lies between two cell centres: N was 0 throughout
    "between-centres": (215.0, [10.01, 10.02], [1.0, 1.0], r"positive at no age cell centre"),
}


@pytest.mark.parametrize("a_max, ages, values, message", UNHELD_STARTS.values(),
                         ids=UNHELD_STARTS)
def test_start_the_cells_cannot_hold_is_rejected(a_max, ages, values, message):
    start = CustomProfile(np.array(ages), np.array(values))
    config = SimConfig(rate=ClosedFormRate(GAMMA2), mu=0.0, f=0.0, t_end=10.0, dt=0.05,
                       a_max=a_max, initial=start)
    with pytest.raises(ValidationError, match=message):
        simulate(config)


def test_start_held_by_the_cells_is_kept_whole():
    # the two-part start that a_max 30 cannot hold fits a_max 215
    _, ages, values, _ = UNHELD_STARTS["past-the-top"]
    config = SimConfig(rate=ClosedFormRate(GAMMA2), mu=0.0, f=0.0, t_end=1.0, dt=0.05,
                       a_max=215.0, initial=CustomProfile(np.array(ages), np.array(values)))
    assert simulate(config).N[0] == pytest.approx(2.05, rel=1e-12)


@pytest.mark.parametrize("height", [0.0, 5e-324])
def test_zero_and_subnormal_starts_stay_allowed(height):
    # a subnormal density rounds to 0 at the cell centres, but it is positive there
    start = custom_start(1.0, [height])
    out = simulate(SimConfig(rate=ClosedFormRate(GAMMA2), mu=0.0, f=0.0, t_end=10.0, dt=0.025,
                             initial=start))
    assert not out.N.any()


class BareRate:
    """A gamma2 rate with a hazard but neither a closed-form .model nor tabulated .ages."""

    def __call__(self, a):
        return division_rate(GAMMA2, a)

    def hazard(self, a):
        return cumulative_hazard(GAMMA2, a)


SIZED_BY_A_RATE = {
    "build_grid": lambda rate: build_grid(rate),
    "simulate": lambda rate: simulate(SimConfig(rate=rate, mu=0.0, f=0.0, t_end=10.0)).N,
    "solve_lambda": lambda rate: solve_lambda(rate, 0.0),
    "imt_experiment": lambda rate: imt_experiment(rate, 0.0, 5.0, 60.0)[1],
}


@pytest.mark.parametrize("call", SIZED_BY_A_RATE.values(), ids=SIZED_BY_A_RATE)
def test_a_rate_with_a_hazard_alone_sizes_its_own_grid(call):
    # the grid is sized from the hazard alone, so no a_max is needed; m = 17 is a grid
    # edge, so the closed form's kink splits no renewal cell either
    np.testing.assert_array_equal(call(BareRate()), call(ClosedFormRate(GAMMA2)))


def test_a_rate_without_model_or_ages_runs_from_a_custom_start_with_a_max():
    start = CustomProfile(np.array([0.0, 30.0]), np.array([0.1, 0.1]))
    runs = [simulate(SimConfig(rate=rate, mu=0.0, f=0.5, t_end=10.0, a_max=215.0, initial=start))
            for rate in (BareRate(), ClosedFormRate(GAMMA2))]
    np.testing.assert_array_equal(runs[0].N, runs[1].N)


def test_a_rate_without_model_or_ages_runs_from_equilibrium_with_a_max():
    # the equilibrium start reads the cells alone, so an a_max is all the rate needs
    runs = [simulate(SimConfig(rate=rate, mu=0.01, f=0.5, t_end=10.0, a_max=215.0))
            for rate in (BareRate(), ClosedFormRate(GAMMA2))]
    for field in ("P", "Q", "N", "births"):
        np.testing.assert_array_equal(getattr(runs[0], field), getattr(runs[1], field))
    np.testing.assert_array_equal(runs[0].final_profile.values, runs[1].final_profile.values)


# --- labeled-cohort observation window ------------------------------------


def test_imt_experiment_requires_quiet_start():
    rate = ClosedFormRate(FIT_ERFC)
    with pytest.raises(ValidationError, match="not ~0"):
        imt_experiment(rate, 0.0, FIT_ERFC.m, FIT_ERFC.m + 40.0)
    with pytest.raises(ValidationError, match="exceed"):
        imt_experiment(rate, 0.0, 10.0, 5.0)
    with pytest.raises(ValidationError, match="one step"):
        imt_experiment(rate, 0.0, 0.0, 0.01)


@pytest.mark.parametrize(
    "t0, big_t, dt",
    [(float("nan"), 80.0, 0.025), (10.0, float("nan"), 0.025), (10.0, 80.0, float("nan")),
     (10.0, float("inf"), 0.025), (10.0, 80.0, 0.0)],
)
def test_imt_experiment_rejects_non_finite_times(t0, big_t, dt):
    with pytest.raises(ValidationError):
        imt_experiment(ClosedFormRate(FIT_ERFC), 0.0, t0, big_t, dt)


@pytest.mark.parametrize("t0", [0.0, 5.0])  # 0: the point cohort, which solves no lambda
@pytest.mark.parametrize("mu", [NAN, -0.5, INF])
def test_imt_experiment_rejects_bad_death_rates(mu, t0):
    with pytest.raises(ValidationError, match="death rate"):
        imt_experiment(ClosedFormRate(FIT_ERFC), mu, t0, 60.0)


@pytest.mark.parametrize("mu", [None, "0.01"])  # None: the mu of a gamma1 or erfc fit
def test_imt_experiment_rejects_a_death_rate_that_is_not_a_number(mu):
    with pytest.raises(ValidationError, match="death rate"):
        imt_experiment(ClosedFormRate(FIT_ERFC), mu, 10.0, 60.0)


@pytest.mark.parametrize("t0", [-1.0, -50.0, -0.01])
def test_imt_experiment_rejects_a_negative_t0(t0):
    # -0.01 used to run as if t0 were 0, and -1 and -50 to fail inside numpy
    with pytest.raises(ValidationError, match="t0 >= 0"):
        imt_experiment(ClosedFormRate(FIT_ERFC), 0.0, t0, 60.0)


def test_imt_experiment_point_cohort_matches_survival_weighted_rate():
    rate = ClosedFormRate(FIT_ERFC)
    profile, _ = imt_experiment(rate, 0.0, 0.0, 90.0)
    hazard = np.asarray(rate.hazard(profile.ages))
    ideal = np.asarray(rate(profile.ages)) * np.exp(-hazard)
    ideal /= ideal.sum() * (profile.ages[1] - profile.ages[0])
    assert np.abs(profile.values - ideal).max() < 1e-6


def test_imt_experiment_start_below_half_a_step_is_the_point_cohort():
    # no cell center lies at or below 0 < t0 < dt/2: the cohort is the unit mass in
    # the first cell, as for t0 = 0; the grid reaches t0 further, one empty cell more
    rate = ClosedFormRate(Model(family="gamma1", m=2.0, sigma=1.0))
    profile, gap = imt_experiment(rate, 0.0, 0.0078, 30.0, 0.025)
    point, _ = imt_experiment(rate, 0.0, 0.0, 30.0, 0.025)
    np.testing.assert_array_equal(profile.values, np.append(point.values, 0.0))
    assert 0.0 <= gap < 1e-10


def test_imt_experiment_gap_shrinks_with_window():
    rate = ClosedFormRate(FIT_ERFC)
    t0 = FIT_ERFC.m - 4.0 * FIT_ERFC.sigma
    windows = [t0 + FIT_ERFC.m + k * FIT_ERFC.sigma for k in (5.0, 10.0, 20.0)]
    gaps = [imt_experiment(rate, 0.0, t0, w)[1] for w in windows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.01


def test_imt_experiment_density_normalized():
    rate = ClosedFormRate(FIT_ERFC)
    profile, gap = imt_experiment(rate, 0.0, 10.0, 80.0)
    step = profile.ages[1] - profile.ages[0]
    assert profile.values.sum() * step == pytest.approx(1.0, abs=1e-12)
    assert gap >= 0.0


def stepped_cohort(rate, mu, t0, big_t, dt):
    """(I_T, gap) of imt_experiment by stepping the labeled cohort big_t / dt times."""
    cells = _CellGrid(rate, mu, dt, big_t + t0 + 2.0 * dt)
    beta = rate(cells.centers)
    if t0 < dt / 2:  # no cell centre <= t0: a unit mass in the first cell
        m = np.zeros_like(cells.centers)
        m[0] = 1.0
    else:
        m = _equilibrium_masses(cells, mu + solve_lambda(rate, mu), t0)
    acc = np.zeros_like(m)
    for _ in range(int(round(big_t / dt))):
        acc += beta * m * dt
        m = np.concatenate(([0.0], (m * cells.keep)[:-1]))
    i_t = acc / (acc.sum() * dt)
    ideal = beta * np.exp(-cells.hazard - mu * cells.centers)
    ideal /= ideal.sum() * dt
    return i_t, float(np.abs(i_t - ideal).sum() * dt)


SHAPES = st.tuples(  # (m, sigma)
    st.floats(min_value=2.0, max_value=20.0), st.floats(min_value=0.5, max_value=4.0)
)
COHORT_MODELS = st.one_of(
    st.builds(lambda ms: Model(family="gamma1", m=ms[0], sigma=ms[1]), SHAPES),
    st.builds(lambda ms: Model(family="gamma2", m=ms[0], sigma=ms[1]), SHAPES),
    st.builds(lambda b, ms: Model(family="erfc", beta0=b, m=ms[0], sigma=ms[1]),
              st.floats(min_value=0.05, max_value=0.5), SHAPES),
)


@given(
    model=COHORT_MODELS,
    mu=st.floats(min_value=0.0, max_value=5.0),
    start=st.floats(min_value=0.0, max_value=1.0),
    widths=st.floats(min_value=0.5, max_value=12.0),
    dt=STEPS,
)
@settings(max_examples=25, deadline=None)
def test_imt_experiment_matches_the_stepped_cohort(model, mu, start, widths, dt):
    # t0 inside the span where the rate vanishes: below m for the gamma families,
    # below m - 4 sigma for erfc; t0 is 0 or covers the first cell center, so the
    # cohort is not empty; the window reaches past m, so divisions are seen
    quiet = model.m if model.family != "erfc" else max(model.m - 4.0 * model.sigma, 0.0)
    t0, big_t = dt * math.floor(start * quiet / dt), model.m + widths * model.sigma
    rate = ClosedFormRate(model)
    profile, gap = imt_experiment(rate, mu, t0, big_t, dt)
    i_t, stepped_gap = stepped_cohort(rate, mu, t0, big_t, dt)
    assert np.abs(profile.values - i_t).max() <= 1e-12 * i_t.max()
    assert abs(gap - stepped_gap) <= 1e-12


@pytest.mark.parametrize(
    "model, mu, t0, big_t",
    [(Model(family="gamma1", m=31.0, sigma=2.0), 40.0, 30.0, 60.0),
     (Model(family="erfc", beta0=0.17879, m=25.007, sigma=3.6141), 1e3, 10.55, 50.55),
     (Model(family="erfc", beta0=0.17879, m=25.007, sigma=3.6141), 1e4, 10.55, 50.55)],
    ids=["gamma1-mu-40", "erfc-mu-1e3", "erfc-mu-1e4"],
)
def test_imt_experiment_gap_is_finite_under_steep_death(model, mu, t0, big_t):
    # beta * exp(-hazard - mu*a) underflows to 0 in every cell: the ideal density
    # must still normalize, without an invalid-value warning; the cohort starts from
    # the root in k = mu + lambda, which mu does not move
    rate = ClosedFormRate(model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        profile, gap = imt_experiment(rate, mu, t0, big_t)
    assert math.isfinite(gap) and 0.0 <= gap <= 2.0
    assert profile.values.sum() * 0.025 == pytest.approx(1.0, abs=1e-12)


def test_numbers_are_kept_as_floats():
    # a float32 mu once made the cells' mu * dt a float32 product, and N moved 1.5e-7
    runs = [simulate(SimConfig(rate=ClosedFormRate(FIT_ERFC_MU), mu=mu, f=0.3, t_end=20.0))
            for mu in (np.float32(0.5), 0.5)]
    np.testing.assert_array_equal(runs[0].N, runs[1].N)
    config = SimConfig(rate=ClosedFormRate(FIT_ERFC), mu=np.float32(0.5), f=np.float32(0.25),
                       t_end=20, dt=np.float32(0.25), a_max=90, mu_q=np.float32(0.5))
    assert all(type(getattr(config, name)) is float
               for name in ("mu", "f", "t_end", "dt", "a_max", "mu_q"))
