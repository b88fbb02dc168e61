"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
one-line PASS summary with the measured values (visible with `pytest -s` or
in captured output).  Criteria cover: inversion fidelity and convergence
order, erfc-form equivalence of the EMG hazard, fit round trips for all five
families, regression against the shipped dataset's reference parameters,
eigenvalue identities, the labeling-fraction identity, the treatment delay,
finite-window convergence of the observed division-age density, scheme
conservation/positivity, and asynchronous equilibration of the age profile.
"""

import time
import warnings

import numpy as np
import pytest

import mitoclock as mc
from mitoclock.checks import SUITES, imt_windows

FIT_ERFC = mc.Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)
FIT_ERFC_MU = mc.Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)
GROWTH_RATE = 0.022

BIN_WIDTH = 10.0 / 8.0
N_BINS = 63  # support up to ~80 h
MIDPOINTS = (np.arange(1, N_BINS + 1) + 0.5) * BIN_WIDTH


def invert_quietly(ages, values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", mc.TruncationWarning)
        return mc.invert_imt(ages, values)


def test_criterion_01_gamma_inversion_fidelity():
    worst = {}
    started = time.perf_counter()
    for family in ("gamma1", "gamma2"):
        model = mc.Model(family=family, m=17.0, sigma=2.0)
        ages = np.arange(0.0, 60.005, 0.01)
        rate = invert_quietly(ages, np.asarray(mc.imt_density(model, ages)))
        err = np.abs(rate.values - np.asarray(mc.division_rate(model, rate.ages))).max()
        assert err < 1e-3
        worst[family] = err
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0

    ratios = {}
    for family in ("gamma1", "gamma2"):
        model = mc.Model(family=family, m=17.0, sigma=2.0)
        errs = {}
        for step in (0.01, 0.005):
            ages = np.arange(0.0, 60.0 + step / 2, step)
            rate = invert_quietly(ages, np.asarray(mc.imt_density(model, ages)))
            errs[step] = np.abs(
                rate.values - np.asarray(mc.division_rate(model, rate.ages))
            ).max()
        ratios[family] = errs[0.01] / errs[0.005]
        assert ratios[family] >= 3.0
    print(
        f"criterion 1: PASS max_err={max(worst.values()):.2e} "
        f"halving_ratios={ratios['gamma1']:.1f},{ratios['gamma2']:.1f} "
        f"runtime={elapsed:.2f}s"
    )


def test_criterion_02_emg_rate_is_an_error_function():
    started = time.perf_counter()
    emg = mc.Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    ages = np.arange(0.0, 60.005, 0.01)
    rate = invert_quietly(ages, np.asarray(mc.imt_density(emg, ages)))
    best, comparison = mc.best_erfc_fit(rate)
    elapsed = time.perf_counter() - started
    assert comparison.r_squared >= 0.9999
    assert elapsed < 1.0
    # sanity: a density built from an erfc rate inverts to that same erfc
    erfc_model = mc.Model(family="erfc", beta0=0.2, m=22.0, sigma=2.0)
    rate2 = invert_quietly(ages, np.asarray(mc.imt_density(erfc_model, ages)))
    self_comparison = mc.erfc_distance(rate2, 0.2, 22.0, 2.0)
    assert self_comparison.r_squared >= 0.999999
    print(
        f"criterion 2: PASS R2={comparison.r_squared:.6f} "
        f"(best erfc beta0={best.beta0:.4f} m={best.m:.2f} sigma={best.sigma:.2f}) "
        f"runtime={elapsed:.2f}s"
    )


def _draw_model(family, rng):
    if family in ("gamma1", "gamma2"):
        return mc.Model(family=family, m=rng.uniform(14.0, 26.0), sigma=rng.uniform(1.5, 4.0))
    if family == "emg":
        return mc.Model(
            family="emg",
            beta0=rng.uniform(0.12, 0.3),
            m=rng.uniform(18.0, 28.0),
            sigma=rng.uniform(1.5, 4.0),
        )
    if family == "erfc":
        return mc.Model(
            family="erfc",
            beta0=rng.uniform(0.1, 0.25),
            m=rng.uniform(18.0, 28.0),
            sigma=rng.uniform(2.0, 5.0),
        )
    return mc.Model(
        family="erfc-mu",
        beta0=rng.uniform(0.1, 0.25),
        m=rng.uniform(18.0, 28.0),
        sigma=rng.uniform(2.0, 5.0),
        mu=rng.uniform(0.001, 0.008),
    )


def test_criterion_03_fit_round_trips_all_families():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst_rel = 0.0
    worst_r2 = 1.0
    for family in mc.FAMILIES:
        for _ in range(20):
            truth = _draw_model(family, rng)
            heights = np.asarray(mc.reweighted_density(truth, GROWTH_RATE, MIDPOINTS))
            hist = mc.Histogram(
                bin_width=BIN_WIDTH, heights=heights, kind=mc.Kind.REWEIGHTED,
                lambda_used=GROWTH_RATE,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", mc.BoundaryWarning)
                result = mc.fit_imt(hist, family, seed=1)
            for name in ("beta0", "m", "sigma", "mu"):
                target = getattr(truth, name)
                if target is not None:
                    rel = abs(getattr(result.model, name) / target - 1.0)
                    assert rel < 0.01, (family, name, truth, result.model)
                    worst_rel = max(worst_rel, rel)
            assert result.r_squared >= 0.9999
            worst_r2 = min(worst_r2, result.r_squared)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"criterion 3: PASS worst_rel_err={worst_rel:.2e} worst_R2={worst_r2:.6f} "
        f"runtime={elapsed:.1f}s"
    )


def test_criterion_04_shipped_histogram_regression(data_dir):
    hist = mc.load_histogram(data_dir / "imt_histogram.csv", bin_width=BIN_WIDTH)
    reweighted = mc.reweight(mc.normalize(hist), GROWTH_RATE)

    plain = mc.fit_imt(reweighted, "erfc", seed=0)
    for name in ("beta0", "m", "sigma"):
        assert getattr(plain.model, name) == pytest.approx(getattr(FIT_ERFC, name), rel=0.10)
    plain_mass = mc.mass_check(plain)
    assert plain_mass.ok, plain.integral_i_tilde

    with_death = mc.fit_imt(reweighted, "erfc-mu", seed=0)
    for name in ("beta0", "m", "sigma"):
        assert getattr(with_death.model, name) == pytest.approx(
            getattr(FIT_ERFC_MU, name), rel=0.10
        )
    assert 0.001 <= with_death.model.mu <= 0.01
    death_mass = mc.mass_check(with_death)
    assert death_mass.ok, with_death.integral_i_tilde
    print(
        "criterion 4: PASS "
        f"erfc=({plain.model.beta0:.4f},{plain.model.m:.2f},{plain.model.sigma:.3f}) "
        f"int={plain.integral_i_tilde:.4f} | "
        f"erfc-mu=({with_death.model.beta0:.4f},{with_death.model.m:.2f},"
        f"{with_death.model.sigma:.3f},{with_death.model.mu:.5f}) "
        f"int={with_death.integral_i_tilde:.4f}"
    )


def test_criterion_05_eigen_consistency():
    span = 80.0
    constant = mc.TabulatedRate([0.0, span], [0.5, 0.5])
    lam_const = mc.solve_lambda(constant, 0.0)
    assert lam_const == pytest.approx(0.5, abs=1e-10)

    delta = 0.0123
    lam_mu = mc.solve_lambda(constant, 0.004, step=0.05)
    lam_mu_shifted = mc.solve_lambda(constant, 0.004 + delta, step=0.05)
    assert lam_mu_shifted == pytest.approx(lam_mu - delta, abs=1e-10)

    rate = mc.ClosedFormRate(FIT_ERFC_MU)
    lam = mc.solve_lambda(rate, FIT_ERFC_MU.mu)
    assert lam == pytest.approx(GROWTH_RATE, rel=0.10)
    print(
        f"criterion 5: PASS const_err={abs(lam_const - 0.5):.1e} "
        f"shift_err={abs(lam_mu_shifted - (lam_mu - delta)):.1e} "
        f"lambda={lam:.5f} (vs {GROWTH_RATE})"
    )


def test_criterion_06_quiescent_fraction_identity():
    started = time.perf_counter()
    # f = 0, 0.3, 0.6, 0.84 without death, then 0.3, 0.6, 0.84 with mu = 0.00333
    checks = SUITES["fraction"](FIT_ERFC_MU)
    assert len(checks) == 7
    worst_clean = max(check.value for check in checks[:4])
    assert worst_clean < 1e-4
    worst_death = max(check.value for check in checks[4:])
    assert worst_death < 0.01
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 6: PASS |F-f|: mu=0 {worst_clean:.1e}, "
        f"mu=0.00333 {worst_death:.4f} runtime={elapsed:.1f}s"
    )


def test_criterion_07_treatment_delay():
    started = time.perf_counter()
    rate = mc.ClosedFormRate(FIT_ERFC_MU)
    runs = {}
    for f in (0.0, 0.6, 0.84):
        config = mc.SimConfig(rate=rate, mu=FIT_ERFC_MU.mu, f=f, t_end=45.0, dt=0.05)
        runs[f] = mc.simulate(config)
    elapsed = time.perf_counter() - started
    t = runs[0.0].times
    log_ratio = {f: np.log(out.N / out.N[0]) for f, out in runs.items()}
    gap = np.abs(log_ratio[0.84] - log_ratio[0.0])
    early = gap[t <= 18.0].max()
    at_40 = gap[np.searchsorted(t, 40.0)]
    assert early < 1e-4
    assert at_40 > 0.02
    assert elapsed < 30.0
    print(
        f"criterion 7: PASS early_gap={early:.1e} gap(40h)={at_40:.3f} "
        f"runtime={elapsed:.1f}s"
    )


def test_criterion_08_observation_window_convergence():
    _, decreasing = SUITES["imt-convergence"](FIT_ERFC)
    gaps = decreasing.value
    _, windows = imt_windows(FIT_ERFC)
    assert gaps[-1] < 0.02
    assert gaps[0] > gaps[1] > gaps[2]
    print(
        "criterion 8: PASS gaps="
        + ", ".join(f"{g:.2e}" for g in gaps)
        + f" at T={', '.join(f'{w:.0f}' for w in windows)}"
    )


def test_criterion_09_scheme_quality():
    # exact mass transport over 200 h
    zero = mc.TabulatedRate([0.0, 300.0], [0.0, 0.0])
    bump = mc.CustomProfile(np.array([0.0, 1.0, 9.0, 10.0]), np.array([0.0, 0.1, 0.1, 0.0]))
    config = mc.SimConfig(
        rate=zero, mu=0.0, f=0.0, t_end=200.0, dt=0.05, a_max=220.0, initial=bump
    )
    out = mc.simulate(config)
    transport_drift = np.abs(out.N / out.N[0] - 1.0).max()
    assert transport_drift < 1e-12
    assert np.all(out.final_profile.values >= 0)

    # weighted-mass conservation along the growing solution
    drift, lowest, _ = SUITES["gre"](FIT_ERFC_MU)
    gre_drift = drift.value
    assert gre_drift < 0.005
    assert lowest.value >= 0
    print(
        f"criterion 9: PASS transport_drift={transport_drift:.1e} "
        f"gre_drift={gre_drift:.2e}"
    )


def test_criterion_10_asynchronous_exponential_growth():
    model = mc.Model(family="gamma2", m=17.0, sigma=2.0)
    rate = mc.ClosedFormRate(model)
    pair = mc.equilibrium(rate, 0.0, step=0.05)
    start = mc.CustomProfile(np.array([0.0, 10.0]), np.array([0.1, 0.1]))
    config = mc.SimConfig(
        rate=rate, mu=0.0, f=0.0, t_end=200.0, dt=0.05, a_max=215.0, initial=start
    )
    sample_times = list(range(0, 201, 20))
    out = mc.simulate(config, snapshot_times=sample_times)
    centers = out.final_profile.ages
    dt = config.dt
    phi = np.interp(centers, pair.grid, pair.phi)
    p_hat = np.interp(centers, pair.grid, pair.p_hat, right=0.0)
    rho0 = float((phi * out.snapshots[0][1]).sum() * dt)
    gaps = []
    for t, dens in out.snapshots:
        scaled = dens * np.exp(-pair.lam * t) / rho0
        gaps.append(float((np.abs(scaled - p_hat) * phi).sum() * dt))
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.05
    print(
        f"criterion 10: PASS gap(200h)={gaps[-1]:.4f} "
        f"monotone over {len(gaps)} samples from gap(0)={gaps[0]:.3f}"
    )
