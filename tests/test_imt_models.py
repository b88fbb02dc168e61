import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from mitoclock import (
    FAMILIES,
    ClosedFormRate,
    FitResult,
    Histogram,
    Kind,
    Model,
    TabulatedRate,
    UnsupportedVariantError,
    ValidationError,
    cumulative_hazard,
    division_rate,
    erfc,
    erfc_integral,
    fit_imt,
    fitter,
    imt_density,
    imt_models,
    mass_check,
    model_from_dict,
    model_from_json,
    reweighted_density,
    solve_lambda,
    spectral,
)
from mitoclock.imt_models import _density, _emg_density, reweighted_mass

FIT_ERFC = Model(family="erfc", beta0=0.14204, m=24.456, sigma=3.3451)
FIT_ERFC_MU = Model(family="erfc-mu", beta0=0.17879, m=25.007, sigma=3.6141, mu=0.00333)


# --- independent oracles -------------------------------------------------

def erfc_series(z: float) -> float:
    """Maclaurin series for erf, accurate to ~1e-15 for |z| <= 3."""
    term = z
    total = 0.0
    for n in range(0, 60):
        total += term / (2 * n + 1)
        term *= -z * z / (n + 1)
    return 1.0 - 2.0 / math.sqrt(math.pi) * total


def simpson_quad(f, a, b, n=4000):
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * n)
    return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


# --- complementary error function ----------------------------------------

def test_erfc_reference_values():
    assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)
    assert erfc(1.0) == pytest.approx(0.15729920705, abs=1e-11)
    assert erfc(30.0) == pytest.approx(0.0, abs=1e-300)
    assert erfc(-30.0) == pytest.approx(2.0, abs=1e-15)


def test_erfc_matches_series_oracle():
    zs = np.linspace(-3.0, 3.0, 121)
    worst = max(abs(float(erfc(z)) - erfc_series(float(z))) for z in zs)
    assert worst < 1e-13


def test_erfc_matches_scipy_to_rounding():
    zs = np.linspace(-30.0, 26.0, 56001)
    np.testing.assert_allclose(erfc(zs), special.erfc(zs), rtol=6e-14, atol=0)
    assert type(erfc(0.5)) is float and erfc(np.arange(3.0).reshape(3, 1)).shape == (3, 1)


@given(z=st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_erfc_reflection(z):
    assert float(erfc(-z)) == pytest.approx(2.0 - float(erfc(z)), abs=1e-14)


# --- integral of the erfc rate --------------------------------------------

def test_erfc_integral_vanishes_at_zero():
    assert erfc_integral(24.0, 3.0, 0.0) == 0.0
    assert erfc_integral(0.0, 1.0, 0.0) == 0.0


@pytest.mark.parametrize("m, sigma", [(24.0, 0.0), (24.0, -1.0), (float("nan"), 3.0)])
def test_erfc_integral_rejects_bad_parameters(m, sigma):
    with pytest.raises(ValidationError):
        erfc_integral(m, sigma, [2.0, 20.0])


def test_erfc_integral_against_quadrature():
    m, sigma = 0.0, 1.0
    expected = simpson_quad(lambda x: float(erfc((m - x) / sigma)), 0.0, 5.0)
    assert float(erfc_integral(m, sigma, 5.0)) == pytest.approx(expected, abs=1e-9)


@given(
    m=st.floats(min_value=0.0, max_value=30.0),
    sigma=st.floats(min_value=0.3, max_value=6.0),
    a=st.floats(min_value=0.0, max_value=60.0),
)
@example(m=13.0, sigma=0.3125, a=56.0)
@settings(max_examples=50, deadline=None)
def test_erfc_integral_random_parameters(m, sigma, a):
    # the rise at m can be far narrower than [0, a]: without the break point quad's
    # own error reaches 4e-9 (m 13, sigma 0.3125, a 56, where the integral is 86)
    expected, _ = integrate.quad(
        lambda x: float(erfc((m - x) / sigma)), 0.0, a, limit=200, epsabs=1e-13,
        points=[m] if 0.0 < m < a else None,
    )
    assert float(erfc_integral(m, sigma, a)) == pytest.approx(expected, abs=1e-9)


def test_erfc_integral_limiting_slope_is_two():
    # far past m the integrand saturates at erfc(-inf) = 2
    m, sigma = 10.0, 2.0
    v1 = float(erfc_integral(m, sigma, 100.0))
    v2 = float(erfc_integral(m, sigma, 101.0))
    assert v2 - v1 == pytest.approx(2.0, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_erfc_integral_overflows_to_inf_without_a_warning():
    values = erfc_integral(10.0, 1.0, [1e200, 1e308, 1.7e308])
    np.testing.assert_allclose(values, [2e200, math.inf, math.inf], rtol=1e-15)


# --- division rates --------------------------------------------------------

def test_gamma1_rate_values():
    g1 = Model(family="gamma1", m=17.0, sigma=2.0)
    assert float(division_rate(g1, 17.0)) == 0.0
    assert float(division_rate(g1, 10.0)) == 0.0
    assert float(division_rate(g1, 19.0)) == pytest.approx(0.25, abs=1e-15)
    assert float(division_rate(g1, 1e7)) == pytest.approx(0.5, rel=1e-6)


def test_erfc_rate_at_minimum_age():
    assert float(division_rate(FIT_ERFC, FIT_ERFC.m)) == pytest.approx(0.14204, abs=1e-12)


def test_emg_rate_unsupported():
    emg = Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    with pytest.raises(UnsupportedVariantError, match="invert"):
        division_rate(emg, 10.0)
    with pytest.raises(UnsupportedVariantError):
        cumulative_hazard(emg, 10.0)
    with pytest.raises(UnsupportedVariantError):
        ClosedFormRate(emg)


@pytest.mark.parametrize(
    "model",
    [
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=17.0, sigma=2.0),
        FIT_ERFC,
        FIT_ERFC_MU,
    ],
    ids=lambda m: m.family,
)
def test_rates_are_nondecreasing(model):
    ages = np.linspace(0.0, 120.0, 4000)
    values = np.asarray(division_rate(model, ages))
    assert np.all(np.diff(values) >= -1e-15)
    assert np.all(values >= 0)


@pytest.mark.parametrize(
    "model",
    [
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=17.0, sigma=2.0),
        FIT_ERFC,
    ],
    ids=lambda m: m.family,
)
def test_hazard_matches_quadrature_of_rate(model):
    # gamma rates vanish below m, so integrate their smooth piece only;
    # the erfc rate is smooth everywhere
    for a in (5.0, 18.0, 23.0, 40.0, 75.0):
        lo = min(model.m, a) if model.family.startswith("gamma") else 0.0
        expected = simpson_quad(lambda x: float(division_rate(model, x)), lo, a, n=3000)
        assert float(cumulative_hazard(model, a)) == pytest.approx(expected, abs=1e-9)


# --- IMT densities ----------------------------------------------------------

def test_gamma_density_support():
    g1 = Model(family="gamma1", m=17.0, sigma=2.0)
    ages = np.linspace(0.0, 17.0, 50)
    assert np.all(np.asarray(imt_density(g1, ages)) == 0.0)
    assert float(imt_density(g1, 19.0)) > 0.0


@pytest.mark.parametrize(
    "model",
    [
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=17.0, sigma=2.0),
        Model(family="emg", beta0=0.2, m=22.0, sigma=2.0),
        FIT_ERFC,
        FIT_ERFC_MU,
    ],
    ids=lambda m: m.family,
)
def test_density_has_unit_mass(model):
    points = [model.m] if model.m > 0 else None
    mass, _ = integrate.quad(
        lambda a: float(imt_density(model, a)), 0.0, model.m + 60.0 * model.sigma,
        points=points, limit=300,
    )
    assert mass == pytest.approx(1.0, abs=1e-8)


def quad_mass(f, m, lo=0.0):
    """Integral of the scalar function f over [lo, inf), split at m (scipy quad)."""
    head = integrate.quad(f, lo, m, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
    return head + integrate.quad(f, m, np.inf, limit=400, epsabs=1e-15, epsrel=1e-13)[0]


def reference_reweighted_mass(model, lam):
    """Mass of reweighted_density(model, lam, .) over [0, inf), by quad_mass."""
    return quad_mass(lambda a: float(reweighted_density(model, lam, a)), model.m)


def reference_density_mass(model):
    """Mass of imt_density by quad_mass; emg's over the whole line, where it is defined."""
    # imt_density is rate * survival * exp(-mu*a) (emg: its density) over a constant
    # norm: quad integrates that shape, and the norm is read off at one age
    def shape(a):
        return float(reweighted_density(model, 0.0, a)) / 2.0

    probe = model.m + model.sigma
    norm = shape(probe) / float(imt_density(model, probe))
    return quad_mass(shape, model.m, -np.inf if model.family == "emg" else 0.0) / norm


WIDE_MODELS = st.builds(
    lambda family, m, sigma, beta0, mu: Model(
        family=family, m=m, sigma=sigma,
        beta0=beta0 if "beta0" in imt_models.PARAMS[family] else None,
        mu=mu if family == "erfc-mu" else None,
    ),
    st.sampled_from(FAMILIES),
    st.floats(min_value=5.0, max_value=30.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.02, max_value=0.4),
    st.floats(min_value=0.0, max_value=0.05),
)


@given(model=WIDE_MODELS, lam=st.floats(min_value=0.0, max_value=0.06))
@settings(max_examples=30, deadline=None)
def test_masses_match_quadrature_to_infinity(model, lam):
    assert reference_density_mass(model) == pytest.approx(1.0, abs=1e-10)
    expected = reference_reweighted_mass(model, lam)
    assert reweighted_mass(model, lam) == pytest.approx(expected, rel=1e-10)
    # the model's own growth rate, where the reweighted density has unit mass; the
    # reweighted mass is 2 at -mu for a closed form, and grows without bound towards
    # -2*beta0 for emg, whose density can put most of its mass below age 0
    lo = -model.death_rate if model.family != "emg" else -1.99 * model.beta0
    own = optimize.brentq(lambda x: reference_reweighted_mass(model, x) - 1.0, lo, 2.0,
                          xtol=1e-13)
    assert reweighted_mass(model, own) == pytest.approx(1.0, abs=1e-10)


def test_narrow_rise_with_slow_plateau_keeps_unit_mass():
    # most of the mass lies past m + 40 sigma, on the plateau's slow exponential tail
    narrow = Model(family="erfc", beta0=0.05, m=10.0, sigma=0.3)
    lam = solve_lambda(ClosedFormRate(narrow), 0.0)
    mass = reweighted_mass(narrow, lam)
    assert mass == pytest.approx(1.0, abs=1e-6)  # solve_lambda's grid error
    fit = FitResult(model=narrow, r_squared=1.0, integral_i_tilde=mass, lambda_used=lam,
                    residuals=np.zeros(1), n_evaluations=0)
    assert mass_check(fit).ok
    with_death = Model(family="erfc-mu", beta0=0.05, m=10.0, sigma=0.3, mu=0.01)
    assert reference_density_mass(with_death) == pytest.approx(1.0, abs=1e-10)


def test_reweighting_that_outgrows_the_tail_is_rejected():
    emg = Model(family="emg", beta0=0.05, m=20.0, sigma=1.0)  # tail decays as exp(-0.1 a)
    with pytest.raises(ValidationError, match="lambda = -0.1"):
        reweighted_mass(emg, -0.1)
    slow = reference_reweighted_mass(emg, -0.09)  # tail decays as exp(-0.01 a)
    assert reweighted_mass(emg, -0.09) == pytest.approx(slow, rel=1e-10)


def test_mass_below_age_zero_is_zero_without_overflow_warning():
    # beta0*sigma = 1e300 puts the emg mode ~1e300 h below age 0: on [0, inf) the
    # density underflows, and its exponent overflows on the way
    emg = Model(family="emg", beta0=1e300, m=10.0, sigma=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert reweighted_mass(emg, 0.0) == 0.0


def test_parameters_are_kept_as_floats():
    # to_json once raised TypeError on float32 parameters
    single = Model(family="erfc-mu", beta0=np.float32(0.25), m=np.float32(24.0),
                   sigma=np.float32(3.5), mu=np.float32(0.5))
    assert single.to_json() == Model(family="erfc-mu", beta0=0.25, m=24.0, sigma=3.5,
                                     mu=0.5).to_json()
    integers = Model(family="gamma1", m=10, sigma=2)
    assert all(type(value) is float for value in (single.beta0, single.m, single.sigma,
                                                   single.mu, integers.m, integers.sigma))


def model_of(family, m, sigma, beta0=0.2):
    """A model of the family at (m, sigma), with beta0 and mu 0.01 where it takes them."""
    names = imt_models.PARAMS[family]
    return Model(family=family, m=m, sigma=sigma, beta0=beta0 if "beta0" in names else None,
                 mu=0.01 if "mu" in names else None)


@pytest.fixture
def panels(monkeypatch):
    """The number of Gauss-Legendre panels of each mass taken while the test runs."""
    counts = []
    gauss_legendre = imt_models._gauss_legendre

    def counting(edges, rule):
        counts.append(edges.size - 1)
        return gauss_legendre(edges, rule)

    monkeypatch.setattr(imt_models, "_gauss_legendre", counting)
    return counts


def piecewise_reference_mass(model, lam):
    """Mass of reweighted_density(model, lam, .) by scipy quad, cut within 60 sigma of m and
    of emg's mode, so that no narrow peak lies inside a long interval, and at steps of
    5/(rate(b) + |decay|) around m, so that no piece steps over the density's decay."""
    m, sigma = model.m, model.sigma
    mode = m - (model.beta0 * sigma * sigma if model.family == "emg" else 0.0)
    decay = model.death_rate + lam
    tail = (2.0 * model.beta0 if model.family == "emg"
            else float(division_rate(model, m + 40.0 * sigma)))
    steps = m + 5.0 / (tail + abs(decay)) * np.arange(-200, 201)
    steps = steps[(steps > mode - 60 * sigma) & (steps < m + 60 * sigma)]
    cuts = sorted({max(0.0, c) for c in (0.0, mode - 60 * sigma, mode + 60 * sigma,
                                         m - 60 * sigma, m, m + 60 * sigma, *steps)})

    def f(a):
        return float(reweighted_density(model, lam, a))

    pieces = list(zip(cuts[:-1], cuts[1:])) + [(cuts[-1], np.inf)]
    return sum(integrate.quad(f, lo, hi, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
               for lo, hi in pieces)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("m, sigma", [(10.0, 1e-300), (1e100, 1.0), (10.0, 1e307)])
def test_a_sigma_that_m_plus_40_sigma_does_not_resolve_is_rejected(family, m, sigma, panels):
    # m + 40 sigma rounds to m (or overflows), so no panel can be sigma wide; a gamma
    # family's mass is 2, not infinite, although its rate at m + 40 sigma (that is, at m) is 0
    model = model_of(family, m, sigma)
    with pytest.raises(ValidationError, match="sigma"):
        reweighted_mass(model, 0.0)
    if model.mu is not None:
        with pytest.raises(ValidationError, match="sigma"):
            imt_density(model, [1.0, 20.0])
    assert panels == []


# m/sigma 3e4 and 3e5 at sigma 1e-3: the density is 0 below m - 40 sigma, so the panel
# count does not grow with m/sigma; emg's mass is in closed form, with no panel
BOUNDED_MASSES = [(model_of(family, m, 1e-3), 0.022, [] if family == "emg" else [80])
                  for family in FAMILIES for m in (30.0, 300.0)] + [
    (Model(family="emg", beta0=10.0, m=1000.0, sigma=5.0), 0.0, []),
    (Model(family="emg", beta0=10.0, m=1000.0, sigma=5.0), -0.05, []),
    (Model(family="emg", beta0=1.0, m=1e5, sigma=100.0), 0.01, []),
    (Model(family="emg", beta0=10.0, m=300.0, sigma=5.0), 0.0, []),
]


@pytest.mark.parametrize("model, lam, count", BOUNDED_MASSES,
                         ids=[f"{p.family}-m{p.m:g}-sigma{p.sigma:g}-lam{lam:g}"
                              for p, lam, _ in BOUNDED_MASSES])
def test_masses_take_a_bounded_number_of_panels(model, lam, count, panels):
    mass = reweighted_mass(model, lam)
    assert panels == count
    assert mass == pytest.approx(piecewise_reference_mass(model, lam), rel=1e-10)


# references to 13 digits: at lambda 0 an erfc rate without death divides every cell, so
# its mass is 2; the others are mpmath quadratures at 30 digits
DECAY_MASSES = [
    (Model(family="erfc", beta0=0.1, m=10.0, sigma=1000.0), 0.02, 1.6661275970449),
    (Model(family="erfc", beta0=0.1, m=10.0, sigma=1000.0), 0.0, 2.0),
    (Model(family="erfc", beta0=1.0, m=10.0, sigma=100.0), 0.0, 2.0),
    (Model(family="erfc", beta0=0.1, m=10.0, sigma=1e300), 0.0, 2.0),
    (Model(family="erfc", beta0=1.0, m=1e5, sigma=1000.0), 0.0, 2.0),
    (Model(family="gamma1", m=10.0, sigma=1e4), 0.02, 4.0530222176579e-5),
]


@pytest.mark.parametrize("model, lam, expected", DECAY_MASSES)
def test_panels_follow_a_decay_much_faster_than_sigma(model, lam, expected):
    # sigma-wide panels alone gave 1.99988 and 1.264 for the second and fourth rows,
    # and a gamma1 mass 13 % high
    assert reweighted_mass(model, lam) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("model", [
    Model(family="gamma1", m=10.0, sigma=1e4), Model(family="gamma2", m=0.0, sigma=0.1),
    Model(family="gamma1", m=30.0, sigma=1e-3),
    Model(family="erfc", beta0=2.0, m=10.0, sigma=0.05),
    Model(family="erfc", beta0=10.0, m=30.0, sigma=1.0),
    Model(family="erfc", beta0=1.0, m=1e4, sigma=100.0),  # beta0*sigma 100
    Model(family="erfc", beta0=100.0, m=5.0, sigma=2.0),  # 200
    Model(family="erfc", beta0=0.5, m=300.0, sigma=2000.0),  # 1000
], ids=lambda p: f"{p.family}-m{p.m:g}-sigma{p.sigma:g}")
def test_a_closed_form_without_death_has_mass_two(model):
    # 2 * integral of rate * exp(-hazard) = 2 * (1 - exp(-hazard(inf))) = 2
    assert reweighted_mass(model, 0.0) == pytest.approx(2.0, rel=0, abs=1e-14)


@pytest.mark.parametrize("model, lam, count", [
    (Model(family="erfc", beta0=0.05, m=10.0, sigma=0.3), 0.01, 74),  # narrow: no cut
    (Model(family="erfc", beta0=0.1, m=10.0, sigma=1000.0), 0.02, 97),  # wide
    (Model(family="erfc", beta0=1.0, m=1e4, sigma=100.0), 0.0, 134),  # beta0*sigma 100
    # lambda < -mu: s = hazard + (mu + lambda)*a falls, then rises within one panel
    (Model(family="erfc", beta0=0.1, m=10.0, sigma=1000.0), -0.15, 119),
], ids=["narrow", "wide", "beta0-sigma-100", "falls-then-rises"])
def test_panels_are_cut_where_the_decay_needs_it(model, lam, count, panels):
    mass = reweighted_mass(model, lam)
    assert panels == [count]
    assert mass == pytest.approx(piecewise_reference_mass(model, lam), rel=1e-12)


@pytest.mark.parametrize("beta0, m, sigma, lam", [
    (0.2, 22.0, 2.5, 0.022), (0.375, 5.0, 5.0, 0.0), (0.375, 5.0, 5.0, 0.03),
    (0.1, 30.0, 3.0, -0.02), (0.05, 20.0, 1.0, -0.09), (10.0, 1000.0, 5.0, -0.05),
    (10.0, 300.0, 5.0, 0.0),
])
def test_emg_mass_is_in_closed_form(beta0, m, sigma, lam, panels):
    model = Model(family="emg", beta0=beta0, m=m, sigma=sigma)
    mass = reweighted_mass(model, lam)
    assert panels == []
    assert mass == pytest.approx(piecewise_reference_mass(model, lam), rel=1e-12)


@pytest.mark.parametrize("model, lam", [
    (Model(family="emg", beta0=1.0, m=1000.0, sigma=1.0), -1.9),
    (Model(family="erfc", beta0=1.0, m=1000.0, sigma=1.0), -1.9),
    (Model(family="gamma1", m=1000.0, sigma=1.0), -0.9),
], ids=["emg", "erfc", "gamma1"])
def test_a_mass_that_overflows_is_rejected(model, lam):
    # each tail decays, but exp(-lam*a) grows past the double range before it does
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="overflows"):
            reweighted_mass(model, lam)


def shifted_gamma_pdf(k):
    """scipy's gamma density with shape k, shifted by m and scaled by sigma."""
    return lambda model, ages: stats.gamma.pdf(ages - model.m, k, scale=model.sigma)


def erfc_rate_times_numeric_survival(model, ages):
    """beta0*erfc((m - a)/sigma) * exp(-integral of it), the hazard by quadrature."""
    def rate(a):
        return model.beta0 * math.erfc((model.m - a) / model.sigma)

    hazard = np.array(
        [integrate.quad(rate, 0.0, a, epsabs=1e-14, epsrel=1e-13)[0] for a in ages]
    )
    return np.array([rate(a) for a in ages]) * np.exp(-hazard)


@pytest.mark.parametrize(
    "model, reference",
    [
        (Model(family="gamma1", m=17.0, sigma=2.0), shifted_gamma_pdf(2)),
        (Model(family="gamma2", m=17.0, sigma=2.0), shifted_gamma_pdf(3)),
        (FIT_ERFC, erfc_rate_times_numeric_survival),
    ],
    ids=["gamma1", "gamma2", "erfc"],
)
def test_density_equals_rate_times_survival(model, reference):
    # references independent of division_rate, cumulative_hazard and imt_density
    ages = np.linspace(0.0, 80.0, 400)
    direct = np.asarray(imt_density(model, ages))
    np.testing.assert_allclose(direct, reference(model, ages), atol=1e-15, rtol=1e-11)


def emg_density_reference(beta0, m, sigma, a):
    """The emg density in scipy's scaled form: erfcx(z)*exp(-(z - bs)^2) for z > 0."""
    z = (m - a) / sigma
    bs = beta0 * sigma
    upper = special.erfcx(np.abs(z)) * np.exp(-((z - bs) ** 2))
    lower = special.erfc(z) * np.exp(bs * (2.0 * np.minimum(z, 0.0) - bs))
    return beta0 * np.where(z > 0, upper, lower)


@given(
    bs=st.one_of(st.floats(min_value=1e-3, max_value=20.0),
                 st.floats(min_value=20.0, max_value=60.0)),
    sigma=st.floats(min_value=0.05, max_value=10.0),
    m=st.floats(min_value=0.0, max_value=60.0),
    zs=st.lists(st.floats(min_value=-40.0, max_value=80.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_emg_density_matches_the_scaled_scipy_form(bs, sigma, m, zs):
    # z = (m - a)/sigma past 26 takes the asymptotic erfcx branch
    zs = np.array(zs + [26.0, np.nextafter(26.0, 30.0), 26.5, 30.0, bs])
    ages = m - sigma * zs
    expected = emg_density_reference(bs / sigma, m, sigma, ages)
    got = _emg_density(bs / sigma, m, sigma, ages, 0.0)
    shown = expected > 1e-280
    np.testing.assert_allclose(got[shown], expected[shown], rtol=1e-12, atol=0)
    assert np.all(got[~shown] <= 1e-279)


def test_emg_density_is_skewed_unimodal():
    emg = Model(family="emg", beta0=0.2, m=22.0, sigma=2.0)
    ages = np.linspace(0.0, 60.0, 2401)
    dens = np.asarray(imt_density(emg, ages))
    peak = int(np.argmax(dens))
    assert np.all(np.diff(dens[: peak + 1]) >= -1e-12)
    assert np.all(np.diff(dens[peak:]) <= 1e-12)
    mode = ages[peak]
    mean = float(np.trapezoid(ages * dens, ages))
    assert mean > mode  # positive skew


# --- reweighted densities ----------------------------------------------------

NAN, INF = float("nan"), float("inf")
BAD_AGES = {"none": None, "string": "x", "nan": NAN, "inf": INF,
            "list-with-none": [1.0, None], "array-with-nan": np.array([10.0, NAN])}


DENSITIES = {"imt_density": imt_density,
             "reweighted_density": lambda model, a: reweighted_density(model, 0.022, a)}
AGE_MODELS = {"gamma1": Model(family="gamma1", m=17.0, sigma=2.0), "erfc-mu": FIT_ERFC_MU,
              "emg": Model(family="emg", beta0=0.2, m=22.0, sigma=2.5)}


@pytest.mark.parametrize("a", BAD_AGES.values(), ids=BAD_AGES)
@pytest.mark.parametrize("density", DENSITIES.values(), ids=DENSITIES)
@pytest.mark.parametrize("model", AGE_MODELS.values(), ids=AGE_MODELS)
def test_density_rejects_an_age_that_is_not_a_finite_number(density, model, a):
    # imt_density(gamma1, None) was nan: numpy reads None as nan
    with pytest.raises(ValidationError, match="age must be finite numbers"):
        density(model, a)


def test_reweighted_density_zero_lambda_doubles_mass():
    model = Model(family="gamma2", m=17.0, sigma=2.0)
    mass, _ = integrate.quad(
        lambda a: float(reweighted_density(model, 0.0, a)), 0.0, 200.0,
        points=[model.m], limit=300,
    )
    assert mass == pytest.approx(2.0, abs=1e-8)


def test_reweighted_mass_for_fitted_parameter_sets():
    mass5, _ = integrate.quad(
        lambda a: float(reweighted_density(FIT_ERFC, 0.022, a)), 0.0, 250.0, limit=300
    )
    mass6, _ = integrate.quad(
        lambda a: float(reweighted_density(FIT_ERFC_MU, 0.022, a)), 0.0, 250.0, limit=300
    )
    assert mass5 == pytest.approx(1.0983, abs=3e-3)
    assert mass6 == pytest.approx(1.0132, abs=3e-3)


@pytest.mark.parametrize(
    "model",
    [
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=17.0, sigma=2.0),
        Model(family="emg", beta0=0.2, m=22.0, sigma=2.0),
        FIT_ERFC,
    ],
    ids=lambda m: m.family,
)
def test_reweighted_density_is_twice_the_discounted_density_without_death(model):
    ages = np.linspace(0.0, 120.0, 2401)
    for lam in (0.0, 0.022, 0.1):
        expected = 2.0 * np.asarray(imt_density(model, ages)) * np.exp(-lam * ages)
        np.testing.assert_allclose(
            np.asarray(reweighted_density(model, lam, ages)), expected, rtol=1e-13, atol=0
        )


def test_reweighted_density_that_overflows_is_a_validation_error():
    # exp(1000*a) overflows: 0 * inf below m would be nan, and inf above it
    model = Model(family="gamma1", m=10.0, sigma=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="lambda = -1000"):
            reweighted_density(model, -1000.0, [1.0, 20.0, 1000.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model", [
    FIT_ERFC,
    FIT_ERFC_MU,
    Model(family="erfc", beta0=0.2, m=20.0, sigma=1e-3),
    Model(family="erfc-mu", beta0=0.2, m=20.0, sigma=3.0, mu=10.0),
], ids=lambda m: f"{m.family}-sigma{m.sigma:g}-mu{m.death_rate:g}")
def test_erfc_density_is_zero_where_its_hazard_overflows(model):
    # exp(-hazard) underflows; the hazard itself, 2*beta0*(a - m), fits in a double
    ages = [1e200, 1e308, np.finfo(float).max]
    np.testing.assert_array_equal(imt_density(model, ages), np.zeros(3))
    hazard = cumulative_hazard(model, ages)
    np.testing.assert_allclose(hazard, 2.0 * model.beta0 * np.array(ages), rtol=1e-15)


HAZARD_SIGMA_1E_3 = [1e203, math.inf, math.inf]
HUGE_AGES = {
    # h = x/sigma overflows at 1e308, where h - log1p(h) would be inf - inf = nan
    "gamma1-sigma1e-3": (Model(family="gamma1", m=10.0, sigma=1e-3), 1e3, HAZARD_SIGMA_1E_3),
    # x^2 overflows past 1e154: x^2/x^2 would be nan, and h - log1p(h^2/2) -inf
    "gamma2-sigma1e-3": (Model(family="gamma2", m=10.0, sigma=1e-3), 1e3, HAZARD_SIGMA_1E_3),
    # sigma * (sigma + x) overflows at 1e308, where x / inf would be 0
    "gamma1-sigma2": (Model(family="gamma1", m=10.0, sigma=2.0), 0.5, [5e199, 5e307, 8.5e307]),
    "gamma2-sigma2": (Model(family="gamma2", m=10.0, sigma=2.0), 0.5, [5e199, 5e307, 8.5e307]),
    # z*z overflows past 1e154, and 2*(a - m) at 1.7e308, where 2*beta0*(a - m) does not
    "erfc": (Model(family="erfc", beta0=0.2, m=10.0, sigma=1.0), 0.4, [4e199, 4e307, 6.8e307]),
    # z = (m - a)/sigma itself overflows at 1e308
    "erfc-sigma1e-3": (Model(family="erfc", beta0=0.2, m=10.0, sigma=1e-3), 0.4,
                       [4e199, 4e307, 6.8e307]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("model, rate, hazard", HUGE_AGES.values(), ids=HUGE_AGES)
def test_closed_forms_reach_their_limits_at_huge_ages(model, rate, hazard):
    ages = [1e200, 1e308, 1.7e308]
    np.testing.assert_allclose(division_rate(model, ages), rate, rtol=1e-15)
    np.testing.assert_allclose(cumulative_hazard(model, ages), hazard, rtol=1e-15)
    for a, expected in zip(ages, hazard):
        assert float(division_rate(model, a)) == pytest.approx(rate, rel=1e-15)
        assert float(cumulative_hazard(model, a)) == pytest.approx(expected, rel=1e-15)


def test_reweighted_density_bypasses_normalization_for_death_family():
    a = np.linspace(0.0, 90.0, 200)
    expected = (
        2.0
        * np.asarray(division_rate(FIT_ERFC_MU, a))
        * np.exp(
            -np.asarray(cumulative_hazard(FIT_ERFC_MU, a))
            - (FIT_ERFC_MU.mu + 0.022) * a
        )
    )
    np.testing.assert_allclose(
        np.asarray(reweighted_density(FIT_ERFC_MU, 0.022, a)), expected, rtol=1e-14
    )


@pytest.mark.parametrize("model", [FIT_ERFC, FIT_ERFC_MU], ids=["erfc", "erfc-mu"])
def test_erfc_density_evaluates_erfc_once_per_age_array(monkeypatch, model):
    # rate and hazard share one erfc(z); only erfc(m/sigma) is evaluated besides it
    array_shapes = []

    def counting_erfc(z):
        if np.ndim(z):
            array_shapes.append(np.shape(z))
        return erfc(z)

    monkeypatch.setattr(imt_models, "erfc", counting_erfc)
    ages = (np.arange(63) + 0.5) * 1.25
    reweighted_density(model, 0.022, ages)
    assert array_shapes == [(63,)]


# --- Jacobians in the parameters ---------------------------------------------

FIT_AGES = (np.arange(1, 64) + 0.5) * 1.25  # the midpoints of a 63-bin histogram


def density_and_jacobian(family, theta, lam, ages):
    """reweighted_density at the parameters theta and its Jacobian, shape (ages,
    parameters), from imt_models._density as fit_imt's residual function builds them."""
    density, partials = _density(family, theta, ages, lam, partials=True)
    return 2.0 * density, 2.0 * partials.T


@pytest.mark.parametrize(
    "model",
    [
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=17.0, sigma=2.0),
        Model(family="emg", beta0=0.2, m=60.0, sigma=1.0),  # past z = 26 below age 34
        FIT_ERFC,
        FIT_ERFC_MU,
    ],
    ids=lambda m: m.family,
)
def test_fit_residuals_are_the_reweighted_density_bit_for_bit(model, monkeypatch):
    lam = 0.022
    heights = reweighted_density(model, lam, FIT_AGES)
    h = Histogram(bin_width=1.25, heights=heights, kind=Kind.REWEIGHTED, lambda_used=lam)
    solves = []
    least_squares = fitter._least_squares

    def recording(residual_and_jacobian, *args):
        solves.append(residual_and_jacobian)
        return least_squares(residual_and_jacobian, *args)

    monkeypatch.setattr(fitter, "_least_squares", recording)
    fit_imt(h, model.family)
    theta = [getattr(model, name) for name in imt_models.PARAMS[model.family]]
    residuals, jac = solves[0](np.array(theta))
    # the heights are reweighted_density at theta, so the fit's density minus them is 0
    # exactly where, and only where, that density is reweighted_density bit for bit
    assert not residuals.any()
    assert np.array_equal(jac, density_and_jacobian(model.family, theta, lam, FIT_AGES)[1])


@given(model=WIDE_MODELS, lam=st.floats(min_value=0.0, max_value=0.06),
       far=st.floats(min_value=26.0, max_value=27.5))
@settings(max_examples=150, deadline=None)
def test_jacobian_matches_central_differences(model, lam, far):
    names = imt_models.PARAMS[model.family]
    theta = np.array([getattr(model, name) for name in names])
    # emg also past z = (m - a)/sigma = 26, where its density takes the erfcx series
    ages = np.append(FIT_AGES, model.m - model.sigma * np.array([25.5, far]))
    value, jac = density_and_jacobian(model.family, theta, lam, ages)
    assert np.array_equal(value, reweighted_density(model, lam, ages))
    assert jac.shape == (ages.size, theta.size)

    # each parameter on its own scale (m moves the density on the sigma scale), so that
    # a partial times its scale is comparable with the density
    scale = np.array([{"beta0": model.beta0, "m": model.sigma, "sigma": model.sigma,
                       "mu": 0.01}[name] for name in names])
    central = np.empty_like(jac)
    for k in range(theta.size):
        step = np.zeros_like(theta)
        step[k] = 1e-7 * scale[k]
        upper = density_and_jacobian(model.family, theta + step, lam, ages)[0]
        lower = density_and_jacobian(model.family, theta - step, lam, ages)[0]
        central[:, k] = (upper - lower) / (2.0 * step[k])
    # a density below 1e-280 carries few digits, and a gamma density has a kink at m
    shown = (value > 1e-280) & (np.abs(ages - model.m) > 1e-3)
    scaled = np.abs(jac[shown]) * scale
    err = np.abs(central[shown] - jac[shown]) * scale
    # the density carries a rounding error of about eps*|log density| relative, which
    # the quotient's step of 1e-7 magnifies
    density = value[shown, None]
    rounding = 1e-8 * density * (1.0 + np.abs(np.log(density)))
    assert np.all(err <= 1e-6 * scaled + rounding), (err / (scaled + rounding)).max()


# --- model construction and serialization -----------------------------------

def test_model_validation():
    with pytest.raises(ValidationError):
        Model(family="nope", m=1.0, sigma=1.0)
    with pytest.raises(ValidationError):
        Model(family="gamma1", m=1.0, sigma=0.0)
    with pytest.raises(ValidationError):
        Model(family="gamma1", m=-1.0, sigma=1.0)
    with pytest.raises(ValidationError):
        Model(family="erfc", m=1.0, sigma=1.0)  # missing beta0
    with pytest.raises(ValidationError):
        Model(family="erfc-mu", beta0=0.1, m=1.0, sigma=1.0)  # missing mu
    with pytest.raises(ValidationError):
        Model(family="gamma1", m=1.0, sigma=1.0, beta0=0.1)


def test_model_json_round_trip():
    one_per_family = (
        Model(family="gamma1", m=17.0, sigma=2.0),
        Model(family="gamma2", m=19.0, sigma=2.5),
        Model(family="emg", beta0=0.2, m=22.0, sigma=2.0),
        FIT_ERFC,
        FIT_ERFC_MU,
    )
    assert tuple(model.family for model in one_per_family) == FAMILIES
    for model in one_per_family:
        assert model_from_json(model.to_json()) == model


def test_model_from_json_reads_utf8_bytes_and_fit_result_files():
    fit_result = f'{{"model": {FIT_ERFC_MU.to_json()}, "r_squared": 0.99}}'
    assert model_from_json(fit_result) == FIT_ERFC_MU
    assert model_from_json(fit_result.encode("utf-8")) == FIT_ERFC_MU
    with pytest.raises(ValidationError):
        model_from_json(fit_result.encode("utf-16"))


@pytest.mark.parametrize(
    "payload",
    [
        [1.0, 2.0],
        "erfc",
        {"family": "gamma1", "m": "x", "sigma": 2.0},
        {"family": "gamma1", "m": [17.0], "sigma": 2.0},
        {"family": "gamma1", "sigma": 2.0},
        {"family": "erfc", "m": 24.0, "sigma": 3.0},
        {"family": "gamma1", "m": 17.0, "sigma": 2.0, "beta0": 0.1},
        {"family": "gauss", "m": 17.0, "sigma": 2.0},
        {"family": ["gamma1"], "m": 17.0, "sigma": 2.0},
    ],
    ids=[
        "list", "string", "text-field", "list-field", "missing-m", "missing-beta0",
        "extra-beta0", "unknown-family", "unhashable-family",
    ],
)
def test_model_from_dict_rejects_malformed_objects(payload):
    with pytest.raises(ValidationError):
        model_from_dict(payload)


@pytest.mark.parametrize("text", ["{", "", "not json", '{"family": "erfc", "m": 1'])
def test_model_from_json_rejects_malformed_text(text):
    with pytest.raises(ValidationError):
        model_from_json(text)


# --- tabulated rates ----------------------------------------------------------

def test_tabulated_rate_interpolates_and_clamps():
    rate = TabulatedRate([1.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    assert float(rate(1.5)) == pytest.approx(0.5)
    assert float(rate(0.0)) == 0.0
    assert float(rate(10.0)) == 2.0


def test_tabulated_hazard_is_exact_for_piecewise_linear_rates():
    ages = np.array([0.0, 5.0, 10.0, 30.0])
    values = np.array([0.0, 0.2, 0.2, 0.6])
    rate = TabulatedRate(ages, values)
    for a in (2.5, 5.0, 7.0, 20.0, 30.0, 45.0):
        knots = [float(k) for k in ages if 0.0 < k < a]
        expected, _ = integrate.quad(
            lambda x: float(rate(x)), 0.0, a, points=knots or None, limit=200
        )
        assert float(rate.hazard(a)) == pytest.approx(expected, rel=1e-11, abs=1e-11)


def test_tabulated_hazard_below_table_start():
    rate = TabulatedRate([2.0, 4.0], [0.3, 0.3])
    assert float(rate.hazard(1.0)) == pytest.approx(0.3, abs=1e-15)


def test_tabulated_rate_validation():
    with pytest.raises(ValidationError):
        TabulatedRate([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValidationError):
        TabulatedRate([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(ValidationError):
        TabulatedRate([0.0], [1.0])


def test_rates_keep_their_tables_past_the_callers_edits():
    # a simulation plan is shared by every run of one rate, so the rate must not change
    values = np.array([0.0, 0.1, 0.2, 0.2])
    rate = TabulatedRate([0.0, 10.0, 20.0, 40.0], values)
    values[:] = 0.0
    assert rate(15.0) == pytest.approx(0.15, rel=1e-15)
    assert rate.hazard(15.0) == pytest.approx(1.125, rel=1e-15)
    for table in (rate.ages, rate.values):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    closed = ClosedFormRate(FIT_ERFC)
    with pytest.raises(AttributeError):
        closed.model = FIT_ERFC_MU


@pytest.mark.parametrize("rule, nodes", [(imt_models._GL_RULE, 16), (spectral._CELL_RULE, 4)])
def test_quadrature_rules_are_numpys_gauss_legendre(rule, nodes):
    # written out so that no import loads numpy.polynomial
    for literal, computed in zip(rule, np.polynomial.legendre.leggauss(nodes)):
        np.testing.assert_array_max_ulp(literal, computed, maxulp=1)
