"""Closed-form intermitotic-time (IMT) density families and their division rates.

Five families are supported, keyed by the names used on the command line;
the table `PARAMS` below lists each family's parameters in fitting order:

    gamma1    shifted gamma, linear prefactor
    gamma2    shifted gamma, quadratic prefactor
    emg       exponentially modified Gaussian
    erfc      division rate is an error function
    erfc-mu   erfc rate plus a constant death rate

Every family provides the IMT density `imt_density` and its growth-rate
reweighted form `reweighted_density`.  Each closed-form family (all except
`emg`) is one entry of the table `_CLOSED_FORMS`: a function that returns
its division rate (`division_rate`) and that rate's integral
(`cumulative_hazard`) together, from one evaluation, and on request their
partials in the rate's parameters.  Both densities follow from these through
the hazard identity: the probability that a cell has not divided by age a is
exp(-cumulative_hazard(a)), so the density of ages at division is
rate(a) * exp(-hazard(a) - mu*a), normalized.  `emg` has no entry: it is
defined by its density, and its rate must be recovered numerically through
the `inversion` module.  One evaluator, `_density`, gives every family's
density times exp(-lam*a), and on request its partials in the parameters:
`imt_density`, `reweighted_density`, the masses and the fitter's Jacobian all
read it, and it alone tells emg from a table entry.

Masses (a death family's norm, `reweighted_mass`): emg's in closed form (`_emg_mass`), a
closed form's by 16-point Gauss-Legendre on `_mass_edges` over [max(0, m - 40 sigma), b =
m + 40 sigma] (below it the density is 0 where exp(-decay*a) is finite), plus the tail
f(b)/(rate(b) + decay): exact for erfc (erfc(-40) is 2.0 in double precision), below
4e-15 for a gamma at decay >= 0.  A sigma that m + 40 sigma does not resolve: ValidationError.

Throughout, ages and times are in hours, rates in 1/hour.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedVariantError, ValidationError
from .io import check_ages, check_number, check_table

PARAMS = {
    "gamma1": ("m", "sigma"),
    "gamma2": ("m", "sigma"),
    "emg": ("beta0", "m", "sigma"),
    "erfc": ("beta0", "m", "sigma"),
    "erfc-mu": ("beta0", "m", "sigma", "mu"),
}
FAMILIES = tuple(PARAMS)

# every parameter field of Model: True if it must be > 0, False if >= 0
_FIELDS = {"beta0": True, "m": False, "sigma": True, "mu": False}

_SQRT_PI = math.sqrt(math.pi)
_H_CAP = 1e100  # past h = x/sigma = 1e100 a gamma rate is 1/sigma, and its hazard h, to rounding
_S_STEP, _S_END = 8.0, 750.0  # most change of s over one mass panel; exp(-s) is 0 past _S_END
# numpy.polynomial.legendre.leggauss(16) written out, so that no import loads numpy.polynomial
_GL_RULE = (np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499]), np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]))


def _gauss_legendre(edges: np.ndarray, rule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, shape (panels, k), of a Gauss-Legendre rule on every panel."""
    half = np.diff(edges)[:, None] / 2.0
    nodes, weights = rule
    return edges[:-1, None] + half * (1.0 + nodes), half * weights


def erfc(z):
    """Complementary error function: math.erfc on a scalar, or elementwise on an array."""
    if np.ndim(z) == 0:
        return math.erfc(z)
    z = np.asarray(z, dtype=float)
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def erfc_integral(m: float, sigma: float, a):
    """Integral of erfc((m - a')/sigma) for a' in [0, a], in closed form; inf if it overflows."""
    m, sigma = check_number(m, "m"), check_number(sigma, "sigma", 0, strict=True)
    with np.errstate(over="ignore"):
        return _erfc(np.asarray(a, dtype=float), 1.0, m, sigma)[1]


@dataclass(frozen=True)
class Model:
    """One member of an IMT model family (tagged union over FAMILIES)."""

    family: str
    m: float | None = None
    sigma: float | None = None
    beta0: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        for name, positive in _FIELDS.items():
            value = getattr(self, name)
            if name not in PARAMS[self.family]:
                if value is not None:
                    raise ValidationError(f"{self.family} takes no {name}")
            else:  # kept as a float, which to_json can write
                object.__setattr__(self, name, check_number(value, f"{self.family} {name}", 0,
                                                            strict=positive))

    @property
    def death_rate(self) -> float:
        return self.mu if self.mu is not None else 0.0

    def param_dict(self) -> dict:
        params = {name: getattr(self, name) for name in PARAMS[self.family]}
        return {"family": self.family, **params}

    def to_json(self) -> str:
        return json.dumps(self.param_dict(), sort_keys=True)


def model_from_dict(d) -> Model:
    """Model from a mapping such as `Model.param_dict()`; ValidationError if malformed."""
    if not isinstance(d, dict):
        raise ValidationError(f"a model must be a JSON object, got {type(d).__name__}")
    try:
        params = {name: float(d[name]) for name in _FIELDS if d.get(name) is not None}
    except (TypeError, ValueError):
        raise ValidationError(f"model parameters must be numbers, got {d}") from None
    return Model(family=d.get("family"), **params)


def model_from_json(text: str | bytes) -> Model:
    """Model from JSON text or UTF-8 bytes; ValidationError if they are not a valid model.

    The JSON is a bare model object or a fit-result object that holds one under "model".
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ValidationError(f"model JSON text must be a str or bytes, got {type(text).__name__}")
    try:
        payload = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"not a JSON model: {exc}") from None
    if isinstance(payload, dict):
        payload = payload.get("model", payload)
    return model_from_dict(payload)


def _rate_params(model: Model) -> dict:
    """The model's parameters that its closed-form rate takes: all but mu."""
    return {name: getattr(model, name) for name in PARAMS[model.family] if name != "mu"}


def _gamma_partials(rate, rate_x, x, sigma):
    # a gamma hazard is a function of x/sigma and the rate its x-derivative, so both
    # (m, sigma) partials follow from the rate and rate_x = d rate/dx
    d_rate = np.array((-rate_x, -(rate + x * rate_x) / sigma))
    d_hazard = np.array((-rate, -(x / sigma) * rate))
    return d_rate, d_hazard


def _gamma1(a, m, sigma, partials=False):
    x = np.maximum(a - m, 0.0)
    h = x / sigma
    h_cap = np.minimum(h, _H_CAP)
    scale = sigma * (1.0 + h_cap)
    rate, hazard = h_cap / scale, h - np.log1p(h_cap)
    if not partials:
        return rate, hazard
    rate_x = np.where(a > m, 1.0 / (scale * scale), 0.0)
    return rate, hazard, *_gamma_partials(rate, rate_x, x, sigma)


def _gamma2(a, m, sigma, partials=False):
    x = np.maximum(a - m, 0.0)
    h = x / sigma
    h_cap = np.minimum(h, _H_CAP)
    w = h_cap * (2.0 + h_cap)
    scale = sigma * (2.0 + w)
    rate, hazard = h_cap * h_cap / scale, h - np.log1p(w / 2.0)
    if not partials:
        return rate, hazard
    return rate, hazard, *_gamma_partials(rate, 2.0 * w / (scale * scale), x, sigma)


def _erfc(a, beta0, m, sigma, partials=False):
    # beta0 * erfc_integral with the rate, not 2, multiplied into a - m, so that the hazard
    # is finite wherever 2*beta0*(a - m) is; gauss is exp(-z^2), without its 1/sqrt(pi)
    gap = a - m
    z = gap / -sigma
    z0 = m / sigma
    erfc_z, erfc_z0 = erfc(z), erfc(z0)
    gauss = np.exp(-z * z)
    rise = gauss - math.exp(-z0 * z0)
    rest = m * erfc_z0 + (sigma / _SQRT_PI) * rise
    rate = beta0 * erfc_z
    hazard = beta0 * rest + rate * gap
    if not partials:
        return rate, hazard
    slope = 2.0 * beta0 / (sigma * _SQRT_PI)
    d_rate = np.array((erfc_z, -slope * gauss, slope * gauss * z))
    d_hazard = np.array((rest + erfc_z * gap, beta0 * (erfc_z0 - erfc_z),
                         (beta0 / _SQRT_PI) * rise))
    return rate, hazard, d_rate, d_hazard


# family -> (ages, rate parameters, partials=False) -> (division rate, cumulative hazard),
# followed with partials=True by their partials in the rate parameters' order, one row
# each; emg has no closed form
_CLOSED_FORMS = {"gamma1": _gamma1, "gamma2": _gamma2, "erfc": _erfc, "erfc-mu": _erfc}
# the families whose rate is 0 up to m: a histogram's squared error is smooth in m only
# between bin midpoints, with a kink wherever m crosses one
_ZERO_BELOW_M = frozenset(("gamma1", "gamma2"))


def _closed_form(model: Model):
    try:
        return _CLOSED_FORMS[model.family]
    except KeyError:
        raise UnsupportedVariantError(
            f"the {model.family} family has no closed-form division rate or hazard; "
            "sample its density and use inversion.invert_imt"
        ) from None


def division_rate(model: Model, a):
    """Age-dependent division rate beta(a), in closed form; finite at every finite age.

    Not available for the emg family, whose rate has no closed form;
    recover it numerically with inversion.invert_imt instead.
    """
    with np.errstate(over="ignore"):  # the hazard that comes with it may overflow
        return _closed_form(model)(np.asarray(a, dtype=float), **_rate_params(model))[0]


def cumulative_hazard(model: Model, a):
    """Integral of the division rate from 0 to a, in closed form; inf only where it overflows."""
    with np.errstate(over="ignore"):
        return _closed_form(model)(np.asarray(a, dtype=float), **_rate_params(model))[1]


def _erfcx(z):
    """exp(z^2)*erfc(z) for z > 26, of a float or elementwise, by its asymptotic series."""
    series = 1.0
    for k in range(7, 0, -1):  # sum over k < 8 of (-1)^k (2k-1)!! / (2z^2)^k
        series = 1.0 - (2 * k - 1) * series / (2.0 * z * z)
    return series / (z * _SQRT_PI)


def _emg_density(beta0: float, m: float, sigma: float, a: np.ndarray, decay: float,
                 partials=False):
    # I(a)*exp(-decay*a), the decay inside the exponent, so that it cannot overflow where I
    # underflows.  erfc(z)*exp(2*bs*z - bs^2) for z <= 26, where that exponent is <= z^2 <= 676;
    # past 26, where erfc underflows, exp(-(z - bs)^2)*erfcx(z), erfcx = exp(z^2)*erfc.
    # With partials=True, also its (beta0, m, sigma) partials, one row each.
    z = (m - a) / sigma
    bs = beta0 * sigma
    near = z <= 26.0
    out = np.empty_like(z)
    out[near] = erfc(z[near]) * np.exp(bs * (2.0 * z[near] - bs) - decay * a[near])
    if not near.all():
        zf = z[~near]
        out[~near] = np.exp(-((zf - bs) ** 2) - decay * a[~near]) * _erfcx(zf)
    density = beta0 * out
    if not partials:
        return density
    # the density times d(log erfc)/dz = -2*exp(-z^2)/(sqrt(pi)*erfc(z)) is -gauss below,
    # which divides by no erfc, so it stays finite where erfc underflows
    gauss = (2.0 * beta0 / _SQRT_PI) * np.exp(-((z - bs) ** 2) - decay * a)
    return density, np.array((out + 2.0 * sigma * (z - bs) * density,
                              2.0 * beta0 * density - gauss / sigma,
                              gauss * z / sigma - 2.0 * beta0 * bs * density))


def _density(family: str, theta, a: np.ndarray, lam: float, partials=False):
    """The family's density at the parameters theta (in PARAMS order) times exp(-lam*a):
    rate(a)*exp(-hazard(a) - (mu+lam)*a) from its table entry, emg's I(a)*exp(-lam*a).

    With partials=True, also its partials in theta, one row per parameter: a closed
    form's survival*(d rate - rate*d hazard), and mu's -a times the density.
    """
    params = dict(zip(PARAMS[family], theta))
    decay = params.pop("mu", 0.0) + lam
    closed_form = _CLOSED_FORMS.get(family)
    if closed_form is None:
        return _emg_density(*params.values(), a, decay, partials)
    rate, hazard, *rate_and_hazard_partials = closed_form(a, **params, partials=partials)
    survival = np.exp(-hazard - decay * a)
    density = rate * survival
    if not partials:
        return density
    d_rate, d_hazard = rate_and_hazard_partials
    rows = survival * (d_rate - rate * d_hazard)
    if "mu" in PARAMS[family]:
        rows = np.concatenate((rows, [-a * density]))
    return density, rows


def _theta(model: Model) -> list:
    return [getattr(model, name) for name in PARAMS[model.family]]


def _emg_mass(beta0: float, m: float, sigma: float, lam: float) -> float:
    """Integral over [0, inf) of the emg density times exp(-lam*a), 2*beta0 + lam > 0.  emg is
    N(m - beta0*sigma^2, sigma^2/2) plus an Exp(2*beta0) (Grushka, Anal. Chem. 44, 1972), so
    with bs = beta0*sigma, d = m/sigma - bs, c = lam*sigma/2 this is beta0/(2*beta0 + lam) *
    (erfc(c - d)*exp(c*(c - 2d)) + erfc(m/sigma)*exp(bs*(2m/sigma - bs))), each term as
    erfcx(x)*exp(-d^2) where erfc(x) underflows; OverflowError if a term overflows."""
    z0, bs, c = m / sigma, beta0 * sigma, lam * sigma / 2.0
    d = z0 - bs
    return beta0 / (2.0 * beta0 + lam) * sum(
        math.erfc(x) * math.exp(exponent) if x <= 26.0 else _erfcx(x) * math.exp(-d * d)
        for x, exponent in ((c - d, c * (c - 2.0 * d)), (z0, bs * (2.0 * z0 - bs))))


def _mass_edges(edges: np.ndarray, s: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """edges (sigma wide, split at m) up to the tangent to s = hazard + decay*a from the last one
    below _S_END, each panel cut into equal pieces over which s changes by at most _S_STEP.
    s is convex (the rates rise): on a panel it falls by at most width * -slope at its start."""
    j = np.count_nonzero(s < _S_END)  # s is below _S_END up to one edge, and never after it
    if j == 0:
        return edges[:1]
    if j < s.size:
        reach = (_S_END - s[j - 1]) / slope[j - 1] if slope[j - 1] > 0 else math.inf
        edges = np.append(edges[:j], min(edges[j], edges[j - 1] + reach))
        s, slope = np.append(s[:j], _S_END), slope[:j + 1]
    width = np.diff(edges)
    rise = np.abs(np.diff(s)) + 2.0 * width * np.maximum(0.0, -slope[:-1])
    pieces = np.maximum(1, np.ceil(rise / _S_STEP)).astype(int)
    return np.interp(np.arange(pieces.sum() + 1), np.append(0, np.cumsum(pieces)), edges)


def _mass(model: Model, lam: float) -> float:
    """Integral over [0, inf) of _density(model's family and parameters, ., lam), by the
    rule of the module docstring; ValidationError if m + 40 sigma does not resolve sigma,
    if the tail's decay rate k is not positive, or if the mass overflows."""
    m, sigma = model.m, model.sigma
    decay = model.death_rate + lam
    b = m + 40.0 * sigma
    if not m < b < math.inf:
        raise ValidationError(f"{model.family} sigma = {sigma:g} is out of scale with m = "
                              f"{m:g}: m + 40*sigma = {b:g}, so its mass cannot be taken")
    closed_form = _CLOSED_FORMS.get(model.family)
    if closed_form is not None:
        lo = max(0.0, m - 40.0 * sigma)
        n = math.ceil(min((m - lo) / sigma, 40.0))
        edges = np.concatenate((np.linspace(lo, m, n + 1)[:-1], np.linspace(m, b, 41)))
        rate, hazard = closed_form(edges, **_rate_params(model))
        s, slope = hazard + decay * edges, rate + decay
    k = 2.0 * model.beta0 + decay if closed_form is None else slope[-1]
    if not k > 0:
        raise ValidationError(f"lambda = {lam:g} leaves the {model.family} density a tail "
                              f"that does not decay (rate {k:g} <= 0): its mass is infinite")
    mass = math.inf  # where exp(-s) overflows at an edge, so does the mass, near s's minimum
    if closed_form is None:
        with contextlib.suppress(OverflowError):
            mass = _emg_mass(model.beta0, m, sigma, lam)
    elif not (s < -_S_END).any():
        ages, weights = _gauss_legendre(_mass_edges(edges, s, slope), _GL_RULE)
        with np.errstate(over="ignore", invalid="ignore"):  # a 0 * inf is a nan, caught below
            f = _density(model.family, _theta(model), np.append(ages.ravel(), b), lam)
        mass = float(np.sum(weights * f[:-1].reshape(weights.shape))) + f[-1] / k
    if not math.isfinite(mass):
        raise ValidationError(f"the {model.family} mass at lambda = {lam:g} overflows")
    return mass


def imt_density(model: Model, a):
    """IMT density I(a): normalized density of ages at division.

    emg is defined by its density.  Every other family is defined by its rate
    and hazard, I(a) = rate(a)*exp(-hazard(a) - mu*a) / norm, where norm is 1
    without death (the density then integrates to 1 exactly) and is computed
    by `_mass` for a family with a death rate.  Where the hazard overflows, far past m,
    the survival exp(-hazard) and with it the density are 0.
    """
    ages = check_ages(a)
    with np.errstate(over="ignore"):
        density = _density(model.family, _theta(model), ages, 0.0)
    return density if model.mu is None else density / _mass(model, 0.0)


def reweighted_density(model: Model, lam: float, a):
    """Growth-rate reweighted density: the fitting target for reweighted histograms.

    For emg this is 2*I(a)*exp(-lam*a).  Every other family uses the
    normalization-free form 2*rate(a)*exp(-hazard(a) - (mu+lam)*a), which
    equals 2*I(a)*exp(-lam*a) without death and integrates to 1 exactly when
    (rate, mu, lam) solve the growth eigenproblem.  A lam so negative that the
    density overflows (or turns 0 * inf into nan) is a ValidationError.
    """
    lam = check_number(lam, "growth rate lambda")
    ages = check_ages(a)
    with np.errstate(over="ignore", invalid="ignore"):
        density = 2.0 * _density(model.family, _theta(model), ages, lam)
    if not np.isfinite(density).all():
        raise ValidationError(f"reweighted density is not finite at lambda = {lam:g}: "
                              "exp(-(mu + lambda)*a) overflows on these ages")
    return density


def reweighted_mass(model: Model, lam: float) -> float:
    """Total mass of reweighted_density(model, lam, .); 1 when lam is the model's growth rate."""
    return 2.0 * _mass(model, check_number(lam, "growth rate lambda"))


class ClosedFormRate:
    """Division rate defined by a closed-form model (any family except emg)."""

    def __init__(self, model: Model):
        _closed_form(model)
        self._model = model

    model = property(lambda self: self._model)  # read-only: simulate's plans key on the rate

    def __call__(self, a):
        return division_rate(self.model, a)

    def hazard(self, a):
        return cumulative_hazard(self.model, a)

    def __repr__(self):
        return f"ClosedFormRate({self.model!r})"


class TabulatedRate:
    """Division rate given by linear interpolation of a table.

    Outside the table the rate is held at the nearest endpoint value; the
    hazard integrates the interpolant exactly.  The table is copied, and read-only.
    """

    def __init__(self, ages, values):
        ages, values = map(np.array, check_table(ages, values, 2, "rate table"))
        self.ages, self.values = ages, values
        inner = np.concatenate(
            ([0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(ages)))
        )
        # hazard accumulated from age 0, treating the rate as values[0] below the table
        self._node_hazard = inner + values[0] * ages[0]
        for array in (ages, values, self._node_hazard):
            array.flags.writeable = False

    def __call__(self, a):
        return np.interp(np.asarray(a, dtype=float), self.ages, self.values)

    def hazard(self, a):
        a = np.asarray(a, dtype=float)
        idx = np.clip(np.searchsorted(self.ages, a, side="right") - 1, 0, self.ages.size - 1)
        base = self._node_hazard[idx]
        da = a - self.ages[idx]
        frag = 0.5 * (self.values[idx] + self(a)) * da
        below = a < self.ages[0]
        out = np.where(below, self.values[0] * a, base + frag)
        return out if out.ndim else float(out)

    def __repr__(self):
        return f"TabulatedRate({self.ages.size} points on [{self.ages[0]}, {self.ages[-1]}])"
