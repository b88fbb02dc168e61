"""Age-structured population dynamics with division-triggered quiescence.

The proliferating density p(t, a) ages at unit speed, divides at rate
beta(a) and dies at rate mu.  Each division produces two daughters; a
fraction f of them enters the non-aging quiescent pool Q, the rest re-enter
at age 0.

The scheme advances cell masses along characteristics on a lockstep grid
(da = dt): age cell j holds the mass M_j on [j*dt, (j+1)*dt), and each step
moves every cell up by one while removing the exactly integrated fraction
1 - exp(-(hazard increment + mu*dt)).  The removed mass splits between
division and death in proportion to their rates, divisions feed the newborn
cell and the quiescent pool with weights 2*(1-f) and 2*f, and Q decays by
explicit Euler.  The hazard increment is taken between cell centres, so cell
j has died over (j + 1/2) steps: daughters take half a step of death on
arrival, exp(-mu*dt/2) into P and exp(-mu_q*dt/2) into Q, which makes the
scheme's growth rate match lambda to O(dt^2).  Mass budgets close exactly:
pure transport conserves to rounding, N(t) is identical across f until the
first division of a post-treatment cohort, and the labeling fraction below
reproduces f exactly when nothing dies.

`simulate` keeps the cells in one buffer of steps + n_cells floats, the same
order as its returned series: age cell j at step n is buf[steps - n + j].
A step moves the window down one slot instead of shifting the cells, so it
reads the window once (one two-row product gives the division mass and P),
multiplies it in place by the survival factors, and writes the newborn cell
below it.  A top cell stays in the buffer once the window has passed it, so
the escape check runs once, vectorised, after the loop.

The labeled cohort of `imt_experiment` re-injects no daughters, so it needs no
time loop: after k steps cell j holds m0[j-k] * exp(Lh_j - Lh_{j-k} - mu*dt*k),
and its division observable over the window is one convolution (see there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigurationError, GridTooSmallError, ValidationError
from .io import check_table, write_columns
from .spectral import AgeProfile

ESCAPE_TOL = 1e-9  # fraction of the population allowed to sit in the top age cell
MAX_STEPS = 10**7  # most time steps one simulate or imt_experiment run may take
HAZARD_TOL = 1e-6  # imt_experiment: largest hazard at t0 that counts as no division yet


@dataclass(frozen=True)
class CustomProfile:
    """Start from an explicit tabulated density (zero outside its support)."""

    ages: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ages, values = check_table(self.ages, self.values, 2, "initial profile")
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class SimConfig:
    rate: object  # callable rate with .hazard, see imt_models
    mu: float
    f: float
    t_end: float
    dt: float = 0.05
    a_max: float | None = None
    mu_q: float | None = None
    initial: CustomProfile | None = None  # None: the equilibrium age profile, unit mass

    def __post_init__(self):
        for name in ("mu", "t_end", "dt", "a_max", "mu_q"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not (0.0 <= self.f <= 1.0):
            raise ValidationError(f"quiescent fraction f must be in [0, 1], got {self.f}")
        if self.dt <= 0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValidationError("t_end must cover at least one step")
        if self.t_end / self.dt > MAX_STEPS:
            raise ValidationError(f"t_end / dt = {self.t_end / self.dt:.3g} steps > {MAX_STEPS}")
        if self.a_max is not None:
            spectral.check_cell_count(self.a_max, self.dt)
        if self.mu < 0:
            raise ValidationError(f"mu must be nonnegative, got {self.mu}")
        if self.mu_q is not None and self.mu_q < 0:
            raise ValidationError(f"mu_q must be nonnegative, got {self.mu_q}")
        if not (self.initial is None or isinstance(self.initial, CustomProfile)):
            raise ValidationError(f"initial must be a CustomProfile or None, got {self.initial!r}")

    @property
    def quiescent_death_rate(self) -> float:
        return self.mu if self.mu_q is None else self.mu_q


@dataclass(frozen=True)
class SimOutput:
    """Time series plus the final age profile (density at cell centers)."""

    times: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    N: np.ndarray
    births: np.ndarray
    quiescence_influx: np.ndarray
    final_profile: AgeProfile
    snapshots: list

    def to_csv(self, path) -> None:
        columns = (self.times, self.P, self.Q, self.N, self.births)
        write_columns(path, ("t", "P", "Q", "N", "births"), columns)

    def profile_to_csv(self, path) -> None:
        write_columns(path, ("age", "p"), (self.final_profile.ages, self.final_profile.values))


class _CellGrid:
    """Lockstep age cells with the per-step removal factors."""

    def __init__(self, rate, mu: float, dt: float, a_max: float):
        spectral.check_cell_count(a_max, dt)
        n_cells = max(2, int(math.ceil(a_max / dt - 1e-9)))
        self.dt = dt
        self.centers = (np.arange(n_cells) + 0.5) * dt
        self.beta = np.asarray(rate(self.centers), dtype=float)
        self.hazard = np.asarray(rate.hazard(self.centers), dtype=float)
        # hazard picked up while a cell's content ages by one step
        self.dh = dh = np.asarray(rate.hazard(self.centers + dt), dtype=float) - self.hazard
        if not (np.isfinite(self.beta).all() and np.isfinite(dh).all()):
            raise ConfigurationError("division rate or hazard is not finite on the age cells")
        x = dh + mu * dt
        self.keep = np.exp(-x)
        removed = -np.expm1(-x)
        div_share = np.where(x > 0, dh / np.where(x > 0, x, 1.0), 0.0)
        self.div_frac = removed * div_share  # mass fraction dividing per step


def _equilibrium_masses(rate, mu: float, cells: _CellGrid, t0: float | None) -> np.ndarray:
    if t0 is not None and t0 < cells.dt / 2:  # no cell center <= t0: a unit cohort in cell 0
        m = np.zeros_like(cells.centers)
        m[0] = 1.0
        return m
    # lambda needs the full divergence range even when the cell grid is short
    lam = spectral.solve_lambda(rate, mu, step=cells.dt)
    weights = np.exp(-(cells.hazard + (mu + lam) * cells.centers))
    if t0 is not None:
        weights = np.where(cells.centers <= t0, weights, 0.0)
    total = weights.sum()
    if total <= 0:
        raise ValidationError("equilibrium profile has no mass on the grid")
    return weights / total


def simulate(config: SimConfig, snapshot_times=None) -> SimOutput:
    """Run the quiescence model; all series are sampled at every step.

    snapshots holds one (time, age profile) pair per requested snapshot time,
    in the order given, each at the step nearest to it.  births and
    quiescence_influx record the mass that arrives in P and Q.  Raises
    ValidationError for a snapshot time that is not finite or lies outside
    [0, t_end], and GridTooSmallError, at the first such step, if noticeable
    mass reaches the top age cell.
    """
    dt = config.dt
    snap_times = [] if snapshot_times is None else [float(t) for t in snapshot_times]
    for t in snap_times:
        if not (math.isfinite(t) and 0.0 <= t <= config.t_end):
            raise ValidationError(f"snapshot time {t} is not within [0, t_end = {config.t_end}]")
    snap_steps = [int(round(t / dt)) for t in snap_times]
    a_max = config.a_max
    if a_max is None:
        a_max = float(spectral.build_grid(config.rate, step=dt)[-1])
    cells = _CellGrid(config.rate, config.mu, dt, a_max)
    init = config.initial
    if init is None:
        m = _equilibrium_masses(config.rate, config.mu, cells, None)
    else:
        inside = (cells.centers >= init.ages[0]) & (cells.centers <= init.ages[-1])
        m = np.where(inside, np.interp(cells.centers, init.ages, init.values), 0.0) * dt
    q = 0.0
    f = config.f
    mu_q = config.quiescent_death_rate

    steps = int(round(config.t_end / dt))
    n_cells = m.size
    times = np.arange(steps + 1) * dt
    series_p = np.empty(steps + 1)
    series_q = np.empty(steps + 1)
    divisions = np.empty(steps + 1)
    # age cell j at step n is buf[steps - n + j] (module docstring)
    buf = np.zeros(steps + n_cells)
    buf[steps:] = m
    weights = np.vstack([cells.div_frac, np.ones(n_cells)])  # rows: division mass, P
    keep = np.append(cells.keep[:-1], 1.0)  # the top cell leaves the window as it is
    # daughters take half a step of death on arrival (module docstring)
    newborn = 2.0 * (1.0 - f) * math.exp(-config.mu * dt / 2.0)
    into_q = 2.0 * f * math.exp(-mu_q * dt / 2.0)

    taken = dict.fromkeys(snap_steps)

    for n in range(steps + 1):
        lo = steps - n
        m = buf[lo:lo + n_cells]
        d, p = (weights @ m).tolist()
        divisions[n] = d
        series_p[n] = p
        series_q[n] = q
        if n in taken:
            taken[n] = m / dt
        if n == steps:
            break
        m *= keep  # survivors age by one cell as the window moves down
        buf[lo - 1] = newborn * d  # newborn mass enters cell 0
        q = q + into_q * d - dt * mu_q * q

    total = series_p + series_q
    # the top cell of step n < steps stays at buf[steps - n + n_cells - 1]
    top = buf[n_cells - 1:][::-1][:steps]
    escaped = np.flatnonzero(top > ESCAPE_TOL * np.maximum(total[:steps], 1e-300))
    if escaped.size:
        n = int(escaped[0])
        raise GridTooSmallError(
            f"age profile reached a_max = {a_max:g} at t = {n * dt:g} "
            f"(top cell holds {top[n]:.3e}); increase a_max"
        )

    return SimOutput(
        times=times,
        P=series_p,
        Q=series_q,
        N=total,
        births=newborn * divisions / dt,
        quiescence_influx=into_q * divisions / dt,
        final_profile=AgeProfile(cells.centers, m / dt),
        snapshots=[(t, taken[k]) for t, k in zip(snap_times, snap_steps)],
    )


def quiescent_fraction(config: SimConfig, t0: float) -> float:
    """Labeled quiescent fraction F = Q(t0) / (Q(t0) + newborn flux into P).

    Both terms accumulate the same per-step division mass, so with
    mu = mu_q = 0 the result equals f exactly.
    """
    if not (math.isfinite(t0) and t0 >= 0):
        raise ValidationError(f"t0 must be finite and nonnegative, got {t0}")
    if t0 > config.t_end + 1e-12:
        raise ValidationError(f"simulation horizon {config.t_end} is shorter than t0 = {t0}")
    out = simulate(config)
    k = int(round(t0 / config.dt))
    flux_into_p = config.dt * float(out.births[:k].sum())
    denom = out.Q[k] + flux_into_p
    if denom <= 0:
        raise ValidationError("no division flux accumulated by t0; cannot form the fraction")
    return float(out.Q[k] / denom)


def imt_experiment(rate, mu: float, t0: float, big_t: float, dt: float = 0.025):
    """Finite-window IMT density of a labeled cohort, and its L1 gap to the ideal.

    The cohort starts from the truncated equilibrium masses m0 and evolves by
    pure transport and loss (daughters are not re-injected).  With the hazard
    part Lh_j = -sum_{l<j} dh_l of a cell's log-survival, the division
    observable beta * p summed over the K = big_t / dt steps is the convolution

        acc_j = dt * beta_j * exp(Lh_j) * sum_{k<K} m0_{j-k} exp(-Lh_{j-k}) exp(-mu*dt*k),

    normalized into the finite-window density I_T; the returned gap is
    integral |I_T - I_inf| against the ideal density on the same cells.
    Requires the rate to vanish on [0, t0] (hazard at t0 below HAZARD_TOL)
    and big_t > t0, with big_t / dt at most MAX_STEPS and (big_t + t0) / dt
    within spectral.MAX_CELLS.
    """
    if not (all(math.isfinite(v) for v in (t0, big_t, dt)) and dt > 0):
        raise ValidationError(f"t0, big_t and dt must be finite, dt > 0; got {t0}, {big_t}, {dt}")
    if big_t <= t0:
        raise ValidationError(f"observation window {big_t} must exceed t0 = {t0}")
    if big_t / dt > MAX_STEPS:
        raise ValidationError(f"big_t / dt = {big_t / dt:.3g} steps > {MAX_STEPS}")
    if float(rate.hazard(t0)) > HAZARD_TOL:
        raise ValidationError(
            f"division rate is not ~0 below t0 = {t0} "
            f"(hazard {float(rate.hazard(t0)):.3g} > {HAZARD_TOL:g})"
        )
    steps = int(round(big_t / dt))
    if steps == 0:
        raise ValidationError(f"observation window {big_t} is shorter than one step dt = {dt}")
    cells = _CellGrid(rate, mu, dt, big_t + t0 + 2.0 * dt)
    m0 = _equilibrium_masses(rate, mu, cells, t0)

    lh = -np.concatenate(([0.0], np.cumsum(cells.dh[:-1])))
    # m0 > 0 only at ages <= t0, where -lh <= HAZARD_TOL; death stays a kernel of its
    # own, as folding mu*dt into lh would overflow exp(-lh) once mu*t0 exceeds ~709
    support = np.flatnonzero(m0)[-1] + 1
    held = np.convolve(m0[:support] * np.exp(-lh[:support]), np.exp(-mu * dt * np.arange(steps)))
    acc = dt * cells.beta * np.exp(lh) * np.pad(held, (0, m0.size - held.size))

    c_t = float(acc.sum())
    if c_t <= 0:
        raise ValidationError("no division flux observed by big_t; window too short")
    i_t = acc / (c_t * dt)

    # peaks at exp(0) where beta > 0 (c_t > 0: some cell), so steep death cannot underflow it
    exponent = -cells.hazard - mu * cells.centers
    ideal = cells.beta * np.exp(np.minimum(exponent - exponent[cells.beta > 0].max(), 0.0))
    ideal /= ideal.sum() * dt
    l1_gap = float(np.abs(i_t - ideal).sum() * dt)
    return AgeProfile(cells.centers, i_t), l1_gap
