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
explicit Euler.  The hazard H is read once, at the J + 1 lattice points
c_j = (j + 1/2)*dt (the J cell centres and one more), and cell j's increment
is dh_j = H(c_{j+1}) - H(c_j), so sum_{l<j} dh_l telescopes to H(c_j) - H(c_0).
As the increment is taken between cell centres, cell j has died over
(j + 1/2) steps: daughters take half a step of death on arrival, exp(-mu*dt/2)
into P and exp(-mu_q*dt/2) into Q, which makes the scheme's growth rate match
lambda to O(dt^2).  Mass budgets close exactly: pure transport conserves to
rounding, N(t) is identical across f until the first division of a
post-treatment cohort, and the labeling fraction below reproduces f exactly
when nothing dies.

`simulate` runs no time loop: it solves the scheme's own discrete renewal
equation.  With J cells, the survival L_j = prod_{i<j} keep_i and the kernel
K_j = div_frac_j * L_j, the newborn mass b_k entered at step k holds L_j * b_k
when it has aged into cell j, so the division mass d_n and P_n of step n are

    d_n = sum_j K_j b_{n-j},   b_{n+1} = 2(1-f) exp(-mu*dt/2) d_n,   P_n = sum_j L_j b_{n-j};

the start enters as virtual newborns b_{-k} = m0_k / L_k.  The equilibrium start is
the scheme's own eigenvector, m0_j proportional to L_j exp(-lambda_d*dt*j), lambda_d the
root of its renewal sum on the run's cells (`_growth_rate`): its b_{-k} are geometric, so
an untreated run grows as exp(lambda_d*t) from t = 0 to rounding.  Cell j of a profile
is L_j * b_{n-j}, the top cell at step n is L_{J-1} * b_{n-J+1} (its keep is
never used: its content leaves the window), and Q keeps its recursion.  The
equation is solved BLOCK steps at a time: inside a block exactly, by one
product with (I - c*T0)^-1, formed by Neumann doubling; the history sums are
BLAS products of Hankel panels of K and L, a SLAB of lags each, against finished
blocks of b.  Lags past the first slab reach only newborns made SLAB steps before,
so those slabs take the windows of a whole epoch of SLAB steps in one product; the
first slab takes those of a superblock in one product, and the rest of the
superblock's own blocks one product each.  K, L, b and every matrix are
nonnegative, so every sum is of nonnegative terms and each output is accurate
relative to itself: births that are exactly 0 before the first division stay
exactly 0.  An FFT convolution would be O(N log N) but its error is absolute,
relative to the largest term, and turns those zeros into +-1e-20 noise.  Where
L_k is too small to carry a start cell (a spike in the hazard, or steep death),
the start from that cell on is solved on its own cells without births, anchored
there, and its divisions feed the rest as a known source (`_renewal`).

All that f leaves unchanged, the cells, k_d and the equilibrium start's runs with the near
panel of the first, is one read-only plan per (rate, mu, dt, a_max), the rate by identity.
One plan is kept, the last: the doses of a sweep come one after another.  scheme_growth_rate
reads its k_d there; a custom start bypasses it and never solves for k_d.

The labeled cohort of `imt_experiment` re-injects no daughters, so it needs no
time loop: after k steps cell j holds m0[j-k] * exp(Lh_j - Lh_{j-k} - mu*dt*k),
and its division observable over the window is one convolution (see there).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import spectral
from .errors import ConfigurationError, GridTooSmallError, ValidationError
from .io import check_number, check_table, write_columns
from .spectral import AgeProfile

ESCAPE_TOL = 1e-9  # fraction of the population allowed to sit in the top age cell
MAX_STEPS = 10**7  # most time steps one simulate or imt_experiment run may take
HAZARD_TOL = 1e-6  # imt_experiment: largest hazard at t0 that counts as no division yet
BLOCK = 32  # steps the renewal solve takes in one exact block product
SUPERBLOCK = 32  # blocks whose near-slab history windows one panel product takes
SLAB = 4096  # age cells per panel slab, and steps per epoch: scratch stays near 8 MB
# An epoch is whole superblocks, so it starts where a superblock does, and every newborn
# that a far slab (lags >= SLAB) reads over the whole epoch is then final
assert SLAB % (BLOCK * SUPERBLOCK) == 0, "SLAB must be a multiple of BLOCK * SUPERBLOCK"
START_SPAN = 2.0**64  # largest b_{-k} = m0_k / L_k, relative to the largest start cell


@dataclass(frozen=True)
class CustomProfile:
    """Start from an explicit tabulated density (zero outside its support), copied read-only."""

    ages: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ages, values = map(np.array, check_table(self.ages, self.values, 2, "initial profile"))
        ages.flags.writeable = values.flags.writeable = False
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
    initial: CustomProfile | None = None  # None: the scheme's equilibrium profile, unit mass

    def __post_init__(self):
        keep = functools.partial(object.__setattr__, self)  # as floats: no float32 run
        keep("mu", check_number(self.mu, "death rate mu", 0))
        keep("f", check_number(self.f, "quiescent fraction f", 0, 1))
        t_end, dt = check_number(self.t_end, "t_end"), check_number(self.dt, "dt", 0, strict=True)
        keep("t_end", t_end), keep("dt", dt)
        if self.a_max is not None:
            keep("a_max", check_number(self.a_max, "a_max", 0, strict=True))
            spectral.check_cell_count(self.a_max, dt)
        if self.mu_q is not None:
            keep("mu_q", check_number(self.mu_q, "quiescent death rate mu_q", 0))
        if t_end < dt:
            raise ValidationError("t_end must cover at least one step")
        if t_end / dt > MAX_STEPS:
            raise ValidationError(f"t_end / dt = {t_end / dt:.3g} steps > {MAX_STEPS}")
        if self.dt * self.quiescent_death_rate > 1.0:
            # Q decays by the Euler factor 1 - dt*mu_q, which must stay nonnegative
            raise ValidationError(
                f"dt * mu_q = {self.dt * self.quiescent_death_rate:.6g} > 1; "
                "the quiescent pool would turn negative: lower dt or mu_q"
            )
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
    """Cells of spectral.build_grid(rate, dt, a_max) with per-step factors from one hazard call.

    The hazard H is read once, at the J + 1 lattice points (j + 1/2)*dt: `centers` and
    `hazard` are the first J of them, and dh = diff(H) telescopes, so sum_{l<j} dh_l is
    hazard[j] - hazard[0] to rounding.  a_max keeps the value asked for, or the grid top
    J*dt, for the GridTooSmallError message.
    """

    def __init__(self, rate, mu: float, dt: float, a_max: float | None = None):
        grid = spectral.build_grid(rate, dt, a_max)
        self.dt, self.top = dt, float(grid[-1])
        self.a_max = self.top if a_max is None else a_max
        lattice = (np.arange(grid.size) + 0.5) * dt  # the J cell centres and one more
        hazard = np.asarray(rate.hazard(lattice), dtype=float)
        self.centers, self.hazard = lattice[:-1], hazard[:-1]
        # hazard picked up while a cell's content ages by one step
        self.dh = dh = np.diff(hazard)
        if not np.isfinite(dh).all():
            raise ConfigurationError("hazard is not finite on the age cells")
        x = dh + mu * dt
        self.keep = np.exp(-x)
        removed = -np.expm1(-x)
        div_share = np.where(x > 0, dh / np.where(x > 0, x, 1.0), 0.0)
        self.div_frac = removed * div_share  # mass fraction dividing per step
        for array in (self.centers, self.hazard, dh, self.keep, self.div_frac):
            array.flags.writeable = False


def _equilibrium_masses(cells: _CellGrid, k: float, t0: float | None = None):
    """Unit-total cell masses proportional to exp(-(H(c_j) + k*c_j)), cut to c_j <= t0.

    k = mu + lambda is the renewal root.  The masses are taken relative to the first cell,
    whose weight is 1, so neither k >= 0 nor a steep hazard can underflow them all.
    """
    ages = cells.centers - cells.centers[0]
    weights = np.exp(cells.hazard[0] - cells.hazard - k * ages)
    if t0 is not None:
        weights = np.where(cells.centers <= t0, weights, 0.0)
    return weights / weights.sum()


def _start_masses(init: CustomProfile, cells: _CellGrid) -> np.ndarray:
    """Cell masses of a custom start: its density at each cell centre times dt.

    Raises ValidationError if the profile is positive at any age outside the cells,
    [0, J*dt], or if it is positive somewhere but at no cell centre.  The latter reads
    where the profile is positive, not the sampled masses, which a subnormal density
    may round to 0.
    """
    ages, values = init.ages, init.values
    live = np.maximum(values[:-1], values[1:]) > 0  # table segments where the profile is > 0
    lo, hi = ages[:-1][live], ages[1:][live]
    outside = []
    if lo.size and lo[0] < 0:
        outside.append(f"down to age {lo[0]:g}")
    if hi.size and hi[-1] > cells.top:
        outside.append(f"up to age {hi[-1]:g}")
    if outside:
        raise ValidationError(
            f"initial profile is positive {' and '.join(outside)}, outside the age cells "
            f"[0, {cells.top:g}]; increase a_max or trim the profile"
        )
    inside = (cells.centers >= ages[0]) & (cells.centers <= ages[-1])
    m0 = np.where(inside, np.interp(cells.centers, ages, values), 0.0) * cells.dt
    positive = np.interp(cells.centers, ages, 1.0 * (values > 0)) > 0
    if live.any() and not (inside & positive).any():
        raise ValidationError(
            f"initial profile on [{ages[0]:g}, {ages[-1]:g}] is positive at no age cell "
            f"centre (cells of width dt = {cells.dt:g}); lower dt or widen the profile"
        )
    return m0


class _Run(NamedTuple):
    """One renewal solve on the cells from `first` on (see `_renewal`)."""

    first: int
    survival: np.ndarray  # L_j from cell `first`
    w: np.ndarray  # w[steps + 1 - n + j] = b_{n-j}, the newborn series reversed
    divisions: np.ndarray  # d_n for n = 0..steps
    p: np.ndarray  # P_n for n = 0..steps


def _neumann(a: np.ndarray) -> np.ndarray:
    """(I - a)^-1 of a nonnegative, strictly lower triangular a, from products alone.

    a is nilpotent, so (I - a)^-1 = (I + a)(I + a^2)(I + a^4)... up to the first power
    of two at or above its size.
    """
    inverse, power, span = np.eye(len(a)) + a, a, 2
    while span < len(a):
        power = power @ power
        inverse += inverse @ power
        span *= 2
    return inverse


def _solve(survival, kernel, c: float, start: np.ndarray, steps: int, source: np.ndarray,
           near: np.ndarray):
    """b, d and P of d_n = source_n + sum_j K_j b_{n-j}, b_{n+1} = c*d_n, P_n = sum_j L_j b_{n-j}.

    start holds the virtual newborns b_{-k}.  Steps are taken BLOCK at a time: a block's
    d and P are one product of [[(I - c*T0)^-1, 0], [c*TL (I - c*T0)^-1, I]] with its
    history sums of K and L.  Those come from Hankel panels of K and L (2*BLOCK rows,
    SLAB lags each).  A far panel, of lags >= SLAB, is built once per epoch of SLAB steps
    and multiplied at its start with the windows of all its blocks, whose newborns are
    then final.  The near panel, of lags < SLAB, is multiplied at the start of each
    superblock of SUPERBLOCK blocks with the windows of all its blocks, its own newborns
    still 0, and then with those newborns, one block at a time; it is given, as
    _panel(kernel, survival, 0, min(SLAB, start.size)).
    """
    n_cells, base = start.size, steps + 1
    # w[BLOCK + base - n + j] = b_{n-j}: the head takes the newborns the last block makes
    # past `steps`, the tail pads the last slab's windows
    w = np.zeros(BLOCK + base + n_cells + SLAB)
    w[BLOCK + base:BLOCK + base + n_cells] = start
    windows = sliding_window_view(w, SLAB)
    lag = np.arange(BLOCK)[:, None] - np.arange(BLOCK) - 1  # T0[i, l] = K_{i-1-l}, l < i
    inside = lag >= 0
    lag = np.where(inside, lag, 0)
    k_lag, l_lag = (np.append(v, np.zeros(BLOCK))[lag] for v in (kernel, survival))
    solve = _neumann(np.where(inside, c * k_lag, 0.0))
    step = np.block([[solve, np.zeros((BLOCK, BLOCK))],
                     [np.where(inside, c * l_lag, 0.0) @ solve, np.eye(BLOCK)]])
    far = [(lo, min(lo + SLAB, n_cells)) for lo in range(SLAB, n_cells, SLAB)]
    blocks = -(-base // BLOCK)
    forcing = np.zeros(blocks * BLOCK)
    forcing[:base] = source
    out = np.zeros((blocks, 2 * BLOCK))  # row g: d, then P, of block g
    # one scratch for the windows of up to an epoch's blocks, then a far panel, reused:
    # a fresh array this large costs its page faults anew
    span = min(blocks, SLAB // BLOCK) * near.shape[1]
    scratch = np.empty(span + 2 * BLOCK * min(SLAB, max(n_cells - SLAB, 0)))

    def add_history(top: int, length: int, lo: int, hi: int, panel: np.ndarray):
        # the blocks of steps [top, top + length): their windows of lags [lo, hi), the
        # last block's first, times the panel of those lags, into their rows of out
        count = len(range(top, min(top + length, base), BLOCK))
        rows = scratch[:count * (hi - lo)].reshape(count, hi - lo)
        last = BLOCK + base - top - BLOCK * (count - 1) + lo
        rows[:] = windows[last:last + BLOCK * count:BLOCK, :hi - lo]
        out[top // BLOCK:top // BLOCK + count][::-1] += rows @ panel.T

    for top in range(0, base, BLOCK * SUPERBLOCK):
        if top % SLAB == 0:  # an epoch: its far slabs read only newborns made before it
            for lo, hi in far:
                add_history(top, SLAB, lo, hi, _panel(kernel, survival, lo, hi, scratch[span:]))
        add_history(top, BLOCK * SUPERBLOCK, 0, near.shape[1], near)
        starts = range(top, min(top + BLOCK * SUPERBLOCK, base), BLOCK)
        history = out[top // BLOCK:top // BLOCK + len(starts)]
        for g, n0 in enumerate(starts):
            lo = BLOCK + base - n0
            sums = history[g]
            done = min(n0 - top, near.shape[1])  # the superblock's newborns so far
            if done:
                sums += near[:, :done] @ w[lo:lo + done]
            sums[:BLOCK] += forcing[n0:n0 + BLOCK]
            sums[:] = step @ sums
            w[lo - BLOCK:lo] = c * sums[BLOCK - 1::-1]
    return (w[BLOCK:BLOCK + base + n_cells], out[:, :BLOCK].ravel()[:base],
            out[:, BLOCK:].ravel()[:base])


def _panel(kernel, survival, lo: int, hi: int, out=None) -> np.ndarray:
    """Hankel panels of K, then L: row i holds K_{i+t} (L_{i+t}) for t in [lo, hi), 0 past J.

    Written into the head of the flat array out, when given.
    """
    width = hi - lo
    panel = np.empty(2 * BLOCK * width) if out is None else out[:2 * BLOCK * width]
    panel = panel.reshape(2 * BLOCK, width)
    for rows, series in ((panel[:BLOCK], kernel), (panel[BLOCK:], survival)):
        padded = np.zeros(width + BLOCK - 1)
        part = series[lo:hi + BLOCK - 1]
        padded[:part.size] = part
        rows[:] = sliding_window_view(padded, width)[:BLOCK]
    return panel


def _anchors(cells: _CellGrid, m0: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """(first, L, K, start) of each renewal run whose sum is the scheme run from the start
    masses m0, and the near panel of the first run (see `_solve`); every array read-only.

    The start enters as virtual newborns b_{-k} = m0_k / L_k.  Where that would exceed
    START_SPAN times the largest start cell (L_k underflows past a spike in the hazard,
    or under steep death), it stops: the start from that cell on is anchored there, with
    L counted from it, and solved without births, and so on.  The first run, from cell
    0, has the births; the divisions of the others are a known source in it.
    """
    n_cells = m0.size
    scale = START_SPAN * m0.max()
    anchors = []
    first = 0
    while first < n_cells:
        survival = np.cumprod(np.concatenate(([1.0], cells.keep[first:-1])))  # L from `first`
        kernel = cells.div_frac[first:] * survival
        over = np.flatnonzero(m0[first:] > survival * scale)
        end = n_cells if over.size == 0 else first + int(over[0])
        start = np.zeros(n_cells - first)
        np.divide(m0[first:end], survival[:end - first], out=start[:end - first],
                  where=m0[first:end] > 0)
        anchors.append((first, survival, kernel, start))
        first = end
    _, survival, kernel, _ = anchors[0]
    near = _panel(kernel, survival, 0, min(SLAB, n_cells))
    for array in (near, *(table for anchor in anchors for table in anchor[1:])):
        array.flags.writeable = False
    return anchors, near


@functools.lru_cache(maxsize=1)
def _plan(rate, mu, dt: float, a_max: float | None):
    """The cells, k_d and `_anchors` of the equilibrium start: all that f leaves unchanged."""
    cells = _CellGrid(rate, mu, dt, a_max)
    k = _growth_rate(cells, mu)
    return cells, k, *_anchors(cells, _equilibrium_masses(cells, k))


def _renewal(anchors: list[tuple], near: np.ndarray, c: float, steps: int) -> list[_Run]:
    """The `_anchors` runs solved over steps, with births, of factor c, in the first alone."""
    runs = []
    source = np.zeros(steps + 1)
    for first, survival, kernel, start in anchors[1:]:
        # no births: the start has left these cells after start.size steps
        span = min(steps, start.size - 1)
        # built run by run: a plan that held these panels would keep 512 B per cell each
        near_run = _panel(kernel, survival, 0, min(SLAB, start.size))
        w, d, p = _solve(survival, kernel, 0.0, start, span, np.zeros(span + 1), near_run)
        pad = np.zeros(steps - span)
        runs.append(_Run(first, survival, np.concatenate((pad, w)), np.append(d, pad),
                         np.append(p, pad)))
        source += runs[-1].divisions
    _, survival, kernel, start = anchors[0]
    return [_Run(0, survival, *_solve(survival, kernel, c, start, steps, source, near))] + runs


def _profile(runs: list[_Run], n: int, n_cells: int) -> np.ndarray:
    """Age-cell masses at step n: cell j is L_j * b_{n-j} of every run that holds it."""
    masses = np.zeros(n_cells)
    for run in runs:
        lo = run.divisions.size - n
        masses[run.first:] += run.survival * run.w[lo:lo + run.survival.size]
    return masses


def _quiescent(influx: np.ndarray, loss: float) -> np.ndarray:
    """Q_n of Q_{n+1} = (1 - loss)*Q_n + influx_n from Q_0 = 0, 0 <= loss <= 1, by blocks.

    Within a block Q is one product with the powers of 1 - loss; each block then
    carries its last Q into the next.  The powers come from log1p(-loss): 1 - loss
    rounded to a double would be off by up to 1.1e-16, which 1e4 steps of decay
    multiply into 1e-12.
    """
    count = influx.size
    blocks = -(-count // BLOCK)
    x = np.zeros(blocks * BLOCK)
    x[:count] = influx
    lag = np.arange(BLOCK + 1)[:, None] - np.arange(BLOCK) - 1
    decay = np.where(lag >= 0, _powers(np.maximum(lag, 0), loss), 0.0)  # for l < i
    inner = x.reshape(blocks, BLOCK) @ decay.T  # Q within each block, from Q = 0 at its start
    powers = _powers(np.arange(BLOCK + 1), loss)
    carry = np.empty(blocks)
    q = 0.0
    for k, end in enumerate(inner[:, BLOCK].tolist()):
        carry[k] = q
        q = powers[BLOCK] * q + end
    return (inner[:, :BLOCK] + carry[:, None] * powers[:BLOCK]).ravel()[:count]


def _powers(k: np.ndarray, loss: float) -> np.ndarray:
    """(1 - loss)^k for integers k >= 0 and 0 <= loss <= 1."""
    if loss < 1.0:
        return np.exp(k * math.log1p(-loss))
    return (k == 0).astype(float)


def simulate(config: SimConfig, snapshot_times=None) -> SimOutput:
    """Run the quiescence model; all series are sampled at every step.

    snapshots holds one (time, age profile) pair per requested snapshot time,
    in the order given, each at the step nearest to it.  births and
    quiescence_influx record the mass that arrives in P and Q.  Raises
    ValidationError unless snapshot_times is None or an iterable of numbers in
    [0, t_end], and GridTooSmallError, at the first such step, if noticeable
    mass reaches the top age cell.
    """
    dt = config.dt
    try:
        requested = [] if snapshot_times is None else list(snapshot_times)
    except TypeError:
        raise ValidationError(
            f"snapshot_times must be an iterable of times, got {snapshot_times!r}") from None
    snap_times = [check_number(t, "snapshot time", 0, config.t_end) for t in requested]
    snap_steps = [int(round(t / dt)) for t in snap_times]
    if config.initial is None:  # the scheme's own stable age distribution
        cells, _, anchors, near = _plan(config.rate, config.mu, dt, config.a_max)
    else:
        cells = _CellGrid(config.rate, config.mu, dt, config.a_max)
        anchors, near = _anchors(cells, _start_masses(config.initial, cells))
    f = config.f
    mu_q = config.quiescent_death_rate
    steps = int(round(config.t_end / dt))
    n_cells = cells.centers.size
    # daughters take half a step of death on arrival (module docstring)
    newborn = 2.0 * (1.0 - f) * math.exp(-config.mu * dt / 2.0)
    into_q = 2.0 * f * math.exp(-mu_q * dt / 2.0)

    runs = _renewal(anchors, near, newborn, steps)
    divisions = runs[0].divisions
    series_p = sum(run.p for run in runs)
    series_q = _quiescent(into_q * divisions, dt * mu_q)
    total = series_p + series_q
    # the top cell at step n is L_{J-1} * b_{n-J+1}
    top = sum(run.survival[-1] * run.w[run.survival.size + 1:][::-1] for run in runs)
    escaped = np.flatnonzero(top > ESCAPE_TOL * np.maximum(total[:steps], 1e-300))
    if escaped.size:
        n = int(escaped[0])
        raise GridTooSmallError(
            f"age profile reached a_max = {cells.a_max:g} at t = {n * dt:g} "
            f"(top cell holds {top[n]:.3e}); increase a_max"
        )

    profiles = {n: _profile(runs, n, n_cells) / dt for n in {*snap_steps, steps}}
    return SimOutput(
        times=np.arange(steps + 1) * dt,
        P=series_p,
        Q=series_q,
        N=total,
        births=newborn * divisions / dt,
        quiescence_influx=into_q * divisions / dt,
        final_profile=AgeProfile(cells.centers.copy(), profiles[steps]),
        snapshots=[(t, profiles[k]) for t, k in zip(snap_times, snap_steps)],
    )


def scheme_growth_rate(config: SimConfig) -> float:
    """lambda_d, the growth rate of the scheme's untreated newborn series, on config's cells.

    Where the grid reaches the rate's divergence range, lambda_d approaches solve_lambda's
    lambda as O(dt^2).  f and the start do not enter.  Read from simulate's `_plan`.
    """
    return _plan(config.rate, config.mu, config.dt, config.a_max)[1] - config.mu


def _growth_rate(cells: _CellGrid, mu: float) -> float:
    """k_d = mu + lambda_d, where 2 exp(-mu*dt/2) sum_j K_j exp(-lambda_d*dt*(j+1)) = 1.

    With death taken out of `_renewal`'s kernel K, K_j = Kt_j exp(-mu*dt*j), Kt_j = div_frac_j *
    exp(H(c_0) - H(c_j)), and spectral.falsi_root finds the root in k of the log of the left
    side, log 2 + mu*dt/2 + log sum_j Kt_j exp(-k*dt*(j+1)), which no mu over- or underflows.
    div_frac carries death, so k_d rises as ~mu/2.  GridTooSmallError if it is <= 0 at k = 0.
    """
    live = cells.div_frac > 0
    log_kernel = np.log(cells.div_frac[live]) + cells.hazard[0] - cells.hazard[live]
    lags = cells.dt * (np.flatnonzero(live) + 1)
    shift = math.log(2.0) + mu * cells.dt / 2.0

    def g(k):
        x = log_kernel - k * lags
        top = x.max()
        return top + math.log(float(np.exp(x - top).sum())) + shift

    if not live.any() or (g0 := g(0.0)) <= 0.0:
        raise GridTooSmallError(f"the age cells end at a_max = {cells.a_max:g}, before the "
                                "rate's divergence range; increase a_max or check the rate")
    return spectral.falsi_root(g, g0, mu)


def quiescent_fraction(config: SimConfig, t0: float) -> float:
    """Labeled quiescent fraction F = Q(t0) / (Q(t0) + newborn flux into P).

    Both terms accumulate the same per-step division mass, so with
    mu = mu_q = 0 the result equals f exactly.
    """
    t0 = check_number(t0, "t0", 0)
    if t0 > config.t_end + 1e-12:
        raise ValidationError(f"simulation horizon {config.t_end} is shorter than t0 = {t0}")
    return _labelled_fraction(simulate(config), config.dt, t0)


def _labelled_fraction(out: SimOutput, dt: float, t0: float) -> float:
    """quiescent_fraction from a finished run of step dt that reaches t0."""
    k = int(round(t0 / dt))
    flux_into_p = dt * float(out.births[:k].sum())
    denom = out.Q[k] + flux_into_p
    if denom <= 0:
        raise ValidationError("no division flux accumulated by t0; cannot form the fraction")
    return float(out.Q[k] / denom)


def imt_experiment(rate, mu: float, t0: float, big_t: float, dt: float = 0.025):
    """Finite-window IMT density of a labeled cohort, and its L1 gap to the ideal.

    The cohort starts from the equilibrium masses m0 of the continuous renewal root
    k* = mu + lambda, which mu does not move (the short cells could not give one), cut at
    t0, and evolves by pure transport and loss (daughters are not re-injected).  With the
    hazard part Lh_j = H(c_0) - H(c_j) = -sum_{l<j} dh_l of a cell's log-survival, the
    division observable beta * p summed over the K = big_t / dt steps is the convolution

        acc_j = dt * beta_j * exp(Lh_j) * sum_{k<K} m0_{j-k} exp(-Lh_{j-k}) exp(-mu*dt*k),

    normalized into the finite-window density I_T; the returned gap is
    integral |I_T - I_inf| against the ideal density on the same cells.
    Requires t0 >= 0, the rate to vanish on [0, t0] (hazard at t0 below
    HAZARD_TOL) and big_t > t0, with big_t / dt at most MAX_STEPS and
    (big_t + t0) / dt within spectral.MAX_CELLS.
    """
    t0, big_t = check_number(t0, "t0", 0), check_number(big_t, "big_t")
    dt, mu = check_number(dt, "dt", 0, strict=True), check_number(mu, "death rate mu", 0)
    if big_t <= t0:
        raise ValidationError(f"observation window {big_t} must exceed t0 = {t0}")
    if big_t / dt > MAX_STEPS:
        raise ValidationError(f"big_t / dt = {big_t / dt:.3g} steps > {MAX_STEPS}")
    hazard_t0 = float(rate.hazard(t0))
    if hazard_t0 > HAZARD_TOL:
        raise ValidationError(
            f"division rate is not ~0 below t0 = {t0} (hazard {hazard_t0:.3g} > {HAZARD_TOL:g})"
        )
    steps = int(round(big_t / dt))
    if steps == 0:
        raise ValidationError(f"observation window {big_t} is shorter than one step dt = {dt}")
    cells = _CellGrid(rate, mu, dt, big_t + t0 + 2.0 * dt)
    beta = np.asarray(rate(cells.centers), dtype=float)
    if not np.isfinite(beta).all():
        raise ConfigurationError("division rate is not finite on the age cells")
    # k* is solve_lambda's lambda at mu 0; no cell centre <= t0: a unit mass in the first cell
    first = cells.centers[0]
    k = spectral.solve_lambda(rate, 0.0) if t0 >= first else 0.0
    m0 = _equilibrium_masses(cells, k, max(t0, first))

    lh = cells.hazard[0] - cells.hazard
    # m0 > 0 only at ages <= t0, where -lh <= HAZARD_TOL; death stays a kernel of its
    # own, as folding mu*dt into lh would overflow exp(-lh) once mu*t0 exceeds ~709
    support = np.flatnonzero(m0)[-1] + 1
    held = np.convolve(m0[:support] * np.exp(-lh[:support]), np.exp(-mu * dt * np.arange(steps)))
    acc = dt * beta * np.exp(lh) * np.pad(held, (0, m0.size - held.size))

    c_t = float(acc.sum())
    if c_t <= 0:
        raise ValidationError("no division flux observed by big_t; window too short")
    i_t = acc / (c_t * dt)

    # peaks at exp(0) where beta > 0 (c_t > 0: some cell), so steep death cannot underflow it
    exponent = -cells.hazard - mu * cells.centers
    ideal = beta * np.exp(np.minimum(exponent - exponent[beta > 0].max(), 0.0))
    ideal /= ideal.sum() * dt
    l1_gap = float(np.abs(i_t - ideal).sum() * dt)
    return AgeProfile(cells.centers, i_t), l1_gap
