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

    d_n = S_d[n] + sum_j K_j b_{n-j},   b_{n+1} = 2(1-f) exp(-mu*dt/2) d_n,
    P_n = S_p[n] + sum_j L_j b_{n-j},

with S_d and S_p the divisions and mass of the start's own cells, known in advance (Feller's
renewal decomposition), so a run from either start solves its births from an empty history
(`_births`).  A profile's cell j, the top cell J-1 too, holds L_j * b_{n-j} plus the start's
(the top cell's keep is never used: its content leaves), and Q keeps its recursion.  P never
enters d, so the births are solved alone, BLOCK steps at a time: inside a block exactly, by
one product with (I - c*T0)^-1, formed by Neumann doubling; the history sums are BLAS
products of Hankel panels of K, a SLAB of lags each, against finished blocks of b: the first
slab takes a superblock's windows in one product, then the superblock's own blocks one at a
time, and each later slab, which reaches only newborns made SLAB steps before, the windows
of a whole epoch of SLAB steps in one.  P then takes the finished births through the same
products with panels of L, and the lags inside every block in one product for all blocks.
A block at step n reads b_{n-t} at lag t, and b_k = 0 for k <= 0, so no product reads a lag
at or past the step of its last block: blocks whose lags run past their own step go in
groups of GROUP, each multiplying only the lags below its last block's step
(`_add_history`).  One waste is kept: the superblock product of the births reads that
superblock's own newborns as 0, before they are made, and its blocks then add them one at a
time; leaving them out would cost a product per block.  K, L, b and every matrix are
nonnegative, so every sum is of nonnegative terms and each output is accurate relative to
itself: births that are exactly 0 before the first division stay exactly 0.  An FFT
convolution would be O(N log N) but its error is absolute, relative to the largest term, and
turns those zeros into +-1e-20 noise.

A custom start enters as virtual newborns b_k = m0_k / L_k: cell j holds L_j * b_{j-n} after
n steps, so its S_d and S_p are correlations of b with K and L, taken in blocked products of
the same kind (`_correlate`).  Where L_k is too small to carry a start cell (a spike in the
hazard, or steep death), the start from that cell on is a segment anchored there, with L
counted from it (`_anchors`, `START_SPAN`).

The equilibrium start is the scheme's own eigenvector, m0_j proportional to
Lt_j exp(-k_d*dt*j), with Lt the death-free survival, k_d = mu + lambda_d and lambda_d the
root of its renewal sum on the run's cells (`_growth_rate`), so an untreated run grows as
exp(lambda_d*t) from t = 0 to rounding.  After n steps it holds cells j >= n as
m0_j exp(lambda_d*dt*n), and its divisions and mass are closed-form series of the plan
(`_equilibrium_start`), with no anchored run at any mu.

All that f and the start leave unchanged, the cells, L and K with their near panel, is one
read-only plan per (rate, mu, dt, a_max), the rate by identity.  One plan is kept, the last:
the doses of a sweep come one after another.  The equilibrium start, whose k_d
scheme_growth_rate reads, is built on it when first needed: a custom start never solves for k_d.

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
GROUP = 8  # blocks per history product where a product's lags run past its blocks' steps
# An epoch is whole superblocks, so it starts where a superblock does, and every newborn
# that a far slab (lags >= SLAB) reads over the whole epoch is then final
assert SLAB % (BLOCK * SUPERBLOCK) == 0, "SLAB must be a multiple of BLOCK * SUPERBLOCK"
START_SPAN = 2.0**64  # custom starts: largest b_{-k} = m0_k / L_k, relative to the largest cell


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


def _equilibrium_masses(cells: _CellGrid, k: float, t0: float):
    """imt_experiment's cohort: unit-total cell masses proportional to exp(-(H(c_j) + k*c_j)),
    cut to c_j <= t0, with t0 at or past the first cell centre.

    k = mu + lambda is the continuous renewal root.  The masses are taken relative to the
    first cell, whose weight is 1, so neither k >= 0 nor a steep hazard can underflow them.
    """
    ages = cells.centers - cells.centers[0]
    weights = np.where(cells.centers <= t0, np.exp(cells.hazard[0] - cells.hazard - k * ages),
                       0.0)
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


def _solve(survival, kernel, c: float, steps: int, source: np.ndarray, near: np.ndarray):
    """b, d and P of d_n = source_n + sum_j K_j b_{n-j}, b_{n+1} = c*d_n, P_n = sum_j L_j b_{n-j}
    from an empty history, where source carries the start: w, with w[steps + 1 - n + j] =
    b_{n-j} (b reversed), then d_n and P_n for n = 0..steps.

    P never feeds back, so the loop solves d alone, BLOCK steps at a time: a block's d is its
    history sums of K, plus the source (added before the loop), times (I - c*T0)^-1.  The
    sums come from Hankel panels of K, BLOCK rows and SLAB lags each (`_add_history`).  A far
    panel, of lags >= SLAB, is built once per epoch of SLAB steps and multiplied at its start
    with the windows of all its blocks, whose newborns are then final.  The near panel, of
    lags < SLAB, is multiplied at the start of each superblock of SUPERBLOCK blocks with the
    windows of all its blocks, its own newborns still 0, and then with those newborns, one
    block at a time.  P then takes the finished newborns through the same products with
    panels of L, the near one a superblock at a time, and the lags inside each block in one
    product for all blocks.  No product reads a lag at or past its last block's step
    (`_add_history`), but the superblock product of d reads the superblock's own newborns
    as 0 before they are made, the one waste kept: leaving them out would cost a product per
    block.  near is given, as _panel(K, 0, min(SLAB, survival.size)) stacked on
    _panel(L, ...).
    """
    n_cells, base = survival.size, steps + 1
    # w[BLOCK + base - n + j] = b_{n-j}: the head takes the newborns the last block makes
    # past `steps`, the tail pads the last slab's windows
    w = np.zeros(BLOCK + base + n_cells + SLAB)
    windows = sliding_window_view(w, SLAB)
    lag = np.arange(BLOCK)[:, None] - np.arange(BLOCK) - 1  # T0[i, l] = K_{i-1-l}, l < i
    # lags < 0 read the zero pad at the end: both are strictly lower triangular
    k_lag, l_lag = (np.append(v, np.zeros(BLOCK))[lag] for v in (kernel, survival))
    solve = _neumann(c * k_lag)
    far = [(lo, min(lo + SLAB, n_cells)) for lo in range(SLAB, n_cells, SLAB)]
    blocks = -(-base // BLOCK)
    d = np.append(source, np.zeros(blocks * BLOCK - base)).reshape(blocks, BLOCK)
    width = near.shape[1]
    # one scratch for the windows of up to an epoch's blocks, then a far panel, reused:
    # a fresh array this large costs its page faults anew
    span = min(blocks, SLAB // BLOCK) * width
    scratch = np.empty(span + BLOCK * min(SLAB, max(n_cells - SLAB, 0)))

    def window_rows(first: int, end: int, lo: int, lags: int) -> np.ndarray:
        # the windows b_{n-t}, t in [lo, lo + lags), of the blocks first..end-1, the last
        # block's first, copied into the scratch for BLAS
        rows = scratch[:(end - first) * lags].reshape(end - first, lags)
        last = BLOCK + base - BLOCK * (end - 1) + lo
        rows[:] = windows[last:last + BLOCK * (end - first):BLOCK, :lags]
        return rows

    def add_far(out, first: int, series: np.ndarray):
        # an epoch's far slabs: they read only newborns made before it
        end = min(first + SLAB // BLOCK, blocks)
        for lo, hi in far:
            hi = min(hi, BLOCK * (end - 1))  # lags past the epoch's last step reach no newborn
            if lo < hi:
                _add_history(out, first, end, lo, _panel(series, lo, hi, scratch[span:]),
                             window_rows)

    k_near, l_near = near[:BLOCK], near[BLOCK:]
    firsts = range(0, blocks, SUPERBLOCK)
    for first in firsts:
        if first % (SLAB // BLOCK) == 0:
            add_far(d, first, kernel)
        end = min(first + SUPERBLOCK, blocks)
        if first:  # else the superblock's windows hold no newborn yet
            _add_history(d, first, end, 0, k_near, window_rows)
        for g in range(first, end):
            lo = BLOCK + base - BLOCK * g
            sums = d[g]
            done = min(BLOCK * (g - first), width)  # the superblock's newborns so far
            if done:
                sums += k_near[:, :done] @ w[lo:lo + done]
            sums[:] = solve @ sums
            w[lo - BLOCK:lo] = c * sums[::-1]
    # row g: the newborns b_{g*BLOCK + 1..}, which block g makes
    p = w[BLOCK + base - blocks * BLOCK:BLOCK + base][::-1].reshape(blocks, BLOCK) @ l_lag.T
    for first in firsts:
        if first % (SLAB // BLOCK) == 0:
            add_far(p, first, survival)
        _add_history(p, first, min(first + SUPERBLOCK, blocks), 0, l_near, window_rows)
    return w[BLOCK:BLOCK + base + n_cells], d.ravel()[:base], p.ravel()[:base]


def _add_history(out, first: int, end: int, lo: int, panel: np.ndarray, window_rows):
    """Add to rows first..end-1 of out, row g the block of steps n = BLOCK*g.., the history
    sums of lags [lo, lo + panel width): the window b_{n-t} of each row times the panel.

    b_k is 0 for k <= 0, so only lags t < n reach a newborn: the blocks whose step is past
    the lags take them all in one product, and the others go GROUP at a time, each group's
    lags cut at its last block's step.  window_rows(first, end, lo, lags) copies the
    windows (`_solve`).
    """
    hi = min(lo + panel.shape[1], BLOCK * (end - 1))
    split = max(first, -(-hi // BLOCK))  # blocks from here on have steps >= hi
    if lo < hi:
        _history_product(out, split, end, lo, panel[:, :hi - lo], window_rows)
    for group in range(first, split, GROUP):
        stop = min(group + GROUP, split)
        cap = BLOCK * (stop - 1)
        if lo < cap:
            _history_product(out, group, stop, lo, panel[:, :cap - lo], window_rows)


def _history_product(out, first: int, end: int, lo: int, panel: np.ndarray, window_rows):
    """One BLAS product of `_add_history`: rows first..end-1 of out, lags [lo, lo + panel
    width)."""
    out[first:end][::-1] += window_rows(first, end, lo, panel.shape[1]) @ panel.T


def _panel(series, lo: int, hi: int, out=None) -> np.ndarray:
    """Hankel panel of series: row i holds series_{i+t} for t in [lo, hi), 0 past its end.

    Written into the head of the flat array out, when given.
    """
    width = hi - lo
    panel = (np.empty(BLOCK * width) if out is None else out[:BLOCK * width]).reshape(BLOCK, width)
    padded = np.concatenate((series[lo:hi + BLOCK - 1], np.zeros(BLOCK - 1)))
    panel[:] = sliding_window_view(padded, width)[:BLOCK]
    return panel


def _anchors(cells: _CellGrid, m0: np.ndarray) -> list[tuple]:
    """(first, L, K, b) of each segment of the custom start masses m0 (`_custom_start`).

    The segment enters as virtual newborns b_k = m0_{first+k} / L_k, with L and K counted
    from its first cell.  Where that would exceed START_SPAN times the largest start cell
    (L_k underflows past a spike in the hazard, or under steep death), it stops: the start
    from that cell on is the next segment, anchored there.  b ends at the segment's last
    nonzero cell, and a segment without one is left out.
    """
    n_cells = m0.size
    scale = START_SPAN * m0.max()
    anchors = []
    first = 0
    while first < n_cells:
        survival, kernel = _tables(cells, first)
        over = np.flatnonzero(m0[first:] > survival * scale)
        end = n_cells if over.size == 0 else first + int(over[0])
        mass = np.trim_zeros(m0[first:end], "b")
        if mass.size:
            newborns = np.divide(mass, survival[:mass.size], out=np.zeros(mass.size),
                                 where=mass > 0)
            anchors.append((first, survival, kernel, newborns))
        first = end
    return anchors


def _tables(cells: _CellGrid, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """L_j and K_j = div_frac_j * L_j of a run on the cells from `first` on."""
    survival = np.cumprod(np.concatenate(([1.0], cells.keep[first:-1])))
    return survival, cells.div_frac[first:] * survival


class _Start(NamedTuple):
    """The equilibrium start m0 and its part of every run (`_equilibrium_start`).

    After n < J steps it holds cells j >= n as m0_{j-n} * L_j / L_{j-n} (`masses`), a
    product of the cells' own keep, so it rounds as the scheme's steps do.  The closed form
    m0_j * exp(lambda_d*dt*n), equal in exact arithmetic, drifts from them by up to n*eps
    where keep is constant (the rate's plateau): 7e-14 relative after 9 000 steps.  L is
    kept as mantissa * 2**exponent (`_scaled_survival`), which no death rate underflows.
    series holds, for steps n < J, the start's divisions S_d, its mass S_p and its top
    cell; it has left the cells by step J.
    """

    m0: np.ndarray
    mantissa: np.ndarray
    exponent: np.ndarray
    series: np.ndarray
    k: float  # k_d = mu + lambda_d

    def masses(self, n: int) -> np.ndarray:
        """Cells n.. after n steps."""
        cells = np.arange(n, self.m0.size)
        return self.m0[:cells.size] * self.survival(cells, cells - n)

    def survival(self, to: np.ndarray, of: np.ndarray) -> np.ndarray:
        """L_to / L_of: 1 where to is of, 0 past a keep of 0."""
        below = self.mantissa[of]
        ratio = np.divide(self.mantissa[to], below, out=np.equal(to, of) * 1.0, where=below > 0)
        return np.ldexp(ratio, self.exponent[to] - self.exponent[of])


class _CustomStart(NamedTuple):
    """A custom start's part of a run (`_custom_start`), as `_Start` has it: series holds,
    for steps n < J, the start's divisions S_d and mass S_p up to the run's end, and its top cell.

    Cells come from the `_anchors` segments, as L_j * b_{j-n}, L counted from each
    segment's first cell: a ratio of L counted from cell 0 would be 0/0 past a keep of 0.
    """

    segments: list  # (first, L, K, b) of each segment
    series: np.ndarray

    def masses(self, n: int) -> np.ndarray:
        """Cells n.. after n steps."""
        masses = np.zeros(self.series.shape[1] - n)
        for first, survival, _, newborns in self.segments:
            count = max(0, min(newborns.size, survival.size - n))
            masses[first:first + count] += survival[n:n + count] * newborns[:count]
        return masses


def _custom_start(cells: _CellGrid, init: CustomProfile, steps: int) -> _CustomStart:
    """The custom start init on the cells, for a run of steps.  S_d[n] and S_p[n] sum
    K_{j+n} b_j and L_{j+n} b_j over the segments, directly: of nonnegative terms, 0 stays 0."""
    segments = _anchors(cells, _start_masses(init, cells))
    series = np.zeros((3, cells.dh.size))
    if segments:
        count = min(cells.dh.size, steps + 1)
        series[:2, :count] = _correlate(segments, count)
    for _, survival, _, newborns in segments:
        # cell J - 1 holds L_{span-1} * b_{span-1-n}
        span = survival.size
        series[2, span - newborns.size:span] += survival[-1] * newborns[::-1]
    return _CustomStart(segments, series)


def _correlate(segments: list, count: int) -> np.ndarray:
    """x[r, n] = sum over the `_anchors` segments of sum_k T[r, n+k] b_k, for n < count: T the
    segment's K and L, 0 past their end, and b its virtual newborns.

    For n = BLOCK*g + i that is sum_u T[r, BLOCK*g + u] b_{u-i}: windows of T, BLOCK apart,
    times the Toeplitz panel b_{u-i}, u < b.size + BLOCK - 1.  Each b is cut into pieces of
    at most SLAB - BLOCK + 1 cells, and the columns u of consecutive pieces go side by side,
    up to a SLAB of them, so that one product sums over them all, a SLAB of rows at a time.
    """
    blocks, most = -(-count // BLOCK), SLAB - BLOCK + 1
    # each segment's K and L as far as its windows read, then 0
    reach = [newborns.size + BLOCK * blocks for *_, newborns in segments]
    heads = np.cumsum([0] + reach)
    tables = np.zeros((2, heads[-1] + SLAB))
    pieces = []  # (the table entry its windows start at, its columns u) of each piece
    # each piece's b after BLOCK - 1 zeros: row u of its panel, b_{u-i}, is the next row of
    # the slide
    parts = [np.zeros(BLOCK - 1)]
    for (_, survival, kernel, newborns), head, size in zip(segments, heads, reach):
        size = min(size, survival.size)
        tables[0, head:head + size], tables[1, head:head + size] = kernel[:size], survival[:size]
        for o in range(0, newborns.size, most):
            pieces.append((head + o, min(most, newborns.size - o) + BLOCK - 1))
            parts += [newborns[o:o + most], parts[0]]
    slide = sliding_window_view(np.concatenate(parts), BLOCK)[:, ::-1]
    columns = np.cumsum([0] + [width for _, width in pieces])
    windows = sliding_window_view(tables, SLAB, axis=1)
    out = np.zeros((2, blocks * BLOCK))
    first = 0
    while first < len(pieces):  # the pieces whose columns fill one product
        last = np.searchsorted(columns, columns[first] + SLAB, "right") - 1
        panel = np.ascontiguousarray(slide[columns[first]:columns[last]])
        for g in range(0, blocks, SLAB // BLOCK):
            rows = min(SLAB // BLOCK, blocks - g)
            part = np.concatenate([windows[:, head + BLOCK * g::BLOCK][:, :rows, :width]
                                   for head, width in pieces[first:last]], axis=2)
            out[:, BLOCK * g:BLOCK * (g + rows)] += (
                part.reshape(2 * rows, -1) @ panel).reshape(2, -1)
        first = last
    return out[:, :count]


def _scaled_survival(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L_j = prod_{i<j} keep_i as mantissa_j * 2**exponent_j, which no death rate underflows.

    The frexp fractions of keep, each in [0.5, 1), are multiplied 512 at a time, and each
    block's running product is renormalized, so a mantissa stays above 2**-513.  The
    factors are the cells' own keep, so L_j / L_{j-n} rounds as the scheme's n steps do.
    """
    width = 512
    fractions, exponents = np.frexp(np.concatenate(([1.0], keep[:-1])))
    blocks = -(-fractions.size // width)
    inner = np.ones(blocks * width)
    inner[:fractions.size] = fractions
    inner = np.cumprod(inner.reshape(blocks, width), axis=1)
    carries, shifts = np.empty(blocks), np.zeros(blocks, dtype=int)
    carry, shift = 1.0, 0
    for block, last in enumerate(inner[:, -1].tolist()):
        carries[block], shifts[block] = carry, shift
        carry, gained = math.frexp(carry * last)
        shift += gained
    mantissa = (inner * carries[:, None]).ravel()[:fractions.size]
    return mantissa, np.cumsum(exponents) + np.repeat(shifts, width)[:fractions.size]


def _equilibrium_start(cells: _CellGrid, k: float, mu: float) -> _Start:
    """The scheme's own stable start, unit total, for k = mu + lambda_d (`_growth_rate`).

    m0_j = C * Lt_j * exp(-k*dt*j), with Lt the death-free survival, the cumprod of exp(-dh),
    is the eigenvector of the step itself: one step maps it to exp(lambda_d*dt) * m0.  Its
    divisions and mass at step n are S[n] = exp(lambda_d*dt*n) * sum_{j>=n} x_j m0_j, x the
    division fraction or 1.  They are taken as exp(-mu*dt*n) * U[n], where U[n] = sum_{j>=n}
    x_j C Lt_j exp(-k*dt*(j - n)) follows U[n] = x_n C Lt_n + exp(-k*dt) U[n+1] from the top
    cell down (`_quiescent`'s recursion).  k >= 0, mu >= 0 and Lt never rises, so U <= 1 and
    every factor is <= 1: no intermediate over- or underflows where S is representable.
    exp(-mu*dt*n) is taken to an ulp or two, from mu*dt split into a 24-bit head and its
    rest, whose products with n < 2**29 are exact: the rounded product itself would be off
    by up to 0.5*eps*mu*dt*n, ~1e-13 relative on a steep-death run.
    """
    dt, n_cells = cells.dt, cells.dh.size
    free = np.cumprod(np.concatenate(([1.0], np.exp(-cells.dh[:-1]))))
    lags = np.arange(n_cells)
    decay = np.exp(-k * dt * lags)
    scale = free / (free * decay).sum()
    loss = mu * dt  # as the cells take it
    fraction, exponent = math.frexp(loss)
    head = math.ldexp(math.floor(math.ldexp(fraction, 24)), exponent - 24)
    death = np.exp(-head * lags) * np.exp(-(loss - head) * lags)
    tails = [_quiescent(np.append(x[::-1], 0.0), -math.expm1(-k * dt))[:0:-1]
             for x in (cells.div_frac * scale, scale)]
    start = _Start(scale * decay, *_scaled_survival(cells.keep), None, k)
    top = start.m0[::-1] * start.survival(np.full(n_cells, n_cells - 1), lags[::-1])
    return start._replace(series=np.array([tails[0] * death, tails[1] * death, top]))


@dataclass(frozen=True, eq=False)
class _Plan:
    """All of a run that f and the start leave unchanged (see `_plan`)."""

    cells: _CellGrid
    mu: float
    survival: np.ndarray  # L_j
    kernel: np.ndarray  # K_j
    near: np.ndarray  # the near panel of K and L (see `_solve`)

    @functools.cached_property
    def start(self) -> _Start:
        """The equilibrium start, built when a run first needs it, as it solves for k_d."""
        start = _equilibrium_start(self.cells, _growth_rate(self.cells, self.mu), self.mu)
        for array in (start.m0, start.mantissa, start.exponent, start.series):
            array.flags.writeable = False
        return start


@functools.lru_cache(maxsize=1)
def _plan(rate, mu, dt: float, a_max: float | None) -> _Plan:
    """The cells, L, K and near panel of a run, read-only: each run solves only its own
    births on them (`_births`)."""
    cells = _CellGrid(rate, mu, dt, a_max)
    survival, kernel = _tables(cells)
    near = np.vstack([_panel(v, 0, min(SLAB, survival.size)) for v in (kernel, survival)])
    for array in (survival, kernel, near):
        array.flags.writeable = False
    return _Plan(cells, mu, survival, kernel, near)


def _births(plan: _Plan, c: float, steps: int, start):
    """`_solve` for a run from start (`_Start` or `_CustomStart`), of factor c, over steps:
    its births from an empty history, with the start's divisions as the source."""
    source = np.zeros(steps + 1)
    count = min(steps + 1, plan.survival.size)
    source[:count] = start.series[0, :count]
    return _solve(plan.survival, plan.kernel, c, steps, source, plan.near)


def _profile(w: np.ndarray, survival: np.ndarray, n: int, start) -> np.ndarray:
    """Age-cell masses at step n: cell j is L_j * b_{n-j} (w from `_solve`), plus the
    start's cells."""
    lo = w.size - survival.size - n
    masses = survival * w[lo:lo + survival.size]
    if n < survival.size:
        masses[n:] += start.masses(n)
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
    f = config.f
    mu_q = config.quiescent_death_rate
    steps = int(round(config.t_end / dt))
    # daughters take half a step of death on arrival (module docstring)
    newborn = 2.0 * (1.0 - f) * math.exp(-config.mu * dt / 2.0)
    into_q = 2.0 * f * math.exp(-mu_q * dt / 2.0)
    plan = _plan(config.rate, config.mu, dt, config.a_max)
    cells = plan.cells
    # None: the scheme's own stable age distribution
    start = plan.start if config.initial is None else _custom_start(cells, config.initial, steps)
    w, divisions, series_p = _births(plan, newborn, steps, start)
    n_cells = cells.centers.size

    # the top cell at step n is L_{J-1} * b_{n-J+1}
    top = plan.survival[-1] * w[n_cells + 1:][::-1]
    # the start's part: it has left the cells by step J
    series_p[:n_cells] += start.series[1, :steps + 1]
    top[:n_cells] += start.series[2, :steps]
    series_q = _quiescent(into_q * divisions, dt * mu_q)
    total = series_p + series_q
    escaped = np.flatnonzero(top > ESCAPE_TOL * np.maximum(total[:steps], 1e-300))
    if escaped.size:
        n = int(escaped[0])
        raise GridTooSmallError(
            f"age profile reached a_max = {cells.a_max:g} at t = {n * dt:g} "
            f"(top cell holds {top[n]:.3e}); increase a_max"
        )

    profiles = {n: _profile(w, plan.survival, n, start) / dt for n in {*snap_steps, steps}}
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
    return _plan(config.rate, config.mu, config.dt, config.a_max).start.k - config.mu


def _growth_rate(cells: _CellGrid, mu: float) -> float:
    """k_d = mu + lambda_d, where 2 exp(-mu*dt/2) sum_j K_j exp(-lambda_d*dt*(j+1)) = 1.

    With death taken out of the plan's kernel K, K_j = Kt_j exp(-mu*dt*j), Kt_j = div_frac_j *
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
