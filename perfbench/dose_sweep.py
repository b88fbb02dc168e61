"""Workload dose-sweep: the simulator in process, one pass over five cases.

The simulator and the growth eigenproblem do the work, with no fitter. The
cases split the simulator's uses:

- coarse: the reference erfc-mu model at 16 doses (f = 0 and 15 seeded in
  [0, 0.9]), dt = 0.05, t_end = 90. Every run repeats the equilibrium start,
  so this is where batching over doses or caching lambda acts.
- fine: f in {0, 0.6, 0.84} at dt = 0.01, and long: f = 0, dt = 0.05,
  t_end = 1000. Many steps over many cells, where a faster renewal kernel
  would beat the O(steps x cells) lockstep loop.
- custom: the criterion-10 gamma2 run from a tabulated start, which bypasses
  the equilibrium start, so a gain that only caches lambda cannot show here.
- cohort: the criterion-6 labelling fractions and the criterion-8
  observation windows.
"""

from __future__ import annotations

import math

import numpy as np

import hostspeed
import mitoclock as mc
from common import REFERENCE, median

COARSE_DOSES = 16
DOSE_MAX = 0.9
T_END = 90.0
EARLY = 18.0  # h; up to here every dose grows like the untreated culture (criterion 7)
SLOPE_TOL = 1e-3  # relative; untreated ln N slope against the growth eigenvalue
CASES = ("coarse", "fine", "long", "custom")

# criterion 10: gamma2 from a flat start on [0, 10] h, asynchronous growth
GAMMA2 = {"family": "gamma2", "m": 17.0, "sigma": 2.0}
CUSTOM_TIMES = tuple(range(0, 201, 20))
# criterion 8: the erfc fit of the shipped data, observed from t0 = m - 4 sigma
ERFC = {"family": "erfc", "beta0": 0.14204, "m": 24.456, "sigma": 3.3451}

LAYER_METRICS = {
    "spectral.solve_lambda_ms": "ms",
    "spectral.equilibrium_ms": "ms",
    **{f"simulator.simulate_ms.{c}": "ms" for c in CASES},
    **{f"simulator.cell_steps.{c}": "count" for c in CASES},
    "simulator.ns_per_cell_step": "ns",
    "simulator.quiescent_fraction_ms": "ms",
    "simulator.imt_experiment_ms": "ms",
    "simulator.grid_too_small": "count",
}


def _slope(out) -> float:
    """ln N slope over the second half of the run."""
    half = out.times.size // 2
    return math.log(out.N[-1] / out.N[half]) / (out.times[-1] - out.times[half])


def check_dose(f: float, base, lam: float | None):
    """Untreated: slope matches lambda. Treated: same growth as base up to EARLY, less after."""
    def check(out):
        if not (np.all(np.isfinite(out.N)) and np.all(out.N > 0)):
            return "population not finite and positive"
        if f == 0.0:
            if lam is None:
                return "no growth eigenvalue to compare with"
            rel = abs(_slope(out) / lam - 1.0)
            return None if rel < SLOPE_TOL else f"ln N slope off lambda by {rel:.2e}"
        if base is None:
            return "no untreated run to compare with"
        early = out.times <= EARLY
        gap = np.abs(np.log(out.N / out.N[0]) - np.log(base.N / base.N[0]))
        if gap[early].max() >= 1e-4:
            return f"f={f:g} departs from untreated before {EARLY:g} h by {gap[early].max():.2e}"
        if not out.N[-1] < base.N[-1]:
            return f"f={f:g} grows as much as the untreated culture"
        return None
    return check


def check_fraction(f: float, tol: float):
    def check(frac):
        return None if abs(frac - f) < tol else f"|F - f| = {abs(frac - f):.2e} at f={f:g}"
    return check


def check_asynchronous(pair, dt: float):
    """Criterion 10: the scaled profile approaches the equilibrium monotonically."""
    def check(out):
        if pair is None:
            return "no equilibrium to compare with"
        centers = out.final_profile.ages
        phi = np.interp(centers, pair.grid, pair.phi)
        p_hat = np.interp(centers, pair.grid, pair.p_hat, right=0.0)
        rho0 = float((phi * out.snapshots[0][1]).sum() * dt)
        gaps = [float((np.abs(dens * np.exp(-pair.lam * t) / rho0 - p_hat) * phi).sum() * dt)
                for t, dens in out.snapshots]
        if not all(a > b for a, b in zip(gaps, gaps[1:])) or gaps[-1] >= 0.05:
            return f"no asynchronous equilibration: gaps {gaps}"
        return None
    return check


def check_window(previous: list, limit: float):
    """Criterion 8: the gap to the ideal density shrinks as the window grows."""
    def check(out):
        gap = out[1]
        if previous and not gap < previous[-1]:
            return f"gap {gap:.3e} does not shrink from {previous[-1]:.3e}"
        return None if gap < limit else f"gap {gap:.3e} not below {limit:g}"
    return check


class Workload:
    name = "dose-sweep"
    speed = staticmethod(hostspeed.speed)

    def __init__(self, root, seed: int, workdir):
        from mitoclock import spectral

        rng = np.random.default_rng(seed)
        model = mc.model_from_dict(REFERENCE)
        self.rate = mc.ClosedFormRate(model)
        self.mu = model.death_rate
        self.doses = [0.0] + [float(f) for f in rng.uniform(0.0, DOSE_MAX, COARSE_DOSES - 1)]

        def config(f, dt, t_end, **kw):
            return mc.SimConfig(rate=self.rate, mu=self.mu, f=f, t_end=t_end, dt=dt, **kw)

        self.coarse = [config(f, 0.05, T_END) for f in self.doses]
        self.fine = [config(f, 0.01, T_END) for f in (0.0, 0.6, 0.84)]
        self.long = config(0.0, 0.05, 1000.0)
        self.gamma2 = mc.ClosedFormRate(mc.model_from_dict(GAMMA2))
        self.custom = mc.SimConfig(
            rate=self.gamma2, mu=0.0, f=0.0, t_end=200.0, dt=0.05, a_max=215.0,
            initial=mc.CustomProfile(np.array([0.0, 10.0]), np.array([0.1, 0.1])))
        # criterion 6: F == f exactly without death, within 0.01 with it
        self.fractions = [
            (mc.SimConfig(rate=self.rate, mu=0.0, f=f, t_end=20.0, dt=0.05), f, 1e-4)
            for f in (0.0, 0.3, 0.6, 0.84)
        ] + [(config(f, 0.05, 20.0), f, 0.01) for f in (0.3, 0.6, 0.84)]
        erfc = mc.model_from_dict(ERFC)
        self.erfc = mc.ClosedFormRate(erfc)
        self.t0 = erfc.m - 4.0 * erfc.sigma
        self.windows = [self.t0 + erfc.m + k * erfc.sigma for k in (5.0, 10.0, 15.0)]

        def cells(cfg):
            a_max = cfg.a_max or float(spectral.build_grid(cfg.rate, step=cfg.dt)[-1])
            return round(cfg.t_end / cfg.dt) * max(2, math.ceil(a_max / cfg.dt - 1e-9))

        self.cell_steps = {"coarse": cells(self.coarse[0]), "fine": cells(self.fine[0]),
                           "long": cells(self.long), "custom": cells(self.custom)}

    def warm_up(self, rec) -> None:
        self.speed()
        pair = rec.op("warm-up.equilibrium", mc.equilibrium, self.rate, self.mu)
        rec.op("warm-up.simulate", mc.simulate, self.coarse[0],
               check=check_dose(0.0, None, pair.lam if pair else None))

    def run_pass(self, rec) -> None:
        pair = rec.op("equilibrium.reference", mc.equilibrium, self.rate, self.mu)
        lam = pair.lam if pair is not None else None
        for case, configs in (("coarse", self.coarse), ("fine", self.fine), ("long", [self.long])):
            base = None
            for cfg in configs:
                out = rec.op(f"simulate.{case}", mc.simulate, cfg,
                             check=check_dose(cfg.f, base, lam))
                if cfg.f == 0.0:
                    base = out
        pair_g = rec.op("equilibrium.gamma2", mc.equilibrium, self.gamma2, 0.0, step=0.05)
        rec.op("simulate.custom", mc.simulate, self.custom, snapshot_times=CUSTOM_TIMES,
               check=check_asynchronous(pair_g, self.custom.dt))
        for cfg, f, tol in self.fractions:
            rec.op("quiescent_fraction", mc.quiescent_fraction, cfg, cfg.t_end,
                   check=check_fraction(f, tol))
        gaps = []
        for w in self.windows:
            limit = 0.02 if w == self.windows[-1] else math.inf
            out = rec.op("imt_experiment", mc.imt_experiment, self.erfc, 0.0, self.t0, w,
                         check=check_window(gaps, limit))
            gaps.append(out[1] if out is not None else math.nan)

    def layer_metrics(self, index, rec, passes) -> dict:
        from tracing import NAME

        passes = set(passes)
        ops = [row for row in rec.ops if row[0] in passes]

        def op_ms(name):
            return 1e3 * median([r[2] for r in ops if r[1] == name])

        def layer_ms(name):
            spans = index.select("layer", passes, name=name)
            return 1e3 * median([index.duration(i) for i in spans])

        sim_self, sim_cells = 0.0, 0
        for i in index.select("layer", passes, name="simulator.simulate"):
            op = index.op_of(i)
            case = index.spans[op][NAME].removeprefix("simulate.")
            if case in self.cell_steps:
                sim_self += index.self_time(i)
                sim_cells += self.cell_steps[case]
        return {
            "spectral.solve_lambda_ms": layer_ms("spectral.solve_lambda"),
            "spectral.equilibrium_ms": layer_ms("spectral.equilibrium"),
            **{f"simulator.simulate_ms.{c}": op_ms(f"simulate.{c}") for c in CASES},
            **{f"simulator.cell_steps.{c}": self.cell_steps[c] for c in CASES},
            "simulator.ns_per_cell_step": 1e9 * sim_self / sim_cells,
            "simulator.quiescent_fraction_ms": op_ms("quiescent_fraction"),
            "simulator.imt_experiment_ms": op_ms("imt_experiment"),
            "simulator.grid_too_small": sum(
                1 for r in ops if r[4].get("error") == "GridTooSmallError"),
        }
