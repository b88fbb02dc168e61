"""Workload fit-batch: ``fit_imt`` in process, every family, clean and noisy.

The fitter and the model densities do almost all the work here, with no
import, process start or simulator in the timed region. A pass takes
DRAWS_PER_FAMILY seeded draws per family in the criterion-3 parameter ranges
(63 bins of 1.25 h, lambda = 0.022), stratified so that every seed covers
each range evenly, and fits each twice: noise-free, and
with the 5% multiplicative noise of the shipped data
(scripts/generate_example_data.py).
A fitter that wins on clean round trips can lose on noisy histograms, where
it falls back to restarts; the noisy half makes that cost show. Every pass of
a run repeats the same fits, so each fit is timed once per pass.
"""

from __future__ import annotations

import warnings

import numpy as np

import hostspeed
import mitoclock as mc
from common import BIN_WIDTH, FIT_SEED, GROWTH_RATE, N_BINS, median

FAMILIES = mc.FAMILIES

# 100 fits a pass: enough draws that the fit-time percentiles do not hinge
# on a few draws' cost (fits of different draws of one family differ by up
# to 50% in cost).
DRAWS_PER_FAMILY = 10
NOISE = 0.05
MIDPOINTS = (np.arange(1, N_BINS + 1) + 0.5) * BIN_WIDTH
VARIANTS = ("clean", "noisy")

LAYER_METRICS = {
    **{f"fitter.fit_ms.{f}.{v}": "ms" for f in FAMILIES for v in VARIANTS},
    **{f"fitter.nfev.{f}.{v}": "count" for f in FAMILIES for v in VARIANTS},
    "fitter.us_per_eval": "us",
    "fitter.boundary_warnings": "count",
    "fitter.convergence_errors": "count",
    **{f"imt_models.reweighted_density_us.{f}": "us" for f in FAMILIES},
}


def reweighted_density_tag(model, lam, a, *args, **kwargs) -> str:
    """Span tag of one model evaluation: family and number of ages."""
    return f"{model.family}/{getattr(a, 'size', 1)}"


TAGGERS = {"imt_models.reweighted_density": reweighted_density_tag}


# criterion-3 parameter ranges of each family
RANGES = {
    "gamma1": {"m": (14.0, 26.0), "sigma": (1.5, 4.0)},
    "gamma2": {"m": (14.0, 26.0), "sigma": (1.5, 4.0)},
    "emg": {"beta0": (0.12, 0.3), "m": (18.0, 28.0), "sigma": (1.5, 4.0)},
    "erfc": {"beta0": (0.1, 0.25), "m": (18.0, 28.0), "sigma": (2.0, 5.0)},
    "erfc-mu": {"beta0": (0.1, 0.25), "m": (18.0, 28.0), "sigma": (2.0, 5.0),
                "mu": (0.001, 0.008)},
}


def draw_models(family: str, n: int, rng) -> list[mc.Model]:
    """n models in the criterion-3 ranges of a family, by Latin hypercube sampling.

    Each parameter's range is cut into n equal strata and every stratum holds
    exactly one draw, so that the set of draws, and with it the cost of
    fitting them all, varies little from seed to seed.
    """
    columns = {name: lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n
               for name, (lo, hi) in RANGES[family].items()}
    return [mc.Model(family=family, **{name: float(v[k]) for name, v in columns.items()})
            for k in range(n)]


def _histogram(heights) -> mc.Histogram:
    return mc.Histogram(bin_width=BIN_WIDTH, heights=heights, kind=mc.Kind.REWEIGHTED,
                        lambda_used=GROWTH_RATE)


def _fit(hist, family):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", mc.BoundaryWarning)
        result = mc.fit_imt(hist, family, seed=FIT_SEED)
    return result, sum(issubclass(w.category, mc.BoundaryWarning) for w in caught)


def check_clean(truth):
    def check(out):
        result, _ = out
        for name in ("beta0", "m", "sigma", "mu"):
            target = getattr(truth, name)
            if target is not None and abs(getattr(result.model, name) / target - 1.0) >= 0.01:
                return f"{name} off by >= 1% (criterion 3): {result.model} vs {truth}"
        if result.r_squared < 0.9999:
            return f"R2 {result.r_squared} < 0.9999 (criterion 3)"
        return None
    return check


def check_noisy(ssr_truth):
    def check(out):
        result, _ = out
        ssr = float(np.dot(result.residuals, result.residuals))
        if not ssr <= ssr_truth:
            return (f"fitted SSR {ssr:.6g} exceeds the SSR {ssr_truth:.6g} "
                    "at the generating parameters")
        return None
    return check


class Workload:
    name = "fit-batch"
    speed = staticmethod(hostspeed.speed)

    def __init__(self, root, seed: int, workdir):
        rng = np.random.default_rng(seed)
        self.items = []
        draws = {family: draw_models(family, DRAWS_PER_FAMILY, rng) for family in FAMILIES}
        for k in range(DRAWS_PER_FAMILY):
            for family in FAMILIES:
                truth = draws[family][k]
                clean = np.asarray(mc.reweighted_density(truth, GROWTH_RATE, MIDPOINTS))
                noisy = np.maximum(clean * (1.0 + NOISE * rng.standard_normal(clean.size)), 0.0)
                ssr_truth = float(np.dot(clean - noisy, clean - noisy))
                self.items.append((family, truth, _histogram(clean), _histogram(noisy), ssr_truth))

    def warm_up(self, rec) -> None:
        self.speed()
        for family, truth, clean, _, _ in self.items[:len(FAMILIES)]:
            rec.op(f"warm-up.{family}", _fit, clean, family, check=check_clean(truth))

    def run_pass(self, rec) -> None:
        for family, truth, clean, noisy, ssr_truth in self.items:
            for variant, hist, check in (("clean", clean, check_clean(truth)),
                                         ("noisy", noisy, check_noisy(ssr_truth))):
                out = rec.op(f"fit.{family}.{variant}", _fit, hist, family, check=check)
                if out is not None:
                    rec.note(nfev=out[0].n_evaluations, warnings=out[1])

    def layer_metrics(self, index, rec, passes) -> dict:
        from tracing import TAG

        passes = set(passes)
        fits = [row for row in rec.ops if row[0] in passes and row[1].startswith("fit.")]
        metrics = {}
        for family in FAMILIES:
            for variant in VARIANTS:
                rows = [r for r in fits if r[1] == f"fit.{family}.{variant}"]
                metrics[f"fitter.fit_ms.{family}.{variant}"] = 1e3 * median([r[2] for r in rows])
                metrics[f"fitter.nfev.{family}.{variant}"] = median(
                    [r[4]["nfev"] for r in rows if "nfev" in r[4]] or [0])
        counted = [r for r in fits if "nfev" in r[4]]
        metrics["fitter.us_per_eval"] = 1e6 * sum(r[2] for r in counted) / sum(
            r[4]["nfev"] for r in counted)
        metrics["fitter.boundary_warnings"] = sum(r[4].get("warnings", 0) for r in fits)
        metrics["fitter.convergence_errors"] = sum(
            1 for r in fits if r[4].get("error") == "FitConvergenceError")
        evals = index.select("layer", passes, name="imt_models.reweighted_density")
        for family in FAMILIES:
            tag = f"{family}/{N_BINS}"
            metrics[f"imt_models.reweighted_density_us.{family}"] = 1e6 * median(
                [index.duration(i) for i in evals if index.spans[i][TAG] == tag])
        return metrics
