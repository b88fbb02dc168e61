"""Command-line pipeline: growth fit, histogram reweighting, model fits,
rate inversion, quiescence simulations and verification suites.

Pipeline state passes through files (JSON for parameters, CSV for tables,
SVG for plots); every command is deterministic given its flags and the
multi-start seed (--seed or the MITOCLOCK_SEED environment variable).

Exit codes: 0 success, 1 numerical failure (diagnostic JSON on stdout),
2 usage or validation error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import MitoclockError, ValidationError
from .io import read_columns, write_columns


def _lazy(name: str):
    """Submodule ``name``, executed on its first attribute access (importlib.util.LazyLoader),
    so that each command runs only the modules it calls.  Module objects, not their names,
    are bound here: a wrapper put on a module's function (perfbench/tracing.py) then also
    wraps the calls made through it."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


checks, fitter, growth, histogram, inversion, simulator, svg = map(
    _lazy, ("checks", "fitter", "growth", "histogram", "inversion", "simulator", "svg"))
# imt_models is imported by name where it is used: held as a module here, the calls it makes
# to its own public functions (erfc, in every density evaluation) would be traced too


def _read_model(path):
    """The model in a model or fit-result JSON file, with the path in any ValidationError."""
    from .imt_models import model_from_json

    try:
        return model_from_json(Path(path).read_bytes())
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _prefix(args, default_source) -> Path:
    if args.out_prefix is not None:
        prefix = Path(args.out_prefix)
        prefix.parent.mkdir(parents=True, exist_ok=True)
        return prefix
    return Path(default_source).with_suffix("")


def cmd_fit_growth(args) -> int:
    series = growth.load_growth_csv(args.counts_csv)
    if args.window is not None:
        lo, hi = args.window
        keep = (series.times >= lo) & (series.times <= hi)
        series = growth.GrowthSeries(series.times[keep], series.counts[keep])
    fit = growth.fit_growth(series)
    prefix = _prefix(args, args.counts_csv)
    payload = {
        "lambda": fit.lam,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "doubling_time": fit.doubling_time,
    }
    prefix.with_suffix(".json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    log_ratio = np.log(series.counts / series.counts[0])
    line = fit.intercept + fit.lam * series.times
    write_columns(f"{prefix}_line.csv", ("t", "log_ratio", "fit"), (series.times, log_ratio, line))
    print(
        f"lambda={fit.lam:.6g} 1/h  R2={fit.r_squared:.5f}  "
        f"doubling={'-' if fit.doubling_time is None else f'{fit.doubling_time:.4g} h'}"
    )
    return 0


def cmd_fit_imt(args) -> int:
    from .imt_models import reweighted_density

    hist = histogram.normalize(histogram.load_histogram(args.hist_csv, bin_width=args.dt))
    reweighted = histogram.reweight(hist, args.lam)
    result = fitter.fit_imt(reweighted, args.family, seed=args.seed)
    check = fitter.mass_check(result)
    prefix = _prefix(args, args.hist_csv)
    prefix.with_suffix(".json").write_text(result.to_json() + "\n")
    Path(f"{prefix}_model.json").write_text(result.model.to_json() + "\n")
    fitted = reweighted_density(result.model, args.lam, reweighted.midpoints)
    columns = (reweighted.midpoints, reweighted.heights, fitted)
    write_columns(f"{prefix}_curve.csv", ("age", "height", "fit"), columns)
    status = "mass-ok" if check.ok else f"mass-warn(dev={check.deviation:.3f})"
    print(result.summary_line() + f"  {status}")
    return 0


def cmd_invert(args) -> int:
    rate = inversion.invert_imt(*read_columns(args.imt_csv, 2))
    prefix = _prefix(args, args.imt_csv)
    inversion.write_rate_csv(rate, f"{prefix}_beta.csv")
    model, comparison = inversion.best_erfc_fit(rate)
    payload = {
        "best_erfc": model.param_dict(),
        "r_squared": comparison.r_squared,
        "max_abs_err": comparison.max_abs_err,
        "ages": [float(rate.ages[0]), float(rate.ages[-1])],
    }
    Path(f"{prefix}_erfc.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(
        f"beta table on [{rate.ages[0]:g}, {rate.ages[-1]:g}] h; best erfc: "
        f"beta0={model.beta0:.5g} m={model.m:.5g} sigma={model.sigma:.5g} "
        f"R2={comparison.r_squared:.6f}"
    )
    return 0


def cmd_simulate(args) -> int:
    from .imt_models import ClosedFormRate

    model = _read_model(args.model_json)
    rate = ClosedFormRate(model)
    prefix = _prefix(args, args.model_json)
    curves = []
    for f in args.f:
        config = simulator.SimConfig(
            rate=rate,
            mu=model.death_rate,
            f=f,
            t_end=args.t_end,
            dt=args.dt,
            mu_q=args.mu_q,
        )
        out = simulator.simulate(config)
        tag = f"{prefix}_f{f:g}"
        out.to_csv(f"{tag}.csv")
        out.profile_to_csv(f"{tag}_profile.csv")
        curves.append((f"f={f:g}", out.times, np.log(out.N / out.N[0])))
        print(f"f={f:g}: N({args.t_end:g} h)/N(0) = {out.N[-1] / out.N[0]:.4f}")
    svg.line_plot(
        curves,
        f"{prefix}_dose_sweep.svg",
        title="Growth under division-triggered quiescence",
        x_label="t (h)",
        y_label="ln N(t)/N(0)",
    )
    return 0


def cmd_verify(args) -> int:
    model = _read_model(args.model_json)
    all_ok = True
    for name, ok, value in checks.SUITES[args.suite](model):
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({value})")
    return 0 if all_ok else 1


def _fit_growth_args(p):
    p.add_argument("counts_csv")
    p.add_argument("--window", nargs=2, type=float, metavar=("T_LO", "T_HI"))
    p.add_argument("--out-prefix")


def _fit_imt_args(p):
    from .imt_models import FAMILIES

    p.description = (
        "Fits the growth-reweighted model curve to the reweighted histogram. "
        "With --lambda 0 the reweighting is the identity on the density but the "
        "model keeps its factor 2 for the two daughters per division, so the "
        "fitted curve carries twice the histogram mass; parameters absorb the "
        "scale accordingly."
    )
    p.add_argument("hist_csv")
    p.add_argument("--dt", type=float, required=True, help="bin width in hours")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="growth rate in 1/h")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, default=None, help="multi-start seed (default: env)")
    p.add_argument("--out-prefix")


def _invert_args(p):
    p.add_argument("imt_csv")
    p.add_argument("--out-prefix")


def _simulate_args(p):
    p.add_argument("model_json")
    p.add_argument("--f", nargs="+", type=float, required=True, help="quiescent fractions")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--mu-q", type=float, default=None, help="quiescent death rate (default: mu)")
    p.add_argument("--out-prefix")


def _verify_args(p):
    p.add_argument("model_json")
    p.add_argument("--suite", required=True, choices=checks.SUITES)


# command -> (its function, the function adding its arguments, one-line help)
COMMANDS = {
    "fit-growth": (cmd_fit_growth, _fit_growth_args, "estimate the growth rate from a t,N CSV"),
    "fit-imt": (cmd_fit_imt, _fit_imt_args, "fit a reweighted IMT histogram"),
    "invert": (cmd_invert, _invert_args, "recover a tabulated division rate from an age,I CSV"),
    "simulate": (cmd_simulate, _simulate_args, "run dose-dependent quiescence simulations"),
    "verify": (cmd_verify, _verify_args, "run a numerical verification suite"),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command's arguments or, given a command's name, of only its own.

    argparse reads an argument's choices when the argument is added, and the family and
    suite choices are tables of the modules that use them; main names the command, so
    that no other command's modules load.
    """
    parser = argparse.ArgumentParser(
        prog="mitoclock",
        description="Division-rate recovery from IMT histograms and quiescence simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, add_arguments, summary) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if command in (None, name):
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else "").parse_args(argv)
    # one line per warning; the filters stay as set, so -W error still raises
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except MitoclockError as exc:
            if isinstance(exc, ValueError):
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # numerical failure: ConfigurationError, FitConvergenceError, ...
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True))
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
