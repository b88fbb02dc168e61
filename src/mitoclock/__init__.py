"""Recover age-dependent division rates from intermitotic-time data and
simulate drug-induced quiescence in proliferating cell populations.

Submodules load on first use (PEP 562): ``import mitoclock`` runs none of
them, and ``mitoclock.simulate`` loads ``mitoclock.simulator`` when first read.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports at the package level; also gives __all__
_EXPORTS = {
    "errors": (
        "BoundaryWarning", "ConfigurationError", "DegenerateInputError", "FitConvergenceError",
        "GridTooSmallError", "MitoclockError", "ParseError", "StateError", "TruncationWarning",
        "UnsupportedVariantError", "ValidationError",
    ),
    "fitter": ("FitResult", "MassCheck", "fit_imt", "mass_check"),
    "growth": ("GrowthFit", "GrowthSeries", "fit_growth", "load_growth_csv"),
    "histogram": ("Histogram", "Kind", "load_histogram", "normalize", "reweight"),
    "imt_models": (
        "FAMILIES", "ClosedFormRate", "Model", "TabulatedRate", "cumulative_hazard",
        "division_rate", "erfc", "erfc_integral", "imt_density", "model_from_dict",
        "model_from_json", "reweighted_density",
    ),
    "inversion": ("ErfcComparison", "best_erfc_fit", "erfc_distance", "invert_imt"),
    "simulator": (
        "CustomProfile", "SimConfig", "SimOutput", "imt_experiment", "quiescent_fraction",
        "simulate",
    ),
    "spectral": ("AgeProfile", "EigenPair", "equilibrium", "gre_functional", "solve_lambda"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Nothing is cached here: a name bound in this namespace would keep whatever the
    # module held when it was first read, such as a profiler's wrapper.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
