"""Recover age-dependent division rates from intermitotic-time data and
simulate drug-induced quiescence in proliferating cell populations."""

from .errors import (
    BoundaryWarning,
    ConfigurationError,
    DegenerateInputError,
    FitConvergenceError,
    GridTooSmallError,
    MitoclockError,
    ParseError,
    StateError,
    TruncationWarning,
    UnsupportedVariantError,
    ValidationError,
)
from .fitter import FitResult, MassCheck, fit_imt, mass_check
from .growth import GrowthFit, GrowthSeries, fit_growth, load_growth_csv
from .histogram import Histogram, Kind, load_histogram, normalize, reweight
from .imt_models import (
    FAMILIES,
    ClosedFormRate,
    Model,
    TabulatedRate,
    cumulative_hazard,
    division_rate,
    erfc,
    erfc_integral,
    imt_density,
    model_from_dict,
    model_from_json,
    reweighted_density,
)
from .inversion import ErfcComparison, best_erfc_fit, erfc_distance, invert_imt
from .simulator import (
    CustomProfile,
    SimConfig,
    SimOutput,
    imt_experiment,
    quiescent_fraction,
    simulate,
)
from .spectral import AgeProfile, EigenPair, equilibrium, gre_functional, solve_lambda

__version__ = "0.1.0"

__all__ = [
    "AgeProfile",
    "BoundaryWarning",
    "ClosedFormRate",
    "ConfigurationError",
    "CustomProfile",
    "DegenerateInputError",
    "EigenPair",
    "ErfcComparison",
    "FAMILIES",
    "FitConvergenceError",
    "FitResult",
    "GridTooSmallError",
    "GrowthFit",
    "GrowthSeries",
    "Histogram",
    "Kind",
    "MassCheck",
    "MitoclockError",
    "Model",
    "ParseError",
    "SimConfig",
    "SimOutput",
    "StateError",
    "TabulatedRate",
    "TruncationWarning",
    "UnsupportedVariantError",
    "ValidationError",
    "best_erfc_fit",
    "cumulative_hazard",
    "division_rate",
    "equilibrium",
    "erfc",
    "erfc_distance",
    "erfc_integral",
    "fit_growth",
    "fit_imt",
    "gre_functional",
    "imt_density",
    "imt_experiment",
    "invert_imt",
    "load_growth_csv",
    "load_histogram",
    "mass_check",
    "model_from_dict",
    "model_from_json",
    "normalize",
    "quiescent_fraction",
    "reweight",
    "reweighted_density",
    "simulate",
    "solve_lambda",
]
