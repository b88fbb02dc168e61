"""The package namespace: every public name, resolved on first use from its module."""

import importlib
import subprocess
import sys

import pytest

import mitoclock

# the public API of mitoclock 0.1.0, by defining module
API = {
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
PUBLIC = [(module, name) for module, names in API.items() for name in names]


def test_all_is_the_public_api_in_sorted_order():
    assert mitoclock.__all__ == sorted(name for _, name in PUBLIC)


@pytest.mark.parametrize("module, name", PUBLIC)
def test_every_public_name_is_its_module_attribute(module, name):
    defining = importlib.import_module(f"mitoclock.{module}")
    assert getattr(mitoclock, name) is getattr(defining, name)


def test_dir_lists_every_public_name_and_star_import_binds_them():
    assert set(mitoclock.__all__) <= set(dir(mitoclock))
    namespace = {}
    exec("from mitoclock import *", namespace)
    assert all(namespace[name] is getattr(mitoclock, name) for name in mitoclock.__all__)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_imt_fast'"):
        mitoclock.fit_imt_fast
    assert not hasattr(mitoclock, "cli_main")


@pytest.mark.parametrize("module", sorted(API))
def test_submodules_are_package_attributes(module):
    assert getattr(mitoclock, module) is sys.modules[f"mitoclock.{module}"]


def test_import_runs_no_submodule():
    probe = ("import sys, mitoclock; "
             "print(sorted(m for m in sys.modules if m.startswith('mitoclock.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
