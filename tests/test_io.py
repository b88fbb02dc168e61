import math
import sys

import numpy as np
import pytest

from mitoclock import (
    AgeProfile,
    ClosedFormRate,
    Histogram,
    Kind,
    Model,
    ParseError,
    SimConfig,
    TabulatedRate,
    ValidationError,
    equilibrium,
    erfc_distance,
    fit_imt,
    gre_functional,
    model_from_json,
    quiescent_fraction,
    reweight,
    simulate,
    solve_lambda,
)
from mitoclock.imt_models import erfc_integral, reweighted_density, reweighted_mass
from mitoclock.io import check_number, check_table, r_squared, read_columns, write_columns
from mitoclock.spectral import build_grid, renewal_residual


def test_written_cells_read_back_exactly(tmp_path):
    path = tmp_path / "t.csv"
    ages = np.array([0.1, 1.0 / 3.0, 1e-300])
    values = np.array([2.0, np.pi, -5e300])
    write_columns(path, ("age", "value"), (ages, values))
    assert path.read_text().splitlines()[:2] == ["age,value", "0.1,2.0"]
    back_ages, back_values = read_columns(path, 2)
    np.testing.assert_array_equal(back_ages, ages)
    np.testing.assert_array_equal(back_values, values)


def test_reader_skips_comments_blank_lines_and_one_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# comment\n\nt, N\n0, 100\n# mid-file comment\n5,120\n")
    times, counts = read_columns(path, 2)
    np.testing.assert_array_equal(times, [0.0, 5.0])
    np.testing.assert_array_equal(counts, [100.0, 120.0])


@pytest.mark.parametrize(
    "text, line",
    [
        ("t,N\n0,100\nx,120\n", 3),
        ("t,N\nunit,count\n0,100\n", 2),
        ("0,100\n5,120,7\n", 2),
        ("t,N\n0,100\n# a comment\n5,nan\n", 4),
        ("inf,100\n5,120\n", 1),
    ],
    ids=["bad-cell", "second-header", "extra-column", "nan-cell", "inf-first-cell"],
)
def test_reader_reports_the_bad_line(tmp_path, text, line):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as excinfo:
        read_columns(path, 2)
    assert excinfo.value.line_number == line


@pytest.mark.parametrize("text", ["", "# only a comment\n", "t,N\n"])
def test_reader_rejects_a_file_without_data_rows(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        read_columns(path, 2)


def test_check_table_returns_float_arrays():
    ages, values = check_table([0, 1, 2], (0, 3, 0), 3, "table")
    assert ages.dtype == values.dtype == np.float64
    np.testing.assert_array_equal(values, [0.0, 3.0, 0.0])


def test_r_squared():
    observed = np.array([1.0, 2.0, 3.0])
    assert r_squared(observed, np.array([0.0, 1.0, 0.0])) == 0.5
    # an exact fit to constant data explains everything there is
    assert r_squared(np.array([2.0, 2.0]), np.zeros(2)) == 1.0
    # any other fit to constant data explains nothing; the mean of [0.1] * 3 is
    # not 0.1 in floating point, and the rounding-level spread left after
    # centering must not act as the variance
    assert r_squared(np.array([1.0, 1.0, 1.0]), np.array([0.0, 0.5, 0.0])) == 0.0
    assert r_squared(np.array([0.1] * 3), np.array([0.0, 0.5, 0.0])) == 0.0
    # data of tiny magnitude: their centred squares underflow, their range does not
    tiny = np.array([0.0, 1e-170, 0.0])
    assert r_squared(tiny, np.zeros(3)) == 1.0
    assert r_squared(tiny, tiny) == pytest.approx(-0.5, rel=1e-12)
    # a ratio past the float range saturates instead of reaching -inf
    comparison = erfc_distance(TabulatedRate([0, 1, 2], [0.0, 1e-170, 0.0]), 0.5, 1, 1)
    assert comparison.r_squared == -sys.float_info.max


def test_check_number():
    assert check_number(3, "x") == 3.0 and type(check_number(3, "x")) is float
    assert check_number(np.float64(0.5), "x", 0, 1) == 0.5
    assert check_number(np.int32(2), "x", 0, strict=True) == 2.0
    # a bound is inside the range unless it is strict
    assert check_number(0.0, "x", 0) == 0.0
    assert check_number(1.0, "x", 0, 1) == 1.0
    with pytest.raises(ValidationError, match=r"^rate mu must be positive \(mu > 0\), got 0\.0$"):
        check_number(0.0, "rate mu", 0, strict=True)
    with pytest.raises(ValidationError, match=r"^x must be nonnegative \(x >= 0\), got -1e-300$"):
        check_number(-1e-300, "x", 0)
    with pytest.raises(ValidationError, match=r"^x must be in \[0, 1\], got 1\.5$"):
        check_number(1.5, "x", 0, 1)
    for value in (None, "1", b"1", [1.0], np.array([1.0, 2.0]), np.array(1.0), 1j,
                  math.nan, math.inf, -math.inf, np.float64(np.nan), 10**400):
        with pytest.raises(ValidationError, match="^x must be a finite number, got"):
            check_number(value, "x")


GAMMA1 = ClosedFormRate(Model(family="gamma1", m=17.0, sigma=2.0))
CONFIG = SimConfig(rate=GAMMA1, mu=0.0, f=0.5, t_end=10.0)
GRID = np.linspace(0.0, 60.0, 61)
PROFILE = AgeProfile(GRID, np.ones(61))
DENSITY = Histogram(bin_width=1.0, heights=np.array([0.5, 0.5]), kind=Kind.DENSITY)
REWEIGHTED = reweight(DENSITY, 0.022)
# one call per public number input, each given a value that is not a number or is out of range
NOT_NUMBERS = {
    "quiescent_fraction-t0": lambda: quiescent_fraction(CONFIG, None),
    "simulate-snapshot-None": lambda: simulate(CONFIG, snapshot_times=[None]),
    "simulate-snapshot-str": lambda: simulate(CONFIG, snapshot_times=["x"]),
    "simulate-snapshot-scalar": lambda: simulate(CONFIG, snapshot_times=5.0),
    "build_grid-step": lambda: build_grid(GAMMA1, None),
    "build_grid-a_max-str": lambda: build_grid(GAMMA1, 0.05, "10"),
    "build_grid-a_max-negative": lambda: build_grid(GAMMA1, 0.05, -5.0),
    "build_grid-a_max-zero": lambda: build_grid(GAMMA1, 0.05, 0.0),
    "build_grid-a_max-nan": lambda: build_grid(GAMMA1, 0.05, math.nan),
    "solve_lambda-step": lambda: solve_lambda(GAMMA1, 0.0, step="0.05"),
    "equilibrium-step": lambda: equilibrium(GAMMA1, 0.0, step=None),
    "renewal_residual-lambda": lambda: renewal_residual(GAMMA1, 0.0, None),
    "gre_functional-lambda": lambda: gre_functional(PROFILE, PROFILE, None, 1.0),
    "gre_functional-t": lambda: gre_functional(PROFILE, PROFILE, 0.0, "1"),
    "erfc_integral-m": lambda: erfc_integral(None, 1.0, 5.0),
    "erfc_distance-beta0": lambda: erfc_distance(TabulatedRate([0, 1], [0, 1]), None, 1, 1),
    "Histogram-bin_width-None": lambda: Histogram(bin_width=None, heights=[1.0, 2.0]),
    "Histogram-bin_width-str": lambda: Histogram(bin_width="1", heights=[1.0, 2.0]),
    "reweight-lambda": lambda: reweight(DENSITY, None),
    "Model-m": lambda: Model(family="gamma1", m="3", sigma=1.0),
    "reweighted_density-lambda": lambda: reweighted_density(GAMMA1.model, None, GRID),
    "reweighted_density-lambda-nan": lambda: reweighted_density(GAMMA1.model, math.nan, GRID),
    "reweighted_mass-lambda": lambda: reweighted_mass(GAMMA1.model, None),
    "model_from_json-int": lambda: model_from_json(123),
    "fit_imt-init-str": lambda: fit_imt(REWEIGHTED, "gamma1", init="ab"),
    "fit_imt-max_iter-str": lambda: fit_imt(REWEIGHTED, "gamma1", max_iter="x"),
    "fit_imt-max_iter-None": lambda: fit_imt(REWEIGHTED, "gamma1", max_iter=None),
    "fit_imt-max_iter-fraction": lambda: fit_imt(REWEIGHTED, "gamma1", max_iter=2.5),
}


@pytest.mark.parametrize("call", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_every_entry_point_rejects_a_non_number(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("entry, name", [("model_from_json-int", "model JSON"),
                                         ("fit_imt-init-str", "init"),
                                         ("fit_imt-max_iter-str", "max_iter"),
                                         ("fit_imt-max_iter-None", "max_iter"),
                                         ("fit_imt-max_iter-fraction", "max_iter")])
def test_a_rejected_argument_is_named(entry, name):
    with pytest.raises(ValidationError, match=f"^{name}"):
        NOT_NUMBERS[entry]()
