import sys

import numpy as np
import pytest

from mitoclock import ParseError, TabulatedRate, ValidationError, erfc_distance
from mitoclock.io import check_table, r_squared, read_columns, write_columns


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
