"""One CSV reader, one writer and one check for every table a user hands in or gets back.

`write_columns` writes cells as `repr(float)`, which `read_columns` reads back
exactly.  Rate, density, initial-profile and growth tables pass `check_table`,
from a file or not, every number a public function takes passes
`check_number`, and the ages a density is evaluated at pass `check_ages`.
`r_squared` is the goodness of fit every fit reports.
"""

from __future__ import annotations

import math
import numbers
import reprlib

import numpy as np

from .errors import ParseError, ValidationError


def read_columns(path, n_columns: int) -> tuple[np.ndarray, ...]:
    """One 1-d array per column of a numeric CSV with n_columns columns.

    Skips blank lines, '#' comments and a non-numeric first row (a header).
    Raises ParseError with the 1-based line number on a malformed row or a
    non-finite cell, and ValidationError when the file has no data rows.
    """
    rows = []
    header_allowed = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != n_columns:
                raise ParseError(
                    f"expected {n_columns} comma-separated columns, got {line!r}", lineno
                )
            try:
                row = [float(p) for p in parts]
            except ValueError:
                if not header_allowed:
                    raise ParseError(f"could not parse {line!r}", lineno) from None
            else:
                if not all(map(math.isfinite, row)):
                    raise ParseError(f"non-finite value in {line!r}", lineno)
                rows.append(row)
            header_allowed = False
    if not rows:
        raise ValidationError(f"no data rows in {path}")
    return tuple(np.array(rows).T.copy())


def write_columns(path, names, columns) -> None:
    """Write equal-length columns under a header of names, one row per line."""
    columns = [np.asarray(c, dtype=float).tolist() for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))


def check_table(ages, values, min_rows: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The (ages, values) table as float arrays, or ValidationError naming `what`.

    The arrays must be 1-d, of one length >= min_rows, with finite strictly
    increasing ages and finite nonnegative values.
    """
    ages, values = np.asarray(ages, dtype=float), np.asarray(values, dtype=float)
    if ages.ndim != 1 or ages.shape != values.shape or ages.size < min_rows:
        raise ValidationError(f"{what} needs 1-d ages and values of one length >= {min_rows}, "
                              f"got shapes {ages.shape} and {values.shape}")
    if not (np.isfinite(ages).all() and (np.diff(ages) > 0).all()):
        raise ValidationError(f"{what} ages must be finite and strictly increasing")
    if not (np.isfinite(values).all() and (values >= 0).all()):
        raise ValidationError(f"{what} values must be finite and nonnegative")
    return ages, values


def check_number(value, name: str, lo: float | None = None, hi: float | None = None,
                 strict: bool = False) -> float:
    """value as a float; ValidationError naming `name` unless it is a finite real number in range.

    None, a string, a list or an array is not a number; a numpy scalar is.  With lo given,
    value >= lo (value > lo if strict), and with hi given too, value <= hi.  The last word
    of name is its symbol: "death rate mu must be nonnegative (mu >= 0), got -0.5".
    """
    try:
        number = float(value) if isinstance(value, numbers.Real) else None
    except OverflowError:  # an int past the float range
        number = math.inf
    if number is None or not math.isfinite(number):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    if lo is None or (lo < number if strict else lo <= number) and (hi is None or number <= hi):
        return number
    op = ">" if strict else ">="
    if hi is not None:
        rule = f"in {'(' if strict else '['}{lo:g}, {hi:g}]"
    elif lo == 0:
        rule = f"{'positive' if strict else 'nonnegative'} ({name.split()[-1]} {op} 0)"
    else:
        rule = f"{op} {lo:g}"
    raise ValidationError(f"{name} must be {rule}, got {number!r}")


def check_ages(a) -> np.ndarray:
    """a as a float array; ValidationError unless every entry is a finite real number.

    None, a string or an object array is not a number, although numpy would turn None into nan.
    """
    ages = np.asarray(a)
    if ages.dtype.kind not in "biuf" or not np.isfinite(ages).all():
        raise ValidationError(f"age must be finite numbers, got {reprlib.repr(a)}")
    return ages.astype(float, copy=False)


def r_squared(observed, residuals) -> float:
    """1 - SS_res/SS_tot of a fit to observed; on constant data 1 for an exact fit, else 0.

    Both sums are in units of the data's range, so SS_tot >= 1/4 cannot underflow;
    a ratio past the float range saturates at the most negative float, not -inf.
    """
    scale = np.ptp(observed)
    if scale == 0:
        return 1.0 if not np.any(residuals) else 0.0
    centered = (observed - observed.mean()) / scale
    with np.errstate(over="ignore"):
        scaled = residuals / scale
        ss_res = float(np.dot(scaled, scaled))
    return max(1.0 - ss_res / float(np.dot(centered, centered)), -np.finfo(float).max)
