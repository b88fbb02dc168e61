"""Numeric CSV tables, one row per line: the reader and the writer for every table.

Cells are written as `repr(float)`, which reads back exactly.  Histograms
keep their own one-column reader, `histogram.load_histogram`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, ValidationError


def read_columns(path, n_columns: int) -> tuple[np.ndarray, ...]:
    """One 1-d array per column of a numeric CSV with n_columns columns.

    Skips blank lines, '#' comments and a non-numeric first row (a header).
    Raises ParseError with the 1-based line number on a malformed row and
    ValidationError when the file has no data rows.
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
                rows.append([float(p) for p in parts])
            except ValueError:
                if not header_allowed:
                    raise ParseError(f"could not parse {line!r}", lineno) from None
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
