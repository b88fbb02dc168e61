"""Binned intermitotic-time distributions: loading, normalization, growth-rate reweighting.

Bin convention: with 1-based bin index i and uniform width da, bin i covers
ages [i*da, (i+1)*da] and its mean age is a_i = (i + 1/2)*da.  The first da
of the age axis is deliberately uncovered; see README.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateInputError, StateError, ValidationError
from .io import check_number, read_columns


class Kind(enum.Enum):
    RAW_COUNTS = "raw_counts"
    DENSITY = "density"
    REWEIGHTED = "reweighted"


@dataclass(frozen=True)
class Histogram:
    """Uniform-bin histogram of ages at division.

    heights are per-bin values (counts for RAW_COUNTS, density per hour
    otherwise).  lambda_used records the growth rate applied by reweight()
    and is set only for REWEIGHTED histograms.
    """

    bin_width: float
    heights: np.ndarray
    kind: Kind = Kind.RAW_COUNTS
    lambda_used: float | None = None

    def __post_init__(self):
        heights = np.asarray(self.heights, dtype=float)
        object.__setattr__(self, "heights", heights)
        check_number(self.bin_width, "bin_width", 0, strict=True)
        if heights.ndim != 1 or heights.size < 2:
            raise ValidationError("histogram needs at least 2 bins")
        if not (np.isfinite(heights).all() and (heights >= 0).all()):
            raise ValidationError("histogram heights must be finite and nonnegative")
        if (self.kind is Kind.REWEIGHTED) != (self.lambda_used is not None):
            raise ValidationError("lambda_used is set if and only if kind is REWEIGHTED")

    @property
    def n_bins(self) -> int:
        return self.heights.size

    @property
    def midpoints(self) -> np.ndarray:
        """Mean age of each bin: a_i = (i + 1/2)*bin_width, i = 1..n_bins."""
        return (np.arange(1, self.n_bins + 1) + 0.5) * self.bin_width

    @property
    def mass(self) -> float:
        """bin_width * sum(heights); equals 1 for normalized kinds."""
        return float(self.bin_width * self.heights.sum())


def load_histogram(path, bin_width: float) -> Histogram:
    """Raw counts from a one-column CSV of bin heights, read by io.read_columns."""
    (heights,) = read_columns(path, 1)
    return Histogram(bin_width=bin_width, heights=heights, kind=Kind.RAW_COUNTS)


def normalize(h: Histogram) -> Histogram:
    """Convert raw counts to a density: heights / (bin_width * total count)."""
    if h.kind is not Kind.RAW_COUNTS:
        raise StateError(f"normalize expects raw counts, got {h.kind.value}")
    total = h.heights.sum()
    if total <= 0:
        raise DegenerateInputError("all-zero histogram cannot be normalized")
    return replace(h, heights=h.heights / (h.bin_width * total), kind=Kind.DENSITY)


def reweight(h: Histogram, lam: float) -> Histogram:
    """Fold the growth rate into a density histogram.

    Each height becomes 2*H_i*exp(-lam*a_i), renormalized so the result is
    again a density (bin_width * sum == 1).  lam = 0 is the identity; a lam
    so negative that the weights overflow is a ValidationError.
    """
    if h.kind is not Kind.DENSITY:
        raise StateError(f"reweight expects a density histogram, got {h.kind.value}")
    check_number(lam, "growth rate lambda")
    with np.errstate(over="raise"):
        try:
            weighted = 2.0 * h.heights * np.exp(-lam * h.midpoints)
            total = h.bin_width * weighted.sum()
        except FloatingPointError:
            raise ValidationError(f"lambda = {lam} is too negative: weights overflow") from None
    if total <= 0:
        raise DegenerateInputError("reweighted histogram has no mass")
    return Histogram(
        bin_width=h.bin_width,
        heights=weighted / total,
        kind=Kind.REWEIGHTED,
        lambda_used=lam,
    )
