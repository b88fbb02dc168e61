import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitoclock import (
    DegenerateInputError,
    Histogram,
    Kind,
    ParseError,
    StateError,
    ValidationError,
    load_histogram,
    normalize,
    reweight,
)


def make_density(heights, bin_width=1.0):
    raw = Histogram(bin_width=bin_width, heights=np.asarray(heights, dtype=float))
    return normalize(raw)


def test_load_passthrough(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("2\n4\n2\n")
    h = load_histogram(path, bin_width=1.0)
    assert h.kind is Kind.RAW_COUNTS
    assert h.n_bins == 3
    np.testing.assert_array_equal(h.heights, [2.0, 4.0, 2.0])


def test_load_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# counts\n\n1\n# mid comment\n3\n")
    h = load_histogram(path, bin_width=0.5)
    np.testing.assert_array_equal(h.heights, [1.0, 3.0])


def test_load_negative_value_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1\n-1\n2\n")
    with pytest.raises(ValidationError, match="negative"):
        load_histogram(path, bin_width=1.0)


def test_load_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("1\n2\nxyz\n")
    with pytest.raises(ParseError, match="line 3"):
        load_histogram(path, bin_width=1.0)


def test_load_skips_a_header_row(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# counts per bin\ncount\n1\n3\n")
    h = load_histogram(path, bin_width=0.5)
    np.testing.assert_array_equal(h.heights, [1.0, 3.0])


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_load_non_finite_cell_reports_line_number(tmp_path, cell):
    path = tmp_path / "h.csv"
    path.write_text(f"# counts\n1\n{cell}\n2\n")
    with pytest.raises(ParseError) as excinfo:
        load_histogram(path, bin_width=1.0)
    assert excinfo.value.line_number == 3


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("# nothing here\n")
    with pytest.raises(ValidationError):
        load_histogram(path, bin_width=1.0)


def test_load_shipped_histogram(data_dir):
    h = load_histogram(data_dir / "imt_histogram.csv", bin_width=10.0 / 8.0)
    assert h.kind is Kind.RAW_COUNTS
    assert h.n_bins == 63
    assert h.heights.sum() > 0


def test_midpoints_follow_one_based_bins():
    h = Histogram(bin_width=2.0, heights=np.array([1.0, 1.0, 1.0]))
    # bin i covers [i*da, (i+1)*da], so the first midpoint is 1.5*da
    np.testing.assert_allclose(h.midpoints, [3.0, 5.0, 7.0])


def test_normalize_basic():
    h = make_density([2.0, 4.0, 2.0])
    np.testing.assert_allclose(h.heights, [0.25, 0.5, 0.25])
    assert h.kind is Kind.DENSITY
    assert abs(h.mass - 1.0) < 1e-9


def test_normalize_respects_bin_width():
    h = make_density([5.0, 5.0], bin_width=2.0)
    np.testing.assert_allclose(h.heights, [0.25, 0.25])
    assert abs(h.mass - 1.0) < 1e-12


def test_normalize_all_zero_rejected():
    raw = Histogram(bin_width=1.0, heights=np.zeros(4))
    with pytest.raises(DegenerateInputError):
        normalize(raw)


def test_normalize_requires_raw_counts():
    h = make_density([1.0, 2.0])
    with pytest.raises(StateError):
        normalize(h)


def test_normalize_is_idempotent_on_density_heights():
    h = make_density([3.0, 1.0, 2.0, 6.0], bin_width=0.5)
    again = normalize(Histogram(bin_width=0.5, heights=h.heights))
    np.testing.assert_allclose(again.heights, h.heights, rtol=0, atol=1e-12)


def test_reweight_identity_at_zero_lambda():
    h = make_density([2.0, 4.0, 2.0])
    rw = reweight(h, 0.0)
    assert rw.kind is Kind.REWEIGHTED
    assert rw.lambda_used == 0.0
    np.testing.assert_allclose(rw.heights, h.heights, rtol=0, atol=1e-12)


def test_reweight_two_bin_ratio():
    # uniform density over two bins; midpoints 1.5 and 2.5
    h = make_density([1.0, 1.0])
    rw = reweight(h, 0.022)
    expected = math.exp(0.022)  # exp(-lam*1.5) / exp(-lam*2.5)
    assert rw.heights[0] / rw.heights[1] == pytest.approx(expected, abs=1e-12)
    assert rw.heights[0] / rw.heights[1] == pytest.approx(1.02224, abs=1e-5)


def test_reweight_requires_density():
    raw = Histogram(bin_width=1.0, heights=np.array([1.0, 2.0]))
    with pytest.raises(StateError):
        reweight(raw, 0.022)
    rw = reweight(make_density([1.0, 2.0]), 0.01)
    with pytest.raises(StateError):
        reweight(rw, 0.01)


def test_reweight_rejects_non_finite_lambda():
    with pytest.raises(ValidationError):
        reweight(make_density([1.0, 2.0]), float("nan"))


def test_reweight_rejects_overflowing_lambda_without_numpy_warnings():
    h = make_density(np.ones(63), bin_width=1.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="lambda"):
            reweight(h, -20.0)


def test_zero_bins_inside_support_are_fine():
    h = make_density([1.0, 0.0, 3.0])
    rw = reweight(h, 0.05)
    assert rw.heights[1] == 0.0
    assert abs(rw.mass - 1.0) < 1e-9


@st.composite
def density_histograms(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    heights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=n,
            max_size=n,
        ).filter(lambda hs: sum(hs) > 1e-3)
    )
    bin_width = draw(st.floats(min_value=0.05, max_value=5.0))
    return normalize(Histogram(bin_width=bin_width, heights=np.asarray(heights)))


@given(h=density_histograms(), lam=st.floats(min_value=-0.2, max_value=0.2))
@settings(max_examples=60, deadline=None)
def test_reweight_properties(h, lam):
    rw = reweight(h, lam)
    assert rw.n_bins == h.n_bins
    assert np.all(rw.heights >= 0)
    assert abs(rw.mass - 1.0) < 1e-9
    # pairwise ratio identity wherever both heights are normal floats: subnormals
    # carry too few significant bits for rel=1e-12
    mids = h.midpoints
    tiny = np.finfo(float).tiny
    pos = np.nonzero((h.heights >= tiny) & (rw.heights >= tiny))[0]
    if pos.size >= 2:
        i, j = pos[0], pos[-1]
        lhs = rw.heights[i] / rw.heights[j]
        rhs = (h.heights[i] / h.heights[j]) * math.exp(-lam * (mids[i] - mids[j]))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_constructor_validation():
    with pytest.raises(ValidationError):
        Histogram(bin_width=0.0, heights=np.array([1.0, 2.0]))
    with pytest.raises(ValidationError):
        Histogram(bin_width=1.0, heights=np.array([1.0]))
    with pytest.raises(ValidationError):
        Histogram(bin_width=1.0, heights=np.array([1.0, -2.0]))
    with pytest.raises(ValidationError):
        Histogram(bin_width=1.0, heights=np.array([1.0, 2.0]), lambda_used=0.1)
