"""Flat parameter-vector mechanics: layouts, copies, finiteness checks."""
import numpy as np
import pytest

from fedtext.params import ParamVector, Support, validate_layout
from oracles import segment


def make_vec():
    # layout entries are (offset, length) pairs
    layout = {"a": (0, 4), "b": (4, 6)}
    return ParamVector(np.arange(10, dtype=float), layout)


def test_validate_layout_accepts_contiguous_tiling():
    validate_layout({"a": (0, 3), "b": (3, 4)}, 7)


def test_validate_layout_rejects_gap():
    with pytest.raises(ValueError):
        validate_layout({"a": (0, 3), "b": (4, 3)}, 7)


def test_validate_layout_rejects_overlap():
    with pytest.raises(ValueError):
        validate_layout({"a": (0, 4), "b": (3, 4)}, 7)


def test_validate_layout_rejects_wrong_total():
    with pytest.raises(ValueError):
        validate_layout({"a": (0, 4)}, 5)


def test_vector_size_must_match_the_layout_end():
    with pytest.raises(ValueError, match="layout covers 10 values but vector has 9"):
        ParamVector(np.zeros(9), {"a": (0, 4), "b": (4, 6)})
    with pytest.raises(ValueError, match="1-D"):
        ParamVector(np.zeros((2, 5)), {"a": (0, 10)})


def test_copy_is_independent():
    v = make_vec()
    c = v.copy()
    c.values[0] = 42.0
    assert v.values[0] == 0.0
    assert c.layout == v.layout


def test_check_finite_names_the_offending_segment():
    v = make_vec()
    segment(v, "b")[2] = np.nan
    with pytest.raises(ValueError, match="b"):
        v.check_finite("weights")


def test_check_finite_passes_on_finite_values():
    make_vec().check_finite("weights")


def test_support_gathers_scatters_and_maps_back_its_entries():
    # rows 1 and 3 of a (4, 2) block, then the 3-entry tail
    sup = Support(11, head=8, width=2, rows=np.array([1, 3]))
    values = np.arange(11.0)
    compact = sup.gather(values, np.empty(sup.count))
    assert compact.tolist() == [2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    out = np.zeros(11)
    sup.scatter(-compact, out)
    assert out.tolist() == [0, 0, -2, -3, 0, 0, -6, -7, -8, -9, -10]


@pytest.mark.parametrize("head, width, rows, message", [
    (6, 2, [5], r"rows must be sorted, unique and in \[0, 3\)"),  # past the block, was gathered clipped
    (6, 2, [-1], r"rows must be sorted, unique and in \[0, 3\)"),
    (8, 2, [1, 1], r"rows must be sorted, unique and in \[0, 4\)"),  # was counted twice
    (8, 2, [3, 1], r"rows must be sorted, unique and in \[0, 4\)"),
    (8, 2, [[1]], r"rows must be sorted, unique and in \[0, 4\)"),
    (7, 2, [1], r"head 7 must be a multiple of width 2 in \[0, 10\]"),
    (12, 2, [1], r"head 12 must be a multiple of width 2 in \[0, 10\]"),
    (4, 0, [], r"head 4 must be a multiple of width 0 in \[0, 10\]"),
])
def test_a_support_refuses_rows_or_a_head_that_do_not_name_its_entries(head, width, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Support(10, head=head, width=width, rows=np.array(rows, dtype=np.intp))
