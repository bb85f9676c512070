"""Flat parameter-vector mechanics: layouts, copies, finiteness checks."""
import numpy as np
import pytest

from fedtext.params import ParamVector, validate_layout
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
