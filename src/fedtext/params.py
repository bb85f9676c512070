"""Flat parameter vectors with named segment layouts.

All model weights and optimizer accumulators live in a single 1-D float64
array.  A layout maps each parameter-group name to an (offset, length) pair;
segments are disjoint and tile the vector exactly, so federated averaging and
optimizer updates are plain vector arithmetic.  Every layout the package uses
comes from ``models.param_layout``, which checks the tiling once per model
spec; a vector only checks that its size matches where its layout ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# name -> (offset, length), insertion order is the canonical segment order
Layout = dict[str, tuple[int, int]]


def validate_layout(layout: Layout, size: int) -> None:
    """Check that segments are disjoint and cover [0, size) with no gaps."""
    if not layout:
        raise ValueError("layout has no segments")
    cursor = 0
    for name, (offset, length) in layout.items():
        if length <= 0:
            raise ValueError(f"segment {name!r} has non-positive length {length}")
        if offset != cursor:
            raise ValueError(
                f"segment {name!r} starts at {offset}, expected {cursor}; "
                "segments must tile the vector contiguously"
            )
        cursor += length
    if cursor != size:
        raise ValueError(f"layout covers {cursor} values but vector has {size}")


@dataclass
class ParamVector:
    """A flat float64 vector plus the segment layout that names its parts."""

    values: np.ndarray
    layout: Layout = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {self.values.shape}")
        offset, length = next(reversed(self.layout.values()), (0, 0))
        if offset + length != self.values.size:
            raise ValueError(
                f"layout covers {offset + length} values but vector has {self.values.size}"
            )

    @property
    def size(self) -> int:
        return self.values.size

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros(self.size), self.layout)

    def check_finite(self, what: str = "values") -> None:
        """Raise with the offending segment name if any entry is not finite."""
        if np.isfinite(self.values).all():
            return
        bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
        for name, (offset, length) in self.layout.items():
            if offset <= bad < offset + length:
                raise ValueError(f"non-finite {what} in segment {name!r}")
        raise ValueError(f"non-finite {what} at index {bad}")
