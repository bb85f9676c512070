"""Flat parameter vectors with named segment layouts.

All model weights and optimizer accumulators live in a single 1-D float64
array.  A layout maps each parameter-group name to an (offset, length) pair;
segments are disjoint and tile the vector exactly, so federated averaging and
optimizer updates are plain vector arithmetic.  Every layout the package uses
comes from ``models``, which checks its tiling once when it builds it; a
vector only checks that its size matches where its layout ends.

A client trains a compact vector of its own: the entries of the whole
vector that its training can move, named by an index array
(``models.Shard.entries``), gathered from the server weights with
``np.take`` when a round starts and put into a copy of them when it ends.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The package's one floating-point policy, which each model pass and optimizer
# step is decorated with: an overflow, an invalid operation or a division by
# zero raises FloatingPointError where it happens.
FLOAT_POLICY = dict(over="raise", invalid="raise", divide="raise")

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

    def segment_of(self, index: int) -> str:
        """The name of the segment that holds entry ``index``."""
        return next(
            name for name, (offset, length) in self.layout.items() if offset <= index < offset + length
        )

    def check_finite(self, what: str = "values") -> None:
        """Raise naming the segment of the first entry that is not finite, if any."""
        finite = np.isfinite(self.values)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise ValueError(f"non-finite {what} in segment {self.segment_of(bad)!r}")
