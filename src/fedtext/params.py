"""Flat parameter vectors with named segment layouts.

All model weights and optimizer accumulators live in a single 1-D float64
array.  A layout maps each parameter-group name to an (offset, length) pair;
segments are disjoint and tile the vector exactly, so federated averaging and
optimizer updates are plain vector arithmetic.  Every layout the package uses
comes from ``models.param_layout``, which checks the tiling once per model
spec; a vector only checks that its size matches where its layout ends.

A ``Support`` names the entries of a vector that a client's optimizer steps
can move, and moves them between the full vector and a compact one.
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

    def zeros_like(self) -> "ParamVector":
        return ParamVector(np.zeros(self.size), self.layout)

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


@dataclass(frozen=True, eq=False)
class Support:
    """Entries of a vector of ``size`` values: the unique ``rows`` of its
    leading ``(head // width, width)`` block, and every entry from ``head``
    on; ``Support(size)`` is every entry.  ``gather`` copies them, rows
    first, into a compact vector of ``count`` values, and ``scatter`` copies
    one back."""

    size: int
    head: int = 0
    width: int = 1
    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))

    @property
    def count(self) -> int:
        return self.rows.size * self.width + self.size - self.head

    def _split(self, values: np.ndarray, compact: np.ndarray):
        """(block rows, compact rows, tail, compact tail) views."""
        k = self.rows.size * self.width
        return (values[: self.head].reshape(-1, self.width), compact[:k].reshape(-1, self.width),
                values[self.head :], compact[k:])

    def gather(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        block, rows, tail, out_tail = self._split(values, out)
        np.take(block, self.rows, axis=0, out=rows, mode="clip")  # "raise" would buffer ``out``
        out_tail[...] = tail
        return out

    def scatter(self, compact: np.ndarray, values: np.ndarray) -> None:
        block, rows, tail, compact_tail = self._split(values, compact)
        block[self.rows] = rows
        tail[...] = compact_tail

    def index(self, i: int) -> int:
        """The vector index of the compact vector's entry ``i``."""
        k = self.rows.size * self.width
        if i < k:
            return int(self.rows[i // self.width]) * self.width + i % self.width
        return self.head + i - k
