"""Rectangular regions in grid coordinates and in join-key space.

A *region* is the set of join-matrix cells assigned to one machine.  The
library keeps regions rectangular (axis-parallel), as the paper does, to
minimise storage and communication costs: a rectangular region is fully
described by a row range and a column range.

Two coordinate systems appear:

* :class:`GridRegion` -- inclusive index ranges over a
  :class:`~repro.core.grid.WeightedGrid` (the sample or coarsened matrix).
  All tiling algorithms work in these coordinates.
* :class:`KeyRegion` -- half-open join-key ranges over the two relations.
  The final partitioning that routes tuples is expressed in key space.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["GridRegion", "KeyRegion", "key_regions"]


@dataclass(frozen=True, order=True)
class GridRegion:
    """An inclusive rectangle ``[row_lo..row_hi] x [col_lo..col_hi]`` of grid cells."""

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    def __post_init__(self) -> None:
        if self.row_lo > self.row_hi or self.col_lo > self.col_hi:
            raise ValueError(f"degenerate region {self!r}")
        if min(self.row_lo, self.col_lo) < 0:
            raise ValueError(f"negative coordinates in {self!r}")

    @property
    def num_rows(self) -> int:
        """Number of grid rows the region spans."""
        return self.row_hi - self.row_lo + 1

    @property
    def num_cols(self) -> int:
        """Number of grid columns the region spans."""
        return self.col_hi - self.col_lo + 1

    @property
    def area(self) -> int:
        """Number of grid cells in the region."""
        return self.num_rows * self.num_cols

    @property
    def semi_perimeter(self) -> int:
        """Rows plus columns spanned -- the grid-level input metric."""
        return self.num_rows + self.num_cols

    def contains_cell(self, row: int, col: int) -> bool:
        """Whether grid cell ``(row, col)`` lies inside the region."""
        return self.row_lo <= row <= self.row_hi and self.col_lo <= col <= self.col_hi

    def intersects(self, other: "GridRegion") -> bool:
        """Whether two regions share at least one cell."""
        return not (
            other.row_lo > self.row_hi
            or other.row_hi < self.row_lo
            or other.col_lo > self.col_hi
            or other.col_hi < self.col_lo
        )

    def split_horizontal(self, after_row: int) -> tuple["GridRegion", "GridRegion"]:
        """Split into top/bottom sub-rectangles after grid row ``after_row``."""
        if not self.row_lo <= after_row < self.row_hi:
            raise ValueError(
                f"cannot split {self!r} horizontally after row {after_row}"
            )
        top = GridRegion(self.row_lo, after_row, self.col_lo, self.col_hi)
        bottom = GridRegion(after_row + 1, self.row_hi, self.col_lo, self.col_hi)
        return top, bottom

    def split_vertical(self, after_col: int) -> tuple["GridRegion", "GridRegion"]:
        """Split into left/right sub-rectangles after grid column ``after_col``."""
        if not self.col_lo <= after_col < self.col_hi:
            raise ValueError(
                f"cannot split {self!r} vertically after column {after_col}"
            )
        left = GridRegion(self.row_lo, self.row_hi, self.col_lo, after_col)
        right = GridRegion(self.row_lo, self.row_hi, after_col + 1, self.col_hi)
        return left, right


@dataclass(frozen=True)
class KeyRegion:
    """A rectangle in join-key space assigned to one machine.

    Row bounds refer to R1 join keys, column bounds to R2 join keys.  The
    ranges are half-open ``[lo, hi)`` except that ``hi = +inf`` (or
    ``lo = -inf``) closes the region on that side; the outermost regions of a
    partitioning always extend to infinity so that every tuple routes
    somewhere regardless of sampling error at the domain edges.
    """

    r1_lo: float
    r1_hi: float
    r2_lo: float
    r2_hi: float
    region_id: int = 0

    def __post_init__(self) -> None:
        if self.r1_lo > self.r1_hi or self.r2_lo > self.r2_hi:
            raise ValueError(f"degenerate key region {self!r}")


def key_regions(
    regions: Sequence[GridRegion], row_boundaries: np.ndarray, col_boundaries: np.ndarray
) -> list[KeyRegion]:
    """Grid regions as key regions, numbered in order, over the grid's key boundaries."""
    return [
        KeyRegion(
            r1_lo=float(row_boundaries[region.row_lo]),
            r1_hi=float(row_boundaries[region.row_hi + 1]),
            r2_lo=float(col_boundaries[region.col_lo]),
            r2_hi=float(col_boundaries[region.col_hi + 1]),
            region_id=index,
        )
        for index, region in enumerate(regions)
    ]
