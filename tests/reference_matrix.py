"""The exact join-matrix model.

The join between R1 and R2 is modelled as a matrix with one row per R1 tuple
and one column per R2 tuple (both sorted by join key); cell ``(i, j)`` is 1
iff the corresponding tuples satisfy the join condition.  The histogram
algorithm never materialises this matrix for real workloads -- it would *be*
the join result -- but the model is exactly what the toy example of Figure 1
shows, what the tests use as ground truth, and what the tiling algorithms are
validated against at small scale.

Test-only: no code under ``src/`` reads the exact matrix, so the model
lives beside the other references (``tests/test_matrix.py`` pins it).
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.joins.conditions import JoinCondition

__all__ = ["JoinMatrix"]

#: Refuse to materialise matrices above this cell count; the model is for
#: toy/test scale only.
_MAX_CELLS = 25_000_000


class JoinMatrix:
    """Exact join matrix over two small relations.

    Parameters
    ----------
    keys1, keys2:
        Join keys of R1 (rows) and R2 (columns).  They are sorted internally,
        matching the figures in the paper where rows/columns appear in key
        order.
    condition:
        The monotonic join condition.
    """

    def __init__(
        self, keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
    ) -> None:
        self.keys1 = np.sort(np.asarray(keys1, dtype=np.float64))
        self.keys2 = np.sort(np.asarray(keys2, dtype=np.float64))
        self.condition = condition
        cells = len(self.keys1) * len(self.keys2)
        if cells > _MAX_CELLS:
            raise ValueError(
                f"JoinMatrix would materialise {cells} cells; it is meant for "
                "toy/test scale only -- use the sampling pipeline instead"
            )
        # Vectorised pairwise evaluation: broadcast rows against columns.
        self.cells = condition.matches_many(self.keys1[:, None], self.keys2[None, :])

    # ------------------------------------------------------------------
    # Shape and totals
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows (R1 tuples)."""
        return len(self.keys1)

    @property
    def num_cols(self) -> int:
        """Number of columns (R2 tuples)."""
        return len(self.keys2)

    @property
    def total_output(self) -> int:
        """Exact join output size (number of 1-cells)."""
        return int(self.cells.sum())

    @property
    def total_input(self) -> int:
        """Total input tuples (rows plus columns)."""
        return self.num_rows + self.num_cols

    # ------------------------------------------------------------------
    # Region metrics (exact)
    # ------------------------------------------------------------------
    def region_input(self, region: GridRegion) -> int:
        """Semi-perimeter of ``region`` in tuples."""
        return region.num_rows + region.num_cols

    def region_output(self, region: GridRegion) -> int:
        """Exact number of output tuples inside ``region``."""
        block = self.cells[
            region.row_lo : region.row_hi + 1, region.col_lo : region.col_hi + 1
        ]
        return int(block.sum())

    def is_monotonic(self) -> bool:
        """Whether the candidate (here: output) structure is monotonic."""
        return self.to_weighted_grid().is_monotonic()

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_weighted_grid(self) -> WeightedGrid:
        """View the exact matrix as a :class:`WeightedGrid` at tuple granularity.

        Every row/column holds exactly one input tuple; cell frequency equals
        the 0/1 matrix entry and the candidate mask coincides with it.
        """
        return WeightedGrid(
            frequency=self.cells.astype(np.float64),
            row_input=np.ones(self.num_rows),
            col_input=np.ones(self.num_cols),
            candidate=self.cells.copy(),
        )

    def candidate_grid(
        self, row_boundaries: np.ndarray, col_boundaries: np.ndarray
    ) -> np.ndarray:
        """Candidate mask of a coarse grid laid over the matrix.

        ``row_boundaries`` / ``col_boundaries`` are ascending key boundary
        arrays (length ``p + 1``).  Grid cell ``(i, j)`` is a candidate iff
        the key ranges of bucket i (R1) and bucket j (R2) can satisfy the
        join condition -- the O(1) boundary check the M-Bucket scheme uses.
        """
        row_boundaries = np.asarray(row_boundaries, dtype=np.float64)
        col_boundaries = np.asarray(col_boundaries, dtype=np.float64)
        return self.condition.candidate_grid(
            row_boundaries[:-1], row_boundaries[1:],
            col_boundaries[:-1], col_boundaries[1:],
        )
