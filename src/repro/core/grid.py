"""The weighted grid shared by the sample matrix MS and the coarsened matrix MC.

A :class:`WeightedGrid` describes a coarse view of the join matrix at some
granularity: each grid row corresponds to a contiguous range of R1 join keys
holding ``row_input[i]`` tuples, each grid column to a range of R2 join keys
holding ``col_input[j]`` tuples, and each cell carries the (estimated) number
of join output tuples ``frequency[i, j]`` plus a boolean candidate flag.

The weight of a rectangle ``[r1..r2] x [c1..c2]`` under a
:class:`~repro.core.weights.WeightFunction` is

    w = w_i * (sum(row_input[r1..r2]) + sum(col_input[c1..c2]))
        + w_o * sum(frequency[r1..r2, c1..c2])

and is evaluated in O(1) from prefix sums.  For monotonic joins the candidate
cells of every row form one contiguous run; the grid knows each row's span
(first and last candidate column) and which way the spans move down the
rows (:meth:`WeightedGrid.span_direction`).  Its own
:meth:`~WeightedGrid.minimal_candidate_rectangle` is one pass over the spans
of a rectangle's rows -- linear in its row count, and right for any grid.

The constructor only normalises and checks the four arrays.  Every table --
the input, frequency and candidate prefix sums and the row spans -- is built
on first read and kept on the grid.  In a plan only the coarsened matrix's
:class:`~repro.core.tiling_tables.TilingTables` reads the 2-D ones, so the
``n_s x n_s`` sample matrix and coarsening's transposed copy never build
one.  ``total_output`` needs no table: it adds each column's sequential sum
in column order with ``np.cumsum``, the same float additions in the same
order that give the double cumsum's corner (C- and F-ordered arrays alike),
so it is that corner bit for bit.  The tiling algorithms, which ask for the
same rectangles again and again, keep their answers in a ``TilingTables``
that lives for one regionalization and shrinks a rectangle of a monotone
grid with four lookups instead of that pass.

Coarsening, regionalization and M-Bucket each look for the smallest weight
threshold at which a greedy cover of a grid fits; :func:`smallest_feasible`
is that one binary search.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

import numpy as np

from repro.core.region import GridRegion
from repro.core.weights import WeightFunction

__all__ = ["SEARCH_TOLERANCE", "WeightedGrid", "candidate_spans", "shrink_to_candidates",
           "smallest_feasible"]

Cover = TypeVar("Cover")

#: Relative gap between an infeasible and a feasible threshold at which
#: :func:`smallest_feasible` stops (relative to ``max(high, 1)``).
SEARCH_TOLERANCE = 0.01


def smallest_feasible(
    feasible: Callable[[float], Cover | None],
    low: float,
    high: float,
    max_midpoints: int,
) -> tuple[float, Cover | None, int]:
    """Binary-search the smallest threshold at which ``feasible`` returns a cover.

    ``feasible(threshold)`` returns a cover, or ``None`` when none fits.  The
    search tries ``low``, then ``high``, then at most ``max_midpoints``
    midpoints, and stops once ``high - low <= SEARCH_TOLERANCE * max(high,
    1)``.  Returns ``(threshold, cover, evaluations)``: ``low`` and its cover
    when ``low`` fits, otherwise the lowest fitting threshold tried and its
    cover -- ``high`` and ``None`` when neither ``high`` nor a midpoint fits,
    which leaves the fallback to the caller.
    """
    cover = feasible(low)
    if cover is not None:
        return low, cover, 1
    cover, evaluations = feasible(high), 2
    for _ in range(max_midpoints):
        if high - low <= SEARCH_TOLERANCE * max(high, 1.0):
            break
        mid = (low + high) / 2.0
        candidate = feasible(mid)
        evaluations += 1
        if candidate is None:
            low = mid
        else:
            high, cover = mid, candidate
    return high, cover, evaluations


def candidate_spans(candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a candidate mask, its first and last candidate column (-1: none)."""
    rows, cols = candidate.shape
    lo = np.full(rows, -1, dtype=np.int64)
    hi = np.full(rows, -1, dtype=np.int64)
    has_any = candidate.any(axis=1)
    if has_any.any():
        lo[has_any] = np.argmax(candidate[has_any], axis=1)
        hi[has_any] = cols - 1 - np.argmax(candidate[has_any, ::-1], axis=1)
    return lo, hi


def _span_direction(span_lo: np.ndarray, span_hi: np.ndarray) -> int:
    """``1`` / ``-1`` when the candidate rows' spans never decrease / increase, else ``0``."""
    has_candidates = span_lo >= 0
    lo_steps = np.diff(span_lo[has_candidates])
    hi_steps = np.diff(span_hi[has_candidates])
    if (lo_steps >= 0).all() and (hi_steps >= 0).all():
        return 1
    if (lo_steps <= 0).all() and (hi_steps <= 0).all():
        return -1
    return 0


def shrink_to_candidates(
    span_lo: Sequence[int],
    span_hi: Sequence[int],
    row_lo: int,
    row_hi: int,
    col_lo: int,
    col_hi: int,
) -> tuple[int, int, int, int] | None:
    """Shrink a rectangle to the rows and columns its candidate cells occupy.

    ``span_lo[r]`` / ``span_hi[r]`` are row ``r``'s first and last candidate
    column (``-1`` for a row without candidates).  Returns the inclusive
    ``(row_lo, row_hi, col_lo, col_hi)`` of the smallest rectangle holding
    every row span clipped to the query, or ``None`` when no span reaches
    into it.  One pass over the query's rows.
    """
    first = last = -1
    min_lo, max_hi = col_hi, col_lo
    for row in range(row_lo, row_hi + 1):
        lo, hi = span_lo[row], span_hi[row]
        if lo < 0 or lo > col_hi or hi < col_lo:
            continue
        if first < 0:
            first = row
        last = row
        if lo < min_lo:
            min_lo = lo
        if hi > max_hi:
            max_hi = hi
    if first < 0:
        return None
    return first, last, max(min_lo, col_lo), min(max_hi, col_hi)


@dataclass
class WeightedGrid:
    """A grid of output frequencies plus per-row/column input sizes.

    Parameters
    ----------
    frequency:
        ``(num_rows, num_cols)`` array of estimated output tuples per cell.
    row_input, col_input:
        Input tuples falling in each grid row (R1 side) / column (R2 side).
    candidate:
        Boolean mask of cells that may produce output.  Non-candidate cells
        contribute zero weight and are never required to be covered.
    """

    frequency: np.ndarray
    row_input: np.ndarray
    col_input: np.ndarray
    candidate: np.ndarray

    def __post_init__(self) -> None:
        self.frequency = np.asarray(self.frequency, dtype=np.float64)
        self.row_input = np.asarray(self.row_input, dtype=np.float64)
        self.col_input = np.asarray(self.col_input, dtype=np.float64)
        self.candidate = np.asarray(self.candidate, dtype=bool)
        rows, cols = self.frequency.shape
        if self.candidate.shape != (rows, cols):
            raise ValueError("candidate mask shape must match frequency shape")
        if len(self.row_input) != rows or len(self.col_input) != cols:
            raise ValueError("row_input/col_input lengths must match the grid shape")
        for name, values in (("frequency", self.frequency),
                             ("row_input", self.row_input),
                             ("col_input", self.col_input)):
            # ``>= 0`` is False for NaN; the finiteness pass catches +inf.
            if not ((values >= 0).all() and np.isfinite(values).all()):
                raise ValueError(f"{name} must be finite and non-negative")
        if np.any(self.frequency[~self.candidate] > 0):
            raise ValueError("non-candidate cells cannot carry output frequency")

    # ------------------------------------------------------------------
    # Tables built on first read
    # ------------------------------------------------------------------
    @cached_property
    def _row_prefix(self) -> np.ndarray:
        """Row-input prefix sums with a leading zero."""
        return np.concatenate([[0.0], np.cumsum(self.row_input)])

    @cached_property
    def _col_prefix(self) -> np.ndarray:
        """Column-input prefix sums with a leading zero."""
        return np.concatenate([[0.0], np.cumsum(self.col_input)])

    @cached_property
    def _freq_prefix(self) -> np.ndarray:
        """2-D frequency prefix sums with a zero border, for O(1) rectangle sums."""
        rows, cols = self.shape
        prefix = np.zeros((rows + 1, cols + 1))
        prefix[1:, 1:] = np.cumsum(np.cumsum(self.frequency, axis=0), axis=1)
        return prefix

    @cached_property
    def _cand_prefix(self) -> np.ndarray:
        """2-D candidate-count prefix sums with a zero border."""
        rows, cols = self.shape
        prefix = np.zeros((rows + 1, cols + 1), dtype=np.int64)
        prefix[1:, 1:] = np.cumsum(np.cumsum(self.candidate, axis=0, dtype=np.int64), axis=1)
        return prefix

    @cached_property
    def _row_cand_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's first and last candidate column (see :func:`candidate_spans`)."""
        return candidate_spans(self.candidate)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of grid rows."""
        return self.frequency.shape[0]

    @property
    def num_cols(self) -> int:
        """Number of grid columns."""
        return self.frequency.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_rows, num_cols)``."""
        return self.frequency.shape

    @property
    def total_input(self) -> float:
        """Total input tuples represented by the grid (both relations)."""
        return float(self._row_prefix[-1] + self._col_prefix[-1])

    @property
    def total_output(self) -> float:
        """Total (estimated) output tuples, bit-identical to the prefix table's corner."""
        if self.frequency.size == 0:
            return 0.0
        return float(np.cumsum(np.cumsum(self.frequency, axis=0)[-1])[-1])

    @property
    def num_candidate_cells(self) -> int:
        """Number of candidate cells in the grid."""
        return int(np.count_nonzero(self.candidate))

    # ------------------------------------------------------------------
    # Rectangle metrics
    # ------------------------------------------------------------------
    def region_output(self, region: GridRegion) -> float:
        """Estimated output tuples inside ``region``."""
        p = self._freq_prefix
        return float(
            p[region.row_hi + 1, region.col_hi + 1]
            - p[region.row_lo, region.col_hi + 1]
            - p[region.row_hi + 1, region.col_lo]
            + p[region.row_lo, region.col_lo]
        )

    def region_input(self, region: GridRegion) -> float:
        """Input tuples on the semi-perimeter of ``region`` (rows + columns)."""
        rows = self._row_prefix[region.row_hi + 1] - self._row_prefix[region.row_lo]
        cols = self._col_prefix[region.col_hi + 1] - self._col_prefix[region.col_lo]
        return float(rows + cols)

    def region_weight(self, region: GridRegion, weight_fn: WeightFunction) -> float:
        """Weight of ``region`` under ``weight_fn``."""
        return weight_fn.weight(self.region_input(region), self.region_output(region))

    def candidate_count(self, region: GridRegion) -> int:
        """Number of candidate cells inside ``region``."""
        p = self._cand_prefix
        return int(
            p[region.row_hi + 1, region.col_hi + 1]
            - p[region.row_lo, region.col_hi + 1]
            - p[region.row_hi + 1, region.col_lo]
            + p[region.row_lo, region.col_lo]
        )

    def cell_weight(self, row: int, col: int, weight_fn: WeightFunction) -> float:
        """Weight of the single cell ``(row, col)``."""
        return self.region_weight(GridRegion(row, row, col, col), weight_fn)

    def max_cell_weight(self, weight_fn: WeightFunction,
                        candidates_only: bool = False) -> float:
        """Maximum single-cell weight, optionally restricted to candidate cells."""
        cell_weights = (
            weight_fn.input_cost
            * (self.row_input[:, None] + self.col_input[None, :])
            + weight_fn.output_cost * self.frequency
        )
        if candidates_only:
            if not self.candidate.any():
                return 0.0
            return float(cell_weights[self.candidate].max())
        return float(cell_weights.max())

    # ------------------------------------------------------------------
    # Candidate structure / monotonicity
    # ------------------------------------------------------------------
    def row_candidate_span(self, row: int) -> tuple[int, int] | None:
        """Inclusive column span of candidate cells in ``row`` (None if empty)."""
        span_lo, span_hi = self._row_cand_spans
        lo = int(span_lo[row])
        if lo < 0:
            return None
        return lo, int(span_hi[row])

    def candidate_rows(self) -> np.ndarray:
        """Indexes of rows containing at least one candidate cell."""
        return np.flatnonzero(self._row_cand_spans[0] >= 0)

    def is_monotonic(self) -> bool:
        """Check the paper's monotonicity property of the candidate mask.

        Candidate cells must be contiguous in every row and every column, and
        the per-row candidate spans must shift in one consistent direction.
        """
        for axis_candidate in (self.candidate, self.candidate.T):
            for row in axis_candidate:
                idx = np.flatnonzero(row)
                if len(idx) and (idx[-1] - idx[0] + 1) != len(idx):
                    return False
        return _span_direction(*self._row_cand_spans) != 0

    def span_direction(self) -> int:
        """Which way the candidate rows' column spans move down the grid.

        ``1`` when neither end of a span ever moves left from one candidate
        row to the next (a band or an inequality), ``-1`` when neither ever
        moves right (an anti-diagonal band).  Spans that never move -- at most
        one candidate row, or equal spans -- count as ``1``.  Lemma 3.4, and
        every table built on it, holds only for spans moving one way.

        Raises
        ------
        ValueError
            If the spans move both ways.
        """
        direction = _span_direction(*self._row_cand_spans)
        if direction == 0:
            raise ValueError(
                "the candidate rows' column spans must move in one direction "
                "(both ends non-decreasing, or both non-increasing, down the rows)"
            )
        return direction

    def minimal_candidate_rectangle(self, region: GridRegion) -> GridRegion | None:
        """Shrink ``region`` to the smallest rectangle containing its candidate cells.

        Returns ``None`` when the region contains no candidate cell.  One pass
        over the per-row candidate spans of the region's rows
        (:func:`shrink_to_candidates`), right for any grid; nothing is
        cached.  The tiling tables answer the same question for a grid whose
        spans move one way with lookups of their own.
        """
        span_lo, span_hi = self._row_cand_spans
        minimal = shrink_to_candidates(
            span_lo.tolist(), span_hi.tolist(),
            region.row_lo, region.row_hi, region.col_lo, region.col_hi,
        )
        return None if minimal is None else GridRegion(*minimal)

    def full_region(self) -> GridRegion:
        """The region covering the whole grid."""
        return GridRegion(0, self.num_rows - 1, 0, self.num_cols - 1)
