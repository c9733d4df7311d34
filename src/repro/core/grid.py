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
on first read and kept on the grid.  Only the coarsened matrix's
:class:`~repro.core.tiling_tables.TilingTables` reads the 2-D ones.
``total_output`` needs no table: it adds each column's sequential sum in
column order with ``np.cumsum``, the same float additions in the same order
that give the double cumsum's corner (C- and F-ordered arrays alike), so it
is that corner bit for bit.  The tiling algorithms, which ask for the same
rectangles again and again, keep their answers in a ``TilingTables`` that
lives for one regionalization and shrinks a rectangle of a monotone grid
with four lookups instead of that pass.

The sample matrix MS is a :class:`BandGrid` instead: the paper's
MonotonicCoarsening rests on non-candidate cells weighing zero, and MS holds
a few candidate cells per row, so it keeps each row's runs of candidate
columns and its sampled frequency entries, O(n_s + s_o) in all, and answers
what coarsening asks -- totals, the heaviest candidate cell, and the
frequencies and candidate counts by column or row group -- with the same
floats the dense arrays gave.  The ``n_s x n_s`` sample matrix and
coarsening's transposed copy never build one.

Coarsening, regionalization and M-Bucket each look for the smallest weight
threshold at which a greedy cover of a grid fits, by one binary search:
the compiled kernel runs it for the first two, and :func:`smallest_feasible`
is its Python form, for M-Bucket and the test oracle.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

import numpy as np

from repro.core.region import GridRegion
from repro.core.weights import WeightFunction

__all__ = ["SEARCH_TOLERANCE", "BandGrid", "WeightedGrid", "candidate_spans",
           "shrink_to_candidates", "smallest_feasible"]

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

    The planner's own search is ``smallest_feasible`` in
    ``repro/joins/native.c``, the one compiled copy of these steps: each of
    coarsening's axis searches and regionalization's delta search run it.
    This Python form serves M-Bucket, a baseline whose predicate is Python,
    and the test oracle that holds the kernel's searches to it (a change
    to the steps is a change to both).
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
        if self.row_input.shape != (rows,) or self.col_input.shape != (cols,):
            raise ValueError("row_input/col_input lengths must match the grid shape")
        # One check reads the three arrays at once; a failure names the first offender.
        floats = (("frequency", self.frequency.ravel()), ("row_input", self.row_input),
                  ("col_input", self.col_input))
        if not _finite_non_negative(np.concatenate([values for _, values in floats])):
            name = next(name for name, values in floats if not _finite_non_negative(values))
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


def _finite_non_negative(values: np.ndarray) -> bool:
    """Every value finite and ``>= 0``: a NaN minimum compares False, an inf maximum too."""
    return not values.size or bool(values.min() >= 0 and values.max() < np.inf)


def _lines(ptr: np.ndarray) -> np.ndarray:
    """The line (row) of each item of a CSR with offsets ``ptr``."""
    return np.repeat(np.arange(ptr.size - 1), ptr[1:] - ptr[:-1])


def _total(lines: np.ndarray, values: np.ndarray, size: int) -> float:
    """Each line's values summed in order, then the line sums added in line order.

    ``np.bincount`` adds a line's values one by one from 0.0, as a dense
    ``np.cumsum`` down the line does (adding 0.0 is exact), so this is the
    double cumsum's corner bit for bit.
    """
    if not size:
        return 0.0
    return float(np.cumsum(np.bincount(lines, weights=values, minlength=size))[-1])


@dataclass
class BandGrid:
    """The sample matrix MS as its candidate band: runs of candidate cells and sampled entries.

    Parameters
    ----------
    row_input, col_input:
        Input tuples falling in each grid row (R1 side) / column (R2 side).
    run_ptr, run_lo, run_hi:
        Row ``r``'s candidate columns are the runs ``[run_lo[i], run_hi[i])``
        for ``i`` in ``run_ptr[r]:run_ptr[r + 1]``, non-empty, ascending and
        disjoint: one run per row of a monotone grid, plus a one-cell run for
        a sampled cell the condition's run missed.
    entry_ptr, entry_col, entry_value:
        Row ``r``'s nonzero output frequencies are ``entry_value[i]`` at
        column ``entry_col[i]`` for ``i`` in ``entry_ptr[r]:entry_ptr[r + 1]``,
        columns ascending, each inside one of the row's runs.

    Every other cell weighs its input alone, and a cell outside the runs is
    no candidate.  :meth:`from_dense` converts a :class:`WeightedGrid`.
    """

    row_input: np.ndarray
    col_input: np.ndarray
    run_ptr: np.ndarray
    run_lo: np.ndarray
    run_hi: np.ndarray
    entry_ptr: np.ndarray
    entry_col: np.ndarray
    entry_value: np.ndarray

    def __post_init__(self) -> None:
        # C-contiguous: the kernel reads the entries as they are.
        for name in ("row_input", "col_input", "entry_value"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        for name in ("run_ptr", "run_lo", "run_hi", "entry_ptr", "entry_col"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.int64))
        rows, cols = self.shape
        # Each check reads every array of its kind at once (a minimum or a
        # maximum where a comparison would need an ``all``); a failure names
        # the first offender.
        floats = (("row_input", self.row_input), ("col_input", self.col_input),
                  ("entry_value", self.entry_value))
        if not _finite_non_negative(np.concatenate([values for _, values in floats])):
            name = next(name for name, values in floats if not _finite_non_negative(values))
            raise ValueError(f"{name} must be finite and non-negative")
        for name, ptr, items in (("run", self.run_ptr, self.run_lo),
                                 ("entry", self.entry_ptr, self.entry_col)):
            if (ptr.shape != (rows + 1,) or ptr[0] != 0 or ptr[-1] != items.size
                    or (ptr[1:] < ptr[:-1]).any()):
                raise ValueError(f"{name}_ptr must rise from 0 to the {name}s, one per row")
        if self.run_hi.shape != self.run_lo.shape or self.entry_value.shape != self.entry_col.shape:
            raise ValueError("run_lo/run_hi and entry_col/entry_value lengths must match")
        # Row-major keys: a row's cells and its runs' ends, rows apart.  The
        # ends' steps alternate: a run's width (positive), then the gap to
        # the next run (not negative).
        width = cols + 1
        run_base = self.run_rows * width
        ends = np.column_stack([run_base + self.run_lo, run_base + self.run_hi]).ravel()
        steps = ends[1:] - ends[:-1]
        if self.run_lo.size and not (self.run_lo.min() >= 0 and self.run_hi.max() <= cols
                                     and steps[::2].min() > 0
                                     and (steps.size < 2 or steps[1::2].min() >= 0)):
            raise ValueError("runs must be non-empty column ranges, ascending and disjoint")
        cells = self.entry_rows * width + self.entry_col
        if cells.size and not (self.entry_col.min() >= 0 and self.entry_col.max() < cols
                               and not (cells[1:] <= cells[:-1]).any()):
            raise ValueError("a row's entry columns must be distinct, ascending and in the grid")
        # A cell lies in a run exactly when an odd number of ends are at or
        # below it: the run's start, and not yet its stop.
        if cells.size and not (np.searchsorted(ends, cells, side="right") & 1).all():
            raise ValueError("non-candidate cells cannot carry output frequency")

    @classmethod
    def from_dense(cls, grid: WeightedGrid) -> "BandGrid":
        """The band of a dense grid: its candidate runs and nonzero frequencies."""
        rows, cols = grid.shape
        edges = np.diff(np.pad(grid.candidate, ((0, 0), (1, 1))).astype(np.int8), axis=1)
        run_rows, run_lo = np.nonzero(edges == 1)
        run_hi = np.nonzero(edges == -1)[1]
        entry_rows, entry_col = np.nonzero(grid.frequency)
        return cls(
            grid.row_input, grid.col_input,
            np.searchsorted(run_rows, np.arange(rows + 1)), run_lo, run_hi,
            np.searchsorted(entry_rows, np.arange(rows + 1)), entry_col,
            grid.frequency[entry_rows, entry_col],
        )

    # ------------------------------------------------------------------
    # Shape and totals
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of grid rows."""
        return self.row_input.size

    @property
    def num_cols(self) -> int:
        """Number of grid columns."""
        return self.col_input.size

    @property
    def shape(self) -> tuple[int, int]:
        """``(num_rows, num_cols)``."""
        return self.num_rows, self.num_cols

    @property
    def num_candidate_cells(self) -> int:
        """Number of candidate cells in the grid."""
        return int((self.run_hi - self.run_lo).sum())

    @property
    def total_input(self) -> float:
        """Total input tuples, as :attr:`WeightedGrid.total_input` adds them."""
        rows = np.cumsum(self.row_input)[-1] if self.num_rows else 0.0
        cols = np.cumsum(self.col_input)[-1] if self.num_cols else 0.0
        return float(rows + cols)

    @property
    def total_output(self) -> float:
        """Total output, as :attr:`WeightedGrid.total_output` adds the dense grid's."""
        return _total(self.entry_col, self.entry_value, self.num_cols)

    @property
    def transposed_total_output(self) -> float:
        """Total output as the transposed dense grid adds it: row sums first."""
        return _total(self.entry_rows, self.entry_value, self.num_rows)

    def max_cell_weight(self, weight_fn: WeightFunction,
                        candidates_only: bool = False) -> float:
        """Maximum single-cell weight, optionally restricted to candidate cells.

        The dense grid's floats: an entry's cell weighs ``w_i * (row + col)
        + w_o * frequency``, any other ``w_i * (row + col) + w_o * 0.0``.
        Rounding is monotone, so the heaviest such cell of a run (or of the
        grid) is the one with the largest column input.
        """
        w_i, w_o = weight_fn.input_cost, weight_fn.output_cost
        heaviest = w_i * (self.row_input[self.entry_rows] + self.col_input[self.entry_col]) \
            + w_o * self.entry_value
        if candidates_only:
            if not self.run_lo.size:
                return 0.0
            # Each run's largest column input: maxima over [lo, hi) pairs,
            # over the column inputs and a closing 0.0.
            bounds = np.empty(2 * self.run_lo.size, dtype=np.int64)
            bounds[0::2], bounds[1::2] = self.run_lo, self.run_hi
            padded = np.zeros(self.num_cols + 1)
            padded[:-1] = self.col_input
            col_max = np.maximum.reduceat(padded, bounds)[::2]
            row = self.row_input[self.run_rows]
        else:
            col_max, row = self.col_input.max(), self.row_input.max()
        empty = w_i * (row + col_max) + w_o * 0.0
        return float(max(empty.max(), heaviest.max(initial=-np.inf)))

    @cached_property
    def run_rows(self) -> np.ndarray:
        """The row of each run."""
        return _lines(self.run_ptr)

    @cached_property
    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return _lines(self.entry_ptr)

    @cached_property
    def entries_by_column(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries column by column: ``(ptr, rows, values)``, each column's rows ascending."""
        order = np.argsort(self.entry_col, kind="stable")
        counts = np.bincount(self.entry_col, minlength=self.num_cols)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        return ptr, self.entry_rows[order], self.entry_value[order]
