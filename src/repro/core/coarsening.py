"""Stage 2 of the histogram algorithm: coarsening MS into MC.

Coarsening lays a non-uniform ``n_c x n_c`` grid over the sample matrix so
that the *maximum cell weight* of the resulting coarsened matrix is as small
as possible.  This is the RTILE problem with grid partitioning and the
MAX-WEIGHT-ID metric (Muthukrishnan & Suel); the best known approximation has
ratio 2.  The implementation follows the standard iterative-refinement
recipe: alternately re-optimise the row boundaries for fixed column
boundaries and vice versa, where each 1-D optimisation is a binary search
over the cell-weight threshold combined with a greedy sweep.  Each sweep
is one call of the compiled kernel (:func:`repro.joins.native.sweep_rows`);
:func:`_sweep_rows` is its numpy fallback, wherever the kernel is not
loaded or declines an input, and the reference it equals boundary for
boundary.

The paper's **MonotonicCoarsening** observation -- non-candidate cells weigh
zero, so only candidate cells need their weights computed -- is applied
throughout: a block that contains no candidate MS cell contributes nothing to
the maximum.

``n_c = 2J`` keeps the accuracy loss of working on a grid rather than the
original matrix to a factor below 4 (paper §III-D) while keeping the
regionalization input small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import WeightedGrid, smallest_feasible
from repro.core.weights import WeightFunction
from repro.joins import native

__all__ = ["CoarseningResult", "coarsen", "coarsened_size"]

#: Alternating row/column refinement passes at most.
MAX_ITERATIONS = 4

#: Midpoints each axis's threshold search may try after its two ends.
MAX_MIDPOINTS = 25


def coarsened_size(num_machines: int, grid_size: int,
                   max_size: int | None = None) -> int:
    """The coarsened matrix side length ``n_c``.

    The paper uses ``n_c = 2J``; the result can never exceed the sample
    matrix size and may optionally be capped (``max_size``) to bound the
    regionalization cost on very large machine counts.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    nc = 2 * num_machines
    if max_size is not None:
        nc = min(nc, max_size)
    return max(1, min(nc, grid_size))


@dataclass
class CoarseningResult:
    """Output of the coarsening stage.

    Attributes
    ----------
    grid:
        The coarsened matrix MC as a :class:`WeightedGrid`.
    row_groups, col_groups:
        Boundary index arrays of length ``n_c + 1`` into the MS rows/columns:
        MC row ``g`` aggregates MS rows ``row_groups[g] .. row_groups[g+1]-1``.
    max_cell_weight:
        The maximum candidate-cell weight achieved.
    iterations:
        Number of alternating refinement iterations executed.
    """

    grid: WeightedGrid
    row_groups: np.ndarray
    col_groups: np.ndarray
    max_cell_weight: float
    iterations: int


def _even_boundaries(size: int, groups: int) -> np.ndarray:
    """Evenly spaced group boundaries (length ``groups + 1``) over ``size`` items."""
    return np.unique(np.linspace(0, size, groups + 1).round().astype(np.int64))


def _aggregate_columns(grid: WeightedGrid, col_bounds: np.ndarray) -> tuple[
    np.ndarray, np.ndarray, np.ndarray
]:
    """Aggregate frequencies, candidate counts and column input by column group."""
    starts = col_bounds[:-1]
    freq_by_group = np.add.reduceat(grid.frequency, starts, axis=1)
    cand_by_group = np.add.reduceat(
        grid.candidate.astype(np.float64), starts, axis=1
    )
    col_input_by_group = np.add.reduceat(grid.col_input, starts)
    return freq_by_group, cand_by_group, col_input_by_group


def _sweep_rows(
    freq_by_group: np.ndarray,
    cand_by_group: np.ndarray,
    row_input: np.ndarray,
    col_input_by_group: np.ndarray,
    weight_fn: WeightFunction,
    threshold: float,
    max_groups: int,
) -> np.ndarray | None:
    """Greedy sweep: group consecutive rows so every candidate block stays under
    ``threshold``.  Returns the boundary array or ``None`` when more than
    ``max_groups`` groups would be needed.

    A group takes rows while its heaviest candidate block stays within
    ``threshold``; a row met with an all-zero accumulator (no input, no
    candidates yet -- above all the row that opens a group) is always taken.
    Each group's end is found on whole look-ahead windows of rows at once.  Block
    weights are running sums *from the group's first row*, added in row order
    (``np.cumsum``), so they are the floats a row-by-row loop would compare
    with ``threshold`` -- differences of one global prefix sum round
    differently and would move boundaries.  Candidate counts are integers, so
    for them prefix differences are exact.

    The compiled kernel (:func:`repro.joins.native.sweep_rows`) runs the same
    sweep row by row in one call; this is its fallback and the reference
    it is held to, boundary for boundary.
    """
    num_rows = len(row_input)
    # Twice the mean group length: most groups close inside their first window.
    window = max(8, 2 * -(-num_rows // max_groups))
    cand_prefix = np.zeros((num_rows + 1, cand_by_group.shape[1]))
    np.cumsum(cand_by_group, axis=0, out=cand_prefix[1:])
    boundaries = [0]
    start = 0
    while True:
        # Find the first row that would overfill the group opened at ``start``.
        # ``*_before`` are the group's sums ahead of the window: zero ahead of
        # the first, carried over when a window does not hold the whole group.
        closing_row = None
        freq_before = np.zeros(freq_by_group.shape[1])
        input_before = 0.0
        for lo in range(start, num_rows, window):
            freq_after = np.cumsum(
                np.concatenate([freq_before[None, :], freq_by_group[lo : lo + window]]),
                axis=0,
            )[1:]
            input_after = np.cumsum(
                np.concatenate([[input_before], row_input[lo : lo + window]])
            )[1:]
            # Only blocks containing candidate cells count (MonotonicCoarsening:
            # non-candidate cells weigh zero).
            has_candidates = cand_prefix[lo + 1 : lo + 1 + len(input_after)] > cand_prefix[start]
            weights = (
                weight_fn.input_cost * (input_after[:, None] + col_input_by_group)
                + weight_fn.output_cost * freq_after
            )
            heaviest = np.where(has_candidates, weights, -np.inf).max(axis=1)
            for offset in np.flatnonzero(heaviest > threshold).tolist():
                row = lo + offset
                # A row met with an all-zero accumulator is taken whatever it
                # weighs; the row that opens the group is the usual case.
                input_so_far = input_after[offset - 1] if offset else input_before
                if input_so_far == 0.0 and not (cand_prefix[row] > cand_prefix[start]).any():
                    continue
                closing_row = row
                break
            if closing_row is not None:
                break
            freq_before, input_before = freq_after[-1], input_after[-1]
        if closing_row is None:
            break
        # Close the current group before this row and start a new one.
        boundaries.append(closing_row)
        if len(boundaries) > max_groups:
            return None
        start = closing_row
    boundaries.append(num_rows)
    if len(boundaries) - 1 > max_groups:
        return None
    return np.asarray(boundaries, dtype=np.int64)


def _optimize_axis(
    grid: WeightedGrid,
    col_bounds: np.ndarray,
    weight_fn: WeightFunction,
    max_groups: int,
    low: float,
) -> np.ndarray:
    """Choose row boundaries minimising the max candidate-block weight for fixed columns.

    ``low`` is the threshold search's lower end, the grid's heaviest candidate
    cell; it is the same float for a grid and its transpose, so the caller
    computes it once.  One group is the only cover ``max_groups == 1``
    allows, so it is returned without a search: the sweep sums a block row
    by row, which can round one step above the total weight the search
    takes as its upper end, so the search could miss it.
    """
    if max_groups == 1:
        return np.array([0, grid.num_rows], dtype=np.int64)
    freq_by_group, cand_by_group, col_input_by_group = _aggregate_columns(
        grid, col_bounds
    )
    # The kernel reads C order; the transposed grid's aggregates are F-ordered.
    sweep = tuple(map(np.ascontiguousarray, (
        freq_by_group, cand_by_group, grid.row_input, col_input_by_group
    )))

    def feasible(threshold: float) -> np.ndarray | None:
        bounds = native.sweep_rows(
            *sweep, weight_fn.input_cost, weight_fn.output_cost, threshold, max_groups
        )
        if bounds is False:
            return _sweep_rows(*sweep, weight_fn, threshold, max_groups)
        return bounds

    high = max(weight_fn.weight(grid.total_input, grid.total_output), low)
    _, bounds, _ = smallest_feasible(feasible, low, high, MAX_MIDPOINTS)
    if bounds is None:
        raise RuntimeError("coarsening sweep failed at the trivial threshold")
    return bounds


def _build_coarse_grid(
    grid: WeightedGrid, row_bounds: np.ndarray, col_bounds: np.ndarray
) -> WeightedGrid:
    """Aggregate the fine grid into the coarse grid defined by the boundaries."""
    row_starts = row_bounds[:-1]
    col_starts = col_bounds[:-1]
    freq = np.add.reduceat(
        np.add.reduceat(grid.frequency, row_starts, axis=0), col_starts, axis=1
    )
    cand_counts = np.add.reduceat(
        np.add.reduceat(grid.candidate.astype(np.float64), row_starts, axis=0),
        col_starts, axis=1,
    )
    row_input = np.add.reduceat(grid.row_input, row_starts)
    col_input = np.add.reduceat(grid.col_input, col_starts)
    return WeightedGrid(
        frequency=freq,
        row_input=row_input,
        col_input=col_input,
        candidate=cand_counts > 0,
    )


def coarsen(
    grid: WeightedGrid,
    num_row_groups: int,
    num_col_groups: int | None = None,
    weight_fn: WeightFunction | None = None,
) -> CoarseningResult:
    """Coarsen a weighted grid into ``num_row_groups x num_col_groups`` blocks.

    At most ``MAX_ITERATIONS`` alternating row/column refinement passes run;
    the first pass that does not lower the maximum cell weight ends them.

    Parameters
    ----------
    grid:
        The sample matrix MS (or any weighted grid).
    num_row_groups, num_col_groups:
        Target dimensions ``n_c`` of the coarsened matrix, each positive;
        ``num_col_groups`` defaults (``None``) to ``num_row_groups``.
    weight_fn:
        Cost model; defaults to unit input and output costs.
    """
    if num_col_groups is None:
        num_col_groups = num_row_groups
    if num_row_groups <= 0:
        raise ValueError("num_row_groups must be positive")
    if num_col_groups <= 0:
        raise ValueError("num_col_groups must be positive")
    weight_fn = weight_fn or WeightFunction()
    num_row_groups = max(1, min(num_row_groups, grid.num_rows))
    num_col_groups = max(1, min(num_col_groups, grid.num_cols))

    row_bounds = _even_boundaries(grid.num_rows, num_row_groups)
    col_bounds = _even_boundaries(grid.num_cols, num_col_groups)

    best_grid = _build_coarse_grid(grid, row_bounds, col_bounds)
    best_weight = best_grid.max_cell_weight(weight_fn, candidates_only=True)
    best_bounds = (row_bounds, col_bounds)
    iterations_run = 0

    transposed = WeightedGrid(
        frequency=grid.frequency.T,
        row_input=grid.col_input,
        col_input=grid.row_input,
        candidate=grid.candidate.T,
    )

    heaviest_cell = grid.max_cell_weight(weight_fn, candidates_only=True)

    for iteration in range(MAX_ITERATIONS):
        iterations_run = iteration + 1
        row_bounds = _optimize_axis(
            grid, col_bounds, weight_fn, num_row_groups, heaviest_cell
        )
        col_bounds = _optimize_axis(
            transposed, row_bounds, weight_fn, num_col_groups, heaviest_cell
        )
        coarse = _build_coarse_grid(grid, row_bounds, col_bounds)
        weight = coarse.max_cell_weight(weight_fn, candidates_only=True)
        if weight < best_weight - 1e-12:
            best_weight = weight
            best_grid = coarse
            best_bounds = (row_bounds, col_bounds)
        else:
            break

    return CoarseningResult(
        grid=best_grid,
        row_groups=np.asarray(best_bounds[0], dtype=np.int64),
        col_groups=np.asarray(best_bounds[1], dtype=np.int64),
        max_cell_weight=float(best_weight),
        iterations=iterations_run,
    )
