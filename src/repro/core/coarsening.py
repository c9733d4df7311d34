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
``tests/reference_planner.py`` keeps the numpy sweep and the row-by-row
loop it equals boundary for boundary.

The paper's **MonotonicCoarsening** observation -- non-candidate cells weigh
zero, so only candidate cells need their weights computed -- is applied
throughout: a block that contains no candidate MS cell contributes nothing to
the maximum.  So coarsening runs on MS as its candidate band
(:class:`~repro.core.grid.BandGrid`): each pass aggregates the sampled
entries by group with the compiled kernel
(:func:`repro.joins.native.group_sums`, numpy's ``reduceat`` bit for bit)
and counts the runs' candidate cells by group, never building an ``n_s x
n_s`` array.  A dense :class:`~repro.core.grid.WeightedGrid` argument is
converted to its band once, on entry.  ``tests/reference_planner.py`` keeps
the dense aggregation the band equals.

``n_c = 2J`` keeps the accuracy loss of working on a grid rather than the
original matrix to a factor below 4 (paper §III-D) while keeping the
regionalization input small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import BandGrid, WeightedGrid, smallest_feasible
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
    """Evenly spaced group boundaries (length ``groups + 1``) over ``size`` items.

    The rounded points never descend, so one compare of neighbours drops
    the repeats ``np.unique`` would (without its sort, or its lazy import
    of ``numpy.ma``).
    """
    points = np.linspace(0, size, groups + 1).round().astype(np.int64)
    return points[np.r_[True, points[1:] != points[:-1]]]


#: A pass's aggregates of its lines by group: frequencies, candidate
#: counts (both lines x groups, C order) and the groups' input.
Aggregates = tuple[np.ndarray, np.ndarray, np.ndarray]


def _group_columns(grid: BandGrid, bounds: np.ndarray) -> Aggregates:
    """Each row's frequency, candidate count and the input by column group.

    ``rows x groups`` C-ordered float64 arrays plus the groups' input: the
    dense grid's ``np.add.reduceat`` along the columns bit for bit.  The
    frequencies are the kernel's; the counts are each run's overlap with
    each group (whole numbers, exact in any order).
    """
    freq = native.group_sums(grid.entry_ptr, grid.entry_col, grid.entry_value, bounds)
    groups = bounds.size - 1
    clipped = np.clip(bounds, grid.run_lo[:, None], grid.run_hi[:, None])
    overlap = np.empty((grid.run_lo.size, groups))
    np.subtract(clipped[:, 1:], clipped[:, :-1], out=overlap)
    del clipped
    cand = np.zeros((grid.num_rows, groups))
    rows = np.flatnonzero(np.diff(grid.run_ptr))
    if rows.size:
        cand[rows] = np.add.reduceat(overlap, grid.run_ptr[rows], axis=0)
    return freq, cand, np.add.reduceat(grid.col_input, bounds[:-1])


def _group_rows(grid: BandGrid, bounds: np.ndarray) -> Aggregates:
    """:func:`_group_columns` of the transposed grid: ``columns x groups``.

    The dense reduceat down the rows, transposed.  The counts come from one
    difference array per row group, each run adding 1 at its first column
    and -1 past its last.
    """
    freq = native.group_sums(*grid.entries_by_column, bounds)
    groups, width = bounds.size - 1, grid.num_cols + 1
    steps = np.searchsorted(bounds, grid.run_rows, side="right") * width - width
    counts = np.bincount(steps + grid.run_lo, minlength=groups * width)
    counts -= np.bincount(steps + grid.run_hi, minlength=groups * width)
    counts = counts.reshape(groups, width)
    np.cumsum(counts, axis=1, out=counts)
    cand = np.ascontiguousarray(counts[:, :-1].T, dtype=np.float64)
    return freq, cand, np.add.reduceat(grid.row_input, bounds[:-1])


def _optimize_axis(
    aggregates: Aggregates,
    line_input: np.ndarray,
    weight_fn: WeightFunction,
    max_groups: int,
    low: float,
    high: float,
) -> np.ndarray:
    """Choose line boundaries minimising the max candidate-block weight for fixed groups.

    ``aggregates`` are the lines' frequencies, candidate counts and the
    groups' input (:func:`_group_columns` for rows, :func:`_group_rows` for
    columns); ``line_input`` is the lines' input.  ``low`` is the threshold
    search's lower end, the grid's heaviest candidate cell, the same float
    on both axes; ``high`` the grid's total weight as that axis's dense grid
    summed it, at least ``low``.  One group is the only cover ``max_groups
    == 1`` allows, so it is returned without a search: the sweep sums a
    block line by line, which can round one step above the total weight
    the search takes as its upper end, so the search could miss it.
    """
    if max_groups == 1:
        return np.array([0, line_input.size], dtype=np.int64)
    freq_by_group, cand_by_group, input_by_group = aggregates

    def feasible(threshold: float) -> np.ndarray | None:
        return native.sweep_rows(
            freq_by_group, cand_by_group, line_input, input_by_group,
            weight_fn.input_cost, weight_fn.output_cost, threshold, max_groups,
        )

    _, bounds, _ = smallest_feasible(feasible, low, high, MAX_MIDPOINTS)
    if bounds is None:
        raise RuntimeError("coarsening sweep failed at the trivial threshold")
    return bounds


def _build_coarse_grid(by_rows: Aggregates, col_bounds: np.ndarray,
                       col_input: np.ndarray) -> WeightedGrid:
    """The coarse grid from the columns' aggregates by row group (:func:`_group_rows`).

    The dense grid's row pass, ``np.add.reduceat`` down the rows, is that
    aggregate transposed, so only the column pass runs here, on the small
    ``n_c x n_s`` arrays.
    """
    freq_t, cand_t, row_input = by_rows
    starts = col_bounds[:-1]
    return WeightedGrid(
        frequency=np.ascontiguousarray(np.add.reduceat(freq_t.T, starts, axis=1)),
        row_input=row_input,
        col_input=np.add.reduceat(col_input, starts),
        candidate=np.add.reduceat(cand_t.T, starts, axis=1) > 0,
    )


def coarsen(
    grid: BandGrid | WeightedGrid,
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
        The sample matrix MS as its band, or any weighted grid (converted to
        its band once).
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
    if isinstance(grid, WeightedGrid):
        grid = BandGrid.from_dense(grid)
    num_row_groups = max(1, min(num_row_groups, grid.num_rows))
    num_col_groups = max(1, min(num_col_groups, grid.num_cols))

    row_bounds = _even_boundaries(grid.num_rows, num_row_groups)
    col_bounds = _even_boundaries(grid.num_cols, num_col_groups)

    best_grid = _build_coarse_grid(_group_rows(grid, row_bounds), col_bounds, grid.col_input)
    best_weight = best_grid.max_cell_weight(weight_fn, candidates_only=True)
    best_bounds = (row_bounds, col_bounds)
    iterations_run = 0

    heaviest_cell = grid.max_cell_weight(weight_fn, candidates_only=True)
    # Each axis's search ends at the total weight as that axis's dense grid
    # (MS, or its transpose) added it up.
    total_input = grid.total_input
    row_high = max(weight_fn.weight(total_input, grid.total_output), heaviest_cell)
    col_high = max(weight_fn.weight(total_input, grid.transposed_total_output), heaviest_cell)

    for iteration in range(MAX_ITERATIONS):
        iterations_run = iteration + 1
        row_bounds = _optimize_axis(
            _group_columns(grid, col_bounds), grid.row_input, weight_fn,
            num_row_groups, heaviest_cell, row_high,
        )
        # The columns' sweep and the coarse grid's row pass share it.
        by_rows = _group_rows(grid, row_bounds)
        col_bounds = _optimize_axis(
            by_rows, grid.col_input, weight_fn, num_col_groups, heaviest_cell, col_high,
        )
        coarse = _build_coarse_grid(by_rows, col_bounds, grid.col_input)
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
