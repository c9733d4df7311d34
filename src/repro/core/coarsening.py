"""Stage 2 of the histogram algorithm: coarsening MS into MC.

Coarsening lays a non-uniform ``n_c x n_c`` grid over the sample matrix so
that the *maximum cell weight* of the resulting coarsened matrix is as small
as possible.  This is the RTILE problem with grid partitioning and the
MAX-WEIGHT-ID metric (Muthukrishnan & Suel); the best known approximation has
ratio 2.  The implementation follows the standard iterative-refinement
recipe: alternately re-optimise the row boundaries for fixed column
boundaries and vice versa, where each 1-D optimisation is a binary search
over the cell-weight threshold combined with a greedy sweep: the planner's
one threshold search, which regionalization's delta search runs too, in the
compiled kernel (:func:`~repro.core.grid.smallest_feasible` is its Python
form).  Where no threshold up to the axis's total weight fits -- a block
summed in another order than the total can round above it -- the axis
takes one group, the cover one group allows without a search.

The paper's **MonotonicCoarsening** observation -- non-candidate cells weigh
zero, so only candidate cells need their weights computed -- is applied
throughout: a block that contains no candidate MS cell contributes nothing to
the maximum.  So coarsening runs on MS as its candidate band
(:class:`~repro.core.grid.BandGrid`): each pass aggregates the sampled
entries by group (numpy's ``reduceat`` bit for bit) and marks the runs'
candidate cells by group, never building an ``n_s x n_s`` array.  A dense
:class:`~repro.core.grid.WeightedGrid` argument is converted to its band
once, on entry.

The whole loop -- the even starting grid, every pass's aggregates, each
axis's search and the coarse grid -- is one call of the compiled kernel
(:func:`repro.joins.native.coarsen`); this module computes the search's ends
(the heaviest candidate cell and each axis's total weight) and wraps the
result.  ``tests/reference_planner.py`` keeps the loop as it ran in Python
(``band_coarsen``: the dense aggregation, the numpy sweep and the row loop
it equals) and holds the kernel to it bit for bit.

``n_c = 2J`` keeps the accuracy loss of working on a grid rather than the
original matrix to a factor below 4 (paper §III-D) while keeping the
regionalization input small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import SEARCH_TOLERANCE, BandGrid, WeightedGrid
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


def coarsen(
    grid: BandGrid | WeightedGrid,
    num_row_groups: int,
    num_col_groups: int | None = None,
    weight_fn: WeightFunction | None = None,
) -> CoarseningResult:
    """Coarsen a weighted grid into ``num_row_groups x num_col_groups`` blocks.

    At most ``MAX_ITERATIONS`` alternating row/column refinement passes run;
    the first pass that does not lower the maximum cell weight ends them.
    Each axis's search tries at most ``MAX_MIDPOINTS`` midpoints between the
    heaviest candidate cell and the axis's total weight, and an axis no
    threshold fits takes one group.  All of it is one
    :func:`repro.joins.native.coarsen` call.

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
    heaviest_cell = grid.max_cell_weight(weight_fn, candidates_only=True)
    # Each axis's search ends at the total weight as that axis's dense grid
    # (MS, or its transpose) added it up.
    total_input = grid.total_input
    row_high = max(weight_fn.weight(total_input, grid.total_output), heaviest_cell)
    col_high = max(weight_fn.weight(total_input, grid.transposed_total_output), heaviest_cell)
    row_groups, col_groups, frequency, row_input, col_input, candidate, weight, passes = (
        native.coarsen(
            grid.row_input, grid.col_input, grid.run_ptr, grid.run_lo, grid.run_hi,
            grid.entry_ptr, grid.entry_col, grid.entry_value,
            weight_fn.input_cost, weight_fn.output_cost, num_row_groups, num_col_groups,
            heaviest_cell, row_high, col_high, MAX_ITERATIONS, MAX_MIDPOINTS, SEARCH_TOLERANCE,
        )
    )
    return CoarseningResult(
        grid=WeightedGrid(frequency, row_input, col_input, candidate),
        row_groups=row_groups,
        col_groups=col_groups,
        max_cell_weight=weight,
        iterations=passes,
    )
