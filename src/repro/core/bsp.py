"""Binary Space Partition (BSP) -- the baseline tiling algorithm.

BSP (Berman, DasGupta & Muthukrishnan) is a dynamic-programming algorithm
that, given a maximum region weight ``delta``, covers all candidate cells of
a weighted grid with the minimum number of rectangular regions obtainable by
*hierarchical* partitioning (recursively splitting rectangles with full
horizontal or vertical cuts).  The optimum hierarchical partitioning is
within a factor of 2 of the optimum arbitrary rectangular partitioning.

This module implements the paper's Algorithm 1: the classic bottom-up DP
over *all* rectangles of the grid, extended for join load balancing by
shrinking every rectangle to its *minimal candidate rectangle* before
weighing or splitting it (non-candidate cells never need to be assigned to a
machine).  The DP table is indexed by arbitrary rectangles, which is exactly
why the baseline costs O(n_c^4) space and O(n_c^5) time (Table III) -- the
join-specialised :mod:`repro.core.monotonic_bsp` removes that blow-up and is
the algorithm the production pipeline uses.  Because of its cost, this
baseline refuses grids beyond a configurable size and exists for validation
and for the Table III comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import WeightedGrid
from repro.core.monotonic_bsp import BSPResult, check_threshold
from repro.core.region import GridRegion
from repro.core.tiling_tables import Rect, TilingTables
from repro.core.weights import WeightFunction

__all__ = ["bsp_partition"]

#: Default refusal threshold on the grid side length for the baseline DP.
DEFAULT_MAX_GRID_SIZE = 28


def bsp_partition(
    grid: WeightedGrid,
    weight_fn: WeightFunction,
    delta: float,
    max_grid_size: int = DEFAULT_MAX_GRID_SIZE,
) -> BSPResult:
    """Cover all candidate cells of ``grid`` with regions of weight <= ``delta``.

    Returns a minimum-cardinality hierarchical partitioning.  Single cells
    whose weight exceeds ``delta`` are covered by a one-cell region (they
    cannot be split further); callers performing a binary search over
    ``delta`` should start at the maximum candidate-cell weight so this case
    never arises.

    Raises
    ------
    ValueError
        If the grid's larger dimension exceeds ``max_grid_size`` (the
        baseline is O(size^5); use MonotonicBSP instead), or if ``delta`` is
        NaN.
    """
    check_threshold(delta)
    rows, cols = grid.shape
    if max(rows, cols) > max_grid_size:
        raise ValueError(
            f"baseline BSP refuses grids larger than {max_grid_size} per side "
            f"(got {rows}x{cols}); use monotonic_bsp_partition instead"
        )
    # Only shrink and weigh are read here: tables for no threshold below +inf
    # split nothing, so their closure is the root alone.
    tables = TilingTables(grid, weight_fn, float("inf"))

    # DP over all rectangles, processed in increasing semi-perimeter order so
    # the halves of any split are already solved.
    rectangles: list[Rect] = [
        (r1, r2, c1, c2)
        for r1 in range(rows)
        for r2 in range(r1, rows)
        for c1 in range(cols)
        for c2 in range(c1, cols)
    ]
    rectangles.sort(key=lambda r: (r[1] - r[0] + r[3] - r[2], r[1] - r[0]))
    # Every rectangle's minimal candidate rectangle (a row of -1: none) and
    # its weight, in one pass each.
    shrunk = tables.shrink(np.array(rectangles, dtype=np.int64))
    held = shrunk[:, 0] >= 0
    weights = np.zeros(len(rectangles))
    weights[held] = tables.weigh(shrunk[held])
    minimal_of = dict(zip(rectangles, map(tuple, shrunk.tolist())))
    weight_of = dict(zip(rectangles, weights.tolist()))

    counts: dict[Rect, int] = {}
    # The rectangles to cover in a rectangle's stead: its minimal candidate
    # rectangle, or the two halves of its best split; empty when it is one
    # region itself or holds nothing to cover.
    plans: dict[Rect, tuple[Rect, ...]] = {}
    for rect in rectangles:
        minimal = minimal_of[rect]
        if minimal[0] < 0:
            counts[rect] = 0
            plans[rect] = ()
            continue
        if minimal != rect:
            # Defer to the minimal candidate rectangle, which has a smaller
            # (or equal) semi-perimeter and is therefore already solved.
            counts[rect] = counts[minimal]
            plans[rect] = (minimal,)
            continue
        r1, r2, c1, c2 = rect
        if (r1 == r2 and c1 == c2) or weight_of[rect] <= delta:
            counts[rect] = 1
            plans[rect] = ()
            continue
        halves = [((r1, row, c1, c2), (row + 1, r2, c1, c2)) for row in range(r1, r2)]
        halves += [((r1, r2, c1, col), (r1, r2, col + 1, c2)) for col in range(c1, c2)]
        best_count = 0  # none yet: every split costs at least two regions
        for first, second in halves:
            total = counts[first] + counts[second]
            if best_count == 0 or total < best_count:
                best_count, plans[rect] = total, (first, second)
        counts[rect] = best_count

    leaves: list[Rect] = []
    pending = [(0, rows - 1, 0, cols - 1)]
    while pending:
        rect = pending.pop()
        if plans[rect]:
            pending.extend(plans[rect])
        elif counts[rect]:
            leaves.append(rect)
    return BSPResult(
        regions=[GridRegion(*leaf) for leaf in leaves],
        max_region_weight=float(max((weight_of[leaf] for leaf in leaves), default=0.0)),
        rectangles_evaluated=len(rectangles),
    )
