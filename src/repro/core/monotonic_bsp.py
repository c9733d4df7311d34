"""MonotonicBSP -- the join-specialised tiling algorithm (paper, Algorithm 2).

The baseline BSP enumerates arbitrary sub-rectangles of the coarsened matrix,
which costs O(n_c^4) space and O(n_c^5) time.  For *monotonic* joins only a
tiny fraction of those rectangles can ever matter: by Lemma 3.4 both
defining corners of a minimal candidate rectangle are candidate cells -- the
upper-left and lower-right ones when the candidate rows' spans move right,
the upper-right and lower-left ones when they move left -- so there are only
O(n_cc^2) = O(n_c^2) minimal candidate rectangles.  MonotonicBSP runs the
same dynamic program restricted to minimal candidate rectangles:

* :func:`enumerate_minimal_candidate_rectangles` lists them exactly as
  Algorithm 2's ``GenerateCandidateRectangles`` does (every ordered pair of
  candidate cells), which the tests use to validate Lemma 3.4;
* :func:`monotonic_bsp_partition` evaluates the DP over those rectangles.
  The paper processes them bottom-up in increasing semi-perimeter order;
  this implementation computes the identical DP values lazily (memoised
  top-down from the full matrix's minimal candidate rectangle), which visits
  only the rectangles actually reachable by hierarchical splits -- a subset
  of the enumerated set -- and therefore never does more work than the
  bottom-up pass while returning the same optimum.

Everything about a rectangle that does not depend on the threshold -- what
it shrinks to, what it weighs, which halves its splits leave -- comes from a
:class:`~repro.core.tiling_tables.TilingTables`, which answers each in O(1)
per rectangle, the cost Lemma 3.5's O(n) bound assumes.  The DP itself only
looks region counts up in lists indexed by rectangle id and adds them.  The
top-down walk keeps its own stack, so its depth (at most rows + columns) is
not bounded by the interpreter's recursion limit, which it never touches.
"""

from __future__ import annotations

import numpy as np

from repro.core.bsp import BSPResult
from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction

__all__ = ["enumerate_minimal_candidate_rectangles", "monotonic_bsp_partition"]


def enumerate_minimal_candidate_rectangles(grid: WeightedGrid) -> list[GridRegion]:
    """Enumerate every rectangle whose defining corners are candidate cells.

    This mirrors ``GenerateCandidateRectangles`` of Algorithm 2: for each
    ordered pair of candidate cells, one in the rectangle's top row and one
    in its bottom row, emit the rectangle they define, sorted by
    semi-perimeter.  The corners are the upper-left and lower-right ones, or
    the upper-right and lower-left ones when the candidate rows' spans move
    left (:meth:`WeightedGrid.span_direction`, which also rejects a grid
    whose spans move both ways).  By Lemma 3.4 this set contains all minimal
    candidate rectangles of a monotonic join matrix; its size is O(n_cc^2)
    where n_cc is the number of candidate cells.
    """
    direction = grid.span_direction()
    cells = np.argwhere(grid.candidate).tolist()
    rectangles: list[GridRegion] = []
    for row1, col1 in cells:
        for row2, col2 in cells:
            if row2 >= row1 and direction * (col2 - col1) >= 0:
                rectangles.append(
                    GridRegion(row1, row2, min(col1, col2), max(col1, col2))
                )
    rectangles.sort(key=lambda r: r.semi_perimeter)
    return rectangles


def monotonic_bsp_partition(
    grid: WeightedGrid,
    weight_fn: WeightFunction,
    delta: float,
) -> BSPResult:
    """Cover all candidate cells with regions of weight <= ``delta`` (MonotonicBSP).

    Semantics are identical to :func:`repro.core.bsp.bsp_partition` -- the
    optimum hierarchical partitioning when every rectangle is first shrunk to
    its minimal candidate rectangle -- but the search space is restricted to
    minimal candidate rectangles, which is what makes the regionalization
    stage run in O(n) overall for monotonic joins (Lemma 3.5).
    """
    return monotonic_bsp_tiling(TilingTables(grid, weight_fn), delta)


def monotonic_bsp_tiling(tables: TilingTables, delta: float) -> BSPResult:
    """:func:`monotonic_bsp_partition` over tables shared between thresholds."""
    root = tables.root
    if root < 0:
        return BSPResult(regions=[], max_region_weight=0.0, rectangles_evaluated=0)
    leaf_thresholds = tables.leaf_thresholds
    children = tables.children
    num_rows, num_cols = tables.shape
    unsplit = num_rows * num_cols + 1  # more regions than any split costs

    # One frame per rectangle being split: [id, child list, next offset, best
    # count so far, offset of the pair that achieved it].
    stack: list[list] = []
    if not leaf_thresholds[root] <= delta:
        stack.append([root, children(root), 0, unsplit, 0])
    # Indexed by rectangle id: the fewest regions covering it (0: unsolved)
    # and, for a split rectangle, the offset of its best child pair.  Both
    # grow when a child list brings rectangles the tables had not met.
    counts = [0] * len(leaf_thresholds)
    splits = [0] * len(leaf_thresholds)
    if not stack:
        counts[root] = 1
    while stack:
        frame = stack[-1]
        rect, pairs, offset, best, best_offset = frame
        unsolved = -1
        end = len(pairs)
        while offset < end:
            first, second = pairs[offset], pairs[offset + 1]
            first_count = counts[first]
            if not first_count:
                if not leaf_thresholds[first] <= delta:
                    unsolved = first
                    break
                counts[first] = first_count = 1
            second_count = counts[second]
            if not second_count:
                if not leaf_thresholds[second] <= delta:
                    unsolved = second
                    break
                counts[second] = second_count = 1
            total = first_count + second_count
            if total < best:
                best, best_offset = total, offset
                # Both halves of a split hold candidates, so no split costs
                # fewer than two regions -- stop at the first that does.
                if best == 2:
                    break
            offset += 2
        if unsolved >= 0:
            # Solve the half first, then resume this rectangle at this pair.
            frame[2:] = offset, best, best_offset
            stack.append([unsolved, children(unsolved), 0, unsplit, 0])
            if len(counts) < len(leaf_thresholds):
                grown = [0] * (len(leaf_thresholds) - len(counts))
                counts += grown
                splits += grown
            continue
        counts[rect] = best
        splits[rect] = best_offset
        stack.pop()

    leaves: list[int] = []
    pending = [root]
    while pending:
        rect = pending.pop()
        if counts[rect] == 1:
            leaves.append(rect)
        else:
            best_offset = splits[rect]
            pending.extend(children(rect)[best_offset : best_offset + 2])
    return BSPResult(
        regions=[GridRegion(*tables.rects[leaf]) for leaf in leaves],
        max_region_weight=float(max(tables.weights[leaf] for leaf in leaves)),
        rectangles_evaluated=len(counts) - counts.count(0),
    )
