"""MonotonicBSP -- the join-specialised tiling algorithm (paper, Algorithm 2).

The baseline BSP enumerates arbitrary sub-rectangles of the coarsened matrix,
which costs O(n_c^4) space and O(n_c^5) time.  For *monotonic* joins only a
tiny fraction of those rectangles can ever matter: by Lemma 3.4 every
defining corner (upper-left and lower-right) of a minimal candidate rectangle
is itself a candidate cell, so there are only O(n_cc^2) = O(n_c^2) minimal
candidate rectangles.  MonotonicBSP runs the same dynamic program restricted
to minimal candidate rectangles:

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
:class:`~repro.core.tiling_tables.TilingTables`; the DP itself only looks
region counts up and adds them.  The top-down walk keeps its own stack, so
its depth (at most rows + columns) is not bounded by the interpreter's
recursion limit, which it never touches.
"""

from __future__ import annotations

from repro.core.bsp import BSPResult
from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction

__all__ = ["enumerate_minimal_candidate_rectangles", "monotonic_bsp_partition"]


def enumerate_minimal_candidate_rectangles(grid: WeightedGrid) -> list[GridRegion]:
    """Enumerate every rectangle whose defining corners are candidate cells.

    This mirrors ``GenerateCandidateRectangles`` of Algorithm 2: for each
    ordered pair of candidate cells (one acting as the upper-left corner, the
    other as the lower-right), emit the rectangle they define, sorted by
    semi-perimeter.  By Lemma 3.4 this set contains all minimal candidate
    rectangles of a monotonic join matrix; its size is O(n_cc^2) where n_cc
    is the number of candidate cells.
    """
    rectangles: list[GridRegion] = []
    candidate_rows = grid.candidate_rows()
    spans = {int(r): grid.row_candidate_span(int(r)) for r in candidate_rows}
    for r1 in candidate_rows:
        lo1, hi1 = spans[int(r1)]
        for c1 in range(lo1, hi1 + 1):
            if not grid.candidate[r1, c1]:
                continue
            for r2 in candidate_rows:
                if r2 < r1:
                    continue
                lo2, hi2 = spans[int(r2)]
                for c2 in range(lo2, hi2 + 1):
                    if c2 < c1 or not grid.candidate[r2, c2]:
                        continue
                    rectangles.append(GridRegion(int(r1), int(r2), int(c1), int(c2)))
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
    counts: dict[int, int] = {}  # rectangle id -> fewest regions covering it
    splits: dict[int, int] = {}  # split rectangle id -> offset of its best child pair

    # One frame per rectangle being split: [id, child list, next offset, best
    # count so far (0: none yet), offset of the pair that achieved it].
    stack: list[list] = []
    if leaf_thresholds[root] <= delta:
        counts[root] = 1
    else:
        stack.append([root, children(root), 0, 0, 0])
    while stack:
        frame = stack[-1]
        rect, pairs, offset, best, best_offset = frame
        unsolved = -1
        end = len(pairs)
        while offset < end:
            first, second = pairs[offset], pairs[offset + 1]
            first_count = counts.get(first)
            if first_count is None:
                if not leaf_thresholds[first] <= delta:
                    unsolved = first
                    break
                counts[first] = first_count = 1
            second_count = counts.get(second)
            if second_count is None:
                if not leaf_thresholds[second] <= delta:
                    unsolved = second
                    break
                counts[second] = second_count = 1
            total = first_count + second_count
            if best == 0 or total < best:
                best, best_offset = total, offset
                # Both halves of a split hold candidates, so no split costs
                # fewer than two regions -- stop at the first that does.
                if best == 2:
                    break
            offset += 2
        if unsolved >= 0:
            # Solve the half first, then resume this rectangle at this pair.
            frame[2:] = offset, best, best_offset
            stack.append([unsolved, children(unsolved), 0, 0, 0])
            continue
        counts[rect] = best
        splits[rect] = best_offset
        stack.pop()

    leaves: list[int] = []
    pending = [root]
    while pending:
        rect = pending.pop()
        best_offset = splits.get(rect)
        if best_offset is None:
            leaves.append(rect)
        else:
            pending.extend(children(rect)[best_offset : best_offset + 2])
    return BSPResult(
        regions=[GridRegion(*tables.rects[leaf]) for leaf in leaves],
        max_region_weight=float(max(tables.weights[leaf] for leaf in leaves)),
        rectangles_evaluated=len(counts),
    )
