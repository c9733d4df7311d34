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
:class:`~repro.core.tiling_tables.TilingTables`, which builds the closure of
the child relation from the root once per grid, for every threshold from a
least one on.  The DP at one threshold is
then one call of the compiled kernel (:func:`repro.joins.native.tile`): it
walks the child table with its own stack, so its depth (at most rows +
columns) meets no recursion limit, compares each rectangle's leaf threshold
with ``delta`` and adds region counts -- no float is formed in it
(:func:`region_counts`).  Python reads the leaves off the counts it returns
(:func:`tiling_of`), once per tiling it keeps.  The pure-Python DP it replaced
is the differential oracle in ``tests/reference_planner.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.bsp import BSPResult, check_threshold
from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction
from repro.joins import native

__all__ = [
    "enumerate_minimal_candidate_rectangles",
    "monotonic_bsp_partition",
    "region_counts",
    "tiling_of",
]


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

    Raises
    ------
    ValueError
        If ``delta`` is NaN: no rectangle, not even a single cell, is one
        region at a threshold nothing compares below.
    """
    check_threshold(delta)
    return monotonic_bsp_tiling(TilingTables(grid, weight_fn, delta), delta)


def monotonic_bsp_tiling(tables: TilingTables, delta: float) -> BSPResult:
    """:func:`monotonic_bsp_partition` over tables shared between thresholds.

    ``delta`` must not be below the tables' ``least_delta``: a rectangle
    one region there has no children in them.
    """
    if tables.root < 0:
        return BSPResult(regions=[], max_region_weight=0.0, rectangles_evaluated=0)
    return tiling_of(tables, *region_counts(tables, delta))


def region_counts(tables: TilingTables, delta: float) -> "tuple[np.ndarray, np.ndarray]":
    """The DP at ``delta``: each rectangle's region count and best split.

    One kernel call (:func:`repro.joins.native.tile`); ``counts[tables.root]``
    is the tiling's region count, so a threshold search can accept or
    reject ``delta`` without reading a region.  The tables have a root
    (a candidate cell), and ``delta`` is not below their ``least_delta``.
    """
    if delta < tables.least_delta:
        raise ValueError(f"delta {delta} is below the {tables.least_delta} the tables "
                         "were built for")
    return native.tile(tables.offsets, tables.children, tables.leaf_thresholds, tables.root,
                       delta)


def tiling_of(tables: TilingTables, counts: np.ndarray, splits: np.ndarray) -> BSPResult:
    """The tiling :func:`region_counts` found: its leaves, read from the root down."""
    children = tables.children
    leaves: list[int] = []
    pending = [tables.root]
    while pending:
        rect = pending.pop()
        if counts[rect] == 1:
            leaves.append(rect)
        else:
            best = splits[rect]
            pending += children[best], children[best + 1]
    return BSPResult(
        regions=[GridRegion(*rect) for rect in tables.rects[leaves].tolist()],
        max_region_weight=max(tables.weights[leaves].tolist()),
        rectangles_evaluated=int(np.count_nonzero(counts)),
    )
