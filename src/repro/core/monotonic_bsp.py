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
least one on.  The DP then runs in the compiled kernel
(:func:`repro.joins.native.tile`), one call per tiling kept
(:func:`smallest_tiling`): it walks the child table with its own stack, so
its depth (at most rows + columns) meets no recursion limit, compares each
rectangle's leaf threshold with ``delta`` and adds region counts -- no float
is formed in it -- at each threshold of a search between two ends (one
threshold when they are equal), and hands back the chosen tiling's leaves.
The pure-Python DP it replaced is the differential oracle in
``tests/reference_planner.py``.

:class:`BSPResult` and :func:`check_threshold` live here, with the DP every
plan build runs; the baseline :mod:`repro.core.bsp` imports them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import SEARCH_TOLERANCE, WeightedGrid
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction
from repro.joins import native

__all__ = [
    "BSPResult",
    "check_threshold",
    "enumerate_minimal_candidate_rectangles",
    "monotonic_bsp_partition",
    "smallest_tiling",
]


@dataclass
class BSPResult:
    """Result of one tiling run at a fixed weight threshold ``delta``.

    Attributes
    ----------
    regions:
        The covering regions (each shrunk to its minimal candidate
        rectangle).  Empty when the grid has no candidate cells.
    max_region_weight:
        The largest region weight actually achieved (it can exceed ``delta``
        only when a single cell already exceeds it).
    rectangles_evaluated:
        Number of rectangles the dynamic program evaluated; used by the
        Table III complexity benchmark.
    """

    regions: list[GridRegion]
    max_region_weight: float
    rectangles_evaluated: int

    @property
    def num_regions(self) -> int:
        """Number of regions in the partitioning."""
        return len(self.regions)


def check_threshold(delta: float) -> None:
    """Refuse a NaN ``delta``: nothing compares below it, so no cell is ever a leaf."""
    if delta != delta:
        raise ValueError(f"delta is {delta}: a tiling's threshold must be comparable")


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
    if delta < tables.least_delta:
        raise ValueError(f"delta {delta} is below the {tables.least_delta} the tables "
                         "were built for")
    # A search from delta to delta under a budget no tiling exceeds (each
    # region is a rectangle of the tables).
    return smallest_tiling(tables, delta, delta, tables.leaf_thresholds.size, 0)[2]


def smallest_tiling(tables: TilingTables, low: float, high: float, budget: int,
                    max_midpoints: int) -> "tuple[float, int, BSPResult]":
    """The tiling of at most ``budget`` regions at the smallest threshold found.

    One kernel call (:func:`repro.joins.native.tile`) runs the planner's
    threshold search from ``low`` to ``high`` (at most ``max_midpoints``
    midpoints, stopping at :data:`~repro.core.grid.SEARCH_TOLERANCE`), a
    probe the DP at one threshold, accepted by the root's region count
    alone.  Returns ``(delta, probes, tiling)``, regions built only for the
    tiling returned.  The tables have a root (a candidate cell), ``low`` is
    not below their ``least_delta`` and some probe fits (one region
    covering everything does at the root's weight).
    """
    delta, probes, leaves, evaluated = native.tile(
        tables.offsets, tables.children, tables.leaf_thresholds, tables.root, low, high,
        budget, max_midpoints, SEARCH_TOLERANCE,
    )
    return delta, probes, BSPResult(
        regions=[GridRegion(*rect) for rect in tables.rects[leaves].tolist()],
        max_region_weight=max(tables.weights[leaves].tolist()),
        rectangles_evaluated=evaluated,
    )
