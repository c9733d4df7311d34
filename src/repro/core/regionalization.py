"""Stage 3 of the histogram algorithm: regionalization.

MonotonicBSP solves the *dual* problem: given a maximum region weight
``delta``, minimise the number of regions.  The histogram needs the primal:
given J machines, minimise the maximum region weight.  Regionalization
therefore binary-searches over ``delta`` until the tiling returns at most J
regions, starting from the natural lower bound

    max( w_OPT lower bound, maximum candidate-cell weight )

(no partitioning can beat either) and the trivial upper bound of covering
everything with a single region.

Every step of the search tiles the same grid, and what a rectangle shrinks
to, weighs and splits into does not depend on the threshold.  So one
:class:`~repro.core.tiling_tables.TilingTables` is built per call, for
every threshold from the lower bound on -- the closure of the child
relation from the root, a round of rectangles per call of the compiled
kernel, each round weighed in one numpy pass -- and the whole search is one
more kernel call (:func:`repro.joins.native.tile`, through
:func:`~repro.core.monotonic_bsp.smallest_tiling`) over that child table: the
planner's one threshold search (the function coarsening's axis searches run
too; :func:`~repro.core.grid.smallest_feasible` is its Python form), each
probe the DP at one threshold, accepted or rejected by the root's region
count alone.  The regions are read once, for the threshold the search
returns, then the tables are dropped.  ``tests/reference_planner.py`` keeps
the search as it ran in Python, one kernel probe per step, and holds this
to it bit for bit.  The baseline BSP solves the same dual problem on small
grids only; Table III reaches it through
:func:`~repro.core.bsp.bsp_partition`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.grid import WeightedGrid
from repro.core.monotonic_bsp import smallest_tiling
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction

__all__ = ["RegionalizationResult", "regionalize"]

#: Midpoints the δ search may try after its two ends: a budget of 30 tilings
#: in all (a ``batch_plan`` build measures 11-12).
MAX_MIDPOINTS = 28


@dataclass
class RegionalizationResult:
    """Output of the regionalization stage.

    Attributes
    ----------
    regions:
        At most J rectangular regions covering every candidate cell of the
        input grid.
    delta:
        The weight threshold the binary search settled on.
    max_region_weight:
        The largest region weight actually achieved (the scheme's estimate of
        the busiest machine's work -- ``CSIO-est`` in Figure 4h).
    search_steps:
        Number of tiling invocations performed by the binary search.
    """

    regions: list[GridRegion]
    delta: float
    max_region_weight: float
    search_steps: int

    @property
    def num_regions(self) -> int:
        """Number of regions produced."""
        return len(self.regions)


def regionalize(
    grid: WeightedGrid,
    num_machines: int,
    weight_fn: WeightFunction,
) -> RegionalizationResult:
    """Partition the grid's candidate cells into at most ``num_machines`` regions.

    Parameters
    ----------
    grid:
        The coarsened matrix MC, whose candidate structure is monotonic.
    num_machines:
        ``J``, the number of regions allowed.
    weight_fn:
        Cost model used for region weights.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    if grid.num_candidate_cells == 0:
        return RegionalizationResult(
            regions=[], delta=0.0, max_region_weight=0.0, search_steps=0
        )

    total_weight = weight_fn.weight(grid.total_input, grid.total_output)
    lower = max(
        grid.max_cell_weight(weight_fn, candidates_only=True),
        total_weight / num_machines,
    )
    tables = TilingTables(grid, weight_fn, lower)  # every step's delta is >= lower
    upper = max(float(tables.weights[tables.root]), lower)
    delta, steps, best = smallest_tiling(tables, lower, upper, num_machines, MAX_MIDPOINTS)
    return RegionalizationResult(
        regions=best.regions,
        delta=delta,
        max_region_weight=best.max_region_weight,
        search_steps=steps,
    )
