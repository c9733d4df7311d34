"""Stage 3 of the histogram algorithm: regionalization.

MonotonicBSP solves the *dual* problem: given a maximum region weight
``delta``, minimise the number of regions.  The histogram needs the primal:
given J machines, minimise the maximum region weight.  Regionalization
therefore binary-searches over ``delta``
(:func:`~repro.core.grid.smallest_feasible`) until the tiling returns at most
J regions, starting from the natural lower bound

    max( w_OPT lower bound, maximum candidate-cell weight )

(no partitioning can beat either) and the trivial upper bound of covering
everything with a single region.

Every step of the search tiles the same grid, and what a rectangle shrinks
to, weighs and splits into does not depend on the threshold.  So one
:class:`~repro.core.tiling_tables.TilingTables` is built per call, for
every threshold from the lower bound on -- the closure of the child
relation from the root, a round of rectangles per call of the compiled
kernel, each round weighed in one numpy pass -- and every step is one more
kernel call (:func:`repro.joins.native.tile`) over that child table, whose
root region count alone accepts or rejects the threshold: the regions are
read once, for the threshold the search returns, then the tables are
dropped.  The baseline BSP solves the same dual problem on small
grids only; Table III reaches it through
:func:`~repro.core.bsp.bsp_partition`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import WeightedGrid, smallest_feasible
from repro.core.monotonic_bsp import region_counts, tiling_of
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

    def feasible(delta: float) -> "tuple[np.ndarray, np.ndarray] | None":
        counts, splits = region_counts(tables, delta)
        return (counts, splits) if counts[tables.root] <= num_machines else None

    delta, found, steps = smallest_feasible(feasible, lower, upper, MAX_MIDPOINTS)
    assert found is not None  # one region covering everything always fits
    best = tiling_of(tables, *found)
    return RegionalizationResult(
        regions=best.regions,
        delta=delta,
        max_region_weight=best.max_region_weight,
        search_steps=steps,
    )
