"""Stage 3 of the histogram algorithm: regionalization.

The tiling algorithms (BSP / MonotonicBSP) solve the *dual* problem: given a
maximum region weight ``delta``, minimise the number of regions.  The
histogram needs the primal: given J machines, minimise the maximum region
weight.  Regionalization therefore binary-searches over ``delta`` until the
tiling returns at most J regions, starting from the natural lower bound

    max( w_OPT lower bound, maximum candidate-cell weight )

(no partitioning can beat either) and the trivial upper bound of covering
everything with a single region.

Every step of the search tiles the same grid, and what a rectangle shrinks
to, weighs and splits into does not depend on the threshold; one
:class:`~repro.core.tiling_tables.TilingTables` is built per call and handed
to every step, then dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

from repro.core.bsp import BSPResult, bsp_tiling
from repro.core.grid import WeightedGrid
from repro.core.monotonic_bsp import monotonic_bsp_tiling
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction

__all__ = ["RegionalizationResult", "regionalize"]

TilingAlgorithm = Literal["monotonic_bsp", "bsp"]


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
    algorithm: TilingAlgorithm = "monotonic_bsp",
    tolerance: float = 0.01,
    max_search_steps: int = 30,
) -> RegionalizationResult:
    """Partition the grid's candidate cells into at most ``num_machines`` regions.

    Parameters
    ----------
    grid:
        The coarsened matrix MC (any :class:`WeightedGrid` works).
    num_machines:
        ``J``, the number of regions allowed.
    weight_fn:
        Cost model used for region weights.
    algorithm:
        ``"monotonic_bsp"`` (default, requires a monotonic candidate
        structure) or ``"bsp"`` (the baseline; only for small grids).
    tolerance:
        Relative gap between the feasible and infeasible threshold at which
        the binary search stops.
    max_search_steps:
        Hard cap on tiling invocations.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    tiling: Callable[[TilingTables, float], BSPResult]
    if algorithm == "monotonic_bsp":
        tiling = monotonic_bsp_tiling
    elif algorithm == "bsp":
        tiling = bsp_tiling
    else:
        raise ValueError(f"unknown tiling algorithm {algorithm!r}")

    if grid.num_candidate_cells == 0:
        return RegionalizationResult(
            regions=[], delta=0.0, max_region_weight=0.0, search_steps=0
        )

    total_weight = weight_fn.weight(grid.total_input, grid.total_output)
    lower = max(
        grid.max_cell_weight(weight_fn, candidates_only=True),
        total_weight / num_machines,
    )
    tables = TilingTables(grid, weight_fn)
    upper = max(tables.weights[tables.root], lower)

    steps = 0

    # The lower bound may already be feasible (perfectly balanced case).
    result = tiling(tables, lower)
    steps += 1
    if result.num_regions <= num_machines:
        return RegionalizationResult(
            regions=result.regions,
            delta=lower,
            max_region_weight=result.max_region_weight,
            search_steps=steps,
        )

    best = tiling(tables, upper)
    steps += 1
    best_delta = upper
    while steps < max_search_steps and upper - lower > tolerance * max(upper, 1.0):
        mid = (lower + upper) / 2.0
        candidate = tiling(tables, mid)
        steps += 1
        if candidate.num_regions <= num_machines:
            upper = mid
            best = candidate
            best_delta = mid
        else:
            lower = mid

    return RegionalizationResult(
        regions=best.regions,
        delta=best_delta,
        max_region_weight=best.max_region_weight,
        search_steps=steps,
    )
