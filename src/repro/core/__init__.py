"""The paper's primary contribution: the equi-weight histogram pipeline.

Modules, in the order the 3-stage histogram algorithm uses them:

* :mod:`repro.core.weights` -- the cost model ``w(r) = w_i*input + w_o*output``.
* :mod:`repro.core.grid` -- :class:`~repro.core.grid.WeightedGrid`, the
  shared representation of the sample matrix MS and the coarsened matrix MC
  (per-row/column input sizes, per-cell output frequencies, candidate mask,
  O(1) rectangle weights via prefix sums).
* :mod:`repro.core.matrix` -- the exact join-matrix model used for toy
  examples, ground truth in tests and the Figure 1 reproduction.
* :mod:`repro.core.region` -- rectangular regions and minimal candidate
  rectangles.
* :mod:`repro.core.sample_matrix` -- stage 1 (sampling): build MS from
  equi-depth histograms and the output sample.
* :mod:`repro.core.coarsening` -- stage 2 (coarsening): grid tiling of MS
  into MC, with the MonotonicCoarsening shortcut.
* :mod:`repro.core.bsp` / :mod:`repro.core.monotonic_bsp` -- the tiling
  algorithms used by stage 3, over the threshold-independent
  :mod:`repro.core.tiling_tables` they share.
* :mod:`repro.core.regionalization` -- stage 3: binary search over the
  region-weight threshold around a tiling algorithm.
* :mod:`repro.core.histogram` -- the end-to-end equi-weight histogram
  builder gluing the three stages together.
"""

from repro.core.bsp import bsp_partition
from repro.core.coarsening import CoarseningResult, coarsen
from repro.core.grid import WeightedGrid
from repro.core.histogram import EquiWeightHistogram, build_equi_weight_histogram
from repro.core.matrix import JoinMatrix
from repro.core.monotonic_bsp import enumerate_minimal_candidate_rectangles, monotonic_bsp_partition
from repro.core.region import GridRegion, KeyRegion
from repro.core.regionalization import RegionalizationResult, regionalize
from repro.core.sample_matrix import SampleMatrix, build_sample_matrix
from repro.core.validation import (
    GridCoverage,
    PartitioningValidation,
    validate_grid_regions,
    validate_partitioning,
)
from repro.core.weights import WeightFunction

__all__ = [
    "WeightFunction",
    "WeightedGrid",
    "JoinMatrix",
    "GridRegion",
    "KeyRegion",
    "SampleMatrix",
    "build_sample_matrix",
    "CoarseningResult",
    "coarsen",
    "bsp_partition",
    "monotonic_bsp_partition",
    "enumerate_minimal_candidate_rectangles",
    "RegionalizationResult",
    "regionalize",
    "EquiWeightHistogram",
    "build_equi_weight_histogram",
    "GridCoverage",
    "PartitioningValidation",
    "validate_grid_regions",
    "validate_partitioning",
]
