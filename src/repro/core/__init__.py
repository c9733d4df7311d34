"""The paper's primary contribution: the equi-weight histogram pipeline.

Modules, in the order the 3-stage histogram algorithm uses them:

* :mod:`repro.core.weights` -- the cost model ``w(r) = w_i*input + w_o*output``.
* :mod:`repro.core.grid` -- :class:`~repro.core.grid.WeightedGrid`, the
  coarsened matrix MC (per-row/column input sizes, per-cell output
  frequencies, candidate mask, O(1) rectangle weights via prefix sums),
  :class:`~repro.core.grid.BandGrid`, the sample matrix MS as its candidate
  runs and sampled entries, and ``smallest_feasible``, M-Bucket's threshold
  search (coarsening and regionalization run the same steps in the compiled
  kernel).
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
  region-weight threshold around MonotonicBSP.
* :mod:`repro.core.histogram` -- the end-to-end equi-weight histogram
  builder gluing the three stages together.
"""

from repro import lazy_exports

_EXPORTS = {
    "WeightFunction": "repro.core.weights",
    "WeightedGrid": "repro.core.grid",
    "BandGrid": "repro.core.grid",
    "GridRegion": "repro.core.region",
    "KeyRegion": "repro.core.region",
    "SampleMatrix": "repro.core.sample_matrix",
    "build_sample_matrix": "repro.core.sample_matrix",
    "CoarseningResult": "repro.core.coarsening",
    "coarsen": "repro.core.coarsening",
    "bsp_partition": "repro.core.bsp",
    "monotonic_bsp_partition": "repro.core.monotonic_bsp",
    "enumerate_minimal_candidate_rectangles": "repro.core.monotonic_bsp",
    "RegionalizationResult": "repro.core.regionalization",
    "regionalize": "repro.core.regionalization",
    "EquiWeightHistogram": "repro.core.histogram",
    "build_equi_weight_histogram": "repro.core.histogram",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
