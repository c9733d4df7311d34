"""The end-to-end equi-weight histogram builder (the paper's core contribution).

``build_equi_weight_histogram`` chains the three stages:

1. **Sampling** -- uniform input samples feed approximate equi-depth
   histograms with ``n_s = sqrt(2 n J)`` buckets per relation; the parallel
   Stream-Sample produces a uniform join-output sample of size
   ``s_o = Theta(n_s)`` plus the exact output size ``m``; together they form
   the sample matrix MS.
2. **Coarsening** -- MS is tiled by a non-uniform ``n_c x n_c`` grid
   (``n_c = 2J``) minimising the maximum cell weight, yielding MC.
3. **Regionalization** -- MonotonicBSP plus a binary search over the weight
   threshold covers MC's candidate cells with at most J rectangular regions
   of near-equal weight.

The result maps back to join-key space: each region is a rectangle of key
ranges, and the estimated maximum region weight is the scheme's prediction of
the busiest machine's work (``CSIO-est`` in Figure 4h).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.coarsening import CoarseningResult, coarsen, coarsened_size
from repro.core.region import GridRegion, KeyRegion, key_regions
from repro.core.regionalization import RegionalizationResult, regionalize
from repro.core.sample_matrix import (
    SampleMatrix,
    build_sample_matrix,
    candidate_cell_count,
    histogram_spans,
)
from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition
from repro.obs.clock import perf_counter
from repro.sampling.equidepth import (
    build_equidepth_histogram,
    open_ends,
    sample_joining_keys,
)
from repro.sampling.parallel_stream_sample import (
    ParallelSampleStats,
    parallel_stream_sample,
)
from repro.sampling.sizes import (
    input_sample_size,
    output_sample_size,
    sample_matrix_size,
)

__all__ = ["EWHConfig", "EquiWeightHistogram", "build_equi_weight_histogram"]


@dataclass(frozen=True)
class EWHConfig:
    """Tuning knobs of the histogram algorithm.

    The defaults follow the paper; the caps exist because this reproduction
    runs the tiling algorithms in pure Python and very large sample or
    coarsened matrices make the build phase (not the join) the bottleneck.
    The stages' own constants are not knobs: regionalization always tiles
    with MonotonicBSP, coarsening refines at most
    :data:`~repro.core.coarsening.MAX_ITERATIONS` times, and every threshold
    search is :func:`~repro.core.grid.smallest_feasible`.

    Parameters
    ----------
    sample_matrix_size:
        Override for ``n_s`` (default: the Lemma 3.1 formula, resized by the
        Appendix A5 optimisation once ``m`` is known: shrunk by
        ``sqrt(m/n)`` when the join produces more output than input).
    max_sample_matrix_size:
        Upper cap on ``n_s``.
    max_coarsened_size:
        Upper cap on ``n_c`` (default ``2J`` uncapped).
    output_sample_multiple:
        ``s_o`` as a multiple of the number of candidate MS cells (the paper
        uses 2).
    seed:
        Seed for the internal random generator when the caller does not
        provide one.
    """

    sample_matrix_size: int | None = None
    max_sample_matrix_size: int = 4096
    max_coarsened_size: int | None = None
    output_sample_multiple: float = 2.0
    seed: int = 2016


@dataclass
class EquiWeightHistogram:
    """The equi-weight histogram MH: the partitioning plus build artefacts.

    Attributes
    ----------
    key_regions:
        Final regions as rectangles in join-key space (row = R1 keys,
        column = R2 keys), at most J of them.
    grid_regions:
        The same regions in coarsened-matrix coordinates.
    mc_row_boundaries, mc_col_boundaries:
        Key boundaries of the coarsened matrix rows/columns (length
        ``n_c + 1``); together with ``grid_regions`` they define tuple
        routing.
    sample_matrix, coarsening, regionalization:
        Artefacts of the three stages.
    estimated_max_weight:
        The scheme's estimate of the maximum region weight (CSIO-est).
    total_output:
        Exact join output size ``m`` from Stream-Sample.
    sampling_stats:
        Per-worker accounting of the parallel statistics collection.
    stage_seconds:
        Wall-clock seconds spent in each stage
        (``sampling``/``coarsening``/``regionalization``).
    """

    key_regions: list[KeyRegion]
    grid_regions: list[GridRegion]
    mc_row_boundaries: np.ndarray
    mc_col_boundaries: np.ndarray
    sample_matrix: SampleMatrix
    coarsening: CoarseningResult
    regionalization: RegionalizationResult
    estimated_max_weight: float
    total_output: int
    weight_fn: WeightFunction
    sampling_stats: ParallelSampleStats = field(default_factory=ParallelSampleStats)
    stage_seconds: dict = field(default_factory=dict)

    @property
    def num_regions(self) -> int:
        """Number of regions (machines that will receive work)."""
        return len(self.grid_regions)

    @property
    def build_seconds(self) -> float:
        """Total wall-clock seconds spent building the histogram."""
        return float(sum(self.stage_seconds.values()))


def build_equi_weight_histogram(
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    num_machines: int,
    weight_fn: WeightFunction,
    config: EWHConfig | None = None,
    rng: np.random.Generator | None = None,
) -> EquiWeightHistogram:
    """Run the 3-stage histogram algorithm and return the equi-weight histogram.

    Parameters
    ----------
    keys1, keys2:
        Join keys of R1 (rows) and R2 (columns).
    condition:
        The monotonic join condition.
    num_machines:
        ``J`` -- the number of regions/machines.
    weight_fn:
        The cost model ``w(r) = w_i*input + w_o*output``.
    config:
        Optional :class:`EWHConfig`.
    rng:
        Optional random generator (defaults to one seeded from the config).
    """
    config = config or EWHConfig()
    rng = rng or np.random.default_rng(config.seed)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    if len(keys1) == 0 or len(keys2) == 0:
        raise ValueError("both relations must be non-empty")
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")

    n = max(len(keys1), len(keys2))
    stage_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Stage 1: sampling.
    # ------------------------------------------------------------------
    start = perf_counter()
    ns = config.sample_matrix_size or sample_matrix_size(n, num_machines)
    ns = min(ns, config.max_sample_matrix_size)

    si = input_sample_size(ns, n)
    sample1 = sample_joining_keys(keys1, si, rng)
    sample2 = sample_joining_keys(keys2, si, rng)
    sample1.sort()  # once: the Appendix-A5 rebuild reads them sorted too
    sample2.sort()
    hist1 = build_equidepth_histogram(sample1, ns, len(keys1))
    hist2 = build_equidepth_histogram(sample2, ns, len(keys2))

    spans = histogram_spans(hist1, hist2, condition)
    nsc = candidate_cell_count(hist1, hist2, condition, spans)
    so = output_sample_size(nsc, multiple=config.output_sample_multiple)
    # A sample of a whole relation is the relation sorted (a NaN is never
    # drawn, so a relation holding one is sampled short): Stream-Sample
    # reads its distinct keys there instead of sorting the relation again.
    output_sample, sampling_stats = parallel_stream_sample(
        keys1, keys2, condition, so, num_machines, rng,
        histogram1=hist1, histogram2=hist2,
        sorted1=sample1 if len(sample1) == len(keys1) else None,
        sorted2=sample2 if len(sample2) == len(keys2) else None,
    )

    # Appendix A5: once m is known, a high output/input ratio lets us shrink
    # n_s (and a low one forces us to grow it) while keeping Lemma 3.1.
    if config.sample_matrix_size is None:
        m = output_sample.total_output
        if m > 0:
            ratio = m / n
            adjusted = min(
                sample_matrix_size(n, num_machines, output_input_ratio=ratio),
                config.max_sample_matrix_size,
            )
            if adjusted != ns:
                ns = adjusted
                hist1 = build_equidepth_histogram(sample1, ns, len(keys1))
                hist2 = build_equidepth_histogram(sample2, ns, len(keys2))
                spans = histogram_spans(hist1, hist2, condition)

    sample_matrix = build_sample_matrix(hist1, hist2, output_sample, condition, spans)
    stage_seconds["sampling"] = perf_counter() - start

    # ------------------------------------------------------------------
    # Stage 2: coarsening.
    # ------------------------------------------------------------------
    start = perf_counter()
    nc = coarsened_size(
        num_machines, sample_matrix.grid.num_rows, config.max_coarsened_size
    )
    coarsening = coarsen(sample_matrix.grid, nc, nc, weight_fn)
    stage_seconds["coarsening"] = perf_counter() - start

    # ------------------------------------------------------------------
    # Stage 3: regionalization.
    # ------------------------------------------------------------------
    start = perf_counter()
    regionalization = regionalize(coarsening.grid, num_machines, weight_fn)
    stage_seconds["regionalization"] = perf_counter() - start

    # ------------------------------------------------------------------
    # Map grid regions back to join-key space.
    # ------------------------------------------------------------------
    mc_row_boundaries = open_ends(sample_matrix.row_boundaries[coarsening.row_groups])
    mc_col_boundaries = open_ends(sample_matrix.col_boundaries[coarsening.col_groups])

    return EquiWeightHistogram(
        key_regions=key_regions(
            regionalization.regions, mc_row_boundaries, mc_col_boundaries
        ),
        grid_regions=regionalization.regions,
        mc_row_boundaries=mc_row_boundaries,
        mc_col_boundaries=mc_col_boundaries,
        sample_matrix=sample_matrix,
        coarsening=coarsening,
        regionalization=regionalization,
        estimated_max_weight=regionalization.max_region_weight,
        total_output=output_sample.total_output,
        weight_fn=weight_fn,
        sampling_stats=sampling_stats,
        stage_seconds=stage_seconds,
    )
