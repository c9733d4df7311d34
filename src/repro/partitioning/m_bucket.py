"""M-Bucket (CSI): the content-sensitive, input-only partitioning scheme.

M-Bucket (Okcan & Riedewald) builds approximate equi-depth histograms with
``p`` buckets over the join keys of each relation, lays the resulting
``p x p`` grid over the join matrix and marks *candidate* cells -- cells
whose boundary key ranges can satisfy the join condition.  Regions then cover
all candidate cells while balancing the **input** assigned to each machine;
the scheme has no information about how many output tuples a candidate cell
produces, assigning every candidate the same constant, which is exactly why
it is susceptible to join product skew.

Region construction follows the M-Bucket-I heuristic: binary-search the
maximum allowed region weight; for a given threshold, sweep the grid rows top
to bottom, greedily growing a horizontal band of rows and covering the band's
candidate columns with as few side-by-side rectangles under the threshold as
possible, choosing the band height that maximises rows covered per region
spent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import smallest_feasible
from repro.core.region import GridRegion
from repro.core.sample_matrix import histogram_spans
from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition
from repro.obs.clock import perf_counter
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.sampling.equidepth import (
    build_equidepth_histogram,
    open_ends,
    sample_joining_keys,
)
from repro.sampling.sizes import input_sample_size

__all__ = ["MBucketConfig", "MBucketPartitioning", "build_m_bucket_partitioning"]

#: Midpoints the region-weight threshold search may try after its two ends.
MAX_MIDPOINTS = 25


@dataclass(frozen=True)
class MBucketConfig:
    """Configuration of the M-Bucket scheme.

    Parameters
    ----------
    num_buckets:
        ``p``, the number of equi-depth buckets per relation (the paper's
        baseline uses 2000 at cluster scale and sweeps it in Table V).
    seed:
        Seed used when the caller does not pass a random generator.

    The region search is not configurable: bands may span any number of
    rows, and the threshold search is
    :func:`~repro.core.grid.smallest_feasible` with at most
    :data:`MAX_MIDPOINTS` midpoints.
    """

    num_buckets: int = 200
    seed: int = 2016


class MBucketPartitioning(GridRoutedPartitioning):
    """The CSI partitioning: grid-routed regions balanced on input only."""

    scheme_name = "CSI"

    def __init__(
        self,
        row_boundaries: np.ndarray,
        col_boundaries: np.ndarray,
        regions: list[GridRegion],
        num_candidate_cells: int,
        build_seconds: float,
    ) -> None:
        super().__init__(row_boundaries, col_boundaries, regions, scheme_name="CSI")
        self.num_candidate_cells = num_candidate_cells
        self.build_seconds = build_seconds


def _cover_band(
    row_lo: int,
    row_hi: int,
    col_lo: int,
    col_hi: int,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    threshold: float,
) -> list[GridRegion] | None:
    """Cover columns ``[col_lo..col_hi]`` of a row band with side-by-side regions."""
    rows = row_hi - row_lo + 1
    row_cost = weight_fn.input_cost * rows * bucket_size1
    col_unit = weight_fn.input_cost * bucket_size2
    budget = threshold - row_cost
    if col_unit <= 0:
        return [GridRegion(row_lo, row_hi, col_lo, col_hi)]
    max_width = int(budget // col_unit)
    if max_width < 1:
        return None
    regions = []
    col = col_lo
    while col <= col_hi:
        end = min(col_hi, col + max_width - 1)
        regions.append(GridRegion(row_lo, row_hi, col, end))
        col = end + 1
    return regions


def _cover(
    span_lo: np.ndarray,
    span_hi: np.ndarray,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    threshold: float,
) -> list[GridRegion] | None:
    """Cover all candidate cells with regions under ``threshold`` (M-Bucket-I sweep)."""
    num_rows = len(span_lo)
    regions: list[GridRegion] = []
    row = 0
    while row < num_rows:
        if span_lo[row] < 0:
            row += 1
            continue
        best_score = -1.0
        best_end = None
        best_regions: list[GridRegion] | None = None
        band_col_lo = None
        band_col_hi = None
        for end in range(row, num_rows):
            if span_lo[end] >= 0:
                if band_col_lo is None:
                    band_col_lo, band_col_hi = int(span_lo[end]), int(span_hi[end])
                else:
                    band_col_lo = min(band_col_lo, int(span_lo[end]))
                    band_col_hi = max(band_col_hi, int(span_hi[end]))
            if band_col_lo is None:
                continue
            band_regions = _cover_band(
                row, end, band_col_lo, band_col_hi,
                bucket_size1, bucket_size2, weight_fn, threshold,
            )
            if band_regions is None:
                break
            score = (end - row + 1) / max(len(band_regions), 1)
            if score > best_score + 1e-12:
                best_score = score
                best_end = end
                best_regions = band_regions
        if best_regions is None:
            return None
        regions.extend(best_regions)
        row = best_end + 1
    return regions


def build_m_bucket_partitioning(
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    num_machines: int,
    weight_fn: WeightFunction | None = None,
    config: MBucketConfig | None = None,
    rng: np.random.Generator | None = None,
) -> MBucketPartitioning:
    """Build the M-Bucket (CSI) partitioning.

    Parameters
    ----------
    keys1, keys2:
        Join keys of R1 (rows) and R2 (columns).
    condition:
        The monotonic join condition (used for the candidate-cell check).
    num_machines:
        ``J``, the number of regions allowed.
    weight_fn:
        Cost model; only its input coefficient matters (the scheme ignores
        output by design).
    config:
        Optional :class:`MBucketConfig`.
    rng:
        Optional random generator for the input samples.
    """
    config = config or MBucketConfig()
    weight_fn = weight_fn or WeightFunction()
    rng = rng or np.random.default_rng(config.seed)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    if len(keys1) == 0 or len(keys2) == 0:
        raise ValueError("both relations must be non-empty")
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")

    start = perf_counter()
    p = max(1, min(config.num_buckets, len(keys1), len(keys2)))
    si = input_sample_size(p, max(len(keys1), len(keys2)))
    sample1 = sample_joining_keys(keys1, si, rng)
    sample2 = sample_joining_keys(keys2, si, rng)
    sample1.sort()
    sample2.sort()
    hist1 = build_equidepth_histogram(sample1, p, len(keys1))
    hist2 = build_equidepth_histogram(sample2, p, len(keys2))

    first, stop = histogram_spans(hist1, hist2, condition)
    # Inclusive spans, -1 for a row without candidates.
    empty = stop == first
    regions = _m_bucket_regions(
        np.where(empty, -1, first), np.where(empty, -1, stop - 1), hist2.num_buckets,
        hist1.expected_bucket_size, hist2.expected_bucket_size, weight_fn, num_machines,
    )
    build_seconds = perf_counter() - start
    return MBucketPartitioning(
        row_boundaries=open_ends(hist1.boundaries),
        col_boundaries=open_ends(hist2.boundaries),
        regions=regions,
        num_candidate_cells=int((stop - first).sum()),
        build_seconds=build_seconds,
    )


def _m_bucket_regions(
    span_lo: np.ndarray,
    span_hi: np.ndarray,
    num_cols: int,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    num_machines: int,
) -> list[GridRegion]:
    """At most ``num_machines`` regions covering the candidate cells, balanced on input.

    ``span_lo[r]`` / ``span_hi[r]`` are row ``r``'s first and last candidate
    column (``-1`` for a row without candidates) of a grid ``num_cols``
    wide.  Searches the smallest input-weight threshold the M-Bucket-I
    sweep covers with at most J regions, between one cell's input and the
    whole grid's.
    """
    num_rows = len(span_lo)
    lower = weight_fn.input_cost * (bucket_size1 + bucket_size2)
    upper = weight_fn.input_cost * (num_rows * bucket_size1 + num_cols * bucket_size2)

    def feasible(threshold: float) -> list[GridRegion] | None:
        regions = _cover(span_lo, span_hi, bucket_size1, bucket_size2, weight_fn, threshold)
        if regions is None or len(regions) > num_machines:
            return None
        return regions

    _, regions, _ = smallest_feasible(feasible, lower, max(upper, lower), MAX_MIDPOINTS)
    if regions is None:
        # Even a single full-matrix region is a valid cover; fall back to it.
        regions = [GridRegion(0, num_rows - 1, 0, num_cols - 1)]
    return regions
