"""Parallel Stream-Sample (paper, section IV-A): the one Stream-Sample driver.

Stream-Sample as first published scans R1 and R2 on one machine.  The paper
parallelises it as three MapReduce-style jobs running on the same J machines
as the join itself:

1. **Build d2equi.**  R2 tuples are routed to workers by join key using the
   approximate equi-depth histogram on R2; every worker computes the distinct
   keys and multiplicities of its slice, and the slices concatenate into the
   global ``d2equi`` (key ranges are disjoint, so no merging is needed).
2. **Build d2 and S1.**  R1 tuples are routed by the equi-depth histogram on
   R1; each worker also receives the ``d2equi`` entries that can fall inside
   the joinable interval of any of its R1 keys (its key range widened by the
   band).  The worker computes ``d2(t1)`` locally, feeds an
   Efraimidis--Spirakis reservoir of size ``s_o``, and reports its local sum
   of ``d2``.  Reservoirs merge by keeping the globally largest priorities;
   the local sums add up to the exact output size ``m``.
3. **Produce the output sample.**  A map-only pass turns every tuple of the
   merged (WOR → WR converted) sample S1 into one output key pair by picking
   a joinable R2 key with probability proportional to its multiplicity.

This module executes the three jobs faithfully (same routing, same local
computations, same merging) with the workers simulated as loop iterations; it
also records per-worker scan counts so the engine can charge the statistics
phase to the cost model.  ``num_workers=1`` is the one-machine algorithm:
one partition, one reservoir, the same draws in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.joins.conditions import JoinCondition
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index, build_equidepth_histogram
from repro.sampling.reservoir import merge_reservoirs, weighted_sample_wor, wor_to_wr
from repro.sampling.stream_sample import (
    D2Index,
    JoinOutputSample,
    _sample_joinable_keys,
    build_d2_index,
    compute_joinable_set_sizes,
)

__all__ = ["ParallelSampleStats", "parallel_stream_sample"]


@dataclass
class ParallelSampleStats:
    """Per-worker accounting of the parallel sampling jobs.

    Attributes
    ----------
    r2_tuples_scanned:
        Tuples of R2 processed per worker in job 1.
    r1_tuples_scanned:
        Tuples of R1 processed per worker in job 2.
    d2equi_entries_shipped:
        ``d2equi`` entries shipped to each worker in job 2 (network cost of
        the statistics phase).
    sample_pairs_produced:
        Output-sample pairs produced per worker in job 3.
    """

    r2_tuples_scanned: list[int] = field(default_factory=list)
    r1_tuples_scanned: list[int] = field(default_factory=list)
    d2equi_entries_shipped: list[int] = field(default_factory=list)
    sample_pairs_produced: list[int] = field(default_factory=list)

    @property
    def total_tuples_scanned(self) -> int:
        """Total input tuples scanned by the statistics phase."""
        return sum(self.r1_tuples_scanned) + sum(self.r2_tuples_scanned)

    @property
    def max_worker_scan(self) -> int:
        """Scan work of the busiest worker (drives the stats-phase latency)."""
        per_worker = [
            r1 + r2
            for r1, r2 in zip(
                self.r1_tuples_scanned or [0], self.r2_tuples_scanned or [0]
            )
        ]
        return max(per_worker) if per_worker else 0


def _partition_by_histogram(
    keys: np.ndarray, histogram: EquiDepthHistogram, num_workers: int
) -> list[np.ndarray]:
    """Route keys to workers by contiguous equi-depth bucket ranges."""
    buckets = bucket_index(histogram.boundaries, keys)
    # Map each histogram bucket to a worker so that consecutive buckets go to
    # the same worker (range partitioning over bucket indexes).
    worker_of_bucket = (
        np.arange(histogram.num_buckets) * num_workers // histogram.num_buckets
    )
    workers = worker_of_bucket[buckets]
    return [keys[workers == w] for w in range(num_workers)]


def parallel_stream_sample(
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    sample_size: int,
    num_workers: int,
    rng: np.random.Generator,
    histogram1: EquiDepthHistogram | None = None,
    histogram2: EquiDepthHistogram | None = None,
) -> tuple[JoinOutputSample, ParallelSampleStats]:
    """Run the 3-job parallel Stream-Sample and return the sample plus statistics.

    Parameters
    ----------
    keys1, keys2:
        Join keys of R1 and R2 (R2 conventionally the smaller relation).
    condition:
        Monotonic join condition.
    sample_size:
        Output sample size ``s_o``; ``0`` still runs jobs 1 and 2, so the
        exact ``m`` is reported beside an empty sample.
    num_workers:
        Number of simulated workers ``J`` (``1``: the one-machine case).
    rng:
        Random generator.
    histogram1, histogram2:
        Pre-built approximate equi-depth histograms on R1 and R2 (the join
        operator shares these with the sample-matrix construction).  When not
        given, exact histograms with ``num_workers`` buckets are built.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    stats = ParallelSampleStats()

    if histogram2 is None and len(keys2):
        histogram2 = build_equidepth_histogram(keys2, num_workers, len(keys2))
    if histogram1 is None and len(keys1):
        histogram1 = build_equidepth_histogram(keys1, num_workers, len(keys1))

    if len(keys1) == 0 or len(keys2) == 0:
        empty = JoinOutputSample(pairs=np.empty((0, 2)), total_output=0)
        return empty, stats

    # ------------------------------------------------------------------
    # Job 1: build d2equi, partitioned by R2's equi-depth histogram.
    # ------------------------------------------------------------------
    r2_parts = _partition_by_histogram(keys2, histogram2, num_workers)
    local_indexes: list[D2Index] = []
    for part in r2_parts:
        stats.r2_tuples_scanned.append(len(part))
        local_indexes.append(build_d2_index(part))
    # Key ranges are disjoint, so concatenating the sorted local indexes (in
    # worker order, which follows key order) yields the global index.
    all_keys = np.concatenate([idx.keys for idx in local_indexes])
    all_counts = np.concatenate([idx.multiplicities for idx in local_indexes])
    order = np.argsort(all_keys, kind="stable")
    d2_index = D2Index(
        keys=all_keys[order],
        multiplicities=all_counts[order],
        prefix=np.concatenate([[0], np.cumsum(all_counts[order])]),
    )

    # ------------------------------------------------------------------
    # Job 2: build d2 and the weighted sample S1, partitioned by R1's
    # histogram; each worker sees only the d2equi entries it can need.
    # ------------------------------------------------------------------
    r1_parts = _partition_by_histogram(keys1, histogram1, num_workers)
    reservoirs = []
    total_output = 0
    for part in r1_parts:
        stats.r1_tuples_scanned.append(len(part))
        if len(part) == 0:
            stats.d2equi_entries_shipped.append(0)
            continue
        lo_bound, hi_bound = condition.joinable_bounds(part)
        lo, hi = float(np.min(lo_bound)), float(np.max(hi_bound))
        left = int(np.searchsorted(d2_index.keys, lo, side="left"))
        right = int(np.searchsorted(d2_index.keys, hi, side="right"))
        local_d2equi = D2Index(
            keys=d2_index.keys[left:right],
            multiplicities=d2_index.multiplicities[left:right],
            prefix=np.concatenate(
                [[0], np.cumsum(d2_index.multiplicities[left:right])]
            ),
        )
        stats.d2equi_entries_shipped.append(local_d2equi.num_distinct)
        d2_local = compute_joinable_set_sizes(part, local_d2equi, condition)
        total_output += int(d2_local.sum())
        if sample_size:
            weights = d2_local.astype(np.float64)
            reservoirs.append(weighted_sample_wor(part, weights, sample_size, rng))

    if total_output == 0 or sample_size == 0:
        empty = JoinOutputSample(pairs=np.empty((0, 2)), total_output=total_output)
        return empty, stats

    merged = merge_reservoirs(reservoirs, capacity=sample_size)
    sampled_keys1 = np.asarray(wor_to_wr(merged, sample_size, rng), dtype=np.float64)

    # ------------------------------------------------------------------
    # Job 3: map-only production of output key pairs.
    # ------------------------------------------------------------------
    sample_parts = _partition_by_histogram(sampled_keys1, histogram1, num_workers)
    pair_chunks = []
    for part in sample_parts:
        stats.sample_pairs_produced.append(len(part))
        if len(part) == 0:
            continue
        sampled_keys2 = _sample_joinable_keys(part, d2_index, condition, rng)
        pair_chunks.append(np.column_stack([part, sampled_keys2]))
    pairs = np.concatenate(pair_chunks) if pair_chunks else np.empty((0, 2))
    return JoinOutputSample(pairs=pairs, total_output=total_output), stats
