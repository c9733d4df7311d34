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
computations, same merging, the same draws in the same order) as array passes
over all J simulated workers at once, in key order: equal keys share a worker,
a joinable window and a ``d2``, so each relation's sorted distinct keys are
given their workers once and R1's are searched in ``d2equi`` once, and every
tuple gathers its key's answers.  One stable sort lays R1's partitions end to
end in worker order, and every local computation runs over that one array --
worker ``w``'s slice is what worker ``w`` would compute.  Only the E--S
reservoirs stay per worker: their heap arrays feed the merge and the WOR ->
WR draw.  A reservoir's payload is a position in the worker-ordered R1, so
job 3 gathers each sampled tuple's worker and window instead of searching
for them.
It also records per-worker scan counts so the engine can charge the
statistics phase to the cost model.  Each relation's distinct keys come
from one compare of neighbours in the relation sorted
(:func:`_distinct_sorted`), and R1's tuples find theirs with one search; a
plan build whose stage-1 sample is a whole NaN-free relation has sorted it
already and passes it in, and otherwise the driver sorts the relation
itself.  ``num_workers=1`` is the one-machine algorithm: one partition,
one reservoir, the same draws in the same order.
(``tests/reference_sampling.py`` keeps the per-worker loop as the oracle.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.joins import native
from repro.joins.conditions import JoinCondition
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index, build_equidepth_histogram
from repro.sampling.reservoir import merge_reservoirs, weighted_samples_wor, wor_to_wr
from repro.sampling.stream_sample import D2Index, JoinOutputSample

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


def _workers(
    keys: np.ndarray, histogram: EquiDepthHistogram, num_workers: int
) -> np.ndarray:
    """Each key's worker: contiguous equi-depth bucket ranges, in key order.

    Consecutive buckets go to the same worker (range partitioning over
    bucket indexes), so equal keys share a worker and worker key ranges
    ascend.  The workers come in the smallest unsigned dtype that holds
    ``num_workers - 1``: a stable argsort of it is numpy's radix sort.
    """
    buckets = bucket_index(histogram.boundaries, keys)
    worker_of_bucket = (
        np.arange(histogram.num_buckets) * num_workers // histogram.num_buckets
    ).astype(np.min_scalar_type(num_workers - 1))
    return worker_of_bucket[buckets]


def _default_histogram(keys: np.ndarray, num_workers: int) -> EquiDepthHistogram:
    """The exact ``num_workers``-bucket histogram of the keys that join.

    A NaN joins nothing, so it places no boundary: NaN keys fall in the last
    bucket, as :func:`~repro.sampling.equidepth.bucket_index` clamps them.
    A side of NaN keys alone gets one bucket.
    """
    joining = keys[~np.isnan(keys)]
    if len(joining) == 0:
        return EquiDepthHistogram(np.array([-np.inf, np.inf]), len(keys))
    joining.sort()
    return build_equidepth_histogram(joining, num_workers, len(keys))


def _distinct_sorted(sorted_keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Ascending keys' distinct values, and where each one's run starts.

    The starts end with the keys' number, so they are the d2equi prefix
    of the runs.  One compare of neighbours: what ``np.unique`` keeps after
    its sort, bit for bit but for a zero's sign (of ``-0.0`` and ``0.0``
    each keeps whichever its sort put first; keys are only ever compared)
    and for NaN.  NaNs sort last and equal nothing, so each NaN gets an
    entry of its own there; a NaN joins nothing, so no joinable window
    reaches those entries, and a search of a NaN finds the first of them.
    """
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return sorted_keys[starts], np.append(starts, len(sorted_keys))


def _shipped(
    d2_index: D2Index, lows: np.ndarray, highs: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """``d2equi`` entries each worker needs: those inside the hull of its bounds.

    ``lows`` / ``highs`` are the joinable bounds of R1's distinct keys in
    key order -- worker order too -- and ``counts`` the distinct keys per
    worker: the hull of a worker's tuples is the hull of its distinct keys.
    A key that joins nothing has the empty interval, whose low end is NaN
    (``JoinCondition.joinable_bounds``): it widens neither end of the hull,
    and a worker holding only such keys needs nothing.
    """
    shipped = np.zeros(len(counts), dtype=np.int64)
    busy = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[busy]
    highs = np.where(np.isnan(lows), np.nan, highs)
    lo = np.fmin.reduceat(lows, starts)
    left, right = d2_index.window(lo, np.fmax.reduceat(highs, starts))
    shipped[busy] = np.where(np.isnan(lo), 0, right - left)
    return shipped


def parallel_stream_sample(
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    sample_size: int,
    num_workers: int,
    rng: np.random.Generator,
    histogram1: EquiDepthHistogram | None = None,
    histogram2: EquiDepthHistogram | None = None,
    sorted1: np.ndarray | None = None,
    sorted2: np.ndarray | None = None,
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
    sorted1, sorted2:
        Each relation's keys sorted ascending (NaN last), when the caller
        has them (a plan build's stage-1 sample of a whole relation);
        otherwise the driver sorts the relation itself.  The relation's
        distinct keys are read off the sorted keys and R1's keys are
        searched among them, so either way the sample, the statistics and
        the generator's draws are the same.
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    stats = ParallelSampleStats()

    if histogram2 is None and len(keys2):
        histogram2 = _default_histogram(keys2, num_workers)
    if histogram1 is None and len(keys1):
        histogram1 = _default_histogram(keys1, num_workers)

    if len(keys1) == 0 or len(keys2) == 0:
        empty = JoinOutputSample(pairs=np.empty((0, 2)), total_output=0)
        return empty, stats

    # ------------------------------------------------------------------
    # Job 1: build d2equi, partitioned by R2's equi-depth histogram.  Equal
    # keys share a worker and worker key ranges ascend, so the local indexes
    # laid end to end in worker order are the global one, and a worker scans
    # the multiplicities of its distinct keys.
    # ------------------------------------------------------------------
    distinct2, prefix2 = _distinct_sorted(np.sort(keys2) if sorted2 is None else sorted2)
    d2_index = D2Index(keys=distinct2, multiplicities=np.diff(prefix2), prefix=prefix2)
    stats.r2_tuples_scanned = (
        np.bincount(
            _workers(d2_index.keys, histogram2, num_workers),
            weights=d2_index.multiplicities,
            minlength=num_workers,
        )
        .astype(np.int64)
        .tolist()
    )

    # ------------------------------------------------------------------
    # Job 2: build d2 and the weighted sample S1, partitioned by R1's
    # histogram; each worker sees only the d2equi entries it can need.
    # Every worker's slice of d2equi covers its keys' bounds, so searching
    # the global index gives the local d2 integers.  Equal keys share a
    # worker, bounds and window, so each distinct key is searched once, in
    # key order, and a tuple gathers its key's.
    # ------------------------------------------------------------------
    # Every key equals one distinct key, which a left search finds.
    distinct, _ = _distinct_sorted(np.sort(keys1) if sorted1 is None else sorted1)
    inverse = native.search(distinct, np.require(keys1, np.float64, "CA"), False)
    workers = _workers(distinct, histogram1, num_workers)
    lows, highs = condition.joinable_bounds(distinct)
    left, right = d2_index.window(lows, highs)
    stats.d2equi_entries_shipped = _shipped(
        d2_index, lows, highs, np.bincount(workers, minlength=num_workers)
    ).tolist()
    # R1 laid end to end in worker order (each worker's tuples in arrival
    # order); ``held`` is each of those tuples' distinct key.
    tuple_workers = workers[inverse]
    order = np.argsort(tuple_workers, kind="stable")
    held = inverse[order]
    scanned = np.bincount(tuple_workers, minlength=num_workers)
    stats.r1_tuples_scanned = scanned.tolist()
    prefix = d2_index.prefix
    d2 = (prefix[right] - prefix[left])[held]
    total_output = int(d2.sum())

    if total_output == 0 or sample_size == 0:
        empty = JoinOutputSample(pairs=np.empty((0, 2)), total_output=total_output)
        return empty, stats

    # One E-S reservoir per worker, merged by the largest priorities.  The
    # payloads are positions in the worker-ordered R1.
    weights = d2.astype(np.float64)
    reservoirs = weighted_samples_wor(weights, sample_size, rng, scanned)
    merged = merge_reservoirs(reservoirs, capacity=sample_size)
    sampled = wor_to_wr(merged, weights, sample_size, rng)

    # ------------------------------------------------------------------
    # Job 3: map-only production of output key pairs.  A sampled tuple's
    # worker and joinable window are its distinct key's, gathered; each
    # worker draws for its own tuples in sample order, one joinable R2 key
    # per tuple with probability proportional to its multiplicity.
    # ``rng.integers(0, totals)`` draws what one scalar call per tuple would.
    # ------------------------------------------------------------------
    sampled_workers = workers[held[sampled]]
    sampled = sampled[np.argsort(sampled_workers, kind="stable")]
    stats.sample_pairs_produced = np.bincount(
        sampled_workers, minlength=num_workers
    ).tolist()
    at = held[sampled]
    starts = prefix[left[at]]
    # Every tuple was sampled with weight d2 > 0, so its window is non-empty.
    targets = starts + rng.integers(0, prefix[right[at]] - starts)
    sampled_keys2 = d2_index.keys[native.search(prefix, targets, True) - 1]
    pairs = np.column_stack([keys1[order[sampled]], sampled_keys2])
    return JoinOutputSample(pairs=pairs, total_output=total_output), stats
