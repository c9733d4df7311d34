"""Reference sampling kernels: the per-tuple loops the sampling layer shipped.

Test-only.  These are the bodies ``repro.sampling.stream_sample`` and
``repro.sampling.reservoir`` had before their per-tuple interpreter work was
taken out, kept verbatim as the differential oracle
(``tests/test_sampling_oracle.py``): one scalar ``rng.integers`` and one
scalar ``searchsorted`` per sampled key, one ``add_with_priority`` call -- a
tuple build and three ``float()`` conversions -- per offered tuple.

:class:`TupleWeightedReservoir` is Stream-Sample's E-S reservoir as it
shipped, a ``heapq`` list of ``(priority, counter, item, weight)`` tuples,
before the production ``WeightedReservoir`` became three arrays offered to
by the compiled kernel; :func:`weighted_sample_wor`,
:func:`merge_reservoirs` and :func:`wor_to_wr` run on it, so a reference
pass and a production pass can be compared heap entry by heap entry,
counter by counter, generator state by generator state.

:class:`TupleReservoir` is the stream histogram's decayed reservoir as it
shipped -- a ``heapq`` list of tuples fed one key at a time -- before the
production one became three arrays offered to by the compiled kernel.  It
is its own class and meets the production reservoir only through its
pickled state.

:func:`stream_sample` is the other kind of reference: the sequential
Stream-Sample *driver* ``repro.sampling`` shipped beside the parallel one,
kept as the oracle ``parallel_stream_sample(num_workers=1)`` is pinned
against.  It runs the production kernels, so only the driver differs.

:func:`parallel_stream_sample` is the parallel driver as it shipped with
its workers simulated as loop iterations: one boolean mask per worker and
relation, one ``build_d2_index`` / ``compute_joinable_set_sizes`` /
``weighted_sample_wor`` / ``_sample_joinable_keys`` call per worker, a
d2equi slice cut from each worker's bound hull.  It runs the reference
kernels above (and :func:`wor_to_wr`, the list-comprehension snapshot
read), so installing it swaps in the whole per-worker, per-tuple rebuild.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

import repro.core.histogram as histogram_module
from repro.sampling import reservoir as production_reservoir
from repro.sampling import stream_sample as production_kernels
from repro.sampling.equidepth import bucket_index, build_equidepth_histogram
from repro.sampling.parallel_stream_sample import ParallelSampleStats
from repro.sampling.stream_sample import (
    D2Index,
    JoinOutputSample,
    build_d2_index,
    compute_joinable_set_sizes,
)
from repro.streaming.incremental import DecayedReservoir


def sample_joinable_keys(sampled_keys1, d2_index, condition, rng) -> np.ndarray:
    """For each sampled R1 key pick a joinable R2 key ∝ its multiplicity."""
    result = np.empty(len(sampled_keys1), dtype=np.float64)
    lows, highs = condition.joinable_bounds(sampled_keys1)
    lefts = np.searchsorted(d2_index.keys, lows, side="left")
    rights = np.searchsorted(d2_index.keys, highs, side="right")
    for i, (left, right) in enumerate(zip(lefts, rights)):
        total = d2_index.prefix[right] - d2_index.prefix[left]
        # The key was sampled with weight d2 > 0, so its window is non-empty.
        target = d2_index.prefix[left] + rng.integers(0, total)
        idx = int(np.searchsorted(d2_index.prefix, target, side="right")) - 1
        result[i] = d2_index.keys[idx]
    return result


class TupleWeightedReservoir:
    """Stream-Sample's E-S reservoir as it shipped: a ``heapq`` list of tuples.

    ``(priority, counter, item, weight)`` entries, one ``heappush`` /
    ``heapreplace`` per offered item.  The production
    ``WeightedReservoir`` holds the same heap as three arrays, an entry's
    item and weight replaced by its position in the offered pool, and must
    equal this one entry for entry.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self.heap: "list[tuple[float, int, object, float]]" = []
        self.counter = 0

    def add(self, item: object, weight: float, rng) -> None:
        """Offer ``item`` with ``weight``: a priority drawn, unless the weight is not positive."""
        if weight <= 0:
            return
        self.add_with_priority(item, weight, rng.random() ** (1.0 / weight))

    def add_with_priority(self, item: object, weight: float, priority: float) -> None:
        """Offer an item whose priority has already been drawn (used by merging)."""
        entry = (priority, self.counter, item, weight)
        self.counter += 1
        if len(self.heap) < self.capacity:
            heapq.heappush(self.heap, entry)
        elif priority > self.heap[0][0]:
            heapq.heapreplace(self.heap, entry)

    def items(self) -> list:
        """The sampled items, in heap-array order."""
        return [entry[2] for entry in self.heap]

    def weights(self) -> np.ndarray:
        """Weights of the sampled items, aligned with :meth:`items`."""
        return np.array([entry[3] for entry in self.heap], dtype=np.float64)


def weighted_sample_wor(items, weights, size, rng) -> TupleWeightedReservoir:
    """One-pass Efraimidis--Spirakis weighted sampling without replacement."""
    items = np.asarray(items)
    weights = np.asarray(weights, dtype=np.float64)
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    reservoir = TupleWeightedReservoir(capacity=size)
    positive = weights > 0
    if not positive.any():
        return reservoir
    # Vectorised priority draw, then a single heap pass.
    priorities = np.full(len(items), -np.inf)
    priorities[positive] = rng.random(int(positive.sum())) ** (1.0 / weights[positive])
    for item, weight, priority in zip(items, weights, priorities):
        if weight > 0:
            reservoir.add_with_priority(item, float(weight), float(priority))
    return reservoir


def merge_reservoirs(reservoirs, capacity=None) -> TupleWeightedReservoir:
    """Merge per-worker reservoirs into one by keeping the largest priorities."""
    if not reservoirs:
        raise ValueError("need at least one reservoir to merge")
    capacity = capacity or max(r.capacity for r in reservoirs)
    merged = TupleWeightedReservoir(capacity=capacity)
    for reservoir in reservoirs:
        for priority, _, item, weight in reservoir.heap:
            merged.add_with_priority(item, weight, priority)
    return merged


def wor_to_wr(reservoir: TupleWeightedReservoir, size: int, rng) -> list:
    """Convert a WOR reservoir to a with-replacement weighted sample of ``size``."""
    items = reservoir.items()
    if not items:
        return []
    weights = reservoir.weights()
    probabilities = weights / weights.sum()
    indexes = rng.choice(len(items), size=size, replace=True, p=probabilities)
    return [items[i] for i in indexes]


class TupleReservoir:
    """The stream histogram's decayed reservoir as it shipped: ``heapq`` tuples.

    A list of ``(priority, counter, key)`` tuples, one ``heappush`` /
    ``heapreplace`` per offered key, behind the batch-start filter (when
    the heap starts a batch full, only keys above its minimum take a
    counter).  Its own class, not a ``DecayedReservoir``: it reads and
    writes the production reservoir only through the production pickled
    state (:meth:`from_state`, :meth:`state`), so comparing a production
    reservoir with this one compares what a checkpoint holds.
    """

    def __init__(self, capacity: int, decay: float = 1.0) -> None:
        self.capacity = capacity
        self.log_inv_decay = -math.log(decay)
        self.heap: "list[tuple[float, int, float]]" = []
        self.counter = 0
        self.tuples_seen = 0

    @classmethod
    def from_state(cls, state: dict) -> "TupleReservoir":
        """The reservoir a production ``DecayedReservoir.__getstate__()`` describes."""
        reservoir = cls(state["capacity"], state["decay"])
        reservoir.heap = list(
            zip(
                state["_priorities"].tolist(),
                state["_counters"].tolist(),
                state["_keys"].tolist(),
            )
        )
        reservoir.counter = state["_counter"]
        reservoir.tuples_seen = state["tuples_seen"]
        return reservoir

    def state(self, state: dict) -> dict:
        """``state`` (a production pickled state) with this reservoir's heap and counts."""
        columns = list(zip(*self.heap)) or [(), (), ()]
        return {
            **state,
            "_size": len(self.heap),
            "_priorities": np.array(columns[0], dtype=np.float64),
            "_counters": np.array(columns[1], dtype=np.int64),
            "_keys": np.array(columns[2], dtype=np.float64),
            "_counter": self.counter,
            "tuples_seen": self.tuples_seen,
        }

    def add_batch(self, keys, batch_index: int, rng) -> None:
        """Offer one micro-batch of keys, all weighted by the batch's age."""
        keys = np.asarray(keys, dtype=np.float64)
        self.tuples_seen += len(keys)
        keys = keys[~np.isnan(keys)]
        if len(keys) == 0:
            return
        with np.errstate(divide="ignore"):
            # -ln(-ln u): u -> 0 gives -inf (never sampled), u -> 1 gives +inf.
            priorities = -np.log(-np.log(rng.random(len(keys))))
        priorities += batch_index * self.log_inv_decay
        if len(self.heap) >= self.capacity:
            # Entries below the current minimum can never enter (the heap
            # minimum only rises), so drop them vectorised before the
            # per-entry heap loop.
            mask = priorities > self.heap[0][0]
            keys, priorities = keys[mask], priorities[mask]
        for key, priority in zip(keys, priorities):
            entry = (float(priority), self.counter, float(key))
            self.counter += 1
            if len(self.heap) < self.capacity:
                heapq.heappush(self.heap, entry)
            elif entry[0] > self.heap[0][0]:
                heapq.heapreplace(self.heap, entry)

    def keys(self) -> np.ndarray:
        """Snapshot of the sampled keys, in heap-array order."""
        return np.array([entry[2] for entry in self.heap], dtype=np.float64)


def add_batch(self: DecayedReservoir, keys, batch_index: int, rng) -> None:
    """``DecayedReservoir.add_batch`` run by :class:`TupleReservoir`.

    The production reservoir's pickled state in, the reference's heap and
    counts back through ``__setstate__``.
    """
    state = self.__getstate__()
    reference = TupleReservoir.from_state(state)
    reference.add_batch(keys, batch_index, rng)
    self.__setstate__(reference.state(state))


def decayed_keys(self: DecayedReservoir) -> np.ndarray:
    """``DecayedReservoir.keys`` read by :class:`TupleReservoir`."""
    return TupleReservoir.from_state(self.__getstate__()).keys()


def stream_sample(keys1, keys2, condition, sample_size, rng):
    """Draw a uniform random sample of the join output (sequential Stream-Sample).

    One machine, no routing: ``d2equi`` over all of R2, ``d2`` over all of
    R1, one reservoir, one draw.  Returns the
    :class:`~repro.sampling.stream_sample.JoinOutputSample` alone.
    """
    if sample_size < 0:
        raise ValueError("sample_size must be non-negative")
    keys1 = np.asarray(keys1, dtype=np.float64)
    d2_index = production_kernels.build_d2_index(keys2)
    d2 = production_kernels.compute_joinable_set_sizes(keys1, d2_index, condition)
    total_output = int(d2.sum())
    if total_output == 0 or sample_size == 0:
        return production_kernels.JoinOutputSample(
            pairs=np.empty((0, 2)), total_output=total_output
        )

    reservoir = production_reservoir.weighted_sample_wor(
        keys1, d2.astype(np.float64), sample_size, rng
    )
    sampled_keys1 = np.asarray(
        production_reservoir.wor_to_wr(reservoir, sample_size, rng), dtype=np.float64
    )
    sampled_keys2 = production_kernels._sample_joinable_keys(
        sampled_keys1, d2_index, condition, rng
    )
    pairs = np.column_stack([sampled_keys1, sampled_keys2])
    return production_kernels.JoinOutputSample(pairs=pairs, total_output=total_output)


def _partition_by_histogram(keys, histogram, num_workers: int) -> list:
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
    keys1,
    keys2,
    condition,
    sample_size: int,
    num_workers: int,
    rng: np.random.Generator,
    histogram1=None,
    histogram2=None,
):
    """Run the 3-job parallel Stream-Sample, one loop iteration per worker."""
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

    # Job 1: build d2equi, partitioned by R2's equi-depth histogram.
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

    # Job 2: build d2 and the weighted sample S1, partitioned by R1's
    # histogram; each worker sees only the d2equi entries it can need.
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

    # Job 3: map-only production of output key pairs.
    sample_parts = _partition_by_histogram(sampled_keys1, histogram1, num_workers)
    pair_chunks = []
    for part in sample_parts:
        stats.sample_pairs_produced.append(len(part))
        if len(part) == 0:
            continue
        sampled_keys2 = sample_joinable_keys(part, d2_index, condition, rng)
        pair_chunks.append(np.column_stack([part, sampled_keys2]))
    pairs = np.concatenate(pair_chunks) if pair_chunks else np.empty((0, 2))
    return JoinOutputSample(pairs=pairs, total_output=total_output), stats


def install(monkeypatch) -> None:
    """Swap every reference kernel in for its production counterpart.

    Patches the names the callers resolve at call time: the histogram build
    runs the per-worker driver above (which runs the reference kernels), and
    the stream histogram feeds and reads its reservoirs through
    :class:`TupleReservoir`'s per-key loop.
    """
    monkeypatch.setattr(histogram_module, "parallel_stream_sample", parallel_stream_sample)
    monkeypatch.setattr(DecayedReservoir, "add_batch", add_batch)
    monkeypatch.setattr(DecayedReservoir, "keys", decayed_keys)
