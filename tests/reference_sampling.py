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
pickled state.  Its heap loop is :func:`offer`, which
``tests/test_heap_oracle.py`` drives against ``native.offer`` directly.

:func:`stream_sample` is the other kind of reference: the sequential
Stream-Sample *driver* ``repro.sampling`` shipped beside the parallel one,
kept as the oracle ``parallel_stream_sample(num_workers=1)`` is pinned
against.  It runs the production kernels, so only the driver differs.

:func:`parallel_stream_sample` is the parallel driver as it shipped with
its workers simulated as loop iterations: one boolean mask per worker and
relation, one ``build_d2_index`` / ``compute_joinable_set_sizes`` /
``weighted_sample_wor`` / ``sample_joinable_keys`` call per worker, a
d2equi slice cut from each worker's bound hull.  It runs the reference
kernels above (and :func:`wor_to_wr`, the list-comprehension snapshot
read), so installing it swaps in the whole per-worker, per-tuple rebuild.
One fix since: a worker's hull is taken over the keys that join something,
so a NaN key (whose low bound is NaN) no longer empties its worker's slice.

The numpy forms the one-pass driver and the histogram build replaced are
kept too: :func:`numpy_sample_joinable_keys` and :func:`by_worker` search
every sampled and every R1 tuple where the driver now searches each
distinct key once and gathers, and :func:`quantile_histogram` reads the
equi-depth boundaries through ``np.quantile`` where the build now reads
them from its sorted sample by index.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

import repro.core.histogram as histogram_module
from repro.sampling import reservoir as production_reservoir
from repro.sampling import stream_sample as production_kernels
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index
from repro.sampling.parallel_stream_sample import (
    ParallelSampleStats,
    _default_histogram,
    _workers,
)
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


def numpy_sample_joinable_keys(sampled_keys1, d2_index, condition, rng) -> np.ndarray:
    """:func:`sample_joinable_keys` as one vectorised draw: the searches Stream-Sample made.

    ``rng.integers(0, totals)`` over the array of window sizes returns the
    values one scalar call per key would, and leaves the generator in the
    same state.  An empty sample draws nothing.  The driver now gathers each
    sampled tuple's window by its position instead of searching for it.
    """
    keys, prefix = d2_index.keys, d2_index.prefix
    lows, highs = condition.joinable_bounds(sampled_keys1)
    starts = prefix[np.searchsorted(keys, lows, side="left")]
    # Every key was sampled with weight d2 > 0, so its window is non-empty.
    totals = prefix[np.searchsorted(keys, highs, side="right")] - starts
    targets = starts + rng.integers(0, totals)
    return keys[prefix.searchsorted(targets, side="right") - 1]


def by_worker(keys, histogram, num_workers: int) -> "tuple[np.ndarray, np.ndarray]":
    """``keys`` routed to workers and laid end to end, with each worker's count.

    The numpy form the driver routed every R1 tuple and every sampled tuple
    by -- one search per tuple, one stable argsort -- before it searched
    the distinct keys once and gathered.
    """
    workers = _workers(keys, histogram, num_workers)
    order = np.argsort(workers, kind="stable")
    return keys[order], np.bincount(workers, minlength=num_workers)


def quantile_histogram(sample_keys, num_buckets: int, num_tuples: int) -> EquiDepthHistogram:
    """``build_equidepth_histogram`` as ``np.quantile`` read its boundaries.

    Sort, ``np.quantile(method="inverted_cdf")`` at the evenly spaced
    quantiles, the ends pinned to the sample's and a running maximum --
    the build before it read the boundaries from the sorted sample by index.
    """
    sample_keys = np.sort(np.asarray(sample_keys, dtype=np.float64))
    num_buckets = min(num_buckets, len(sample_keys))
    quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
    # Asked 4,096 quantiles at a time: each is read on its own, and numpy's
    # partition takes ~0.7 s for ten thousand or more at once.
    boundaries = np.concatenate([
        np.quantile(sample_keys, chunk, method="inverted_cdf")
        for chunk in np.split(quantiles, range(4096, len(quantiles), 4096))
    ])
    boundaries = np.asarray(boundaries, dtype=np.float64)
    boundaries[0] = sample_keys[0]
    boundaries[-1] = sample_keys[-1]
    boundaries = np.maximum.accumulate(boundaries)
    return EquiDepthHistogram(boundaries=boundaries, num_tuples=num_tuples)


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


def offer(heap: list, capacity: int, counter: int, priorities, payloads) -> int:
    """:class:`TupleReservoir`'s heap loop: what ``native.offer`` computes.

    Offers ``(priority, counter, payload)`` tuples, in order, to ``heap``
    (a ``heapq`` list of at most ``capacity`` tuples, changed in place) and
    returns the next unused counter.  When the heap starts full, only
    entries above its minimum at that moment take a counter.
    """
    priorities = np.asarray(priorities, dtype=np.float64)
    payloads = np.asarray(payloads, dtype=np.float64)
    if len(heap) >= capacity:
        # Entries below the current minimum can never enter (the heap
        # minimum only rises), so drop them vectorised before the
        # per-entry heap loop.
        mask = priorities > heap[0][0]
        payloads, priorities = payloads[mask], priorities[mask]
    for payload, priority in zip(payloads, priorities):
        entry = (float(priority), counter, float(payload))
        counter += 1
        if len(heap) < capacity:
            heapq.heappush(heap, entry)
        elif entry[0] > heap[0][0]:
            heapq.heapreplace(heap, entry)
    return counter


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
        self.counter = offer(self.heap, self.capacity, self.counter, priorities, keys)

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
    sampled_keys2 = numpy_sample_joinable_keys(sampled_keys1, d2_index, condition, rng)
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
    sorted1=None,
    sorted2=None,
):
    """Run the 3-job parallel Stream-Sample, one loop iteration per worker.

    A plan build also hands in its relations sorted (``sorted1`` /
    ``sorted2``, when its stage-1 sample is the whole relation); this loop
    ignores them, each worker finding its own slice's distinct keys.
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
        # The hull of the bounds of the keys that join something: a key
        # that joins nothing has a NaN low bound, which must not hide the
        # worker's other keys (``np.min`` would return it, and the slice
        # would be empty).
        lo_bound, hi_bound = condition.joinable_bounds(part)
        joins = ~np.isnan(lo_bound)
        left = right = 0
        if joins.any():
            lo, hi = float(np.min(lo_bound[joins])), float(np.max(hi_bound[joins]))
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
