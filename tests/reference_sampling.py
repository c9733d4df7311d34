"""Reference sampling kernels: the per-tuple loops the sampling layer shipped.

Test-only.  These are the bodies ``repro.sampling.stream_sample``,
``repro.sampling.reservoir`` and ``DecayedReservoir.add_batch`` had before
their per-tuple interpreter work was taken out, kept verbatim as the
differential oracle (``tests/test_sampling_oracle.py``): one scalar
``rng.integers`` and one scalar ``searchsorted`` per sampled key, one
``add_with_priority`` call -- a tuple build and three ``float()``
conversions -- per offered tuple.  They operate on the *production* classes'
fields, so a reference pass and a production pass can be compared heap entry
by heap entry, counter by counter, generator state by generator state, and
either can be monkeypatched in for the other.

:func:`stream_sample` is the other kind of reference: the sequential
Stream-Sample *driver* ``repro.sampling`` shipped beside the parallel one,
kept as the oracle ``parallel_stream_sample(num_workers=1)`` is pinned
against.  It runs the production kernels, so only the driver differs.
"""

from __future__ import annotations

import heapq
import sys

import numpy as np

from repro.sampling import reservoir as production_reservoir
from repro.sampling import stream_sample as production_kernels
from repro.sampling.reservoir import WeightedReservoir
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


def add_with_priority(
    reservoir: WeightedReservoir, item: object, weight: float, priority: float
) -> None:
    """Offer an item whose priority has already been drawn (used by merging)."""
    entry = (priority, reservoir._counter, item, weight)
    reservoir._counter += 1
    if len(reservoir._heap) < reservoir.capacity:
        heapq.heappush(reservoir._heap, entry)
    elif priority > reservoir._heap[0][0]:
        heapq.heapreplace(reservoir._heap, entry)


def weighted_sample_wor(items, weights, size, rng) -> WeightedReservoir:
    """One-pass Efraimidis--Spirakis weighted sampling without replacement."""
    items = np.asarray(items)
    weights = np.asarray(weights, dtype=np.float64)
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    reservoir = WeightedReservoir(capacity=size)
    positive = weights > 0
    if not positive.any():
        return reservoir
    # Vectorised priority draw, then a single heap pass.
    priorities = np.full(len(items), -np.inf)
    priorities[positive] = rng.random(int(positive.sum())) ** (1.0 / weights[positive])
    for item, weight, priority in zip(items, weights, priorities):
        if weight > 0:
            add_with_priority(reservoir, item, float(weight), float(priority))
    return reservoir


def merge_reservoirs(reservoirs, capacity=None) -> WeightedReservoir:
    """Merge per-worker reservoirs into one by keeping the largest priorities."""
    if not reservoirs:
        raise ValueError("need at least one reservoir to merge")
    capacity = capacity or max(r.capacity for r in reservoirs)
    merged = WeightedReservoir(capacity=capacity)
    for reservoir in reservoirs:
        for priority, item, weight in reservoir.entries():
            add_with_priority(merged, item, weight, priority)
    return merged


def add_batch(
    self: DecayedReservoir, keys, batch_index: int, rng: np.random.Generator
) -> None:
    """Offer one micro-batch of keys, all weighted by the batch's age."""
    keys = np.asarray(keys, dtype=np.float64)
    self.tuples_seen += len(keys)
    if len(keys) == 0:
        return
    with np.errstate(divide="ignore"):
        # -ln(-ln u): u -> 0 gives -inf (never sampled), u -> 1 gives +inf.
        priorities = -np.log(-np.log(rng.random(len(keys))))
    priorities += batch_index * self._log_inv_decay
    if len(self._heap) >= self.capacity:
        # Entries below the current minimum can never enter (the heap
        # minimum only rises), so drop them vectorised before the
        # per-entry heap loop.
        mask = priorities > self._heap[0][0]
        keys, priorities = keys[mask], priorities[mask]
    for key, priority in zip(keys, priorities):
        entry = (float(priority), self._counter, float(key))
        self._counter += 1
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        elif entry[0] > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)


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


def install(monkeypatch) -> None:
    """Swap every reference kernel in for its production counterpart.

    Patches the names the caller resolves at call time (the Stream-Sample
    driver imports the kernels into its own namespace), so whole engine
    runs and histogram builds go through the reference loops.
    """
    # ``repro.sampling`` re-exports the driver under its submodule's name,
    # so the module itself comes from ``sys.modules``.
    parallel = sys.modules["repro.sampling.parallel_stream_sample"]
    monkeypatch.setattr(parallel, "_sample_joinable_keys", sample_joinable_keys)
    monkeypatch.setattr(parallel, "weighted_sample_wor", weighted_sample_wor)
    monkeypatch.setattr(parallel, "merge_reservoirs", merge_reservoirs)
    monkeypatch.setattr(DecayedReservoir, "add_batch", add_batch)
