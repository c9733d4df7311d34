"""Weighted reservoir sampling (Efraimidis--Spirakis).

The parallel Stream-Sample needs a weighted random sample S1 of R1 where the
weight of a tuple is its joinable-set size d2.  Efraimidis and Spirakis give
a one-pass algorithm for weighted sampling *without* replacement: assign each
item the priority ``r ** (1 / w)`` with ``r ~ U(0, 1)`` and keep the ``k``
items with the largest priorities in a min-heap.  Because priorities are
independent of how the input is split, per-worker reservoirs can be merged by
simply keeping the globally largest priorities, which is exactly what the
parallel sampler does.

The WOR sample is converted to a with-replacement (WR) sample by drawing
``k`` items from the reservoir with probabilities proportional to their
weights, following Chaudhuri et al.'s use in Stream-Sample.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count, islice
from operator import itemgetter
from typing import Sequence

import numpy as np

__all__ = [
    "WeightedReservoir",
    "weighted_sample_wor",
    "weighted_samples_wor",
    "merge_reservoirs",
    "wor_to_wr",
]


@dataclass
class WeightedReservoir:
    """A bounded min-heap of ``(priority, item, weight)`` entries.

    The reservoir keeps the ``capacity`` entries with the largest priorities
    seen so far.  Items may be arbitrary hashable or unhashable objects; they
    are carried through untouched.
    """

    capacity: int
    _heap: list[tuple[float, int, object, float]] = field(default_factory=list)
    _counter: int = 0

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError("reservoir capacity must be positive")

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, item: object, weight: float, rng: np.random.Generator) -> None:
        """Offer ``item`` with ``weight`` to the reservoir."""
        if weight <= 0:
            return
        priority = rng.random() ** (1.0 / weight)
        self.add_with_priority(item, weight, priority)

    def add_with_priority(self, item: object, weight: float, priority: float) -> None:
        """Offer an item whose priority has already been drawn."""
        self._offer([priority], [item], [weight])

    def _offer(self, priorities: Sequence, items: Sequence, weights: Sequence) -> None:
        """Offer parallel columns of pre-drawn entries, in order.

        Entry ``i`` is the tuple ``(priorities[i], counter + i, items[i],
        weights[i])``: pushed while the heap holds fewer than ``capacity``,
        afterwards it replaces the minimum when its priority is strictly
        larger -- the push / ``heapreplace`` sequence of offering one entry
        per call, so the heap *array* (whose order the WOR -> WR draw
        exposes) is reproduced, not merely the retained set.
        """
        heap, push, replace = self._heap, heapq.heappush, heapq.heapreplace
        entries = zip(priorities, count(self._counter), items, weights)
        for entry in islice(entries, max(self.capacity - len(heap), 0)):
            push(heap, entry)
        for entry in entries:
            if entry[0] > heap[0][0]:
                replace(heap, entry)
        self._counter += len(priorities)

    def items(self) -> list[object]:
        """The sampled items (unordered)."""
        return [entry[2] for entry in self._heap]

    def weights(self) -> np.ndarray:
        """Weights of the sampled items, aligned with :meth:`items`."""
        heap = self._heap
        return np.fromiter(map(itemgetter(3), heap), dtype=np.float64, count=len(heap))

    def entries(self) -> list[tuple[float, object, float]]:
        """``(priority, item, weight)`` triples (unordered)."""
        return [(entry[0], entry[2], entry[3]) for entry in self._heap]


def weighted_sample_wor(
    items: np.ndarray,
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> WeightedReservoir:
    """One-pass Efraimidis--Spirakis weighted sampling without replacement.

    Items with non-positive weight are never sampled (they cannot contribute
    an output tuple).  ``items`` goes through ``tolist()``: a retained item
    is a Python scalar (a nested list for a 2-D ``items``), not a numpy one.
    """
    return weighted_samples_wor(items, weights, size, rng, [len(items)])[0]


def weighted_samples_wor(
    items: np.ndarray,
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
    lengths: Sequence[int],
) -> list[WeightedReservoir]:
    """:func:`weighted_sample_wor` of consecutive parts of ``items``, one reservoir each.

    Part ``i`` is the next ``lengths[i]`` items.  The priorities come from
    one ``rng.random`` over every positive weight in order -- the stream
    the per-part calls draw one after the other -- and each part's
    reservoir is offered its own entries in order, so every heap array is
    the one its own call would build.
    """
    items = np.asarray(items)
    weights = np.asarray(weights, dtype=np.float64)
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    positive = weights > 0
    # Where each part's positive entries start and stop among all of them.
    bounds = np.concatenate([[0], np.cumsum(positive)])[
        np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    ].tolist()
    reservoirs = [WeightedReservoir(capacity=size) for _ in lengths]
    if bounds[-1] == 0:
        return reservoirs
    # Vectorised priority draw, then a single heap pass per part.
    weights = weights[positive]
    priorities = (rng.random(len(weights)) ** (1.0 / weights)).tolist()
    items, weights = items[positive].tolist(), weights.tolist()
    for reservoir, start, stop in zip(reservoirs, bounds, bounds[1:]):
        reservoir._offer(priorities[start:stop], items[start:stop], weights[start:stop])
    return reservoirs


def merge_reservoirs(
    reservoirs: list[WeightedReservoir], capacity: int | None = None
) -> WeightedReservoir:
    """Merge per-worker reservoirs into one by keeping the largest priorities."""
    if not reservoirs:
        raise ValueError("need at least one reservoir to merge")
    capacity = capacity or max(r.capacity for r in reservoirs)
    merged = WeightedReservoir(capacity=capacity)
    heap = [entry for reservoir in reservoirs for entry in reservoir._heap]
    if heap:
        priorities, _, items, weights = zip(*heap)
        merged._offer(priorities, items, weights)
    return merged


def wor_to_wr(
    reservoir: WeightedReservoir, size: int, rng: np.random.Generator
) -> list[object]:
    """Convert a WOR reservoir to a with-replacement weighted sample of ``size``."""
    heap = reservoir._heap
    if not heap:
        return []
    weights = reservoir.weights()
    probabilities = weights / weights.sum()
    indexes = rng.choice(len(heap), size=size, replace=True, p=probabilities)
    # An object array holds the items themselves, so the gather hands them back.
    items = np.fromiter(map(itemgetter(2), heap), dtype=object, count=len(heap))
    return items[indexes].tolist()
