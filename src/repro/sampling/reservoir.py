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

from typing import Sequence

import numpy as np

from repro.joins import native

__all__ = [
    "WeightedReservoir",
    "weighted_sample_wor",
    "weighted_samples_wor",
    "merge_reservoirs",
    "wor_to_wr",
]

_NO_FLOATS = np.empty(0)
_NO_COUNTERS = np.empty(0, dtype=np.int64)


class WeightedReservoir:
    """A bounded min-heap of the ``capacity`` largest-priority offers.

    Offered items with positive weight form the reservoir's *pool* (an
    array of items and one of their weights, position by position); items
    may be of any kind, and are carried through untouched.  The heap is
    three parallel arrays -- priorities (float64), counters (int64) and
    each entry's pool position (float64, exact below 2**53) -- whose first
    ``len(self)`` entries are, entry for entry, the list of ``(priority,
    counter, item, weight)`` tuples ``heapq`` would hold
    (``tests/reference_sampling.py``): heap order is what :func:`wor_to_wr`
    draws over.  A batch of offers is one call of the compiled kernel
    (:func:`repro.joins.native.offer`), which mirrors ``heapq``'s steps;
    items and weights are gathered by position only when read.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._counter = 0
        # Empty until offered to: an offer replaces them, never writes them.
        self._items: np.ndarray = _NO_FLOATS
        self._weights = self._priorities = self._positions = _NO_FLOATS
        self._counters = _NO_COUNTERS

    def __len__(self) -> int:
        return self._size

    def add(self, item: object, weight: float, rng: np.random.Generator) -> None:
        """Offer ``item`` with ``weight`` to the reservoir."""
        if weight <= 0:
            return
        priority = rng.random() ** (1.0 / weight)
        self.add_with_priority(item, weight, priority)

    def add_with_priority(self, item: object, weight: float, priority: float) -> None:
        """Offer an item whose priority has already been drawn.

        The pool grows by a copy per call: for many items, draw once and
        offer them together (:func:`weighted_sample_wor`).
        """
        entry = np.empty(1, dtype=object)
        entry[0] = item
        start = len(self._weights)
        self._items = np.concatenate([self._items, entry])
        self._weights = np.append(self._weights, float(weight))
        self._offer(np.array([priority], dtype=np.float64), np.array([float(start)]))

    def _offer(self, priorities: np.ndarray, positions: np.ndarray) -> None:
        """Offer entries with these priorities and pool positions, in order.

        Entry ``i`` is ``(priorities[i], counter + i, positions[i])``:
        pushed while the heap holds fewer than ``capacity``, afterwards it
        replaces the minimum when its priority is strictly larger -- the
        push / ``heapreplace`` sequence of offering one entry per call, so
        the heap *array* is reproduced, not merely the retained set.  Every
        entry takes a counter, as in that loop: an offer of several entries
        starts from an empty heap, so the kernel's batch-start filter (it
        gives no counter to what a full heap drops) only ever drops a lone
        entry.  The arrays grow to the room the heap then needs (at least
        double, so one-entry offers copy amortised O(1)).
        """
        size = self._size
        room = min(self.capacity, size + positions.size)
        if self._priorities.size < room:
            grown = max(room, min(self.capacity, 2 * self._priorities.size))
            self._priorities, self._counters, self._positions = (
                np.concatenate([heap[:size], np.empty(grown - size, dtype=heap.dtype)])
                for heap in (self._priorities, self._counters, self._positions)
            )
        heap = (self._priorities, self._counters, self._positions)
        native.offer(heap, size, self.capacity, self._counter, priorities, positions)
        self._counter += positions.size
        self._size = room

    def _held(self) -> np.ndarray:
        """The pool positions of the heap's entries, in heap-array order."""
        return self._positions[: self._size].astype(np.int64)

    def items(self) -> list[object]:
        """The sampled items, in heap-array order (``tolist()``'s Python objects)."""
        return self._items[self._held()].tolist()

    def weights(self) -> np.ndarray:
        """Weights of the sampled items, aligned with :meth:`items`."""
        return self._weights[self._held()]


def weighted_sample_wor(
    items: np.ndarray,
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> WeightedReservoir:
    """One-pass Efraimidis--Spirakis weighted sampling without replacement.

    Items with non-positive weight are never sampled (they cannot contribute
    an output tuple).  Items are read back through ``tolist()``: a sampled
    item is a Python scalar (a nested list for a 2-D ``items``), not a numpy
    one.
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

    Part ``i`` is the next ``lengths[i]`` items; the lengths are
    non-negative and sum to ``len(items)``.  The priorities come from one
    ``rng.random`` over every positive weight in order -- the stream the
    per-part calls draw one after the other -- and each part's reservoir
    is offered its own slice of them in one kernel call, so every heap
    array is the one its own call would build.  The reservoirs share one
    pool, the positive-weight items: ``items`` and ``weights`` themselves,
    not copies, when every weight is positive.
    """
    items = np.asarray(items)
    weights = np.asarray(weights, dtype=np.float64)
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < 0).any() or lengths.sum() != len(items):
        raise ValueError(
            f"lengths {lengths.tolist()} must be non-negative and sum to the "
            f"{len(items)} items"
        )
    positive = weights > 0
    # Where each part's positive entries start and stop among all of them,
    # and where its heap's room does in one block (up to ``size`` each).
    starts = np.concatenate([[0], np.cumsum(lengths)])
    bounds = np.concatenate([[0], np.cumsum(positive)])[starts]
    rooms = np.concatenate([[0], np.cumsum(np.minimum(np.diff(bounds), size))]).tolist()
    bounds = bounds.tolist()
    reservoirs = [WeightedReservoir(capacity=size) for _ in lengths]
    if bounds[-1] == 0:
        return reservoirs
    # Vectorised priority draw, then one kernel call per part.  The pool
    # is the input itself when every weight is positive.
    pool_items, pool_weights = (
        (items, weights) if bounds[-1] == len(items) else (items[positive], weights[positive])
    )
    priorities = rng.random(len(pool_weights)) ** (1.0 / pool_weights)
    positions = np.arange(len(pool_weights), dtype=np.float64)
    block = (np.empty(rooms[-1]), np.empty(rooms[-1], dtype=np.int64), np.empty(rooms[-1]))
    parts = zip(reservoirs, bounds, bounds[1:], rooms, rooms[1:])
    for reservoir, start, stop, low, high in parts:
        reservoir._items, reservoir._weights = pool_items, pool_weights
        reservoir._priorities, reservoir._counters, reservoir._positions = (
            block[0][low:high], block[1][low:high], block[2][low:high]
        )
        reservoir._offer(priorities[start:stop], positions[start:stop])
    return reservoirs


def merge_reservoirs(
    reservoirs: list[WeightedReservoir], capacity: int | None = None
) -> WeightedReservoir:
    """Merge per-worker reservoirs into one by keeping the largest priorities.

    The heap arrays are offered, laid end to end in reservoir order, to a
    fresh heap in one kernel call: the entries a per-entry merge offers, in
    its order.  The merged pool is the held items alone.
    """
    if not reservoirs:
        raise ValueError("need at least one reservoir to merge")
    capacity = capacity or max(r.capacity for r in reservoirs)
    merged = WeightedReservoir(capacity=capacity)
    held = [(reservoir, reservoir._held()) for reservoir in reservoirs if reservoir._size]
    if held:
        merged._items = np.concatenate([reservoir._items[at] for reservoir, at in held])
        merged._weights = np.concatenate([reservoir._weights[at] for reservoir, at in held])
        priorities = np.concatenate(
            [reservoir._priorities[: reservoir._size] for reservoir, _ in held]
        )
        merged._offer(priorities, np.arange(len(priorities), dtype=np.float64))
    return merged


def wor_to_wr(
    reservoir: WeightedReservoir, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Convert a WOR reservoir to a with-replacement weighted sample of ``size``.

    Returns the drawn items as an array of the reservoir's items (empty when
    it holds none).  The draw is ``rng.choice(len(held), size, p=weights /
    total)`` written as the steps it takes -- the normalised cumulative
    weights searched "right" for ``rng.random(size)``
    (:func:`repro.joins.native.search`) -- so the indexes and the generator
    state after are ``rng.choice``'s (``tests/reference_sampling.py``
    keeps that form).  A held ``inf`` weight (``add`` and
    :func:`weighted_sample_wor` take one), or finite weights whose total
    overflows, is refused by name: no draw is proportional to it.
    """
    held = reservoir._held()
    if not held.size:
        return reservoir._items[held]
    weights = reservoir._weights[held]
    if np.isinf(weights).any():
        entry = int(np.argmax(np.isinf(weights)))
        raise ValueError(
            f"cannot draw in proportion to an infinite weight: heap entry {entry} "
            f"of the reservoir's {held.size} has weight {weights[entry]}"
        )
    with np.errstate(over="ignore"):  # an overflowing total is inf, refused next
        total = weights.sum()
    if not np.isfinite(total):
        raise ValueError(
            f"cannot draw in proportion to weights whose total is {total}: "
            f"the reservoir's {held.size} weights overflow float64"
        )
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return reservoir._items[held[native.search(cdf, rng.random(size), True)]]
