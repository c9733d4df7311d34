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

:class:`WeightedReservoir` is the package's one E--S heap: Stream-Sample's
reservoirs hold positions into the caller's weights, and the stream
histogram's decayed reservoir
(:class:`~repro.streaming.incremental.DecayedReservoir`) is one that holds
keys.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.joins import native

__all__ = [
    "WeightedReservoir",
    "weighted_samples_wor",
    "merge_reservoirs",
    "wor_to_wr",
]

_NO_FLOATS = np.empty(0)
_NO_COUNTERS = np.empty(0, dtype=np.int64)


class WeightedReservoir:
    """A bounded min-heap of the ``capacity`` largest-priority entries.

    The heap is three parallel arrays -- priorities (float64), counters
    (int64) and payloads (float64; a position is exact below 2**53) --
    whose first ``len(self)`` entries are, entry for entry, the list of
    ``(priority, counter, payload)`` tuples ``heapq`` would hold
    (``tests/reference_sampling.py``): :meth:`payloads` exposes heap order,
    which :func:`wor_to_wr` draws over and a rebuild samples from.  A batch
    of offers is one call of the compiled kernel
    (:func:`repro.joins.native.offer`), which mirrors ``heapq``'s steps.  A
    pickle (a checkpoint) holds the heap's entries and no spare room.
    """

    #: The heap's parallel arrays, in tuple order.
    _HEAP = ("_priorities", "_counters", "_payloads")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        self.capacity = capacity
        self._size = 0
        self._counter = 0
        # Empty until offered to: an offer grows them.
        self._priorities = self._payloads = _NO_FLOATS
        self._counters = _NO_COUNTERS

    def __len__(self) -> int:
        """Number of entries the heap holds."""
        return self._size

    def __getstate__(self) -> dict:
        """The fields, each heap array cut to the heap's entries."""
        state = self.__dict__.copy()
        for name in self._HEAP:
            state[name] = state[name][: self._size]
        return state

    def offer(self, priorities: np.ndarray, payloads: np.ndarray) -> None:
        """Offer entries with these priorities and payloads, in order: one kernel call.

        The kernel's heap loop: when the heap starts full, only entries
        above its minimum take a counter; otherwise every entry does.  An
        entry with a counter is pushed while the heap holds fewer than
        ``capacity``, and afterwards replaces the minimum when its priority
        is strictly larger.  The arrays grow to the room the heap then needs
        (at least double, so many small offers copy amortised O(1)).
        """
        size = self._size
        room = min(self.capacity, size + len(payloads))
        if self._priorities.size < room:
            grown = max(room, min(self.capacity, 2 * self._priorities.size))
            self._priorities, self._counters, self._payloads = (
                np.concatenate([heap[:size], np.empty(grown - size, dtype=heap.dtype)])
                for heap in (self._priorities, self._counters, self._payloads)
            )
        heap = (self._priorities, self._counters, self._payloads)
        self._counter = native.offer(
            heap, size, self.capacity, self._counter, priorities, payloads
        )
        self._size = room

    def payloads(self) -> np.ndarray:
        """Snapshot of the held payloads, in heap-array order."""
        return self._payloads[: self._size].copy()


def weighted_samples_wor(
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
    lengths: Sequence[int],
) -> list[WeightedReservoir]:
    """One-pass E--S weighted samples without replacement of consecutive parts of ``weights``.

    Part ``i`` is the next ``lengths[i]`` weights; the lengths are
    non-negative and sum to ``len(weights)``.  Each part gets a reservoir of
    ``size`` whose payloads are positions in ``weights``.  Entries with
    non-positive weight are never offered (they cannot contribute an output
    tuple).  The priorities come from one ``rng.random`` over every positive
    weight in order -- the stream per-part draws make one after the other
    -- and each part's reservoir is offered its own slice of them in one
    kernel call.  The reservoirs' heap arrays are slices of one block.
    """
    weights = np.asarray(weights, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < 0).any() or lengths.sum() != len(weights):
        raise ValueError(
            f"lengths {lengths.tolist()} must be non-negative and sum to the "
            f"{len(weights)} weights"
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
    positions = np.flatnonzero(positive).astype(np.float64)
    # A subnormal weight's exponent 1 / w rounds to inf (an overflow), and
    # u ** inf is 0.0 for every u < 1: the priority of a weight that small,
    # computed without a warning.  The flag changes no value.
    with np.errstate(over="ignore"):
        priorities = rng.random(positions.size) ** (1.0 / weights[positive])
    block = (np.empty(rooms[-1]), np.empty(rooms[-1], dtype=np.int64), np.empty(rooms[-1]))
    parts = zip(reservoirs, bounds, bounds[1:], rooms, rooms[1:])
    for reservoir, start, stop, low, high in parts:
        reservoir._priorities, reservoir._counters, reservoir._payloads = (
            block[0][low:high], block[1][low:high], block[2][low:high]
        )
        reservoir.offer(priorities[start:stop], positions[start:stop])
    return reservoirs


def merge_reservoirs(
    reservoirs: list[WeightedReservoir], capacity: int | None = None
) -> WeightedReservoir:
    """Merge per-worker reservoirs into one by keeping the largest priorities.

    The heap arrays are offered, laid end to end in reservoir order, to a
    fresh heap in one kernel call: the entries a per-entry merge offers, in
    its order.  The payloads carry over, so positions stay positions in
    the weights the reservoirs sampled.
    """
    if not reservoirs:
        raise ValueError("need at least one reservoir to merge")
    merged = WeightedReservoir(capacity=capacity or max(r.capacity for r in reservoirs))
    held = [reservoir for reservoir in reservoirs if reservoir._size]
    if held:
        merged.offer(
            np.concatenate([reservoir._priorities[: reservoir._size] for reservoir in held]),
            np.concatenate([reservoir._payloads[: reservoir._size] for reservoir in held]),
        )
    return merged


def wor_to_wr(
    reservoir: WeightedReservoir,
    weights: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Convert a WOR reservoir to a with-replacement weighted sample of ``size``.

    The reservoir's payloads are positions in ``weights``; returns the
    drawn positions (int64; empty when it holds none).  The draw is
    ``rng.choice(len(held), size, p=weights / total)`` written as the steps
    it takes -- the normalised cumulative weights searched "right" for
    ``rng.random(size)`` (:func:`repro.joins.native.search`) -- so the
    indexes and the generator state after are ``rng.choice``'s
    (``tests/reference_sampling.py`` keeps that form).  A held ``inf``
    weight (:func:`weighted_samples_wor` takes one), or finite weights
    whose total overflows, is refused by name: no draw is proportional to
    it.
    """
    held = reservoir._payloads[: reservoir._size].astype(np.int64)
    if not held.size:
        return held
    weights = weights[held]
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
    return held[native.search(cdf, rng.random(size), True)]
