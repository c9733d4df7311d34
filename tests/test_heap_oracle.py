"""``native.offer`` against ``heapq``, over every small offer sequence.

The kernel's reservoir heap must be, entry for entry, the list of tuples
``heapq`` leaves behind the batch-start filter (``reference_sampling.offer``):
heap-array order is what the reservoirs expose.  Here every sequence of up
to five entries over seven priorities -- both infinities, both zeros, 1.0
twice (a tie only the counter breaks) and 2.0, each with its own payload --
is offered in one call to heaps of capacity 1 to 5, empty and full, and the
priority bits, counters, payload bits and returned counter are compared
with the reference's.  The heap arrays hold exactly ``capacity`` entries,
so a read past the heap's end is an AddressSanitizer report (CI runs this
module under the sanitizers).
"""

from __future__ import annotations

import itertools

import numpy as np

from reference_sampling import offer as heapq_offer
from repro.joins import native

#: The offered priorities; entry ``i``'s payload is ``i``.
ALPHABET = (-np.inf, -0.0, 0.0, 1.0, 1.0, 2.0, np.inf)

#: A full heap of capacity ``c`` is the first ``c`` of these offered to an
#: empty one (payloads 10, 11, ...): a tie, both zeros and -inf, so the
#: offers meet equal priorities at the root and below it.
FILL = (0.0, 1.0, -0.0, 1.0, -np.inf)

LONGEST = 5
CAPACITIES = range(1, 6)


def _columns(heap: list, capacity: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """A reference heap as the kernel's three arrays of ``capacity`` entries."""
    arrays = (np.zeros(capacity), np.zeros(capacity, dtype=np.int64), np.zeros(capacity))
    for array, column in zip(arrays, zip(*heap)):
        array[: len(heap)] = column
    return arrays


def _starts(capacity: int):
    """(name, heap, its arrays, next counter) for an empty and a full heap."""
    yield "empty", [], _columns([], capacity), 0
    full: list = []
    counter = heapq_offer(full, capacity, 0, FILL[:capacity], 10.0 + np.arange(capacity))
    yield "full", full, _columns(full, capacity), counter


def test_every_small_offer_sequence_leaves_heapqs_heap():
    starts = [(capacity, *start) for capacity in CAPACITIES for start in _starts(capacity)]
    cases, wrong = 0, []
    for length in range(LONGEST + 1):
        for picks in itertools.product(range(len(ALPHABET)), repeat=length):
            priorities = np.array([ALPHABET[pick] for pick in picks], dtype=np.float64)
            payloads = np.array(picks, dtype=np.float64)
            for capacity, start, heap, columns, counter in starts:
                expected = list(heap)
                next_counter = heapq_offer(expected, capacity, counter, priorities, payloads)
                arrays = tuple(column.copy() for column in columns)
                got = native.offer(arrays, len(heap), capacity, counter, priorities, payloads)
                held = len(expected)
                cases += 1
                if got != next_counter or any(
                    array[:held].tobytes() != want[:held].tobytes()
                    for array, want in zip(arrays, _columns(expected, capacity))
                ):
                    wrong.append((capacity, start, picks, got, next_counter))
    assert cases == 2 * len(CAPACITIES) * sum(len(ALPHABET) ** n for n in range(LONGEST + 1))
    assert not wrong, f"{len(wrong)} of {cases} offers differ from heapq's, first {wrong[:3]}"
