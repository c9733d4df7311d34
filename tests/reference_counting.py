"""Reference count kernel: one ``joinable_bounds`` pass per task.

Test-only.  These are the bodies ``repro.joins.local.count_regions``
and ``RegionStateTable.sum_halves`` had before the bounds were hoisted out
of the per-task loop, kept as the differential oracle
(``tests/test_counting_oracle.py``): every non-empty task normalises both of
its sides, recomputes its own joinable bounds through
``count_matches_per_key`` and is timed around the lot, and per-task values
are scattered into their halves with an unbuffered ``np.add.at``.  The
production kernel must return the same per-task outputs and read the clock
exactly as often -- twice per non-empty task, in task order.

``perf_counter`` is looked up in this module's globals at call time, so a
test can give the reference its own tick clock.
"""

from __future__ import annotations

import numpy as np

from repro.joins.conditions import normalise_keys
from repro.obs.clock import perf_counter


def count_regions(region_keys, conditions):
    """Count each non-empty region in the calling process; time each one.

    Every second side must be sorted ascending.  A counted run of the
    streaming state (a third entry, its cumulative counts) is expanded into
    the keys it counts, minus the ones it counts negatively.
    """
    outputs = np.zeros(len(region_keys), dtype=np.int64)
    seconds = np.zeros(len(region_keys))
    for region, (keys1, keys2, *cum) in enumerate(region_keys):
        if len(keys1) == 0 or len(keys2) == 0:
            continue
        started = perf_counter()
        counts = np.diff(cum[0]) if cum and cum[0] is not None else np.ones(len(keys2), int)
        for sign in (1, -1):
            side = np.repeat(keys2, np.clip(sign * counts, 0, None))
            outputs[region] += sign * (
                conditions[region]
                .count_matches_per_key(normalise_keys(keys1), normalise_keys(side))
                .sum()
            )
        seconds[region] = perf_counter() - started
    return outputs, seconds


def sum_halves(num_machines: int, values: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Sum per-task ``values`` into a ``(machines, 2)`` array of halves."""
    halves = np.zeros(2 * num_machines, dtype=values.dtype)
    np.add.at(halves, owners, values)
    return halves.reshape(-1, 2)
