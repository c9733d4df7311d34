"""Reference count kernels: one ``joinable_bounds`` pass per task, and the kernel's loops in numpy.

Test-only.  :func:`count_regions` and :func:`sum_halves` are the bodies the
per-region count loop (since replaced by ``repro.joins.local.count_runs``)
and ``RegionStateTable.sum_halves`` had before the bounds were hoisted out
of the per-task loop, kept as the
differential oracle (``tests/test_counting_oracle.py``): every non-empty
task normalises both of its sides, recomputes its own joinable bounds
through ``count_matches_per_key`` and is timed around the lot, and
per-task values are scattered into their halves with an unbuffered
``np.add.at``.  The production kernel must return the same per-task
outputs and read the clock exactly as often -- twice per non-empty task, in
task order.  :func:`count_task` is one task of the hoisted loop in numpy,
as it counted before the compiled kernel (one reader's needles against one
run, ``repro.joins.native.count_half`` with no cut),
and :func:`count_half` one half of a stream batch as the state owner
counted it before ``repro.joins.native.count_half``: one task per run,
its needles gathered segment by segment, clipped and summed per segment
with ``reduceat``, then added into the machines' totals.
``tests/test_native_kernel.py`` and ``tests/test_count_half.py`` hold the
kernel to them bit for bit.

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


def count_task(run, cum, lows, highs, out: np.ndarray) -> None:
    """Write one task's count into ``out[0]`` with numpy: one reader's needles, one run, no cut.

    Two ``searchsorted`` passes and a sum.
    """
    high, low = run.searchsorted(highs, "right"), run.searchsorted(lows, "left")
    out[0] = (high - low).sum() if cum is None else (cum[high] - cum[low]).sum()


def count_half(lows, highs, starts, stops, runs, out: np.ndarray) -> None:
    """Add one half of a batch's per-machine counts into ``out`` (``native.count_half``'s arguments).

    Per run, the readers' slices of it are cut by the slice rule (its
    ``MachineSlices``, called), the readers' needle shares gathered segment
    after segment (a needle two readers share appears in both), searched
    with two ``searchsorted`` passes over the window they lie in, clipped to
    each reader's slice (an interval answered backwards, a NaN low under a
    finite high, counts empty, as in the kernel), summed per reader with
    ``reduceat`` and added into the readers' totals.
    """
    for keys, cum, readers, cut in runs:
        first, last = starts[readers], stops[readers]
        sizes = np.maximum(last - first, 0)
        if not sizes.any():
            continue
        window = slice(first[sizes > 0].min(), last[sizes > 0].max())
        ends = sizes.cumsum()
        begins = ends - sizes
        segment = np.arange(sizes.size).repeat(sizes)
        picked = np.arange(ends[-1]) + (first - window.start - begins)[segment]
        high = keys.searchsorted(highs[window], "right")[picked]
        low = keys.searchsorted(lows[window], "left")[picked]
        if cut is not None:
            clip_lows, clip_highs = cut(keys)
            np.maximum(low, clip_lows[: readers.size][segment], out=low)
            np.minimum(high, clip_highs[: readers.size][segment], out=high)
        np.maximum(high, low, out=high)
        counts = high - low if cum is None else cum[high] - cum[low]
        busy = sizes.nonzero()[0]
        out[readers[busy]] += np.add.reduceat(counts, begins[busy])
