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

:func:`search_half` and :func:`_bounds` are the bounds path a stream
batch and a batch join took before the kernel bounded needles itself by
the condition's named rule (``repro.joins.local`` held them): one
``joinable_bounds`` pass per half and key dtype, in the needles' common
dtype with the runs.  :func:`count_halves` counts its entries with
:func:`count_half`, so ``tests/test_fold_rules.py`` holds the rule-form
fold to ``joinable_bounds`` bit for bit.

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


def _bounds(condition, keys: np.ndarray, dtype: np.dtype) -> "tuple[np.ndarray, np.ndarray]":
    """``condition``'s joinable bounds of ``keys`` brought to their common dtype with ``dtype``.

    Integer needles meeting float runs are bounded as floats, so a strict
    integer step ``k +- 1`` never skips a fractional key.
    """
    needles = normalise_keys(keys)
    return condition.joinable_bounds(
        needles.astype(np.promote_types(needles.dtype, dtype), copy=False)
    )


def search_half(condition, needles, starts, stops, groups, cut, bounds=None):
    """One half of a count as the fold took it with its bounds computed first: its entries.

    Machine ``m``'s needles are ``needles[starts[m]:stops[m]]``.
    ``groups`` lists, per group of the searched side, its ``(keys, cum)``
    runs -- ascending keys, float64 or int64, ``cum`` their cumulative
    counts (``cum[0] == 0``, any sign) or ``None`` when every key counts
    once -- the machines reading it, the fold cascade whose merged run it
    searches too (or ``None``) and the dtype of its keys; ``cut`` is the
    slice rule the readers read every run through
    (:class:`~repro.partitioning.grid_routed.MachineSlices`), or ``None``
    when each reads its group whole.  A group with nothing to search or no
    readers is left out: its readers count zero.  The needles are bounded
    in one ``joinable_bounds`` pass per key dtype, in their common dtype
    with the keys (:func:`_bounds`; an integer run meeting float bounds is
    searched as float64, as ``searchsorted`` would cast it), so the half is
    one fold entry per key dtype, ``(lows, highs, starts, stops, groups)``.
    ``bounds`` (a dict, key dtype -> the bounds) keeps them for the next
    call over the same needles.
    """
    bounds = {} if bounds is None else bounds
    # A key dtype -> the bounds its groups are searched with, and the groups.
    halves: "dict[np.dtype, tuple]" = {}
    for runs, readers, merge, dtype in groups:
        if not (runs or merge is not None) or not readers.size:
            continue
        if dtype not in halves:
            if dtype not in bounds:
                bounds[dtype] = _bounds(condition, needles, dtype)
            halves[dtype] = (*bounds[dtype], starts, stops, [])
        halves[dtype][4].append((runs, readers, cut, merge))
    return halves.values()


def count_halves(entries, merged, out: np.ndarray) -> None:
    """Add :func:`search_half`'s entries' counts into ``out`` with :func:`count_half`.

    A group's ``merge`` indexes ``merged``, the run lists its cascades
    left, whose runs it searches after its own.
    """
    for lows, highs, starts, stops, groups in entries:
        runs = [
            (keys, cum, readers, cut)
            for own, readers, cut, merge in groups
            for keys, cum in own + ([] if merge is None else merged[merge])
        ]
        count_half(lows, highs, starts, stops, runs, out)
