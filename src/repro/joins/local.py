"""Local (single-machine) join algorithms.

Each worker in the shared-nothing engine joins the tuples routed to its
region with one of these algorithms.  The partitioning schemes are orthogonal
to the choice of local algorithm (paper, section IV): as long as every worker
runs the same algorithm, only the *amount* of input and output per worker
matters for load balance.

Three algorithms are provided:

* :func:`sort_merge_band_join` -- the default for band/inequality joins;
  sorts both sides and sweeps a window.
* :func:`hash_equi_join` -- classic hash join, valid only for equality
  conditions.
* :func:`nested_loop_join` -- O(n*m) reference implementation used by the
  tests as ground truth.

For the simulator we rarely need materialised pairs, only their number:
:func:`count_regions` counts key-range regions with two binary searches per
tuple -- the per-region count loop of the batch engines
(:func:`~repro.engine.cluster.run_partitioned_join` and the pool workers).
Its inner loop runs in the compiled count kernel (:mod:`repro.joins.native`),
whose other count function counts a stream batch against a state owner's
runs (:meth:`~repro.streaming.backends.StateOwner.count`).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    JoinCondition,
    normalise_keys,
)
from repro.obs.clock import perf_counter

__all__ = [
    "nested_loop_join",
    "sort_merge_band_join",
    "hash_equi_join",
    "join_output_pairs",
    "count_join_output",
    "count_regions",
]


def nested_loop_join(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> list[tuple[float, float]]:
    """Join two key arrays by testing every pair, in row-major order.

    Quadratic (one broadcast ``matches_many`` over the whole join matrix);
    only suitable for small inputs.  Used as the reference implementation
    in tests.
    """
    keys1 = np.asarray(keys1, dtype=np.float64)  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    keys2 = np.asarray(keys2, dtype=np.float64)  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    rows, cols = np.nonzero(condition.matches_many(keys1[:, None], keys2[None, :]))
    return list(zip(keys1[rows].tolist(), keys2[cols].tolist()))


def sort_merge_band_join(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> list[tuple[float, float]]:
    """Sort-merge join for monotonic conditions.

    Both inputs are sorted; for every R1 key the joinable R2 window is found
    with binary search, so the cost is ``O(n log n + output)``.
    """
    keys1 = np.sort(np.asarray(keys1, dtype=np.float64))  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    keys2 = np.sort(np.asarray(keys2, dtype=np.float64))  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    if len(keys1) == 0 or len(keys2) == 0:
        return []
    lows, highs = condition.joinable_bounds(keys1)
    left = np.searchsorted(keys2, lows, side="left")
    right = np.searchsorted(keys2, highs, side="right")
    out: list[tuple[float, float]] = []
    for k1, lo_idx, hi_idx in zip(keys1, left, right):
        for j in range(lo_idx, hi_idx):
            out.append((float(k1), float(keys2[j])))  # repro: ignore[KEY001]  # pair materialisation in the float oracle
    return out


def hash_equi_join(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition | None = None
) -> list[tuple[float, float]]:
    """Hash join; valid only for equality conditions.

    ``condition`` may be passed for interface uniformity but must be an
    equi-join (band width zero) if given.
    """
    if condition is not None:
        is_equi = isinstance(condition, EquiJoinCondition) or (
            isinstance(condition, BandJoinCondition) and condition.beta == 0
        )
        if not is_equi:
            raise ValueError("hash_equi_join only supports equality conditions")
    keys1 = np.asarray(keys1, dtype=np.float64)  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    keys2 = np.asarray(keys2, dtype=np.float64)  # repro: ignore[KEY001]  # reference oracle is float-keyed by design
    table: dict[float, int] = {}
    for k in keys2:
        table[float(k)] = table.get(float(k), 0) + 1
    out: list[tuple[float, float]] = []
    for k in keys1:
        k = float(k)
        if k in table:
            out.extend((k, k) for _ in range(table[k]))
    return out


def join_output_pairs(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> list[tuple[float, float]]:
    """Produce all output key pairs using the best applicable algorithm."""
    is_equi = isinstance(condition, EquiJoinCondition) or (
        isinstance(condition, BandJoinCondition) and condition.beta == 0
    )
    if is_equi:
        return hash_equi_join(keys1, keys2)
    return sort_merge_band_join(keys1, keys2, condition)


def count_join_output(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> int:
    """Count output tuples of joining two key arrays without materialising them.

    One single-task :func:`count_regions` call on the sorted second side,
    so a whole-relation count and a region's count are the same kernel.
    Keys are counted in their own dtype
    (:func:`~repro.joins.conditions.normalise_keys`): integer keys stay
    exact above 2**53, which a ``float64`` coercion would silently round
    onto their neighbours.
    """
    outputs, _ = count_regions([(keys1, np.sort(normalise_keys(keys2)))], [condition])
    return int(outputs[0])


#: Key dtypes :func:`~repro.joins.conditions.normalise_keys` returns as they are.
_NORMALISED = (np.dtype(np.float64), np.dtype(np.int64))


def count_regions(
    tasks: "list[tuple]",
    conditions: "list[JoinCondition]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Count each non-empty ``(keys1, keys2[, cum])`` task in the calling process; time each one.

    The one per-region count loop:
    :func:`~repro.engine.cluster.run_partitioned_join` runs it over a batch
    join's routed regions and a pool worker of
    :func:`~repro.engine.executor.join_assigned_regions` over its one
    region.  (A stream batch is counted by its state owner instead, two
    kernel calls per batch: :meth:`~repro.streaming.backends.StateOwner.count`.)
    ``conditions[t]`` is task ``t``'s
    condition.  Tasks with an empty side produce nothing and are never
    timed; every second side is sorted ascending (a region's share as the
    router sorted it, or a run of the streaming state).  Each task's keys
    are counted in the common dtype of its two normalised sides
    (:func:`~repro.joins.conditions.normalise_keys`): integer needles
    meeting a float run are bounded as floats, so a strict integer step
    ``k +- 1`` never skips a fractional key.

    Joinable bounds are computed **once per condition per dispatch**, not
    once per task: the (normalised) first-side arrays of a condition's
    non-empty tasks are laid end to end, ``joinable_bounds`` runs once
    over the lot and every task searches with its slice.  Bounds are
    element-wise functions of the key, so a slice holds exactly what a
    per-task call would have returned.  What stays per task, and is all
    that is timed: the searches of its second side and their sum, one call
    of the compiled count kernel (:func:`repro.joins.native.count`: a
    galloping search per bound from the previous needle's answer;
    ``tests/reference_counting.py`` keeps the numpy form it equals bit for
    bit).  An integer run meeting float bounds is first cast to float64, as
    ``searchsorted`` would cast it.  The clock is read twice per non-empty
    task.

    A task's optional third entry makes its second side a *counted* run
    of the streaming state
    (:class:`~repro.streaming.incremental.SortedRegionState`): ``cum``
    holds the cumulative multiplicities of the sorted keys (``cum[0] ==
    0``, any sign), and a needle joins ``cum[hi] - cum[lo]`` of them
    instead of ``hi - lo`` -- what a pool worker counts when the
    streaming state's runs are shipped to it.  ``None``, or no third
    entry, counts every key once.  ``outputs`` and ``seconds`` have one
    entry per task.
    """
    # (condition, key dtype) -> the condition and its needle arrays.  The
    # dtype is part of the key so that laying arrays end to end never
    # promotes exact int64 keys to float.
    groups: "dict[tuple, tuple[JoinCondition, list[np.ndarray]]]" = {}
    # Per non-empty task: (task, second side, its counts, group, needles' position).
    searches: "list[tuple]" = []
    position = -1
    last_keys1 = last_condition = last_dtype = None
    for task, (keys1, keys2, *extra) in enumerate(tasks):
        if len(keys1) == 0 or keys2.size == 0:
            continue
        condition = conditions[task]
        run = keys2 if keys2.dtype in _NORMALISED else normalise_keys(keys2)
        if (
            keys1 is not last_keys1
            or condition is not last_condition
            or run.dtype != last_dtype
        ):
            needles = keys1
            if not (isinstance(keys1, np.ndarray) and keys1.dtype in _NORMALISED):
                needles = normalise_keys(keys1)
            dtype = np.promote_types(needles.dtype, run.dtype)
            group = (id(condition), dtype)
            arrays = groups.setdefault(group, (condition, []))[1]
            arrays.append(needles.astype(dtype, copy=False))
            position = len(arrays) - 1
            last_keys1, last_condition, last_dtype = keys1, condition, run.dtype
        cum = extra[0] if extra else None
        searches.append((task, run, cum, group, position))
    outputs = np.zeros(len(tasks), dtype=np.int64)
    seconds = np.zeros(len(tasks))
    bounds = {}
    for group, (condition, arrays) in groups.items():
        lows, highs = condition.joinable_bounds(
            arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        )
        stops = list(accumulate(map(len, arrays)))
        bounds[group] = [
            (lows[start:stop], highs[start:stop])
            for start, stop in zip([0] + stops, stops)
        ]
    for task, run, cum, group, position in searches:
        lows, highs = bounds[group][position]
        started = perf_counter()
        if run.dtype != lows.dtype:  # integer keys, a condition's float bounds
            run = run.astype(np.float64)
        native.count(run, cum, lows, highs, outputs[task : task + 1])
        seconds[task] = perf_counter() - started
    return outputs, seconds
