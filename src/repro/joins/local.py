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
routed needles are counted against sorted runs with two searches per
needle and run -- sorted needles each start where the previous one's answer
was, so an answer a few keys away costs a short walk and a farther one
``O(log gap)`` -- in the compiled kernel's fold
(:func:`repro.joins.native.fold`).  :func:`search_half` states one half
of a count as the fold takes it -- a stream batch's two halves ride one
fold with the batch's run merges
(:meth:`~repro.streaming.backends.StateOwner.count`) -- and
:func:`count_runs` is a count with no state to fold in: a batch join
(:func:`~repro.engine.cluster.run_partitioned_join`) and
:func:`count_join_output`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    JoinCondition,
    normalise_keys,
)

if TYPE_CHECKING:
    from repro.partitioning.grid_routed import MachineSlices

__all__ = [
    "nested_loop_join",
    "sort_merge_band_join",
    "hash_equi_join",
    "join_output_pairs",
    "count_join_output",
    "count_runs",
    "search_half",
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

    One :func:`count_runs` call with one reader and one run, the sorted
    second side, so a whole-relation count, a batch join and a stream batch
    are the same kernel.  Keys are counted in their own dtype
    (:func:`~repro.joins.conditions.normalise_keys`): integer keys stay
    exact above 2**53, which a ``float64`` coercion would silently round
    onto their neighbours.
    """
    keys1 = np.asarray(keys1)
    out = np.zeros(1, dtype=np.int64)
    count_runs(
        condition, keys1, _FIRST, np.array([keys1.size], dtype=np.int64),
        [([(np.sort(normalise_keys(keys2)), None)], _FIRST)], None, out,
    )
    return int(out[0])


#: Machine 0 alone: the reader, and the start of its share, of a one-machine count.
_FIRST = np.zeros(1, dtype=np.int64)


def _bounds(
    condition: JoinCondition, keys: np.ndarray, dtype: np.dtype
) -> "tuple[np.ndarray, np.ndarray]":
    """``condition``'s joinable bounds of ``keys`` brought to their common dtype with ``dtype``.

    Integer needles meeting float runs are bounded as floats, so a strict
    integer step ``k +- 1`` never skips a fractional key.
    """
    needles = normalise_keys(keys)
    return condition.joinable_bounds(
        needles.astype(np.promote_types(needles.dtype, dtype), copy=False)
    )


def search_half(
    condition: JoinCondition,
    needles: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    groups: "Iterable[tuple[list, np.ndarray, int | None, np.dtype]]",
    cut: "MachineSlices | None",
    bounds: "dict | None" = None,
) -> "Iterable[tuple]":
    """One half of a count as :func:`repro.joins.native.fold` takes it: its entries.

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
    one fold entry per key dtype.  ``bounds`` (a dict, key dtype -> the
    bounds) keeps them for the next call over the same needles.
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


def count_runs(
    condition: JoinCondition,
    needles: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    groups: "Iterable[tuple[list[tuple[np.ndarray, np.ndarray | None]], np.ndarray]]",
    cut: "MachineSlices | None",
    out: np.ndarray,
) -> None:
    """Count routed needles against sorted runs; add each machine's output into ``out``.

    A count with no state to fold in: a batch join
    (:func:`~repro.engine.cluster.run_partitioned_join`, the first half of
    a batch into empty state) and :func:`count_join_output` (one reader,
    one run).  ``groups`` lists, per group of the searched side, its
    ``(keys, cum)`` runs (one dtype per group) and the machines reading
    it; the rest is :func:`search_half`'s.  It is one
    :func:`repro.joins.native.fold` call with one half and no merge, which
    adds each machine's counts straight into its total.
    """
    if needles.size:
        groups = [(runs, readers, None, runs[0][0].dtype) for runs, readers in groups if runs]
        native.fold([], search_half(condition, needles, starts, stops, groups, cut), out)
