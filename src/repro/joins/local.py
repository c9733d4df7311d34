"""Local (single-machine) join algorithms.

Each worker in the shared-nothing engine joins the tuples routed to its
region with one of these algorithms.  The partitioning schemes are orthogonal
to the choice of local algorithm (paper, section IV): as long as every worker
runs the same algorithm, only the *amount* of input and output per worker
matters for load balance.

:func:`join_output_pairs` materialises the output pairs (the multiway
helper's intermediate results): a sort-merge join, or a hash join's output
for an equality condition.

For the simulator we rarely need materialised pairs, only their number:
routed needles are counted against sorted runs with two searches per
needle and run -- sorted needles each start where the previous one's answer
was, so an answer a few keys away costs a short walk and a farther one
``O(log gap)`` -- in the compiled kernel's fold
(:func:`repro.joins.native.fold`), which bounds the needles itself by the
condition's rule (:meth:`~repro.joins.conditions.JoinCondition.bound_rule`).
:func:`fold_half` states one half of a count as the fold takes it -- a
stream batch's two halves ride one fold with the batch's run cascades
(:meth:`~repro.streaming.backends.StateOwner.count`) -- and
:func:`count_runs` is a count with no state to fold in: a batch join
(:func:`~repro.engine.cluster.run_partitioned_join`) and
:func:`count_join_output`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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
    "join_output_pairs",
    "count_join_output",
    "count_runs",
    "fold_half",
]


def join_output_pairs(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> list[tuple[float, float]]:
    """Produce all output key pairs, as float64 keys.

    Each R1 key's joinable window of sorted R2 is found by binary search, so
    the cost is ``O(n log m + output)``.  An equality condition keeps R1's
    order and pairs each key with itself (a hash join's output); any other
    sorts R1 first (a sort-merge join's).
    """
    is_equi = isinstance(condition, EquiJoinCondition) or (
        isinstance(condition, BandJoinCondition) and condition.beta == 0
    )
    keys1 = np.asarray(keys1, dtype=np.float64)  # repro: ignore[KEY001]  # pairs are float-keyed by design
    keys2 = np.sort(np.asarray(keys2, dtype=np.float64))  # repro: ignore[KEY001]  # pairs are float-keyed by design
    if not is_equi:
        keys1 = np.sort(keys1)
    if len(keys1) == 0 or len(keys2) == 0:
        return []
    lows, highs = condition.joinable_bounds(keys1)
    left = np.searchsorted(keys2, lows, side="left").tolist()
    right = np.searchsorted(keys2, highs, side="right").tolist()
    out: list[tuple[float, float]] = []
    for k1, lo, hi in zip(keys1.tolist(), left, right):
        out.extend((k1, k1 if is_equi else k2) for k2 in keys2[lo:hi].tolist())
    return out


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


def fold_half(
    rule: "tuple[str, int | float]",
    needles: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    groups: list,
) -> tuple:
    """One half of a count as :func:`repro.joins.native.fold` takes it.

    ``(needles, rule, starts, stops, groups)``: machine ``m``'s needles are
    ``needles[starts[m]:stops[m]]`` (float64 or int64, normalised), bounded
    in the kernel by ``rule``, a condition's
    :meth:`~repro.joins.conditions.JoinCondition.bound_rule`, and
    ``groups`` the groups they search, each ``(runs, readers, cut,
    cascade)``.  A band's fractional width bounds integer needles in
    float64, as numpy's arithmetic on them does, so they are converted
    here: the kernel bounds int64 needles in int64 only.
    """
    if needles.dtype.kind != "f" and isinstance(rule[1], float):
        needles = needles.astype(np.float64)
    return needles, rule, starts, stops, groups


def count_runs(
    condition: JoinCondition,
    needles: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    groups: "list[tuple[list[tuple[np.ndarray, np.ndarray | None]], np.ndarray]]",
    cut: "MachineSlices | None",
    out: np.ndarray,
) -> None:
    """Count routed needles against sorted runs; add each machine's output into ``out``.

    A count with no state to fold in: a batch join
    (:func:`~repro.engine.cluster.run_partitioned_join`, the first half of
    a batch into empty state) and :func:`count_join_output` (one reader,
    one run).  ``groups`` lists, per group of the searched side, its
    ``(keys, cum)`` runs (one dtype per group) and the machines reading
    it, read through ``cut`` (a
    :class:`~repro.partitioning.grid_routed.MachineSlices`, or ``None``:
    whole); machine ``m``'s needles are ``needles[starts[m]:stops[m]]``.
    It is one :func:`repro.joins.native.fold` call with one half
    (:func:`fold_half`) and no cascade, which adds each machine's counts
    straight into its total.
    """
    if needles.size:
        groups = [(runs, readers, cut, None) for runs, readers in groups]
        half = fold_half(condition.bound_rule(), normalise_keys(needles), starts, stops, groups)
        native.fold([], [half], out)
