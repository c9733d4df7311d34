"""One side's tuples routed to machines: the shape both engines count in.

A plan routes a side to its machines as one key array and, per machine, the
slice of it that machine receives (:class:`RoutedSide`), read through the
plan's :class:`SideLayout`.  The streaming engine routes every batch, expired
slice and live state this way and hands it to its backend; batch execution
(:func:`~repro.engine.cluster.run_partitioned_join` and the multiprocess
executor) routes each side of a join once, region ``r`` to machine ``r``,
and counts it as the first half of a stream batch into empty state.
:func:`route_batch` routes unsorted arrivals, :func:`route_sorted` a side
already key-sorted, and :func:`side_layout` says how a plan's machines read
a side's state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.partitioning.base import Partitioning
from repro.partitioning.grid_routed import GridRoutedPartitioning, MachineSlices

__all__ = [
    "RoutedSide",
    "SideLayout",
    "reads_indices",
    "route_batch",
    "route_sorted",
    "side_layout",
]


class SideLayout:
    """How the machines of one plan read one side's join state.

    A side's state is a few groups, each one counted
    :class:`~repro.streaming.incremental.SortedRegionState`, and every
    machine reads one of them: ``readers[g]`` lists the machines reading
    group ``g``, ascending (a machine holding no region reads none).
    ``cut`` says which part: the machines' key ranges under the slice rule
    of :mod:`repro.partitioning.grid_routed`, as a
    :class:`~repro.partitioning.grid_routed.MachineSlices` aligned with
    ``readers[0]`` -- called with a key-sorted run of a group, every
    machine's slice of it as ``(lows, highs)`` position arrays; read by the
    count kernel, the same rule applied in C.  ``None`` means every reader
    sees its group whole.  ``whole`` says the ranges cover every key, so
    the one group holds everything routed.

    A grid-routed plan is one group read through ``cut``; 1-Bucket is one
    group per draw (grid rows for R1, grid columns for R2), read whole;
    per-machine arrays (:meth:`RoutedSide.of`) are one group per machine.
    """

    __slots__ = ("readers", "cut", "whole")

    def __init__(
        self,
        readers: "list[np.ndarray]",
        cut: "MachineSlices | None" = None,
        whole: bool = False,
    ) -> None:
        self.readers = [np.asarray(machines, dtype=np.int64) for machines in readers]
        self.cut = cut
        self.whole = whole


class RoutedSide(NamedTuple):
    """One side's routed keys: every machine's share is a slice of one array.

    Machine ``m`` receives ``keys[starts[m]:stops[m]]``, ascending (NaN
    last).  Slices may overlap -- a replicated tuple is in several -- and a
    machine holding no region has an empty one.  ``layout`` is the plan's
    :class:`SideLayout` (``None`` before any plan exists: nothing is
    routed, nothing held).  Keys are read, never written, and never kept
    by a backend: the state copies what it appends.
    """

    keys: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    layout: "SideLayout | None"

    @classmethod
    def of(cls, per_machine: "list[np.ndarray]") -> "RoutedSide":
        """Per-machine key-sorted arrays as one routed side, a group per machine.

        The shape a sticky worker receives and tests build by hand: each
        machine's keys laid end to end, every machine reading a group of
        its own.
        """
        sizes = np.array([len(keys) for keys in per_machine], dtype=np.int64)
        stops = sizes.cumsum()
        busy = [keys for keys in per_machine if len(keys)]
        if busy:
            keys = busy[0] if len(busy) == 1 else np.concatenate(busy)
        else:
            keys = per_machine[0][:0] if len(per_machine) else np.empty(0)
        layout = SideLayout([[machine] for machine in range(len(per_machine))])
        return cls(keys, stops - sizes, stops, layout)

    @property
    def sizes(self) -> np.ndarray:
        """Keys per machine (a replicated key counts once per machine)."""
        return self.stops - self.starts

    def columns(self) -> "list[np.ndarray]":
        """Each machine's keys: views of :attr:`keys`."""
        keys = self.keys
        return [
            keys[start:stop]
            for start, stop in zip(self.starts.tolist(), self.stops.tolist())
        ]

    def group_keys(self, group: int) -> np.ndarray:
        """The keys group ``group`` holds of these: its readers' slices, each key once.

        The union of the readers' slices -- all of :attr:`keys` when the
        layout's ranges cover every key, one slice when the readers all read
        the same one (a draw group, a machine of its own) -- ascending.
        """
        if self.layout.whole:
            return self.keys
        readers = self.layout.readers[group]
        pieces = _union(self.starts[readers], self.stops[readers])
        if len(pieces) == 1:
            start, stop = pieces[0]
            return self.keys[start:stop]
        return np.concatenate([self.keys[start:stop] for start, stop in pieces] or [self.keys[:0]])


def _union(starts: np.ndarray, stops: np.ndarray) -> "list[tuple[int, int]]":
    """The non-empty slices ``[starts[i], stops[i])`` merged into disjoint ascending ones."""
    merged: "list[tuple[int, int]]" = []
    for start, stop in sorted(zip(starts.tolist(), stops.tolist())):
        if start >= stop:
            continue
        if merged and start <= merged[-1][1]:
            if stop > merged[-1][1]:
                merged[-1] = (merged[-1][0], stop)
        else:
            merged.append((start, stop))
    return merged


def _check_fleet(partitioning: Partitioning, num_machines: int) -> None:
    """Raise unless every region of the plan can have a machine of its own."""
    if partitioning.num_regions > num_machines:
        raise ValueError(
            f"a partitioning of {partitioning.num_regions} regions needs at "
            f"least {partitioning.num_regions} machines, got {num_machines}"
        )


def side_layout(
    partitioning: Partitioning, side: int, region_to_machine, num_machines: int
) -> SideLayout:
    """How ``num_machines`` machines read one side's state under a plan.

    Region ``r`` is on machine ``region_to_machine[r]``.  A grid plan's
    shares are key ranges: one group every machine reads through its
    region's range, cut from each sorted run by the plan's slice rule
    (:meth:`GridRoutedPartitioning.machine_slicer
    <repro.partitioning.grid_routed.GridRoutedPartitioning.machine_slicer>`).
    Any other plan has a group per set of identical shares
    (:meth:`Partitioning.share_groups
    <repro.partitioning.base.Partitioning.share_groups>`), read whole.
    """
    _check_fleet(partitioning, num_machines)
    if isinstance(partitioning, GridRoutedPartitioning):
        return SideLayout(
            [np.arange(num_machines, dtype=np.int64)],
            partitioning.machine_slicer(side, region_to_machine, num_machines),
            whole=partitioning.covers_all(side),
        )
    groups = partitioning.share_groups(side)
    machines = np.asarray(region_to_machine, dtype=np.int64)[: partitioning.num_regions]
    return SideLayout(
        [np.sort(machines[groups == group]) for group in range(int(groups.max()) + 1)]
    )


def reads_indices(partitioning: "Partitioning | None") -> bool:
    """Whether routing a key-sorted side by ``partitioning`` reads arrival indices.

    A grid plan's shares are key ranges, cut from the keys alone (its
    layout's ``cut``); any other plan's are cut by
    :meth:`~repro.partitioning.base.Partitioning.cut_sorted`, which names
    its tuples by arrival index (1-Bucket draws from it).  ``None``, no
    plan yet, routes nothing and reads none.
    """
    return partitioning is not None and not isinstance(partitioning, GridRoutedPartitioning)


def route_sorted(
    partitioning: Partitioning,
    side: int,
    keys: np.ndarray,
    indices: "np.ndarray | None",
    rng: np.random.Generator,
    layout: SideLayout,
    region_to_machine,
    num_machines: int,
) -> RoutedSide:
    """Key-sorted tuples of one side, routed: what the backend protocol takes.

    ``keys`` ascend (NaN last) and ``indices`` are their arrival indices,
    read only by shares that are not key ranges (:func:`reads_indices`;
    ``None`` otherwise).  A grid plan's shares are
    slices of ``keys`` as they are; any other plan's shares are laid end to
    end, one per group of ``layout`` (:func:`side_layout`), and every
    machine gets its region's group's slice.
    """
    if layout.cut is not None:
        return RoutedSide(keys, *layout.cut(keys), layout)
    shares = _per_region(partitioning, side, partitioning.cut_sorted(side, keys, indices, rng))
    return _grouped(partitioning, side, shares, layout, region_to_machine, num_machines)


def _per_region(
    partitioning: Partitioning, side: int, shares: "list[tuple[np.ndarray, np.ndarray]]"
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """``shares`` as the plan routed them; a ``ValueError`` unless one per region."""
    if len(shares) != partitioning.num_regions:
        raise ValueError(
            f"the partitioning routed R{side} to {len(shares)} regions, "
            f"but has {partitioning.num_regions}: routing must return one "
            "share per region"
        )
    return shares


def _grouped(
    partitioning: Partitioning,
    side: int,
    shares: "list[tuple[np.ndarray, np.ndarray]]",
    layout: SideLayout,
    region_to_machine,
    num_machines: int,
) -> RoutedSide:
    """Per-region shares that are not key ranges as one routed side.

    Regions of one group of ``layout`` receive the same share, so it is laid
    down once, the groups end to end, and every machine gets its region's
    group's slice.
    """
    machines = np.asarray(region_to_machine, dtype=np.int64)[: partitioning.num_regions]
    groups = partitioning.share_groups(side)
    first: "dict[int, int]" = {}
    for region, group in enumerate(groups.tolist()):
        first.setdefault(group, region)
    pieces = [shares[first[group]][1] for group in range(len(layout.readers))]
    sizes = np.array([len(piece) for piece in pieces], dtype=np.int64)
    ends = sizes.cumsum()
    starts = np.zeros(num_machines, dtype=np.int64)
    stops = np.zeros(num_machines, dtype=np.int64)
    starts[machines], stops[machines] = (ends - sizes)[groups], ends[groups]
    return RoutedSide(np.concatenate(pieces), starts, stops, layout)


def route_batch(
    partitioning: Partitioning,
    side: int,
    keys: np.ndarray,
    rng: np.random.Generator,
    offset: "int | np.ndarray",
    layout: SideLayout,
    region_to_machine,
    num_machines: int,
) -> RoutedSide:
    """:func:`route_sorted` of unsorted arrivals: a batch, or an expired slice.

    ``offset`` names the tuples as in :meth:`Partitioning.sorted_arrivals
    <repro.partitioning.base.Partitioning.sorted_arrivals>`.  Key-range
    shares never read an arrival index, so their keys are sorted alone;
    any other plan routes the arrivals as they come
    (:meth:`~repro.partitioning.base.Partitioning.sorted_arrivals`), so a
    randomised scheme draws per tuple in arrival order.
    """
    keys = np.asarray(keys)
    if layout.cut is not None:
        keys = np.sort(keys)
        return RoutedSide(keys, *layout.cut(keys), layout)
    shares = _per_region(partitioning, side, partitioning.sorted_arrivals(side, keys, rng, offset))
    return _grouped(partitioning, side, shares, layout, region_to_machine, num_machines)
