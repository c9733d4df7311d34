"""The pre-slice batch route, kept verbatim as a differential oracle.

Until the router sorted a batch once and cut it into slices, a batch's
arrivals reached a machine's sorted state in four steps, each re-deriving
per machine what one sort of the batch gives:

1. ``assign_r1`` / ``assign_r2`` -- for a grid-routed plan, one boolean row
   (column) mask and ``flatnonzero`` per region over the batch's row indices;
2. ``StreamingJoinEngine._globalise`` -- per region, the batch-local indices
   shifted to global arrival indices and placed on ``region_to_machine[r]``;
3. ``state_layout`` -- per machine, the keys gathered back out of the key
   history by global index;
4. ``SortedRegionState.insert`` -- per machine, a stable argsort of those
   keys and a gather of both columns.

The functions below are those four bodies as they stood, and
:func:`reference_route` chains them into what the production route must
hand ``count_batch``: per machine, ``(arrival indices, keys)`` ascending by
key with equal keys in arrival order.  :class:`ReferenceRouteEngine` installs
the chain in a real engine: :func:`as_routed` hands its columns over as the
one-array ``RoutedSide`` the backends take, and checks on the way that they
are what that shape can say -- for a key-range plan each machine's keys a
slice of the sorted batch, for 1-Bucket one share per draw group.  Test-only, like the other ``reference_*``
modules; nothing under ``src/`` may import it.
"""

from __future__ import annotations

import numpy as np
from reference_migration import route_live

from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.one_bucket import OneBucketPartitioning
from repro.partitioning.routing import RoutedSide, side_layout
from repro.streaming.engine import StreamingJoinEngine

__all__ = [
    "ReferenceRouteEngine",
    "assign_r1",
    "assign_r2",
    "globalise",
    "gather_layout",
    "sorted_columns",
    "reference_route",
    "as_routed",
]


# ----------------------------------------------------------------------
# 1. GridRoutedPartitioning.assign_r1 / assign_r2: masks over row indices
# ----------------------------------------------------------------------
def _row_index(partitioning, keys: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(partitioning.row_boundaries, np.asarray(keys, dtype=np.float64),
                          side="right") - 1
    return np.clip(idx, 0, len(partitioning.row_boundaries) - 2)


def _col_index(partitioning, keys: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(partitioning.col_boundaries, np.asarray(keys, dtype=np.float64),
                          side="right") - 1
    return np.clip(idx, 0, len(partitioning.col_boundaries) - 2)


def assign_r1(partitioning, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """A grid-routed plan's mask assignment; any other scheme's own."""
    if not isinstance(partitioning, GridRoutedPartitioning):
        return partitioning.assign_r1(keys, rng)
    rows = _row_index(partitioning, keys)
    return [
        np.flatnonzero((rows >= region.row_lo) & (rows <= region.row_hi))
        for region in partitioning.regions
    ]


def assign_r2(partitioning, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """A grid-routed plan's mask assignment; any other scheme's own."""
    if not isinstance(partitioning, GridRoutedPartitioning):
        return partitioning.assign_r2(keys, rng)
    cols = _col_index(partitioning, keys)
    return [
        np.flatnonzero((cols >= region.col_lo) & (cols <= region.col_hi))
        for region in partitioning.regions
    ]


# ----------------------------------------------------------------------
# 2. StreamingJoinEngine._globalise
# ----------------------------------------------------------------------
def globalise(
    local_assignments: list[np.ndarray],
    offset: int,
    region_to_machine: np.ndarray,
    num_machines: int,
) -> list[np.ndarray]:
    """Convert per-region batch-local indices to per-machine arrival indices."""
    empty = np.empty(0, dtype=np.int64)
    per_machine: list[np.ndarray] = [empty] * num_machines
    for region, local in enumerate(local_assignments):
        machine = int(region_to_machine[region])
        per_machine[machine] = np.asarray(local, dtype=np.int64) + offset
    return per_machine


# ----------------------------------------------------------------------
# 3. state_layout's gather, one side
# ----------------------------------------------------------------------
def gather_layout(indices: list[np.ndarray], history) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per machine, the index array and its keys gathered from the history."""
    columns = []
    for idx in indices:
        idx = np.asarray(idx, dtype=np.int64)
        columns.append((idx, history[idx]))
    return columns


# ----------------------------------------------------------------------
# 4. SortedRegionState.insert's per-machine stable sort
# ----------------------------------------------------------------------
def sorted_columns(new_indices: np.ndarray, new_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(index, keys)`` run an insert appended (before any merge)."""
    new_keys = np.asarray(new_keys)
    order = np.argsort(new_keys, kind="stable")
    return np.asarray(new_indices, dtype=np.int64)[order], new_keys[order]


def reference_route(
    partitioning,
    side: int,
    keys: np.ndarray,
    rng: np.random.Generator,
    offset: int,
    region_to_machine: np.ndarray,
    num_machines: int,
    history,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Steps 1-4 for one side of one batch: per machine, sorted columns.

    ``history`` is anything indexable by global arrival index that already
    holds the batch at ``offset`` (an ``ArrivalLog`` or a bare array).
    """
    assign = assign_r1 if side == 1 else assign_r2
    if isinstance(partitioning, OneBucketPartitioning):
        # 1-Bucket draws each tuple's row or column from its arrival index.
        local = partitioning._shares(side, offset + np.arange(len(keys)))
    else:
        local = assign(partitioning, keys, rng)
    per_machine = globalise(local, offset, region_to_machine, num_machines)
    return [sorted_columns(idx, held) for idx, held in gather_layout(per_machine, history)]


def as_routed(columns: "list[np.ndarray]", keys: np.ndarray, layout) -> RoutedSide:
    """Per-machine sorted keys as a ``RoutedSide`` read through ``layout``.

    ``keys`` is everything routed (the batch, or the live backlog).  Under
    key ranges every machine's keys must be one slice of ``keys`` sorted;
    under draw groups every reader of a group must hold the same keys.
    Either is asserted, so a chain that routed otherwise fails here.
    """
    machines = len(columns)
    starts = np.zeros(machines, dtype=np.int64)
    stops = np.zeros(machines, dtype=np.int64)
    if layout.cut is not None:
        whole = np.sort(keys)
        for machine, held in enumerate(columns):
            if len(held):
                starts[machine] = np.searchsorted(whole, held[0], side="left")
                stops[machine] = starts[machine] + len(held)
                np.testing.assert_array_equal(whole[starts[machine] : stops[machine]], held)
        return RoutedSide(whole, starts, stops, layout)
    pieces, start = [], 0
    for readers in layout.readers:
        share = columns[readers[0]]
        for machine in readers.tolist():
            np.testing.assert_array_equal(columns[machine], share)
            starts[machine], stops[machine] = start, start + len(share)
        pieces.append(share)
        start += len(share)
    return RoutedSide(np.concatenate(pieces), starts, stops, layout)


class ReferenceRouteEngine(StreamingJoinEngine):
    """A production engine whose route stage is the old four-step chain.

    ``count_batch`` takes each machine's keys, so the chain's columns are
    handed over without their indices (:func:`as_routed`).
    """

    def _route(self, s, batch, offsets, initial_build):
        if s.partitioning is None:
            return None
        J = self.num_machines
        with self.tracer.span("route", category="stage", initial_build=initial_build):
            if initial_build:
                s.region_to_machine = np.arange(J, dtype=np.int64)
                s.layouts = tuple(
                    side_layout(s.partitioning, side, s.region_to_machine, J)
                    for side in (1, 2)
                )
                return tuple(
                    as_routed(
                        [sorted_columns(idx, held)[1] for idx, held in gather_layout(routed, log)],
                        log[log.live] if log.windowed else log.keys,
                        layout,
                    )
                    for routed, log, layout in (
                        (route_live(s.partitioning.assign_r1, s.log1, J, s.rng), s.log1, s.layouts[0]),
                        (route_live(s.partitioning.assign_r2, s.log2, J, s.rng), s.log2, s.layouts[1]),
                    )
                )
            return tuple(
                as_routed(
                    [
                        held
                        for _, held in reference_route(
                            s.partitioning, side, keys, s.rng, offset,
                            s.region_to_machine, J, log,
                        )
                    ],
                    np.asarray(keys),
                    layout,
                )
                for side, keys, offset, log, layout in (
                    (1, batch.keys1, offsets[0], s.log1, s.layouts[0]),
                    (2, batch.keys2, offsets[1], s.log2, s.layouts[1]),
                )
            )
