"""Reference migration planner: sort-based overlaps and ``setdiff1d`` counts.

Test-only.  These are the bodies ``repro.streaming.migration`` shipped
before the planner computed its overlaps once and derived the arrival and
departure counts from them, kept verbatim as the differential oracle
(``tests/test_migration_oracle.py``): a square overlap matrix per side built
by sorting the held indices and searching every routed index in them, then
four ``np.setdiff1d`` per machine to count what moves.

Two more bodies are kept from before state moved as key-sorted columns:
:func:`route_live`, which routed the live history with ``assign_r1`` /
``assign_r2`` into per-region *index* arrays padded to the fleet, and the
:class:`MigrationPlan` that carried those index arrays
(``new_assignments1`` / ``new_assignments2``).  ``plan_migration`` here
returns that plan; production's ``plan_install`` must return the same
figures, and route every machine the keys of these index arrays.

:func:`placement` is the derived state as production computed it for its
checkpoints until they stopped storing machine state: the live log cut by
the plan, region ``r``'s share on ``region_to_machine[r]``, as ``(arrival
indices, keys)`` columns per machine.

The last section is the argsort route, kept from before a key-range plan's
live tuples were sorted as values: :func:`argsort_live` argsorts every
side's ``(arrival index, key)`` pairs whatever the plans, and
:func:`argsort_held_by_machine`, :func:`argsort_plan_install` and
:func:`argsort_route_live` are the bodies that read it.  Production's
``plan_install`` / ``route_live`` must give the same plan arrays, layouts
and slices, and keys equal as values
(``tests/test_live_route_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.partitioning.one_bucket import OneBucketPartitioning
from repro.partitioning.routing import RoutedSide, _grouped, route_sorted, side_layout
from repro.streaming.arrivals import ArrivalLog
from repro.streaming import migration
from repro.streaming.migration import MIGRATION_MODES, pad_assignments


@dataclass
class MigrationPlan:
    """The plan as it carried index assignments, not columns."""

    new_assignments1: list[np.ndarray]
    new_assignments2: list[np.ndarray]
    per_machine_arrivals: np.ndarray
    per_machine_departures: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    region_to_machine: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    mode: str = "full"


def _assign(assign, keys: np.ndarray, indices: np.ndarray, rng) -> list[np.ndarray]:
    """``assign(keys, rng)`` for tuples of global arrival indices ``indices``.

    Every scheme routes by key except 1-Bucket, which draws each tuple's
    row or column from its arrival index: its shares are drawn from
    ``indices`` rather than from the positions ``assign`` would use.
    """
    owner = getattr(assign, "__self__", None)
    if isinstance(owner, OneBucketPartitioning):
        return owner._shares(1 if assign.__name__ == "assign_r1" else 2, indices)
    return assign(keys, rng)


def route_live(
    assign,
    keys: "ArrivalLog | np.ndarray",
    num_machines: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Route one side's live tuples; return per-region global-index arrays."""
    if isinstance(keys, ArrivalLog):
        if keys.windowed:
            live = keys.live
            local = pad_assignments(_assign(assign, keys[live], live, rng), num_machines)
            return [live[indices] for indices in local]
        keys = keys.keys
    keys = np.asarray(keys)
    return pad_assignments(_assign(assign, keys, np.arange(len(keys)), rng), num_machines)


def overlap_matrix(routed, held, num_machines: int) -> np.ndarray:
    """J x J matrix of ``len(routed[r] & held[m])`` in one vectorised pass."""
    J = num_machines
    overlaps = np.zeros((J, J), dtype=np.int64)
    routed_lengths = np.array([len(r) for r in routed], dtype=np.int64)
    held_lengths = np.array([len(h) for h in held], dtype=np.int64)
    if routed_lengths.sum() == 0 or held_lengths.sum() == 0:
        return overlaps
    routed_idx = np.concatenate(
        [np.asarray(r, dtype=np.int64) for r in routed]
    )
    region_of = np.repeat(np.arange(J, dtype=np.int64), routed_lengths)
    held_idx = np.concatenate([np.asarray(h, dtype=np.int64) for h in held])
    machine_of = np.repeat(np.arange(J, dtype=np.int64), held_lengths)
    order = np.argsort(held_idx, kind="stable")
    held_idx = held_idx[order]
    machine_of = machine_of[order]
    lo = np.searchsorted(held_idx, routed_idx, side="left")
    counts = np.searchsorted(held_idx, routed_idx, side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return overlaps
    # Ragged expansion: for every routed index, the positions of its
    # holders in the sorted held array (lo[i] .. lo[i]+counts[i]).
    positions = (
        np.repeat(lo, counts)
        + np.arange(total, dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
    )
    pair_codes = np.repeat(region_of * J, counts) + machine_of[positions]
    overlaps += np.bincount(pair_codes, minlength=J * J).reshape(J, J)
    return overlaps


def best_region_map(routed1, routed2, old1, old2, num_machines: int) -> np.ndarray:
    """Bijective region-to-machine map maximising already-held tuples."""
    overlaps = overlap_matrix(routed1, old1, num_machines) + overlap_matrix(
        routed2, old2, num_machines
    )

    pairs = sorted(
        (
            (-overlaps[region, machine], region, machine)
            for region in range(num_machines)
            for machine in range(num_machines)
            if overlaps[region, machine] > 0
        )
    )
    mapping = np.full(num_machines, -1, dtype=np.int64)
    taken = np.zeros(num_machines, dtype=bool)
    for negative_overlap, region, machine in pairs:
        if mapping[region] >= 0 or taken[machine]:
            continue
        mapping[region] = machine
        taken[machine] = True
    # Unmatched regions (no overlap anywhere) keep their positional slot
    # when free, else take the lowest free machine.
    free = [machine for machine in range(num_machines) if not taken[machine]]
    for region in range(num_machines):
        if mapping[region] >= 0:
            continue
        if not taken[region]:
            mapping[region] = region
            taken[region] = True
            free.remove(region)
        else:
            machine = free.pop(0)
            mapping[region] = machine
            taken[machine] = True

    greedy_total = int(overlaps[np.arange(num_machines), mapping].sum())
    identity_total = int(np.trace(overlaps))
    if greedy_total <= identity_total:
        return np.arange(num_machines, dtype=np.int64)
    return mapping


def plan_migration(
    old_assignments1,
    old_assignments2,
    new_partitioning,
    keys1,
    keys2,
    num_machines: int,
    rng: np.random.Generator,
    mode: str = "full",
) -> MigrationPlan:
    """Plan the state movement from the old machine assignment to a new scheme."""
    if mode not in MIGRATION_MODES:
        raise ValueError(
            f"unknown migration mode {mode!r} (expected one of {MIGRATION_MODES})"
        )
    routed1 = route_live(new_partitioning.assign_r1, keys1, num_machines, rng)
    routed2 = route_live(new_partitioning.assign_r2, keys2, num_machines, rng)
    old_machines = max(len(old_assignments1), len(old_assignments2), num_machines)
    old1 = pad_assignments(old_assignments1, old_machines)
    old2 = pad_assignments(old_assignments2, old_machines)

    if mode == "partial":
        region_to_machine = best_region_map(
            routed1,
            routed2,
            old1[:num_machines],
            old2[:num_machines],
            num_machines,
        )
    else:
        region_to_machine = np.arange(num_machines, dtype=np.int64)

    empty = np.empty(0, dtype=np.int64)
    new1: list[np.ndarray] = [empty] * num_machines
    new2: list[np.ndarray] = [empty] * num_machines
    for region, machine in enumerate(region_to_machine):
        new1[machine] = routed1[region]
        new2[machine] = routed2[region]

    arrivals = np.zeros(num_machines, dtype=np.int64)
    departures = np.zeros(old_machines, dtype=np.int64)
    for machine in range(old_machines):
        target1 = new1[machine] if machine < num_machines else empty
        target2 = new2[machine] if machine < num_machines else empty
        if machine < num_machines:
            moved_in1 = np.setdiff1d(target1, old1[machine], assume_unique=True)
            moved_in2 = np.setdiff1d(target2, old2[machine], assume_unique=True)
            arrivals[machine] = len(moved_in1) + len(moved_in2)
        moved_out1 = np.setdiff1d(old1[machine], target1, assume_unique=True)
        moved_out2 = np.setdiff1d(old2[machine], target2, assume_unique=True)
        departures[machine] = len(moved_out1) + len(moved_out2)
    return MigrationPlan(
        new_assignments1=new1,
        new_assignments2=new2,
        per_machine_arrivals=arrivals,
        per_machine_departures=departures,
        region_to_machine=region_to_machine,
        mode=mode,
    )


def placement(partitioning, side, keys, rng, num_machines, region_to_machine):
    """Per machine, the live tuples of one side it holds, as sorted columns.

    Every tuple reached its machine through ``partitioning`` and routing is
    a pure function of key and arrival index, so it is the live log cut by
    the plan and region ``r``'s share placed on ``region_to_machine[r]``:
    ``(arrival indices, keys)`` per machine, keys ascending.  Before any
    plan exists nothing is held.
    """
    live = argsort_live(keys)
    routed = (
        [] if partitioning is None
        else partitioning.cut_sorted(side, live.keys, live.indices, rng)
    )
    return migration._to_machines(routed, live.keys, region_to_machine, num_machines)


def held_indices(partitioning, side, keys, rng, num_machines, region_to_machine):
    """What every machine holds, as the engine read it before spans existed.

    :func:`placement`'s arrival indices, for every plan: the planner then
    overlaps index arrays, never slices.
    """
    return [
        indices
        for indices, _ in placement(
            partitioning, side, keys, rng, num_machines, region_to_machine
        )
    ]


def install(monkeypatch) -> None:
    """Swap the reference planner in where the engine resolves ``plan_install``.

    The engine installs the new plan's route of the live state, so the
    swapped-in planner hands back the production plan type and routed
    sides, built from the reference's index arrays by the old install's
    gather and stable key-sort (:func:`reference_install.plan_install`).
    It reads the old placement as index arrays (:func:`held_indices`).
    """
    import reference_install

    import repro.streaming.engine as engine

    monkeypatch.setattr(engine, "sorted_live", argsort_live)
    monkeypatch.setattr(engine, "held_by_machine", held_indices)
    monkeypatch.setattr(engine, "plan_install", reference_install.plan_install)


# ----------------------------------------------------------------------
# The argsort route: every side's live pairs argsorted, whatever the plans
# ----------------------------------------------------------------------
def argsort_live(keys, indexed: bool = True) -> migration.LiveKeys:
    """A side's live tuples as one argsort of their ``(arrival index, key)`` pairs.

    ``indexed`` is taken and ignored, so this stands in for
    ``migration.sorted_live`` anywhere: the indices are always made.  A
    :class:`~repro.streaming.migration.LiveKeys` passes through.
    """
    if isinstance(keys, migration.LiveKeys):
        return keys
    if isinstance(keys, ArrivalLog) and keys.windowed:
        indices, keys = keys.live, keys[keys.live]
    else:
        base = keys.base if isinstance(keys, ArrivalLog) else 0
        keys = np.asarray(keys.keys if isinstance(keys, ArrivalLog) else keys)
        indices = np.arange(base, base + len(keys))
    order = np.argsort(keys)
    return migration.LiveKeys(indices[order], keys[order])


def argsort_held_by_machine(partitioning, side, keys, rng, num_machines, region_to_machine):
    """``held_by_machine`` over :func:`argsort_live`: slices or index arrays."""
    live = argsort_live(keys)
    shares = []
    if partitioning is not None:
        spans = partitioning.cut_spans(side, live.keys)
        if spans is not None:
            return migration._spans_to_machines(spans, region_to_machine, num_machines)
        shares = partitioning.cut_sorted(side, live.keys, live.indices, rng)
    placed = migration._to_machines(shares, live.keys, region_to_machine, num_machines)
    return [indices for indices, _ in placed]


def argsort_plan_install(
    old_assignments1, old_assignments2, new_partitioning, keys1, keys2,
    num_machines: int, rng: np.random.Generator, mode: str = "full",
):
    """``plan_install`` over :func:`argsort_live`: ``(plan, layouts, routed)``."""
    if mode not in MIGRATION_MODES:
        raise ValueError(
            f"unknown migration mode {mode!r} (expected one of {MIGRATION_MODES})"
        )
    lives = argsort_live(keys1), argsort_live(keys2)
    routes = [
        migration._route(new_partitioning, side, live, rng, num_machines)
        for side, live in zip((1, 2), lives)
    ]
    old_machines = max(len(old_assignments1), len(old_assignments2), num_machines)
    olds = (
        migration._padded(old_assignments1, old_machines),
        migration._padded(old_assignments2, old_machines),
    )
    overlaps = sum(
        migration._overlaps(*route, old, live) for route, old, live in zip(routes, olds, lives)
    )
    if mode == "partial":
        region_to_machine = migration._best_region_map(overlaps[:, :num_machines])
    else:
        region_to_machine = np.arange(num_machines, dtype=np.int64)
    kept = np.zeros(old_machines, dtype=np.int64)
    kept[region_to_machine] = overlaps[np.arange(num_machines), region_to_machine]
    held = np.zeros(num_machines, dtype=np.int64)
    for shares, spans in routes:
        sizes = migration._sizes(spans if shares is None else [i for i, _ in shares])
        held[region_to_machine] += sizes
    plan = migration.MigrationPlan(
        per_machine_arrivals=held - kept[:num_machines],
        per_machine_departures=migration._sizes(olds[0]) + migration._sizes(olds[1]) - kept,
        region_to_machine=region_to_machine,
        mode=mode,
    )
    layouts = tuple(
        side_layout(new_partitioning, side, region_to_machine, num_machines)
        for side in (1, 2)
    )
    routed = []
    for side, (shares, spans), live, layout in zip((1, 2), routes, lives, layouts):
        if spans is None:
            routed.append(
                _grouped(
                    new_partitioning, side, shares, layout, region_to_machine,
                    num_machines,
                )
            )
        else:
            placed = migration._spans_to_machines(spans, region_to_machine, num_machines)
            routed.append(RoutedSide(live.keys, placed.starts, placed.stops, layout))
    return plan, layouts, tuple(routed)


def argsort_route_live(partitioning, live1, live2, rng, region_to_machine, num_machines):
    """``route_live`` over :func:`argsort_live`: ``(layouts, routed)``."""
    layouts = tuple(
        side_layout(partitioning, side, region_to_machine, num_machines)
        for side in (1, 2)
    )
    routed = tuple(
        route_sorted(
            partitioning, side, live.keys, live.indices, rng, layout,
            region_to_machine, num_machines,
        )
        for side, live, layout in (
            (1, argsort_live(live1), layouts[0]),
            (2, argsort_live(live2), layouts[1]),
        )
    )
    return layouts, routed
