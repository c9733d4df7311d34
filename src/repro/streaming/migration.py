"""State migration between partitionings of a running streaming join.

A streaming join is stateful: every machine retains the tuples routed to its
region so far, because future arrivals on the other side must join against
them.  Swapping in a new partitioning therefore has a real cost -- every
retained tuple whose new home includes a machine that does not already hold
it must be shipped there.  :func:`plan_migration` computes that plan exactly
from the old per-machine index sets and the new partitioning, and the engine
charges the moved tuples into the cost model (they are received,
demarshalled and indexed like any other network arrival).

Two planning modes exist:

* ``mode="full"`` adopts the new partitioning *positionally*: new region
  ``r`` lands on machine ``r``, and the full routed history is diffed
  against what each machine already holds.  This is the naive rebuild --
  nothing ties new region ``r`` to the machine whose old state it most
  resembles, so a mild boundary shift can still reshuffle most of the
  cluster.
* ``mode="partial"`` first diffs the old and new region-to-machine mappings:
  it computes, for every (new region, machine) pair, how many retained
  tuples the machine already holds of that region, then picks a bijective
  region-to-machine assignment maximising that overlap (a greedy matching,
  never worse than the positional identity).  Only the regions whose
  assignment actually changed migrate state, and exactly that volume is
  charged -- the partial-migration volume is therefore always at most the
  full-migration volume, and zero when the mapping is unchanged.

Tuples are identified by their global arrival index
(:mod:`repro.streaming.arrivals`), so "already present on machine r" is an
exact set test, and replicated tuples (a tuple may live on several machines
under either partitioning) are handled naturally.  The plan also reports
per-machine departures, so tests can assert tuple conservation (for
non-replicating schemes, migrated-out == migrated-in per rebuild).

The key histories are :class:`~repro.streaming.arrivals.ArrivalLog` objects
or bare key arrays.  Under a window policy (:mod:`repro.streaming.window`)
only a log's *live* tuples are routed by the new partitioning, so a rebuild
migrates live state only -- expired tuples are neither shipped nor
resurrected onto machines that already dropped them.  A bare array is the
log of a stream that never trimmed: everything in it is live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.partitioning.base import Partitioning
from repro.streaming.arrivals import ArrivalLog

__all__ = ["MigrationPlan", "pad_assignments", "plan_migration", "route_live"]

#: Planning modes accepted by :func:`plan_migration`.
MIGRATION_MODES = ("full", "partial")


@dataclass
class MigrationPlan:
    """The exact tuple movements required to adopt a new partitioning.

    Attributes
    ----------
    new_assignments1, new_assignments2:
        Per-machine arrival-index arrays of the retained R1/R2 state under
        the *new* partitioning (machines whose new region is empty hold
        nothing).
    per_machine_arrivals:
        Tuples each machine must newly receive (it did not hold them under
        the old partitioning).
    per_machine_departures:
        Tuples each machine held under the old partitioning but no longer
        holds under the new one (dropped locally, shipped by the sender side
        of the arrivals above).  On a shrinking resize this vector covers
        the *old* fleet, so it can be longer than ``per_machine_arrivals``;
        a machine leaving the cluster departs everything it held.
    region_to_machine:
        The adopted region-to-machine bijection: new region ``r``'s state
        lives on machine ``region_to_machine[r]``.  The identity permutation
        under ``mode="full"``.
    mode:
        The planning mode that produced this plan (``"full"``/``"partial"``).
    total_moved:
        Sum of the per-machine arrivals -- the migration volume in tuples,
        which is what the engine charges into the cost model.
    """

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

    @property
    def total_moved(self) -> int:
        """Migration volume in tuples (sum of per-machine arrivals)."""
        return int(self.per_machine_arrivals.sum())

    @property
    def total_departed(self) -> int:
        """Tuples dropped by their old machines (sum of departures)."""
        return int(self.per_machine_departures.sum())


def pad_assignments(
    assignments: list[np.ndarray], num_machines: int
) -> list[np.ndarray]:
    """Extend a per-region assignment list to the full machine count.

    A partitioning may produce fewer regions than there are machines (the
    equi-weight histogram uses at most J); machines beyond the region count
    hold nothing.  Shared by the engine's routing and the migration planner
    so both paths pad identically.
    """
    empty = np.empty(0, dtype=np.int64)
    padded = [np.asarray(a, dtype=np.int64) for a in assignments]
    padded.extend(empty for _ in range(num_machines - len(padded)))
    return padded


def _overlap_matrix(
    routed: list[np.ndarray],
    held: list[np.ndarray],
    num_machines: int,
) -> np.ndarray:
    """J x J matrix of ``len(routed[r] & held[m])`` in one vectorised pass.

    The per-pair ``np.intersect1d`` rebuild this replaces re-sorted both
    sides J^2 times -- the ROADMAP-named scaling bottleneck for large-J
    grids.  Here the held side is flattened and sorted *once* (tagged by
    holding machine), every routed index finds its holders with two
    ``searchsorted`` passes, and the hits are histogrammed on
    ``region * J + machine`` pair codes.  Indices are unique within a
    region and within a machine (a region routes a tuple at most once, a
    machine holds it at most once), so each hit is one intersection member;
    an index held by several machines expands to one hit per holder, which
    is exactly how the per-pair intersections counted it.
    """
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


def _best_region_map(
    routed1: list[np.ndarray],
    routed2: list[np.ndarray],
    old1: list[np.ndarray],
    old2: list[np.ndarray],
    num_machines: int,
) -> np.ndarray:
    """Bijective region-to-machine map maximising already-held tuples.

    Greedy maximal matching on the (region, machine) overlap matrix, taken
    only if it retains at least as much state as the positional identity --
    so the resulting partial plan never migrates more than the full plan.
    Deterministic: ties break towards lower region then machine index.
    """
    overlaps = _overlap_matrix(routed1, old1, num_machines) + _overlap_matrix(
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


def route_live(
    assign,
    keys: "ArrivalLog | np.ndarray",
    num_machines: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Route one side's live tuples; return per-region global-index arrays.

    Shared by the migration planner and the engine's initial build (which
    routes the backlog that arrived before any partitioning existed).
    A bare key array or an unwindowed log is routed whole, and the
    partitioning's batch-local indices already are global indices.  Of a
    windowed log only the live keys are handed to the partitioning and the
    local indices are mapped back through the live set -- expired tuples
    are never routed, so a migration ships (and a post-migration machine
    holds) live state only.
    """
    if isinstance(keys, ArrivalLog):
        if keys.windowed:
            live = keys.live
            local = pad_assignments(assign(keys[live], rng), num_machines)
            return [live[indices] for indices in local]
        keys = keys.keys
    return pad_assignments(assign(np.asarray(keys), rng), num_machines)


def plan_migration(
    old_assignments1: list[np.ndarray],
    old_assignments2: list[np.ndarray],
    new_partitioning: Partitioning,
    keys1: "ArrivalLog | np.ndarray",
    keys2: "ArrivalLog | np.ndarray",
    num_machines: int,
    rng: np.random.Generator,
    mode: str = "full",
) -> MigrationPlan:
    """Plan the state movement from the old machine assignment to a new scheme.

    Parameters
    ----------
    old_assignments1, old_assignments2:
        Per-machine arrays of tuple arrival indices currently held (R1/R2).
    new_partitioning:
        The scheme taking over; it is asked to route the retained history
        (all of it, or only the live subset of a windowed log).
    keys1, keys2:
        The key histories: the engine's arrival logs, or bare key arrays
        indexed by arrival index (see :func:`route_live`).  Only live
        tuples can appear in the planned state -- a rebuild never ships (or
        resurrects) expired tuples, and the migration volume charged is the
        live volume only.
    num_machines:
        The *target* cluster size (at least the region count of the new
        partitioning).  The old assignment lists may be longer -- a shrink
        plans the surviving ``num_machines`` fleet and every tuple held by
        a departing machine counts as a departure there (and as an arrival
        on its new holder, if it is still live).  Shorter old lists (a
        grow) are padded with empty machines as before.
    rng:
        Generator for randomised schemes.
    mode:
        ``"full"`` places new region ``r`` on machine ``r``; ``"partial"``
        remaps regions to the machines already holding most of their state
        and migrates only the difference (see the module docstring).
    """
    if mode not in MIGRATION_MODES:
        raise ValueError(
            f"unknown migration mode {mode!r} (expected one of {MIGRATION_MODES})"
        )
    routed1 = route_live(new_partitioning.assign_r1, keys1, num_machines, rng)
    routed2 = route_live(new_partitioning.assign_r2, keys2, num_machines, rng)
    # A resize may shrink the fleet: the old lists then outnumber the new
    # machines.  Pad the old side to whichever count is larger so departing
    # machines' state is diffed (everything they hold departs), while the
    # new state, the matching and the arrival vector live on the target
    # fleet only.
    old_machines = max(len(old_assignments1), len(old_assignments2), num_machines)
    old1 = pad_assignments(old_assignments1, old_machines)
    old2 = pad_assignments(old_assignments2, old_machines)

    if mode == "partial":
        region_to_machine = _best_region_map(
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
