"""State migration between partitionings of a running streaming join.

A streaming join is stateful: every machine retains the tuples routed to its
region so far, because future arrivals on the other side must join against
them.  Swapping in a new partitioning therefore has a real cost -- every
retained tuple whose new home includes a machine that does not already hold
it must be shipped there.  :func:`plan_install` computes that volume exactly
from what every machine holds and the new partitioning, and the engine
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

Machines hold keys only, so what every machine holds is *derived*: every
tuple a machine holds reached it through the current plan, so its state is
the live log routed by that plan and placed by the adopted region-to-machine
map (:func:`held_by_machine`).  The engine sorts each side's live tuples
once (:func:`sorted_live`) and cuts that one sort by the old plan and by the
new.  A grid plan's shares are key ranges: slices of that sort
(:meth:`~repro.partitioning.base.Partitioning.cut_spans`), found from the
keys alone.  When both plans are grids the sort is therefore one values
sort of the live keys -- no argsort, no arrival index -- and, positions
being tuples one to one, the overlap of new region ``r`` with old machine
``m`` is span arithmetic -- ``max(0, min(stop_r, stop_m) - max(start_r,
start_m))``, one ``J x J`` broadcast.  A plan that routes by arrival index
(:func:`~repro.partitioning.routing.reads_indices`: 1-Bucket, any
``cut_sorted`` scheme) on either side makes the sort one argsort of the
``(arrival index, key)`` pairs, so every route of it reads indices and keys
of the same sort, and its overlaps mark arrival indices
(:func:`_overlap_matrix`).

The key histories are :class:`~repro.streaming.arrivals.ArrivalLog` objects,
bare key arrays or a :class:`LiveKeys` sort of either.  Under a window
policy (:mod:`repro.streaming.window`) only a log's *live* tuples are
routed, so a rebuild migrates live state only -- expired tuples are neither
shipped nor resurrected onto machines that already dropped them.  A bare
array is the log of a stream that never trimmed: everything in it is live.

The live state an initial build or restore hands ``install_state`` is
routed here too (:func:`route_live`, from the same one sort, indexed only
for a plan that reads indices), in the shape every backend verb
takes (:mod:`repro.partitioning.routing`: a side routed into one key
array with a slice per machine, read through the plan's
:func:`~repro.partitioning.routing.side_layout`).  A migration's
new state is the route its diff read, handed out as it is: the plan's
figures and the two routed sides come from one call, and no per-machine
column of arrival indices is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.partitioning.base import Partitioning, Spans, sort_arrivals
from repro.partitioning.routing import (
    RoutedSide,
    SideLayout,
    _check_fleet,
    _grouped,
    reads_indices,
    route_sorted,
    side_layout,
)
from repro.streaming.arrivals import ArrivalLog

__all__ = [
    "LiveKeys",
    "MigrationPlan",
    "held_by_machine",
    "pad_assignments",
    "plan_install",
    "route_live",
    "sorted_live",
]

#: Planning modes accepted by :func:`plan_install`.
MIGRATION_MODES = ("full", "partial")


@dataclass
class MigrationPlan:
    """The exact tuple movements required to adopt a new partitioning.

    Attributes
    ----------
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
    """Extend a per-machine index-array list to ``num_machines`` entries.

    The planner's view of the old state: machines beyond the list (a grow)
    hold nothing.
    """
    empty = np.empty(0, dtype=np.int64)
    padded = [np.asarray(a, dtype=np.int64) for a in assignments]
    padded.extend(empty for _ in range(num_machines - len(padded)))
    return padded


def _sizes(assignments: "list[np.ndarray] | Spans") -> np.ndarray:
    """Per-machine tuple counts of an assignment list or of slices."""
    if isinstance(assignments, Spans):
        return assignments.sizes
    return np.array([len(indices) for indices in assignments], dtype=np.int64)


def _overlap_matrix(routed: list[np.ndarray], held: list[np.ndarray]) -> np.ndarray:
    """``len(routed[r] & held[m])`` for every region ``r`` and machine ``m``.

    A ``(len(routed), len(held))`` matrix from a sort-free pass over one
    scratch vector spanning the live arrival indices: per holding machine,
    mark its indices, gather the marks at every region's routed indices
    (laid end to end), sum them per region with ``np.add.reduceat``, and
    unmark.  ``O(machines * (routed + held))`` time and ``O(span)`` scratch.
    Indices are unique within a region and within a machine (a region routes
    a tuple at most once, a machine holds it at most once), so each mark
    gathered is one intersection member; an index held by several machines
    is counted once per holder.  The pass for shares that are not slices of
    one sort -- a 1-Bucket plan on either side, or index arrays from the
    caller; two grid plans overlap by span arithmetic instead
    (:meth:`Spans.overlaps <repro.partitioning.base.Spans.overlaps>`).  Its
    time is linear in J, and it was measured at J = 8 and 12 only: at a much
    larger J, time it against the J-independent sort-based
    ``tests/reference_migration.overlap_matrix`` before relying on it.
    """
    overlaps = np.zeros((len(routed), len(held)), dtype=np.int64)
    routed_idx, held_idx = np.concatenate(routed), np.concatenate(held)
    if len(routed_idx) == 0 or len(held_idx) == 0:
        return overlaps
    # ``reduceat`` returns an element, not 0, for an empty segment: only
    # the non-empty regions get a segment, the others keep their zero row.
    lengths = _sizes(routed)
    regions = np.flatnonzero(lengths)
    starts = np.cumsum(lengths[regions]) - lengths[regions]
    base = min(routed_idx.min(), held_idx.min())
    marks = np.zeros(max(routed_idx.max(), held_idx.max()) - base + 1, dtype=bool)
    routed_idx -= base
    for machine, indices in enumerate(held):
        indices = indices - base
        marks[indices] = True
        overlaps[regions, machine] = np.add.reduceat(
            marks[routed_idx], starts, dtype=np.int64
        )
        marks[indices] = False
    return overlaps


def _best_region_map(overlaps: np.ndarray) -> np.ndarray:
    """Bijective region-to-machine map maximising already-held tuples.

    Greedy maximal matching on the square (region, machine) overlap matrix
    (both sides summed), taken only if it retains at least as much state as
    the positional identity -- so the resulting partial plan never migrates
    more than the full plan.  Deterministic: ties break towards lower region
    then machine index.
    """
    num_machines = len(overlaps)
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


def _to_machines(
    per_region: "list[tuple[np.ndarray, np.ndarray]]",
    keys: np.ndarray,
    region_to_machine,
    num_machines: int,
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Hand each region's routed columns to the machine holding the region.

    The one regions-to-machines placement of per-region columns -- a new
    plan's shares padded to the fleet, and what every machine holds under a
    plan whose shares are not slices (:func:`held_by_machine`).  Region
    ``r``'s columns go to
    ``region_to_machine[r]``, the machine actually holding that region's
    state after any partial-repartitioning remap; a machine holding no
    region gets empty columns, the keys in the dtype of ``keys`` (the keys
    the regions were routed from).
    """
    empty = (np.empty(0, dtype=np.int64), keys[:0])
    per_machine = [empty] * num_machines
    for region, columns in enumerate(per_region):
        per_machine[region_to_machine[region]] = columns
    return per_machine


def _spans_to_machines(spans: Spans, region_to_machine, num_machines: int) -> Spans:
    """:func:`_to_machines` of slices: region ``r``'s on ``region_to_machine[r]``."""
    machines = np.asarray(region_to_machine, dtype=np.int64)[: len(spans)]
    starts = np.zeros(num_machines, dtype=np.int64)
    stops = np.zeros(num_machines, dtype=np.int64)
    starts[machines], stops[machines] = spans.starts, spans.stops
    return Spans(starts, stops)


class LiveKeys(NamedTuple):
    """One side's live tuples, key-sorted once: their keys, and global indices if read.

    ``indices`` is ``None`` when the keys were sorted alone (:func:`sorted_live`).
    """

    indices: "np.ndarray | None"
    keys: np.ndarray


def sorted_live(
    keys: "ArrivalLog | np.ndarray | LiveKeys", indexed: bool = False
) -> LiveKeys:
    """One side's live tuples as :class:`LiveKeys`: one key sort, NaN last.

    Of a windowed log only the live tuples are taken -- expired tuples are
    never routed, so a migration ships (and a post-migration machine holds)
    live state only.  An unwindowed log or a bare key array is live whole,
    its indices counted from the log's base (0 for an array).

    A plan whose shares are key ranges cuts the sort by key alone, so the
    live keys are sorted as values (``np.sort``) and no index is made.
    ``indexed`` asks for the arrival indices too -- for a plan that routes
    by them (:func:`~repro.partitioning.routing.reads_indices`) -- and makes
    the sort one argsort of the pairs
    (:func:`~repro.partitioning.base.sort_arrivals`), so indices and keys
    come from the same sort.  A :class:`LiveKeys` passes through, so callers
    that cut one sort by several plans sort once; ``ValueError`` if
    ``indexed`` and it holds no indices.
    """
    if isinstance(keys, LiveKeys):
        if indexed and keys.indices is None:
            raise ValueError(
                "these live keys were sorted without their arrival indices, "
                "which a plan that is not key ranges routes by"
            )
        return keys
    if isinstance(keys, ArrivalLog):
        indices = keys.live_indices() if indexed else None
        keys = keys.live_keys()
    else:
        keys = np.asarray(keys)
        indices = np.arange(len(keys)) if indexed else None
    if not indexed:
        return LiveKeys(None, np.sort(keys))
    return LiveKeys(*sort_arrivals(indices, keys))


def _route(
    partitioning: Partitioning,
    side: int,
    live: LiveKeys,
    rng: np.random.Generator,
    num_machines: int,
) -> "tuple[list[tuple[np.ndarray, np.ndarray]] | None, Spans | None]":
    """One side's live tuples routed by a plan, region ``r`` to machine ``r``.

    Its shares as slices of ``live`` when the plan cuts slices
    (:meth:`Partitioning.cut_spans
    <repro.partitioning.base.Partitioning.cut_spans>`) -- no column is
    built -- and otherwise as per-region key-sorted ``(arrival indices,
    keys)`` columns (:meth:`Partitioning.cut_sorted
    <repro.partitioning.base.Partitioning.cut_sorted>`); either padded with
    empty shares to ``num_machines``, which must be at least the
    partitioning's region count.
    """
    _check_fleet(partitioning, num_machines)
    spans = partitioning.cut_spans(side, live.keys)
    if spans is not None:
        return None, spans.padded(num_machines)
    shares = partitioning.cut_sorted(side, live.keys, live.indices, rng)
    return _to_machines(shares, live.keys, range(num_machines), num_machines), None


def route_live(
    partitioning: Partitioning,
    live1: "ArrivalLog | np.ndarray | LiveKeys",
    live2: "ArrivalLog | np.ndarray | LiveKeys",
    rng: np.random.Generator,
    region_to_machine,
    num_machines: int,
) -> "tuple[tuple[SideLayout, SideLayout], tuple[RoutedSide, RoutedSide]]":
    """Both sides' live tuples routed by a plan: what ``install_state`` takes.

    The initial build (its backlog, counted as one batch), a migration and
    a restore all hand the backend a side's live tuples sorted once
    (:func:`sorted_live`, indexed only when the plan routes by arrival
    index) and routed by the plan
    (:func:`~repro.partitioning.routing.route_sorted`).  Returns the plan's
    two :func:`~repro.partitioning.routing.side_layout` and the two routed
    sides.
    """
    layouts = tuple(
        side_layout(partitioning, side, region_to_machine, num_machines)
        for side in (1, 2)
    )
    indexed = reads_indices(partitioning)
    routed = tuple(
        route_sorted(
            partitioning, side, live.keys, live.indices, rng, layout,
            region_to_machine, num_machines,
        )
        for side, live, layout in (
            (1, sorted_live(live1, indexed), layouts[0]),
            (2, sorted_live(live2, indexed), layouts[1]),
        )
    )
    return layouts, routed


def held_by_machine(
    partitioning: "Partitioning | None",
    side: int,
    keys: "ArrivalLog | np.ndarray | LiveKeys",
    rng: np.random.Generator,
    num_machines: int,
    region_to_machine,
) -> "Spans | list[np.ndarray]":
    """What every machine holds of one side, as :func:`plan_install` reads it.

    Machines keep no index of what they hold; every tuple reached its
    machine through ``partitioning`` (a batch, an eviction, a build, a
    migration and a restore all route by the current plan, and routing is
    a pure function of key and arrival index), so it is the live log cut by
    the plan and region ``r``'s share placed on ``region_to_machine[r]``.
    When the plan cuts slices, each machine's slice of the
    :func:`sorted_live` sort, which the planner overlaps by span
    arithmetic; otherwise each machine's arrival indices
    (:meth:`Partitioning.cut_sorted
    <repro.partitioning.base.Partitioning.cut_sorted>`, so ``keys`` must
    then be indexed).  Spans are positions in that one sort, so the planner
    must be handed the same :class:`LiveKeys` (the engine sorts each side
    once and passes it to both).  Before any plan exists nothing is held:
    every machine an empty slice.
    """
    if partitioning is None:
        return Spans(*(np.zeros(num_machines, dtype=np.int64) for _ in range(2)))
    live = sorted_live(keys, reads_indices(partitioning))
    spans = partitioning.cut_spans(side, live.keys)
    if spans is not None:
        return _spans_to_machines(spans, region_to_machine, num_machines)
    shares = partitioning.cut_sorted(side, live.keys, live.indices, rng)
    placed = _to_machines(shares, live.keys, region_to_machine, num_machines)
    return [indices for indices, _ in placed]


def _padded(
    assignments: "list[np.ndarray] | Spans", num_machines: int
) -> "list[np.ndarray] | Spans":
    """Either form of an old assignment, extended with empty machines."""
    if isinstance(assignments, Spans):
        return assignments.padded(num_machines)
    return pad_assignments(assignments, num_machines)


def _overlaps(
    shares: "list[tuple[np.ndarray, np.ndarray]] | None",
    spans: "Spans | None",
    held: "list[np.ndarray] | Spans",
    live: LiveKeys,
) -> np.ndarray:
    """``len(routed[r] & held[m])`` of one side's :func:`_route`, every region and machine.

    When both the new routing and the old holding are slices of ``live``,
    the intersections are span arithmetic (one ``J x J`` broadcast);
    otherwise -- a 1-Bucket plan on either side, or index arrays from the
    caller -- the marks pass over arrival indices.
    """
    if spans is not None and isinstance(held, Spans):
        return spans.overlaps(held)
    if isinstance(held, Spans):
        held = [indices for indices, _ in held.columns(live.indices, live.keys)]
    if spans is not None:
        shares = spans.columns(live.indices, live.keys)
    return _overlap_matrix([indices for indices, _ in shares], held)


def plan_install(
    old_assignments1: "list[np.ndarray] | Spans",
    old_assignments2: "list[np.ndarray] | Spans",
    new_partitioning: Partitioning,
    keys1: "ArrivalLog | np.ndarray | LiveKeys",
    keys2: "ArrivalLog | np.ndarray | LiveKeys",
    num_machines: int,
    rng: np.random.Generator,
    mode: str = "full",
) -> "tuple[MigrationPlan, tuple[SideLayout, SideLayout], tuple[RoutedSide, RoutedSide]]":
    """Plan the state movement to a new scheme, and route the new state.

    What a running engine adopts a plan with.  Each side's live tuples are
    routed by the new plan once, and that one route is both diffed against
    the old holdings and handed out.  Returns the plan's figures
    (:class:`MigrationPlan`), the new plan's two
    :func:`~repro.partitioning.routing.side_layout` and its two routed sides (:class:`RoutedSide`, as :func:`route_live` would
    route them under the plan's region map).  A grid plan's routed side is
    the live sort itself, sliced by the spans.

    Parameters
    ----------
    old_assignments1, old_assignments2:
        Per-machine arrays of tuple arrival indices currently held (R1/R2),
        or per-machine slices of ``keys1`` / ``keys2`` (which must then be
        the very :class:`LiveKeys` the slices cut); the engine derives them
        with :func:`held_by_machine`.
    new_partitioning:
        The scheme taking over; it is asked to route the retained history
        (all of it, or only the live subset of a windowed log).
    keys1, keys2:
        The key histories: the engine's arrival logs, bare key arrays
        indexed by arrival index, or their :class:`LiveKeys` (see
        :func:`sorted_live`; indexed when the new plan, or an old holding
        given as index arrays, reads arrival indices).  Only live tuples
        are routed -- a rebuild
        never ships (or resurrects) expired tuples, and the migration
        volume charged is the live volume only.
    num_machines:
        The *target* cluster size, at least the region count of the new
        partitioning (``ValueError`` naming both otherwise: every region
        needs a machine of its own).  The old assignment lists may be
        longer -- a shrink plans the surviving ``num_machines`` fleet and
        every tuple held by a departing machine counts as a departure there
        (and as an arrival on its new holder, if it is still live).
        Shorter old lists (a grow) are padded with empty machines.
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
    # Index arrays of the old holdings are overlapped by the marks pass,
    # which reads the new route's indices too.
    indexed = reads_indices(new_partitioning) or not (
        isinstance(old_assignments1, Spans) and isinstance(old_assignments2, Spans)
    )
    lives = sorted_live(keys1, indexed), sorted_live(keys2, indexed)
    routes = [
        _route(new_partitioning, side, live, rng, num_machines)
        for side, live in zip((1, 2), lives)
    ]
    # A resize may shrink the fleet: the old lists then outnumber the new
    # machines.  Pad the old side to whichever count is larger so departing
    # machines' state is diffed (everything they hold departs), while the
    # new state, the matching and the arrival vector live on the target
    # fleet only.
    old_machines = max(len(old_assignments1), len(old_assignments2), num_machines)
    olds = (
        _padded(old_assignments1, old_machines),
        _padded(old_assignments2, old_machines),
    )

    # One overlap pass per side serves both the matching and the counts:
    # entry (r, m) is how much of new region r old machine m already holds.
    overlaps = sum(
        _overlaps(*route, old, live) for route, old, live in zip(routes, olds, lives)
    )
    if mode == "partial":
        region_to_machine = _best_region_map(overlaps[:, :num_machines])
    else:
        region_to_machine = np.arange(num_machines, dtype=np.int64)

    # Indices are unique within a region and a machine, so what a machine
    # receives is its new share minus what it already held of it, and what
    # it drops is its old state minus the same overlap.  A machine leaving
    # on a shrink keeps nothing.
    kept = np.zeros(old_machines, dtype=np.int64)
    kept[region_to_machine] = overlaps[np.arange(num_machines), region_to_machine]
    held = np.zeros(num_machines, dtype=np.int64)
    for shares, spans in routes:
        held[region_to_machine] += _sizes(spans if shares is None else [i for i, _ in shares])
    plan = MigrationPlan(
        per_machine_arrivals=held - kept[:num_machines],
        per_machine_departures=_sizes(olds[0]) + _sizes(olds[1]) - kept,
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
            placed = _spans_to_machines(spans, region_to_machine, num_machines)
            routed.append(RoutedSide(live.keys, placed.starts, placed.stops, layout))
    return plan, layouts, tuple(routed)
