"""Property-based invariants of the migration planner.

``plan_install`` is the piece later performance work is most likely to
break subtly, so its invariants are pinned with hypothesis over randomly
generated histories and partitionings.  It builds no index column, so every
call here also runs the reference planner (``tests/reference_migration.py``)
from the same generator state: the figures must agree, every machine's
routed keys must be the keys of the reference's index array, and the
index-level invariants read those arrays:

* **tuple conservation** -- for non-replicating schemes every rebuild moves
  as many tuples out of machines as into them (and with replication, the
  arrival/departure difference is exactly the change in total held state);
* **zero-cost no-op** -- re-adopting an unchanged mapping moves nothing, in
  either mode;
* **partial <= full** -- the partial plan never migrates more than the
  positional full plan, for the same old state and new partitioning;
* **state completeness** -- whatever the mode, the planned state is exactly
  the new partitioning's routing (only possibly living on different
  machines), so the join after a migration sees every tuple.
"""

from __future__ import annotations

import numpy as np
import reference_migration
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partitioning.base import Partitioning
from repro.streaming.migration import (
    _overlap_matrix,
    pad_assignments,
    plan_install,
)


class ModPartitioning(Partitioning):
    """Deterministic non-replicating scheme: key ``k`` lives on ``(k + salt) % J``."""

    def __init__(self, num_machines: int, salt: int = 0) -> None:
        self.regions = num_machines
        self.salt = salt

    @property
    def num_regions(self) -> int:
        return self.regions

    def _assign(self, keys: np.ndarray) -> list[np.ndarray]:
        machines = (np.asarray(keys).astype(np.int64) + self.salt) % self.num_regions
        return [
            np.flatnonzero(machines == machine).astype(np.int64)
            for machine in range(self.num_regions)
        ]

    def assign_r1(self, keys, rng):
        return self._assign(keys)

    def assign_r2(self, keys, rng):
        return self._assign(keys)


class ReplicatingPartitioning(ModPartitioning):
    """Each R1 key additionally replicated to the next machine (band-join style)."""

    def assign_r1(self, keys, rng):
        primary = self._assign(keys)
        return [
            np.union1d(primary[machine], primary[(machine + 1) % self.num_regions])
            for machine in range(self.num_regions)
        ]


def _held(assignments: list[np.ndarray]) -> int:
    return sum(len(a) for a in assignments)


def _plan(old1, old2, scheme, keys1, keys2, num_machines, mode):
    """``plan_install``'s plan, and the reference planner's new index arrays.

    Both run from the same generator state and must leave it in the same
    state; the figures must be the reference's, and each machine's routed
    keys the keys of its reference index array, sorted.
    """
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    arguments = (old1, old2, scheme, keys1, keys2, num_machines)
    plan, _, routed = plan_install(*arguments, ours, mode=mode)
    expected = reference_migration.plan_migration(*arguments, theirs, mode=mode)
    assert ours.bit_generator.state == theirs.bit_generator.state
    for name in ("per_machine_arrivals", "per_machine_departures", "region_to_machine"):
        np.testing.assert_array_equal(getattr(plan, name), getattr(expected, name))
    new = expected.new_assignments1, expected.new_assignments2
    for side, assignments, keys in zip(routed, new, (keys1, keys2)):
        assert len(side.columns()) == len(assignments) == num_machines
        for held, indices in zip(side.columns(), assignments):
            np.testing.assert_array_equal(held, np.sort(keys[indices]))
    return plan, *new


keys_strategy = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=80
).map(lambda values: np.array(values, dtype=np.float64))

machines_strategy = st.integers(min_value=1, max_value=6)
salt_strategy = st.integers(min_value=0, max_value=7)
mode_strategy = st.sampled_from(["full", "partial"])


def _old_state(scheme, keys1, keys2, num_machines, rng):
    old1 = pad_assignments(scheme.assign_r1(keys1, rng), num_machines)
    old2 = pad_assignments(scheme.assign_r2(keys2, rng), num_machines)
    return old1, old2


@settings(max_examples=60, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    num_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    mode=mode_strategy,
)
def test_tuple_conservation_without_replication(
    keys1, keys2, num_machines, old_salt, new_salt, mode
):
    """Non-replicating rebuilds: migrated-out == migrated-in, exactly."""
    rng = np.random.default_rng(0)
    old1, old2 = _old_state(
        ModPartitioning(num_machines, old_salt), keys1, keys2, num_machines, rng
    )
    plan, new1, new2 = _plan(
        old1, old2, ModPartitioning(num_machines, new_salt),
        keys1, keys2, num_machines, mode,
    )
    assert plan.total_moved == plan.total_departed
    assert _held(new1) == len(keys1)
    assert _held(new2) == len(keys2)


@settings(max_examples=60, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    num_machines=st.integers(min_value=2, max_value=6),
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    mode=mode_strategy,
)
def test_conservation_accounts_for_replication_changes(
    keys1, keys2, num_machines, old_salt, new_salt, mode
):
    """With replication, arrivals - departures == growth of total held state."""
    rng = np.random.default_rng(0)
    old_scheme = ModPartitioning(num_machines, old_salt)
    new_scheme = ReplicatingPartitioning(num_machines, new_salt)
    old1, old2 = _old_state(old_scheme, keys1, keys2, num_machines, rng)
    plan, new1, new2 = _plan(
        old1, old2, new_scheme, keys1, keys2, num_machines, mode
    )
    old_total = _held(old1) + _held(old2)
    new_total = _held(new1) + _held(new2)
    assert plan.total_moved - plan.total_departed == new_total - old_total


@settings(max_examples=60, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    num_machines=machines_strategy,
    salt=salt_strategy,
    mode=mode_strategy,
)
def test_unchanged_mapping_is_a_zero_cost_noop(
    keys1, keys2, num_machines, salt, mode
):
    """Re-adopting the very same scheme moves nothing in either mode."""
    rng = np.random.default_rng(0)
    scheme = ModPartitioning(num_machines, salt)
    old1, old2 = _old_state(scheme, keys1, keys2, num_machines, rng)
    plan, _, _ = _plan(old1, old2, scheme, keys1, keys2, num_machines, mode)
    assert plan.total_moved == 0
    assert plan.total_departed == 0
    assert np.all(plan.per_machine_arrivals == 0)


@settings(max_examples=60, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    num_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    replicate=st.booleans(),
)
def test_partial_never_migrates_more_than_full(
    keys1, keys2, num_machines, old_salt, new_salt, replicate
):
    """The partial plan's volume is bounded by the full plan's, always."""
    rng = np.random.default_rng(0)
    old1, old2 = _old_state(
        ModPartitioning(num_machines, old_salt), keys1, keys2, num_machines, rng
    )
    new_cls = ReplicatingPartitioning if replicate else ModPartitioning
    new_scheme = new_cls(num_machines, new_salt)
    full, _, _ = _plan(old1, old2, new_scheme, keys1, keys2, num_machines, "full")
    partial, _, _ = _plan(old1, old2, new_scheme, keys1, keys2, num_machines, "partial")
    assert partial.total_moved <= full.total_moved


@settings(max_examples=60, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    num_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    mode=mode_strategy,
)
def test_planned_state_is_exactly_the_new_routing(
    keys1, keys2, num_machines, old_salt, new_salt, mode
):
    """The migrated state is the new routing, merely remapped across machines.

    The region-to-machine map must be a bijection, and machine
    ``region_to_machine[r]`` must hold exactly what the new partitioning
    routes to region ``r`` -- otherwise the post-migration join would lose
    or duplicate candidate pairs.
    """
    rng = np.random.default_rng(0)
    old1, old2 = _old_state(
        ModPartitioning(num_machines, old_salt), keys1, keys2, num_machines, rng
    )
    new_scheme = ModPartitioning(num_machines, new_salt)
    plan, _, routed = plan_install(
        old1, old2, new_scheme, keys1, keys2, num_machines, rng, mode=mode
    )
    assert sorted(plan.region_to_machine.tolist()) == list(range(num_machines))
    routed1 = pad_assignments(new_scheme.assign_r1(keys1, rng), num_machines)
    routed2 = pad_assignments(new_scheme.assign_r2(keys2, rng), num_machines)
    held1, held2 = routed[0].columns(), routed[1].columns()
    for region, machine in enumerate(plan.region_to_machine):
        np.testing.assert_array_equal(held1[machine], np.sort(keys1[routed1[region]]))
        np.testing.assert_array_equal(held2[machine], np.sort(keys2[routed2[region]]))


@settings(max_examples=80, deadline=None)
@given(
    keys=keys_strategy,
    num_regions=machines_strategy,
    old_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    replicate=st.booleans(),
)
def test_overlap_matrix_equals_pairwise_intersections(
    keys, num_regions, old_machines, old_salt, new_salt, replicate
):
    """The one-pass overlap matrix equals the per-pair ``intersect1d`` definition.

    Rectangular: regions of the new scheme by machines of the old fleet,
    which differ on a resize.  Every entry must agree with the plain set
    intersection, including empty regions, empty machines and replicated
    (shared-index) assignments.
    """
    rng = np.random.default_rng(0)
    scheme = ReplicatingPartitioning if replicate else ModPartitioning
    held = pad_assignments(
        scheme(old_machines, old_salt).assign_r1(keys, rng), old_machines + 1
    )
    routed = pad_assignments(
        scheme(num_regions, new_salt).assign_r1(keys, rng), num_regions + 1
    )
    matrix = _overlap_matrix(routed, held)
    assert matrix.shape == (num_regions + 1, old_machines + 1)
    assert matrix.dtype == np.int64
    for region in range(num_regions + 1):
        for machine in range(old_machines + 1):
            expected = len(np.intersect1d(routed[region], held[machine]))
            assert matrix[region, machine] == expected


@settings(max_examples=80, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    old_machines=machines_strategy,
    num_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    replicate=st.booleans(),
    mode=mode_strategy,
)
def test_arrivals_and_departures_equal_the_set_differences(
    keys1, keys2, old_machines, num_machines, old_salt, new_salt, replicate, mode
):
    """The two count vectors equal the plain ``setdiff1d`` definition.

    Arrivals are what a machine's planned state holds that its old state
    did not; departures the reverse, over the old fleet (a machine leaving
    on a shrink departs everything).  Grow, shrink and same-size rebuilds.
    """
    rng = np.random.default_rng(0)
    old_cls = ReplicatingPartitioning if replicate else ModPartitioning
    old1, old2 = _old_state(
        old_cls(old_machines, old_salt), keys1, keys2, old_machines, rng
    )
    new_cls = ModPartitioning if replicate else ReplicatingPartitioning
    plan, new1, new2 = _plan(
        old1, old2, new_cls(num_machines, new_salt), keys1, keys2, num_machines, mode
    )
    fleet = max(old_machines, num_machines)
    assert len(plan.per_machine_arrivals) == num_machines
    assert len(plan.per_machine_departures) == fleet
    empty = np.empty(0, dtype=np.int64)
    for machine in range(fleet):
        moved_in = moved_out = 0
        for old, new in ((old1, new1), (old2, new2)):
            before = old[machine] if machine < old_machines else empty
            after = new[machine] if machine < num_machines else empty
            moved_in += len(np.setdiff1d(after, before))
            moved_out += len(np.setdiff1d(before, after))
        if machine < num_machines:
            assert plan.per_machine_arrivals[machine] == moved_in
        assert plan.per_machine_departures[machine] == moved_out
