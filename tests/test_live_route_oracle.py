"""Differential: a key-range plan's live set routed from one values sort.

Under a plan whose shares are key ranges, a migration, a resize, a restore
and an initial build sort each side's live keys alone (``np.sort``); only a
plan that routes by arrival index (1-Bucket) makes an argsort of the
``(arrival index, key)`` pairs.  ``tests/reference_migration.py`` keeps the
argsort route every plan took before (``argsort_live`` and the bodies that
read it).  Production must return the same ``MigrationPlan`` arrays and
layouts, route every machine the same slice (``starts`` / ``stops``) of
keys equal as values -- equal keys may sit in another order, and ``-0.0``
beside ``0.0`` -- and leave the generator where the reference left it.

The logs are windowed or unbounded and hold NaN, +-0.0, +-inf, duplicates
or int64 keys near 2**53; a side may be empty or a single tuple.  The
key-range plans are random grid-routed plans (the routing EWH plans take,
replicating regions included).
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_migration
from hypothesis import given, settings
from hypothesis import strategies as st
from test_routing_oracle import _draw_boundaries, _draw_keys, _draw_regions

from repro.partitioning import GridRoutedPartitioning, build_one_bucket_partitioning
from repro.partitioning.routing import reads_indices
from repro.streaming import ArrivalLog
from repro.streaming.migration import (
    held_by_machine,
    plan_install,
    route_live,
    sorted_live,
)

#: (old plan, new plan, old fleet, new fleet); ``None`` fleets are drawn.
CASES = {
    "ewh-to-ewh": ("ewh", "ewh", None, None),
    "ewh-to-1-bucket": ("ewh", "one_bucket", None, None),
    "1-bucket-to-ewh": ("one_bucket", "ewh", None, None),
    "resize-8-to-12": ("ewh", "ewh", 8, 12),
}


def _log(rng, keys: np.ndarray, windowed: bool):
    """An engine's log of ``keys``: windowed with a seeded live subset, or whole."""
    if not windowed:
        return ArrivalLog(False, keys=keys)
    base = int(rng.integers(0, 1_000))
    return ArrivalLog(
        True, keys=keys, base=base, live=base + np.flatnonzero(rng.random(len(keys)) < 0.7)
    )


def _logs(rng, rows, cols, dtype: str, windowed: bool):
    """Both sides' logs; each side empty, one tuple or up to 80 tied keys."""
    logs = []
    for boundaries in (rows, cols):
        size = int(rng.choice([0, 1, int(rng.integers(2, 80))]))
        logs.append(_log(rng, _draw_keys(rng, boundaries, dtype, size), windowed))
    return logs


def _plan(rng, kind: str, rows, cols, machines: int):
    if kind == "one_bucket":
        return build_one_bucket_partitioning(machines, int(rng.integers(2**63)))
    regions = _draw_regions(rng, len(rows) - 1, len(cols) - 1)[:machines]
    return GridRoutedPartitioning(rows, cols, regions)


def _assert_same_layouts(ours, theirs, keys) -> None:
    for layout, expected in zip(ours, theirs):
        assert [list(r) for r in layout.readers] == [list(r) for r in expected.readers]
        assert layout.whole == expected.whole
        assert (layout.cut is None) == (expected.cut is None)
        if layout.cut is not None:
            for got, want in zip(layout.cut(keys), expected.cut(keys)):
                np.testing.assert_array_equal(got, want)


def _assert_same_routes(ours, theirs) -> None:
    """Slices equal, keys equal as values (NaN to NaN, ``-0.0`` to ``0.0``)."""
    for side, expected in zip(ours, theirs):
        np.testing.assert_array_equal(side.starts, expected.starts)
        np.testing.assert_array_equal(side.stops, expected.stops)
        assert side.keys.dtype == expected.keys.dtype
        assert np.array_equal(
            side.keys, expected.keys, equal_nan=side.keys.dtype.kind == "f"
        )


def _generators(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float64", "int64_big"]),
    windowed=st.booleans(),
    remap=st.booleans(),
    mode=st.sampled_from(["full", "partial"]),
)
def test_a_migration_routes_as_the_argsort_route(case, seed, dtype, windowed, remap, mode):
    """``plan_install`` over the engine's sort equals it over the argsort route."""
    old_kind, new_kind, old_machines, num_machines = CASES[case]
    rng = np.random.default_rng(seed)
    old_machines = old_machines or int(rng.integers(1, 8))
    num_machines = num_machines or int(rng.integers(1, 8))
    rows, cols = _draw_boundaries(rng), _draw_boundaries(rng)
    logs = _logs(rng, rows, cols, dtype, windowed)
    old = _plan(rng, old_kind, rows, cols, old_machines)
    new = _plan(rng, new_kind, rows, cols, num_machines)
    region_map = (
        rng.permutation(old_machines) if remap else np.arange(old_machines)
    ).astype(np.int64)

    ours_rng, their_rng = _generators(seed)
    indexed = reads_indices(old) or reads_indices(new)
    lives = [sorted_live(log, indexed) for log in logs]
    assert (lives[0].indices is None) == (old_kind == new_kind == "ewh")
    held = [
        held_by_machine(old, side, live, ours_rng, old_machines, region_map)
        for side, live in zip((1, 2), lives)
    ]
    plan, layouts, routed = plan_install(
        *held, new, *lives, num_machines, ours_rng, mode=mode
    )

    references = [reference_migration.argsort_live(log) for log in logs]
    their_held = [
        reference_migration.argsort_held_by_machine(
            old, side, live, their_rng, old_machines, region_map
        )
        for side, live in zip((1, 2), references)
    ]
    expected, their_layouts, their_routed = reference_migration.argsort_plan_install(
        *their_held, new, *references, num_machines, their_rng, mode=mode
    )

    assert plan.mode == expected.mode
    for field in ("per_machine_arrivals", "per_machine_departures", "region_to_machine"):
        ours, theirs = getattr(plan, field), getattr(expected, field)
        np.testing.assert_array_equal(ours, theirs)
        assert ours.dtype == theirs.dtype
    for live, layout, their_layout in zip(lives, layouts, their_layouts):
        _assert_same_layouts([layout], [their_layout], live.keys)
    _assert_same_routes(routed, their_routed)
    assert ours_rng.bit_generator.state == their_rng.bit_generator.state


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["ewh", "one_bucket"]),
    dtype=st.sampled_from(["float64", "int64_big"]),
    windowed=st.booleans(),
    spare=st.integers(0, 2),
)
def test_a_restore_routes_as_the_argsort_route(seed, kind, dtype, windowed, spare):
    """``route_live`` (a restore, an initial build) equals the argsort route.

    ``spare`` machines hold no region; the regions sit on a permutation.
    """
    rng = np.random.default_rng(seed)
    rows, cols = _draw_boundaries(rng), _draw_boundaries(rng)
    logs = _logs(rng, rows, cols, dtype, windowed)
    plan = _plan(rng, kind, rows, cols, int(rng.integers(1, 8)))
    machines = plan.num_regions + spare
    region_map = rng.permutation(machines)[: plan.num_regions].astype(np.int64)

    ours_rng, their_rng = _generators(seed)
    layouts, routed = route_live(plan, *logs, ours_rng, region_map, machines)
    their_layouts, their_routed = reference_migration.argsort_route_live(
        plan, *logs, their_rng, region_map, machines
    )
    for side, layout, their_layout in zip(routed, layouts, their_layouts):
        _assert_same_layouts([layout], [their_layout], side.keys)
    _assert_same_routes(routed, their_routed)
    assert ours_rng.bit_generator.state == their_rng.bit_generator.state


def test_an_unindexed_sort_is_refused_where_indices_are_read():
    """A 1-Bucket plan cannot be routed from the keys alone: ``ValueError``."""
    live = sorted_live(np.array([3.0, 1.0, 1.0]))
    assert live.indices is None
    with pytest.raises(ValueError, match="without their arrival indices"):
        held_by_machine(
            build_one_bucket_partitioning(2), 1, live, np.random.default_rng(0), 2,
            np.arange(2),
        )
