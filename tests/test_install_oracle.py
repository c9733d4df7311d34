"""Differential tests: wholesale state in the router's shape, against the old path.

``tests/reference_install.py`` (with the assign-based ``route_live`` and the
index-array planner of ``tests/reference_migration.py``) holds how a
migration, a resize and a restore moved state before ``install_state`` took
key-sorted arrays: per-region index arrays, a ``resize`` that emptied the
fleet, then an install that gathered every machine's keys back out of the
logs and sorted them per machine.  The one-shape path -- ``route_live``
through ``sorted_arrivals``, ``plan_install``'s routed sides, an
``install_state`` of their keys that resizes by their length -- must leave
every machine the same run list: one counted run of the same distinct keys
and counts.

The first half holds a single install to that, machine by machine, over
random histories and schemes (the sticky worker's install handler too).  The
second half runs the old path in a real engine (``ReferenceInstallEngine``)
and asks for equivalent runs and equal mid-run checkpoint bytes over windows
x policies x backends, and across a resize.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_install import (
    ReferenceInstallBackend,
    ReferenceInstallEngine,
    ReferenceStickyBackend,
    sorted_keys,
)
from reference_migration import plan_migration as reference_plan
from reference_state import RegionStateTable, state_layout
from streaming_harness import assert_equivalent_runs
from test_migration_properties import ReplicatingPartitioning
from test_routing_oracle import (
    BACKENDS,
    BAND,
    KEY_DTYPES,
    POLICIES,
    WINDOWS,
    _draw_boundaries,
    _draw_keys,
    _draw_regions,
    _run,
    assert_same_keys,
)

from repro.partitioning import GridRoutedPartitioning, build_one_bucket_partitioning
from repro.streaming import (
    ArrivalLog,
    SimulatedBackend,
    StreamingJoinEngine,
    plan_install,
)
from repro.partitioning.routing import RoutedSide
from repro.streaming.backends import _StickyWorkerState


# ----------------------------------------------------------------------
# One install, machine by machine
# ----------------------------------------------------------------------
def _scheme(rng, scheme: str, boundaries, num_machines: int):
    """A new plan of at most ``num_machines`` regions."""
    regions = int(rng.integers(1, num_machines + 1))
    if scheme == "grid":
        rows, cols = boundaries
        drawn = _draw_regions(rng, len(rows) - 1, len(cols) - 1)
        return GridRoutedPartitioning(rows, cols, drawn[:num_machines])
    if scheme == "one_bucket":
        return build_one_bucket_partitioning(regions)
    return ReplicatingPartitioning(regions, int(rng.integers(0, 8)))


def _history(rng, keys: np.ndarray, kind: str):
    """A bare array, an unwindowed log, or a windowed log with a base."""
    if kind == "array":
        return keys
    if kind == "log":
        return ArrivalLog(False, keys=keys)
    base = int(rng.integers(0, 10_000))
    live = base + np.flatnonzero(rng.random(len(keys)) < 0.7)
    return ArrivalLog(True, keys=keys, base=base, live=live)


def _live(history) -> np.ndarray:
    """The global indices a plan may route: the live set, or everything."""
    if isinstance(history, ArrivalLog):
        return history.live if history.windowed else np.arange(history.total)
    return np.arange(len(history))


def _assert_same_runs(ours, theirs) -> None:
    """Run count and, per run, the same distinct keys (by value) and counts.

    ``-0.0`` and ``0.0`` are one key, whichever of them names it.
    """
    assert len(ours.runs) <= 1 and len(ours.runs) == len(theirs.runs)
    for (keys, cum), (ref_keys, ref_cum) in zip(ours.runs, theirs.runs):
        assert keys.dtype == ref_keys.dtype
        np.testing.assert_array_equal(keys, ref_keys)
        np.testing.assert_array_equal(cum, ref_cum)


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["grid", "one_bucket", "replicating"]),
    dtype=st.sampled_from(KEY_DTYPES),
    kind=st.sampled_from(["array", "log", "windowed"]),
    old_machines=st.integers(1, 6),
    num_machines=st.integers(1, 6),
    mode=st.sampled_from(["full", "partial"]),
)
def test_an_install_leaves_the_reference_run_lists(
    seed, scheme, dtype, kind, old_machines, num_machines, mode
):
    """Grow, shrink and same-size; replicated, randomised and grid plans."""
    rng = np.random.default_rng(seed)
    boundaries = _draw_boundaries(rng), _draw_boundaries(rng)
    partitioning = _scheme(rng, scheme, boundaries, num_machines)
    logs = [
        _history(rng, _draw_keys(rng, side, dtype, int(rng.integers(0, 80))), kind)
        for side in boundaries
    ]
    # What the old fleet held: live indices, some on several machines.
    old = [
        [live[rng.random(len(live)) < 0.4] for _ in range(old_machines)]
        for live in map(_live, logs)
    ]
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(invalid="ignore"):  # the mod scheme casts NaN / inf keys
        plan, _, routed = plan_install(*old, partitioning, *logs, num_machines, ours, mode)
        expected = reference_plan(*old, partitioning, *logs, num_machines, theirs, mode)
    assert ours.bit_generator.state == theirs.bit_generator.state
    # The figures are the reference planner's, and every machine's routed
    # keys are its reference index array's keys (bit for bit: gathered,
    # not sorted -- ``np.sort`` may swap the bits of -0.0 and 0.0).
    for name in ("per_machine_arrivals", "per_machine_departures", "region_to_machine"):
        np.testing.assert_array_equal(getattr(plan, name), getattr(expected, name))
    for side, assignments, log in zip(
        routed, (expected.new_assignments1, expected.new_assignments2), logs
    ):
        assert len(side.columns()) == len(assignments) == num_machines
        for keys, indices in zip(side.columns(), assignments):
            assert_same_keys(keys, log[np.asarray(indices, dtype=np.int64)])
    reference1 = sorted_keys(expected.new_assignments1, logs[0])
    reference2 = sorted_keys(expected.new_assignments2, logs[1])

    keys1, keys2 = routed[0].columns(), routed[1].columns()
    production = SimulatedBackend()
    production.bind(old_machines, BAND, BAND.transposed)
    production.install_state(RoutedSide.of(keys1), RoutedSide.of(keys2))
    table = RegionStateTable(range(num_machines))
    table.install(state_layout(reference1, reference2))
    worker = _StickyWorkerState()
    worker.own(tuple(range(num_machines)), BAND, BAND.transposed)
    worker.install(state_layout(keys1, keys2))

    # Per-machine arrays are a group per machine, on both owners.
    for owner in (production._owner, worker.owner):
        for machine in table.machines:
            _assert_same_runs(owner.states[0][machine], table.state1[machine])
            _assert_same_runs(owner.states[1][machine], table.state2[machine])


# ----------------------------------------------------------------------
# The whole engine, with the old path installed
# ----------------------------------------------------------------------
#: (reference, production) backend factories.
PAIRS = {
    "simulated": (ReferenceInstallBackend, BACKENDS["simulated"]),
    "sticky": (lambda: ReferenceStickyBackend(max_workers=2), BACKENDS["sticky"]),
}


def _both(policy, backend, window, monkeypatch, resize_to=None):
    """(reference, production): each a (result, checkpoint bytes) pair."""
    return [
        _run(engine_cls, policy, factory, window, monkeypatch, resize_to)
        for engine_cls, factory in zip(
            (ReferenceInstallEngine, StreamingJoinEngine), PAIRS[backend]
        )
    ]


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_engine_runs_and_checkpoints_match_the_reference_install(
    policy, window, monkeypatch
):
    (expected, expected_raw), (actual, raw) = _both(
        policy, "simulated", window, monkeypatch
    )
    assert_equivalent_runs(actual, expected)
    assert raw == expected_raw
    if policy == "adaptive":
        assert actual.num_repartitions >= 1


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_sticky_runs_and_checkpoints_match_the_reference_install(
    policy, window, monkeypatch
):
    (expected, expected_raw), (actual, raw) = _both(policy, "sticky", window, monkeypatch)
    assert_equivalent_runs(actual, expected)
    assert actual.backend == "sticky"
    assert raw == expected_raw


@pytest.mark.parametrize(
    "backend", ["simulated", pytest.param("sticky", marks=pytest.mark.multiprocess)]
)
@pytest.mark.parametrize("resize_to", [3, 6])
def test_a_resize_matches_the_reference_install(backend, resize_to, monkeypatch):
    (expected, expected_raw), (actual, raw) = _both(
        "adaptive", backend, "batches:3", monkeypatch, resize_to
    )
    assert_equivalent_runs(actual, expected)
    assert raw == expected_raw
    assert actual.num_machines == resize_to
