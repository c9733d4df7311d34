"""Differential tests: the migration planner, and a whole repartition event.

``tests/reference_migration.py`` holds the planner ``repro.streaming.migration``
shipped before it computed its overlaps once: a sort-and-search overlap
matrix per side, then ``np.setdiff1d`` four times per machine.  The one-pass
planner, ``plan_install``, must return the same figures field by field and
leave the generator where the reference left it, and route every machine
the keys of the reference's index arrays, in both modes, over replicated
and non-replicated assignments, grows, shrinks, empty regions, empty
machines and windowed :class:`ArrivalLog` histories.

The second half drives the engine through real repartitions with *every*
reference kernel (sampling and migration) monkeypatched in: a checkpoint
taken mid-run has the same bytes either way, and the production event makes
far fewer Python-level calls -- the proxy that keeps the gain from rotting.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
import reference_migration
import reference_sampling
from hypothesis import given, settings
from hypothesis import strategies as st
from streaming_harness import interpreter_calls, use_tick_clocks
from test_routing_oracle import (
    KEY_DTYPES,
    _draw_boundaries,
    _draw_keys,
    _draw_regions,
    assert_same_keys,
)
from test_migration_properties import (
    ModPartitioning,
    ReplicatingPartitioning,
    keys_strategy,
    machines_strategy,
    salt_strategy,
)

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.partitioning import (
    GridRoutedPartitioning,
    build_ewh_partitioning,
    build_one_bucket_partitioning,
)
from repro.partitioning.base import Spans
from repro.partitioning.routing import reads_indices
from repro.streaming import (
    ArrivalLog,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    MicroBatch,
    StreamingJoinEngine,
)
from repro.streaming import migration
from repro.streaming.migration import (
    MIGRATION_MODES,
    _overlap_matrix,
    held_by_machine,
    pad_assignments,
    plan_install,
    sorted_live,
)


def _log(keys: np.ndarray, windowed: bool, base: int, seed: int):
    """The key history as the engine would hold it.

    Unwindowed: the bare array (all live, base 0).  Windowed: an
    :class:`ArrivalLog` retaining ``keys`` from global index ``base`` on, of
    which a seeded subset is still live.
    """
    if not windowed:
        return keys
    local = np.random.default_rng(seed)
    live = base + np.flatnonzero(local.random(len(keys)) < 0.7)
    return ArrivalLog(True, keys=keys, base=base, live=live)


def _assert_same_plan(plan, routed, expected, keys1, keys2) -> None:
    """Figures field by field; each machine's routed keys as the reference's.

    The reference's new state is index arrays: each machine's keys are
    gathered from the history.  Equal keys come out of a sort in an
    unspecified order, so each machine-side is compared as a key-bit
    multiset, ours ascending.
    """
    assert plan.mode == expected.mode
    np.testing.assert_array_equal(plan.region_to_machine, expected.region_to_machine)
    np.testing.assert_array_equal(
        plan.per_machine_arrivals, expected.per_machine_arrivals
    )
    np.testing.assert_array_equal(
        plan.per_machine_departures, expected.per_machine_departures
    )
    assert plan.per_machine_arrivals.dtype == expected.per_machine_arrivals.dtype
    assert plan.per_machine_departures.dtype == expected.per_machine_departures.dtype
    for side, theirs, history in (
        (routed[0], expected.new_assignments1, keys1),
        (routed[1], expected.new_assignments2, keys2),
    ):
        ours = side.columns()
        assert len(ours) == len(theirs)
        for keys, indices in zip(ours, theirs):
            assert_same_keys(keys, history[np.asarray(indices, dtype=np.int64)])


@settings(max_examples=300, deadline=None)
@given(
    keys1=keys_strategy,
    keys2=keys_strategy,
    old_machines=machines_strategy,
    old_regions=machines_strategy,
    num_machines=machines_strategy,
    new_regions=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    old_replicates=st.booleans(),
    new_replicates=st.booleans(),
    windowed=st.booleans(),
    base=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(["full", "partial"]),
)
def test_plan_equals_the_reference_planner(
    keys1, keys2, old_machines, old_regions, num_machines, new_regions,
    old_salt, new_salt, old_replicates, new_replicates, windowed, base, mode,
):
    """Same plan, field by field: grow, shrink, empty regions and machines.

    A scheme with fewer regions than machines leaves machines empty (old
    side) or regions empty (new side); ``old_machines != num_machines`` is a
    resize; a windowed log routes only its live indices, offset by ``base``.
    """
    log1 = _log(keys1, windowed, base, seed=1)
    log2 = _log(keys2, windowed, base, seed=2)
    rng = np.random.default_rng(0)
    old_cls = ReplicatingPartitioning if old_replicates else ModPartitioning
    new_cls = ReplicatingPartitioning if new_replicates else ModPartitioning
    old_scheme = old_cls(min(old_regions, old_machines), old_salt)
    new_scheme = new_cls(min(new_regions, num_machines), new_salt)
    old1 = reference_migration.route_live(old_scheme.assign_r1, log1, old_machines, rng)
    old2 = reference_migration.route_live(old_scheme.assign_r2, log2, old_machines, rng)
    arguments = (old1, old2, new_scheme, log1, log2, num_machines)
    ours, theirs = (np.random.default_rng(0) for _ in range(2))
    ours.bit_generator.state = theirs.bit_generator.state = rng.bit_generator.state
    plan, _, routed = plan_install(*arguments, ours, mode=mode)
    expected = reference_migration.plan_migration(*arguments, theirs, mode=mode)
    assert ours.bit_generator.state == theirs.bit_generator.state
    _assert_same_plan(plan, routed, expected, log1, log2)


@settings(max_examples=100, deadline=None)
@given(
    keys=keys_strategy,
    num_machines=machines_strategy,
    old_salt=salt_strategy,
    new_salt=salt_strategy,
    replicate=st.booleans(),
)
def test_square_overlap_matrix_equals_the_sort_based_one(
    keys, num_machines, old_salt, new_salt, replicate
):
    rng = np.random.default_rng(0)
    scheme = ReplicatingPartitioning if replicate else ModPartitioning
    held = pad_assignments(
        scheme(num_machines, old_salt).assign_r1(keys, rng), num_machines
    )
    routed = pad_assignments(
        scheme(num_machines, new_salt).assign_r1(keys, rng), num_machines
    )
    np.testing.assert_array_equal(
        _overlap_matrix(routed, held),
        reference_migration.overlap_matrix(routed, held, num_machines),
    )


# ----------------------------------------------------------------------
# Overlaps of grid plans: span arithmetic, and the marks pass elsewhere
# ----------------------------------------------------------------------
def _old_and_new_overlaps(old_scheme, new_scheme, log, old_machines, num_machines, remap):
    """Production overlaps (with the path taken) and the sort-based matrix.

    The old plan's regions sit on ``remap`` (a permutation of the old fleet);
    both plans cut one production sort of ``log``, indexed only when a plan
    reads indices.  The reference names a slice's tuples from its own
    argsort: a key range holds the same tuples in any tie order.
    """
    rng = np.random.default_rng(0)
    live = sorted_live(log, reads_indices(old_scheme) or reads_indices(new_scheme))
    held = held_by_machine(old_scheme, 1, live, rng, old_machines, remap)
    routed, spans = migration._route(new_scheme, 1, live, rng, num_machines)
    width = max(old_machines, num_machines)
    ours = migration._overlaps(routed, spans, migration._padded(held, width), live)
    reference = reference_migration.argsort_live(log)
    shares = routed if spans is None else spans.columns(reference.indices, reference.keys)
    expected = reference_migration.overlap_matrix(
        pad_assignments([indices for indices, _ in shares], width),
        pad_assignments(
            reference_migration.held_indices(old_scheme, 1, log, rng, old_machines, remap),
            width,
        ),
        width,
    )[:num_machines]
    spanned = spans is not None and isinstance(held, Spans)
    return ours, expected, spanned


def _remap(seed: int, machines: int, remap: bool) -> np.ndarray:
    if not remap:
        return np.arange(machines, dtype=np.int64)
    return np.random.default_rng(seed).permutation(machines).astype(np.int64)


def _zipf_keys(seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mass = 1.0 / np.arange(1, 501) ** 0.9
    values = rng.permutation(500).astype(np.float64)
    return values[rng.choice(500, size=size, p=mass / mass.sum())]


@pytest.mark.parametrize("remap", [False, True], ids=["positional", "remapped"])
@pytest.mark.parametrize(
    "old_machines, num_machines",
    [(8, 8), (6, 9), (9, 5)],
    ids=["same-fleet", "grow", "shrink"],
)
def test_ewh_to_ewh_overlaps_are_spans_equal_to_the_sort_based_matrix(
    remap, old_machines, num_machines
):
    """Two EWH plans over drifted data: one broadcast, the same matrix and plan."""
    condition, weights = BandJoinCondition(beta=2.0), WeightFunction(1.0, 0.2)
    history = _zipf_keys(1, 3_000)
    log = ArrivalLog(True, keys=history, base=500, live=500 + np.arange(200, 3_000))
    old = build_ewh_partitioning(
        history[:1_500], history[:1_500], condition, old_machines, weights,
        rng=np.random.default_rng(2),
    )
    new = build_ewh_partitioning(
        _zipf_keys(3, 1_500), _zipf_keys(4, 1_500), condition, num_machines, weights,
        rng=np.random.default_rng(5),
    )
    live = sorted_live(log)
    region_map = _remap(old_machines, old_machines, remap)
    ours, expected, spanned = _old_and_new_overlaps(
        old, new, log, old_machines, num_machines, region_map
    )
    assert spanned
    np.testing.assert_array_equal(ours, expected)
    assert ours.sum() > 0
    # The whole plan: slices of the one sort against the index arrays.
    rng = np.random.default_rng(0)
    held = [
        held_by_machine(old, side, live, rng, old_machines, region_map) for side in (1, 2)
    ]
    indices = [
        reference_migration.held_indices(old, side, log, rng, old_machines, region_map)
        for side in (1, 2)
    ]
    for mode in MIGRATION_MODES:
        plan, _, routed = plan_install(*held, new, live, live, num_machines, rng, mode=mode)
        expected_plan = reference_migration.plan_migration(
            *indices, new, log, log, num_machines, rng, mode=mode
        )
        _assert_same_plan(plan, routed, expected_plan, log, log)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    old_kind=st.sampled_from(["grid", "one_bucket"]),
    new_kind=st.sampled_from(["grid", "one_bucket"]),
    dtype=st.sampled_from(KEY_DTYPES),
    old_machines=st.integers(1, 7),
    num_machines=st.integers(1, 7),
    remap=st.booleans(),
)
def test_overlaps_equal_the_sort_based_matrix_and_1_bucket_takes_the_marks_pass(
    seed, old_kind, new_kind, dtype, old_machines, num_machines, remap
):
    """Random grids (replicating, NaN / +-inf / -0.0 keys, every dtype) and 1-Bucket.

    Span arithmetic runs exactly when both plans are grids; a 1-Bucket
    plan on either side is a subsequence of the sort, so its overlaps take
    the marks pass.  Either way the matrix is the sort-based one.
    """
    rng = np.random.default_rng(seed)
    rows, cols = _draw_boundaries(rng), _draw_boundaries(rng)
    keys = _draw_keys(rng, rows, dtype, int(rng.integers(0, 120)))
    base = int(rng.integers(0, 1_000))
    log = ArrivalLog(
        True, keys=keys, base=base,
        live=base + np.flatnonzero(rng.random(len(keys)) < 0.7),
    )

    def scheme(kind: str, machines: int):
        if kind == "one_bucket":
            return build_one_bucket_partitioning(int(rng.integers(1, machines + 1)))
        regions = _draw_regions(rng, len(rows) - 1, len(cols) - 1)[:machines]
        return GridRoutedPartitioning(rows, cols, regions)

    old, new = scheme(old_kind, old_machines), scheme(new_kind, num_machines)
    ours, expected, spanned = _old_and_new_overlaps(
        old, new, log, old_machines, num_machines,
        _remap(seed, old_machines, remap),
    )
    assert spanned == (old_kind == new_kind == "grid")
    np.testing.assert_array_equal(ours, expected)


def _grid_overlap_calls(machines: int) -> int:
    """Interpreter-level calls of one side's overlaps, EWH to EWH on ``machines``."""
    condition, weights = BandJoinCondition(beta=2.0), WeightFunction(1.0, 0.2)
    history = _zipf_keys(6, 20_000)
    old, new = (
        build_ewh_partitioning(
            _zipf_keys(seed, 2_000), _zipf_keys(seed + 1, 2_000), condition,
            machines, weights, rng=np.random.default_rng(seed),
        )
        for seed in (7, 9)
    )
    rng = np.random.default_rng(0)
    live = sorted_live(history)
    held = held_by_machine(old, 1, live, rng, machines, np.arange(machines))
    routed, spans = migration._route(new, 1, live, rng, machines)
    overlaps, calls = interpreter_calls(migration._overlaps, routed, spans, held, live)
    assert overlaps.sum() > 0
    return calls


def test_a_grid_migration_overlap_makes_the_same_calls_at_any_fleet_size():
    """Span arithmetic is one broadcast, whatever J: the same call count at
    J = 8 and J = 16.  The marks pass it replaced marked, gathered and summed
    once per machine (60 and 76 calls at J = 8 and 16; 4 and 4 now)."""
    small, large = _grid_overlap_calls(8), _grid_overlap_calls(16)
    print(f"grid-to-grid overlaps: {small} calls at J = 8, {large} at J = 16")
    assert small == large


# ----------------------------------------------------------------------
# A whole repartition event: rebuild + plan + install
# ----------------------------------------------------------------------
MACHINES, PER_SIDE, WINDOW = 12, 1_000, "batches:16"


def _drifting_batches(num_batches: int, redraw_every: int) -> "list[MicroBatch]":
    """Zipf(0.9) over 2,000 values whose value permutation is redrawn periodically."""
    rng = np.random.default_rng(21)
    mass = 1.0 / np.arange(1, 2_001) ** 0.9
    mass /= mass.sum()
    batches = []
    for index in range(num_batches):
        if index % redraw_every == 0:
            values = rng.permutation(2_000).astype(np.float64)
        batches.append(MicroBatch(index, *(
            values[rng.choice(2_000, size=PER_SIDE, p=mass)] for _ in range(2)
        )))
    return batches


def _engine() -> StreamingJoinEngine:
    return StreamingJoinEngine(
        MACHINES,
        BandJoinCondition(beta=2.0),
        WeightFunction(input_cost=1.0, output_cost=0.2),
        policy=DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=16)
        ),
        window=WINDOW,
        seed=5,
    )


def _install_references(monkeypatch) -> None:
    reference_sampling.install(monkeypatch)
    reference_migration.install(monkeypatch)


def test_mid_run_checkpoint_bytes_equal_with_the_reference_kernels(monkeypatch):
    """Bit-identity, tested at the artefact: same ``to_bytes()`` either way.

    A drifting, windowed stream checkpointed after its repartitions; the
    payload holds both reservoirs' heap arrays, the generator state, the
    resident state and every batch's metrics and migration plan.  Measured
    seconds are the one thing allowed to differ, so both runs read a tick
    clock.
    """
    batches = _drifting_batches(40, redraw_every=12)

    def payload() -> "tuple[bytes, int]":
        use_tick_clocks(monkeypatch)
        engine = _engine()
        engine.start()
        for batch in batches:
            engine.process_batch(batch)
        raw = engine.checkpoint().to_bytes()
        repartitions = engine.finish(verify=False).num_repartitions
        engine.close()
        return raw, repartitions

    raw, repartitions = payload()
    _install_references(monkeypatch)
    expected, expected_repartitions = payload()
    assert repartitions == expected_repartitions >= 2
    assert raw == expected


def _calls_in_first_repartition(batches) -> int:
    """Python-level calls (``call`` + ``c_call``) inside the first
    ``_repartition`` that actually repartitions."""
    engine = _engine()
    stage = engine._repartition
    events: "list[int]" = []

    def counted(state, metrics):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            stage(state, metrics)
        finally:
            sys.setprofile(previous)
        if metrics.repartitioned:
            events.append(calls)

    engine._repartition = counted
    engine.start()
    for batch in batches:
        engine.process_batch(batch)
        if events:
            break
    engine.close()
    assert events, "the stream never repartitioned"
    return events[0]


def test_a_repartition_makes_far_fewer_calls_than_the_reference_kernels(monkeypatch):
    """Self-calibrating: no absolute number, no clock.

    The same event -- same stream, seed, state and plan -- costs the
    production kernels at most 0.6x the interpreter-level calls it costs
    with the per-tuple reference loops swapped in (0.25 measured).  A
    per-tuple loop creeping back into the rebuild or the planner trips it.
    """
    batches = _drifting_batches(40, redraw_every=12)
    production = _calls_in_first_repartition(batches)
    _install_references(monkeypatch)
    reference = _calls_in_first_repartition(batches)
    print(
        f"first repartition: {production} calls, {reference} with the reference "
        f"kernels ({production / reference:.2f}x)"
    )
    assert production <= 0.6 * reference, (production, reference)
