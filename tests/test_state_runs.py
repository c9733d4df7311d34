"""Sorted-run join state: a differential oracle and the shape of its cost.

Two kinds of test.  The hypothesis properties drive the production
``RegionStateTable`` (geometrically merged sorted runs) and the pre-rewrite
single-array ``SortedRegionState`` kept in ``tests/reference_state.py``
through the same random insert / evict / install traffic and ask
for the same ``(index, key)`` sets, the same eviction counts and the same
per-machine fold totals.  The structural tests pin the complexity claim
without a clock: how many runs there are, that the largest is not rewritten
every batch, and that the engine's per-batch path never materialises the
whole state.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_state import PairwiseRunState
from reference_state import SortedRegionState as ReferenceState

from repro.core.weights import WeightFunction
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.joins.local import count_join_output
from repro.partitioning.base import sort_arrivals
from repro.streaming import (
    ArrivalLog,
    MicroBatch,
    RegionStateTable,
    SimulatedBackend,
    SortedRegionState,
    StaticEWHPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
)
from repro.streaming.incremental import RUN_MERGE_RATIO
from repro.streaming.window import ExponentialDecayWindow, SlidingWindow, drop_expired

CONDITIONS = [
    BandJoinCondition(beta=2.0),
    EquiJoinCondition(),
    InequalityJoinCondition(InequalityOp.LE),
]
MACHINES = (0, 1)


# ----------------------------------------------------------------------
# Differential oracle
# ----------------------------------------------------------------------
def _draw_keys(rng: np.random.Generator, mode: str, size: int, batch: int) -> np.ndarray:
    """A batch of keys in the stream's key style (see ``key_mode`` below)."""
    if mode == "float":
        return rng.uniform(0.0, 40.0, size).round(1)
    if mode == "big_int":
        # Neighbours above 2**53: float64 would collapse them onto each other.
        return 2**53 + rng.integers(0, 40, size, dtype=np.int64)
    if mode == "promote":
        # Integer keys first, float keys from the fourth batch on.
        if batch < 3:
            return rng.integers(0, 40, size, dtype=np.int64)
        return rng.uniform(0.0, 40.0, size).round(1)
    assert mode == "duplicates"
    return np.full(size, float(rng.integers(0, 4)))


def _random_expiry(rng: np.random.Generator, span: int) -> np.ndarray:
    """An eviction set over arrival indices ``[0, span)``: sorted and unique."""
    kind = rng.choice(["range", "holes", "foreign"])
    if span == 0:
        return np.empty(0, dtype=np.int64)
    if kind == "range":  # what a SlidingWindow evicts
        low = int(rng.integers(0, span))
        return np.arange(low, int(rng.integers(low, span)) + 1, dtype=np.int64)
    if kind == "holes":  # what an ExponentialDecayWindow evicts
        return np.flatnonzero(rng.random(span) < 0.3)
    # Indices nobody holds, mixed with some that are held.
    return np.unique(rng.integers(-5, span + 50, max(1, span // 4)))


def _assert_same_state(ours: SortedRegionState, reference: ReferenceState) -> None:
    """Same ``(index, key)`` set; our merged view is key-sorted and parallel."""
    keys, index = ours.keys, ours.index
    assert len(ours) == len(reference) == len(index)
    assert ours.nbytes == reference.nbytes
    assert np.all(keys[:-1] <= keys[1:])
    order, reference_order = np.argsort(index), np.argsort(reference.index)
    np.testing.assert_array_equal(index[order], reference.index[reference_order])
    np.testing.assert_array_equal(keys[order], reference.keys[reference_order])
    if len(reference):
        assert keys.dtype == reference.keys.dtype
    np.testing.assert_array_equal(
        np.sort(ours.arrival_indices()), np.sort(reference.index)
    )


def _reference_fold(state1, state2, idx1, keys1, idx2, keys2, condition) -> int:
    """The pre-rewrite fold: two searches over whole single-array states."""
    old_keys1 = state1.keys
    state2.insert(idx2, keys2)
    state1.insert(idx1, keys1)
    return count_join_output(keys1, state2.keys, condition) + count_join_output(
        keys2, old_keys1, condition.transposed
    )


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_mode=st.sampled_from(["float", "big_int", "promote", "duplicates"]),
    condition=st.sampled_from(CONDITIONS),
    steps=st.integers(1, 40),
)
def test_runs_agree_with_the_single_array_reference(seed, key_mode, condition, steps):
    rng = np.random.default_rng(seed)
    table = RegionStateTable(MACHINES)
    reference = {
        (machine, side): ReferenceState() for machine in MACHINES for side in (1, 2)
    }
    # One growing key history per side, indexed by global arrival index.
    history = {1: np.empty(0), 2: np.empty(0)}
    batch = 0
    for _ in range(steps):
        op = rng.choice(["fold", "fold", "fold", "evict", "install"])
        if op == "fold":
            layout, arrivals = [], {}
            for side in (1, 2):
                # Small and large batches, and now and then an empty side.
                size = int(rng.choice([0, 1, 3, 17, 120]))
                keys = _draw_keys(rng, key_mode, size, batch)
                start = len(history[side])
                history[side] = (
                    np.concatenate([history[side], keys]) if start else keys
                )
                owner = rng.integers(0, len(MACHINES), size)
                arrivals[side] = [
                    np.arange(start, start + size, dtype=np.int64)[owner == slot]
                    for slot in range(len(MACHINES))
                ]
            for slot in range(len(MACHINES)):
                for side in (1, 2):
                    idx = arrivals[side][slot]
                    layout += sort_arrivals(idx, history[side][idx])
            tasks, owners = table.fold(layout)
            per_task = np.array(
                [
                    count_join_output(
                        needles,
                        run,
                        condition if owner % 2 == 0 else condition.transposed,
                    )
                    for (needles, run), owner in zip(tasks, owners)
                ],
                dtype=np.int64,
            )
            totals = table.sum_halves(per_task, owners).sum(axis=1)
            for slot, machine in enumerate(MACHINES):
                idx1, keys1, idx2, keys2 = layout[4 * slot : 4 * slot + 4]
                assert totals[slot] == _reference_fold(
                    reference[machine, 1],
                    reference[machine, 2],
                    idx1, keys1, idx2, keys2, condition,
                )
            batch += 1
        elif op == "evict":
            expired = {
                side: _random_expiry(rng, len(history[side])) for side in (1, 2)
            }
            dropped = table.evict(expired[1], expired[2])
            assert dropped == [
                tuple(reference[machine, side].evict(expired[side]) for side in (1, 2))
                for machine in MACHINES
            ]
        else:
            layout = []
            for machine in MACHINES:
                for side in (1, 2):
                    span = len(history[side])
                    idx = np.flatnonzero(rng.random(span) < 0.4).astype(np.int64)
                    layout += sort_arrivals(idx, history[side][idx])
                    reference[machine, side] = ReferenceState.from_pairs(
                        idx, history[side][idx]
                    )
            table.install(layout)
            for machine in MACHINES:
                assert len(table.state1[machine].run_keys) <= 1
        for machine in MACHINES:
            _assert_same_state(table.state1[machine], reference[machine, 1])
            _assert_same_state(table.state2[machine], reference[machine, 2])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_mode=st.sampled_from(["float", "big_int", "promote", "duplicates"]),
    steps=st.integers(1, 60),
)
def test_one_pass_merge_leaves_the_pairwise_cascade_run_list(seed, key_mode, steps):
    """Bit for bit: run count, both columns of every run, dtype.

    The production append picks the suffix of runs to merge from their
    lengths and merges it with one stable sort; the reference is the
    cascade of pairwise merges it replaced.  Both are fed the same
    key-sorted arrivals (the order among equal keys of an arrival sort is
    unspecified, the merge's is not), and equal keys (``duplicates`` is
    nothing else) must come out of the merges in the same order, so the
    index columns are compared as they lie, not as sets.
    """
    rng = np.random.default_rng(seed)
    ours, reference = SortedRegionState(), PairwiseRunState()
    arrived = batch = 0
    for _ in range(steps):
        if rng.random() < 0.8:
            # Sizes a factor of eight apart and closer: appends, two-run
            # merges and cascades through three or more runs all occur.
            size = int(rng.choice([0, 1, 2, 9, 17, 120, 900]))
            keys = _draw_keys(rng, key_mode, size, batch)
            idx = np.arange(arrived, arrived + size, dtype=np.int64)
            rng.shuffle(idx)
            idx, keys = sort_arrivals(idx, keys)
            ours.append_sorted(idx, keys)
            reference.insert(idx, keys)
            arrived += size
            batch += 1
        else:
            expired = _random_expiry(rng, arrived)
            assert ours.evict(expired) == reference.evict(expired)
        assert len(ours._runs) == len(reference._runs)
        for (keys, index), (ref_keys, ref_index) in zip(ours._runs, reference._runs):
            assert keys.dtype == ref_keys.dtype and index.dtype == ref_index.dtype
            np.testing.assert_array_equal(keys, ref_keys)
            np.testing.assert_array_equal(index, ref_index)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    held=st.integers(0, 60),
    kind=st.sampled_from(["range", "holes", "foreign"]),
)
def test_drop_expired_is_set_difference(seed, held, kind):
    """The shared membership primitive, range fast path and fallback alike."""
    rng = np.random.default_rng(seed)
    held = rng.permutation(100)[:held].astype(np.int64)  # any order
    if kind == "range":
        low = int(rng.integers(0, 100))
        expired = np.arange(low, int(rng.integers(low, 100)) + 1, dtype=np.int64)
    elif kind == "holes":
        expired = np.flatnonzero(rng.random(100) < 0.3)
    else:
        expired = np.unique(rng.integers(-20, 140, 30))
    survivors = drop_expired(held, expired)
    assert survivors.tolist() == [i for i in held.tolist() if i not in set(expired.tolist())]


# ----------------------------------------------------------------------
# The complexity claim, without a clock
# ----------------------------------------------------------------------
def test_run_count_is_logarithmic_and_the_big_run_is_not_rewritten(rng):
    batch, inserts = 50, 256
    state = SortedRegionState()
    history = rng.integers(0, 5000, batch * inserts).astype(np.float64)
    kept_largest = 0
    for step in range(inserts):
        largest_before = max(state._runs, key=lambda run: len(run[0]), default=None)
        idx = np.arange(step * batch, (step + 1) * batch, dtype=np.int64)
        state.insert(idx, history[idx])
        runs = state._runs
        resident = (step + 1) * batch
        bound = math.ceil(math.log(resident / batch, RUN_MERGE_RATIO)) + 1
        assert len(runs) <= bound
        assert sum(len(index) for _, index in runs) == resident == len(state)
        for keys, index in runs:
            assert np.all(keys[:-1] <= keys[1:])
            np.testing.assert_array_equal(keys, history[index])
        every_index = np.concatenate([index for _, index in runs])
        assert len(np.unique(every_index)) == resident
        for older, newer in zip(runs, runs[1:]):
            assert len(older[0]) >= RUN_MERGE_RATIO * len(newer[0])
        if largest_before is not None and any(
            keys is largest_before[0] for keys, _ in runs
        ):
            kept_largest += 1
    # The point of the layout: the largest run is the same array object
    # across most consecutive inserts (one array + np.insert rewrote it
    # on every single one).
    assert kept_largest >= 0.8 * (inserts - 1)


def test_a_steady_batch_stays_call_light():
    """A deterministic proxy for the count stage's cost: no clock, no ``perf/``.

    The ``stream_steady`` shape -- J = 8, 1,000 tuples per side and batch,
    Zipf(0.8) over 2,000 values, ``batches:16``, a static plan -- is
    interpreter-bound, so what a batch costs is how many calls it makes.
    With each side of the batch sorted once and handed to the machines as
    slices, joinable bounds computed once per condition per dispatch, the
    run merges done in one pass and the halves summed by one ``reduceat`` a
    batch makes about 1,190 Python-level calls (``call`` + ``c_call``); with
    per-machine masks, gathers and argsorts on the route it made 1,530, and
    with bounds recomputed per task on top 2,150.  And the bounds themselves
    are computed at most twice per ``count_batch``, once per condition,
    however many runs the fold searched.
    """
    rng = np.random.default_rng([14, 1])
    values = rng.permutation(2_000)
    mass = 1.0 / np.arange(1, 2_001) ** 0.8
    mass /= mass.sum()
    batches = [
        MicroBatch(
            index,
            *(
                values[rng.choice(2_000, size=1_000, p=mass)].astype(np.float64)
                for _ in range(2)
            ),
        )
        for index in range(96)
    ]
    engine = StreamingJoinEngine(
        8,
        BandJoinCondition(beta=1.0),
        WeightFunction(1.0, 0.2),
        policy=StaticEWHPolicy(),
        window="batches:16",
        seed=14,
    )
    engine.start()
    for batch in batches[:64]:
        engine.process_batch(batch)

    calls = bounds = tasks = gathers = sorts = 0

    def profiler(frame, event, arg):
        nonlocal calls, bounds, tasks, gathers, sorts
        if event == "call":
            calls += 1
            name = frame.f_code.co_name
            if name == "joinable_bounds":
                bounds += 1
            elif name == "join_regions":
                tasks += len(frame.f_locals["tasks"])
            elif name == "__getitem__" and isinstance(
                frame.f_locals.get("self"), ArrivalLog
            ):
                gathers += 1
            elif name == "argsort" and frame.f_back.f_code.co_name != "_merge_sorted":
                sorts += 1
        elif event == "c_call":
            calls += 1

    previous = sys.getprofile()
    route_sorts = 0
    for batch in batches[64:]:
        bounds = gathers = sorts = 0
        sys.setprofile(profiler)
        try:
            engine.process_batch(batch)
        finally:
            sys.setprofile(previous)
        assert 1 <= bounds <= 2
        # The router sorts each side of the batch once and hands out slices
        # with their keys: nothing is gathered back out of the logs, and the
        # only other sorts are the state's run merges.
        assert gathers == 0
        assert 1 <= sorts <= 2
        route_sorts += sorts
    engine.close()
    measured = len(batches) - 64
    print(
        f"steady route + count stages: {calls / measured:.0f} calls per batch "
        f"over {tasks / measured:.1f} search tasks, {route_sorts / measured:.0f} "
        "argsorts outside run merges, 0 gathers from the arrival logs"
    )
    assert tasks >= 2 * 8 * measured
    assert calls / measured <= 1_310


def test_nothing_keeps_a_second_copy_of_the_state(rng):
    state = SortedRegionState()
    for step in range(40):
        idx = np.arange(step * 10, (step + 1) * 10, dtype=np.int64)
        state.insert(idx, rng.uniform(0, 100, 10))
    assert SortedRegionState.__slots__ == ("_runs",)
    assert len(state._runs) > 1
    # The merged read views are built per read and not retained.
    assert state.keys is not state.keys
    assert len(state) == 400 and state.nbytes == 400 * 16


def test_a_sliding_window_leaves_nothing_below_its_cutoff(rng):
    window, batch = SlidingWindow(batches=4), 25
    state = SortedRegionState()
    live = np.empty(0, dtype=np.int64)
    starts: list[int] = []
    for step in range(64):
        idx = np.arange(step * batch, (step + 1) * batch, dtype=np.int64)
        starts.append(step * batch)
        live = np.concatenate([live, idx])
        state.insert(idx, rng.uniform(0, 100, batch))
        expired = window.evictions(live, starts, (step + 1) * batch, rng)
        # Every sliding-window eviction is one contiguous index range.
        if len(expired):
            assert expired[-1] - expired[0] + 1 == len(expired)
        assert state.evict(expired) == len(expired)
        live = drop_expired(live, expired)
        cutoff = starts[-4] if len(starts) >= 4 else 0
        for _, index in state._runs:
            assert len(index) and index.min() >= cutoff
        assert len(state) == len(live) <= 4 * batch
        assert len(state._runs) <= 3


def test_decay_evictions_take_the_membership_path(rng):
    window = ExponentialDecayWindow(0.7)
    state, reference = SortedRegionState(), ReferenceState()
    live = np.empty(0, dtype=np.int64)
    for step in range(30):
        idx = np.arange(step * 20, (step + 1) * 20, dtype=np.int64)
        keys = rng.uniform(0, 100, 20)
        live = np.concatenate([live, idx])
        state.insert(idx, keys)
        reference.insert(idx, keys)
        expired = window.evictions(live, [], len(live), rng)
        assert state.evict(expired) == reference.evict(expired) == len(expired)
        live = drop_expired(live, expired)
        _assert_same_state(state, reference)


def test_emptied_state_adopts_the_next_dtype():
    state = SortedRegionState()
    state.insert(np.arange(3, dtype=np.int64), np.array([5, 6, 7], dtype=np.int64))
    assert state.keys.dtype == np.int64
    assert state.evict(np.arange(3, dtype=np.int64)) == 3
    assert len(state) == 0 and state._runs == []
    state.insert(np.array([3], dtype=np.int64), np.array([0.5]))
    assert state.keys.dtype == np.float64


def _windowed_static_engine(backend) -> StreamingJoinEngine:
    """A started static-plan engine under ``batches:3`` on the given backend."""
    engine = StreamingJoinEngine(
        4,
        BandJoinCondition(beta=1.0),
        WeightFunction(1.0, 1.0),
        policy=StaticEWHPolicy(),
        backend=backend,
        window="batches:3",
    )
    engine.start()
    return engine


def _random_batch(rng, index: int) -> MicroBatch:
    """150 integer-valued keys per side from ``range(200)``."""
    return MicroBatch(
        index,
        rng.integers(0, 200, 150).astype(np.float64),
        rng.integers(0, 200, 150).astype(np.float64),
    )


def test_process_batch_never_reads_the_resident_view(monkeypatch):
    """Accounting is O(J): the whole-state read view is for migrations only."""
    backend = SimulatedBackend()

    def refuse():
        raise AssertionError("resident_indices() called on the per-batch path")

    rng = np.random.default_rng(7)
    engine = _windowed_static_engine(backend)
    monkeypatch.setattr(backend, "resident_indices", refuse)
    table = backend._table
    for index in range(12):
        metrics = engine.process_batch(_random_batch(rng, index))
        assert metrics.tuples_evicted > 0 or index < 3
        # The running count is the truth, batch after batch.
        assert metrics.resident_tuples == sum(
            len(state)
            for side in (table.state1, table.state2)
            for state in side.values()
        )
    # The patch does bite where the view is legitimately read.
    with pytest.raises(AssertionError, match="per-batch path"):
        engine.checkpoint()


@pytest.mark.multiprocess
def test_sticky_process_batch_sends_no_indices_command(monkeypatch):
    """Reading state back is for migrations and checkpoints: the per-batch
    path of a sticky run neither calls ``resident_indices`` nor sends its
    ``"indices"`` worker command."""
    sent = []
    rng = np.random.default_rng(7)
    with StickyWorkerBackend(max_workers=2) as backend:
        broadcast = backend._broadcast

        def spy(command):
            sent.append(command[0])
            return broadcast(command)

        engine = _windowed_static_engine(backend)
        monkeypatch.setattr(backend, "_broadcast", spy)
        for index in range(8):
            metrics = engine.process_batch(_random_batch(rng, index))
            # The running count agrees with the backend's per-machine counts.
            assert metrics.resident_tuples == int(backend._counts.sum())
        assert set(sent) == {"count", "evict"}
        engine.checkpoint()
        assert sent[-1] == "indices"
        engine.close()
