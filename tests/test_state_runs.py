"""Counted-run join state: differential oracles and the shape of its cost.

Two kinds of test.  The hypothesis properties drive the production
counted runs (``SortedRegionState``: a key multiset in geometrically merged
counted runs, evicted by tombstones) -- through the per-machine table kept
in ``tests/reference_state.py`` -- and the references beside it through the
same random insert / evict / install traffic: the single-array ``(index,
key)`` state must hold the same key multisets and count the same
per-machine fold totals -- eviction there is by arrival index, here by
tombstoning the keys of the expired tuples a machine holds -- and the
pairwise cascade must leave the same run list.
The structural tests pin the complexity claim without a clock: how many
runs there are, how short they are under skew, that the largest is not
rewritten every batch, and that the engine's per-batch path never
re-derives the whole state.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_state import (
    IndexedRunState,
    PairwiseRunState,
    RegionStateTable,
    resident_indices,
)
from reference_state import SortedRegionState as ReferenceState
from streaming_harness import interpreter_calls, multiset_difference
from test_migration_oracle import MACHINES as FLEET
from test_migration_oracle import _drifting_batches
from test_migration_oracle import _engine as _drifting_engine

from repro.core.weights import WeightFunction
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.joins import native
from repro.joins.local import count_join_output
from repro.streaming import (
    ArrivalLog,
    MicroBatch,
    SimulatedBackend,
    SortedRegionState,
    StaticEWHPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
)
from repro.streaming import incremental
from repro.partitioning.grid_routed import MachineSlices
from repro.partitioning.routing import RoutedSide, SideLayout
from repro.streaming.backends import StateOwner
from repro.streaming.incremental import RUN_MERGE_RATIO
from repro.streaming.window import ExponentialDecayWindow, SlidingWindow, drop_expired

CONDITIONS = [
    BandJoinCondition(beta=2.0),
    EquiJoinCondition(),
    InequalityJoinCondition(InequalityOp.LE),
]
MACHINES = (0, 1)
BAND = BandJoinCondition(beta=1.0)


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
    if mode == "specials":
        # NaN and both signed zeros, through tombstones and merges.
        return rng.choice([np.nan, -0.0, 0.0, 1.0, 2.5], size)
    assert mode == "duplicates"
    return np.full(size, float(rng.integers(0, 4)))


KEY_MODES = ["float", "big_int", "promote", "specials", "duplicates"]


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


def assert_same_multiset(actual: np.ndarray, expected: np.ndarray) -> None:
    """The same keys with the same multiplicities, by value (NaN == NaN)."""
    assert len(actual) == len(expected)
    np.testing.assert_array_equal(np.sort(actual), np.sort(expected))
    if len(expected):
        assert actual.dtype == expected.dtype


def _assert_same_state(ours: SortedRegionState, reference: ReferenceState) -> None:
    """Same key multiset; our merged view is ascending."""
    keys = ours.keys
    assert len(ours) == len(reference)
    assert np.array_equal(keys, np.sort(keys), equal_nan=True)
    assert_same_multiset(keys, reference.keys)


def _reference_fold(state1, state2, idx1, keys1, idx2, keys2, condition) -> int:
    """The pre-rewrite fold: two searches over whole single-array states."""
    old_keys1 = state1.keys
    state2.insert(idx2, keys2)
    state1.insert(idx1, keys1)
    return count_join_output(keys1, state2.keys, condition) + count_join_output(
        keys2, old_keys1, condition.transposed
    )


def _signed_count(needles, run, cum, condition) -> int:
    """A counted run's count the long way: its multiset expanded, by sign."""
    counts = np.ones(len(run), dtype=np.int64) if cum is None else np.diff(cum)
    positive = np.repeat(run, np.clip(counts, 0, None))
    negative = np.repeat(run, np.clip(-counts, 0, None))
    return count_join_output(needles, positive, condition) - count_join_output(
        needles, negative, condition
    )


def _sorted_columns(idx: np.ndarray, history: np.ndarray):
    """``(indices, keys)`` key-sorted, as the router hands them over."""
    order = np.argsort(history[idx])
    return idx[order], history[idx][order]


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_mode=st.sampled_from(KEY_MODES),
    condition=st.sampled_from(CONDITIONS),
    steps=st.integers(1, 40),
)
def test_runs_agree_with_the_single_array_reference(seed, key_mode, condition, steps):
    """Evicting by index there, by tombstoning the expired keys held here."""
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
            columns, arrivals = [], {}
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
                    columns.append(_sorted_columns(arrivals[side][slot], history[side]))
            tasks, owners = table.fold([keys for _, keys in columns])
            per_task = np.array(
                [
                    _signed_count(
                        needles, run, cum,
                        condition if owner % 2 == 0 else condition.transposed,
                    )
                    for (needles, run, cum), owner in zip(tasks, owners)
                ],
                dtype=np.int64,
            )
            totals = table.sum_halves(per_task, owners).sum(axis=1)
            for slot, machine in enumerate(MACHINES):
                (idx1, keys1), (idx2, keys2) = columns[2 * slot : 2 * slot + 2]
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
            tombstones = [
                reference[machine, side].expired_keys(expired[side])
                for machine in MACHINES
                for side in (1, 2)
            ]
            dropped = table.evict(tombstones)
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
                    layout.append(np.sort(history[side][idx]))
                    reference[machine, side] = ReferenceState.from_pairs(
                        idx, history[side][idx]
                    )
            table.install(layout)
            for machine in MACHINES:
                assert len(table.state1[machine].runs) <= 1
        for machine in MACHINES:
            _assert_same_state(table.state1[machine], reference[machine, 1])
            _assert_same_state(table.state2[machine], reference[machine, 2])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    key_mode=st.sampled_from(KEY_MODES),
    steps=st.integers(1, 60),
)
def test_one_pass_merge_leaves_the_pairwise_cascade_run_list(seed, key_mode, steps):
    """Run for run: count, distinct keys by value, cumulative counts, dtype.

    The production append picks the suffix of runs to merge from their
    distinct lengths and merges it with one stable sort and one running
    total; the reference merges the same suffix a pair at a time by
    counting key values.  Tombstones of held keys ride along, so runs
    cancel, vanish and come back.
    """
    rng = np.random.default_rng(seed)
    ours, reference = SortedRegionState(), PairwiseRunState()
    held = np.empty(0)
    batch = 0
    for _ in range(steps):
        if rng.random() < 0.75 or len(held) == 0:
            # Sizes a factor of eight apart and closer: appends, two-run
            # merges and cascades through three or more runs all occur.
            size = int(rng.choice([0, 1, 2, 9, 17, 120, 900]))
            keys = np.sort(_draw_keys(rng, key_mode, size, batch))
            ours.append_sorted(keys)
            reference.append_sorted(keys)
            held = np.concatenate([held, keys]) if len(held) else keys
            batch += 1
        else:
            expired = np.sort(held[rng.random(len(held)) < 0.3])
            ours.tombstone(expired)
            reference.tombstone(expired)
            held = multiset_difference(held, expired)
        assert len(ours.runs) == len(reference._runs)
        for (keys, cum), (ref_keys, ref_cum) in zip(ours.runs, reference._runs):
            assert keys.dtype == ref_keys.dtype
            np.testing.assert_array_equal(keys, ref_keys)
            if cum is None or ref_cum is None:
                assert cum is None and ref_cum is None
            else:
                np.testing.assert_array_equal(cum, ref_cum)
        assert len(ours) == len(held)
        assert_same_multiset(ours.keys, held.astype(ours.keys.dtype))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    held=st.integers(0, 60),
    kind=st.sampled_from(["range", "holes", "foreign"]),
)
def test_drop_expired_is_set_difference(seed, held, kind):
    """The live-set membership primitive, range fast path and fallback alike."""
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
        largest_before = max(state.runs, key=lambda run: len(run[0]), default=None)
        state.insert(history[step * batch : (step + 1) * batch])
        runs = state.runs
        resident = (step + 1) * batch
        assert len(state) == resident
        np.testing.assert_array_equal(state.keys, np.sort(history[:resident]))
        for keys, _ in runs:
            assert np.all(keys[:-1] <= keys[1:])
        # Adjacent runs stay a ratio apart in *distinct* keys, so the run
        # count is logarithmic in the distinct keys the oldest run holds.
        for older, newer in zip(runs, runs[1:]):
            assert len(older[0]) >= RUN_MERGE_RATIO * len(newer[0])
        assert len(runs) <= math.floor(math.log(len(runs[0][0]), RUN_MERGE_RATIO)) + 1
        if largest_before is not None and any(
            keys is largest_before[0] for keys, _ in runs
        ):
            kept_largest += 1
    # The point of the layout: the largest run is the same array object
    # across most consecutive inserts (one array + np.insert rewrote it
    # on every single one).
    assert kept_largest >= 0.8 * (inserts - 1)
    # And it counts: 12,800 tuples over at most 5,000 distinct keys.
    assert sum(len(keys) for keys, _ in state.runs) <= 5_000 + batch


def test_a_steady_batch_stays_call_light():
    """A deterministic proxy for the count stage's cost: no clock, no ``perf/``.

    The ``stream_steady`` shape -- J = 8, 1,000 tuples per side and batch,
    Zipf(0.8) over 2,000 values, ``batches:16``, a static plan -- is
    interpreter-bound, so what a batch costs is how many calls it makes.
    With each side of the batch sorted once and handed to the machines as
    slices, joinable bounds computed once per condition per dispatch, the
    run merges done in one pass and the halves summed by one ``reduceat`` a
    batch made about 1,227 Python-level calls (``call`` + ``c_call``),
    evictions masking every run by arrival index included; with per-machine
    masks, gathers and argsorts on the route it made 1,530, and with bounds
    recomputed per task on top 2,150.  Counted runs and tombstones make it
    about 1,190: the eviction now routes each side's expired slice like a
    batch (two more sorts and two gathers from the logs) and a merge groups
    equal keys, but no run is masked, and under the window's skew each
    machine-side is one or two short runs, so the merges and searches are
    fewer calls (bound 1,310).  Holding each side once per owner instead of
    once per machine-side makes it about 436: each half searches the
    owner's few runs once for all eight machines, clipped to each machine's
    key range, where it searched every machine's runs (about 3 search
    tasks per batch instead of 2 x 8 x runs), and a batch appends and
    tombstones one run per side instead of sixteen (bound 480).  Counting
    each half in one kernel call -- each machine's slice cut from each run,
    its needles searched and its counts summed into its total in C, the
    transposed band's exact inverse bounds one more call -- made it about
    324: no search task, cut or reshape-sum per run, no gathered segments
    (bound 356).  Folding the whole batch -- both sides' run merges and
    both halves -- into one kernel call, and appending the live sets in
    place, made it about 316 (bound 347).  The kernel as an extension
    module, whose fold walks the merges and halves itself where a Python
    wrapper built a table of words and read some 40 array addresses, made
    it about 288.  Holding each live set as a range -- no index array
    appended, searched or compared -- and evicting each expired batch from
    the sort its route already made -- no gather, no second sort -- makes
    it about 251; the bound is that plus 10%, 276.  And every batch
    computes its bounds exactly twice, once per half, and calls the kernel
    exactly once, however many runs it merged and searched.
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

    calls = bounds = kernels = runs = gathers = sorts = bookkeeping = 0

    def in_log(frame) -> bool:
        return frame is not None and isinstance(frame.f_locals.get("self"), ArrivalLog)

    def profiler(frame, event, arg):
        nonlocal calls, bounds, kernels, runs, gathers, sorts, bookkeeping
        if event == "call":
            calls += 1
            name = frame.f_code.co_name
            if name == "joinable_bounds":
                bounds += 1
            elif name == "__getitem__" and in_log(frame):
                gathers += 1
            elif name in ("argsort", "sort"):
                sorts += 1
            elif name == "array_equal" and in_log(frame.f_back):
                bookkeeping += 1
        elif event == "c_call":
            calls += 1
            if arg is np.arange and in_log(frame):
                bookkeeping += 1
            elif arg is native.fold:  # a builtin: its arguments are the caller's locals
                kernels += 1
                runs += sum(
                    len(group_runs) + (merge is not None)
                    for *_, groups in frame.f_locals["halves"]
                    for group_runs, _, _, merge in groups
                )

    previous = sys.getprofile()
    route_sorts = 0
    for batch in batches[64:]:
        bounds = kernels = gathers = sorts = bookkeeping = 0
        sys.setprofile(profiler)
        try:
            engine.process_batch(batch)
        finally:
            sys.setprofile(previous)
        # One bounds pass per half, and one kernel call for the batch.
        assert bounds == 2 and kernels == 1
        # The router sorts the keys of each side of the batch once and hands
        # out slices; each side's expired slice is a batch the route stage
        # sorted, so nothing is gathered out of the logs or sorted again,
        # and a run merge sorts nothing.  The live sets are ranges: no
        # index array is built or compared.
        assert gathers == 0
        assert sorts == 2
        assert bookkeeping == 0
        route_sorts += sorts
    engine.close()
    measured = len(batches) - 64
    print(
        f"steady route + count + evict stages: {calls / measured:.0f} calls per "
        f"batch, 1 kernel call over {runs / measured:.1f} runs, "
        f"{route_sorts / measured:.0f} sorts, no gather from the arrival logs"
    )
    # A few runs per side, each searched once for every machine.
    assert 2 * measured <= runs <= 4 * measured
    assert calls / measured <= 276


def test_a_growth_batch_searches_distinct_keys(monkeypatch):
    """A deterministic proxy for what counted runs save: no clock, no ``perf/``.

    The ``stream_growth`` shape scaled down -- J = 8, Zipf(0.5) keys, an
    unbounded insert-only stream, a static plan -- with 1,000 tuples per
    side and batch over 5,000 values for 128 batches.  A batch's count
    searches every run of the state once per half; runs of tuples made that
    the whole resident state, about as many elements as tuples held.
    Counted runs hold each distinct key once, and the owner holds each side
    once for all eight machines, so a late batch searches each side's
    distinct keys about once (at most 1.5 times: the younger runs of the
    cascade) -- at most a tenth of the tuples resident (about 3% measured;
    4% when each machine-side held its own runs).
    """
    rng = np.random.default_rng([14, 1])
    values = rng.permutation(5_000)
    mass = 1.0 / np.arange(1, 5_001) ** 0.5
    mass /= mass.sum()
    searched: "list[int]" = []
    fold = native.fold

    def searching(merges, halves, out):
        merged = fold(merges, halves, out)
        for *_, groups in halves:
            for runs, _, _, merge in groups:
                searched[-1] += sum(len(keys) for keys, _ in runs)
                if merge is not None and merged[merge] is not None:
                    searched[-1] += len(merged[merge][0])
        return merged

    monkeypatch.setattr(native, "fold", searching)
    backend = SimulatedBackend()

    engine = StreamingJoinEngine(
        8,
        BandJoinCondition(beta=1.0),
        WeightFunction(1.0, 0.2),
        policy=StaticEWHPolicy(),
        backend=backend,
        seed=14,
    )
    engine.start()
    for index in range(128):
        distinct = sum(
            len(np.unique(state.keys)) for states in backend._owner.states for state in states
        )
        searched.append(0)
        metrics = engine.process_batch(
            MicroBatch(
                index,
                *(
                    values[rng.choice(5_000, size=1_000, p=mass)].astype(np.float64)
                    for _ in range(2)
                ),
            )
        )
        if index >= 96:
            assert searched[-1] <= metrics.resident_tuples / 10
            assert searched[-1] <= 1.5 * distinct
    engine.close()
    print(
        f"growth batch: {searched[-1]:,} elements searched against "
        f"{metrics.resident_tuples:,} resident tuples "
        f"({searched[-1] / metrics.resident_tuples:.1%})"
    )


def _growth_owner(machines: int, runs: int):
    """A state owner in ``stream_growth``'s layout, each side ``runs`` runs, and a batch.

    One group every machine reads through its key range (an EWH grid plan's
    slice rule over 20,000 values cut into ``machines`` equal ranges), the
    state a counted run of 100,000 distinct keys per side and, for three
    runs, two younger runs of 10,000 and 1,000 keys that the cascade leaves
    alone.  The batch has 100 arrivals per side, which become a run of
    their own too, so a count merges nothing, whatever the runs.
    """
    rng = np.random.default_rng([46, machines, runs])
    bounds = np.linspace(0.0, 20_000.0, machines + 1)
    regions = np.arange(machines)
    slices = MachineSlices(
        np.concatenate([bounds[:-1], bounds[1:]]),
        np.where(regions == 0, 2 * machines, regions),
        np.where(regions == machines - 1, 2 * machines + 1, machines + regions),
    )
    layout = SideLayout([np.arange(machines, dtype=np.int64)], slices, whole=True)

    def routed(size):
        keys = np.sort(rng.uniform(0.0, 20_000.0, size))
        return RoutedSide(keys, *slices(keys), layout)

    owner = StateOwner()
    owner.install(routed(100_000), routed(100_000))
    for size in (10_000, 1_000)[: runs - 1]:
        owner.count(routed(size), routed(size), (BAND, BAND.transposed))
    assert [len(states[0].runs) for states in owner.states] == [runs, runs]
    return owner, routed(100), routed(100)


def test_a_batch_count_makes_the_same_calls_at_any_fleet_size_and_run_count():
    """A deterministic proxy for the count's fixed cost: no clock, no ``perf/``.

    A ``stream_growth``-shaped batch's count (``StateOwner.count``: each
    side's cascade settled, each half bounded once, one fold call for the
    batch) makes the same interpreter calls at J = 8 and J = 16, and with
    one run per side or three: the kernel cuts each machine's slice from
    each run and sums it into the machine's total, so nothing in the
    interpreter is done per machine or per run, and the kernel reads each
    run's arrays itself.  (A count made one search task per run, each a
    kernel call with its own wrapper, a cut and a reshape-sum per group,
    before both halves became one kernel call each, and then one fold.)
    """
    calls = {}
    for machines in (8, 16):
        for runs in (1, 3):
            owner, new1, new2 = _growth_owner(machines, runs)
            _, calls[machines, runs] = interpreter_calls(
                owner.count, new1, new2, (BAND, BAND.transposed)
            )
    print(f"a growth batch's count: {calls} interpreter calls (J, runs per side)")
    assert len(set(calls.values())) == 1


def test_a_refused_fold_changes_nothing():
    """A broken layout raises by name, and the owner holds what it held, run for run.

    The fold checks every reader, share and slice bound before it merges or
    writes anything, and the owner swaps in the merged runs and a new
    layout only after the call succeeds -- so a refusal in the middle of a
    batch leaves no side half-applied.  The batch here cascades into two
    of the three runs on each side, so there are merges to discard.
    """
    owner, _, _ = _growth_owner(8, 3)
    layout = owner.layouts[1]
    keys = np.sort(np.random.default_rng(48).uniform(0.0, 20_000.0, 1_000))
    good = RoutedSide(keys, *layout.cut(keys), layout)
    cut = layout.cut
    broken = [
        ("fold: a group's reader is not one of the machines",
         SideLayout([np.array([0, 1, 2, 3, 4, 5, 6, 8])], cut, whole=True), None),
        ("fold: a reader's slice bound indexes no cut",
         SideLayout(layout.readers, cut._replace(last=cut.last + 100), whole=True), None),
        ("fold: a machine's share lies outside the needles", layout, good.stops + keys.size),
    ]

    def snapshot():
        return [
            [(run.tobytes(), None if cum is None else cum.tobytes()) for run, cum in state.runs]
            for states in owner.states
            for state in states
        ]

    before, held, layouts = snapshot(), owner.held(), list(owner.layouts)
    for message, bad_layout, stops in broken:
        bad = good._replace(layout=bad_layout, stops=good.stops if stops is None else stops)
        with pytest.raises(ValueError, match=message):
            owner.count(good, bad, (BAND, BAND.transposed))
        assert owner.held() == held and snapshot() == before
        assert all(now is then for now, then in zip(owner.layouts, layouts))
    owner.count(good, good, (BAND, BAND.transposed))
    assert owner.held() == (held[0] + keys.size, held[1] + keys.size)
    assert [len(states[0].runs) for states in owner.states] == [2, 2]


def test_nothing_keeps_a_second_copy_of_the_state(rng):
    state = SortedRegionState()
    for _ in range(40):
        state.insert(rng.uniform(0, 100, 10))
    assert SortedRegionState.__slots__ == ("_runs",)
    assert len(state.runs) > 1
    # The merged read view is built per read and not retained.
    assert state.keys is not state.keys
    assert len(state) == 400
    assert state.nbytes == sum(
        keys.nbytes + (0 if cum is None else cum.nbytes) for keys, cum in state.runs
    )


def test_a_sliding_window_leaves_nothing_below_its_cutoff(rng):
    """Keys are arrival indices here, so the multiset shows what is live."""
    window, batch = SlidingWindow(batches=4), 25
    state = SortedRegionState()
    live = np.empty(0, dtype=np.int64)
    starts: list[int] = []
    for step in range(64):
        idx = np.arange(step * batch, (step + 1) * batch, dtype=np.int64)
        starts.append(step * batch)
        live = np.concatenate([live, idx])
        state.insert(idx.astype(np.float64))
        expired = window.evictions(live, starts, (step + 1) * batch, rng)
        assert state.evict(expired.astype(np.float64)) == len(expired)
        live = drop_expired(live, expired)
        np.testing.assert_array_equal(state.keys, live.astype(np.float64))
        assert len(state) == len(live) <= 4 * batch
        # The tombstones wait for the next append's merge: one run of live
        # and expired keys, one of arrivals, one of tombstones at most.
        assert len(state.runs) <= 3


def test_decay_evictions_take_the_membership_path(rng):
    """Random survivors: tombstoning the expired keys held equals index eviction.

    The reference is the state as machines held it before they held key
    multisets (``IndexedRunState``): runs of ``(keys, index)`` columns
    evicted by masking every run through the ``surviving`` membership test,
    with ``resident_indices`` read back.  Tombstoning the keys of the
    expired indices it held leaves the production state the same multiset.
    """
    window = ExponentialDecayWindow(0.7)
    state, reference = SortedRegionState(), IndexedRunState()
    history = np.empty(0)
    live = np.empty(0, dtype=np.int64)
    for step in range(30):
        idx = np.arange(step * 20, (step + 1) * 20, dtype=np.int64)
        history = np.concatenate([history, rng.integers(0, 12, 20).astype(np.float64)])
        live = np.concatenate([live, idx])
        state.insert(history[idx])
        order = np.argsort(history[idx])
        reference.append_sorted(idx[order], history[idx][order])
        expired = window.evictions(live, [], len(live), rng)
        (held,) = resident_indices([reference])
        held = np.intersect1d(held, expired)
        assert state.evict(history[held]) == reference.evict(expired) == len(expired)
        live = drop_expired(live, expired)
        assert len(state) == len(reference) == len(live)
        assert_same_multiset(state.keys, reference.keys)


def test_emptied_state_adopts_the_next_dtype():
    state = SortedRegionState()
    state.insert(np.array([5, 6, 7], dtype=np.int64))
    assert state.keys.dtype == np.int64
    assert state.evict(np.array([7, 5, 6], dtype=np.int64)) == 3
    assert len(state) == 0
    state.insert(np.array([0.5]))
    assert state.keys.dtype == np.float64
    assert state.runs[0][0].tolist() == [0.5] and len(state.runs) == 1


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
    """Accounting is O(J): deriving what machines hold is for migrations,
    never for a batch (or a checkpoint, which stores no machine state)."""
    import repro.streaming.engine as engine_module

    backend = SimulatedBackend()

    def refuse(*args, **kwargs):
        raise AssertionError("machine state derived on the per-batch path")

    rng = np.random.default_rng(7)
    engine = _windowed_static_engine(backend)
    monkeypatch.setattr(engine_module, "held_by_machine", refuse)
    owner = backend._owner
    for index in range(12):
        metrics = engine.process_batch(_random_batch(rng, index))
        assert metrics.tuples_evicted > 0 or index < 3
        # The running count is the truth, batch after batch: per machine,
        # a replicated tuple once for every machine whose range holds it.
        assert metrics.resident_tuples == sum(
            len(owner.view(side, machine))
            for side in (0, 1)
            for machine in range(engine.num_machines)
        )
    engine.checkpoint()
    # The patch does bite where the state is legitimately derived.
    with pytest.raises(AssertionError, match="per-batch path"):
        engine.resize(engine.num_machines + 1)


@pytest.mark.multiprocess
def test_sticky_process_batch_sends_no_indices_command(monkeypatch):
    """Nothing is read back from a worker: the per-batch path sends only
    ``"count"`` and ``"evict"``, and a checkpoint sends nothing at all."""
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
        del sent[:]
        engine.checkpoint()
        assert sent == []
        engine.close()


def test_an_in_process_migration_moves_nothing(monkeypatch):
    """A drift repartition and a resize in process: plans and charges, no state moved.

    The in-process owner holds each side once for the whole fleet, and a
    machine reads it through its region's key range, so adopting a grid
    plan that covers every key changes the ranges and nothing else: inside
    ``_adopt`` no state is installed (``SortedRegionState.install``) and no
    run is merged (no cascade in a ``native.fold``) -- while the migration is still
    planned and charged (``tuples_moved``).  Per-machine tables installed
    every machine's new keys on every migration and resize.
    """
    moved = {"install": 0, "merge": 0}
    adopting = False
    install, fold = SortedRegionState.install, native.fold

    def counted_install(self, keys):
        moved["install"] += adopting
        return install(self, keys)

    def counted_fold(merges, halves, out):
        moved["merge"] += adopting * len(merges)
        return fold(merges, halves, out)

    monkeypatch.setattr(SortedRegionState, "install", counted_install)
    monkeypatch.setattr(native, "fold", counted_fold)
    engine = _drifting_engine()
    adopt = engine._adopt
    charged = []

    def observed(*args, **kwargs):
        nonlocal adopting
        adopting = True
        try:
            charges = adopt(*args, **kwargs)
        finally:
            adopting = False
        charged.append(charges["migrated"])
        return charges

    engine._adopt = observed
    engine.start()
    for batch in _drifting_batches(120, redraw_every=12):
        engine.process_batch(batch)
        if charged and engine.num_machines == FLEET:
            engine.resize(FLEET + 2)
        if len(charged) >= 3:
            break
    engine.close()
    assert len(charged) >= 3 and engine.num_machines == FLEET + 2
    assert sum(charged) > 0  # planned and charged all the same
    print(f"in-process adoptions {len(charged)}, tuples charged {sum(charged)}, moved {moved}")
    assert moved == {"install": 0, "merge": 0}
