"""Arrivals are sorted by key alone: the order among equal keys is unobservable.

``repro.partitioning.base.sort_arrivals``,
``GridRoutedPartitioning.sorted_arrivals``,
``repro.partitioning.routing.route_batch`` (which sorts a key-range plan's
batch keys alone) and ``repro.streaming.migration.sorted_live`` (which sorts
a key-range plan's live keys alone for the initial build, a migration and a
restore) sort unsorted arrivals with numpy's default sort, so equal keys
reach the state in an order nobody specifies.  The first half runs
whole engines twice -- once as they are, once with those sorts emitting
every run of equal keys in *reverse* arrival order -- and asks for the same
per-batch deltas, loads,
repartition decisions, totals and mid-run checkpoint bytes, and for the
same again after a ``resume_from`` that checkpoint.  The streams are made
of ties: one key only, fewer distinct keys than machines, ``-0.0`` beside
``0.0``, and int64 keys near 2**53.

The second half is a call-count proxy for the speed-up: one steady batch
and one migration make no stable sort (a run merge sorts nothing: the
compiled kernel merges the sorted runs in one pass), and under a key-range
plan a migration and a restore sort each side's live keys as values, with
no argsort; a 1-Bucket migration, which routes by arrival index, argsorts.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from streaming_harness import assert_equivalent_runs, use_tick_clocks
from test_migration_oracle import _drifting_batches
from test_migration_oracle import _engine as _drifting_engine

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    MicroBatch,
    SimulatedBackend,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
)

MACHINES = 4
BAND = BandJoinCondition(beta=2.0)
WEIGHTS = WeightFunction(input_cost=1.0, output_cost=0.2)
WINDOWS = ["batches:3", "tuples:500", "decay:0.8", "unbounded"]
POLICIES = {
    "static": StaticEWHPolicy,
    "adaptive": lambda: DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
    ),
}
STREAMS = ["one_key", "two_keys", "signed_zeros", "big_int"]
NUM_BATCHES, PER_SIDE, CHECKPOINT_AT = 10, 120, 5

#: The sorts whose tie order is unspecified: the callers of the patched argsort.
ARRIVAL_SORTS = ("sort_arrivals", "sorted_arrivals", "_sort_then_cut")

#: The callers of the patched ``np.sort``: a key-range plan's batch route
#: and its live sort (initial build, migration, restore).
KEY_SORTS = ("route_batch", "sorted_live")

_argsort = np.argsort
_sort = np.sort


def _stream(kind: str) -> "list[MicroBatch]":
    """Ten batches of ties; the last two kinds shift their keys at batch 4."""
    rng = np.random.default_rng(STREAMS.index(kind))
    batches = []
    for index in range(NUM_BATCHES):
        sides = []
        for _ in range(2):
            if kind == "one_key":
                keys = np.full(PER_SIDE, 7.0)
            elif kind == "two_keys":
                keys = rng.choice([1.0, 4.0], PER_SIDE)
            elif kind == "signed_zeros":
                pool = [-0.0, 0.0, 1.0, -1.5, 3.0] if index < 4 else [-0.0, 0.0, 6.0, 9.5]
                keys = rng.choice(pool, PER_SIDE)
            else:
                step = 1 if index < 4 else 3
                keys = 2**53 + step * rng.integers(-3, 4, PER_SIDE, dtype=np.int64)
            sides.append(keys)
        batches.append(MicroBatch(index, *sides))
    return batches


def _reversed_ties(keys, *args, **kwargs):
    """``np.argsort``, except that the arrival sorts get equal keys reversed.

    Their order is a stable sort with every run of equal keys (``-0.0`` and
    ``0.0`` are equal; so is every NaN) turned back to front.
    """
    if args or kwargs or sys._getframe(1).f_code.co_name not in ARRIVAL_SORTS:
        return _argsort(keys, *args, **kwargs)
    keys = np.asarray(keys)
    order = _argsort(keys, kind="stable")
    if len(order) < 2:
        return order
    ordered = keys[order]
    tie = ordered[1:] == ordered[:-1]
    if ordered.dtype.kind == "f":
        tie |= np.isnan(ordered[1:]) & np.isnan(ordered[:-1])
    group = np.concatenate([[0], np.cumsum(~tie)])
    return order[np.lexsort((-np.arange(len(order)), group))]


def _reversed_key_ties(keys, *args, **kwargs):
    """``np.sort``, except that the batch route and the live sort get equal keys reversed."""
    if args or kwargs or sys._getframe(1).f_code.co_name not in KEY_SORTS:
        return _sort(keys, *args, **kwargs)

    def sort_arrivals(keys):
        return _reversed_ties(keys)

    keys = np.asarray(keys)
    return keys[sort_arrivals(keys)]


def test_the_reversed_sort_reverses_only_the_ties():
    keys = np.array([3.0, -0.0, np.nan, 1.0, 0.0, 3.0, np.nan, 1.0])

    def sort_arrivals(keys):
        return _reversed_ties(keys)

    order = sort_arrivals(keys)
    assert order.tolist() == [4, 1, 7, 3, 5, 0, 6, 2]
    assert _reversed_ties(keys, kind="stable").tolist() == [1, 4, 3, 7, 0, 5, 2, 6]

    def route_batch(keys):
        return _reversed_key_ties(keys)

    signs = np.signbit(route_batch(np.array([0.0, 1.0, -0.0])))
    assert signs.tolist() == [True, False, False]


def _run(policy: str, window: str, stream: str, backend, monkeypatch):
    """Run, checkpointing after batch 5, then resume from that checkpoint.

    Returns ``(result, checkpoint bytes, resumed result)``.  Every run reads
    a fresh tick clock; a sticky worker's own seconds and the pickled size
    of its pid are blanked before encoding.
    """
    use_tick_clocks(monkeypatch)
    batches = _stream(stream)
    with backend() as owner:
        engine = StreamingJoinEngine(
            MACHINES, BAND, WEIGHTS,
            policy=POLICIES[policy](), backend=owner, window=window,
            sample_capacity=256, seed=9,
        )
        engine.start()
        for batch in batches:
            engine.process_batch(batch)
            if batch.index == CHECKPOINT_AT:
                checkpoint = engine.checkpoint()
        result = engine.finish()
    for metrics in checkpoint.result.batches:
        metrics.per_machine_join_seconds = None
        metrics.bytes_unpickled = None
    raw = checkpoint.to_bytes()
    with backend() as owner:
        resumed = StreamingJoinEngine.resume_from(checkpoint, backend=owner)
        for batch in batches:
            resumed.process_batch(batch)
        return result, raw, resumed.finish()


def _assert_ties_unobservable(policy, window, stream, backend, monkeypatch) -> None:
    expected, expected_raw, expected_resumed = _run(
        policy, window, stream, backend, monkeypatch
    )
    monkeypatch.setattr(np, "argsort", _reversed_ties)
    monkeypatch.setattr(np, "sort", _reversed_key_ties)
    actual, raw, resumed = _run(policy, window, stream, backend, monkeypatch)
    assert_equivalent_runs(actual, expected)
    assert raw == expected_raw
    assert_equivalent_runs(resumed, expected_resumed)
    assert_equivalent_runs(resumed, actual)
    if window == "unbounded":
        assert actual.output_correct


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_reversed_ties_leave_runs_and_checkpoints_unchanged(
    policy, window, stream, monkeypatch
):
    _assert_ties_unobservable(policy, window, stream, SimulatedBackend, monkeypatch)


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_sticky_reversed_ties_leave_runs_and_checkpoints_unchanged(
    policy, window, monkeypatch
):
    _assert_ties_unobservable(
        policy, window, "signed_zeros",
        lambda: StickyWorkerBackend(max_workers=2), monkeypatch,
    )


def test_the_streams_repartition_and_hold_ties(monkeypatch):
    """What the matrix above exercises: a drift migration, and ties on every path."""
    reversed_ties: "dict[str, int]" = {}

    def counting(sort, callers):
        def sorting(keys, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if not args and not kwargs and caller in callers:
                tied = int(len(np.unique(keys)) < len(keys))
                reversed_ties[caller] = reversed_ties.get(caller, 0) + tied
            return sort(keys, *args, **kwargs)

        return sorting

    monkeypatch.setattr(np, "argsort", counting(_argsort, ARRIVAL_SORTS))
    monkeypatch.setattr(np, "sort", counting(_sort, KEY_SORTS))
    result, _, _ = _run("adaptive", "batches:3", "signed_zeros", SimulatedBackend, monkeypatch)
    assert result.num_repartitions >= 1
    # Two sides per routed batch and per expired slice.
    assert reversed_ties["route_batch"] >= 2 * NUM_BATCHES
    # Two sides' live keys at the initial build, at each migration and at
    # the restore: the values sort, never an argsort.
    assert reversed_ties["sorted_live"] >= 2 * (result.num_repartitions + 2)
    assert "sort_arrivals" not in reversed_ties


# ----------------------------------------------------------------------
# No stable sort on unsorted arrivals
# ----------------------------------------------------------------------
def _argsorts_by_kind(monkeypatch) -> "dict[str, int]":
    """Patch ``np.argsort`` and ``np.sort`` to count calls by ``kind``."""
    kinds: "dict[str, int]" = {}

    def counting(name, sort):
        def sorting(keys, *args, **kwargs):
            kind = f"{name} {kwargs.get('kind', 'default')}"
            kinds[kind] = kinds.get(kind, 0) + 1
            return sort(keys, *args, **kwargs)

        return sorting

    monkeypatch.setattr(np, "argsort", counting("argsort", _argsort))
    monkeypatch.setattr(np, "sort", counting("sort", _sort))
    return kinds


def test_unsorted_arrivals_take_no_stable_sort(monkeypatch):
    """One steady batch and one migration: zero ``kind="stable"`` sorts.

    A steady batch sorts the keys of each side's
    arrivals once -- two default-kind ``np.sort`` calls: a key-range plan
    reads no arrival index, and each side's expired slice is a batch whose
    sort the route stage kept (four sorts when the slice was sorted again)
    -- and a migration between key-range plans sorts each side's live keys once,
    for the old plan's placement and the new plan's route alike -- two
    ``np.sort`` calls and no argsort; with the stable sort on arrivals they
    made stable ones.
    """
    batches = _drifting_batches(40, redraw_every=12)
    engine = StreamingJoinEngine(
        MACHINES, BAND, WEIGHTS,
        policy=StaticEWHPolicy(), window="batches:16", seed=14,
    )
    engine.start()
    for batch in batches[:20]:
        engine.process_batch(batch)
    with monkeypatch.context() as patch:
        steady = _argsorts_by_kind(patch)
        engine.process_batch(batches[20])
    engine.close()

    engine = _drifting_engine()
    adopt = engine._adopt
    migrations: "list[dict[str, int]]" = []

    def counted(*args, **kwargs):
        with monkeypatch.context() as patch:
            migrations.append(_argsorts_by_kind(patch))
            return adopt(*args, **kwargs)

    engine._adopt = counted
    engine.start()
    for batch in batches:
        engine.process_batch(batch)
        if migrations:
            break
    engine.close()
    assert migrations, "the stream never repartitioned"
    migration = migrations[0]
    print(f"argsorts outside run merges: steady batch {steady}, migration {migration}")
    assert steady == {"sort default": 2}
    assert migration == {"sort default": 2}


def test_an_ewh_restore_sorts_each_side_s_live_keys_once(monkeypatch):
    """``resume_from`` on an EWH plan: one values sort per side, no argsort."""
    batches = _drifting_batches(24, redraw_every=12)
    engine = _drifting_engine()
    engine.start()
    for batch in batches:
        engine.process_batch(batch)
    checkpoint = engine.checkpoint()
    engine.close()
    assert checkpoint.partitioning.scheme_name != "CI"
    with monkeypatch.context() as patch:
        restore = _argsorts_by_kind(patch)
        StreamingJoinEngine.resume_from(checkpoint).close()
    print(f"sorts in an EWH restore: {restore}")
    assert restore == {"sort default": 2}


def test_a_1_bucket_migration_still_argsorts(monkeypatch):
    """1-Bucket draws from arrival indices: a resize argsorts each side's live pairs once."""
    engine = StreamingJoinEngine(
        MACHINES, BAND, WEIGHTS,
        policy=StaticOneBucketPolicy(MACHINES), window="batches:4", seed=3,
    )
    engine.start()
    for batch in _stream("two_keys")[:6]:
        engine.process_batch(batch)
    with monkeypatch.context() as patch:
        resize = _argsorts_by_kind(patch)
        engine.resize(MACHINES + 2)
    engine.close()
    print(f"sorts in a 1-Bucket resize: {resize}")
    # The np.sort calls order each draw group's machine ids (side_layout),
    # one per grid row and column of the new 2 x 3 fleet.
    assert resize == {"argsort default": 2, "sort default": 2 + 3}
