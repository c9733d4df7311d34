"""A live set held as a range and one held as an index array run the same engine.

The arrival log holds a side's live set as ``[live_start, total)`` while it
is one range and as a sorted index array once a window evicts something
that is not a prefix; an expired slice that is exactly one batch the route
stage sorted is tombstoned from that sort.  The reference is
``tests/reference_arrivals.py``'s array-form log, which keeps nothing:
every expiry asks the window's ``evictions``, every expired slice is
gathered and sorted again.  Over sliding windows in batches and in tuples
(cuts inside a batch), decay windows, a custom non-prefix policy and the
untrimmed ``NoTrimWindow`` (which states no cutoff, so each expiry asks its
``evictions``), with empty batches, integer batches mixed into float ones,
key-range and index-routing plans, the two engines must agree batch by
batch on the live sets, the keys each machine tombstones, the trims, every
metric and the bytes of a mid-run checkpoint; an engine restored from those
bytes must continue as the uninterrupted one did.  The kept sorted batches
are bounded on the way: none under an unbounded window, at most ``W`` a
side under ``batches:W``, none right after a restore.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_arrivals import use_array_logs
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    MicroBatch,
    SimulatedBackend,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamCheckpoint,
    StreamingJoinEngine,
    make_window,
)
from repro.streaming.window import WindowPolicy
from streaming_harness import NoTrimWindow, columns, use_tick_clocks

MACHINES = 3

WINDOWS = [
    "unbounded",
    "batches:1",
    "batches:3",
    "tuples:7",
    "tuples:40",
    "decay:0.3",
    "decay:0.9",
    "sieve",
    "notrim:batches:2",
    "notrim:tuples:25",
]


class SievingWindow(WindowPolicy):
    """A custom policy that evicts no prefix: ``batches:3``, and early every fourth index.

    Of the live tuples older than the current batch, those older than the
    last three batches expire, and so does every one whose arrival index is
    a multiple of four.
    """

    name = "sieve"

    def evictions(self, live, batch_starts, total_arrived, rng):
        """Older than three batches, or a multiple of four outside the current batch."""
        cutoff = batch_starts[-3] if len(batch_starts) >= 3 else 0
        older = live[: np.searchsorted(live, batch_starts[-1])]
        return older[(older < cutoff) | (older % 4 == 0)]


class EvictionRecorder(SimulatedBackend):
    """The in-process backend, recording each machine's expired keys per call."""

    def __init__(self) -> None:
        super().__init__()
        self.evicted: "list[list[list[np.ndarray]]]" = []

    def evict_state(self, expired1, expired2) -> int:
        """Record both sides' per-machine keys, then tombstone them."""
        self.evicted.append(
            [[keys.copy() for keys in columns(side)] for side in (expired1, expired2)]
        )
        return super().evict_state(expired1, expired2)


def window_of(spec: str) -> WindowPolicy:
    """The policy a spec names (``sieve`` and ``notrim:`` are this module's)."""
    if spec == "sieve":
        return SievingWindow()
    if spec.startswith("notrim:"):
        return NoTrimWindow(make_window(spec.removeprefix("notrim:")))
    return make_window(spec)


def make_batches(sizes, integer, seed) -> "list[MicroBatch]":
    """Integer-valued keys over 30 values; ``integer[i]`` makes batch ``i`` int64."""
    rng = np.random.default_rng(seed)
    return [
        MicroBatch(
            index,
            *(
                rng.integers(0, 30, size).astype(np.int64 if ints else np.float64)
                for size in pair
            ),
        )
        for index, (pair, ints) in enumerate(zip(sizes, integer))
    ]


def kept(engine) -> "tuple[int, int]":
    """Sorted batches each side's log keeps."""
    s = engine._state
    return len(s.log1._sorted), len(s.log2._sorted)


def process(engine, recorder, batches) -> "list[tuple]":
    """Process ``batches``; one record per batch of everything the forms must agree on."""
    records = []
    for batch in batches:
        before = len(recorder.evicted)
        metrics = engine.process_batch(batch)
        s = engine._state
        records.append(
            (
                metrics.output_delta,
                metrics.per_machine_load.tolist(),
                metrics.tuples_evicted,
                metrics.history_tuples_trimmed,
                metrics.resident_live_entries,
                metrics.resident_tuples,
                metrics.resident_history_tuples,
                s.log1.live.tolist(),
                s.log2.live.tolist(),
                [
                    [[keys.tolist(), str(keys.dtype)] for keys in side]
                    for call in recorder.evicted[before:]
                    for side in call
                ],
                kept(engine),
            )
        )
    return records


def run(window, one_bucket, batches, seed, checkpoint_at):
    """An uninterrupted run: its records and its checkpoint's bytes after ``checkpoint_at``."""
    recorder = EvictionRecorder()
    engine = StreamingJoinEngine(
        MACHINES, BandJoinCondition(beta=1.0), WeightFunction(1.0, 0.2),
        policy=StaticOneBucketPolicy(MACHINES) if one_bucket else StaticEWHPolicy(),
        window=window, backend=recorder, sample_capacity=64, seed=seed,
    )
    engine.start()
    records = process(engine, recorder, batches[: checkpoint_at + 1])
    checkpoint = engine.checkpoint()
    raw = checkpoint.to_bytes()
    records += process(engine, recorder, batches[checkpoint_at + 1 :])
    engine.close()
    return records, raw, checkpoint


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(WINDOWS),
    one_bucket=st.booleans(),
    sizes=st.lists(
        st.tuples(st.sampled_from([0, 1, 5, 9, 14]), st.sampled_from([0, 2, 6, 11])),
        min_size=4,
        max_size=18,
    ),
    mixed=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_range_and_array_live_sets_run_the_same_engine(
    spec, one_bucket, sizes, mixed, seed, data
):
    """Range-form and array-form logs: the same records, checkpoint bytes and restore."""
    integer = [mixed and data.draw(st.booleans()) for _ in sizes]
    batches = make_batches(sizes, integer, seed)
    checkpoint_at = data.draw(st.integers(0, len(batches) - 1))
    window = window_of(spec)
    with pytest.MonkeyPatch.context() as patch:
        use_tick_clocks(patch)
        records, raw, checkpoint = run(window, one_bucket, batches, seed, checkpoint_at)
    with pytest.MonkeyPatch.context() as patch:
        use_tick_clocks(patch)
        use_array_logs(patch)
        reference, reference_raw, reference_checkpoint = run(
            window, one_bucket, batches, seed, checkpoint_at
        )

    # Everything but the kept sorted batches, which the reference never keeps.
    assert [r[:-1] for r in records] == [r[:-1] for r in reference]
    assert all(r[-1] == (0, 0) for r in reference)
    for ours, theirs in (
        (checkpoint.live1, reference_checkpoint.live1),
        (checkpoint.live2, reference_checkpoint.live2),
    ):
        assert ours.dtype == theirs.dtype == np.int64
        np.testing.assert_array_equal(ours, theirs)
    assert raw == reference_raw

    if window.is_unbounded:
        assert all(r[-1] == (0, 0) for r in records)
    elif spec.startswith("batches:"):
        size = int(spec.removeprefix("batches:"))
        assert all(max(r[-1]) <= size for r in records)

    with pytest.MonkeyPatch.context() as patch:
        use_tick_clocks(patch)
        recorder = EvictionRecorder()
        restored = StreamingJoinEngine.resume_from(
            StreamCheckpoint.from_bytes(raw), backend=recorder
        )
        assert kept(restored) == (0, 0)
        tail = process(restored, recorder, batches[checkpoint_at + 1 :])
        restored.close()
    # The restored engine's first window gathers and sorts what the
    # uninterrupted one cut from its kept sorts: the same keys either way.
    uninterrupted = records[checkpoint_at + 1 :]
    assert [r[:-1] for r in tail] == [r[:-1] for r in uninterrupted]
    if spec.startswith("batches:"):
        # A restored sliding window's live sets are ranges again: once its
        # window has turned over it keeps what the uninterrupted run keeps.
        assert [r[-1] for r in tail[size:]] == [r[-1] for r in uninterrupted[size:]]
