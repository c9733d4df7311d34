"""Property-based invariants of windowed streaming joins.

Windowed semantics are pinned with hypothesis over random streams, cluster
sizes, window shapes and policies:

* **evicted tuples never appear in later join output** -- the engine's
  per-batch output deltas equal an independently computed reference that
  only counts pairs whose halves were simultaneously live (the reference
  knows nothing about partitionings, machines or migrations, so this also
  proves a repartitioning can never resurrect expired state);
* **incremental count == full recount** -- the
  :class:`~streaming_harness.RecountingBackend` oracle replays the
  pre-window engine's counting loop (recount every machine's full region,
  difference against the previous total) behind the protocol, and the
  incremental deltas must match it batch by batch, machine by machine;
* **a window never adds output** -- per batch, the windowed delta is at
  most the unbounded delta on the identical stream;
* **history compaction is invisible and O(window)** -- the compacted
  engine's per-batch metrics (outputs, loads, evictions, migrations and
  plans) are bit-identical to an uncompacted reference run, while its
  total footprint (history + live sets + state) stays below a constant
  derived from the window alone, however long the stream runs;
* **one coordinate system** -- after every batch, every arrival index
  stored anywhere (resident state, live sets, batch starts) is a global
  index the side's log still resolves to the key the *source* delivered at
  that position.

All streams use integer-valued keys so the band arithmetic is exact and
"identical" means bit-identical, not approximately equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.joins.local import count_join_output
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SimulatedBackend,
    StaticEWHPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
    make_window,
)
from reference_migration import placement
from streaming_harness import (
    NoTrimWindow,
    RecountingBackend,
    assert_equivalent_runs,
)

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)
NUM_BATCHES = 7
SHIFT_BATCH = 3


def make_source(seed: int, num_batches: int = NUM_BATCHES) -> DriftingZipfSource:
    """A short drifting stream with integer-valued (exact) keys."""
    return DriftingZipfSource(
        num_batches=num_batches, tuples_per_batch=120, num_values=40,
        z_initial=0.2, z_final=1.2, shift_at_batch=SHIFT_BATCH, seed=seed,
    )


def make_policy(adaptive: bool):
    """A fresh policy: frozen EWH, or an eagerly re-triggering adaptive one."""
    if not adaptive:
        return StaticEWHPolicy()
    return DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
    )


class RebuildAtShiftPolicy(DriftAdaptiveEWHPolicy):
    """The adaptive policy, plus one rebuild forced at the source's shift.

    The detector fires only when the drift outgrows the predicted imbalance,
    which a short random stream need not do (seed 359 never does); a
    property of what a rebuild keeps must not hang on that.
    """

    def __init__(self) -> None:
        super().__init__(make_policy(True).detector)

    def maybe_repartition(self, histogram, metrics, condition, rng):
        """Rebuild on drift, or at the shift batch if the detector stayed quiet."""
        rebuilt = super().maybe_repartition(histogram, metrics, condition, rng)
        if (
            rebuilt is None
            and metrics.stream_position == SHIFT_BATCH
            and histogram.can_build()
        ):
            return histogram.build_partitioning(condition, rng)
        return rebuilt


def run_engine(source, num_machines, policy, window=None, backend=None,
               seed=0):
    """One engine run with the suite's small sample state."""
    engine = StreamingJoinEngine(
        num_machines, BAND, UNIT, policy=policy, window=window,
        backend=backend, sample_capacity=256, seed=seed,
    )
    return engine.run(source)


def reference_windowed_deltas(
    source, build_batch: int, kind: str, size: int
) -> list[int]:
    """Per-batch output of the windowed join, computed without the engine.

    A pair is counted at the later tuple's arrival batch iff the earlier
    tuple is still live then.  Liveness is the window's global cutoff on
    arrival indices: for ``kind="batches"`` everything older than ``size``
    batches has expired, for ``kind="tuples"`` everything older than the
    side's most recent ``size`` arrivals.  No partitioning is involved:
    grid-routed schemes cover every candidate pair exactly once, so the
    engine's cluster-wide sum must equal this count, whatever the policy,
    machine count or migration history.
    """
    history1 = np.empty(0, dtype=np.float64)
    history2 = np.empty(0, dtype=np.float64)
    starts1: list[int] = []
    starts2: list[int] = []
    deltas: list[int] = []
    for index, batch in enumerate(source.batches()):
        starts1.append(len(history1))
        starts2.append(len(history2))
        before1 = len(history1)
        history1 = np.concatenate([history1, batch.keys1])
        history2 = np.concatenate([history2, batch.keys2])
        if kind == "batches":
            cutoff1 = starts1[max(0, index - size)]
            cutoff2 = starts2[max(0, index - size)]
        else:
            cutoff1 = max(0, before1 - size)
            cutoff2 = max(0, starts2[index] - size)
        if index < build_batch:
            deltas.append(0)
        elif index == build_batch:
            # The backlog is routed in one go: all live pairs count now.
            deltas.append(
                count_join_output(history1[cutoff1:], history2[cutoff2:], BAND)
            )
        else:
            # New arrivals against the other side's live state; the band is
            # symmetric, so the (live R1) x (new R2) term may be counted
            # from the R2 side.
            delta = count_join_output(batch.keys1, history2[cutoff2:], BAND)
            delta += count_join_output(
                batch.keys2, history1[cutoff1:before1], BAND
            )
            deltas.append(int(delta))
    return deltas


def first_counted_batch(result) -> int:
    """The batch index of the initial build (first batch with deltas)."""
    return next(
        batch.batch_index
        for batch in result.batches
        if batch.per_machine_output_delta is not None
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_machines=st.integers(min_value=1, max_value=5),
    window_size=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["batches", "tuples"]),
    adaptive=st.booleans(),
)
def test_evicted_tuples_never_rejoin(
    seed, num_machines, window_size, kind, adaptive
):
    """The engine's windowed deltas equal the partition-free reference.

    The reference counts exactly the pairs whose halves coexisted under the
    window -- so equality means evicted tuples contribute to no later batch,
    and (because the reference ignores machines entirely) that migrations
    neither lose live state nor resurrect expired state.
    """
    size = window_size if kind == "batches" else window_size * 90
    source = make_source(seed)
    result = run_engine(
        source, num_machines, make_policy(adaptive),
        window=f"{kind}:{size}", seed=seed % 17,
    )
    reference = reference_windowed_deltas(
        source, first_counted_batch(result), kind, size
    )
    assert [batch.output_delta for batch in result.batches] == reference
    assert result.total_output == sum(reference)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_machines=st.integers(min_value=1, max_value=5),
    adaptive=st.booleans(),
)
def test_unbounded_incremental_reproduces_recount_exactly(
    seed, num_machines, adaptive
):
    """Incremental counting == the full recount, bit for bit.

    The oracle is the legacy engine's loop (full per-region recount plus
    differencing, re-baselined after every migration) run behind the
    protocol: it asserts, per batch and per machine, that the previous
    full count plus the reported delta equals the new full count.  The
    checked run must also be indistinguishable from the plain one -- the
    oracle observes, it never steers.
    """
    source = make_source(seed)
    engine_seed = seed % 17
    oracle = RecountingBackend(SimulatedBackend())
    checked = run_engine(
        source, num_machines, make_policy(adaptive),
        backend=oracle, seed=engine_seed,
    )
    plain = run_engine(
        source, num_machines, make_policy(adaptive), seed=engine_seed
    )
    assert checked.output_correct and plain.output_correct
    assert len(oracle.recount_seconds) == sum(
        batch.per_machine_output_delta is not None for batch in checked.batches
    )
    assert_equivalent_runs(checked, plain)


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", [None, "batches:3"])
def test_recount_oracle_holds_over_sticky_workers(window):
    """The same oracle over worker-resident state: the protocol is the seam.

    Wrapped around ``StickyWorkerBackend`` the oracle sees exactly the
    traffic the workers see, so this pins the worker-side fold (and, under
    the window, worker-side evict/install) against full recounts.
    """
    source = make_source(seed=23)
    oracle = RecountingBackend(StickyWorkerBackend(max_workers=2))
    try:
        checked = run_engine(
            source, 4, make_policy(True), window=window, backend=oracle, seed=6
        )
    finally:
        oracle.close()
    plain = run_engine(source, 4, make_policy(True), window=window, seed=6)
    assert oracle.recount_seconds
    assert_equivalent_runs(checked, plain)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_machines=st.integers(min_value=1, max_value=4),
    window_size=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["batches", "tuples"]),
    adaptive=st.booleans(),
)
def test_compaction_is_invisible_and_bounds_the_footprint(
    seed, num_machines, window_size, kind, adaptive
):
    """History compaction changes the footprint and nothing else.

    (a) Every per-batch metric of the compacted engine -- output deltas,
    per-machine loads, evictions, bytes freed, resident state, migration
    volumes and plans -- is bit-identical to an uncompacted reference run
    (the same window behind :class:`~streaming_harness.NoTrimWindow`,
    the pre-compaction engine) on the same seeded stream.  (b) The
    compacted engine's total footprint -- history lengths, live-set lengths
    and resident state -- stays below a constant derived only from the
    window shape, the per-batch arrival rate and the cluster size, however
    long the stream runs; the uncompacted history instead grows linearly.
    """
    size = window_size if kind == "batches" else window_size * 90
    num_batches = 2 * NUM_BATCHES
    engine_seed = seed % 17
    compacted = run_engine(
        make_source(seed, num_batches), num_machines, make_policy(adaptive),
        window=f"{kind}:{size}", seed=engine_seed,
    )
    reference = run_engine(
        make_source(seed, num_batches), num_machines, make_policy(adaptive),
        window=NoTrimWindow(make_window(f"{kind}:{size}")), seed=engine_seed,
    )

    # (a) Compaction is pure bookkeeping: bit-identical behaviour.
    assert_equivalent_runs(compacted, reference)

    # (b) O(window) footprint: the bound depends on the window shape and
    # arrival rate only -- never on the stream length.
    per_side = 120  # make_source's tuples_per_batch
    history_bound = 2 * (size * per_side if kind == "batches" else size)
    for batch in compacted.batches:
        assert batch.resident_history_tuples <= history_bound
        assert batch.resident_live_entries <= batch.resident_history_tuples
        assert batch.resident_tuples <= num_machines * batch.resident_live_entries
    # The reference demonstrates the leak the compaction fixes: its history
    # is the full stream at end of run.
    assert (
        reference.batches[-1].resident_history_tuples
        == 2 * per_side * num_batches
    )
    assert compacted.total_history_trimmed > 0


@settings(max_examples=16, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.sampled_from([None, "batches:2", "tuples:150", "decay:0.7"]),
    recounting=st.booleans(),
)
@example(seed=359, window=None, recounting=False)
def test_every_stored_arrival_index_is_global(seed, window, recounting):
    """Nothing stored is ever rebased: indices stay global, keys stay put.

    After every batch of a run with a mid-stream drift rebuild, each index
    a machine holds (as the planner derives it) and each entry of a log's
    live set and batch starts lies in ``[base, total]`` of its side's log,
    and the log resolves it to the key the source delivered at that global
    position.
    """
    backend = RecountingBackend(SimulatedBackend()) if recounting else SimulatedBackend()
    engine = StreamingJoinEngine(
        3, BAND, UNIT, policy=RebuildAtShiftPolicy(), window=window,
        backend=backend, sample_capacity=256, seed=seed % 17,
    )
    engine.start()
    delivered = [np.empty(0), np.empty(0)]
    for batch in make_source(seed).batches():
        delivered[0] = np.concatenate([delivered[0], batch.keys1])
        delivered[1] = np.concatenate([delivered[1], batch.keys2])
        engine.process_batch(batch)
        s = engine._state
        logs = s.log1, s.log2
        held = [
            [
                indices
                for indices, _ in placement(
                    s.partitioning, side, log, s.rng, engine.num_machines, s.region_to_machine
                )
            ]
            for side, log in zip((1, 2), logs)
        ]
        for log, keys, resident in zip(logs, delivered, held):
            assert log.total == len(keys)
            starts = np.asarray(log.starts, dtype=np.int64)
            # A start equals total only for an empty batch: no key to check.
            for stored in (*resident, log.live, starts[starts < log.total]):
                assert np.all((log.base <= stored) & (stored < log.total))
                np.testing.assert_array_equal(log[stored], keys[stored])
            assert np.all(starts <= log.total)
    result = engine.finish()
    assert result.num_repartitions >= 1
    if window in ("batches:2", "tuples:150"):  # a hard horizon must trim
        assert engine._state.log1.base > 0 and engine._state.log2.base > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_machines=st.integers(min_value=1, max_value=4),
    window_size=st.integers(min_value=1, max_value=3),
)
def test_window_never_adds_output(seed, num_machines, window_size):
    """Per batch, a windowed run produces at most the unbounded output.

    The windowed live sets are subsets of the unbounded ones at every
    batch, so each batch's cluster-wide delta can only shrink -- whatever
    the partitioning does.
    """
    source = make_source(seed)
    policy_seed = seed % 17
    unbounded = run_engine(
        source, num_machines, make_policy(False), seed=policy_seed
    )
    windowed = run_engine(
        source, num_machines, make_policy(False),
        window=f"batches:{window_size}", seed=policy_seed,
    )
    assert windowed.total_output <= unbounded.total_output
    for win_batch, full_batch in zip(windowed.batches, unbounded.batches):
        assert win_batch.output_delta <= full_batch.output_delta
