"""Unit tests for window policies, sorted region state and windowed runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import format_streaming_batches, format_streaming_table
from repro.core.weights import WeightFunction
from repro.joins.conditions import (
    BandJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.streaming import (
    ArrayStreamSource,
    ArrivalLog,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    ExponentialDecayWindow,
    MicroBatch,
    SimulatedBackend,
    SlidingWindow,
    SortedRegionState,
    StaticEWHPolicy,
    StreamCheckpoint,
    StreamingJoinEngine,
    StreamSource,
    UnboundedWindow,
    compare_streaming_schemes,
    make_window,
)
from streaming_harness import NoTrimWindow, RecountingBackend

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)


# ----------------------------------------------------------------------
# Window policies
# ----------------------------------------------------------------------
class TestWindowPolicies:
    def test_unbounded_never_evicts(self, rng):
        window = UnboundedWindow()
        assert window.is_unbounded
        live = np.arange(100, dtype=np.int64)
        assert len(window.evictions(live, [0, 40], 100, rng)) == 0

    def test_batch_window_cutoff(self, rng):
        window = SlidingWindow(batches=2)
        live = np.arange(30, dtype=np.int64)
        starts = [0, 10, 20]
        # After batch 2 only batches 1 and 2 stay: indices < starts[1] expire.
        expired = window.evictions(live, starts, 30, rng)
        assert expired.tolist() == list(range(10))
        # Inside the warm-up (batch 0, 1) nothing expires yet.
        assert len(window.evictions(live[:10], starts[:1], 10, rng)) == 0
        assert len(window.evictions(live[:20], starts[:2], 20, rng)) == 0

    def test_tuple_window_cutoff(self, rng):
        window = SlidingWindow(tuples=12)
        live = np.arange(30, dtype=np.int64)
        expired = window.evictions(live, [0, 10, 20, 25], 30, rng)
        # Only the most recent 12 arrivals stay live.
        assert expired.tolist() == list(range(18))
        assert len(window.evictions(live[:10], [0], 10, rng)) == 0

    def test_tuple_window_respects_prior_evictions(self, rng):
        window = SlidingWindow(tuples=10)
        # Liveness is a pure cutoff on the arrival index, so an already
        # thinned live set only loses entries below the new cutoff.
        live = np.array([5, 6, 20, 21, 22], dtype=np.int64)
        expired = window.evictions(live, [0, 5, 10, 15, 20], 25, rng)
        assert expired.tolist() == [5, 6]

    def test_decay_window_is_seeded_and_partial(self):
        window = ExponentialDecayWindow(survival=0.5)
        live = np.arange(2000, dtype=np.int64)
        first = window.evictions(live, [0], 2000, np.random.default_rng(9))
        replay = window.evictions(live, [0], 2000, np.random.default_rng(9))
        np.testing.assert_array_equal(first, replay)
        # With survival 0.5 roughly half expire -- neither none nor all.
        assert 0 < len(first) < len(live)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindow()
        with pytest.raises(ValueError):
            SlidingWindow(batches=2, tuples=3)
        with pytest.raises(ValueError):
            SlidingWindow(batches=0)
        with pytest.raises(ValueError):
            SlidingWindow(tuples=-1)
        with pytest.raises(ValueError):
            ExponentialDecayWindow(survival=0.0)
        with pytest.raises(ValueError):
            ExponentialDecayWindow(survival=1.0)

    def test_make_window_specs(self):
        assert make_window(None).is_unbounded
        assert make_window("unbounded").is_unbounded
        assert make_window("none").is_unbounded
        sliding = make_window("batches:8")
        assert isinstance(sliding, SlidingWindow) and sliding.batches == 8
        assert make_window("sliding:8").batches == 8
        counted = make_window("tuples:5000")
        assert isinstance(counted, SlidingWindow) and counted.tuples == 5000
        assert make_window("count:5000").tuples == 5000
        decay = make_window("decay:0.9")
        assert isinstance(decay, ExponentialDecayWindow)
        assert decay.survival == pytest.approx(0.9)
        # A policy instance passes straight through.
        policy = SlidingWindow(batches=3)
        assert make_window(policy) is policy

    def test_make_window_rejects_bad_specs(self):
        for spec in ("gpu", "batches:", "batches:x", "unbounded:3", "decay"):
            with pytest.raises(ValueError, match="window spec"):
                make_window(spec)
        # Policy-level validation keeps its own message.
        with pytest.raises(ValueError, match="positive"):
            make_window("batches:0")
        with pytest.raises(ValueError, match="survival"):
            make_window("decay:1.5")

    def test_trim_point_is_min_live_or_everything(self):
        window = SlidingWindow(batches=2)
        assert window.trim_point(7) == 7
        log = ArrivalLog(True, keys=np.zeros(20), live=np.array([7, 9, 13]))
        assert log.trim(window) == 7 and log.base == 7
        # Nothing live: the whole retained history is dead.
        log = ArrivalLog(True, keys=np.zeros(20), live=np.empty(0, dtype=np.int64))
        assert log.trim(window) == 20 and log.base == 20

    def test_batch_cutoff_is_positional_from_the_end(self, rng):
        # The cutoff is batch_starts[-batches], so it neither depends on a
        # source's MicroBatch.index numbering nor on how much dead prefix
        # the log's trim dropped from the list.
        window = SlidingWindow(batches=2)
        live = np.arange(10, 40, dtype=np.int64)
        full = window.evictions(live, [0, 10, 20, 30], 40, rng)
        assert full.tolist() == list(range(10, 20))
        trimmed = window.evictions(live, [10, 20, 30], 40, rng)
        np.testing.assert_array_equal(trimmed, full)


# ----------------------------------------------------------------------
# Sorted region state
# ----------------------------------------------------------------------
class TestSortedRegionState:
    def test_insert_keeps_keys_sorted_and_parallel(self, rng):
        history = rng.integers(0, 60, 200).astype(np.float64)  # repeated keys
        state = SortedRegionState()
        for chunk in np.array_split(np.arange(200, dtype=np.int64), 7):
            state.insert(history[chunk])
        assert len(state) == 200
        np.testing.assert_array_equal(state.keys, np.sort(history))
        # Counted: the runs hold each distinct key once.
        assert sum(len(keys) for keys, _ in state.runs) < 200

    def test_from_indices_sorts(self, rng):
        history = rng.uniform(0, 50, 100)
        indices = rng.permutation(100)[:40].astype(np.int64)
        state = SortedRegionState.from_indices(indices, history)
        assert np.all(np.diff(state.keys) >= 0)
        np.testing.assert_array_equal(state.keys, np.sort(history[indices]))

    def test_evict_drops_only_held(self, rng):
        history = rng.uniform(0, 50, 60)
        state = SortedRegionState.from_indices(
            np.arange(30, dtype=np.int64), history
        )
        # Tombstones name tuples the state holds: the keys of 20..29.
        assert state.evict(history[20:30]) == 10
        assert len(state) == 20
        state.insert(history[30:40])  # the next append's merge cancels them
        np.testing.assert_array_equal(
            state.keys, np.sort(np.concatenate([history[:20], history[30:40]]))
        )
        assert len(state.runs) == 1 and len(state.runs[0][0]) == 30

    def test_nbytes_accounting(self):
        state = SortedRegionState.from_indices(
            np.arange(5, dtype=np.int64), np.arange(10.0)
        )
        assert state.nbytes == 5 * 8  # one fresh run: its keys
        assert state.evict(np.arange(5.0)) == 5
        state.insert(np.array([7.0, 7.0]))
        # One counted run: the one distinct key left and its two counts.
        assert len(state) == 2 and state.nbytes == 8 + 2 * 8


# ----------------------------------------------------------------------
# Windowed engine runs
# ----------------------------------------------------------------------
def drift_source(num_batches=10, seed=11):
    return DriftingZipfSource(
        num_batches=num_batches, tuples_per_batch=250, num_values=80,
        z_initial=0.1, z_final=1.2, shift_at_batch=num_batches // 2, seed=seed,
    )


class TestWindowedEngine:
    def test_invalid_counting_mode(self):
        # The engine has one count path; the removed ``counting`` knob is
        # refused by name instead of being silently ignored.
        with pytest.raises(TypeError, match="counting"):
            StreamingJoinEngine(2, BAND, UNIT, counting="recount")

    def test_eviction_metrics_are_charged(self):
        engine = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), window="batches:3",
            sample_capacity=256, seed=2,
        )
        result = engine.run(drift_source())
        assert result.window == "batches:3"
        assert result.total_evicted > 0
        assert result.total_bytes_freed == 16 * result.total_evicted
        evicting = [b for b in result.batches if b.tuples_evicted > 0]
        assert evicting
        assert all(
            b.bytes_freed == 16 * b.tuples_evicted for b in result.batches
        )
        # Windowed runs cannot verify against the full history.
        assert result.output_correct is None
        assert result.expected_output is None

    def test_tuple_window_bounds_state_without_replication(self, rng):
        # J=1 holds a single region with no replication, so the resident
        # state is exactly the live tuple count: bounded by 2N.
        keys = rng.uniform(0, 100, 900)
        source = ArrayStreamSource(keys, keys, num_batches=9)
        engine = StreamingJoinEngine(
            1, BAND, UNIT, policy=StaticEWHPolicy(), window="tuples:150",
            sample_capacity=128, seed=1,
        )
        result = engine.run(source)
        # After the first batch at the latest, every batch ends within the bound.
        assert all(b.resident_tuples <= 2 * 150 for b in result.batches)
        assert result.peak_resident_tuples <= 2 * 150
        assert result.total_evicted > 0

    def test_unbounded_run_keeps_legacy_behaviour(self, rng):
        keys1 = rng.uniform(0, 500, 600)
        keys2 = rng.uniform(0, 500, 600)
        source = ArrayStreamSource(keys1, keys2, num_batches=5)
        result = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=256, seed=2
        ).run(source)
        assert result.window == "unbounded"
        assert result.output_correct
        assert result.total_evicted == 0
        # Resident state is the routed history and never shrinks.
        residents = [b.resident_tuples for b in result.batches]
        assert residents == sorted(residents)

    def test_decay_window_evicts_and_stays_consistent(self):
        engine = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), window="decay:0.5",
            sample_capacity=256, seed=9,
        )
        unbounded = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=256, seed=9
        )
        decayed_run = engine.run(drift_source())
        full_run = unbounded.run(drift_source())
        assert decayed_run.total_evicted > 0
        assert decayed_run.total_output < full_run.total_output
        assert decayed_run.peak_resident_tuples < full_run.peak_resident_tuples

    def test_windowed_migration_ships_live_state_only(self):
        policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
        )
        windowed = StreamingJoinEngine(
            6, BAND, UNIT, policy=policy, window="batches:2",
            sample_capacity=512, seed=4,
        ).run(drift_source(num_batches=12))
        assert windowed.num_repartitions >= 1
        unbounded_policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
        )
        unbounded = StreamingJoinEngine(
            6, BAND, UNIT, policy=unbounded_policy, sample_capacity=512, seed=4,
        ).run(drift_source(num_batches=12))
        # A live-state migration can never ship more than the window holds;
        # the unbounded engine re-routes ever-growing history instead.
        for batch in windowed.batches:
            if batch.repartitioned:
                assert batch.migrated_tuples <= batch.resident_tuples + batch.tuples_evicted
        if unbounded.num_repartitions and windowed.num_repartitions:
            assert windowed.total_migrated < unbounded.total_migrated

    def test_incremental_exact_at_float_band_boundaries(self):
        # 0.1 + 0.2 rounds up to 0.30000000000000004: under BAND beta=0.2
        # that R2 key matches k1=0.1 per the original interval test.  The
        # incremental counter's transposed search must agree bit-for-bit
        # (the naive mirrored interval would drop the pair and fail
        # verification).
        condition = BandJoinCondition(beta=0.2)
        keys1 = np.array([0.1, 5.0, 7.0, 9.0])
        keys2 = np.array([0.1 + 0.2, 5.1, 7.1, 9.1])
        source = ArrayStreamSource(keys1, keys2, num_batches=2)
        result = StreamingJoinEngine(
            1, condition, UNIT, policy=StaticEWHPolicy(),
            backend=RecountingBackend(SimulatedBackend()),
            sample_capacity=64, seed=0,
        ).run(source)
        assert result.output_correct
        assert result.total_output == 4

    def test_incremental_supports_inequality_joins(self, rng):
        # The transposed condition drives the (state1 x new2) term; an
        # asymmetric condition exercises it for real.
        keys1 = rng.uniform(0, 100, 300)
        keys2 = rng.uniform(0, 100, 300)
        source = ArrayStreamSource(keys1, keys2, num_batches=4)
        condition = InequalityJoinCondition(InequalityOp.LT)
        result = StreamingJoinEngine(
            3, condition, UNIT, policy=StaticEWHPolicy(),
            sample_capacity=256, seed=6,
        ).run(source)
        assert result.output_correct

    def test_window_ignores_source_batch_numbering(self):
        # Everything batch-counted -- window liveness, the drift detector's
        # warm-up and cool-down, the reservoir's decay exponent -- keys off
        # the engine's processed-batch position, so a source whose indices
        # start at 1000 and skip values behaves exactly like the 0-based
        # stream (same outputs, evictions and repartitioning batches).  The
        # pre-compaction SlidingWindow indexed batch_starts by
        # MicroBatch.index and raised IndexError here.  A strided numbering
        # has gaps, so the run must opt in with allow_gaps=True.
        class RenumberedSource(StreamSource):
            def __init__(self, inner, offset, stride):
                self.inner, self.offset, self.stride = inner, offset, stride

            @property
            def num_batches(self):
                return self.inner.num_batches

            def batches(self):
                for batch in self.inner.batches():
                    yield MicroBatch(
                        index=self.offset + self.stride * batch.index,
                        keys1=batch.keys1,
                        keys2=batch.keys2,
                    )

        def run(source):
            policy = DriftAdaptiveEWHPolicy(
                DriftDetector(threshold=1.2, warmup_batches=2, cooldown_batches=3)
            )
            return StreamingJoinEngine(
                3, BAND, UNIT, policy=policy, window="batches:3",
                sample_capacity=256, seed=2,
            ).run(source, allow_gaps=True)

        plain = run(drift_source())
        renumbered = run(RenumberedSource(drift_source(), 1000, 7))
        assert [b.output_delta for b in plain.batches] == [
            b.output_delta for b in renumbered.batches
        ]
        assert [b.tuples_evicted for b in plain.batches] == [
            b.tuples_evicted for b in renumbered.batches
        ]
        assert [b.repartitioned for b in plain.batches] == [
            b.repartitioned for b in renumbered.batches
        ]
        np.testing.assert_array_equal(
            plain.cumulative_load, renumbered.cumulative_load
        )
        assert [b.batch_index for b in renumbered.batches] == [
            1000 + 7 * i for i in range(plain.num_batches)
        ]
        assert [b.stream_position for b in renumbered.batches] == list(
            range(plain.num_batches)
        )

    def test_non_monotone_batch_indices_rejected(self):
        class BrokenSource(StreamSource):
            @property
            def num_batches(self):
                return 3

            def batches(self):
                keys = np.arange(5, dtype=np.float64)
                yield MicroBatch(index=0, keys1=keys, keys2=keys)
                yield MicroBatch(index=1, keys1=keys, keys2=keys)
                yield MicroBatch(index=1, keys1=keys, keys2=keys)

        engine = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=64, seed=0
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            engine.run(BrokenSource())

    def test_gapped_batch_indices_need_explicit_opt_in(self):
        # A gap in a contiguous stream usually means lost data, so the
        # engine rejects it unless the caller declares the gaps legitimate
        # (a shedding pipeline, a strided replay) via allow_gaps=True.
        class GappedSource(StreamSource):
            @property
            def num_batches(self):
                return 2

            def batches(self):
                keys = np.arange(5, dtype=np.float64)
                yield MicroBatch(index=0, keys1=keys, keys2=keys)
                yield MicroBatch(index=4, keys1=keys, keys2=keys)

        def engine():
            return StreamingJoinEngine(
                2, BAND, UNIT, policy=StaticEWHPolicy(),
                sample_capacity=64, seed=0,
            )

        with pytest.raises(ValueError, match="allow_gaps"):
            engine().run(GappedSource())
        result = engine().run(GappedSource(), allow_gaps=True)
        assert result.output_correct

    def test_compaction_flag_only_changes_the_footprint(self):
        compacted = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), window="batches:2",
            sample_capacity=256, seed=3,
        ).run(drift_source())
        leaky = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(),
            window=NoTrimWindow(make_window("batches:2")),
            sample_capacity=256, seed=3,
        )
        # Stop the uncompacted reference mid-stream and finish it from its
        # serialized checkpoint: the window decorator must deep-copy and
        # pickle like any other policy.
        leaky.start()
        for batch in drift_source().batches():
            leaky.process_batch(batch)
            if batch.index == 4:
                break
        resumed = StreamingJoinEngine.resume_from(
            StreamCheckpoint.from_bytes(leaky.checkpoint().to_bytes())
        )
        assert isinstance(resumed.window, NoTrimWindow)
        for batch in drift_source().batches():
            resumed.process_batch(batch)
        reference = resumed.finish()
        assert reference.window == "batches:2"
        assert [b.output_delta for b in compacted.batches] == [
            b.output_delta for b in reference.batches
        ]
        assert compacted.total_evicted == reference.total_evicted
        # The reference keeps the whole stream's history and trims nothing;
        # the compacted engine's history plateaus at the window.
        assert reference.total_history_trimmed == 0
        assert compacted.total_history_trimmed > 0
        assert (
            compacted.peak_resident_bytes < reference.peak_resident_bytes
        )
        last = compacted.batches[-1]
        assert last.resident_history_tuples <= 2 * 2 * 250  # 2 sides x 2 batches
        assert reference.batches[-1].resident_history_tuples == 2 * 10 * 250

    def test_compare_schemes_passes_window_through(self):
        results = compare_streaming_schemes(
            drift_source(num_batches=6), 4, BAND, UNIT,
            window="batches:2", sample_capacity=256, seed=5,
        )
        assert all(r.window == "batches:2" for r in results.values())
        # Windowed totals agree across schemes: the windowed join is a
        # property of the stream + window, not of the partitioning.
        assert len({r.total_output for r in results.values()}) == 1
        assert all(r.total_evicted > 0 for r in results.values())

    def test_streaming_table_reports_window_columns(self):
        results = compare_streaming_schemes(
            drift_source(num_batches=4), 2, BAND, UNIT,
            window="batches:2", sample_capacity=256, seed=5,
        )
        table = format_streaming_table(results)
        assert "window" in table and "batches:2" in table
        assert "peak resident" in table and "evicted" in table
        batches_table = format_streaming_batches(results)
        assert "resident" in batches_table
