"""Tests for the online streaming join subsystem."""

from __future__ import annotations

import gc
import math
import pickle
import tracemalloc
import types

import numpy as np
import pytest

from repro.bench.reporting import format_streaming_batches, format_streaming_table
from repro.core.histogram import EquiWeightHistogram, EWHConfig, build_equi_weight_histogram
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.base import Partitioning
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.joins.conditions import EquiJoinCondition
from repro.streaming import (
    ArrayStreamSource,
    DecayedReservoir,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    IncrementalHistogram,
    MicroBatch,
    RateLimitedSource,
    SimulatedBackend,
    SortedRegionState,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamingJoinEngine,
    StreamRunResult,
    compare_streaming_schemes,
    make_backend,
    plan_install,
)
import reference_migration
from streaming_harness import (
    PositionalRebuildEngine,
    RecountingBackend,
    assert_equivalent_runs,
)

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)


def _reachable(root):
    """Every object reachable from ``root`` through instances and containers
    (not through classes, modules or functions)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
        stack.extend(getattr(obj, "__dict__", {}).values())
    return found


def _holds_a_built_histogram(root) -> bool:
    return any(isinstance(obj, EquiWeightHistogram) for obj in _reachable(root))


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestArrayStreamSource:
    def test_batches_partition_the_arrays(self):
        keys1 = np.arange(17, dtype=np.float64)
        keys2 = np.arange(100, 123, dtype=np.float64)
        source = ArrayStreamSource(keys1, keys2, num_batches=5)
        batches = list(source.batches())
        assert len(batches) == 5
        assert [batch.index for batch in batches] == list(range(5))
        np.testing.assert_array_equal(
            np.concatenate([b.keys1 for b in batches]), keys1
        )
        np.testing.assert_array_equal(
            np.concatenate([b.keys2 for b in batches]), keys2
        )

    def test_reiterable(self):
        source = ArrayStreamSource(np.arange(10.0), np.arange(10.0), 3)
        first = [b.keys1.tolist() for b in source.batches()]
        second = [b.keys1.tolist() for b in source.batches()]
        assert first == second

    def test_invalid_batches(self):
        with pytest.raises(ValueError):
            ArrayStreamSource(np.arange(5.0), np.arange(5.0), 0)

    def test_total_tuples_does_not_materialise_the_stream(self):
        # Pipeline bookkeeping reads total_tuples up front; sources that
        # know their own size must answer in O(1) instead of replaying.
        class CountingSource(ArrayStreamSource):
            calls = 0

            def batches(self):
                type(self).calls += 1
                return super().batches()

        source = CountingSource(np.arange(10.0), np.arange(6.0), 2)
        assert source.total_tuples == 16
        assert CountingSource.calls == 0

        class CountingZipf(DriftingZipfSource):
            calls = 0

            def batches(self):
                type(self).calls += 1
                return super().batches()

        zipf = CountingZipf(num_batches=4, tuples_per_batch=50, num_values=10)
        assert zipf.total_tuples == 400
        assert CountingZipf.calls == 0


class TestRateLimitedSource:
    def test_delegates_content_and_knows_the_schedule(self):
        inner = ArrayStreamSource(np.arange(12.0), np.arange(12.0), 3)
        source = RateLimitedSource(inner, 0.5)
        assert source.num_batches == 3
        assert source.total_tuples == 24
        assert [source.arrival_time(i) for i in range(3)] == [0.5, 1.0, 1.5]
        assert [b.keys1.tolist() for b in source.batches()] == [
            b.keys1.tolist() for b in inner.batches()
        ]

    def test_total_tuples_never_rematerialises(self):
        class CountingSource(ArrayStreamSource):
            calls = 0

            def batches(self):
                type(self).calls += 1
                return super().batches()

        source = RateLimitedSource(
            CountingSource(np.arange(8.0), np.arange(8.0), 2), 1.0
        )
        assert source.total_tuples == 16
        assert CountingSource.calls == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimitedSource(ArrayStreamSource(np.arange(2.0), np.arange(2.0), 1), 0.0)


class TestIntegerKeyPrecision:
    """int64 join keys above 2**53 must round-trip without value change.

    The old ``ArrayStreamSource`` coerced every key array to ``float64``,
    which rounds int64 keys above 2**53 onto their even neighbours --
    distinct keys collapse, band boundaries move, and the join output
    silently changes.  Integer dtypes now survive the source, the engine's
    history, the sorted region state and the counting kernels.
    """

    BIG = 2**53

    def test_source_preserves_int64_values_exactly(self):
        keys1 = np.array([self.BIG + 1, self.BIG + 3, self.BIG + 5], dtype=np.int64)
        keys2 = np.array([self.BIG + 2, self.BIG + 4], dtype=np.int64)
        source = ArrayStreamSource(keys1, keys2, 2)
        batches = list(source.batches())
        assert all(b.keys1.dtype == np.int64 for b in batches)
        assert all(b.keys2.dtype == np.int64 for b in batches)
        np.testing.assert_array_equal(
            np.concatenate([b.keys1 for b in batches]), keys1
        )
        np.testing.assert_array_equal(
            np.concatenate([b.keys2 for b in batches]), keys2
        )

    def test_float_coercion_would_change_the_join(self):
        # The bug, pinned: BIG + 1 rounds to BIG under float64 (ties to
        # even), so the float path invents an equi match that does not
        # exist -- the integer path must not.
        k1 = np.array([self.BIG + 1], dtype=np.int64)
        k2 = np.array([self.BIG], dtype=np.int64)
        equi = EquiJoinCondition()
        assert count_join_output(k1, k2, equi) == 0
        assert (
            count_join_output(
                k1.astype(np.float64), k2.astype(np.float64), equi
            )
            == 1
        )

    def test_sorted_region_state_keeps_integer_dtype(self):
        history = np.array(
            [self.BIG + 5, self.BIG + 1, self.BIG + 3], dtype=np.int64
        )
        state = SortedRegionState.from_indices(np.array([0, 1, 2]), history)
        assert state.keys.dtype == np.int64
        assert state.keys.tolist() == [self.BIG + 1, self.BIG + 3, self.BIG + 5]
        fresh = SortedRegionState()
        fresh.insert(np.array([7]), np.array([self.BIG + 1], dtype=np.int64))
        assert fresh.keys.dtype == np.int64
        fresh.insert(np.array([9]), np.array([self.BIG + 3], dtype=np.int64))
        assert fresh.keys.dtype == np.int64
        assert fresh.keys.tolist() == [self.BIG + 1, self.BIG + 3]

    def _int_stream(self, size=300, spread=2000, seed=5):
        rng = np.random.default_rng(seed)
        keys1 = self.BIG + rng.integers(0, spread, size).astype(np.int64)
        keys2 = self.BIG + rng.integers(0, spread, size).astype(np.int64)
        return keys1, keys2

    def test_engine_round_trips_large_int_keys(self):
        keys1, keys2 = self._int_stream()
        brute = sum(
            1
            for a in keys1.tolist()
            for b in keys2.tolist()
            if abs(a - b) <= 1
        )
        for policy in (StaticOneBucketPolicy(3), StaticEWHPolicy()):
            result = StreamingJoinEngine(
                3, BAND, UNIT, policy=policy, sample_capacity=256, seed=2
            ).run(ArrayStreamSource(keys1, keys2, 4))
            assert result.output_correct
            # Exact integer arithmetic, pinned against pure-python ints.
            assert result.total_output == brute

    def test_unsigned_keys_count_exactly_via_their_int64_image(self):
        # uint64 keys above 2**53 are just as lossy under float64 as
        # signed ones; they are normalised to their exact int64 image
        # (values unchanged) wherever they fit.
        k1 = np.array([self.BIG + 1], dtype=np.uint64)
        k2 = np.array([self.BIG], dtype=np.uint64)
        assert count_join_output(k1, k2, EquiJoinCondition()) == 0
        source = ArrayStreamSource(k1, k2, 1)
        batch = next(iter(source.batches()))
        assert batch.keys1.dtype == np.int64
        assert batch.keys1.tolist() == [self.BIG + 1]
        result = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticOneBucketPolicy(2), seed=1
        ).run(source)
        assert result.output_correct
        # |(BIG+1) - BIG| = 1 <= beta: exactly one band pair, not the
        # spurious equi collapse the float path would also report.
        assert result.total_output == 1

    def test_incremental_and_recount_agree_on_int_keys(self):
        # The oracle recounts every machine's full region after each batch
        # and asserts the incremental delta against the difference; keys
        # above 2**53 make any float round-trip in either path show up.
        keys1, keys2 = self._int_stream(seed=9)

        def run(backend=None):
            return StreamingJoinEngine(
                3, BAND, UNIT, policy=StaticEWHPolicy(), backend=backend,
                sample_capacity=256, seed=2,
            ).run(ArrayStreamSource(keys1, keys2, 4))

        oracle = RecountingBackend(SimulatedBackend())
        checked = run(oracle)
        assert checked.output_correct
        assert len(oracle.recount_seconds) == checked.num_batches
        assert_equivalent_runs(checked, run())


class TestDriftingZipfSource:
    def test_deterministic_and_sized(self):
        source = DriftingZipfSource(
            num_batches=6, tuples_per_batch=200, num_values=50,
            shift_at_batch=3, seed=9,
        )
        runs = [
            [(b.keys1.tolist(), b.keys2.tolist()) for b in source.batches()]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        for batch in source.batches():
            assert len(batch.keys1) == 200
            assert len(batch.keys2) == 200
            assert batch.num_tuples == 400

    def test_shift_moves_the_hot_value(self):
        source = DriftingZipfSource(
            num_batches=8, tuples_per_batch=500, num_values=40,
            z_initial=0.0, z_final=1.5, shift_at_batch=4, seed=5,
        )
        batches = list(source.batches())

        def top_share(keys):
            _, counts = np.unique(keys, return_counts=True)
            return counts.max() / len(keys)

        # Near-uniform before the shift, concentrated after it.
        assert top_share(batches[0].keys1) < 0.1
        assert top_share(batches[7].keys1) > 0.2
        # The hot value persists within the post-shift phase.
        def hot_value(keys):
            values, counts = np.unique(keys, return_counts=True)
            return values[counts.argmax()]

        assert hot_value(batches[5].keys1) == hot_value(batches[7].keys1)

    def test_sides_are_independent_draws(self):
        # R1 and R2 must share the skew distribution and hot-value
        # alignment, not the exact multiset: the counts are drawn per side.
        source = DriftingZipfSource(
            num_batches=5, tuples_per_batch=400, num_values=50,
            z_initial=1.2, z_final=1.2, seed=3,
        )

        def hot_value(keys):
            values, counts = np.unique(keys, return_counts=True)
            return values[counts.argmax()]

        for batch in source.batches():
            assert sorted(batch.keys1.tolist()) != sorted(batch.keys2.tolist())
            # The shared phase permutation still aligns the hot value.
            assert hot_value(batch.keys1) == hot_value(batch.keys2)

    def test_z_schedule_override(self):
        source = DriftingZipfSource(
            num_batches=4, tuples_per_batch=300, num_values=30,
            z_schedule=lambda index: 2.0 if index >= 2 else 0.0, seed=1,
        )
        batches = list(source.batches())
        _, early = np.unique(batches[0].keys1, return_counts=True)
        _, late = np.unique(batches[3].keys1, return_counts=True)
        assert late.max() > early.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftingZipfSource(0, 10, 10)
        with pytest.raises(ValueError):
            DriftingZipfSource(5, 0, 10)
        with pytest.raises(ValueError):
            DriftingZipfSource(5, 10, 0)


# ----------------------------------------------------------------------
# Incremental sample state
# ----------------------------------------------------------------------
class TestDecayedReservoir:
    def test_capacity_bound(self, rng):
        reservoir = DecayedReservoir(capacity=32, decay=0.9)
        for index in range(5):
            reservoir.add_batch(np.arange(100.0), index, rng)
        assert len(reservoir) == 32
        assert reservoir.tuples_seen == 500

    def test_recent_batches_dominate(self, rng):
        reservoir = DecayedReservoir(capacity=100, decay=0.5)
        # 20 old batches of zeros, then 5 recent batches of ones, all equal
        # size: with decay 0.5 the recent keys should dominate the sample far
        # beyond their 20% share of the stream.
        for index in range(20):
            reservoir.add_batch(np.zeros(200), index, rng)
        for index in range(20, 25):
            reservoir.add_batch(np.ones(200), index, rng)
        keys = reservoir.payloads()
        assert keys.mean() > 0.8

    def test_long_streams_do_not_freeze_the_sample(self, rng):
        # decay**batch_index underflows to 0.0 near batch 3330 for
        # decay=0.8; the rebased log-space priorities must keep admitting
        # recent keys far beyond that point.
        reservoir = DecayedReservoir(capacity=50, decay=0.8)
        reservoir.add_batch(np.zeros(200), 0, rng)
        reservoir.add_batch(np.ones(200), 5_000, rng)
        keys = reservoir.payloads()
        assert keys.mean() > 0.9

    def test_no_decay_is_uniform_reservoir(self, rng):
        reservoir = DecayedReservoir(capacity=200, decay=1.0)
        for index in range(10):
            reservoir.add_batch(np.full(100, float(index)), index, rng)
        keys = reservoir.payloads()
        # Every batch should be represented roughly equally.
        assert len(np.unique(keys)) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            DecayedReservoir(capacity=0)
        with pytest.raises(ValueError):
            DecayedReservoir(capacity=8, decay=0.0)
        with pytest.raises(ValueError):
            DecayedReservoir(capacity=8, decay=1.5)


class TestIncrementalHistogram:
    def test_build_requires_observations(self, rng):
        histogram = IncrementalHistogram(4, UNIT)
        assert not histogram.can_build()
        with pytest.raises(ValueError):
            histogram.build_partitioning(BAND, rng)

    def test_build_from_observed_batches(self, rng):
        source = ArrayStreamSource(
            rng.uniform(0, 1000, 800), rng.uniform(0, 1000, 800), 4
        )
        histogram = IncrementalHistogram(4, UNIT, capacity=256)
        for batch in source.batches():
            histogram.observe(batch, rng)
        partitioning = histogram.build_partitioning(BAND, rng)
        assert 1 <= partitioning.num_regions <= 4
        assert histogram.rebuilds == 1
        assert histogram.predicted_imbalance() >= 1.0
        assert histogram.batches_observed == 4
        assert histogram.tuples_seen == 1600

    def test_rebuild_cost_independent_of_stream_length(self, rng):
        histogram = IncrementalHistogram(4, UNIT, capacity=128)
        for index in range(50):
            keys = rng.uniform(0, 100, 500)
            histogram.observe(MicroBatch(index=index, keys1=keys, keys2=keys), rng)
        assert histogram.sample_tuples <= 2 * 128
        partitioning = histogram.build_partitioning(BAND, rng)
        assert partitioning.num_regions <= 4

    def test_a_build_keeps_its_routing_and_nothing_else(self):
        # The plan is the build's coarsened grid and regions, and neither the
        # plan nor the incremental histogram holds on to the build itself.
        keys = np.random.default_rng(5).uniform(0, 200, 600)
        histogram = IncrementalHistogram(4, UNIT, capacity=256)
        histogram.observe(
            MicroBatch(index=0, keys1=keys, keys2=keys[::-1]), np.random.default_rng(6)
        )
        partitioning = histogram.build_partitioning(BAND, np.random.default_rng(7))
        built = build_equi_weight_histogram(
            histogram.reservoir1.payloads(), histogram.reservoir2.payloads(), BAND, 4, UNIT,
            config=histogram.config, rng=np.random.default_rng(7),
        )
        assert type(partitioning) is GridRoutedPartitioning
        assert partitioning.scheme_name == "CSIO"
        np.testing.assert_array_equal(partitioning.row_boundaries, built.mc_row_boundaries)
        np.testing.assert_array_equal(partitioning.col_boundaries, built.mc_col_boundaries)
        assert partitioning.regions == built.grid_regions
        assert not hasattr(histogram, "last_histogram")
        assert not _holds_a_built_histogram(histogram)
        assert not _holds_a_built_histogram(partitioning)


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
class TestDriftDetector:
    def test_warmup_suppresses_triggers(self):
        detector = DriftDetector(threshold=1.2, warmup_batches=3)
        assert not detector.update(0, 100.0, 1.0)
        assert not detector.update(1, 100.0, 1.0)
        assert not detector.update(2, 100.0, 1.0)
        assert detector.update(3, 100.0, 1.0)

    def test_no_trigger_when_balanced(self):
        detector = DriftDetector(threshold=1.5, warmup_batches=0)
        for index in range(10):
            assert not detector.update(index, 1.1, 1.0)

    def test_prediction_scales_the_threshold(self):
        # A live imbalance of 3 matches a *predicted* imbalance of 3: no drift.
        detector = DriftDetector(threshold=1.5, warmup_batches=0)
        assert not detector.update(0, 3.0, 3.0)
        # The same live imbalance against a prediction of 1 is drift.
        other = DriftDetector(threshold=1.5, warmup_batches=0)
        assert other.update(0, 3.0, 1.0)

    def test_cooldown(self):
        detector = DriftDetector(
            threshold=1.2, warmup_batches=0, cooldown_batches=4, ewma_alpha=1.0
        )
        assert detector.update(0, 10.0, 1.0)
        assert not detector.update(1, 10.0, 1.0)
        assert not detector.update(3, 10.0, 1.0)
        assert detector.update(4, 10.0, 1.0)

    def test_cooldown_window_triggers_exactly_once(self):
        # Regression guard against off-by-one cooldown drift: with
        # warmup_batches=2 the first eligible batch is index 2, and
        # cooldown_batches=3 must suppress batches 3 and 4 exactly --
        # a sustained overload over batches 0..4 therefore triggers once,
        # at batch 2, and batch 5 is the first allowed re-trigger.
        detector = DriftDetector(
            threshold=1.2, warmup_batches=2, cooldown_batches=3, ewma_alpha=1.0
        )
        fired = [detector.update(index, 5.0, 1.0) for index in range(5)]
        assert fired == [False, False, True, False, False]
        # The trigger restarted the EWMA; batches 3 and 4 refilled it.
        assert detector.smoothed_imbalance == pytest.approx(5.0)
        # The cooldown boundary itself: batch 2 + cooldown 3 = batch 5.
        assert detector.update(5, 5.0, 1.0)

    def test_a_trigger_keeps_the_ewma_it_fired_on(self):
        """At threshold 4 the EWMA 6 fires; the trigger restarts the EWMA
        (1.0 again) but keeps 6 where a decision record reads it, read-only
        and out of the pickle a checkpoint writes."""
        detector = DriftDetector(threshold=4.0, warmup_batches=0, ewma_alpha=0.5)
        unfired = pickle.dumps(detector)
        assert detector.fired_imbalance is None
        assert not detector.update(0, 2.0, 1.0)
        # EWMA 0.5 * 6 + 0.5 * 2 = 4: at the threshold, not above it.
        assert not detector.update(1, 6.0, 1.0)
        assert detector.fired_imbalance is None
        # EWMA 0.5 * 8 + 0.5 * 4 = 6 fires.
        assert detector.update(2, 8.0, 1.0)
        assert detector.fired_imbalance == 6.0
        assert detector.smoothed_imbalance == 1.0
        with pytest.raises(AttributeError):
            detector.fired_imbalance = 2.0
        restored = pickle.loads(pickle.dumps(detector))
        assert restored.fired_imbalance is None
        assert restored == detector
        # The pickle holds what it held before the trigger existed: the
        # EWMA (restarted) and the last trigger's batch.
        twin = pickle.loads(unfired)
        twin._last_trigger = 2
        assert pickle.dumps(detector) == pickle.dumps(twin)
        # The next trigger replaces it.
        assert not detector.update(3, 9.0, 1.0)
        assert not detector.update(4, 9.0, 1.0)
        assert detector.update(5, 9.0, 1.0)
        assert detector.fired_imbalance == 9.0

    def test_ewma_smooths_single_spikes(self):
        detector = DriftDetector(
            threshold=2.0, warmup_batches=0, ewma_alpha=0.2
        )
        assert not detector.update(0, 1.0, 1.0)
        # One spike is damped below the threshold by the EWMA...
        assert not detector.update(1, 6.0, 1.0)
        assert detector.smoothed_imbalance == pytest.approx(0.2 * 6.0 + 0.8 * 1.0)
        # ...but a sustained shift accumulates and triggers (EWMA 2.8), and
        # again once the cooldown of 3 batches has passed.
        triggered = [detector.update(2 + i, 6.0, 1.0) for i in range(6)]
        assert triggered == [True, False, False, True, False, False]

    def test_updates_retain_no_per_batch_record(self):
        # The detector holds its EWMA and last trigger, not one record per
        # batch: 10,000 updates, one trigger every few among them, leave
        # at most 32 B per call behind.
        detector = DriftDetector(threshold=1.2, warmup_batches=0, cooldown_batches=3)
        calls = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(calls):
                detector.update(index, 1.0 + (index % 7), 1.0)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 32 * calls, f"{retained / calls:.0f} B retained per update"

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftDetector(threshold=1.0)
        with pytest.raises(ValueError):
            DriftDetector(ewma_alpha=0.0)


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def _plan(*arguments, mode="full"):
    """``plan_install``'s plan and routed sides; its figures are the reference planner's."""
    theirs = np.random.default_rng()
    theirs.bit_generator.state = arguments[-1].bit_generator.state
    plan, _, routed = plan_install(*arguments, mode=mode)
    expected = reference_migration.plan_migration(*arguments[:-1], theirs, mode=mode)
    for name in ("per_machine_arrivals", "per_machine_departures", "region_to_machine"):
        np.testing.assert_array_equal(getattr(plan, name), getattr(expected, name))
    return plan, routed


class TestMigration:
    def test_unchanged_partitioning_moves_nothing(self, rng):
        keys1 = rng.uniform(0, 100, 300)
        keys2 = rng.uniform(0, 100, 300)
        partitioning = build_one_bucket_partitioning(4, key=7)
        old1 = partitioning.assign_r1(keys1, rng)
        old2 = partitioning.assign_r2(keys2, rng)
        # Re-routing reproduces the assignment: 1-Bucket draws each tuple's
        # row or column from its arrival index, not from the generator.
        plan, _ = _plan(old1, old2, partitioning, keys1, keys2, 4, rng)
        assert plan.total_moved == 0

    def test_disjoint_assignment_moves_everything(self, rng):
        keys = np.arange(10.0)
        old1 = [np.arange(10, dtype=np.int64), np.empty(0, dtype=np.int64)]
        old2 = [np.arange(10, dtype=np.int64), np.empty(0, dtype=np.int64)]

        class _Swapped(Partitioning):
            num_regions = 2

            def assign_r1(self, k, rng):
                return [np.empty(0, dtype=np.int64), np.arange(10, dtype=np.int64)]

            def assign_r2(self, k, rng):
                return [np.empty(0, dtype=np.int64), np.arange(10, dtype=np.int64)]

        plan, _ = _plan(old1, old2, _Swapped(), keys, keys, 2, rng)
        assert plan.total_moved == 20
        assert plan.per_machine_arrivals.tolist() == [0, 20]

    def test_pads_fewer_regions_than_machines(self, rng):
        keys = np.arange(6.0)
        old1 = [np.arange(6, dtype=np.int64)] + [
            np.empty(0, dtype=np.int64) for _ in range(3)
        ]
        old2 = list(old1)

        class _Single(Partitioning):
            num_regions = 1

            def assign_r1(self, k, rng):
                return [np.arange(6, dtype=np.int64)]

            def assign_r2(self, k, rng):
                return [np.arange(6, dtype=np.int64)]

        plan, routed = _plan(old1, old2, _Single(), keys, keys, 4, rng)
        assert [len(held) for held in routed[0].columns()] == [6, 0, 0, 0]
        assert plan.total_moved == 0

    @pytest.mark.parametrize("mode", ["full", "partial"])
    def test_more_regions_than_machines_is_refused(self, rng, mode):
        # Full mode used to drop the regions past the fleet silently, partial
        # mode to raise an IndexError: every region needs its own machine.
        keys = rng.uniform(0, 100, 400)
        old = [np.arange(100 * m, 100 * (m + 1), dtype=np.int64) for m in range(4)]
        partitioning = build_one_bucket_partitioning(8)
        with pytest.raises(ValueError, match="8 regions .* got 4"):
            plan_install(old, old, partitioning, keys, keys, 4, rng, mode=mode)


class _OversizedPlans(StaticOneBucketPolicy):
    """1-Bucket on the fleet, until it hands out a plan for twice the fleet."""

    def __init__(self, num_machines: int, oversize_at: "int | None") -> None:
        super().__init__(num_machines)
        self.oversize_at = oversize_at

    def maybe_repartition(self, histogram, metrics, condition, rng):
        if metrics.stream_position == self.oversize_at:
            return build_one_bucket_partitioning(2 * self.num_machines)
        return None

    def resize_partitioning(self, num_machines, histogram, condition, rng):
        return build_one_bucket_partitioning(2 * num_machines)


class TestOversizedPlans:
    """A plan with more regions than machines is refused wherever it is adopted."""

    @staticmethod
    def _engine(policy) -> StreamingJoinEngine:
        engine = StreamingJoinEngine(4, BAND, UNIT, policy=policy, seed=3)
        engine.start()
        return engine

    @staticmethod
    def _batch(index: int) -> MicroBatch:
        rng = np.random.default_rng(index)
        return MicroBatch(index, rng.uniform(0, 50, 40), rng.uniform(0, 50, 40))

    def test_at_the_initial_build(self):
        # Used to die in batch 0 with an unnamed numpy broadcast error.
        engine = self._engine(StaticOneBucketPolicy(8))
        with pytest.raises(ValueError, match="8 regions .* got 4"):
            engine.process_batch(self._batch(0))
        engine.close()

    def test_at_a_drift_rebuild(self):
        engine = self._engine(_OversizedPlans(4, oversize_at=1))
        engine.process_batch(self._batch(0))
        with pytest.raises(ValueError, match="8 regions .* got 4"):
            engine.process_batch(self._batch(1))
        engine.close()

    def test_at_a_resize(self):
        engine = self._engine(_OversizedPlans(4, oversize_at=None))
        engine.process_batch(self._batch(0))
        with pytest.raises(ValueError, match="6 regions .* got 3"):
            engine.resize(3)
        engine.close()


class TestRoutingOnlyPlans:
    """Every plan a drift-adaptive engine adopts -- the initial build, a
    drift rebuild, a resize -- is a bare grid-routed partitioning, and no
    built histogram is reachable from the engine."""

    @staticmethod
    def _source() -> DriftingZipfSource:
        return DriftingZipfSource(
            num_batches=10, tuples_per_batch=400, num_values=120,
            z_initial=0.1, z_final=1.2, shift_at_batch=4, seed=11,
        )

    @pytest.mark.parametrize("stage", ["initial", "rebuild", "resize"])
    def test_every_adopted_plan_is_routing_only(self, stage):
        policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=1, cooldown_batches=2)
        )
        engine = StreamingJoinEngine(8, BAND, UNIT, policy=policy, sample_capacity=512, seed=4)
        engine.start()
        batches = iter(self._source().batches())
        engine.process_batch(next(batches))
        if stage == "rebuild":
            for batch in batches:
                if engine.process_batch(batch).repartitioned:
                    break
            else:
                pytest.fail("the drifting stream never triggered a rebuild")
        elif stage == "resize":
            engine.process_batch(next(batches))
            engine.resize(5)
        plan = engine._state.partitioning
        try:
            assert type(plan) is GridRoutedPartitioning
            assert plan.scheme_name == "CSIO"
            assert plan.num_regions <= engine.num_machines
            assert len(pickle.dumps(plan)) <= 1300
            assert not _holds_a_built_histogram(engine)
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestStreamingJoinEngine:
    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: StaticOneBucketPolicy(4),
            lambda: StaticEWHPolicy(),
            lambda: DriftAdaptiveEWHPolicy(),
        ],
    )
    def test_exact_output_on_stationary_stream(self, rng, policy_factory):
        keys1 = rng.uniform(0, 500, 600)
        keys2 = rng.uniform(0, 500, 600)
        source = ArrayStreamSource(keys1, keys2, num_batches=5)
        engine = StreamingJoinEngine(
            4, BAND, UNIT, policy=policy_factory(), sample_capacity=256, seed=2
        )
        result = engine.run(source)
        assert result.output_correct
        assert result.total_output == count_join_output(keys1, keys2, BAND)
        assert result.num_batches == 5
        assert result.total_tuples == 1200
        assert result.max_machine_load > 0
        assert all(batch.max_load >= 0 for batch in result.batches)

    def test_exact_output_under_drift_and_repartitioning(self):
        source = DriftingZipfSource(
            num_batches=10, tuples_per_batch=400, num_values=120,
            z_initial=0.1, z_final=1.2, shift_at_batch=4, seed=11,
        )
        policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=1, cooldown_batches=2)
        )
        engine = StreamingJoinEngine(
            8, BAND, UNIT, policy=policy, sample_capacity=512, seed=4
        )
        result = engine.run(source)
        assert result.output_correct
        assert result.num_repartitions >= 1
        assert result.total_migrated > 0
        repartition_batches = [
            batch for batch in result.batches if batch.repartitioned
        ]
        assert all(batch.migrated_tuples > 0 for batch in repartition_batches)
        assert all(batch.rebuild_cost > 0 for batch in repartition_batches)

    def test_static_policies_never_migrate(self, rng):
        source = DriftingZipfSource(
            num_batches=6, tuples_per_batch=300, num_values=80,
            z_initial=0.0, z_final=1.5, shift_at_batch=3, seed=13,
        )
        for policy in (StaticOneBucketPolicy(4), StaticEWHPolicy()):
            engine = StreamingJoinEngine(
                4, BAND, UNIT, policy=policy, sample_capacity=256, seed=1
            )
            result = engine.run(source)
            assert result.output_correct
            assert result.num_repartitions == 0
            assert result.total_migrated == 0

    def test_migration_cost_enters_the_load(self):
        source = DriftingZipfSource(
            num_batches=8, tuples_per_batch=300, num_values=100,
            z_initial=0.1, z_final=1.4, shift_at_batch=3, seed=21,
        )

        def run(factor):
            policy = DriftAdaptiveEWHPolicy(
                DriftDetector(threshold=1.3, warmup_batches=1, cooldown_batches=2)
            )
            engine = StreamingJoinEngine(
                4, BAND, UNIT, policy=policy, sample_capacity=256,
                migration_cost_factor=factor, seed=6,
            )
            return engine.run(source)

        cheap = run(0.0)
        expensive = run(5.0)
        assert cheap.num_repartitions >= 1
        assert expensive.num_repartitions == cheap.num_repartitions
        assert expensive.max_machine_load > cheap.max_machine_load

    def test_full_and_partial_repartitioning_agree_on_output(self):
        source = DriftingZipfSource(
            num_batches=10, tuples_per_batch=400, num_values=120,
            z_initial=0.1, z_final=1.2, shift_at_batch=4, seed=11,
        )

        def run(engine_cls, stop_after=None):
            policy = DriftAdaptiveEWHPolicy(
                DriftDetector(threshold=1.3, warmup_batches=1, cooldown_batches=2)
            )
            engine = engine_cls(
                8, BAND, UNIT, policy=policy, sample_capacity=512, seed=4
            )
            if stop_after is None:
                return engine.run(source)
            # Checkpoint mid-stream and finish on the resumed engine: the
            # reference class must survive resume_from (a classmethod).
            engine.start()
            for batch in source.batches():
                engine.process_batch(batch)
                if batch.index == stop_after:
                    break
            resumed = engine_cls.resume_from(engine.checkpoint())
            assert type(resumed) is engine_cls
            for batch in source.batches():
                resumed.process_batch(batch)
            return resumed.finish()

        full = run(PositionalRebuildEngine)
        partial = run(StreamingJoinEngine)
        assert_equivalent_runs(run(PositionalRebuildEngine, stop_after=5), full)
        # The modes differ only in how much state a rebuild ships: joins,
        # trigger batches and exact output are identical.
        assert full.output_correct and partial.output_correct
        assert full.total_output == partial.total_output
        assert full.num_repartitions == partial.num_repartitions >= 1
        assert partial.total_migrated <= full.total_migrated
        full_plans = [b.migration_plan for b in full.batches if b.repartitioned]
        assert all(
            plan.region_to_machine.tolist() == list(range(8)) for plan in full_plans
        )

    def test_removed_options_are_gone_by_name(self):
        """The deleted knobs, dialect and backends are not silently accepted."""
        import repro.streaming
        from repro.query import parse_sql
        from repro.streaming import BatchMetrics, StreamingPipeline

        for removed in (
            {"compact_history": False},
            {"repartition_mode": "full"},
            {"rebuild_scan_factor": 0.5},
            {"histogram": IncrementalHistogram(2, UNIT)},
        ):
            with pytest.raises(TypeError, match=next(iter(removed))):
                StreamingJoinEngine(2, BAND, UNIT, **removed)
        with pytest.raises(TypeError, match="adjust_for_output_ratio"):
            EWHConfig(adjust_for_output_ratio=False)
        with pytest.raises(TypeError, match="dialect"):
            parse_sql("SELECT COUNT(*) FROM a JOIN b ON a.x = b.x", dialect="sqlglot")
        with pytest.raises(ValueError, match="available: simulated, sticky"):
            make_backend("multiprocess")
        source = ArrayStreamSource(np.arange(4.0), np.arange(4.0), 2)
        for removed in ({"clock": lambda: 0.0}, {"sleep": lambda seconds: None}):
            with pytest.raises(TypeError, match=next(iter(removed))):
                StreamingPipeline(source, StreamingJoinEngine(2, BAND, UNIT), **removed)
        with pytest.raises(TypeError, match="join_clock"):
            BatchMetrics(0, 0, np.zeros(2), 0, join_clock="real")
        with pytest.raises(AttributeError, match="SlowConsumerBackend"):
            repro.streaming.SlowConsumerBackend

    def test_single_machine(self, rng):
        keys = rng.uniform(0, 50, 200)
        source = ArrayStreamSource(keys, keys, 3)
        engine = StreamingJoinEngine(
            1, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        )
        result = engine.run(source)
        assert result.output_correct
        assert result.load_imbalance == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StreamingJoinEngine(0, BAND, UNIT)
        with pytest.raises(ValueError):
            StreamingJoinEngine(2, BAND, UNIT, migration_cost_factor=-1.0)

    def test_one_side_arrives_late(self, rng):
        # R1 is silent for the first two batches: the EWH build must be
        # deferred until both sides have been observed, and the pre-build
        # arrivals routed when it finally happens.
        keys1 = rng.uniform(0, 100, 300)
        keys2 = rng.uniform(0, 100, 300)
        stream = [
            MicroBatch(0, np.empty(0), keys2[:100]),
            MicroBatch(1, np.empty(0), keys2[100:200]),
            MicroBatch(2, keys1[:150], keys2[200:]),
            MicroBatch(3, keys1[150:], np.empty(0)),
        ]

        class _Source:
            num_batches = len(stream)

            def batches(self):
                return iter(stream)

        engine = StreamingJoinEngine(
            4, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=256, seed=8
        )
        result = engine.run(_Source())
        assert result.output_correct
        assert result.total_output == count_join_output(keys1, keys2, BAND)
        # The first two batches cannot produce output or route anything.
        assert result.batches[0].max_load == 0
        assert result.batches[1].max_load == 0
        assert result.batches[2].max_load > 0

    def test_engine_refuses_a_second_stream(self, rng):
        keys = rng.uniform(0, 100, 120)
        source = ArrayStreamSource(keys, keys, 2)
        engine = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        )
        engine.run(source)
        with pytest.raises(RuntimeError):
            engine.run(source)

    def test_unverified_run_reports_unknown_correctness(self, rng):
        keys = rng.uniform(0, 100, 200)
        source = ArrayStreamSource(keys, keys, 2)
        engine = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        )
        result = engine.run(source, verify=False)
        assert result.output_correct is None
        assert result.expected_output is None
        # The summary table must not claim correctness it never checked.
        table = format_streaming_table({"CSIO-static": result})
        assert table.splitlines()[-1].rstrip().endswith("-")


class TestStreamingReporting:
    def test_batch_table_handles_unequal_run_lengths(self, rng):
        keys = rng.uniform(0, 100, 240)
        long_run = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        ).run(ArrayStreamSource(keys, keys, 3))
        short_run = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        ).run(ArrayStreamSource(keys, keys, 2))
        table = format_streaming_batches({"long": long_run, "short": short_run})
        # Three batch rows plus two header lines; the short run's last cell
        # is blank rather than an IndexError.
        assert len(table.splitlines()) == 5

    def test_zero_batch_result_renders_dashes_instead_of_crashing(self):
        # A hand-built (or failed-early) run has no batches: every
        # aggregate must degrade gracefully and the tables must render
        # "-" rather than crash or print inf.
        empty = StreamRunResult(scheme="empty", num_machines=2)
        assert empty.peak_resident_tuples == 0
        assert empty.peak_resident_bytes == 0
        assert empty.peak_queue_depth == 0
        assert empty.max_machine_load == 0.0
        assert math.isnan(empty.mean_throughput)
        table = format_streaming_table({"empty": empty})
        assert " - " in table.splitlines()[-1]
        batches_table = format_streaming_batches({"empty": empty})
        assert len(batches_table.splitlines()) == 2  # header + rule only

    def test_empty_results_dict_renders_header_only(self):
        # max() over zero runs used to raise ValueError here.
        table = format_streaming_batches({})
        assert table.splitlines()[0].startswith("batch")

    def test_golden_mode_hides_measured_durations_only(self, rng):
        # Committed benchmark goldens churned on every regeneration
        # because the table printed exact measured wall seconds; golden
        # mode renders real-clock durations as "-" while deterministic
        # (simulated-clock) durations stay exact.
        keys = rng.uniform(0, 100, 200)
        result = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=128
        ).run(ArrayStreamSource(keys, keys, 2))
        assert result.clock_domains == "real"
        exact = format_streaming_table({"run": result})
        golden = format_streaming_table({"run": result}, golden=True)
        assert f"{result.join_seconds:.3f}" in exact
        assert f"{result.join_seconds:.3f}" not in golden
        # Everything deterministic is untouched: strip the join-s column's
        # cell and the rows agree.
        assert f"{result.total_output:,}" in golden

    def test_bucket_seconds_decades(self):
        from repro.bench.reporting import bucket_seconds

        assert bucket_seconds(float("nan")) == "-"
        assert bucket_seconds(0.0) == "0"
        assert bucket_seconds(0.0005) == "<1ms"
        assert bucket_seconds(0.005) == "1-10ms"
        assert bucket_seconds(0.05) == "10-100ms"
        assert bucket_seconds(0.5) == "0.1-1s"
        assert bucket_seconds(5.0) == "1-10s"
        assert bucket_seconds(50.0) == "10-100s"
        assert bucket_seconds(500.0) == ">=100s"

    def test_bucket_ratio_powers_of_two(self):
        from repro.bench.reporting import bucket_ratio

        assert bucket_ratio(float("inf")) == "-"
        assert bucket_ratio(0.5) == "<1x"
        assert bucket_ratio(1.5) == "1-2x"
        assert bucket_ratio(2.83) == "2-4x"
        assert bucket_ratio(11.0) == "8-16x"

    def test_empty_stream_run_reports_no_infinite_throughput(self):
        source = ArrayStreamSource(np.empty(0), np.empty(0), 1)
        result = StreamingJoinEngine(
            2, BAND, UNIT, policy=StaticEWHPolicy(), sample_capacity=64
        ).run(source)
        # One empty batch, zero load, zero output -- and the exact check
        # still holds (an empty join has cardinality zero).
        assert result.num_batches == 1
        assert result.total_tuples == 0
        assert result.output_correct
        assert math.isnan(result.mean_throughput)
        assert math.isnan(result.batches[0].throughput)
        table = format_streaming_table({"empty": result})
        assert "inf" not in table

    def test_drift_decides_on_the_ewma_not_the_raw_imbalance(self):
        detector = DriftDetector(
            threshold=7.0, warmup_batches=0, ewma_alpha=0.5
        )
        assert not detector.update(0, 2.0, 1.0)
        # The raw 10 exceeds the threshold of 7; the EWMA at the decision,
        # 0.5*10 + 0.5*2 = 6, does not.
        assert not detector.update(1, 10.0, 1.0)
        assert detector.smoothed_imbalance == pytest.approx(6.0)


class TestCompareStreamingSchemes:
    def test_all_schemes_agree_on_output(self):
        source = DriftingZipfSource(
            num_batches=8, tuples_per_batch=300, num_values=100,
            z_initial=0.1, z_final=1.2, shift_at_batch=3, seed=17,
        )
        results = compare_streaming_schemes(
            source, 8, BAND, UNIT, sample_capacity=256, seed=5
        )
        assert set(results) == {"CI-static", "CSIO-static", "CSIO-adaptive"}
        outputs = {r.total_output for r in results.values()}
        assert len(outputs) == 1
        assert all(r.output_correct for r in results.values())
