"""Tests for the multiprocessing executor and the cost-model calibration."""

from __future__ import annotations

import multiprocessing.process

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.engine.calibration import (
    CalibrationSample,
    calibrate_cost_weights,
    collect_calibration_samples,
)
from repro.engine.executor import run_join_multiprocess
from repro.joins.conditions import BandJoinCondition, EquiJoinCondition, JoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.streaming.backends import StickyWorkerBackend


class TestMultiprocessExecutor:
    def test_output_matches_exact_join(self):
        rng = np.random.default_rng(2)
        keys1 = rng.integers(0, 300, 600).astype(float)
        keys2 = rng.integers(0, 300, 600).astype(float)
        condition = BandJoinCondition(beta=1.0)
        exact = count_join_output(keys1, keys2, condition)
        partitioning = build_m_bucket_partitioning(
            keys1, keys2, condition, 4, config=MBucketConfig(num_buckets=20),
            rng=np.random.default_rng(0),
        )
        result = run_join_multiprocess(
            partitioning, keys1, keys2, condition, max_workers=2
        )
        assert result.total_output == exact
        assert len(result.per_machine_output) == partitioning.num_regions
        assert result.wall_seconds > 0
        assert result.per_machine_seconds.max() <= result.wall_seconds

    def test_one_bucket_partitioning_supported(self):
        rng = np.random.default_rng(3)
        keys1 = rng.integers(0, 100, 200).astype(float)
        keys2 = rng.integers(0, 100, 200).astype(float)
        condition = BandJoinCondition(beta=1.0)
        partitioning = build_one_bucket_partitioning(4)
        result = run_join_multiprocess(
            partitioning, keys1, keys2, condition, max_workers=2,
            rng=np.random.default_rng(1),
        )
        assert result.total_output == count_join_output(keys1, keys2, condition)

    def test_integer_keys_are_counted_exactly(self):
        """Keys above 2**53 reach the workers as integers, not float64 images.

        In float64, 2**53 + 1 rounds onto 2**53 and an equi join of these
        sides finds one match; exactly, it finds none.
        """
        keys1 = np.array([2**53, 2**53 + 2], dtype=np.int64)
        keys2 = np.array([2**53 + 1, 2**53 + 3], dtype=np.int64)
        condition = EquiJoinCondition()
        assert count_join_output(keys1, keys2, condition) == 0
        result = run_join_multiprocess(
            build_one_bucket_partitioning(4), keys1, keys2, condition, max_workers=2
        )
        assert result.total_output == 0

    def test_no_worker_when_no_region_has_both_sides(self, monkeypatch):
        """An empty side leaves every region idle: no worker is started."""

        def refuse(*args, **kwargs):
            raise AssertionError("workers were started for a join with no busy region")

        monkeypatch.setattr(StickyWorkerBackend, "bind", refuse)
        keys1 = np.arange(50, dtype=np.int64)
        result = run_join_multiprocess(
            build_one_bucket_partitioning(4), keys1, keys1[:0], BandJoinCondition(beta=1.0),
            rng=np.random.default_rng(1),
        )
        np.testing.assert_array_equal(result.per_machine_output, np.zeros(4, np.int64))
        np.testing.assert_array_equal(result.per_machine_seconds, np.zeros(4))
        assert result.worker_pids.size == result.worker_seconds.size == 0
        assert result.total_output == 0
        assert result.wall_seconds == 0.0

    def test_the_workers_never_start_with_fork(self, monkeypatch):
        """Forking a process that runs threads can deadlock the child.

        Every process started during the join goes through
        ``BaseProcess.start``; its class names its start method.
        """
        started = []
        start = multiprocessing.process.BaseProcess.start

        def record(process):
            started.append(process._start_method)
            return start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
        keys = np.arange(40, dtype=np.int64)
        result = run_join_multiprocess(
            build_one_bucket_partitioning(2), keys, keys, EquiJoinCondition(), max_workers=2
        )
        assert result.total_output == 40
        assert started and "fork" not in started

    def test_a_condition_without_a_transpose_is_refused_by_name(self):
        keys = np.arange(10, dtype=np.int64)
        with pytest.raises(ValueError, match="does not define .transposed"):
            run_join_multiprocess(
                build_one_bucket_partitioning(2), keys, keys, JoinCondition()
            )


class TestCalibration:
    def test_recovers_synthetic_coefficients(self):
        true = WeightFunction(input_cost=1.0, output_cost=0.25)
        rng = np.random.default_rng(0)
        samples = []
        for _ in range(12):
            inputs = float(rng.integers(100, 10_000))
            outputs = float(rng.integers(100, 10_000))
            seconds = 1e-6 * true.weight(inputs, outputs)
            samples.append(CalibrationSample(inputs, outputs, seconds))
        fitted = calibrate_cost_weights(samples)
        assert fitted.input_cost == pytest.approx(1.0)
        assert fitted.output_cost == pytest.approx(0.25, rel=0.05)

    def test_unnormalised_keeps_absolute_scale(self):
        samples = [
            CalibrationSample(100, 0, 2.0),
            CalibrationSample(0, 100, 1.0),
            CalibrationSample(100, 100, 3.0),
        ]
        fitted = calibrate_cost_weights(samples, normalise=False)
        assert fitted.input_cost == pytest.approx(0.02, rel=0.05)
        assert fitted.output_cost == pytest.approx(0.01, rel=0.05)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            calibrate_cost_weights([CalibrationSample(1, 1, 1.0)])

    def test_degenerate_regression_rejected(self):
        samples = [
            CalibrationSample(100, 100, 0.0),
            CalibrationSample(200, 200, 0.0),
        ]
        with pytest.raises(ValueError):
            calibrate_cost_weights(samples)

    def test_collect_calibration_samples(self):
        rng = np.random.default_rng(5)
        keys1 = rng.integers(0, 500, 2000).astype(float)
        keys2 = rng.integers(0, 500, 2000).astype(float)
        condition = BandJoinCondition(beta=2.0)
        samples = collect_calibration_samples(
            keys1, keys2, condition, fractions=(0.5, 1.0), rng=np.random.default_rng(1)
        )
        assert len(samples) == 2
        assert samples[0].input_tuples < samples[1].input_tuples
        for sample in samples:
            assert sample.seconds >= 0
            assert sample.output_tuples > 0

    def test_collect_rejects_bad_fraction(self):
        keys = np.arange(10, dtype=float)
        with pytest.raises(ValueError):
            collect_calibration_samples(
                keys, keys, BandJoinCondition(beta=1.0), fractions=(0.0,)
            )
