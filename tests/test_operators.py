"""Tests for the CI / CSI / CSIO operators and the adaptive fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histogram import EWHConfig
from repro.core.weights import STATS_SCAN_FACTOR, WeightFunction
from repro.engine.adaptive import AdaptiveOperator
from repro.engine.operators import CIOperator, CSIOOperator, CSIOperator
from repro.joins.conditions import BandJoinCondition, EquiJoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.m_bucket import MBucketConfig


@pytest.fixture(scope="module")
def jps_workload():
    """A workload with join product skew: hot keys produce most of the output."""
    rng = np.random.default_rng(31)
    keys1 = np.concatenate(
        [rng.integers(0, 25, 400), rng.integers(1000, 30_000, 1600)]
    ).astype(float)
    keys2 = np.concatenate(
        [rng.integers(0, 25, 400), rng.integers(1000, 30_000, 1600)]
    ).astype(float)
    condition = BandJoinCondition(beta=2.0)
    weight_fn = WeightFunction(1.0, 0.5)
    exact = count_join_output(keys1, keys2, condition)
    return keys1, keys2, condition, weight_fn, exact


class TestOperatorRuns:
    @pytest.mark.parametrize("operator_cls", [CIOperator, CSIOperator, CSIOOperator])
    def test_output_correct(self, jps_workload, operator_cls):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        result = operator_cls(num_machines=8).run(
            keys1, keys2, condition, weight_fn,
            rng=np.random.default_rng(0), expected_output=exact,
        )
        assert result.output_correct
        assert result.total_output == exact
        assert result.num_machines == 8

    def test_total_cost_is_stats_plus_join(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        result = CSIOperator(8).run(keys1, keys2, condition, weight_fn)
        assert result.total_cost == pytest.approx(result.stats_cost + result.join_cost)

    def test_ci_has_no_stats_phase(self, jps_workload):
        keys1, keys2, condition, weight_fn, _ = jps_workload
        result = CIOperator(8).run(keys1, keys2, condition, weight_fn)
        assert result.stats_cost == 0.0
        assert result.build_seconds == 0.0
        assert result.estimated_max_weight is None

    def test_csi_charges_two_scans(self, jps_workload):
        keys1, keys2, condition, weight_fn, _ = jps_workload
        result = CSIOperator(8).run(keys1, keys2, condition, weight_fn)
        expected = STATS_SCAN_FACTOR * weight_fn.input_cost * 2 * (len(keys1) + len(keys2)) / 8
        assert result.stats_cost == pytest.approx(expected)

    def test_csio_charges_at_least_one_scan(self, jps_workload):
        keys1, keys2, condition, weight_fn, _ = jps_workload
        result = CSIOOperator(8).run(keys1, keys2, condition, weight_fn)
        one_scan = STATS_SCAN_FACTOR * weight_fn.input_cost * (len(keys1) + len(keys2)) / 8
        assert result.stats_cost >= one_scan
        # ...but the extra d2equi/output-sample work is small relative to a
        # full second scan (the paper's efficiency argument).
        assert result.stats_cost <= 2.0 * one_scan

    def test_csio_reports_estimate(self, jps_workload):
        keys1, keys2, condition, weight_fn, _ = jps_workload
        result = CSIOOperator(8).run(keys1, keys2, condition, weight_fn)
        assert result.estimated_max_weight is not None
        assert result.estimated_max_weight > 0
        assert result.build_seconds > 0

    def test_csio_estimate_close_to_achieved(self, jps_workload):
        """Figure 4h: CSIO-est is within a few percent of the measured weight."""
        keys1, keys2, condition, weight_fn, _ = jps_workload
        result = CSIOOperator(8).run(
            keys1, keys2, condition, weight_fn, rng=np.random.default_rng(2)
        )
        assert result.estimated_max_weight == pytest.approx(
            result.max_region_weight, rel=0.35
        )

    def test_csio_beats_csi_join_cost_under_jps(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        csi = CSIOperator(8, config=MBucketConfig(num_buckets=40)).run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        )
        csio = CSIOOperator(8).run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        )
        assert csio.join_cost <= csi.join_cost

    def test_csio_uses_less_memory_than_ci(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        ci = CIOperator(8).run(keys1, keys2, condition, weight_fn, expected_output=exact)
        csio = CSIOOperator(8).run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        )
        assert csio.memory_tuples < ci.memory_tuples

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            CIOperator(0)
        with pytest.raises(ValueError):
            CSIOOperator(-3)

    def test_expected_output_computed_when_missing(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        result = CIOperator(4).run(keys1, keys2, condition, weight_fn)
        assert result.output_correct
        assert result.total_output == exact

    @pytest.mark.parametrize("make_operator", [
        CIOperator, CSIOperator, CSIOOperator,
        lambda machines: AdaptiveOperator(machines, fallback_seconds_per_million=10_000.0),
    ], ids=["CI", "CSI", "CSIO", "CSIO-adaptive"])
    def test_integer_keys_are_counted_in_their_own_dtype(self, make_operator):
        """Above 2**53 a float64 cast merges neighbouring int64 keys: equi on
        2**53 vs 2**53 + 1 would match, and the expected count with it."""
        big = 2**53
        keys1 = np.array([big, big + 2, 5, 9], dtype=np.int64)
        keys2 = np.array([big + 1, big + 3, 5, 9], dtype=np.int64)
        result = make_operator(2).run(
            keys1, keys2, EquiJoinCondition(), WeightFunction(),
            rng=np.random.default_rng(0),
        )
        assert result.total_output == 2
        assert result.output_correct


class TestAdaptiveOperator:
    def test_no_fallback_with_generous_threshold(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        operator = AdaptiveOperator(8, fallback_seconds_per_million=10_000.0)
        result = operator.run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        )
        assert not operator.fell_back
        assert result.scheme == "CSIO"
        assert result.output_correct

    def test_fallback_with_tiny_threshold(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        operator = AdaptiveOperator(8, fallback_seconds_per_million=1e-9)
        result = operator.run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        )
        assert operator.fell_back
        assert result.scheme == "CSIO-adaptive"
        assert result.output_correct
        # The wasted CSIO statistics are charged on top of CI's costs.
        ci = CIOperator(8).run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert result.stats_cost > ci.stats_cost
        assert result.join_cost == pytest.approx(ci.join_cost, rel=0.2)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AdaptiveOperator(4, fallback_seconds_per_million=0.0)

    def test_build_partitioning_not_supported(self, jps_workload):
        keys1, keys2, condition, weight_fn, _ = jps_workload
        operator = AdaptiveOperator(4)
        with pytest.raises(NotImplementedError):
            operator.build_partitioning(
                keys1, keys2, condition, weight_fn, np.random.default_rng(0)
            )

    def test_ewh_config_forwarded(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        config = EWHConfig(max_sample_matrix_size=24)
        operator = AdaptiveOperator(
            4, fallback_seconds_per_million=10_000.0, ewh_config=config
        )
        result = operator.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert result.output_correct


class TestAdaptiveOperatorInjectableClock:
    """The fallback threshold, driven deterministically by a fake clock."""

    @staticmethod
    def _fake_clock(build_seconds: float):
        """A clock whose two reads report exactly ``build_seconds`` elapsed."""
        ticks = iter([0.0, build_seconds])
        return lambda: next(ticks)

    def test_slow_build_falls_back(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        # 4000 input tuples at 0.5 s/M gives a 0.002 s threshold; a fake
        # 10 s build must trip it no matter how fast the machine is.
        operator = AdaptiveOperator(
            8, fallback_seconds_per_million=0.5, clock=self._fake_clock(10.0)
        )
        result = operator.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert operator.fell_back
        assert result.scheme == "CSIO-adaptive"
        assert result.output_correct
        assert result.estimated_max_weight is None

    def test_fast_build_keeps_csio(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        # A zero-second build can never exceed the threshold, even on a
        # machine slow enough that the real build would have tripped it.
        operator = AdaptiveOperator(
            8, fallback_seconds_per_million=0.5, clock=self._fake_clock(0.0)
        )
        result = operator.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert not operator.fell_back
        assert result.scheme == "CSIO"
        assert result.output_correct
        assert result.estimated_max_weight is not None

    def test_threshold_boundary_is_exclusive(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        input_millions = (len(keys1) + len(keys2)) / 1_000_000
        threshold = 0.5 * input_millions
        at_threshold = AdaptiveOperator(
            8, fallback_seconds_per_million=0.5, clock=self._fake_clock(threshold)
        )
        at_threshold.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert not at_threshold.fell_back
        just_over = AdaptiveOperator(
            8,
            fallback_seconds_per_million=0.5,
            clock=self._fake_clock(threshold * 1.01),
        )
        just_over.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert just_over.fell_back

    def test_fallback_charges_wasted_stats(self, jps_workload):
        keys1, keys2, condition, weight_fn, exact = jps_workload
        operator = AdaptiveOperator(
            8, fallback_seconds_per_million=0.5, clock=self._fake_clock(10.0)
        )
        result = operator.run(keys1, keys2, condition, weight_fn, expected_output=exact)
        csio_stats = CSIOOperator(8).run(
            keys1, keys2, condition, weight_fn, expected_output=exact
        ).stats_cost
        ci = CIOperator(8).run(keys1, keys2, condition, weight_fn, expected_output=exact)
        assert result.stats_cost == pytest.approx(ci.stats_cost + csio_stats, rel=0.05)
        assert result.join_cost == pytest.approx(ci.join_cost, rel=0.2)
