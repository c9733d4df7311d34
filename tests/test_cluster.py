"""Tests for the shared-nothing cluster simulator (repro.engine.cluster)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.engine.cluster import run_partitioned_join
from repro.core.region import GridRegion
from repro.joins.conditions import BandJoinCondition, EquiJoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.base import Partitioning
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.streaming.migration import route_live


@pytest.fixture(scope="module")
def join_inputs():
    rng = np.random.default_rng(23)
    keys1 = rng.integers(0, 400, 900).astype(float)
    keys2 = rng.integers(0, 400, 900).astype(float)
    return keys1, keys2, BandJoinCondition(beta=2.0)


class _BrokenPartitioning(Partitioning):
    """A partitioning that reports the wrong number of assignment arrays."""

    scheme_name = "broken"

    @property
    def num_regions(self) -> int:
        return 3

    def assign_r1(self, keys, rng):
        return [np.arange(len(keys))]

    def assign_r2(self, keys, rng):
        return [np.arange(len(keys)), np.array([], dtype=int), np.array([], dtype=int)]


class TestRunPartitionedJoin:
    @pytest.mark.parametrize("scheme", ["CI", "CSI", "CSIO"])
    def test_total_output_matches_exact_join(self, join_inputs, scheme):
        keys1, keys2, condition = join_inputs
        exact = count_join_output(keys1, keys2, condition)
        if scheme == "CI":
            partitioning = build_one_bucket_partitioning(8)
        elif scheme == "CSI":
            partitioning = build_m_bucket_partitioning(
                keys1, keys2, condition, 8, config=MBucketConfig(num_buckets=30),
                rng=np.random.default_rng(1),
            )
        else:
            partitioning = build_ewh_partitioning(
                keys1, keys2, condition, 8, rng=np.random.default_rng(1)
            )
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        assert result.total_output == exact
        assert result.total_output == int(result.per_machine_output.sum())

    def test_per_machine_arrays_sized_by_regions(self, join_inputs):
        keys1, keys2, condition = join_inputs
        partitioning = build_one_bucket_partitioning(6)
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        assert result.num_machines == 6
        assert len(result.per_machine_input) == 6
        assert len(result.per_machine_output) == 6

    def test_memory_equals_network_equals_shipped_input(self, join_inputs):
        keys1, keys2, condition = join_inputs
        partitioning = build_one_bucket_partitioning(6)
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        assert result.memory_tuples == result.network_tuples
        assert result.memory_tuples == int(result.per_machine_input.sum())

    def test_replication_factor(self, join_inputs):
        keys1, keys2, condition = join_inputs
        partitioning = build_one_bucket_partitioning(6)  # 2x3 grid
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        expected = (3 * len(keys1) + 2 * len(keys2)) / (len(keys1) + len(keys2))
        assert result.replication_factor == pytest.approx(expected)

    def test_max_weight_and_machine_weights(self, join_inputs):
        keys1, keys2, condition = join_inputs
        weight_fn = WeightFunction(1.0, 0.2)
        partitioning = build_one_bucket_partitioning(4)
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        weights = result.machine_weights(weight_fn)
        assert len(weights) == 4
        assert result.max_weight(weight_fn) == pytest.approx(weights.max())
        manual = (
            weight_fn.input_cost * result.per_machine_input
            + weight_fn.output_cost * result.per_machine_output
        )
        np.testing.assert_allclose(weights, manual)

    def test_ci_output_balance_is_near_uniform(self, join_inputs):
        """1-Bucket balances output almost perfectly in expectation (paper §II-A)."""
        keys1, keys2, condition = join_inputs
        partitioning = build_one_bucket_partitioning(4)
        result = run_partitioned_join(
            partitioning, keys1, keys2, condition, rng=np.random.default_rng(5)
        )
        outputs = result.per_machine_output.astype(float)
        assert outputs.max() <= 2.0 * max(outputs.mean(), 1.0)

    def test_broken_partitioning_rejected(self, join_inputs):
        keys1, keys2, condition = join_inputs
        with pytest.raises(ValueError, match="routing must return one share per region"):
            run_partitioned_join(_BrokenPartitioning(), keys1, keys2, condition)

    def test_the_stream_route_names_a_broken_partitioning(self, join_inputs):
        """The route a stream's build, migration and restore take raises it too."""
        keys1, keys2, _ = join_inputs
        with pytest.raises(ValueError, match="routed R1 to 1 regions, but has 3"):
            route_live(
                _BrokenPartitioning(), keys1, keys2, np.random.default_rng(0),
                np.arange(3), 3,
            )

    @pytest.mark.parametrize("scheme", ["CI", "CSIO"])
    def test_integer_keys_are_counted_exactly(self, scheme):
        """Keys above 2**53 are counted as integers, not as their float64 images.

        In float64, 2**53 + 1 rounds onto 2**53 and an equi join of these
        sides finds one match; exactly, it finds none.
        """
        keys1 = np.array([2**53, 2**53 + 2], dtype=np.int64)
        keys2 = np.array([2**53 + 1, 2**53 + 3], dtype=np.int64)
        condition = EquiJoinCondition()
        if scheme == "CI":
            partitioning = build_one_bucket_partitioning(4)
        else:  # one key-range region over the whole grid
            partitioning = GridRoutedPartitioning(
                [-np.inf, np.inf], [-np.inf, np.inf], [GridRegion(0, 0, 0, 0)]
            )
        assert count_join_output(keys1, keys2, condition) == 0
        result = run_partitioned_join(partitioning, keys1, keys2, condition)
        assert result.total_output == 0

    def test_empty_inputs(self):
        partitioning = build_one_bucket_partitioning(3)
        result = run_partitioned_join(
            partitioning, np.array([]), np.array([]), BandJoinCondition(beta=1.0)
        )
        assert result.total_output == 0
        assert result.replication_factor == 0.0
