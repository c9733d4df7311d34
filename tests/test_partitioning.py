"""Tests for the partitioning schemes (CI, CSI, CSIO, grid routing, hashing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.histogram import EWHConfig
from repro.core.region import GridRegion
from reference_validation import validate_partitioning
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition, EquiJoinCondition
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.hash_repartition import HashRepartitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.partitioning.one_bucket import (
    OneBucketPartitioning,
    build_one_bucket_partitioning,
    machine_grid_shape,
)


@pytest.fixture(scope="module")
def small_join():
    rng = np.random.default_rng(17)
    keys1 = np.concatenate(
        [rng.integers(0, 30, 250), rng.integers(500, 5000, 750)]
    ).astype(float)
    keys2 = np.concatenate(
        [rng.integers(0, 30, 250), rng.integers(500, 5000, 750)]
    ).astype(float)
    return keys1, keys2, BandJoinCondition(beta=2.0)


class TestMachineGridShape:
    @pytest.mark.parametrize(
        "machines,expected",
        [(1, (1, 1)), (4, (2, 2)), (6, (2, 3)), (32, (4, 8)), (64, (8, 8)), (7, (1, 7))],
    )
    def test_factorisation(self, machines, expected):
        assert machine_grid_shape(machines) == expected

    def test_product_equals_machines(self):
        for machines in range(1, 65):
            rows, cols = machine_grid_shape(machines)
            assert rows * cols == machines
            assert rows <= cols

    def test_invalid(self):
        with pytest.raises(ValueError):
            machine_grid_shape(0)


class TestOneBucket:
    def test_paper_example_32_machines(self):
        partitioning = build_one_bucket_partitioning(32)
        assert partitioning.grid_rows == 4
        assert partitioning.grid_cols == 8
        assert partitioning.num_regions == 32
        assert partitioning.replication_r1 == 8
        assert partitioning.replication_r2 == 4

    def test_every_r1_tuple_replicated_to_one_grid_row(self):
        partitioning = OneBucketPartitioning(grid_rows=3, grid_cols=4)
        keys = np.arange(100, dtype=float)
        rng = np.random.default_rng(0)
        assignments = partitioning.assign_r1(keys, rng)
        counts = np.zeros(len(keys), dtype=int)
        for idx in assignments:
            counts[idx] += 1
        # Each tuple lands in exactly grid_cols regions (one full grid row).
        assert np.all(counts == 4)

    def test_every_r2_tuple_replicated_to_one_grid_column(self):
        partitioning = OneBucketPartitioning(grid_rows=3, grid_cols=4)
        keys = np.arange(100, dtype=float)
        assignments = partitioning.assign_r2(keys, np.random.default_rng(0))
        counts = np.zeros(len(keys), dtype=int)
        for idx in assignments:
            counts[idx] += 1
        assert np.all(counts == 3)

    def test_replication_factor(self, small_join):
        keys1, keys2, _ = small_join
        partitioning = build_one_bucket_partitioning(12)
        rows, cols = machine_grid_shape(12)
        factor = partitioning.replication_factor(
            keys1, keys2, np.random.default_rng(0)
        )
        expected = (cols * len(keys1) + rows * len(keys2)) / (len(keys1) + len(keys2))
        assert factor == pytest.approx(expected)

    def test_produces_complete_duplicate_free_output(self, small_join):
        keys1, keys2, condition = small_join
        partitioning = build_one_bucket_partitioning(6)
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_correct

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            OneBucketPartitioning(grid_rows=0, grid_cols=3)


class TestGridRoutedPartitioning:
    def test_routing_follows_key_boundaries(self):
        row_boundaries = np.array([-np.inf, 10.0, 20.0, np.inf])
        col_boundaries = np.array([-np.inf, 15.0, np.inf])
        regions = [GridRegion(0, 0, 0, 1), GridRegion(1, 2, 0, 0), GridRegion(1, 2, 1, 1)]
        partitioning = GridRoutedPartitioning(
            row_boundaries, col_boundaries, regions, scheme_name="test"
        )
        rng = np.random.default_rng(0)
        r1 = partitioning.assign_r1(np.array([5.0, 12.0, 100.0]), rng)
        # Key 5 -> grid row 0 -> only region 0; keys 12 and 100 -> rows 1, 2 ->
        # regions 1 and 2.
        np.testing.assert_array_equal(r1[0], [0])
        np.testing.assert_array_equal(r1[1], [1, 2])
        np.testing.assert_array_equal(r1[2], [1, 2])
        r2 = partitioning.assign_r2(np.array([14.0, 16.0]), rng)
        np.testing.assert_array_equal(r2[0], [0, 1])
        np.testing.assert_array_equal(r2[1], [0])
        np.testing.assert_array_equal(r2[2], [1])

    def test_key_regions_roundtrip(self):
        row_boundaries = np.array([0.0, 10.0, 20.0])
        col_boundaries = np.array([0.0, 5.0, 50.0])
        regions = [GridRegion(0, 1, 0, 0), GridRegion(0, 1, 1, 1)]
        partitioning = GridRoutedPartitioning(row_boundaries, col_boundaries, regions)
        key_regions = partitioning.key_regions()
        assert key_regions[0].r1_lo == 0.0 and key_regions[0].r1_hi == 20.0
        assert key_regions[0].r2_lo == 0.0 and key_regions[0].r2_hi == 5.0
        assert key_regions[1].r2_lo == 5.0 and key_regions[1].r2_hi == 50.0
        assert [r.region_id for r in key_regions] == [0, 1]

    def test_region_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            GridRoutedPartitioning(
                np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                [GridRegion(0, 1, 0, 0)],
            )

    def test_too_short_boundaries_rejected(self):
        with pytest.raises(ValueError):
            GridRoutedPartitioning(np.array([0.0]), np.array([0.0, 1.0]), [])

    @pytest.mark.parametrize("bad", ["row_boundaries", "col_boundaries"])
    def test_descending_or_nan_boundaries_rejected_by_name(self, bad):
        # Both used to be accepted and then misrouted through searchsorted.
        good = np.array([-np.inf, 1.0, 1.0, np.inf])  # ties are fine
        for broken, complaint in (
            (np.array([0.0, 2.0, 1.0]), "must ascend"),
            (np.array([0.0, np.nan, 3.0]), "contains NaN"),
        ):
            arrays = {"row_boundaries": good, "col_boundaries": good, bad: broken}
            with pytest.raises(ValueError, match=f"{bad} {complaint}"):
                GridRoutedPartitioning(**arrays, regions=[])

    def test_negative_or_inverted_region_ranges_rejected_by_region(self):
        # GridRegion refuses these itself; a region is duck-typed here, so
        # the partitioning must not rely on that.
        from types import SimpleNamespace

        boundaries = np.array([0.0, 1.0, 2.0, 3.0])
        for coordinates, complaint in (
            (dict(row_lo=-1, row_hi=1, col_lo=0, col_hi=0), "negative coordinates"),
            (dict(row_lo=0, row_hi=0, col_lo=-2, col_hi=0), "negative coordinates"),
            (dict(row_lo=2, row_hi=1, col_lo=0, col_hi=0), "inverted range"),
            (dict(row_lo=0, row_hi=0, col_lo=1, col_hi=0), "inverted range"),
        ):
            region = SimpleNamespace(**coordinates)
            with pytest.raises(ValueError, match=complaint) as refusal:
                GridRoutedPartitioning(boundaries, boundaries, [region])
            assert "namespace(" in str(refusal.value)  # names the region


class TestMBucket:
    def test_region_budget_and_correctness(self, small_join):
        keys1, keys2, condition = small_join
        partitioning = build_m_bucket_partitioning(
            keys1, keys2, condition, num_machines=6,
            config=MBucketConfig(num_buckets=40),
            rng=np.random.default_rng(3),
        )
        assert partitioning.scheme_name == "CSI"
        assert partitioning.num_regions <= 6
        assert partitioning.num_candidate_cells > 0
        assert partitioning.build_seconds >= 0
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_correct

    def test_more_buckets_do_not_break_correctness(self, small_join):
        keys1, keys2, condition = small_join
        for buckets in (10, 80):
            partitioning = build_m_bucket_partitioning(
                keys1, keys2, condition, num_machines=5,
                config=MBucketConfig(num_buckets=buckets),
                rng=np.random.default_rng(4),
            )
            validation = validate_partitioning(partitioning, keys1, keys2, condition)
            assert validation.is_correct

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError):
            build_m_bucket_partitioning(
                np.array([]), np.array([1.0]), BandJoinCondition(beta=1.0), 2
            )

    def test_invalid_machines_rejected(self, small_join):
        keys1, keys2, condition = small_join
        with pytest.raises(ValueError):
            build_m_bucket_partitioning(keys1, keys2, condition, 0)


class TestEWHPartitioning:
    def test_region_budget_and_correctness(self, small_join):
        keys1, keys2, condition = small_join
        partitioning = build_ewh_partitioning(
            keys1, keys2, condition, num_machines=6,
            weight_fn=WeightFunction(1.0, 0.2),
            rng=np.random.default_rng(5),
        )
        assert partitioning.scheme_name == "CSIO"
        assert partitioning.num_regions <= 6
        assert partitioning.estimated_max_weight > 0
        assert partitioning.total_output > 0
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_correct

    def test_histogram_artifact_exposed(self, small_join):
        keys1, keys2, condition = small_join
        partitioning = build_ewh_partitioning(
            keys1, keys2, condition, num_machines=4,
            config=EWHConfig(seed=1), rng=np.random.default_rng(1),
        )
        assert partitioning.histogram.num_regions == partitioning.num_regions
        assert partitioning.build_seconds == pytest.approx(
            partitioning.histogram.build_seconds
        )

    def test_balances_better_than_m_bucket_under_jps(self, small_join):
        """On a JPS-heavy workload CSIO's max weight beats CSI's."""
        from repro.engine.cluster import run_partitioned_join

        keys1, keys2, condition = small_join
        weight_fn = WeightFunction(1.0, 1.0)
        csi = build_m_bucket_partitioning(
            keys1, keys2, condition, 6, weight_fn=weight_fn,
            config=MBucketConfig(num_buckets=40), rng=np.random.default_rng(0),
        )
        csio = build_ewh_partitioning(
            keys1, keys2, condition, 6, weight_fn=weight_fn,
            rng=np.random.default_rng(0),
        )
        csi_exec = run_partitioned_join(csi, keys1, keys2, condition)
        csio_exec = run_partitioned_join(csio, keys1, keys2, condition)
        assert csio_exec.max_weight(weight_fn) <= csi_exec.max_weight(weight_fn)


class TestHashRepartitioning:
    def test_equi_join_correct(self):
        rng = np.random.default_rng(9)
        keys1 = rng.integers(0, 200, 400).astype(float)
        keys2 = rng.integers(0, 200, 400).astype(float)
        condition = EquiJoinCondition()
        partitioning = HashRepartitioning(num_machines=8, band_width=0.0)
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_correct
        # No replication for equi-joins.
        assert partitioning.replication_per_r2_tuple == 1

    def test_band_join_correct_but_replicated(self):
        rng = np.random.default_rng(10)
        keys1 = rng.integers(0, 300, 300).astype(float)
        keys2 = rng.integers(0, 300, 300).astype(float)
        beta = 3.0
        condition = BandJoinCondition(beta=beta)
        partitioning = HashRepartitioning(num_machines=8, band_width=beta)
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_correct
        assert partitioning.replication_per_r2_tuple == 2 * 3 + 1

    def test_replication_grows_with_band_width(self):
        rng = np.random.default_rng(11)
        keys1 = rng.integers(0, 1000, 500).astype(float)
        keys2 = rng.integers(0, 1000, 500).astype(float)
        factors = []
        for beta in (0.0, 2.0, 8.0):
            partitioning = HashRepartitioning(num_machines=8, band_width=beta)
            factors.append(
                partitioning.replication_factor(keys1, keys2, np.random.default_rng(0))
            )
        assert factors[0] < factors[1] < factors[2]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HashRepartitioning(num_machines=0)
        with pytest.raises(ValueError):
            HashRepartitioning(num_machines=2, band_width=-1.0)
        with pytest.raises(ValueError):
            HashRepartitioning(num_machines=2, key_granularity=0.0)
