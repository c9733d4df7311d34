"""Tests for the partitioning validators (tests/reference_validation.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from reference_validation import validate_grid_regions, validate_partitioning
from repro.joins.conditions import BandJoinCondition
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning


def simple_grid() -> WeightedGrid:
    candidate = np.array(
        [
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
    )
    return WeightedGrid(
        frequency=candidate.astype(float),
        row_input=np.ones(3),
        col_input=np.ones(3),
        candidate=candidate,
    )


class TestValidateGridRegions:
    def test_valid_cover(self):
        grid = simple_grid()
        regions = [GridRegion(0, 0, 0, 1), GridRegion(1, 2, 1, 2)]
        coverage = validate_grid_regions(grid, regions)
        assert coverage.is_valid
        assert coverage.summary() == "valid cover"

    def test_uncovered_candidate_detected(self):
        grid = simple_grid()
        regions = [GridRegion(0, 0, 0, 1)]
        coverage = validate_grid_regions(grid, regions)
        assert not coverage.is_valid
        assert (1, 1) in coverage.uncovered_candidates
        assert (2, 2) in coverage.uncovered_candidates

    def test_overlap_detected(self):
        grid = simple_grid()
        regions = [GridRegion(0, 1, 0, 2), GridRegion(1, 2, 1, 2)]
        coverage = validate_grid_regions(grid, regions)
        assert not coverage.is_valid
        assert (1, 1) in coverage.multiply_covered

    def test_out_of_bounds_detected(self):
        grid = simple_grid()
        regions = [GridRegion(0, 3, 0, 2)]
        coverage = validate_grid_regions(grid, regions)
        assert not coverage.is_valid
        assert coverage.out_of_bounds == [GridRegion(0, 3, 0, 2)]

    def test_noncandidate_coverage_allowed_once(self):
        grid = simple_grid()
        # A single region covering everything touches non-candidates once --
        # allowed.
        coverage = validate_grid_regions(grid, [GridRegion(0, 2, 0, 2)])
        assert coverage.is_valid

    def test_summary_mentions_counts(self):
        grid = simple_grid()
        coverage = validate_grid_regions(grid, [])
        assert "uncovered" in coverage.summary()


class TestValidatePartitioning:
    def test_correct_partitioning_passes(self):
        rng = np.random.default_rng(1)
        keys1 = rng.integers(0, 100, 200).astype(float)
        keys2 = rng.integers(0, 100, 200).astype(float)
        condition = BandJoinCondition(beta=1.0)
        partitioning = build_one_bucket_partitioning(4)
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_complete
        assert validation.is_duplicate_free
        assert validation.is_correct
        assert validation.produced_output == validation.expected_output
        assert len(validation.per_region_output) == 4

    def test_missing_output_detected(self):
        keys1 = np.array([1.0, 50.0])
        keys2 = np.array([1.0, 50.0])
        condition = BandJoinCondition(beta=0.5)
        # A single region that only covers low keys loses the (50, 50) pair.
        partitioning = GridRoutedPartitioning(
            row_boundaries=np.array([-np.inf, 10.0, np.inf]),
            col_boundaries=np.array([-np.inf, 10.0, np.inf]),
            regions=[GridRegion(0, 0, 0, 0)],
        )
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert not validation.is_complete
        assert (50.0, 50.0) in validation.missing_pairs
        assert not validation.is_correct

    def test_duplicate_output_detected(self):
        keys1 = np.array([1.0])
        keys2 = np.array([1.0])
        condition = BandJoinCondition(beta=0.5)
        # Two overlapping regions both produce the (1, 1) pair.
        partitioning = GridRoutedPartitioning(
            row_boundaries=np.array([-np.inf, np.inf]),
            col_boundaries=np.array([-np.inf, np.inf]),
            regions=[GridRegion(0, 0, 0, 0), GridRegion(0, 0, 0, 0)],
        )
        validation = validate_partitioning(partitioning, keys1, keys2, condition)
        assert validation.is_complete
        assert not validation.is_duplicate_free
        assert (1.0, 1.0) in validation.duplicate_pairs

    def test_refuses_huge_outputs(self):
        keys = np.zeros(3000)
        condition = BandJoinCondition(beta=1.0)
        partitioning = build_one_bucket_partitioning(2)
        with pytest.raises(ValueError):
            validate_partitioning(partitioning, keys, keys, condition)
