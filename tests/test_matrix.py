"""Tests for the exact join-matrix model (tests/reference_matrix.py)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_joins import nested_loop_join
from reference_matrix import JoinMatrix
from repro.core.region import GridRegion
from repro.joins.conditions import BandJoinCondition, EquiJoinCondition

small_keys = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=20
)


class TestJoinMatrix:
    def test_cells_match_nested_loop_join(self):
        keys1 = np.array([1.0, 5.0, 9.0, 9.0])
        keys2 = np.array([2.0, 6.0, 20.0])
        condition = BandJoinCondition(beta=1.0)
        matrix = JoinMatrix(keys1, keys2, condition)
        assert matrix.total_output == len(nested_loop_join(keys1, keys2, condition))

    def test_keys_are_sorted(self):
        matrix = JoinMatrix([5.0, 1.0, 3.0], [9.0, 2.0], BandJoinCondition(beta=0.5))
        np.testing.assert_array_equal(matrix.keys1, np.array([1.0, 3.0, 5.0]))
        np.testing.assert_array_equal(matrix.keys2, np.array([2.0, 9.0]))

    def test_shape_and_totals(self):
        matrix = JoinMatrix([1, 2, 3], [1, 2], EquiJoinCondition())
        assert matrix.num_rows == 3
        assert matrix.num_cols == 2
        assert matrix.total_input == 5
        assert matrix.total_output == 2

    def test_region_output_exact(self):
        keys = np.arange(6, dtype=float)
        matrix = JoinMatrix(keys, keys, BandJoinCondition(beta=1.0))
        full = GridRegion(0, 5, 0, 5)
        assert matrix.region_output(full) == matrix.total_output
        corner = GridRegion(0, 1, 0, 1)
        # Keys 0 and 1 against keys 0 and 1 with beta 1: all 4 pairs match.
        assert matrix.region_output(corner) == 4

    def test_region_input_is_semi_perimeter(self):
        matrix = JoinMatrix(np.arange(4), np.arange(5), BandJoinCondition(beta=1))
        assert matrix.region_input(GridRegion(0, 2, 1, 4)) == 3 + 4

    def test_refuses_huge_matrices(self):
        keys = np.arange(6000, dtype=float)
        with pytest.raises(ValueError):
            JoinMatrix(keys, keys, BandJoinCondition(beta=1.0))

    def test_band_matrix_is_monotonic(self):
        rng = np.random.default_rng(4)
        keys1 = rng.integers(0, 100, size=30).astype(float)
        keys2 = rng.integers(0, 100, size=30).astype(float)
        matrix = JoinMatrix(keys1, keys2, BandJoinCondition(beta=5.0))
        assert matrix.is_monotonic()

    def test_to_weighted_grid_preserves_totals(self):
        keys1 = np.array([1.0, 2.0, 10.0])
        keys2 = np.array([1.5, 9.0])
        matrix = JoinMatrix(keys1, keys2, BandJoinCondition(beta=1.0))
        grid = matrix.to_weighted_grid()
        assert grid.shape == (3, 2)
        assert grid.total_output == matrix.total_output
        assert grid.total_input == matrix.total_input
        np.testing.assert_array_equal(grid.candidate, matrix.cells)

    def test_candidate_grid_boundary_check(self):
        matrix = JoinMatrix(
            np.array([0.0, 1.0, 10.0, 11.0]),
            np.array([0.0, 1.0, 10.0, 11.0]),
            BandJoinCondition(beta=1.0),
        )
        boundaries = np.array([0.0, 2.0, 9.0, 11.0])
        mask = matrix.candidate_grid(boundaries, boundaries)
        # The lowest and highest buckets are more than beta apart, so the
        # far off-diagonal cells are non-candidates; diagonal cells always are.
        assert mask[0, 0] and mask[1, 1] and mask[2, 2]
        assert not mask[0, 2] and not mask[2, 0]

    @given(keys1=small_keys, keys2=small_keys, beta=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_total_output_matches_nested_loop(self, keys1, keys2, beta):
        condition = BandJoinCondition(beta=float(beta))
        k1 = np.asarray(keys1, dtype=np.float64)
        k2 = np.asarray(keys2, dtype=np.float64)
        matrix = JoinMatrix(k1, k2, condition)
        assert matrix.total_output == len(nested_loop_join(k1, k2, condition))

    @given(keys1=small_keys, keys2=small_keys, beta=st.integers(0, 10))
    @settings(max_examples=50, deadline=None)
    def test_band_join_matrices_are_always_monotonic(self, keys1, keys2, beta):
        matrix = JoinMatrix(
            np.asarray(keys1, float), np.asarray(keys2, float),
            BandJoinCondition(beta=float(beta)),
        )
        assert matrix.is_monotonic()
