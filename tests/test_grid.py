"""Tests for the weighted grid (repro.core.grid)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition


def make_grid(frequency, row_input=None, col_input=None, candidate=None):
    frequency = np.asarray(frequency, dtype=np.float64)
    rows, cols = frequency.shape
    if candidate is None:
        candidate = frequency > 0
    return WeightedGrid(
        frequency=frequency,
        row_input=np.ones(rows) if row_input is None else np.asarray(row_input, float),
        col_input=np.ones(cols) if col_input is None else np.asarray(col_input, float),
        candidate=np.asarray(candidate, dtype=bool),
    )


def band_grid(size: int, beta: float, seed: int = 0) -> WeightedGrid:
    """A random monotonic grid shaped like a band join's candidate structure."""
    rng = np.random.default_rng(seed)
    boundaries = np.sort(rng.uniform(0, 5 * size, size=size + 1))
    condition = BandJoinCondition(beta=beta)
    candidate = condition.candidate_grid(
        boundaries[:-1], boundaries[1:], boundaries[:-1], boundaries[1:]
    )
    frequency = np.where(candidate, rng.integers(0, 10, size=(size, size)), 0)
    return WeightedGrid(
        frequency=frequency.astype(np.float64),
        row_input=rng.integers(1, 10, size=size).astype(np.float64),
        col_input=rng.integers(1, 10, size=size).astype(np.float64),
        candidate=candidate,
    )


class TestConstruction:
    def test_shape_and_totals(self):
        grid = make_grid([[1, 0], [2, 3]], row_input=[4, 5], col_input=[6, 7])
        assert grid.shape == (2, 2)
        assert grid.num_rows == 2
        assert grid.num_cols == 2
        assert grid.total_output == 6.0
        assert grid.total_input == 4 + 5 + 6 + 7
        assert grid.num_candidate_cells == 3

    def test_mismatched_candidate_shape_rejected(self):
        with pytest.raises(ValueError):
            WeightedGrid(
                frequency=np.zeros((2, 2)),
                row_input=np.ones(2),
                col_input=np.ones(2),
                candidate=np.zeros((3, 2), dtype=bool),
            )

    def test_mismatched_input_lengths_rejected(self):
        with pytest.raises(ValueError):
            WeightedGrid(
                frequency=np.zeros((2, 3)),
                row_input=np.ones(2),
                col_input=np.ones(2),
                candidate=np.zeros((2, 3), dtype=bool),
            )

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            make_grid([[-1, 0], [0, 0]])

    def test_nan_frequency_rejected(self):
        # NaN passes ``frequency < 0``; a plan on it died far from the cause.
        with pytest.raises(ValueError, match="frequency must be finite and non-negative"):
            make_grid([[np.nan, 1.0], [0.0, 1.0]], candidate=np.ones((2, 2), dtype=bool))

    def test_negative_row_input_rejected(self):
        # row_input = -1 cancels the column input: total_input was 0.0.
        with pytest.raises(ValueError, match="row_input must be finite and non-negative"):
            make_grid([[1.0]], row_input=[-1.0], col_input=[1.0])

    def test_infinite_frequency_rejected(self):
        with pytest.raises(ValueError, match="frequency must be finite and non-negative"):
            make_grid([[np.inf, 1.0]])

    def test_noncandidate_with_output_rejected(self):
        with pytest.raises(ValueError):
            WeightedGrid(
                frequency=np.array([[1.0]]),
                row_input=np.ones(1),
                col_input=np.ones(1),
                candidate=np.array([[False]]),
            )


class TestRegionMetrics:
    def test_region_output_matches_naive_sum(self):
        freq = np.arange(12, dtype=float).reshape(3, 4)
        grid = make_grid(freq, candidate=np.ones((3, 4), dtype=bool))
        region = GridRegion(1, 2, 1, 3)
        assert grid.region_output(region) == pytest.approx(freq[1:3, 1:4].sum())

    def test_region_input_is_semi_perimeter_sum(self):
        grid = make_grid(
            np.zeros((3, 3)), row_input=[1, 2, 4], col_input=[8, 16, 32],
            candidate=np.zeros((3, 3), dtype=bool),
        )
        region = GridRegion(0, 1, 2, 2)
        assert grid.region_input(region) == pytest.approx((1 + 2) + 32)

    def test_region_weight_uses_cost_model(self):
        grid = make_grid([[5.0]], row_input=[3], col_input=[4])
        fn = WeightFunction(input_cost=2.0, output_cost=0.5)
        assert grid.region_weight(GridRegion(0, 0, 0, 0), fn) == pytest.approx(
            2.0 * 7 + 0.5 * 5
        )

    def test_candidate_count(self):
        grid = make_grid([[1, 0, 2], [0, 0, 3]])
        assert grid.candidate_count(GridRegion(0, 1, 0, 2)) == 3
        assert grid.candidate_count(GridRegion(0, 0, 0, 0)) == 1
        assert grid.candidate_count(GridRegion(1, 1, 0, 1)) == 0

    def test_max_cell_weight_candidates_only(self):
        grid = make_grid(
            [[0.0, 0.0], [0.0, 9.0]],
            row_input=[100, 1],
            col_input=[100, 1],
            candidate=[[False, False], [False, True]],
        )
        fn = WeightFunction(1.0, 1.0)
        # Unrestricted max is the heavy non-candidate corner (200); restricted
        # to candidates it is the 9-output cell (2 + 9).
        assert grid.max_cell_weight(fn) == pytest.approx(200.0)
        assert grid.max_cell_weight(fn, candidates_only=True) == pytest.approx(11.0)

    def test_max_cell_weight_is_the_heaviest_single_cell_region(self):
        grid = band_grid(6, beta=6.0, seed=1)
        fn = WeightFunction(1.0, 0.3)
        cells = [GridRegion(row, row, col, col)
                 for row in range(grid.num_rows) for col in range(grid.num_cols)]
        assert grid.max_cell_weight(fn) == pytest.approx(
            max(grid.region_weight(cell, fn) for cell in cells)
        )
        assert grid.max_cell_weight(fn, candidates_only=True) == pytest.approx(
            max(grid.region_weight(cell, fn) for cell in cells
                if grid.candidate[cell.row_lo, cell.col_lo])
        )

    def test_max_cell_weight_no_candidates(self):
        grid = make_grid(np.zeros((2, 2)), candidate=np.zeros((2, 2), dtype=bool))
        assert grid.max_cell_weight(WeightFunction(), candidates_only=True) == 0.0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_prefix_sums_agree_with_naive_sums(self, seed):
        grid = band_grid(7, beta=8.0, seed=seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            r1, r2 = sorted(rng.integers(0, grid.num_rows, size=2))
            c1, c2 = sorted(rng.integers(0, grid.num_cols, size=2))
            region = GridRegion(int(r1), int(r2), int(c1), int(c2))
            naive = grid.frequency[r1 : r2 + 1, c1 : c2 + 1].sum()
            assert grid.region_output(region) == pytest.approx(naive)
            naive_input = (
                grid.row_input[r1 : r2 + 1].sum() + grid.col_input[c1 : c2 + 1].sum()
            )
            assert grid.region_input(region) == pytest.approx(naive_input)


class TestCandidateStructure:
    def test_row_candidate_span(self):
        grid = make_grid([[0, 1, 1, 0], [0, 0, 0, 0], [1, 1, 0, 0]])
        assert grid.row_candidate_span(0) == (1, 2)
        assert grid.row_candidate_span(1) is None
        assert grid.row_candidate_span(2) == (0, 1)

    def test_band_grid_is_monotonic(self):
        grid = band_grid(10, beta=10.0, seed=3)
        assert grid.is_monotonic()

    def test_non_monotonic_detected(self):
        # Candidates on both ends of a row with a gap in the middle.
        grid = make_grid([[1, 0, 1], [0, 1, 0], [0, 0, 0]])
        assert not grid.is_monotonic()

    def test_anti_diagonal_band_is_monotonic(self):
        # Candidate spans may move in either consistent direction.
        candidate = np.array(
            [[False, False, True], [False, True, False], [True, False, False]]
        )
        grid = make_grid(candidate.astype(float), candidate=candidate)
        assert grid.is_monotonic()

    def test_full_region_covers_grid(self):
        grid = band_grid(5, beta=3.0)
        region = grid.full_region()
        assert region == GridRegion(0, grid.num_rows - 1, 0, grid.num_cols - 1)


class TestMinimalCandidateRectangle:
    def test_shrinks_to_candidates(self):
        grid = make_grid(
            [
                [0, 0, 0, 0],
                [0, 1, 1, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 0],
            ]
        )
        minimal = grid.minimal_candidate_rectangle(grid.full_region())
        assert minimal == GridRegion(1, 2, 1, 2)

    def test_none_when_no_candidates(self):
        grid = make_grid(np.zeros((3, 3)), candidate=np.zeros((3, 3), dtype=bool))
        assert grid.minimal_candidate_rectangle(grid.full_region()) is None

    def test_respects_query_bounds(self):
        grid = make_grid(
            [
                [1, 0, 0],
                [0, 0, 0],
                [0, 0, 1],
            ]
        )
        # Querying only the bottom-right quadrant must not report the (0, 0)
        # candidate.
        minimal = grid.minimal_candidate_rectangle(GridRegion(1, 2, 1, 2))
        assert minimal == GridRegion(2, 2, 2, 2)

    def test_caching_returns_same_result(self):
        grid = band_grid(6, beta=5.0, seed=2)
        region = grid.full_region()
        first = grid.minimal_candidate_rectangle(region)
        second = grid.minimal_candidate_rectangle(region)
        assert first == second

    @given(seed=st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_minimal_rectangle_contains_all_candidates_of_query(self, seed):
        grid = band_grid(6, beta=6.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        r1, r2 = sorted(rng.integers(0, grid.num_rows, size=2))
        c1, c2 = sorted(rng.integers(0, grid.num_cols, size=2))
        query = GridRegion(int(r1), int(r2), int(c1), int(c2))
        minimal = grid.minimal_candidate_rectangle(query)
        block = grid.candidate[r1 : r2 + 1, c1 : c2 + 1]
        if minimal is None:
            assert not block.any()
            return
        # Every candidate cell of the query lies inside the minimal rectangle.
        for row, col in zip(*np.nonzero(block)):
            assert minimal.contains_cell(int(row) + r1, int(col) + c1)
        # And the minimal rectangle never leaves the query.
        assert minimal.row_lo >= query.row_lo and minimal.row_hi <= query.row_hi
        assert minimal.col_lo >= query.col_lo and minimal.col_hi <= query.col_hi
