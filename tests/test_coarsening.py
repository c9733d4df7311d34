"""Tests for stage 2 of the histogram algorithm (repro.core.coarsening)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streaming_harness import interpreter_calls

from repro.core import coarsening
from repro.core.coarsening import MAX_ITERATIONS, coarsen, coarsened_size
from repro.core.grid import WeightedGrid, smallest_feasible
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition


def band_grid(size: int, beta: float, seed: int = 0,
              heavy_cell: tuple[int, int] | None = None) -> WeightedGrid:
    rng = np.random.default_rng(seed)
    boundaries = np.sort(rng.uniform(0, 5 * size, size=size + 1))
    condition = BandJoinCondition(beta=beta)
    candidate = condition.candidate_grid(
        boundaries[:-1], boundaries[1:], boundaries[:-1], boundaries[1:]
    )
    frequency = np.where(candidate, rng.integers(0, 10, size=(size, size)), 0)
    if heavy_cell is not None and candidate[heavy_cell]:
        frequency[heavy_cell] = 500
    return WeightedGrid(
        frequency=frequency.astype(np.float64),
        row_input=rng.integers(1, 10, size=size).astype(np.float64),
        col_input=rng.integers(1, 10, size=size).astype(np.float64),
        candidate=candidate,
    )


class TestCoarsenedSize:
    def test_paper_default_is_two_j(self):
        assert coarsened_size(num_machines=8, grid_size=1000) == 16

    def test_clamped_to_grid_size(self):
        assert coarsened_size(num_machines=8, grid_size=10) == 10

    def test_optional_cap(self):
        assert coarsened_size(num_machines=32, grid_size=1000, max_size=20) == 20

    def test_minimum_one(self):
        assert coarsened_size(num_machines=1, grid_size=1) == 1

    def test_invalid_machines(self):
        with pytest.raises(ValueError):
            coarsened_size(num_machines=0, grid_size=10)


class TestCoarsen:
    def test_output_shape(self):
        grid = band_grid(32, beta=40.0, seed=1)
        result = coarsen(grid, 8, weight_fn=WeightFunction())
        assert result.grid.num_rows <= 8
        assert result.grid.num_cols <= 8
        assert len(result.row_groups) == result.grid.num_rows + 1
        assert len(result.col_groups) == result.grid.num_cols + 1

    def test_group_boundaries_cover_the_grid(self):
        grid = band_grid(24, beta=30.0, seed=2)
        result = coarsen(grid, 6)
        assert result.row_groups[0] == 0
        assert result.row_groups[-1] == grid.num_rows
        assert result.col_groups[0] == 0
        assert result.col_groups[-1] == grid.num_cols
        assert np.all(np.diff(result.row_groups) > 0)
        assert np.all(np.diff(result.col_groups) > 0)

    def test_totals_preserved(self):
        grid = band_grid(20, beta=25.0, seed=3)
        result = coarsen(grid, 5)
        assert result.grid.total_output == pytest.approx(grid.total_output)
        assert result.grid.total_input == pytest.approx(grid.total_input)

    def test_candidate_cells_propagate(self):
        grid = band_grid(20, beta=25.0, seed=4)
        result = coarsen(grid, 5)
        # A coarse cell is a candidate iff it contains at least one fine
        # candidate, so the number of coarse candidates is at least 1 and the
        # coarse candidate mask covers all fine candidates.
        assert result.grid.num_candidate_cells >= 1
        fine_candidates = np.argwhere(grid.candidate)
        row_of = np.searchsorted(result.row_groups, fine_candidates[:, 0], side="right") - 1
        col_of = np.searchsorted(result.col_groups, fine_candidates[:, 1], side="right") - 1
        assert np.all(result.grid.candidate[row_of, col_of])

    def test_max_cell_weight_reported_matches_grid(self):
        grid = band_grid(16, beta=20.0, seed=5)
        weight_fn = WeightFunction(1.0, 0.5)
        result = coarsen(grid, 4, weight_fn=weight_fn)
        assert result.max_cell_weight == pytest.approx(
            result.grid.max_cell_weight(weight_fn, candidates_only=True)
        )

    def test_refinement_no_worse_than_even_grid(self):
        """The iterative refinement never loses to the naive even split."""
        weight_fn = WeightFunction(1.0, 1.0)
        grid = band_grid(32, beta=60.0, seed=6, heavy_cell=(3, 4))
        result = coarsen(grid, 8, weight_fn=weight_fn)

        even_rows = np.linspace(0, grid.num_rows, 9).round().astype(int)
        even_cols = np.linspace(0, grid.num_cols, 9).round().astype(int)
        freq = np.add.reduceat(
            np.add.reduceat(grid.frequency, even_rows[:-1], axis=0),
            even_cols[:-1], axis=1,
        )
        cand = np.add.reduceat(
            np.add.reduceat(grid.candidate.astype(float), even_rows[:-1], axis=0),
            even_cols[:-1], axis=1,
        ) > 0
        even_grid = WeightedGrid(
            frequency=freq,
            row_input=np.add.reduceat(grid.row_input, even_rows[:-1]),
            col_input=np.add.reduceat(grid.col_input, even_cols[:-1]),
            candidate=cand,
        )
        even_weight = even_grid.max_cell_weight(weight_fn, candidates_only=True)
        assert result.max_cell_weight <= even_weight + 1e-9

    def test_single_group_degenerates_gracefully(self):
        grid = band_grid(10, beta=15.0, seed=7)
        result = coarsen(grid, 1)
        assert result.grid.shape == (1, 1)
        assert result.grid.total_output == pytest.approx(grid.total_output)

    def test_one_group_survives_a_sweep_that_rounds_above_the_total(self):
        """Summed row by row, the block lands one rounding step above the
        total weight the threshold search stops at; one group is still the
        only cover, and coarsening returns it instead of raising."""
        grid = WeightedGrid(
            frequency=np.array([[0.0, 0.2], [0.8, 0.2]]),
            row_input=np.array([0.2, 0.3]),
            col_input=np.array([0.6, 0.8]),
            candidate=np.ones((2, 2), dtype=bool),
        )
        result = coarsen(grid, 1, weight_fn=WeightFunction(1.0, 0.2))
        assert result.row_groups.tolist() == result.col_groups.tolist() == [0, 2]
        assert result.grid.shape == (1, 1)

    def test_group_counts_must_be_positive(self):
        """Zero or negative groups raise, naming the count; only ``None``
        means "as many column groups as row groups"."""
        grid = band_grid(8, beta=10.0, seed=10)
        for rows, cols, name in ((0, None, "num_row_groups"), (-2, 3, "num_row_groups"),
                                 (3, 0, "num_col_groups"), (3, -1, "num_col_groups")):
            with pytest.raises(ValueError, match=name):
                coarsen(grid, rows, cols)
        default, explicit = coarsen(grid, 3), coarsen(grid, 3, 3)
        assert default.row_groups.tolist() == explicit.row_groups.tolist()
        assert default.col_groups.tolist() == explicit.col_groups.tolist()

    def test_requesting_more_groups_than_rows_clamps(self):
        grid = band_grid(5, beta=10.0, seed=8)
        result = coarsen(grid, 50)
        assert result.grid.num_rows <= 5
        assert result.grid.num_cols <= 5

    def test_iterations_reported(self):
        grid = band_grid(16, beta=20.0, seed=9)
        result = coarsen(grid, 4)
        assert 1 <= result.iterations <= MAX_ITERATIONS

    @given(seed=st.integers(0, 200), groups=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_coarsening_preserves_totals_property(self, seed, groups):
        grid = band_grid(18, beta=25.0, seed=seed)
        result = coarsen(grid, groups)
        assert result.grid.total_output == pytest.approx(grid.total_output)
        assert result.grid.total_input == pytest.approx(grid.total_input)
        # Coarse max cell weight can never be below the finest cell weight of
        # a candidate (aggregation only adds weight).
        fine_max = grid.max_cell_weight(WeightFunction(), candidates_only=True)
        assert result.grid.max_cell_weight(
            WeightFunction(), candidates_only=True
        ) >= fine_max - 1e-9


def test_a_threshold_probe_makes_the_same_calls_at_any_sample_size():
    """One threshold probe of coarsening's search (``feasible``) is one kernel
    call: it makes as many interpreter calls at n_s = 1,024 as at 128.  ``-s``
    prints them."""
    calls = {}
    for size in (128, 1_024):
        probes = []

        def measured(feasible, low, high, max_midpoints):
            # The probe at the threshold the search settles on: the
            # sweep that closes the most groups.
            found = smallest_feasible(feasible, low, high, max_midpoints)
            if not probes:
                probes.append(interpreter_calls(feasible, found[0])[1])
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coarsening, "smallest_feasible", measured)
            coarsen(band_grid(size, beta=20.0, seed=11), 16)
        calls[size] = probes[0]
    print("coarsening probe: " + ", ".join(f"n_s {size:,} {calls[size]} calls" for size in calls))
    assert calls[128] == calls[1_024]
