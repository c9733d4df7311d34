"""Tests for the tiling algorithms (BSP and MonotonicBSP) and regionalization."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bsp import bsp_partition
from repro.core.grid import WeightedGrid
from repro.core.monotonic_bsp import (
    enumerate_minimal_candidate_rectangles,
    monotonic_bsp_partition,
    monotonic_bsp_tiling,
)
from repro.core.region import GridRegion
from repro.core.regionalization import regionalize
from repro.core.tiling_tables import TilingTables
from reference_validation import validate_grid_regions
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition


def band_grid(size: int, beta: float, seed: int = 0) -> WeightedGrid:
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


def empty_grid(size: int = 4) -> WeightedGrid:
    return WeightedGrid(
        frequency=np.zeros((size, size)),
        row_input=np.ones(size),
        col_input=np.ones(size),
        candidate=np.zeros((size, size), dtype=bool),
    )


UNIT = WeightFunction(1.0, 1.0)


class TestBSP:
    def test_covers_all_candidates_exactly_once(self):
        grid = band_grid(8, beta=10.0, seed=1)
        delta = 0.3 * UNIT.weight(grid.total_input, grid.total_output)
        result = bsp_partition(grid, UNIT, delta)
        coverage = validate_grid_regions(grid, result.regions)
        assert coverage.is_valid, coverage.summary()

    def test_respects_delta_when_feasible(self):
        grid = band_grid(8, beta=10.0, seed=2)
        delta = max(
            grid.max_cell_weight(UNIT, candidates_only=True),
            0.4 * UNIT.weight(grid.total_input, grid.total_output),
        )
        result = bsp_partition(grid, UNIT, delta)
        assert result.max_region_weight <= delta + 1e-9
        for region in result.regions:
            assert grid.region_weight(region, UNIT) <= delta + 1e-9

    def test_large_delta_single_region(self):
        grid = band_grid(6, beta=8.0, seed=3)
        delta = UNIT.weight(grid.total_input, grid.total_output) + 1
        result = bsp_partition(grid, UNIT, delta)
        assert result.num_regions == 1

    def test_small_delta_more_regions(self):
        grid = band_grid(6, beta=8.0, seed=4)
        loose = UNIT.weight(grid.total_input, grid.total_output)
        tight = max(
            grid.max_cell_weight(UNIT, candidates_only=True), loose / 10
        )
        loose_result = bsp_partition(grid, UNIT, loose)
        tight_result = bsp_partition(grid, UNIT, tight)
        assert tight_result.num_regions >= loose_result.num_regions

    def test_empty_grid_yields_no_regions(self):
        result = bsp_partition(empty_grid(), UNIT, delta=10.0)
        assert result.regions == []
        assert result.max_region_weight == 0.0

    def test_refuses_large_grids(self):
        grid = band_grid(30, beta=40.0, seed=5)
        with pytest.raises(ValueError):
            bsp_partition(grid, UNIT, delta=1e9, max_grid_size=28)

    def test_regions_are_minimal_candidate_rectangles(self):
        grid = band_grid(8, beta=10.0, seed=6)
        delta = 0.3 * UNIT.weight(grid.total_input, grid.total_output)
        result = bsp_partition(grid, UNIT, delta)
        for region in result.regions:
            assert grid.minimal_candidate_rectangle(region) == region


class TestMonotonicBSP:
    def test_covers_all_candidates_exactly_once(self):
        grid = band_grid(12, beta=15.0, seed=1)
        delta = 0.25 * UNIT.weight(grid.total_input, grid.total_output)
        delta = max(delta, grid.max_cell_weight(UNIT, candidates_only=True))
        result = monotonic_bsp_partition(grid, UNIT, delta)
        coverage = validate_grid_regions(grid, result.regions)
        assert coverage.is_valid, coverage.summary()

    def test_matches_baseline_bsp_region_count(self):
        for seed in range(5):
            grid = band_grid(7, beta=9.0, seed=seed)
            delta = max(
                grid.max_cell_weight(UNIT, candidates_only=True),
                0.3 * UNIT.weight(grid.total_input, grid.total_output),
            )
            baseline = bsp_partition(grid, UNIT, delta)
            monotonic = monotonic_bsp_partition(grid, UNIT, delta)
            # Both solve the same dynamic program, so the minimum number of
            # regions must agree (the chosen splits may differ).
            assert monotonic.num_regions == baseline.num_regions
            assert monotonic.max_region_weight <= delta + 1e-9

    def test_evaluates_fewer_rectangles_than_baseline(self):
        grid = band_grid(10, beta=12.0, seed=7)
        delta = max(
            grid.max_cell_weight(UNIT, candidates_only=True),
            0.3 * UNIT.weight(grid.total_input, grid.total_output),
        )
        baseline = bsp_partition(grid, UNIT, delta)
        monotonic = monotonic_bsp_partition(grid, UNIT, delta)
        assert monotonic.rectangles_evaluated < baseline.rectangles_evaluated

    def test_empty_grid(self):
        result = monotonic_bsp_partition(empty_grid(), UNIT, delta=5.0)
        assert result.regions == []

    @given(seed=st.integers(0, 300), fraction=st.floats(0.15, 0.8))
    @settings(max_examples=25, deadline=None)
    def test_valid_cover_property(self, seed, fraction):
        grid = band_grid(9, beta=12.0, seed=seed)
        if grid.num_candidate_cells == 0:
            return
        delta = max(
            grid.max_cell_weight(UNIT, candidates_only=True),
            fraction * UNIT.weight(grid.total_input, grid.total_output),
        )
        result = monotonic_bsp_partition(grid, UNIT, delta)
        coverage = validate_grid_regions(grid, result.regions)
        assert coverage.is_valid, coverage.summary()
        assert result.max_region_weight <= delta + 1e-9


@pytest.mark.parametrize("tiling", [monotonic_bsp_partition, bsp_partition],
                         ids=["monotonic", "baseline"])
def test_a_nan_threshold_is_refused_by_name(tiling):
    """Nothing compares below NaN (``-inf <= nan`` is false), so not even a
    single cell is a leaf: both tilings refuse the threshold, naming it,
    where they used to fail on an empty ``max`` or a missing rectangle."""
    index = np.arange(4)
    candidate = np.abs(index[:, None] - index[None, :]) <= 1
    grid = WeightedGrid(candidate.astype(np.float64), np.ones(4), np.ones(4), candidate)
    with pytest.raises(ValueError, match="delta is nan"):
        tiling(grid, UNIT, float("nan"))
    with pytest.raises(ValueError, match="delta is nan"):
        tiling(empty_grid(), UNIT, float("nan"))


class TestRecursionLimitIsNeverTouched:
    """The DP's depth grows with rows + columns; its stack must be its own.

    Raising the interpreter's recursion limit is process-global: a restore in
    ``finally`` can land while a pipeline producer thread, or any caller
    thread, is deeper than the old limit.
    """

    @pytest.fixture(autouse=True)
    def forbid_setrecursionlimit(self, monkeypatch):
        def refuse(limit):
            raise AssertionError(f"sys.setrecursionlimit({limit}) called")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)

    def test_single_row_of_600_cells(self):
        # Only rectangles reaching the last, heavy column exceed delta, so the
        # DP descends through [k..599] for every k: 599 nested splits, past
        # the default limit of 1000 frames for a DP that recursed.
        cols = 600
        col_input = np.ones(cols)
        col_input[-1] = 10_000.0
        grid = WeightedGrid(
            frequency=np.zeros((1, cols)),
            row_input=np.ones(1),
            col_input=col_input,
            candidate=np.ones((1, cols), dtype=bool),
        )
        result = monotonic_bsp_partition(grid, UNIT, delta=5_000.0)
        assert result.regions == [GridRegion(0, 0, cols - 1, cols - 1),
                                  GridRegion(0, 0, 0, cols - 2)]
        assert validate_grid_regions(grid, result.regions).is_valid

    def test_diagonal_band_150_by_150(self):
        size = 150
        index = np.arange(size)
        candidate = np.abs(index[:, None] - index[None, :]) <= 1
        grid = WeightedGrid(
            frequency=candidate.astype(np.float64),
            row_input=np.ones(size),
            col_input=np.ones(size),
            candidate=candidate,
        )
        delta = UNIT.weight(grid.total_input, grid.total_output) / 1.5
        result = monotonic_bsp_partition(grid, UNIT, delta)
        coverage = validate_grid_regions(grid, result.regions)
        assert coverage.is_valid, coverage.summary()
        assert result.max_region_weight <= delta
        assert result.num_regions == 2


class TestEnumerateMinimalCandidateRectangles:
    def test_lemma_3_4_corner_property(self):
        grid = band_grid(6, beta=8.0, seed=2)
        rectangles = enumerate_minimal_candidate_rectangles(grid)
        for rect in rectangles:
            assert grid.candidate[rect.row_lo, rect.col_lo] or grid.candidate[
                rect.row_lo, rect.col_hi
            ]
            assert grid.candidate[rect.row_hi, rect.col_hi] or grid.candidate[
                rect.row_hi, rect.col_lo
            ]

    def test_count_is_quadratic_in_candidates(self):
        grid = band_grid(6, beta=8.0, seed=3)
        n_candidates = grid.num_candidate_cells
        rectangles = enumerate_minimal_candidate_rectangles(grid)
        assert len(rectangles) <= n_candidates * n_candidates

    def test_sorted_by_semi_perimeter(self):
        grid = band_grid(6, beta=8.0, seed=4)
        rectangles = enumerate_minimal_candidate_rectangles(grid)
        perims = [r.semi_perimeter for r in rectangles]
        assert perims == sorted(perims)

    def test_contains_every_single_candidate_cell(self):
        grid = band_grid(5, beta=7.0, seed=5)
        rectangles = set(enumerate_minimal_candidate_rectangles(grid))
        for row, col in zip(*np.nonzero(grid.candidate)):
            assert GridRegion(int(row), int(row), int(col), int(col)) in rectangles

    def test_empty_grid(self):
        assert enumerate_minimal_candidate_rectangles(empty_grid()) == []

    @pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
    @pytest.mark.parametrize("shape", ["diagonal", "band"])
    def test_contains_every_rectangle_the_dp_reaches(self, descending, shape):
        """Lemma 3.4 in either span direction.  At delta = 0 every rectangle
        of two or more cells splits, so the tables meet every minimal
        candidate rectangle the DP can reach; the enumeration lists them all
        (descending spans define theirs by upper-right and lower-left
        corners).  The descending diagonal is the 8 x 8 anti-diagonal band."""
        if shape == "diagonal":
            index = np.arange(8)
            candidate = np.abs(index[:, None] - index[None, :]) <= 1
            grid = WeightedGrid(candidate.astype(np.float64), np.ones(8), np.ones(8),
                                candidate)
        else:
            grid = band_grid(7, beta=9.0, seed=6)
        if descending:
            grid = WeightedGrid(grid.frequency[:, ::-1].copy(), grid.row_input,
                                grid.col_input[::-1].copy(), grid.candidate[:, ::-1].copy())
        assert grid.span_direction() == (-1 if descending else 1)
        tables = TilingTables(grid, UNIT, 0.0)
        monotonic_bsp_tiling(tables, 0.0)
        reached = {GridRegion(*rect) for rect in tables.rects}
        enumerated = enumerate_minimal_candidate_rectangles(grid)
        assert len(set(enumerated)) == len(enumerated)
        assert reached <= set(enumerated), len(reached - set(enumerated))
        if shape == "diagonal":
            assert len(reached) == 246


class TestRegionalize:
    def test_respects_machine_budget(self):
        grid = band_grid(12, beta=15.0, seed=1)
        for machines in (2, 4, 8):
            result = regionalize(grid, machines, UNIT)
            assert result.num_regions <= machines
            coverage = validate_grid_regions(grid, result.regions)
            assert coverage.is_valid, coverage.summary()

    def test_more_machines_never_hurts(self):
        grid = band_grid(14, beta=18.0, seed=2)
        weights = [
            regionalize(grid, machines, UNIT).max_region_weight
            for machines in (1, 2, 4, 8)
        ]
        # Maximum region weight is non-increasing in the machine budget, up to
        # the binary-search tolerance.
        for smaller, larger in zip(weights, weights[1:]):
            assert larger <= smaller * 1.05 + 1e-9

    def test_single_machine_single_region(self):
        grid = band_grid(8, beta=10.0, seed=3)
        result = regionalize(grid, 1, UNIT)
        assert result.num_regions == 1
        root = grid.minimal_candidate_rectangle(grid.full_region())
        assert result.max_region_weight == pytest.approx(
            grid.region_weight(root, UNIT)
        )

    def test_max_weight_at_least_lower_bound(self):
        grid = band_grid(10, beta=12.0, seed=4)
        machines = 4
        result = regionalize(grid, machines, UNIT)
        lower = max(
            grid.max_cell_weight(UNIT, candidates_only=True),
            UNIT.weight(grid.total_input, grid.total_output) / machines,
        )
        # No partitioning into <= J rectangular regions that each pay their
        # own semi-perimeter can beat the no-replication lower bound by more
        # than the search tolerance.
        assert result.max_region_weight >= 0.5 * lower

    def test_empty_grid(self):
        result = regionalize(empty_grid(), 4, UNIT)
        assert result.regions == []
        assert result.max_region_weight == 0.0
        assert result.search_steps == 0

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            regionalize(band_grid(5, 6.0), 0, UNIT)

    def test_estimate_tracks_regions(self):
        grid = band_grid(10, beta=12.0, seed=6)
        result = regionalize(grid, 4, UNIT)
        achieved = max(grid.region_weight(r, UNIT) for r in result.regions)
        assert result.max_region_weight == pytest.approx(achieved)
