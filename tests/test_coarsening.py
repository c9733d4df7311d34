"""Tests for stage 2 of the histogram algorithm (repro.core.coarsening)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_planner import band_search_ends
from streaming_harness import interpreter_calls

from repro.core.coarsening import MAX_ITERATIONS, MAX_MIDPOINTS, coarsen, coarsened_size
from repro.core.grid import SEARCH_TOLERANCE, BandGrid, WeightedGrid
from repro.core.sample_matrix import build_sample_matrix
from repro.core.weights import BAND_JOIN_WEIGHTS, WeightFunction
from repro.joins import native
from repro.joins.conditions import BandJoinCondition
from repro.sampling.equidepth import EquiDepthHistogram
from repro.sampling.stream_sample import JoinOutputSample


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


#: The interpreter calls one coarsen makes, whatever the grid's size: the
#: searches' ends, one kernel call, one WeightedGrid (74 measured; 583 while
#: each threshold probe and each pass's aggregates were calls of their own).
COARSEN_CALLS_BOUND = 81


def test_one_coarsen_makes_the_same_few_calls_at_any_sample_size():
    """All of coarsening's search is one kernel call: one coarsen of a band
    (the sample matrix's form) makes as many interpreter calls at n_s = 128
    as at 1,024, J = 16 or 6, on a band join's sample matrix and on an
    inequality's, and no more than the bound.  ``-s`` prints them."""
    calls = {}
    for size in (128, 1_024):
        for machines in (16, 6):
            grid = BandGrid.from_dense(band_grid(size, beta=20.0, seed=11))
            _, calls[size, machines, "band"] = interpreter_calls(
                coarsen, grid, 2 * machines, weight_fn=BAND_JOIN_WEIGHTS)
        upper = np.triu(np.ones((size // 8, size // 8), dtype=bool))
        rng = np.random.default_rng(size)
        triangle = BandGrid.from_dense(WeightedGrid(
            np.where(upper, rng.random(upper.shape), 0.0), rng.random(size // 8),
            rng.random(size // 8), upper))
        _, calls[size, 12, "inequality"] = interpreter_calls(
            coarsen, triangle, 24, weight_fn=BAND_JOIN_WEIGHTS)
    print("coarsen: " + ", ".join(f"{shape} n_s {size:,} J {machines}: {count} calls"
                                  for (size, machines, shape), count in calls.items()))
    assert len(set(calls.values())) == 1
    assert max(calls.values()) <= COARSEN_CALLS_BOUND


# ----------------------------------------------------------------------
# The kernel's sums against numpy's reduceat
# ----------------------------------------------------------------------
#: Segment lengths around numpy's pairwise-sum edges: its 8 lanes and its
#: 128-value blocks, and one long enough to split several times.
SEGMENT_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 4_096]


@st.composite
def sparse_lines(draw):
    """A lines x length matrix, mostly zeros, its length made of segments.

    Values span ten decades, so the order they are added in shows in the
    last bits; a line and a segment are all zero.
    """
    lengths = draw(st.lists(st.sampled_from(SEGMENT_LENGTHS) | st.integers(1, 300),
                            min_size=1, max_size=4))
    lines = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = sum(lengths)
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    values = rng.random((lines, size)) * 10.0 ** rng.integers(-3, 7, size=(lines, size))
    dense = np.where(rng.random((lines, size)) < density, values, 0.0)
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    dense[rng.integers(0, lines)] = 0.0
    group = rng.integers(0, len(lengths))
    dense[:, bounds[group]:bounds[group + 1]] = 0.0
    return dense


def same_bits(ours: np.ndarray, expected: np.ndarray) -> bool:
    expected = np.ascontiguousarray(expected)
    return ours.shape == expected.shape and ours.tobytes() == expected.tobytes()


def sums_grid(dense: np.ndarray) -> WeightedGrid:
    """A grid whose every cell is a candidate carrying ``dense``, and whose
    inputs span ten decades and hold zeros as well."""
    rng = np.random.default_rng(dense.size)
    rows, cols = dense.shape
    row_input = rng.random(rows) * 10.0 ** rng.integers(-3, 7, size=rows)
    col_input = np.where(rng.random(cols) < 0.1, 0.0,
                         rng.random(cols) * 10.0 ** rng.integers(-3, 7, size=cols))
    return WeightedGrid(dense, row_input, col_input, np.ones(dense.shape, dtype=bool))


@given(dense=sparse_lines(), transpose=st.booleans(), groups=st.integers(1, 5))
@example(dense=np.zeros((2, 129)), transpose=False, groups=1)
@example(dense=np.zeros((2, 129)), transpose=True, groups=1)
@settings(max_examples=200, deadline=None)
def test_the_coarse_grid_is_numpys_reduceat_bit_for_bit(dense, transpose, groups):
    """A coarse grid (over a lines x length matrix or its transpose, so the
    long sums run along the columns or down the rows) equals the dense
    ``np.add.reduceat`` down the rows, then along the columns, at its own
    bounds, to the last bit, and so do its inputs; one group per axis sums
    each whole axis.  A sequential sum misses some of these."""
    dense = dense.T.copy() if transpose else dense
    grid = sums_grid(dense)
    for rows, cols in ((1, 1), (groups, groups), (groups, 1), (1, groups)):
        result = coarsen(grid, rows, cols)
        row_starts, col_starts = result.row_groups[:-1], result.col_groups[:-1]
        by_rows = np.add.reduceat(dense, row_starts, axis=0)
        assert same_bits(result.grid.frequency, np.add.reduceat(by_rows, col_starts, axis=1))
        assert same_bits(result.grid.row_input, np.add.reduceat(grid.row_input, row_starts))
        assert same_bits(result.grid.col_input, np.add.reduceat(grid.col_input, col_starts))
        assert result.grid.candidate.all()


@st.composite
def segmented_lines(draw):
    """A lines x length matrix whose length is some equal segments, each as
    long as one of numpy's pairwise-sum edges, and their count.

    Values span ten decades; a line and a segment are all zero.
    """
    length = draw(st.sampled_from(SEGMENT_LENGTHS) | st.integers(1, 300))
    segments = draw(st.integers(1, 2 if length > 300 else 4))
    lines = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = segments * length
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    values = rng.random((lines, size)) * 10.0 ** rng.integers(-3, 7, size=(lines, size))
    dense = np.where(rng.random((lines, size)) < density, values, 0.0)
    dense[rng.integers(0, lines)] = 0.0
    zeroed = rng.integers(0, segments) * length
    dense[:, zeroed : zeroed + length] = 0.0
    return dense, segments


@given(case=segmented_lines(), transpose=st.booleans(), across=st.integers(1, 4))
@example(case=(np.ones((2, 2 * 129)), 2), transpose=True, across=2)
@settings(max_examples=200, deadline=None)
def test_the_starting_grid_sums_its_groups_as_reduceat_does(case, transpose, across):
    """With no pass to run, ``native.coarsen`` returns its even starting
    grid: over lines of equal segments, one group a segment, so each group
    after the first starts at a nonzero multiple of a pairwise-sum edge's
    length.  Its frequencies and inputs equal ``np.add.reduceat`` at those
    bounds to the last bit, with the long sums along the columns or down
    the rows."""
    dense, segments = case
    across = min(across, dense.shape[0])
    row_groups, col_groups = (segments, across) if transpose else (across, segments)
    if transpose:
        dense = dense.T.copy()
    grid = sums_grid(dense)
    band = BandGrid.from_dense(grid)
    weight_fn = WeightFunction()
    found = native.coarsen(
        band.row_input, band.col_input, band.run_ptr, band.run_lo, band.run_hi,
        band.entry_ptr, band.entry_col, band.entry_value, weight_fn.input_cost,
        weight_fn.output_cost, row_groups, col_groups, *band_search_ends(band, weight_fn),
        0, MAX_MIDPOINTS, SEARCH_TOLERANCE,
    )
    row_bounds, col_bounds, frequency, row_input, col_input, candidate, _, passes = found
    assert passes == 0
    length = dense.shape[0 if transpose else 1] // segments
    long_bounds = row_bounds if transpose else col_bounds
    assert long_bounds.tolist() == list(range(0, segments * length + 1, length))
    by_rows = np.add.reduceat(dense, row_bounds[:-1], axis=0)
    assert same_bits(frequency, np.add.reduceat(by_rows, col_bounds[:-1], axis=1))
    assert same_bits(row_input, np.add.reduceat(grid.row_input, row_bounds[:-1]))
    assert same_bits(col_input, np.add.reduceat(grid.col_input, col_bounds[:-1]))
    assert candidate.all()


def test_a_negative_zero_input_sums_as_numpy_sums_it():
    """A column input of -0.0 passes as non-negative; numpy's pairwise sum
    starts from -0.0, so a group of them sums to -0.0, as the kernel's."""
    col_input = np.full(20, -0.0)
    col_input[0] = 1.0
    grid = WeightedGrid(np.zeros((2, 20)), np.ones(2), col_input, np.ones((2, 20), dtype=bool))
    for cols in (2, 3, 20):
        result = coarsen(grid, 1, cols)
        assert same_bits(result.grid.col_input,
                         np.add.reduceat(col_input, result.col_groups[:-1]))


# ----------------------------------------------------------------------
# The band sample matrix at scale
# ----------------------------------------------------------------------
def band_sample_matrix(size: int, seed: int = 0):
    """MS over ``size`` unit buckets per side, band 1, two sampled pairs per row."""
    histogram = EquiDepthHistogram(np.arange(size + 1, dtype=np.float64), 10 * size)
    rng = np.random.default_rng(seed)
    keys1 = rng.uniform(1.0, size - 1.0, 2 * size)
    keys2 = keys1 + rng.uniform(-1.0, 1.0, keys1.size)
    sample = JoinOutputSample(np.column_stack([keys1, keys2]), total_output=50 * size)
    return build_sample_matrix(histogram, histogram, sample, BandJoinCondition(beta=1.0))


#: The traced bound of a build and a coarsening at n_s = 32,768, J = 16
#: (about 55 MB: coarsening's n_s x n_c aggregates, 8.4 MB each, and the
#: spans search's 32 tested columns per row).  Dense, MS's frequency array
#: alone would be 32,768**2 * 8 bytes = 8.6 GB, and its mask 1.1 GB.
BAND_MEMORY_BOUND = 96 * 2**20


def test_a_band_sample_matrix_builds_and_coarsens_at_n_s_32768_in_bounded_memory():
    """Build and coarsen MS at n_s = 32,768 (J = 16, n_c = 32): no ``n_s x
    n_s`` array is ever made, so the traced peak stays under 96 MB.  ``-s``
    prints it."""
    size = 32_768
    tracemalloc.start()
    try:
        grid = band_sample_matrix(size).grid
        result = coarsen(grid, 32, weight_fn=BAND_JOIN_WEIGHTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"\nn_s {size:,}: {grid.num_candidate_cells:,} candidate cells, "
          f"{grid.entry_col.size:,} entries, traced peak {peak / 2**20:.1f} MB")
    assert grid.shape == (size, size)
    assert result.grid.shape == (32, 32)
    assert result.grid.total_output == pytest.approx(grid.total_output)
    assert peak < BAND_MEMORY_BOUND


def test_a_band_build_and_coarsen_make_the_same_calls_at_n_s_512_and_4096():
    """Building MS (spans, binning, the band) and coarsening it (its whole
    search, one kernel call) make as many
    interpreter calls at n_s = 512 as at 4,096: the spans are one kernel
    call and every per-row loop is numpy's or the kernel's.  ``-s`` prints
    the counts."""
    calls = {}
    for size in (512, 4_096):
        histogram = EquiDepthHistogram(np.arange(size + 1, dtype=np.float64), 10 * size)
        rng = np.random.default_rng(size)
        keys1 = rng.uniform(1.0, size - 1.0, 2 * size)
        sample = JoinOutputSample(
            np.column_stack([keys1, keys1 + rng.uniform(-1.0, 1.0, keys1.size)]), 50 * size
        )
        condition = BandJoinCondition(beta=1.0)
        matrix, build = interpreter_calls(
            build_sample_matrix, histogram, histogram, sample, condition
        )
        _, coarse = interpreter_calls(coarsen, matrix.grid, 16, weight_fn=BAND_JOIN_WEIGHTS)
        calls[size] = (build, coarse)
    print("band build, coarsen: " + ", ".join(
        f"n_s {size:,} {build} and {coarse} calls" for size, (build, coarse) in calls.items()))
    assert calls[512] == calls[4_096]
