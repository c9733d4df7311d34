"""Tests for stage 2 of the histogram algorithm (repro.core.coarsening)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streaming_harness import interpreter_calls

from repro.core import coarsening
from repro.core.coarsening import MAX_ITERATIONS, coarsen, coarsened_size
from repro.core.grid import WeightedGrid, smallest_feasible
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


# ----------------------------------------------------------------------
# The kernel's group sums against numpy's reduceat
# ----------------------------------------------------------------------
#: Segment lengths around numpy's pairwise-sum edges: its 8 lanes and its
#: 128-value blocks, and one long enough to split several times.
SEGMENT_LENGTHS = [1, 7, 8, 9, 127, 128, 129, 4_096]


@st.composite
def sparse_lines(draw):
    """A lines x length matrix, mostly zeros, and group bounds over its length.

    Values span ten decades, so the order they are added in shows in the
    last bits; some lines and some groups are all zero.
    """
    lengths = draw(st.lists(st.sampled_from(SEGMENT_LENGTHS) | st.integers(1, 300),
                            min_size=1, max_size=4))
    lines = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = sum(lengths)
    density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.5, 1.0]))
    values = rng.random((lines, size)) * 10.0 ** rng.integers(-3, 7, size=(lines, size))
    dense = np.where(rng.random((lines, size)) < density, values, 0.0)
    bounds = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    if lines:
        dense[rng.integers(0, lines)] = 0.0
        group = rng.integers(0, len(lengths))
        dense[:, bounds[group]:bounds[group + 1]] = 0.0
    return dense, bounds


def csr(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of a 2-D array, row by row: ``(ptr, columns, values)``."""
    rows, cols = np.nonzero(dense)
    ptr = np.searchsorted(rows, np.arange(dense.shape[0] + 1))
    return ptr, np.ascontiguousarray(cols), dense[rows, cols]


def same_bits(ours: np.ndarray, expected: np.ndarray) -> bool:
    expected = np.ascontiguousarray(expected)
    return ours.shape == expected.shape and ours.tobytes() == expected.tobytes()


@given(case=sparse_lines())
@example(case=(np.zeros((0, 9)), np.array([0, 9])))
@example(case=(np.zeros((2, 129)), np.array([0, 1, 129])))
@settings(max_examples=200, deadline=None)
def test_group_sums_are_numpys_reduceat_bit_for_bit(case):
    """``native.group_sums`` == ``np.add.reduceat`` along the groups on a
    C-ordered array, on the same values F-ordered (a transposed grid's
    view), and down the rows of the transpose (the coarse grid's row pass),
    to the last bit; a sequential sum misses some of these."""
    dense, bounds = case
    ours = native.group_sums(*csr(dense), bounds)
    assert ours.flags.c_contiguous
    starts = bounds[:-1]
    assert same_bits(ours, np.add.reduceat(dense, starts, axis=1))
    transposed = np.ascontiguousarray(dense.T)
    assert transposed.T.flags.f_contiguous or transposed.size == 0
    assert same_bits(ours, np.add.reduceat(transposed.T, starts, axis=1))
    assert same_bits(ours, np.add.reduceat(transposed, starts, axis=0).T)


def test_group_sums_refuse_what_they_cannot_sum():
    ptr, index, value = csr(np.array([[0.0, 2.0, 3.0], [1.0, 0.0, 0.0]]))
    bounds = np.array([0, 2, 3])
    assert native.group_sums(ptr, index, value, bounds).tolist() == [[2.0, 3.0], [1.0, 0.0]]
    with pytest.raises(TypeError, match="group_sums: ptr is int32, not int64"):
        native.group_sums(ptr.astype(np.int32), index, value, bounds)
    with pytest.raises(TypeError, match="group_sums: value is float32, not float64"):
        native.group_sums(ptr, index, value.astype(np.float32), bounds)
    not_one_csr = r"group_sums: ptr \(3,\), index \(3,\) and value \(2,\) are not one CSR"
    with pytest.raises(ValueError, match=not_one_csr):
        native.group_sums(ptr, index, value[:-1], bounds)
    with pytest.raises(ValueError, match=r"group_sums: bounds \(1,\) hold no group"):
        native.group_sums(ptr, index, value, bounds[:1])
    with pytest.raises(ValueError, match="group_sums: index is strided, not C-contiguous"):
        native.group_sums(ptr, np.repeat(index, 2)[::2], value, bounds)
    for bad in (dict(index=np.array([2, 1, 0])), dict(index=index + 1),
                dict(bounds=np.array([0, 2, 2, 3])), dict(bounds=np.array([1, 3])),
                dict(ptr=np.array([0, 2, 2]))):
        args = dict(ptr=ptr, index=index, value=value, bounds=bounds) | bad
        with pytest.raises(ValueError, match="group_sums: ptr does not run .* or range"):
            native.group_sums(**args)


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
    """Building MS (spans, binning, the band) and one refinement pass of
    coarsening (aggregates, the two sweeps, the coarse grid) make as many
    interpreter calls at n_s = 512 as at 4,096: the spans are one kernel
    call and every per-row loop is numpy's or the kernel's.  Each
    axis's threshold search is held to one probe here; one probe's own calls
    are pinned above.  ``-s`` prints the counts."""
    def one_probe(feasible, low, high, max_midpoints):
        return high, feasible(high), 1

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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coarsening, "smallest_feasible", one_probe)
            patch.setattr(coarsening, "MAX_ITERATIONS", 1)
            _, coarse = interpreter_calls(coarsen, matrix.grid, 16, weight_fn=BAND_JOIN_WEIGHTS)
        calls[size] = (build, coarse)
    print("band build, coarsen: " + ", ".join(
        f"n_s {size:,} {build} and {coarse} calls" for size, (build, coarse) in calls.items()))
    assert calls[512] == calls[4_096]
