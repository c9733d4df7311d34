"""Tests for stage 1 of the histogram algorithm (repro.core.sample_matrix)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_conditions import candidate_mask, reference
from reference_planner import (
    WeightedGrid,
    dense_grid,
    dense_sample_matrix,
    reference_coarsen,
)

from repro.core.coarsening import coarsen
from repro.core.grid import BandGrid
from repro.core.sample_matrix import (
    SampleMatrix,
    build_sample_matrix,
    candidate_cell_count,
    histogram_spans,
)
from repro.core.weights import WeightFunction
from repro.core.region import GridRegion
from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.joins.local import count_join_output
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index, build_equidepth_histogram
from repro.sampling.parallel_stream_sample import parallel_stream_sample
from repro.sampling.stream_sample import JoinOutputSample
from repro.sampling.sizes import sample_matrix_size


def make_histograms(keys1, keys2, ns):
    hist1 = build_equidepth_histogram(keys1, ns, len(keys1))
    hist2 = build_equidepth_histogram(keys2, ns, len(keys2))
    return hist1, hist2


def exact_output_sample(keys1, keys2, condition, size, seed=0):
    rng = np.random.default_rng(seed)
    sample, _ = parallel_stream_sample(keys1, keys2, condition, size, 1, rng)
    return sample


class TestCandidateMask:
    def test_outer_boundaries_open_to_infinity(self):
        condition = BandJoinCondition(beta=1.0)
        row_boundaries = np.array([0.0, 10.0, 20.0])
        col_boundaries = np.array([0.0, 10.0, 20.0])
        mask = candidate_mask(row_boundaries, col_boundaries, condition)
        # Every boundary bucket extends to +-inf, so edge cells are always
        # candidates towards the outside; the interior structure still follows
        # the band.
        assert mask.shape == (2, 2)
        assert mask.all()

    def test_interior_non_candidates_detected(self):
        condition = BandJoinCondition(beta=1.0)
        boundaries = np.array([0.0, 5.0, 50.0, 100.0, 200.0])
        mask = candidate_mask(boundaries, boundaries, condition)
        assert mask[1, 1]
        # Bucket [5, 50] against bucket [100, 200] is far outside the band.
        assert not mask[1, 3]
        assert not mask[3, 1]

    def test_candidate_cell_count_counts_mask(self):
        rng = np.random.default_rng(0)
        keys1 = rng.uniform(0, 1000, 500)
        keys2 = rng.uniform(0, 1000, 500)
        condition = BandJoinCondition(beta=5.0)
        hist1, hist2 = make_histograms(keys1, keys2, 16)
        count = candidate_cell_count(hist1, hist2, condition)
        mask = candidate_mask(hist1.boundaries, hist2.boundaries, condition)
        assert count == int(mask.sum())
        # A narrow band on a 16x16 grid is sparse but non-empty.
        assert 0 < count < 16 * 16


class TestBuildSampleMatrix:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.keys1 = rng.uniform(0, 2000, 3000)
        self.keys2 = rng.uniform(0, 2000, 3000)
        self.condition = BandJoinCondition(beta=4.0)
        self.ns = 24
        self.hist1, self.hist2 = make_histograms(self.keys1, self.keys2, self.ns)
        self.exact_m = count_join_output(self.keys1, self.keys2, self.condition)
        self.sample = exact_output_sample(
            self.keys1, self.keys2, self.condition, 800
        )
        self.matrix = build_sample_matrix(
            self.hist1, self.hist2, self.sample, self.condition
        )

    def test_shape_matches_histograms(self):
        assert self.matrix.size == (self.hist1.num_buckets, self.hist2.num_buckets)

    def test_total_output_is_exact_m(self):
        assert self.matrix.total_output == self.sample.total_output
        assert self.matrix.total_output == self.exact_m

    def test_frequencies_sum_to_m(self):
        # Each sample pair carries m / sample_size weight, so the frequencies
        # sum back to the exact output size.
        assert self.matrix.grid.total_output == pytest.approx(
            self.sample.total_output, rel=1e-9
        )

    def test_frequencies_only_on_candidates(self):
        dense = dense_grid(self.matrix.grid)
        assert not np.any(dense.frequency[~dense.candidate] > 0)

    def test_row_and_col_input_use_expected_bucket_size(self):
        np.testing.assert_allclose(
            self.matrix.grid.row_input, self.hist1.expected_bucket_size
        )
        np.testing.assert_allclose(
            self.matrix.grid.col_input, self.hist2.expected_bucket_size
        )

    def test_key_lookup_roundtrip(self):
        """Every key lands in a grid row/column, as sampled output pairs do."""
        for key in (self.keys1.min(), 1000.0, self.keys1.max()):
            row = bucket_index(self.matrix.row_boundaries, key)
            assert 0 <= row < self.matrix.grid.num_rows
        rows = bucket_index(self.matrix.row_boundaries, self.keys1[:50])
        cols = bucket_index(self.matrix.col_boundaries, self.keys2[:50])
        assert rows.min() >= 0 and rows.max() < self.matrix.grid.num_rows
        assert cols.min() >= 0 and cols.max() < self.matrix.grid.num_cols

    def test_out_of_range_keys_clamp(self):
        rows, cols = self.matrix.row_boundaries, self.matrix.col_boundaries
        assert bucket_index(rows, -1e9) == 0
        assert bucket_index(rows, 1e9) == self.matrix.grid.num_rows - 1
        assert bucket_index(rows, np.nan) == self.matrix.grid.num_rows - 1
        assert bucket_index(cols, -1e9) == 0
        assert bucket_index(cols, 1e9) == self.matrix.grid.num_cols - 1

    def test_empty_output_sample(self):
        empty = JoinOutputSample(pairs=np.empty((0, 2)), total_output=0)
        matrix = build_sample_matrix(self.hist1, self.hist2, empty, self.condition)
        assert matrix.grid.total_output == 0
        assert matrix.total_output == 0

    def test_region_weight_proximity(self):
        """MS region weights approximate the exact region weights (paper §III-A)."""
        weight_fn = WeightFunction(input_cost=1.0, output_cost=1.0)
        grid = dense_grid(self.matrix.grid)
        # Pick a few rectangular regions aligned to the MS grid and compare
        # the estimated weight against the exact weight computed from the
        # raw keys of the corresponding key ranges.
        rng = np.random.default_rng(3)
        sorted1 = np.sort(self.keys1)
        sorted2 = np.sort(self.keys2)
        for _ in range(5):
            r1, r2 = sorted(rng.integers(0, grid.num_rows, size=2))
            c1, c2 = sorted(rng.integers(0, grid.num_cols, size=2))
            region = GridRegion(int(r1), int(r2), int(c1), int(c2))
            estimated = grid.region_weight(region, weight_fn)

            row_lo = self.matrix.row_boundaries[r1]
            row_hi = self.matrix.row_boundaries[r2 + 1]
            col_lo = self.matrix.col_boundaries[c1]
            col_hi = self.matrix.col_boundaries[c2 + 1]
            in1 = sorted1[(sorted1 >= row_lo) & (sorted1 <= row_hi)]
            in2 = sorted2[(sorted2 >= col_lo) & (sorted2 <= col_hi)]
            exact_weight = weight_fn.weight(
                len(in1) + len(in2),
                count_join_output(in1, in2, self.condition),
            )
            # Proximity, not equality: sampling and equi-depth approximation
            # both contribute error.  Allow a generous relative margin plus an
            # absolute floor for small regions.
            assert estimated == pytest.approx(exact_weight, rel=0.5, abs=400)


class TestSampleMatrixSizing:
    def test_lemma31_cell_weight_bound(self):
        """With n_s = sqrt(2nJ), the max MS cell weight is at most wOPT / 2."""
        rng = np.random.default_rng(11)
        n = 4000
        num_machines = 8
        keys1 = rng.uniform(0, 10_000, n)
        keys2 = rng.uniform(0, 10_000, n)
        condition = BandJoinCondition(beta=30.0)
        m = count_join_output(keys1, keys2, condition)
        # The lemma assumes m >= n; this workload satisfies it.
        assert m >= n

        ns = sample_matrix_size(n, num_machines)
        assert ns >= math.isqrt(2 * n * num_machines)
        hist1, hist2 = make_histograms(keys1, keys2, ns)
        sample = exact_output_sample(keys1, keys2, condition, 2000, seed=5)
        matrix = build_sample_matrix(hist1, hist2, sample, condition)

        weight_fn = WeightFunction(input_cost=1.0, output_cost=1.0)
        sigma = matrix.grid.max_cell_weight(weight_fn, candidates_only=True)
        w_opt_lower = weight_fn.lower_bound_optimum(2 * n, m, num_machines)
        # Lemma 3.1 is probabilistic ("with high probability"); equi-depth
        # histograms are built from the full keys here, so the bound should
        # hold with a small slack for sampling noise in the output estimate.
        assert sigma <= 0.75 * w_opt_lower


# ----------------------------------------------------------------------
# The band: spans and the band matrix against the dense forms
# ----------------------------------------------------------------------
BASE_CONDITIONS = [
    BandJoinCondition(1.0),
    BandJoinCondition(0.3),
    BandJoinCondition(2**60 + 1),  # integral, above 2**53: rounds to a float
    EquiJoinCondition(),
    CompositeEquiBandCondition(beta=1.0, scale=10.0, band_key_min=0.0, band_key_max=5.0),
    *(InequalityJoinCondition(op) for op in InequalityOp),
]
SPAN_CONDITIONS = BASE_CONDITIONS + [BandJoinCondition(1.0).transposed,
                                     BandJoinCondition(0.3).transposed]
EDGE_VALUES = [-np.inf, np.inf, -1e300, 1e300, -0.0, 0.0, 5e-324, 0.1, 1.0, 2.0**53, 2.0**60]
edges = st.lists(st.sampled_from(EDGE_VALUES) | st.integers(-12, 12).map(lambda k: k / 4),
                 min_size=2, max_size=70)


@given(condition=st.sampled_from(SPAN_CONDITIONS), row_edges=edges, col_edges=edges)
@example(condition=BandJoinCondition(1.0), row_edges=[0.0] * 5, col_edges=[-np.inf, np.inf])
@example(condition=InequalityJoinCondition(InequalityOp.LT), row_edges=[np.inf] * 3,
         col_edges=[-np.inf, 0.0, np.inf, np.inf])
@settings(max_examples=300, deadline=None)
def test_spans_are_the_runs_of_the_broadcast_mask(condition, row_edges, col_edges):
    """Each row's ``[first, stop)`` holds exactly the cells the reference
    broadcast mask marks, on ascending edges with duplicates, +-inf, 1e300,
    -0.0 and widths that round; the histogram form opens the outer ends."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, as the dense form met it
        rows, cols = np.sort(row_edges), np.sort(col_edges)
        grid_edges = rows[:-1], rows[1:], cols[:-1], cols[1:]
        first, stop = condition.candidate_spans(*grid_edges)
        expected = reference(condition).candidate_grid(*grid_edges)
        columns = np.arange(cols.size - 1)
        mask = (columns >= first[:, None]) & (columns < stop[:, None])
        np.testing.assert_array_equal(mask, expected)
        assert ((0 <= first) & (first <= stop) & (stop <= columns.size)).all()
        assert first.dtype == stop.dtype == np.int64
        np.testing.assert_array_equal(condition.candidate_grid(*grid_edges), expected)
        hist1, hist2 = EquiDepthHistogram(rows, 10), EquiDepthHistogram(cols, 10)
        first, stop = histogram_spans(hist1, hist2, condition)
        expected = candidate_mask(rows, cols, condition)
        np.testing.assert_array_equal((columns >= first[:, None]) & (columns < stop[:, None]),
                                      expected)
        assert candidate_cell_count(hist1, hist2, condition) == expected.sum()


@st.composite
def sampled_matrices(draw):
    """Histograms, an output sample and a condition: a few sampled pairs may
    lie outside every candidate cell, as a boundary tie can put them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    condition = draw(st.sampled_from(BASE_CONDITIONS[:2] + BASE_CONDITIONS[3:]))
    keys1 = np.round(rng.uniform(0, 60, draw(st.integers(1, 300))), draw(st.integers(0, 2)))
    keys2 = np.round(rng.uniform(0, 60, draw(st.integers(1, 300))), 1)
    hist1 = build_equidepth_histogram(keys1, draw(st.integers(1, 40)), 5 * keys1.size)
    hist2 = build_equidepth_histogram(keys2, draw(st.integers(1, 40)), 5 * keys2.size)
    pairs = rng.choice(keys1, draw(st.integers(0, 200)))
    pairs = np.column_stack([pairs, pairs + rng.uniform(-1.0, 1.0, pairs.size)])
    strays = draw(st.integers(0, 3))
    pairs[:strays, 1] = pairs[:strays, 0] + rng.choice([-40.0, 40.0], min(strays, pairs.shape[0]))
    total = draw(st.sampled_from([0, 1, 7_919, 10**9 + 7]))
    return hist1, hist2, JoinOutputSample(pairs=pairs, total_output=total), condition


def same_float(ours, expected) -> bool:
    return float(ours).hex() == float(expected).hex()


@given(case=sampled_matrices(), groups=st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_the_band_sample_matrix_is_the_dense_one(case, groups):
    """The band MS holds the dense MS's cells and floats: frequencies bit for
    bit, the candidate mask with the tie rule, the totals both ways round,
    the heaviest cells, and the coarsening the dense reference makes of it."""
    hist1, hist2, sample, condition = case
    band = build_sample_matrix(hist1, hist2, sample, condition).grid
    dense = dense_sample_matrix(
        hist1, hist2, sample, candidate_mask(hist1.boundaries, hist2.boundaries, condition)
    )
    view = dense_grid(band)
    assert view.frequency.tobytes() == dense.frequency.tobytes()
    np.testing.assert_array_equal(view.candidate, dense.candidate)
    assert view.row_input.tobytes() == dense.row_input.tobytes()
    assert view.col_input.tobytes() == dense.col_input.tobytes()
    assert band.num_candidate_cells == dense.num_candidate_cells
    transposed = WeightedGrid(dense.frequency.T, dense.col_input, dense.row_input,
                              dense.candidate.T)
    assert same_float(band.total_output, dense.total_output)
    assert same_float(band.transposed_total_output, transposed.total_output)
    assert same_float(band.total_input, dense.total_input)
    for weight_fn in (WeightFunction(1.0, 0.2), WeightFunction(0.0, 1.0)):
        for candidates_only in (True, False):
            assert same_float(band.max_cell_weight(weight_fn, candidates_only),
                              dense.max_cell_weight(weight_fn, candidates_only))
    weight_fn = WeightFunction(1.0, 0.2)
    try:
        expected = reference_coarsen(dense, groups, groups, weight_fn)
    except RuntimeError:  # a one-group sweep rounding above the total
        return
    ours = coarsen(band, groups, groups, weight_fn)
    assert ours.row_groups.tolist() == expected.row_groups.tolist()
    assert ours.col_groups.tolist() == expected.col_groups.tolist()
    assert ours.grid.frequency.tobytes() == expected.grid.frequency.tobytes()
    assert same_float(ours.max_cell_weight, expected.max_cell_weight)


def test_a_sampled_cell_outside_the_run_is_a_run_of_its_own():
    """A pair whose cell the condition's run misses (here a pair that does not
    join at all) is still a candidate: a one-cell run beside the row's."""
    boundaries = np.arange(0.0, 50.0, 10.0)
    hist = EquiDepthHistogram(boundaries, 40)
    sample = JoinOutputSample(pairs=np.array([[5.0, 45.0], [5.0, 6.0]]), total_output=10)
    grid = build_sample_matrix(hist, hist, sample, BandJoinCondition(1.0)).grid
    assert grid.run_ptr.tolist() == [0, 2, 3, 4, 5]
    assert list(zip(grid.run_lo.tolist(), grid.run_hi.tolist()))[:2] == [(0, 2), (3, 4)]
    assert grid.entry_col.tolist() == [0, 3]
    assert grid.entry_value.tolist() == [5.0, 5.0]
    assert grid.num_candidate_cells == dense_grid(grid).num_candidate_cells == 3 + 3 + 3 + 2


def _band(**changes):
    """A valid 2 x 3 band with ``changes`` applied: row 0 runs [0, 2) and
    [2, 3) (touching), row 1 runs [1, 3); entries at (0, 1), (0, 2), (1, 2)."""
    fields = dict(
        row_input=[1.0, 2.0], col_input=[3.0, 0.0, 4.0],
        run_ptr=[0, 2, 3], run_lo=[0, 2, 1], run_hi=[2, 3, 3],
        entry_ptr=[0, 2, 3], entry_col=[1, 2, 2], entry_value=[5.0, 1.0, 0.5],
    )
    fields.update(changes)
    return BandGrid(**fields)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"row_input": [1.0, np.nan]}, "row_input must be finite"),
        ({"col_input": [3.0, np.inf, 4.0]}, "col_input must be finite"),
        ({"col_input": [3.0, -0.5, 4.0], "entry_value": [np.nan, 1.0, 0.5]},
         "col_input must be finite"),
        ({"entry_value": [5.0, -np.inf, 0.5]}, "entry_value must be finite"),
        ({"run_ptr": [0, 3]}, "run_ptr must rise"),
        ({"run_ptr": [1, 2, 3]}, "run_ptr must rise"),
        ({"run_ptr": [0, 2, 2]}, "run_ptr must rise"),
        ({"run_ptr": [0, 4, 3], "run_lo": [0, 2, 1, 1], "run_hi": [2, 3, 3, 3]},
         "run_ptr must rise"),
        ({"entry_ptr": [0, 3, 2]}, "entry_ptr must rise"),
        ({"run_hi": [2, 3]}, "run_lo/run_hi and entry_col/entry_value"),
        ({"entry_value": [5.0, 1.0]}, "run_lo/run_hi and entry_col/entry_value"),
        ({"run_lo": [-1, 2, 1]}, "runs must be non-empty"),
        ({"run_hi": [2, 3, 4]}, "runs must be non-empty"),
        ({"run_hi": [2, 2, 3]}, "runs must be non-empty"),
        ({"run_lo": [0, 1, 1]}, "runs must be non-empty"),
        ({"run_lo": [2, 0, 1], "run_hi": [3, 2, 3]}, "runs must be non-empty"),
        ({"entry_col": [-1, 2, 2]}, "entry columns must be distinct"),
        ({"entry_col": [1, 2, 3]}, "entry columns must be distinct"),
        ({"entry_col": [2, 1, 2]}, "entry columns must be distinct"),
        ({"entry_col": [1, 1, 2]}, "entry columns must be distinct"),
        ({"entry_ptr": [0, 1, 3], "entry_col": [1, 0, 2]}, "non-candidate cells"),
        ({"run_ptr": [0, 1, 1], "run_lo": [0], "run_hi": [2], "entry_col": [0, 1, 2],
          "entry_ptr": [0, 2, 3]}, "non-candidate cells"),
    ],
)
def test_a_band_grid_refuses_what_is_not_a_band(changes, message):
    """Every check of ``BandGrid`` refuses by its own message; the base band passes."""
    assert _band().num_candidate_cells == 2 + 1 + 2
    with pytest.raises(ValueError, match=message):
        _band(**changes)


def test_a_band_grid_of_no_rows_or_no_entries_is_a_band():
    empty = BandGrid([], [], [0], [], [], [0], [], [])
    assert empty.shape == (0, 0) and empty.num_candidate_cells == 0
    assert _band(entry_ptr=[0, 0, 0], entry_col=[], entry_value=[]).total_output == 0.0
