"""Tests for the end-to-end equi-weight histogram builder (repro.core.histogram)."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from reference_planner import LazyTilingTables, lazy_monotonic_bsp_tiling
from streaming_harness import interpreter_calls

from repro.core.grid import WeightedGrid, smallest_feasible
from repro.core.histogram import EWHConfig, build_equi_weight_histogram
from repro.core.region import GridRegion
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction
from repro.engine.operators import CSIOOperator, CSIOperator
from repro.joins import native
from repro.joins.conditions import BandJoinCondition, CompositeEquiBandCondition
from repro.joins.local import count_join_output
from repro.sampling.equidepth import sample_joining_keys


@pytest.fixture(scope="module")
def skewed_inputs():
    """A moderately skewed pair of key arrays exhibiting join product skew."""
    rng = np.random.default_rng(42)
    hot1 = rng.integers(0, 40, size=600).astype(float)
    cold1 = rng.integers(1000, 20_000, size=2400).astype(float)
    hot2 = rng.integers(0, 40, size=600).astype(float)
    cold2 = rng.integers(1000, 20_000, size=2400).astype(float)
    keys1 = np.concatenate([hot1, cold1])
    keys2 = np.concatenate([hot2, cold2])
    return keys1, keys2


@pytest.fixture(scope="module")
def built_histogram(skewed_inputs):
    keys1, keys2 = skewed_inputs
    condition = BandJoinCondition(beta=2.0)
    weight_fn = WeightFunction(1.0, 0.2)
    return build_equi_weight_histogram(
        keys1, keys2, condition, num_machines=8, weight_fn=weight_fn,
        rng=np.random.default_rng(0),
    )


class TestBuildEquiWeightHistogram:
    def test_region_budget(self, built_histogram):
        assert 1 <= built_histogram.num_regions <= 8
        assert len(built_histogram.key_regions) == len(built_histogram.grid_regions)

    def test_boundaries_extended_to_infinity(self, built_histogram):
        assert built_histogram.mc_row_boundaries[0] == -np.inf
        assert built_histogram.mc_row_boundaries[-1] == np.inf
        assert built_histogram.mc_col_boundaries[0] == -np.inf
        assert built_histogram.mc_col_boundaries[-1] == np.inf

    def test_key_regions_match_grid_regions(self, built_histogram):
        rows = built_histogram.mc_row_boundaries
        cols = built_histogram.mc_col_boundaries
        for key_region, grid_region in zip(
            built_histogram.key_regions, built_histogram.grid_regions
        ):
            assert key_region.r1_lo == rows[grid_region.row_lo]
            assert key_region.r1_hi == rows[grid_region.row_hi + 1]
            assert key_region.r2_lo == cols[grid_region.col_lo]
            assert key_region.r2_hi == cols[grid_region.col_hi + 1]

    def test_total_output_is_exact(self, built_histogram, skewed_inputs):
        keys1, keys2 = skewed_inputs
        exact = count_join_output(keys1, keys2, BandJoinCondition(beta=2.0))
        assert built_histogram.total_output == exact

    def test_stage_artifacts_present(self, built_histogram):
        assert built_histogram.sample_matrix.grid.num_rows > 0
        assert built_histogram.coarsening.grid.num_rows > 0
        assert built_histogram.regionalization.num_regions == built_histogram.num_regions
        assert set(built_histogram.stage_seconds) == {
            "sampling", "coarsening", "regionalization",
        }
        assert built_histogram.build_seconds > 0

    def test_estimated_weight_close_to_regionalization(self, built_histogram):
        assert built_histogram.estimated_max_weight == pytest.approx(
            built_histogram.regionalization.max_region_weight
        )

    def test_coarsened_matrix_not_larger_than_2j(self, built_histogram):
        assert built_histogram.coarsening.grid.num_rows <= 2 * 8
        assert built_histogram.coarsening.grid.num_cols <= 2 * 8

    def test_estimate_within_lower_bound_factor(self, built_histogram, skewed_inputs):
        keys1, keys2 = skewed_inputs
        weight_fn = WeightFunction(1.0, 0.2)
        lower = weight_fn.lower_bound_optimum(
            len(keys1) + len(keys2), built_histogram.total_output, 8
        )
        # The scheme cannot beat the no-replication bound, and for a
        # reasonable workload it should stay within a small factor of it.
        assert built_histogram.estimated_max_weight >= 0.9 * lower
        assert built_histogram.estimated_max_weight <= 5.0 * lower


class TestConfiguration:
    def test_sample_matrix_size_override(self, skewed_inputs):
        keys1, keys2 = skewed_inputs
        config = EWHConfig(sample_matrix_size=32, adjust_for_output_ratio=False)
        histogram = build_equi_weight_histogram(
            keys1, keys2, BandJoinCondition(beta=2.0), 4,
            WeightFunction(), config=config, rng=np.random.default_rng(1),
        )
        assert histogram.sample_matrix.grid.num_rows <= 32

    def test_max_sample_matrix_size_cap(self, skewed_inputs):
        keys1, keys2 = skewed_inputs
        config = EWHConfig(max_sample_matrix_size=20)
        histogram = build_equi_weight_histogram(
            keys1, keys2, BandJoinCondition(beta=2.0), 4,
            WeightFunction(), config=config, rng=np.random.default_rng(1),
        )
        assert histogram.sample_matrix.grid.num_rows <= 20

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError):
            build_equi_weight_histogram(
                np.array([]), np.array([1.0]), BandJoinCondition(beta=1.0), 2,
                WeightFunction(),
            )

    def test_invalid_machine_count_rejected(self, skewed_inputs):
        keys1, keys2 = skewed_inputs
        with pytest.raises(ValueError):
            build_equi_weight_histogram(
                keys1, keys2, BandJoinCondition(beta=1.0), 0, WeightFunction()
            )

    def test_deterministic_given_seed(self, skewed_inputs):
        keys1, keys2 = skewed_inputs
        results = [
            build_equi_weight_histogram(
                keys1, keys2, BandJoinCondition(beta=2.0), 4,
                WeightFunction(), config=EWHConfig(seed=99),
            )
            for _ in range(2)
        ]
        assert results[0].grid_regions == results[1].grid_regions
        assert results[0].estimated_max_weight == pytest.approx(
            results[1].estimated_max_weight
        )

    def test_composite_condition_supported(self):
        rng = np.random.default_rng(5)
        condition = CompositeEquiBandCondition(
            beta=1.0, scale=16.0, band_key_min=0.0, band_key_max=7.0
        )
        equi1 = rng.integers(0, 30, size=1500)
        band1 = rng.integers(0, 8, size=1500)
        equi2 = rng.integers(0, 30, size=1500)
        band2 = rng.integers(0, 8, size=1500)
        keys1 = condition.encode(equi1, band1)
        keys2 = condition.encode(equi2, band2)
        histogram = build_equi_weight_histogram(
            keys1, keys2, condition, 6, WeightFunction(1.0, 0.3),
            rng=np.random.default_rng(2),
        )
        assert 1 <= histogram.num_regions <= 6
        assert histogram.total_output == count_join_output(keys1, keys2, condition)


@pytest.fixture(scope="module")
def sparse_j12_build():
    """One CSIO build (20K sparse keys per side, band 2, J=12: n_s ~ 620)."""
    size = 20_000
    rng = np.random.default_rng(12)
    keys1, keys2 = (rng.choice(4 * size, size=size, replace=False).astype(float)
                    for _ in range(2))
    return build_equi_weight_histogram(
        keys1, keys2, BandJoinCondition(beta=2.0), num_machines=12,
        weight_fn=SPARSE_J12_WEIGHTS, rng=np.random.default_rng(0),
    )


SPARSE_J12_WEIGHTS = WeightFunction(1.0, 0.2)


def test_a_csio_build_builds_2d_tables_only_on_the_coarse_grid(sparse_j12_build):
    """One CSIO build (20K sparse keys per side, band 2, J=12: n_s ~ 620).

    Only the coarsened matrix's tiling tables read a 2-D prefix table, so the
    ~620 x 620 sample matrix must come out of a build without one (building
    them eagerly was about an eighth of such a build).  The coarse
    grid holds what ``TilingTables`` reads: the frequency table and the spans
    (nothing in a plan reads its candidate-count table).
    """
    histogram = sparse_j12_build
    sample_tables = vars(histogram.sample_matrix.grid)
    coarse_tables = vars(histogram.coarsening.grid)
    assert min(histogram.sample_matrix.grid.shape) > 600
    assert "_freq_prefix" not in sample_tables and "_cand_prefix" not in sample_tables
    assert "_freq_prefix" in coarse_tables and "_row_cand_spans" in coarse_tables
    print(f"\nsample matrix {histogram.sample_matrix.grid.shape}: "
          f"{sorted(sample_tables)}; coarse grid: {sorted(coarse_tables)}")


def test_a_regionalize_shrinks_by_lookup_alone(sparse_j12_build, monkeypatch):
    """The same build's coarse grid (24 x 24), regionalized again.

    The tiling tables shrink a rectangle with four lookups, so the row scan
    behind ``WeightedGrid.minimal_candidate_rectangle`` is never called (a
    scanning shrink made 17,242 calls here), and their closure holds the
    minimal rectangles a lazy search over the same thresholds meets and
    nothing else (1,128; memoising every un-shrunk rectangle met made it
    17,870).
    """
    import repro.core.grid as grid_module
    import repro.core.regionalization as regionalization

    scan = grid_module.shrink_to_candidates
    scans = []

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
        if getattr(module, "shrink_to_candidates", None) is scan:
            monkeypatch.setattr(module, "shrink_to_candidates", counted_scan)
    built = []

    class RecordedTables(TilingTables):
        def __init__(self, *args) -> None:
            super().__init__(*args)
            built.append(self)

    deltas = []
    tile = native.tile

    def recorded_tile(offsets, children, leaf_thresholds, root, delta):
        deltas.append(delta)
        return tile(offsets, children, leaf_thresholds, root, delta)

    monkeypatch.setattr(regionalization, "TilingTables", RecordedTables)
    monkeypatch.setattr(native, "tile", recorded_tile)
    grid = sparse_j12_build.coarsening.grid
    result = regionalization.regionalize(grid, 12, SPARSE_J12_WEIGHTS)
    (tables,) = built
    scanned = len(scans)
    print(f"\ncoarse grid {grid.shape}: {scanned} row scans, "
          f"{len(tables.rects)} minimal rectangles, {tables.children.size} children, "
          f"{result.search_steps} tilings")
    assert result.regions == sparse_j12_build.grid_regions
    assert scanned == 0
    rects = set(map(tuple, tables.rects.tolist()))
    assert len(rects) == len(tables.rects) == 1128
    for rect in rects:
        assert grid.minimal_candidate_rectangle(GridRegion(*rect)) == GridRegion(*rect)
    lazy = LazyTilingTables(grid, SPARSE_J12_WEIGHTS)
    for delta in deltas:
        lazy_monotonic_bsp_tiling(lazy, delta)
    assert len(deltas) == result.search_steps
    assert set(lazy.rects) == rects


def test_a_tiling_probe_makes_the_same_calls_at_any_grid_size():
    """One probe of regionalization's search (``feasible``) is one kernel call
    over the tables' child table: it makes as many interpreter calls on a
    32 x 32 coarse grid as on a 16 x 16 one (the Python DP's calls grew with
    the rectangles it split).  ``-s`` prints them."""
    import repro.core.regionalization as regionalization

    calls = {}
    for size in (16, 32):
        probes = []

        def measured(feasible, low, high, max_midpoints):
            # The probe at the threshold the search settles on.
            found = smallest_feasible(feasible, low, high, max_midpoints)
            probes.append(interpreter_calls(feasible, found[0]))
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(regionalization, "smallest_feasible", measured)
            result = regionalization.regionalize(diagonal_grid(size), 4, SPARSE_J12_WEIGHTS)
        (accepted, calls[size]), = probes
        assert accepted is not None and result.num_regions == 4
    print("tiling probe: " + ", ".join(f"{size} x {size} {calls[size]} calls" for size in calls))
    assert calls[16] == calls[32]


def test_a_regionalize_reads_regions_only_for_the_threshold_it_returns(sparse_j12_build):
    """The δ search accepts or rejects a threshold by the kernel's root
    region count alone: a rejected probe makes as many interpreter calls
    as an accepted one, whatever the number of regions its tiling has, and
    the whole search constructs a ``GridRegion`` only for each region of
    the tiling it returns.  ``-s`` prints the calls."""
    import repro.core.monotonic_bsp as monotonic_bsp
    import repro.core.regionalization as regionalization

    probes = []
    constructed = []

    def measured(feasible, low, high, max_midpoints):
        # The lowest threshold is rejected on this grid: its tiling has
        # more regions than the budget.
        found = smallest_feasible(feasible, low, high, max_midpoints)
        probes.append(interpreter_calls(feasible, low))
        probes.append(interpreter_calls(feasible, found[0]))
        return found

    def counted_region(*corners):
        constructed.append(corners)
        return GridRegion(*corners)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(regionalization, "smallest_feasible", measured)
        patch.setattr(monotonic_bsp, "GridRegion", counted_region)
        result = regionalization.regionalize(
            sparse_j12_build.coarsening.grid, 12, SPARSE_J12_WEIGHTS
        )
    (rejected, rejected_calls), (accepted, accepted_calls) = probes
    print(f"\nregionalize: {result.search_steps} probes, {rejected_calls} calls rejected, "
          f"{accepted_calls} accepted, {len(constructed)} regions constructed")
    assert rejected is None and accepted is not None
    assert result.search_steps > 2
    assert rejected_calls == accepted_calls
    assert len(constructed) == result.num_regions
    assert result.regions == sparse_j12_build.grid_regions


def diagonal_grid(size: int) -> WeightedGrid:
    """A band of width 3 down the diagonal, every cell of it equally heavy."""
    index = np.arange(size)
    candidate = np.abs(index[:, None] - index[None, :]) <= 1
    return WeightedGrid(candidate * 4.0, np.ones(size), np.ones(size), candidate)


# ----------------------------------------------------------------------
# NaN keys: they join nothing, so no sample may draw one
# ----------------------------------------------------------------------
def _int_valued_keys(seed: int, size: int = 20_000) -> "tuple[np.ndarray, np.ndarray]":
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 5_000, size=size).astype(np.float64) for _ in range(2))


@pytest.mark.parametrize(
    "operator", [CSIOOperator(8), CSIOperator(8)], ids=["CSIO", "CSI"]
)
def test_a_single_nan_key_plans_and_counts_exactly(operator):
    """One NaN among 20K keys used to reach a histogram boundary and the
    planner refused the grid (``row_boundaries contains NaN``)."""
    keys1, keys2 = _int_valued_keys(0)
    keys1[123] = np.nan
    condition = BandJoinCondition(beta=2.0)
    result = operator.run(keys1, keys2, condition, WeightFunction(1.0, 0.2))
    assert result.output_correct
    assert result.total_output == count_join_output(keys1, keys2, condition)


@pytest.mark.parametrize("side", [1, 2])
def test_the_histogram_never_samples_a_nan(side):
    """A NaN in either relation, drawn for sure (a third of the keys)."""
    keys = list(_int_valued_keys(1, 3_000))
    keys[side - 1][::3] = np.nan
    condition = BandJoinCondition(beta=2.0)
    histogram = build_equi_weight_histogram(
        *keys, condition, 6, WeightFunction(1.0, 0.2), rng=np.random.default_rng(4)
    )
    for boundaries in (histogram.mc_row_boundaries, histogram.mc_col_boundaries):
        assert not np.isnan(boundaries).any()
    assert histogram.total_output == count_join_output(*keys, condition)


def test_nan_free_keys_are_sampled_as_they_stand():
    """No copy and the same draws: the generator moves as ``rng.choice`` does."""
    keys, _ = _int_valued_keys(2, 500)
    rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
    np.testing.assert_array_equal(
        sample_joining_keys(keys, 100, rng),
        reference_rng.choice(keys, size=100, replace=False),
    )
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    with_nan = np.append(keys, [np.nan, np.nan])
    assert not np.isnan(sample_joining_keys(with_nan, len(with_nan), rng)).any()
