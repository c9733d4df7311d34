"""Differential tests: the planner kernels against their pre-rewrite selves.

``tests/reference_planner.py`` holds the tiling DPs and the coarsening sweep
as they were before they were rewritten for speed, and the three threshold
searches (regionalization, coarsening, M-Bucket) as each was written out
before they became one ``smallest_feasible``.  Coarsening's whole search and
regionalization's δ search now run in the compiled kernel, both through its
one ``smallest_feasible``: the band loop coarsening replaced
(``band_coarsen``: numpy's group sums, the numpy sweep, the Python
``smallest_feasible``) holds ``native.coarsen`` bit for bit, the sweeps' row
loop holds its sweep's boundaries at every tie, wherever they reach its
result, and the Python δ loop (``python_regionalize``: the Python search
over one kernel tiling per probe) holds ``native.tile``'s search.
Planted in a scratch copy of the kernel, these mutants are caught here:
the sweep's ``>`` as ``>=`` (five tests), the pairwise split at ``n / 2``
not rounded down to a multiple of 8 (``LONG_GRID``; also
``tests/test_coarsening.py``'s reduceat tests) and the bisection's stop
``<=`` as ``<`` (``STOP_GRID`` for coarsening, ``TIE_GRID`` for the δ
search).  Every property here asks
for *identical* results -- regions in the same order, floats equal to the last
bit, the same rectangle counts and search steps -- because the plans the
benchmarks and goldens pin depend on which of two equally good splits comes
first, on how a weight rounds against a threshold and on where a search
stops.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_planner import (
    LazyTilingTables,
    _aggregate_columns,
    _Primitives,
    band_coarsen,
    band_group_columns,
    band_group_rows,
    band_search_ends,
    dense_grid,
    even_boundaries,
    lazy_monotonic_bsp_tiling,
    python_regionalize,
    reference_bsp,
    reference_coarsen,
    reference_m_bucket_regions,
    reference_monotonic_bsp,
    reference_regionalize,
    numpy_sweep_rows,
    reference_sweep_rows,
)

from repro.core.bsp import bsp_partition
from repro.core.coarsening import MAX_ITERATIONS, MAX_MIDPOINTS, CoarseningResult, coarsen
from repro.core.grid import (
    SEARCH_TOLERANCE,
    BandGrid,
    WeightedGrid,
    candidate_spans,
    shrink_to_candidates,
)
from repro.core.monotonic_bsp import monotonic_bsp_partition, monotonic_bsp_tiling
from repro.core.region import GridRegion
from repro.core.regionalization import regionalize
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction
from repro.joins import native
from repro.partitioning.m_bucket import _m_bucket_regions

WEIGHT_FUNCTIONS = [
    WeightFunction(1.0, 1.0),
    WeightFunction(1.0, 0.2),
    WeightFunction(0.0, 1.0),
    WeightFunction(0.7, 0.0),
]


def mirrored(grid: WeightedGrid) -> WeightedGrid:
    """The grid with its columns in reverse order: descending spans for ascending."""
    return WeightedGrid(np.ascontiguousarray(grid.frequency[:, ::-1]), grid.row_input,
                        np.ascontiguousarray(grid.col_input[::-1]),
                        np.ascontiguousarray(grid.candidate[:, ::-1]))


@st.composite
def monotone_grids(draw, max_side: int = 14) -> WeightedGrid:
    """Band- and inequality-shaped monotone grids with awkward corners.

    Row spans move right monotonically, or left in a mirrored grid; jumps
    between them leave empty columns, a sixth of the rows lose their
    candidates, frequencies are non-integer (some zero) and some rows and
    columns carry no input.
    """
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    shape = draw(st.sampled_from(["band", "inequality"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.sort(rng.integers(0, cols, size=rows))
    if shape == "band":
        width = rng.integers(0, cols // 2 + 1, size=rows)
        hi = np.minimum(np.maximum.accumulate(lo + width), cols - 1)
    else:
        hi = np.full(rows, cols - 1)
    columns = np.arange(cols)[None, :]
    candidate = (columns >= lo[:, None]) & (columns <= hi[:, None])
    candidate[rng.random(rows) < 1 / 6] = False
    frequency = np.where(candidate & (rng.random((rows, cols)) < 0.8),
                         rng.random((rows, cols)) * 20.0, 0.0)
    row_input = np.where(rng.random(rows) < 0.2, 0.0, rng.random(rows) * 10.0)
    col_input = np.where(rng.random(cols) < 0.2, 0.0, rng.random(cols) * 10.0)
    grid = WeightedGrid(frequency, row_input, col_input, candidate)
    return mirrored(grid) if draw(st.booleans()) else grid


def thresholds(grid: WeightedGrid, weight_fn: WeightFunction, fraction: float) -> list[float]:
    """Thresholds above and below the heaviest candidate cell, and exactly on it."""
    total = weight_fn.weight(grid.total_input, grid.total_output)
    heaviest_cell = grid.max_cell_weight(weight_fn, candidates_only=True)
    return [fraction * total, heaviest_cell, 0.5 * heaviest_cell]


def assert_same_tiling(ours, reference) -> None:
    assert ours.regions == reference.regions
    assert ours.max_region_weight == reference.max_region_weight
    assert ours.rectangles_evaluated == reference.rectangles_evaluated


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       fraction=st.floats(0.0, 1.1))
@settings(max_examples=120, deadline=None)
def test_monotonic_bsp_matches_the_recursive_dp(grid, weight_fn, fraction):
    for delta in thresholds(grid, weight_fn, fraction):
        assert_same_tiling(
            monotonic_bsp_partition(grid, weight_fn, delta),
            reference_monotonic_bsp(grid, weight_fn, delta),
        )


@given(grid=monotone_grids(max_side=7), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       fraction=st.floats(0.0, 1.1))
@settings(max_examples=40, deadline=None)
def test_baseline_bsp_matches_the_gridregion_dp(grid, weight_fn, fraction):
    for delta in thresholds(grid, weight_fn, fraction):
        assert_same_tiling(
            bsp_partition(grid, weight_fn, delta),
            reference_bsp(grid, weight_fn, delta),
        )


class UncheckedGrid(WeightedGrid):
    """A grid the constructor does not check: it takes what no plan can meet."""

    def __post_init__(self) -> None:
        pass


# Two grids a random draw almost never produces.  On TIE_GRID the δ search
# meets a gap exactly equal to its tolerance (1.125 = 0.01 * 112.5), where
# it must stop.  On DEEP_GRID it runs out of midpoints: the tolerance is
# relative to the threshold, and the root rectangle outweighs the two-region
# optimum ~10^8 times.  No grid with non-negative inputs gets there (the root
# outweighs the lower bound at most J times), so candidate rows carry +1e9
# input and columns -1e9, and a candidate-free row brings the total to ~0.
# The constructor rejects negative inputs, so DEEP_GRID is built unchecked:
# it pins the midpoint budget, which no valid grid this small can exhaust.
TIE_GRID = WeightedGrid(
    [[26.0, 8.0, 2.0], [24.0, 5.0, 2.0], [12.0, 27.0, 21.0]],
    [2.0, 28.0, 27.0], [17.0, 2.0, 13.0], np.ones((3, 3), dtype=bool),
)
DEEP_GRID = UncheckedGrid(
    np.zeros((4, 2)), np.array([1e9 + 1, 1e9 + 2, 1e9 + 1, -3e9]),
    np.array([-1e9 + 1, -1e9 + 1]),
    np.array([[True, True], [True, True], [True, True], [False, False]]),
)


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       machines=st.integers(1, 8))
@example(grid=TIE_GRID, weight_fn=WeightFunction(1.0, 1.0), machines=3)
@example(grid=DEEP_GRID, weight_fn=WeightFunction(1.0, 0.0), machines=2)
@settings(max_examples=60, deadline=None)
def test_regionalize_matches_the_per_step_search(grid, weight_fn, machines):
    ours = regionalize(grid, machines, weight_fn)
    reference = reference_regionalize(grid, machines, weight_fn)
    assert ours.regions == reference.regions
    assert ours.delta == reference.delta
    assert ours.max_region_weight == reference.max_region_weight
    assert ours.search_steps == reference.search_steps


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       machines=st.integers(1, 8))
@example(grid=TIE_GRID, weight_fn=WeightFunction(1.0, 1.0), machines=3)
@example(grid=DEEP_GRID, weight_fn=WeightFunction(1.0, 0.0), machines=2)
@settings(max_examples=80, deadline=None)
def test_the_kernel_searches_delta_as_the_python_loop_does(grid, weight_fn, machines):
    """One ``native.tile`` search == ``smallest_feasible`` over one kernel
    tiling per probe, to the bit: the threshold, the probes, the regions in
    order and the estimate -- where the gap ties the stopping tolerance
    (``TIE_GRID``) and where the midpoints run out (``DEEP_GRID``)."""
    ours = regionalize(grid, machines, weight_fn)
    reference = python_regionalize(grid, machines, weight_fn)
    assert ours.regions == reference.regions
    assert same_float(ours.delta, reference.delta)
    assert same_float(ours.max_region_weight, reference.max_region_weight)
    assert ours.search_steps == reference.search_steps


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       row_groups=st.integers(1, 8), col_groups=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_coarsen_matches_the_per_axis_search(grid, weight_fn, row_groups, col_groups):
    try:
        reference = reference_coarsen(grid, row_groups, col_groups, weight_fn)
    except RuntimeError:
        # A one-group sweep can sum a block one rounding above the total
        # weight, so even the search's upper end fails.  One group is the
        # only cover that allows, and ours takes it where nothing fits.
        assert 1 in (min(row_groups, grid.num_rows), min(col_groups, grid.num_cols))
        coarsen(grid, row_groups, col_groups, weight_fn)
        return
    ours = coarsen(grid, row_groups, col_groups, weight_fn)
    assert ours.row_groups.tolist() == reference.row_groups.tolist()
    assert ours.col_groups.tolist() == reference.col_groups.tolist()
    assert ours.iterations == reference.iterations
    assert ours.max_cell_weight == reference.max_cell_weight


# Bucket sizes at which the whole-grid threshold rounds one column short of
# covering the single row: no threshold fits J = 1, and M-Bucket falls back
# to one region over the full grid.
ROUNDING_ROW = WeightedGrid(np.zeros((1, 3)), [0.0], [0.0] * 3, np.ones((1, 3), dtype=bool))


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       machines=st.integers(1, 8),
       bucket_sizes=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)))
@example(grid=ROUNDING_ROW, weight_fn=WeightFunction(1.0, 0.2), machines=1,
         bucket_sizes=(8.59, 3.37))
@settings(max_examples=100, deadline=None)
def test_m_bucket_search_matches_its_own_loop(grid, weight_fn, machines, bucket_sizes):
    spans = (*candidate_spans(grid.candidate), grid.num_cols)
    assert _m_bucket_regions(*spans, *bucket_sizes, weight_fn, machines) == (
        reference_m_bucket_regions(grid.candidate, *bucket_sizes, weight_fn, machines)
    )


@given(grid=monotone_grids(max_side=9), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS))
@settings(max_examples=40, deadline=None)
def test_tables_agree_with_the_grid_on_every_rectangle(grid, weight_fn):
    """Shrink and weight: tables == the grid's public methods == the numpy reference."""
    tables = TilingTables(grid, weight_fn, -np.inf)
    reference = _Primitives(grid, weight_fn)
    boxes = every_rectangle(grid)
    shrunk = tables.shrink(boxes)
    weights = tables.weigh(np.maximum(shrunk, 0)).tolist()
    for box, minimal, weight in zip(boxes.tolist(), shrunk.tolist(), weights):
        region = GridRegion(*box)
        expected = reference.minimal(region)
        assert grid.minimal_candidate_rectangle(region) == expected
        if expected is None:
            assert minimal == [-1] * 4
            continue
        assert GridRegion(*minimal) == expected
        assert weight == reference.weight(expected)
        assert weight == grid.region_weight(expected, weight_fn)
    # The closure's rectangles are minimal and weighed the same way.
    for rect, weight in zip(tables.rects.tolist(), tables.weights.tolist()):
        assert reference.minimal(GridRegion(*rect)) == GridRegion(*rect)
        assert weight == reference.weight(GridRegion(*rect))


def every_rectangle(grid: WeightedGrid) -> np.ndarray:
    """Every sub-rectangle of the grid, as int64 rows ``(r1, r2, c1, c2)``."""
    return np.array([
        (r1, r2, c1, c2) for (r1, r2), (c1, c2) in itertools.product(
            itertools.combinations_with_replacement(range(grid.num_rows), 2),
            itertools.combinations_with_replacement(range(grid.num_cols), 2),
        )
    ], dtype=np.int64)


def span_grid(lo, hi, num_cols: int, holes=(), descending: bool = False) -> WeightedGrid:
    """A grid whose row ``r`` holds candidates from ``lo[r]`` to ``hi[r]`` (-1: none).

    ``holes`` are ``(row, col)`` cells inside a span left out of it: the
    tables read only the spans, so a hole must change nothing.
    """
    candidate = np.zeros((len(lo), num_cols), dtype=bool)
    for row, (start, end) in enumerate(zip(lo, hi)):
        if start >= 0:
            candidate[row, start : end + 1] = True
    for row, col in holes:
        if lo[row] < col < hi[row]:
            candidate[row, col] = False
    grid = WeightedGrid(candidate.astype(np.float64), np.ones(len(lo)), np.ones(num_cols),
                        candidate)
    return mirrored(grid) if descending else grid


@st.composite
def span_monotone_grids(draw, max_side: int = 9) -> WeightedGrid:
    """Spans ascending (or, mirrored, descending) with empty rows anywhere.

    A row is empty with probability a quarter, and the first and last rows
    and one middle row are emptied on demand, so the position lookups meet
    runs of empty rows at either end and inside.
    """
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo = np.sort(rng.integers(0, cols, size=rows))
    hi = np.minimum(np.maximum.accumulate(lo + rng.integers(0, cols, size=rows)), cols - 1)
    empty = rng.random(rows) < 0.25
    for row in draw(st.sets(st.sampled_from([0, rows // 2, rows - 1]))):
        empty[row] = True
    lo, hi = np.where(empty, -1, lo), np.where(empty, -1, hi)
    holes = [(int(r), int(c)) for r, c in zip(rng.integers(0, rows, size=3),
                                              rng.integers(0, cols, size=3))]
    return span_grid(lo.tolist(), hi.tolist(), cols, holes, draw(st.booleans()))


@given(grid=span_monotone_grids())
@example(grid=span_grid([0], [4], 6))
@example(grid=span_grid([1], [3], 6, descending=True))
@example(grid=span_grid([-1, 0, -1, 0, 0, -1], [-1, 0, -1, 0, 0, -1], 1))
@example(grid=span_grid([-1, 0, 1, -1, 2, 4, -1], [-1, 2, 3, -1, 4, 4, -1], 5, [(1, 1)],
                        descending=True))
@example(grid=span_grid([-1, -1], [-1, -1], 3))
@settings(max_examples=150, deadline=None)
def test_the_lookups_shrink_every_rectangle_as_the_row_scan_does(grid):
    """O(1) shrink == one pass over the rows' spans, on every sub-rectangle."""
    tables = TilingTables(grid, WeightFunction(), -np.inf)
    span_lo, span_hi = (spans.tolist() for spans in grid._row_cand_spans)
    boxes = every_rectangle(grid)
    for box, minimal in zip(boxes.tolist(), tables.shrink(boxes).tolist()):
        expected = shrink_to_candidates(span_lo, span_hi, *box)
        assert (None if minimal[0] < 0 else tuple(minimal)) == expected


def test_tables_refuse_spans_moving_both_ways():
    """The first row's span holds the second's: one end moves right, the other left."""
    grid = WeightedGrid(np.zeros((3, 3)), np.ones(3), np.ones(3),
                        np.array([[1, 0, 1], [0, 1, 0], [0, 0, 0]], dtype=bool))
    with pytest.raises(ValueError, match="one direction"):
        TilingTables(grid, WeightFunction(), 0.0)


# ----------------------------------------------------------------------
# The tiling kernel: the closure once per grid, the DP once per threshold
# ----------------------------------------------------------------------
ONE_ROW = span_grid([0], [5], 6)
ONE_COLUMN = span_grid([0, 0, -1, 0], [0, 0, -1, 0], 1)
NO_CANDIDATE = span_grid([-1, -1], [-1, -1], 3)


def lazy_children(lazy: LazyTilingTables, rect_id: int) -> list:
    """The rectangles of the lazy tables' child list of ``rect_id``, in order."""
    return [lazy.rects[child] for child in lazy._children[rect_id]]


@given(grid=st.one_of(monotone_grids(max_side=10), span_monotone_grids()),
       weight_fn=st.sampled_from(WEIGHT_FUNCTIONS), data=st.data())
@example(grid=ONE_ROW, weight_fn=WeightFunction(1.0, 1.0), data=None)
@example(grid=mirrored(ONE_ROW), weight_fn=WeightFunction(1.0, 0.2), data=None)
@example(grid=ONE_COLUMN, weight_fn=WeightFunction(1.0, 1.0), data=None)
@example(grid=NO_CANDIDATE, weight_fn=WeightFunction(1.0, 1.0), data=None)
@settings(max_examples=150, deadline=None)
def test_the_kernel_tiles_as_the_python_dp_does(grid, weight_fn, data):
    """``native.tile`` over the closure == the lazy Python DP == the recursive DP.

    Thresholds are the exact weights the tables hold (every ``<=`` meets its
    tie), ``-inf`` (single cells are the only leaves) and the root's weight
    (one region).  The closure is built for the threshold and for every
    threshold (``-inf``); the rectangles the lazy search meets are the
    closure's, and each child list it builds is the closure's, in order.
    """
    full = TilingTables(grid, weight_fn, -np.inf)
    weights = full.weights.tolist()
    deltas = [-np.inf, *weights[:1]]
    if data is not None and weights:
        deltas += data.draw(st.lists(st.sampled_from(weights), min_size=1, max_size=3))
    for delta in deltas:
        ours = monotonic_bsp_partition(grid, weight_fn, delta)
        lazy = LazyTilingTables(grid, weight_fn)
        assert_same_tiling(ours, lazy_monotonic_bsp_tiling(lazy, delta))
        assert_same_tiling(ours, reference_monotonic_bsp(grid, weight_fn, delta))
        assert_same_tiling(monotonic_bsp_tiling(full, delta), ours)
        tables = TilingTables(grid, weight_fn, delta)
        ids = {rect: rect_id for rect_id, rect in enumerate(map(tuple, tables.rects.tolist()))}
        assert len(ids) == len(tables.rects)
        assert set(lazy.rects) <= set(ids)
        for rect_id, children in enumerate(lazy._children):
            if children is not None:
                at = ids[lazy.rects[rect_id]]
                kids = tables.children[tables.offsets[at]:tables.offsets[at + 1]].tolist()
                assert [tuple(tables.rects[kid].tolist()) for kid in kids] == \
                    lazy_children(lazy, rect_id)


def test_the_closure_is_what_a_lazy_search_meets_on_the_diagonal():
    """At delta = 0 every rectangle of two or more cells splits, and the lazy
    search meets all 246 minimal rectangles of the 8 x 8 diagonal band (ascending
    and mirrored): the closure holds those and no more."""
    index = np.arange(8)
    candidate = np.abs(index[:, None] - index[None, :]) <= 1
    grid = WeightedGrid(candidate.astype(np.float64), np.ones(8), np.ones(8), candidate)
    for view in (grid, mirrored(grid)):
        lazy = LazyTilingTables(view, WeightFunction())
        lazy_monotonic_bsp_tiling(lazy, 0.0)
        tables = TilingTables(view, WeightFunction(), 0.0)
        assert set(map(tuple, tables.rects.tolist())) == set(lazy.rects)
        assert len(tables.rects) == 246


def kernel_tables(grid: WeightedGrid = TIE_GRID):
    """A closure's lookups and child table, and its leaf thresholds."""
    tables = TilingTables(grid, WeightFunction(), -np.inf)
    return tables, list(tables._lookups)


def test_closures_and_tilings_it_does_not_take_raise():
    tables, lookups = kernel_tables()
    closure_args = (*lookups, False, lambda keys: np.ones(len(keys), dtype=bool))
    rows, grid_rows = lookups[0].size, lookups[3].size
    for at, name in enumerate(("rows", "lo", "hi", "below", "above", "first", "last")):
        args = list(closure_args)
        args[at] = lookups[at].astype(np.float64)
        with pytest.raises(TypeError, match=f"closure: {name} is float64, not int64"):
            native.closure(*args)
    with pytest.raises(ValueError, match=f"closure: {rows - 1} rows but {rows} lo and {rows} hi"):
        native.closure(lookups[0][:-1], *closure_args[1:])
    below_above = f"closure: below / above have {grid_rows - 1} / {grid_rows} rows"
    with pytest.raises(ValueError, match=below_above):
        native.closure(*lookups[:3], lookups[3][:-1], *closure_args[4:])
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="closure: a 0 x 3 grid"):
        native.closure(*lookups[:3], empty, empty, *closure_args[5:])
    wide = np.zeros(65_537, dtype=np.int64)
    with pytest.raises(ValueError, match="closure: a 3 x 65537 grid"):
        native.closure(*lookups[:5], wide, wide - 1, *closure_args[7:])
    outside = lookups[3].copy()
    outside[0] = 7
    with pytest.raises(ValueError, match="closure: a lookup points outside the table"):
        native.closure(*lookups[:3], outside, *closure_args[4:])
    strided = np.repeat(lookups[1], 2)[::2]
    with pytest.raises(ValueError, match="closure: lo is strided, not C-contiguous"):
        native.closure(lookups[0], strided, *closure_args[2:])
    with pytest.raises(ValueError, match="closure: split said"):
        native.closure(*lookups, False, lambda keys: np.ones(len(keys) + 1, dtype=bool))

    args = (tables.offsets, tables.children, tables.leaf_thresholds, 0, 50.0, 50.0,
            len(tables.rects), 0, SEARCH_TOLERANCE)
    expected = native.tile(*args)
    expected = (*expected[:2], expected[2].tolist(), expected[3])
    with pytest.raises(TypeError, match="tile: offsets is float64, not int64"):
        native.tile(tables.offsets.astype(np.float64), *args[1:])
    with pytest.raises(TypeError, match="tile: leaf_thresholds is float32, not float64"):
        native.tile(*args[:2], tables.leaf_thresholds.astype(np.float32), *args[3:])
    rects = len(tables.rects)
    with pytest.raises(ValueError, match=f"tile: {rects} offsets for {rects} rectangles"):
        native.tile(tables.offsets[:-1], *args[1:])
    for root in (-1, len(tables.rects)):
        with pytest.raises(ValueError, match=f"tile: root {root} is not one"):
            native.tile(*args[:3], root, *args[4:])
    with pytest.raises(ValueError, match="tile: low is NaN"):
        native.tile(*args[:4], float("nan"), *args[5:])
    bad = tables.children.copy()
    bad[tables.offsets[1] - 1] = len(tables.rects)
    with pytest.raises(ValueError, match="tile: an offset or a child lies outside what it indexes"):
        native.tile(tables.offsets, bad, *args[2:4], -np.inf, -np.inf, *args[6:])
    unsplit = tables.offsets.copy()
    unsplit[1] = unsplit[0]
    with pytest.raises(ValueError, match="tile: .* no split"):
        native.tile(unsplit, *args[1:4], -np.inf, -np.inf, *args[6:])
    # No threshold up to the root's weight tiles it in one region of a
    # grid whose cells each outweigh the low end.
    with pytest.raises(ValueError, match="tile: no threshold up to high tiles root in 1 regions"):
        native.tile(*args[:4], 0.0, 1.0, 1, *args[7:])
    # A child table that is no closure's: each half of a split is the same
    # rectangle, so a count doubles down every level.  It passes the
    # rectangles, which no tiling's regions outnumber, before it can pass
    # int64 (70 levels).
    for levels in (3, 70):
        doubling = (np.minimum(2 * np.arange(levels + 1), 2 * levels - 2),
                    np.repeat(np.arange(1, levels), 2), np.r_[np.full(levels - 1, 5.0), -np.inf])
        with pytest.raises(ValueError, match="tile: .* the regions outnumber the rectangles"):
            native.tile(*doubling, 0, 0.0, 0.0, 10, 0, SEARCH_TOLERANCE)
    # Read-only inputs are read; nothing above moved what a tiling returns.
    frozen = [array.copy() for array in args[:3]]
    for array in frozen:
        array.flags.writeable = False
    found = native.tile(*frozen, *args[3:])
    assert (*found[:2], found[2].tolist(), found[3]) == expected
    with pytest.raises(ValueError, match="below the"):
        monotonic_bsp_tiling(TilingTables(TIE_GRID, WeightFunction(), 50.0), 49.0)


# ----------------------------------------------------------------------
# The grid's on-demand tables
# ----------------------------------------------------------------------
def build_tables(grid: WeightedGrid) -> WeightedGrid:
    """Read every table the grid builds on demand, so all of them exist."""
    grid._row_prefix, grid._col_prefix, grid._freq_prefix, grid._cand_prefix
    grid._row_cand_spans
    return grid


def grid_copies(grid: WeightedGrid) -> list[WeightedGrid]:
    """The grid, its transpose as coarsening builds it (F-ordered views) and a copy."""
    transposed = WeightedGrid(grid.frequency.T, grid.col_input, grid.row_input,
                              grid.candidate.T)
    return [grid, transposed, dataclasses.replace(grid), dataclasses.replace(transposed)]


def same_float(ours: float, expected) -> bool:
    return float(ours).hex() == float(expected).hex()


@given(grid=monotone_grids(max_side=9))
@settings(max_examples=40, deadline=None)
def test_derived_tables_match_the_eager_formulas(grid):
    """Totals, rectangle sums and spans == the eager tables, before or after the grid's."""
    assert grid_copies(grid)[1].frequency.flags.f_contiguous
    for tables_first in (False, True):
        for view in grid_copies(dataclasses.replace(grid)):
            if tables_first:
                build_tables(view)
            reference = _Primitives(view, WeightFunction())
            assert same_float(view.total_output, reference._freq_prefix[-1, -1])
            assert same_float(view.total_input,
                              reference._row_prefix[-1] + reference._col_prefix[-1])
            assert view.num_candidate_cells == reference._cand_prefix[-1, -1]
            for row in range(view.num_rows):
                lo, hi = reference._row_cand_lo[row], reference._row_cand_hi[row]
                expected = None if lo < 0 else (lo, hi)
                assert view.row_candidate_span(row) == expected
            for (r1, r2), (c1, c2) in itertools.product(
                itertools.combinations_with_replacement(range(view.num_rows), 2),
                itertools.combinations_with_replacement(range(view.num_cols), 2),
            ):
                region = GridRegion(r1, r2, c1, c2)
                assert same_float(view.region_output(region), reference.region_output(region))
                assert view.candidate_count(region) == reference.candidate_count(region)


@given(grid=monotone_grids(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       machines=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_a_plan_does_not_depend_on_which_tables_exist(grid, weight_fn, machines):
    fresh, built = dataclasses.replace(grid), build_tables(dataclasses.replace(grid))
    ours, theirs = (coarsen(g, machines, weight_fn=weight_fn) for g in (fresh, built))
    assert ours.row_groups.tolist() == theirs.row_groups.tolist()
    assert ours.col_groups.tolist() == theirs.col_groups.tolist()
    assert ours.iterations == theirs.iterations
    assert same_float(ours.max_cell_weight, theirs.max_cell_weight)
    ours, theirs = (regionalize(g, machines, weight_fn) for g in (fresh, built))
    assert ours.regions == theirs.regions
    assert same_float(ours.delta, theirs.delta)
    assert same_float(ours.max_region_weight, theirs.max_region_weight)
    assert ours.search_steps == theirs.search_steps


# ----------------------------------------------------------------------
# Coarsening on the band
# ----------------------------------------------------------------------
def same_bits(ours: np.ndarray, expected: np.ndarray) -> bool:
    expected = np.ascontiguousarray(expected)
    return ours.shape == expected.shape and ours.tobytes() == expected.tobytes()


@given(grid=st.one_of(monotone_grids(), span_monotone_grids()),
       weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       row_groups=st.integers(1, 8), col_groups=st.integers(1, 8))
@example(grid=span_grid([-1, 0, 1, -1, 2, 4, -1], [-1, 2, 3, -1, 4, 4, -1], 5, [(1, 1), (4, 3)]),
         weight_fn=WeightFunction(1.0, 1.0), row_groups=3, col_groups=2)
@example(grid=span_grid([-1, -1], [-1, -1], 3), weight_fn=WeightFunction(1.0, 0.2),
         row_groups=2, col_groups=2)
@settings(max_examples=120, deadline=None)
def test_the_band_coarsens_as_the_dense_grid_does(grid, weight_fn, row_groups, col_groups):
    """A grid's band (holes split a row's run in two, empty rows have none)
    is the grid again; its totals, heaviest cells and the band loop's
    aggregates by column and by row group are the dense reduceats' floats;
    and coarsening it is the dense reference's coarsening, boundary for
    boundary."""
    band = BandGrid.from_dense(grid)
    view = dense_grid(band)
    assert same_bits(view.frequency, grid.frequency)
    np.testing.assert_array_equal(view.candidate, grid.candidate)
    transposed = WeightedGrid(grid.frequency.T, grid.col_input, grid.row_input, grid.candidate.T)
    assert band.num_candidate_cells == grid.num_candidate_cells
    assert same_float(band.total_output, grid.total_output)
    assert same_float(band.transposed_total_output, transposed.total_output)
    assert same_float(band.total_input, grid.total_input)
    for candidates_only in (True, False):
        assert same_float(band.max_cell_weight(weight_fn, candidates_only),
                          grid.max_cell_weight(weight_fn, candidates_only))
    col_bounds = even_boundaries(grid.num_cols, min(col_groups, grid.num_cols))
    row_bounds = even_boundaries(grid.num_rows, min(row_groups, grid.num_rows))
    for ours, expected in (
        (band_group_columns(band, col_bounds), _aggregate_columns(grid, col_bounds)),
        (band_group_rows(band, row_bounds), _aggregate_columns(transposed, row_bounds)),
    ):
        assert all(same_bits(*pair) for pair in zip(ours, expected))
    try:
        reference = reference_coarsen(grid, row_groups, col_groups, weight_fn)
    except RuntimeError:  # a one-group sweep rounding above the total, as above
        return
    ours = coarsen(band, row_groups, col_groups, weight_fn)
    assert ours.row_groups.tolist() == reference.row_groups.tolist()
    assert ours.col_groups.tolist() == reference.col_groups.tolist()
    assert ours.iterations == reference.iterations
    assert same_float(ours.max_cell_weight, reference.max_cell_weight)
    assert same_bits(ours.grid.frequency, reference.grid.frequency)
    np.testing.assert_array_equal(ours.grid.candidate, reference.grid.candidate)


# ----------------------------------------------------------------------
# Coarsening sweep
# ----------------------------------------------------------------------
@st.composite
def sweep_inputs(draw):
    """Column-aggregated sweep inputs: zero-input rows, candidate-free runs."""
    rows = draw(st.integers(1, 40))
    groups = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cand = np.where(rng.random((rows, groups)) < 0.5,
                    rng.integers(1, 4, size=(rows, groups)), 0).astype(np.float64)
    # Runs of rows with neither candidates nor input exercise the
    # all-zero-accumulator escape, at the top and after a closed group.
    blank = rng.random(rows) < draw(st.sampled_from([0.0, 0.2, 0.6]))
    cand[blank] = 0.0
    freq = np.where(cand > 0, rng.random((rows, groups)) * 20.0, 0.0)
    row_input = np.where(blank | (rng.random(rows) < 0.2), 0.0, rng.random(rows) * 10.0)
    col_input = np.where(rng.random(groups) < 0.2, 0.0, rng.random(groups) * 10.0)
    return freq, cand, row_input, col_input


def kernel_sweep(freq, cand, row_input, col_input, weight_fn, threshold, max_groups):
    """The kernel's one pass at ``threshold`` over the sweep inputs' grid,
    held to the band loop's pass to the bit: its coarsening.

    The sweep inputs are a grid whose columns are their groups (each column
    group one column: its aggregates are the inputs themselves, and ``cand
    > 0`` the candidates).  One pass between the ends ``threshold`` and
    ``threshold`` sweeps the rows there only, and the columns' sweep, with a
    group for every column, always fits; so the pass's row bounds are the
    row sweep's, or one group where it does not fit, and they are the
    result's unless the pass leaves the even starting grid the lighter.
    """
    band = BandGrid.from_dense(WeightedGrid(freq, row_input, col_input, cand > 0))
    ends = (threshold, threshold, threshold)
    ours = kernel_coarsen(band, weight_fn, max_groups, band.num_cols, ends, 1)
    assert_same_coarsening(ours, band_coarsen(band, max_groups, band.num_cols, weight_fn,
                                              ends, 1))
    return ours


def check_kernel_sweep(*args) -> int:
    """Assert the kernel's sweep at ``args`` is the row loop's, at their
    ``max_groups`` and at exactly the groups the row loop needs there
    (where the even grid of as many groups is the likelier to be heavier):
    wherever the kernel's bounds reach its result they are the loop's, or
    one group where the loop finds no cover.  One group is never searched,
    so it checks nothing there.  Returns at how many of the two the bounds
    reached it."""
    *inputs, max_groups = args
    rows = len(inputs[2])
    reached = 0
    for groups in {max_groups, len(reference_sweep_rows(*inputs, rows)) - 1}:
        if min(groups, rows) == 1:
            continue
        bounds = reference_sweep_rows(*inputs, groups)
        expected = [0, rows] if bounds is None else bounds.tolist()
        ours = kernel_sweep(*inputs, groups).row_groups.tolist()
        if ours != even_boundaries(rows, min(groups, rows)).tolist():
            assert ours == expected
            reached += 1
    return reached


def block_weights(freq, cand, row_input, col_input, weight_fn, start, stop):
    """Candidate block weights of rows ``start..stop-1``, summed like the sweep does."""
    acc_freq, acc_input = freq[start].copy(), float(row_input[start])
    for row in range(start + 1, stop):
        acc_freq = acc_freq + freq[row]
        acc_input = acc_input + row_input[row]
    weights = weight_fn.input_cost * (acc_input + col_input) + weight_fn.output_cost * acc_freq
    return weights[cand[start:stop].sum(axis=0) > 0]


@given(inputs=sweep_inputs(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       fraction=st.floats(0.0, 1.0), max_groups=st.integers(1, 12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_sweep_matches_the_row_loop(inputs, weight_fn, fraction, max_groups, data):
    freq, cand, row_input, col_input = inputs
    rows = len(row_input)
    everything = block_weights(freq, cand, row_input, col_input, weight_fn, 0, rows)
    candidates = [fraction * float(everything.max(initial=0.0))]
    # A threshold exactly equal to some block's weight: `<=` must keep the row.
    start = data.draw(st.integers(0, rows - 1))
    stop = data.draw(st.integers(start + 1, rows))
    candidates.extend(block_weights(freq, cand, row_input, col_input, weight_fn, start, stop))
    for threshold in candidates:
        args = (freq, cand, row_input, col_input, weight_fn, float(threshold), max_groups)
        ours, reference = numpy_sweep_rows(*args), reference_sweep_rows(*args)
        if reference is None:
            assert ours is None
        else:
            assert ours is not None and ours.dtype == reference.dtype
            assert ours.tolist() == reference.tolist()
        check_kernel_sweep(*args)


def test_sweep_runs_out_of_groups_exactly_when_the_row_loop_does():
    """``max_groups`` exhaustion: None below the group count, boundaries at
    it, for the numpy sweep, the row loop and the kernel."""
    rng = np.random.default_rng(7)
    rows, groups = 60, 4
    cand = np.ones((rows, groups))
    freq = rng.random((rows, groups)) * 5.0
    row_input = rng.random(rows) + 0.5
    col_input = rng.random(groups)
    weight_fn = WeightFunction(1.0, 0.3)
    threshold = 12.0
    unlimited = reference_sweep_rows(freq, cand, row_input, col_input, weight_fn, threshold, rows)
    needed = len(unlimited) - 1
    assert needed > 3
    for max_groups in (2, needed - 1, needed, needed + 1):
        args = (freq, cand, row_input, col_input, weight_fn, threshold, max_groups)
        ours, reference = numpy_sweep_rows(*args), reference_sweep_rows(*args)
        assert (reference is None) == (max_groups < needed)
        assert (ours is None) == (reference is None)
        # Every cover at 12.0 is lighter than the even grid's: the kernel's
        # bounds reach the result at each group count it finds one for.
        assert check_kernel_sweep(*args) == len({max_groups, needed}) - (reference is None)
        if reference is not None:
            assert ours.tolist() == reference.tolist() == unlimited.tolist()


@st.composite
def edged_sweep_inputs(draw):
    """Sweep inputs with candidate-free rows at the start, in the middle and at
    the end, and zero-input rows wherever a group may open."""
    freq, cand, row_input, col_input = (array.copy() for array in draw(sweep_inputs()))
    rows = len(row_input)
    blank = np.zeros(rows, dtype=bool)
    blank[: draw(st.integers(0, rows // 3))] = True
    blank[rows - draw(st.integers(0, rows // 3)):] = True
    middle = draw(st.integers(0, rows - 1))
    blank[middle : middle + draw(st.integers(0, 3))] = True
    cand[blank] = 0.0
    freq[blank] = 0.0
    row_input[np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))] = 0.0
    return freq, cand, row_input, col_input


def met_weights(freq, cand, row_input, col_input, weight_fn, bounds) -> list:
    """Every candidate block weight a sweep ending in ``bounds`` compares with
    its threshold (each group's rows up to and including the one closing it),
    summed as the sweep sums them."""
    met = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for end in range(start + 1, min(stop + 1, len(row_input)) + 1):
            met.extend(block_weights(freq, cand, row_input, col_input, weight_fn, start, end))
    return met


@given(inputs=edged_sweep_inputs(), weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       fraction=st.floats(0.0, 1.0), data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_kernel_sweeps_as_numpy_and_the_row_loop_do(inputs, weight_fn, fraction, data):
    """The numpy sweep == the row loop == the kernel's sweep, boundary for
    boundary and on running out of groups (the kernel's bounds wherever
    they reach its result).  Thresholds are the exact block weights a sweep
    meets, so every ``>`` meets its tie."""
    freq, cand, row_input, col_input = inputs
    rows = len(row_input)
    first = fraction * float(
        block_weights(freq, cand, row_input, col_input, weight_fn, 0, rows).max(initial=0.0)
    )
    bounds = reference_sweep_rows(freq, cand, row_input, col_input, weight_fn, first, rows)
    met = met_weights(freq, cand, row_input, col_input, weight_fn, bounds)
    thresholds = [first, *data.draw(st.lists(st.sampled_from(met), max_size=4) if met
                                    else st.just([]))]
    max_groups = data.draw(st.integers(min(2, rows), rows))
    for threshold in thresholds:
        args = (row_input, col_input, weight_fn, float(threshold), max_groups)
        reference = reference_sweep_rows(freq, cand, *args)
        ours = numpy_sweep_rows(freq, cand, *args)
        if reference is None:
            assert ours is None
        else:
            assert ours.dtype == reference.dtype
            assert ours.tolist() == reference.tolist()
        check_kernel_sweep(freq, cand, *args)


# ----------------------------------------------------------------------
# The kernel's coarsening against the band loop it replaced
# ----------------------------------------------------------------------
def assert_same_coarsening(ours, reference) -> None:
    """Bounds, passes, the heaviest cell and every array of the coarse grid, to the bit."""
    assert ours.row_groups.dtype == reference.row_groups.dtype == np.int64
    assert ours.row_groups.tolist() == reference.row_groups.tolist()
    assert ours.col_groups.tolist() == reference.col_groups.tolist()
    assert ours.iterations == reference.iterations
    assert same_float(ours.max_cell_weight, reference.max_cell_weight)
    for name in ("frequency", "row_input", "col_input"):
        assert same_bits(getattr(ours.grid, name), getattr(reference.grid, name)), name
    np.testing.assert_array_equal(ours.grid.candidate, reference.grid.candidate)


#: A grid whose column search finds no cover: its one row group's input,
#: summed as reduceat sums it, rounds above the total the search ends at,
#: so every column outweighs the end and three columns need three groups;
#: the columns take one group.
NO_COVER_GRID = WeightedGrid(np.zeros((3, 3)), [1e6, 0.009000000000000001, 0.002], [0.0] * 3,
                             np.ones((3, 3), dtype=bool))
#: One row of 300 candidates whose frequencies span twelve decades: the
#: sums along it split as numpy's pairwise sum splits (at 144, a multiple
#: of 8), and another split rounds otherwise.
LONG_GRID = WeightedGrid(
    [[10.0 ** (column % 13 - 6) * (1.0 + column / 7.0) for column in range(300)]],
    [1.0], np.linspace(0.0, 3.0, 300), np.ones((1, 300), dtype=bool),
)
#: Every cell a candidate and the two sides' inputs apart by decades.
SIDES_GRID = WeightedGrid(np.arange(20.0).reshape(4, 5), [1.0, 0.0, 3.0, 1e4],
                          [2.0, 7.5, 0.0, 0.5, 1e-3], np.ones((4, 5), dtype=bool))


@given(grid=st.one_of(monotone_grids(), span_monotone_grids()),
       weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       row_groups=st.integers(1, 16), col_groups=st.integers(1, 16))
@example(grid=NO_COVER_GRID, weight_fn=WeightFunction(), row_groups=1, col_groups=2)
@example(grid=LONG_GRID, weight_fn=WeightFunction(1.0, 0.2), row_groups=1, col_groups=1)
@example(grid=WeightedGrid(LONG_GRID.frequency.T.copy(), LONG_GRID.col_input,
                          LONG_GRID.row_input, LONG_GRID.candidate.T.copy()),
         weight_fn=WeightFunction(1.0, 0.2), row_groups=1, col_groups=1)
@example(grid=SIDES_GRID, weight_fn=WeightFunction(1.0, 0.2), row_groups=1, col_groups=1)
@example(grid=SIDES_GRID, weight_fn=WeightFunction(0.7, 0.0), row_groups=9, col_groups=9)
@example(grid=span_grid([-1, -1], [-1, -1], 3), weight_fn=WeightFunction(1.0, 0.2),
         row_groups=2, col_groups=2)
@example(grid=TIE_GRID, weight_fn=WeightFunction(1.0, 1.0), row_groups=2, col_groups=2)
@settings(max_examples=300, deadline=None)
def test_the_kernel_coarsens_as_the_band_loop_does(grid, weight_fn, row_groups, col_groups):
    """``coarsen`` (one kernel call) == the band loop it replaced, to the
    bit: one group per axis, more groups than a side has, an empty band, no
    output cost, and the search that finds no cover, where both take one
    group."""
    band = BandGrid.from_dense(grid)
    assert_same_coarsening(coarsen(band, row_groups, col_groups, weight_fn),
                           band_coarsen(band, row_groups, col_groups, weight_fn))


def kernel_coarsen(band: BandGrid, weight_fn: WeightFunction, row_groups: int,
                   col_groups: int, ends: tuple, max_iterations: int = MAX_ITERATIONS,
                   max_midpoints: int = MAX_MIDPOINTS):
    """``native.coarsen`` at the searches' ends ``ends``, as a ``CoarseningResult``."""
    rows, cols, frequency, row_input, col_input, candidate, weight, passes = native.coarsen(
        band.row_input, band.col_input, band.run_ptr, band.run_lo, band.run_hi,
        band.entry_ptr, band.entry_col, band.entry_value, weight_fn.input_cost,
        weight_fn.output_cost, row_groups, col_groups, *ends, max_iterations, max_midpoints,
        SEARCH_TOLERANCE,
    )
    return CoarseningResult(WeightedGrid(frequency, row_input, col_input, candidate),
                            rows, cols, weight, passes)


#: Three rows and a search between 99 and 100, whose gap is exactly its
#: stopping tolerance (1.0 = 0.01 * 100.0): it must stop there, with the
#: rows' cover at 100 ({0, 1}, {2}, weighing 99.75).  One more midpoint,
#: 99.5, would fit the lighter cover {0}, {1, 2} (99.25).
STOP_GRID = WeightedGrid(np.zeros((3, 1)), [50.0, 49.75, 49.5], [0.0],
                         np.ones((3, 1), dtype=bool))


@given(grid=st.one_of(monotone_grids(max_side=10), span_monotone_grids()),
       weight_fn=st.sampled_from(WEIGHT_FUNCTIONS),
       row_groups=st.integers(1, 6), col_groups=st.integers(1, 6),
       scales=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
       budget=st.sampled_from([(MAX_ITERATIONS, MAX_MIDPOINTS), (0, 25), (1, 0), (2, 3)]),
       fixed_ends=st.none())
@example(grid=STOP_GRID, weight_fn=WeightFunction(), row_groups=2, col_groups=1,
         scales=(1.0, 1.0, 1.0), budget=(MAX_ITERATIONS, MAX_MIDPOINTS),
         fixed_ends=(99.0, 100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_the_kernel_searches_as_the_band_loop_does_between_any_ends(
        grid, weight_fn, row_groups, col_groups, scales, budget, fixed_ends):
    """The kernel and the band loop handed the same ends -- scaled from the
    grid's own, so a search may find no cover, start above its end or stop
    at once, or fixed where the gap ties the stopping tolerance -- and the
    same budget of passes and midpoints: the same coarsening, one group on
    an axis where no threshold fits."""
    band = BandGrid.from_dense(grid)
    low, row_high, col_high = band_search_ends(band, weight_fn)
    top = max(row_high, col_high)
    ends = fixed_ends or (scales[0] * top, scales[1] * top, scales[2] * top)
    assert_same_coarsening(
        kernel_coarsen(band, weight_fn, row_groups, col_groups, ends, *budget),
        band_coarsen(band, row_groups, col_groups, weight_fn, ends, *budget),
    )
