"""Properties: every view of every condition agrees with the directly stated predicate.

Production conditions state each predicate once, as joinable bounds plus a
candidate grid, and derive the rest.  ``tests/reference_conditions.py``
holds each class's scalar test and grid as they were stated before, so the
checks here are independent of the kernel: every count path
(``count_join_output``, a 1-Bucket batch join and a broadcast ``matches_many``)
equals the brute-force reference count, for every condition kind and its
``transposed``, on float keys with NaN / ±inf / −0.0 / subnormals, int32,
int64 around 2**53 and at the int64 extremes, uint64, and integer keys
meeting float keys.  Candidate grids, and the bounds of finite float keys,
equal the reference bit for bit.  A NaN key joins nothing, a strict
inequality at the end of the domain it looks towards (±inf, the int64
extremes) joins nothing, integer keys above 2**53 are compared exactly
under every condition with an integral width, and an integer key meeting a
fractional float key is compared as a float.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_conditions import reference, reference_count

from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.engine.cluster import run_partitioned_join
from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.joins.local import count_join_output
from repro.partitioning.hash_repartition import build_hash_repartitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.streaming import (
    ArrayStreamSource,
    StaticOneBucketPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
)

LT, LE, GT, GE = (InequalityJoinCondition(op) for op in InequalityOp)
BASES = [
    BandJoinCondition(beta=0.3),
    BandJoinCondition(beta=1.0),
    BandJoinCondition(beta=2),
    EquiJoinCondition(),
    LT,
    LE,
    GT,
    GE,
    CompositeEquiBandCondition(beta=1.0, scale=100.0, band_key_max=40.0),
]
CONDITIONS = BASES + [condition.transposed for condition in BASES]

SPECIAL_FLOATS = [
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
    0.1, 0.3, 0.4, 1.0, 1.3, -1.0, 1.7976931348623157e308,
]
KEY_STYLES = {
    "float": st.one_of(
        st.sampled_from(SPECIAL_FLOATS), st.integers(-8, 8).map(lambda k: k / 4)
    ),
    "int32": st.one_of(
        st.integers(-6, 6), st.sampled_from([-(2**31), 2**31 - 1])
    ),
    # Neighbours around 2**53, where float64 can no longer tell them apart.
    "int64": st.integers(-4, 4).map(lambda k: 2**53 + k)
    | st.integers(-3, 3)
    | st.integers(-4, 4).map(lambda k: -(2**53) + k),
    "uint64": st.integers(0, 6)
    | st.integers(-4, 4).map(lambda k: 2**53 + k)
    | st.just(2**62),
    # The ends of the int64 domain, where a strict step has nowhere to go
    # and ``k +- beta`` leaves the range.  Inequalities and bands with an
    # integral width draw them (a fractional width bounds integers in float64).
    "int64 extremes": st.integers(-3, 3)
    | st.sampled_from([2**63 - 1, 2**63 - 2, -(2**63), -(2**63) + 1]),
    # Small integers are exact in float64, so they may meet a float side.
    "small int": st.integers(-6, 6),
}
DTYPES = {
    "float": np.float64,
    "int32": np.int32,
    "int64": np.int64,
    "uint64": np.uint64,
    "int64 extremes": np.int64,
    "small int": np.int64,
}
#: (R1 style, R2 style): one style on both sides, or integers meeting floats.
STYLE_PAIRS = [
    (style, style) for style in ("float", "int32", "int64", "uint64", "int64 extremes")
] + [("small int", "float"), ("float", "small int")]


def _inexact_width(condition) -> bool:
    """A fractional band width, which bounds integer keys in float64."""
    base = getattr(condition, "base", condition)
    return isinstance(base, BandJoinCondition) and isinstance(base.rule()[1], float)


def _exact_at_the_extremes(condition) -> bool:
    """An inequality, or a band (or its transposition) of integral width."""
    base = getattr(condition, "base", condition)
    if isinstance(base, InequalityJoinCondition):
        return True
    return type(base) in (BandJoinCondition, EquiJoinCondition) and not _inexact_width(base)


@st.composite
def joins(draw):
    """A condition and two key arrays of one style pair."""
    condition = draw(st.sampled_from(CONDITIONS))
    style1, style2 = draw(st.sampled_from(STYLE_PAIRS))
    # A fractional width rounds integer keys above 2**53 through float64;
    # the Python reference compares them exactly, so the two cannot agree.
    assume(not (_inexact_width(condition) and style1 in ("int64", "uint64")))
    assume(style1 != "int64 extremes" or _exact_at_the_extremes(condition))
    keys1 = np.array(draw(st.lists(KEY_STYLES[style1], max_size=24)), dtype=DTYPES[style1])
    keys2 = np.array(draw(st.lists(KEY_STYLES[style2], max_size=24)), dtype=DTYPES[style2])
    return condition, keys1, keys2


@settings(max_examples=400, deadline=None)
@given(join=joins())
def test_every_count_path_equals_the_reference_count(join):
    condition, keys1, keys2 = join
    expected = reference_count(condition, keys1, keys2)
    with np.errstate(invalid="raise"):  # no NaN reaches the arithmetic
        assert count_join_output(keys1, keys2, condition) == expected
        batch = run_partitioned_join(build_one_bucket_partitioning(4), keys1, keys2, condition)
        assert batch.total_output == expected
        assert condition.matches_many(keys1[:, None], keys2[None, :]).sum() == expected


@settings(max_examples=200, deadline=None)
@given(
    condition=st.sampled_from(CONDITIONS),
    row_edges=st.lists(st.sampled_from(SPECIAL_FLOATS[1:]) | st.floats(-3, 3), min_size=2, max_size=8),
    col_edges=st.lists(st.sampled_from(SPECIAL_FLOATS[1:]) | st.floats(-3, 3), min_size=2, max_size=8),
)
def test_candidate_grids_are_the_reference_grids(condition, row_edges, col_edges):
    """Ascending edges, ±inf among them; every cell bit for bit."""
    rows, cols = np.sort(row_edges), np.sort(col_edges)
    edges = rows[:-1], rows[1:], cols[:-1], cols[1:]
    grid = condition.candidate_grid(*edges)
    expected = reference(condition).candidate_grid(*edges)
    assert grid.dtype == expected.dtype == bool
    np.testing.assert_array_equal(grid, expected)
    for i, j in np.ndindex(*grid.shape):
        assert condition.cell_is_candidate(rows[i], rows[i + 1], cols[j], cols[j + 1]) == grid[i, j]


@settings(max_examples=200, deadline=None)
@given(
    condition=st.sampled_from(CONDITIONS),
    keys=st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 1.7976931348623157e308])
        | st.floats(-1e6, 1e6),
        max_size=16,
    ),
)
def test_bounds_of_finite_float_keys_are_the_reference_bounds(condition, keys):
    keys = np.array(keys, dtype=np.float64)
    for ours, theirs in zip(
        condition.joinable_bounds(keys), reference(condition).joinable_bounds(keys)
    ):
        assert ours.dtype == theirs.dtype == np.float64
        np.testing.assert_array_equal(ours.view(np.int64), theirs.view(np.int64))


@pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
def test_a_nan_key_joins_nothing(condition):
    lows, highs = condition.joinable_bounds(np.array([np.nan, 1.0, np.nan]))
    assert np.isnan(lows[[0, 2]]).all() and (highs[[0, 2]] == np.inf).all()
    assert count_join_output([np.nan, 1.0], [np.nan, 1.0, np.inf], condition) == (
        reference_count(condition, [1.0], [1.0, np.inf])
    )
    assert not condition.matches(np.nan, 1.0) and not condition.matches(1.0, np.nan)
    assert condition.matches_many(np.array([np.nan]), np.array([np.nan])).tolist() == [False]


def test_the_reported_nan_counts():
    assert count_join_output([np.nan, 1.0], [np.nan, 1.0], BandJoinCondition(1.0)) == 1
    assert count_join_output([np.nan], [1.0], GT) == 0
    assert count_join_output([1.0], [np.nan], LT.transposed) == 0


def test_nothing_lies_beyond_an_infinity():
    assert count_join_output([np.inf], [np.inf], LT) == 0
    assert count_join_output([-np.inf], [-np.inf], GT) == 0
    assert LT.joinable_interval(np.inf)[0] != LT.joinable_interval(np.inf)[0]  # NaN
    # The non-strict operators and the other infinity still join.
    assert count_join_output([np.inf], [np.inf], LE) == 1
    assert count_join_output([-np.inf], [np.inf, 1.0], LT) == 2
    assert count_join_output([np.inf], [-np.inf, 1.0], GT) == 2


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_inequalities_compare_integers_above_2_53_exactly(dtype):
    low, high = np.array([2**53], dtype=dtype), np.array([2**53 + 1], dtype=dtype)
    assert count_join_output(low, high, LT) == 1
    assert count_join_output(low, high, GE) == 0
    assert count_join_output(high, low, LT.transposed) == 1
    assert count_join_output(high, low, GE.transposed) == 0
    lows, _ = LT.joinable_bounds(low)
    assert lows.dtype == np.int64 and lows[0] == 2**53 + 1


@pytest.mark.parametrize("condition", [BandJoinCondition(beta=1), BandJoinCondition(beta=1).transposed])
def test_a_band_saturates_at_the_int64_extremes(condition):
    """``k +- beta`` past the int64 range must not wrap the interval inside out."""
    top, bottom = np.iinfo(np.int64).max, np.iinfo(np.int64).min
    high = np.array([top, top - 1, 5], dtype=np.int64)
    low = np.array([bottom, bottom + 1], dtype=np.int64)
    assert count_join_output(high, high, condition) == 5
    assert count_join_output(low, low, condition) == 4
    lows, highs = condition.joinable_bounds(np.array([top, bottom], dtype=np.int64))
    assert highs.tolist()[0] == top and lows.tolist()[1] == bottom


def test_nothing_lies_beyond_the_int64_extremes():
    top, bottom = 2**63 - 1, -(2**63)
    keys = np.array([bottom, 0, top])
    assert count_join_output([top], keys, LT) == 0
    assert count_join_output([bottom], keys, GT) == 0
    assert count_join_output([top], keys, LE) == 1
    assert count_join_output(keys, [top], LT.transposed) == 0
    # Unsigned keys count through their int64 image: no wrap below zero.
    assert count_join_output(np.array([top], np.uint64), np.array([0, top], np.uint64), LT) == 0
    assert count_join_output(np.array([0], np.uint64), np.array([0, 5], np.uint64), GT) == 0


@pytest.mark.parametrize("condition", [LT, LE, GT, GE, LT.transposed, GT.transposed], ids=repr)
def test_integers_meet_a_float_side_as_floats(condition):
    ints, floats = np.array([4, 5, 6]), np.array([4.5, 5.0, 5.5])
    for keys1, keys2 in ((ints, floats), (floats, ints)):
        expected = reference_count(condition, keys1, keys2)
        assert count_join_output(keys1, keys2, condition) == expected
        assert condition.count_matches_per_key(keys1, np.sort(keys2)).sum() == expected
        assert condition.matches_many(keys1[:, None], keys2[None, :]).sum() == expected
    assert LT.matches(5, 5.5) and GT.matches(6, 5.5)
    assert not LT.matches(6, 5.5) and not GT.matches(5, 5.5)


# ----------------------------------------------------------------------
# The NaN stream, end to end
# ----------------------------------------------------------------------
def _nan_stream():
    """400 keys per side, NaN at every 37th / 41st position, one +inf per side."""
    rng = np.random.default_rng(0)
    keys1 = rng.integers(0, 20, 400).astype(float)
    keys2 = rng.integers(0, 20, 400).astype(float)
    keys1[::37] = np.nan
    keys2[::41] = np.nan
    keys1[5] = keys2[7] = np.inf
    return keys1, keys2


STREAM_CONDITIONS = [BandJoinCondition(1.0), GT, InequalityJoinCondition(InequalityOp.LT)]
STREAM_COUNTS = [21_735, 75_339, 68_821]


def _stream_run(condition, backend=None):
    keys1, keys2 = _nan_stream()
    engine = StreamingJoinEngine(
        4, condition, BAND_JOIN_WEIGHTS,
        policy=StaticOneBucketPolicy(4), backend=backend, seed=0,
    )
    return engine.run(ArrayStreamSource(keys1, keys2, num_batches=8))


@pytest.mark.parametrize(
    "condition,expected", zip(STREAM_CONDITIONS, STREAM_COUNTS), ids=repr
)
def test_the_nan_stream_counts_exactly_in_process(condition, expected):
    assert reference_count(condition, *_nan_stream()) == expected
    with np.errstate(invalid="raise"):
        result = _stream_run(condition)
    assert result.total_output == result.expected_output == expected
    assert result.output_correct


@pytest.mark.multiprocess
@pytest.mark.parametrize(
    "condition,expected", zip(STREAM_CONDITIONS, STREAM_COUNTS), ids=repr
)
def test_the_nan_stream_counts_exactly_on_sticky_workers(condition, expected):
    with StickyWorkerBackend(max_workers=2) as backend:
        result = _stream_run(condition, backend)
    assert result.total_output == result.expected_output == expected
    assert result.output_correct


@pytest.mark.parametrize("condition", [LT, GT, LE], ids=repr)
def test_an_int_by_float_stream_counts_exactly(condition):
    """Integer R1 keys against fractional float R2 keys, in both orientations."""
    rng = np.random.default_rng(0)
    keys1 = rng.integers(0, 20, 300)
    keys2 = rng.integers(0, 40, 300) / 2
    engine = StreamingJoinEngine(
        4, condition, BAND_JOIN_WEIGHTS, policy=StaticOneBucketPolicy(4), seed=0
    )
    result = engine.run(ArrayStreamSource(keys1, keys2, num_batches=8))
    assert result.total_output == result.expected_output == reference_count(
        condition, keys1, keys2
    )
    assert result.output_correct


@pytest.mark.parametrize(
    "condition,expected", zip(STREAM_CONDITIONS, STREAM_COUNTS), ids=repr
)
def test_the_nan_stream_counts_exactly_as_a_batch_join(condition, expected):
    keys1, keys2 = _nan_stream()
    plans = [build_one_bucket_partitioning(4)]
    if isinstance(condition, BandJoinCondition):
        plans.append(build_hash_repartitioning(4, band_width=condition.beta))
    for plan in plans:
        # Hash routing rounds keys to integers, which NaN and ±inf have none of.
        with np.errstate(invalid="ignore"):
            result = run_partitioned_join(
                plan, keys1, keys2, condition, np.random.default_rng(1)
            )
        assert result.total_output == expected, plan


#: The IEEE specials a condition meets on purpose: both infinities (a
#: histogram's open ends, stream keys) and the largest double either way.
EXTREMES = np.array([np.inf, -np.inf, np.finfo(float).max, -np.finfo(float).max, 0.0])


@pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
def test_bounds_at_the_infinities_and_the_largest_double_raise_no_warning(condition):
    """Strict steps past the largest double and the band inverses there.

    ``nextafter(max, inf)`` is ``inf`` and the transposed band's inverse of
    ``+-inf`` and ``+-max`` steps past ``max``: none may warn, and every
    bound is the reference's, bit for bit (the reference's own numpy
    nudges overflow, so its warnings are silenced here).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = condition.joinable_bounds(EXTREMES)
        counted = count_join_output(EXTREMES, EXTREMES, condition)
    with np.errstate(all="ignore"):
        theirs = reference(condition).joinable_bounds(EXTREMES)
    joins = ~np.isnan(ours[0])  # keys that join nothing get the empty interval
    for mine, expected in zip(ours, theirs):
        np.testing.assert_array_equal(mine[joins].view(np.int64), expected[joins].view(np.int64))
    assert counted == reference_count(condition, EXTREMES.tolist(), EXTREMES.tolist())


@pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
def test_a_grid_between_infinite_edges_raises_no_warning(condition):
    """``inf - inf`` between a cell's edges is NaN, and such a cell stays a candidate."""
    edges = np.array([-np.inf, -np.finfo(float).max, 0.0, np.finfo(float).max, np.inf])
    cells = edges[:-1], edges[1:], edges[:-1], edges[1:]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = condition.candidate_grid(*cells)
    with np.errstate(all="ignore"):
        expected = reference(condition).candidate_grid(*cells)
    np.testing.assert_array_equal(grid, expected)
    assert grid[-1, -1] and grid[0, 0]  # [max, inf] x [max, inf], [-inf, -max] x [-inf, -max]


BETAS = [0.0, 0.3, 1.0, 2.5, 1e16, 1e300, 5e-324, 1e-310, np.finfo(float).max, np.inf]


@settings(max_examples=300, deadline=None)
@given(
    beta=st.sampled_from(BETAS),
    keys=st.lists(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf])
        | st.sampled_from([np.finfo(float).max, -np.finfo(float).max, 2.0**53, 1e-300])
        | st.floats(allow_nan=False)
        | st.integers(-3, 3).map(float),
        max_size=24,
    ),
)
def test_the_band_inverse_kernel_is_the_numpy_inverse(beta, keys):
    """Bit for bit: keys of every scale, the band width itself and its
    negation and their neighbours (where a nudge cannot settle and the
    kernel bisects), the infinities and the largest double, for widths from
    zero through subnormal to infinite.  No warning from the kernel."""
    if np.isfinite(beta):
        with np.errstate(over="ignore"):
            for edge in (beta, -beta):
                keys += [edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)]
    keys = np.array(keys, dtype=np.float64)
    condition = BandJoinCondition(beta=beta).transposed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = condition.joinable_bounds(keys)
    with np.errstate(all="ignore"):
        theirs = reference(condition).joinable_bounds(keys)
    for mine, expected in zip(ours, theirs):
        np.testing.assert_array_equal(mine.view(np.int64), expected.view(np.int64))
