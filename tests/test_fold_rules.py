"""Differential tests: the fold's bound rules and cascades against the Python path they replaced.

``repro.joins.native.fold`` takes a half as its routed needles and the
condition's bound rule (``JoinCondition.bound_rule``, handed over by
``repro.joins.local.fold_half``) and bounds the needles itself, and takes
each group's runs and arrivals and settles the cascade itself, returning
the run list the state holds next.  The oracle is the path that did both
in Python, kept in the test harness: ``reference_counting.search_half``
(one ``joinable_bounds`` pass per half and key dtype, in the needles'
common dtype with the runs), counted by ``reference_counting.count_half``,
and ``reference_state.cascade`` merged by ``reference_state.merge_sorted``
(``reference_state.committed``).  Per-machine counts must be equal and
every committed run equal byte for byte, over:

* every kind of ``CONDITION_KINDS`` -- band, equi, composite and the
  inequality's ``<``, ``<=``, ``>``, ``>=`` -- and the transposed band;
* fractional widths, integral ones, an integral Python-int width above
  2**53 (exact in int64) and one past 2**62 (bounded in float64, as
  ``joinable_bounds`` bounds it);
* float64, int64 and uint64 keys on either side (uint64 past the int64
  range normalises to float64), so int64 needles meet float64 runs and
  float64 needles int64 runs;
* NaN, +-inf, -0.0 and 0.0, the int64 extremes and keys around 2**53;
* cascades that append, merge two runs or more, or cancel every count,
  shares empty or overlapping, slice rules anywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_counting
import reference_state
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.joins import native
from repro.joins.conditions import (
    CONDITION_KINDS,
    BandJoinCondition,
    make_condition,
    normalise_keys,
)
from repro.joins.local import count_join_output, fold_half
from repro.partitioning.grid_routed import MachineSlices

BIG = 2**53
FLOAT_POOL = np.array(
    [-0.0, 0.0, np.nan, -np.inf, np.inf, -1e308, 1e308, 2.0**53, 2.0**53 + 2]
    + [value / 2 for value in range(-8, 9)]
)
INT_POOL = np.array(
    [-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, BIG - 1, BIG, BIG + 1, BIG + 2, BIG + 3]
    + list(range(-8, 9)),
    dtype=np.int64,
)
#: uint64 keys within the int64 range (they normalise to int64) and past it
#: (float64).
UINT_POOL = np.array([0, 1, 2, 3, 5, 8, BIG, BIG + 1, 2**63 - 1], dtype=np.uint64)
BIG_UINT_POOL = np.array([0, 1, 3, BIG + 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
POOLS = {"float64": FLOAT_POOL, "int64": INT_POOL, "uint64": UINT_POOL, "big_uint64": BIG_UINT_POOL}

CONDITIONS = [
    make_condition("band", beta=1.5),
    make_condition("band", beta=2),
    make_condition("band", beta=0.25),
    make_condition("band", beta=BIG + 1),  # a Python int above 2**53: exact in int64
    make_condition("band", beta=2**62 + 5),  # past the integral path: float64 bounds
    make_condition("equi"),
    make_condition("composite", beta=1.0, scale=100.0, band_key_max=40.0),
    make_condition("composite", beta=0.5, scale=100.0, band_key_max=40.0),
    *(make_condition("inequality", op=op) for op in ("<", "<=", ">", ">=")),
]
CONDITIONS += [condition.transposed for condition in CONDITIONS if isinstance(condition, BandJoinCondition)]

KEY = st.integers(0, 63)
RUN = st.tuples(
    st.sampled_from(["fresh", "counted", "tombstone"]),
    st.lists(st.tuples(KEY, st.integers(-2, 3)), max_size=12),
)
#: A cascade: the group's runs and its arrivals.
CASCADE = st.tuples(st.lists(RUN, max_size=3), st.lists(KEY, max_size=5))
#: A group: its own runs, the cascade it reads (-1: none; modulo the
#: cascades) and its readers (modulo the machines).
GROUP = st.tuples(
    st.lists(RUN, max_size=2), st.integers(-1, 1), st.lists(st.integers(0, 4), max_size=3)
)


def test_every_condition_kind_is_covered():
    kinds = {condition.__class__.__name__ for condition in CONDITIONS}
    assert len(CONDITION_KINDS) == 4 and {
        "BandJoinCondition", "EquiJoinCondition", "InequalityJoinCondition",
        "CompositeEquiBandCondition", "_TransposedBandCondition",
    } <= kinds


def _sorted(keys: np.ndarray) -> np.ndarray:
    """Keys ascending, NaN last."""
    return np.sort(keys)


def _run(pool: np.ndarray, kind: str, entries):
    """One ``(keys, cum)`` run of the normalised pool: fresh, counted (any counts) or tombstone."""
    keys = _sorted(pool[[key % pool.size for key, _ in entries]])
    if kind == "fresh":
        return keys, None
    if kind == "tombstone":
        return keys, -np.arange(keys.size + 1, dtype=np.int64)
    return keys, np.concatenate([[0], np.cumsum([count for _, count in entries])]).astype(np.int64)


def _same_runs(ours: list, theirs: list) -> None:
    assert len(ours) == len(theirs)
    for (keys, cum), (their_keys, their_cum) in zip(ours, theirs):
        assert keys.dtype == their_keys.dtype and keys.tobytes() == their_keys.tobytes()
        assert (cum is None) == (their_cum is None)
        if cum is not None:
            assert cum.tobytes() == their_cum.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    condition=st.sampled_from(CONDITIONS),
    needle_pool=st.sampled_from(sorted(POOLS)),
    run_pool=st.sampled_from(sorted(POOLS)),
    needles=st.lists(KEY, max_size=12),
    cascades=st.lists(CASCADE, max_size=2),
    groups=st.lists(GROUP, min_size=1, max_size=3),
    machines=st.integers(1, 4),
    shares=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), min_size=4, max_size=4),
    cut=st.none()
    | st.tuples(
        st.lists(KEY, min_size=1, max_size=3),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=4, max_size=4),
    ),
)
# An integral Python-int width above 2**53 on int64 keys: needle 1 joins
# 2**53 + 1 and 2**53 + 2 in int64, where float64 bounds (1.0 + 2.0**53 ==
# 2.0**53) would join one of them.
@example(
    condition=CONDITIONS[3],
    needle_pool="int64",
    run_pool="int64",
    needles=[18],
    cascades=[],
    groups=[([("fresh", [(6, 1), (7, 1)])], -1, [0])],
    machines=1,
    shares=[(0, 1)] * 4,
    cut=None,
)
# A strict inequality at the far end of each domain and a NaN needle: the
# empty interval, whatever the runs hold.
@example(
    condition=CONDITIONS[8],
    needle_pool="float64",
    run_pool="float64",
    needles=[4, 2, 3, 1, 0],
    cascades=[([("counted", [(4, 2), (2, 1)])], [4, 3, 0])],
    groups=[([("fresh", [(4, 1), (3, 1), (2, 1)])], 0, [0, 1])],
    machines=2,
    shares=[(0, 5), (1, 4), (0, 0), (0, 0)],
    cut=None,
)
# The cascade rule at its boundary: a run of exactly 8 keys before 1
# arrival holds RUN_MERGE_RATIO times what would merge, so the arrival is
# appended; 7 keys before it, and it merges.
@example(
    condition=CONDITIONS[1],
    needle_pool="float64",
    run_pool="float64",
    needles=[12, 17],
    cascades=[
        ([("fresh", [(key, 1) for key in range(9, 17)])], [17]),
        ([("counted", [(key, 1) for key in range(9, 16)])], [17]),
    ],
    groups=[([], 0, [0]), ([], 1, [1])],
    machines=2,
    shares=[(0, 2), (0, 2), (0, 0), (0, 0)],
    cut=None,
)
def test_a_rule_form_fold_is_the_bounds_path_it_replaced(
    condition, needle_pool, run_pool, needles, cascades, groups, machines, shares, cut
):
    """Every machine's total and every committed run, against search_half and the cascade."""
    pool = normalise_keys(POOLS[run_pool])
    needle_keys = normalise_keys(_sorted(POOLS[needle_pool][[key % POOLS[needle_pool].size for key in needles]]))
    count = needle_keys.size
    starts = np.array([start % (count + 1) for start, _ in shares[:machines]], dtype=np.int64)
    stops = np.array([stop % (count + 1) for _, stop in shares[:machines]], dtype=np.int64)
    folded = [
        ([_run(pool, kind, entries) for kind, entries in runs],
         _sorted(pool[[key % pool.size for key in arrivals]]))
        for runs, arrivals in cascades
    ]
    theirs_held = [reference_state.committed(runs, arrivals) for runs, arrivals in folded]
    slices = None
    if cut is not None:
        edges = np.sort(pool[~np.isnan(pool.astype(np.float64))].astype(np.float64))
        cut_keys = np.sort(edges[[key % edges.size for key in cut[0]]])
        bounds = cut_keys.size + 2
        slices = MachineSlices(
            cut_keys,
            np.array([at % bounds for at, _ in cut[1]], dtype=np.int64),
            np.array([at % bounds for _, at in cut[1]], dtype=np.int64),
        )
    ours_groups, their_groups = [], []
    for own, cascade, readers in groups:
        readers = np.array(sorted({reader % machines for reader in readers}), dtype=np.int64)
        runs = [_run(pool, kind, entries) for kind, entries in own]
        cascade = None if cascade < 0 or not folded else cascade % len(folded)
        ours_groups.append((runs, readers, slices, cascade))
        searched = runs + ([] if cascade is None else theirs_held[cascade])
        their_groups.append((searched, readers, None, pool.dtype))
    ours = np.full(machines, 7, dtype=np.int64)
    theirs = ours.copy()
    held = native.fold(folded, [fold_half(condition.bound_rule(), needle_keys, starts, stops, ours_groups)], ours)
    entries = reference_counting.search_half(condition, needle_keys, starts, stops, their_groups, slices)
    reference_counting.count_halves(entries, [], theirs)
    np.testing.assert_array_equal(ours, theirs)
    assert len(held) == len(theirs_held)
    for mine, expected in zip(held, theirs_held):
        _same_runs(mine, expected)


@pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
def test_every_kind_counts_its_whole_join_as_the_bounds_path_does(condition):
    """One reader, one run per pool pair: ``count_join_output`` (a rule-form fold)
    equals the reference's ``joinable_bounds`` count, for every dtype pairing."""
    for needle_pool in POOLS.values():
        for run_pool in POOLS.values():
            keys = normalise_keys(run_pool)
            lows, highs = reference_counting._bounds(condition, needle_pool, keys.dtype)
            out = np.zeros(1, dtype=np.int64)
            reference_counting.count_task(np.sort(keys), None, lows, highs, out)
            assert count_join_output(needle_pool, run_pool, condition) == out[0]


def test_an_integral_width_above_2_53_stays_exact():
    """The rule hands the width over as an int: 2**53 + 1 is not rounded to 2**53."""
    band = make_condition("band", beta=BIG + 1)
    assert band.bound_rule() == ("band", BIG + 1)
    needles = np.array([1], dtype=np.int64)
    keys = np.array([BIG + 1, BIG + 2], dtype=np.int64)
    assert count_join_output(needles, keys, band) == 2
    # Past the integral path the width is a float, and so are the bounds.
    wide = make_condition("band", beta=2**62 + 5)
    assert wide.bound_rule() == ("band", float(2**62 + 5))
    assert band.transposed.bound_rule() == ("band_inverse", BIG + 1)
    assert make_condition("band", beta=1.5).transposed.bound_rule() == ("band_inverse", 1.5)
    assert make_condition("inequality", op="<").bound_rule() == ("<", 0)
