"""Differential tests: the kernel's fold against the stable-sort merge and the per-task count.

``repro.joins.native.fold`` does a stream batch's state work and count in
one C call: each cascade of runs merged into one counted run (a right fold
of two-way merges, the newest pair first), then each half -- every
machine's share of the routed needles, bounded by the condition's rule in
C, searched in each run it reads, the merged runs among them, clipped to
its slice of the run (cut by the slice rule in C) and summed into its
total.  The oracle is the steps as they ran before the kernel:
``reference_state.merge_sorted`` (one stable sort, byte for byte) for
every cascade, the bounds ``joinable_bounds`` gives
(``reference_counting._bounds``), then ``reference_counting.count_half``
(one task per run, each run cut by the slice rule's numpy form --
``MachineSlices`` called -- needles gathered segment after segment, two
``searchsorted`` passes, the clip ufuncs and a ``reduceat`` per reader)
over the runs each group searches.  Merged runs must be equal byte for
byte and totals equal, over:

* float64 and int64 keys, and int64 keys searched with float64 bounds
  (exact integer needles above 2**53 under a fractional band);
* the bound rules of a point (equi), an integral band, its transpose and
  two inequalities, one strict;
* NaN (two payloads), +-inf, -0.0 and 0.0 keys and needles in any order,
  the int64 extremes and keys around 2**53;
* cascades of one to four fresh, counted (negative counts too) and
  tombstone runs, tombstones that meet no tuple among them;
* groups of one reader (per-machine arrays) or several (1-Bucket's draw
  groups, an EWH plan's one group), each searching runs of its own, the
  run a cascade made, or both; shares empty, overlapping (a replicated
  needle is every reader's), nested or repeated; a slice rule with cut
  keys anywhere and slice bounds at any cut or either end, a stop now and
  then before its start; one half or two in a call;
* arrays passed as trimmed copies -- each its own allocation, so a read
  past its end is the sanitizers' to report -- and as views into larger
  parents whose spare entries would change the count if read;
* answers on either side of the search's walk (the keys it compares one
  at a time before it gallops): at its last key and one past it, at a NaN
  tail and at a run's end, for equal needles and a high bound answered
  at its low's answer -- named examples, and every ascending run of up to
  20 keys over five values and NaN under four rules.

A reader that is no machine, a share outside the needles and a slice
bound that indexes no cut raise by name, having written nothing.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import reference_counting
import reference_state
from reference_conditions import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.partitioning.grid_routed import MachineSlices

#: A NaN with the sign bit set: a second payload, so a merge that kept the
#: wrong NaN would differ in its bytes.
NEGATIVE_NAN = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
#: Float keys, -0.0 and 0.0 first (so an example can name them).
FLOAT_POOL = np.concatenate(
    [[-0.0, 0.0, np.nan, NEGATIVE_NAN, -np.inf, np.inf, -1e308, 1e308], np.arange(-8, 9) / 2.0]
)
NEG_ZERO, ZERO, NAN, INF = 0, 1, 2, 5
INT_POOL = np.array(
    list(range(-8, 9)) + [-(2**63), 2**63 - 1, 2**53, 2**53 + 1, 2**53 - 1], dtype=np.int64
)
#: Neighbours above 2**53, which float64 rounds onto each other.
BIG_POOL = 2**53 + np.arange(-6, 7, dtype=np.int64)
POOLS = {"float": FLOAT_POOL, "int": INT_POOL, "int_float_bounds": BIG_POOL}


def _at(value: float) -> int:
    """The FLOAT_POOL index of a multiple of 0.5 in [-4, 4] (an example's key)."""
    return 16 + int(2 * value)


def _fresh(*values: float):
    """A fresh run of FLOAT_POOL keys, each counted once (an example's run)."""
    return ("fresh", [(_at(value) if np.isfinite(value) else NAN, 1) for value in values])


#: -4, -3.5, ..., 4: 17 keys, so a search from 0 walks past 8 of them.
HALVES = [value / 2 for value in range(-8, 9)]

KEY = st.integers(0, 63)
#: The conditions whose bound rules a half takes: a point (equi: each
#: needle joins its own key, its high bound answered at its low's answer),
#: an integral band (int64 needles bounded in int64), its transpose (the
#: exact inverses), an inequality whose high bound is every run's end and a
#: strict one a step below each needle.  Under "int_float_bounds" keys a
#: band is fractional: int64 needles bounded in float64.
CONDITIONS = {
    "point": EquiJoinCondition(),
    "band": BandJoinCondition(beta=2),
    "inverse": BandJoinCondition(beta=2).transposed,
    "above": InequalityJoinCondition(InequalityOp.LE),
    "strictly below": InequalityJoinCondition(InequalityOp.GT),
}
FRACTIONAL = {"band": BandJoinCondition(beta=1.5), "inverse": BandJoinCondition(beta=1.5).transposed}
#: A run: its kind and (key, count) entries; a fresh or tombstone run's counts are its own.
RUN = st.tuples(
    st.sampled_from(["fresh", "counted", "tombstone"]),
    st.lists(st.tuples(KEY, st.integers(-2, 3)), max_size=8),
)
#: A group: its own runs, the cascade whose run it searches too (-1: none;
#: taken modulo the cascades), and its readers (modulo the machines).
GROUP = st.tuples(
    st.lists(RUN, max_size=2), st.integers(-1, 1), st.lists(st.integers(0, 5), max_size=4)
)


def _sorted(keys: np.ndarray) -> np.ndarray:
    """Keys ascending, NaN last, each NaN keeping its own payload."""
    if keys.dtype.kind != "f":
        return np.sort(keys)
    nan = keys != keys
    return np.concatenate([np.sort(keys[~nan]), keys[nan]])


def _copy(array: np.ndarray, trimmed: bool, spare) -> np.ndarray:
    """``array`` as its own exact-size allocation, or as a view into a larger parent.

    The parent's spare entries (``spare``) sit on both sides of the view, so
    a kernel that read past either end would count them.
    """
    if trimmed:
        return array.copy()
    parent = np.empty(array.size + 4, dtype=array.dtype)
    parent[:2] = parent[2 + array.size :] = spare
    parent[2 : 2 + array.size] = array
    return parent[2 : 2 + array.size]


def _run(pool: np.ndarray, kind: str, entries, trimmed: bool):
    """One ``(keys, cum)`` run: fresh, counted (any counts) or tombstone."""
    keys = _sorted(pool[[key % pool.size for key, _ in entries]].astype(pool.dtype))
    if kind == "fresh":
        cum = None
    elif kind == "tombstone":
        cum = -np.arange(keys.size + 1, dtype=np.int64)
    else:
        cum = np.concatenate([[0], np.cumsum([count for _, count in entries])]).astype(np.int64)
    keys = _copy(keys, trimmed, pool[0])
    return keys, None if cum is None else _copy(cum, trimmed, 10**6)


@settings(max_examples=400, deadline=None)
@given(
    keys=st.sampled_from(["float", "int", "int_float_bounds"]),
    cascades=st.lists(st.lists(RUN, min_size=1, max_size=4), max_size=2),
    groups=st.lists(GROUP, min_size=1, max_size=3),
    machines=st.integers(1, 5),
    needles=st.lists(KEY, max_size=10),
    condition=st.sampled_from(sorted(CONDITIONS)),
    shares=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=5, max_size=5),
    cut=st.none()
    | st.tuples(
        st.lists(KEY, min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=4, max_size=4),
    ),
    halves=st.integers(1, 2),
    trimmed=st.booleans(),
)
# A key the newer runs cancel (+1 0.0 fresh, -1 -0.0 tombstone, count 0
# between them) but an older run holds: merged, it counts once and keeps
# the newest run's bits, -0.0.  A fold that dropped the zero before the
# last step would keep the oldest run's 0.0.
@example(
    keys="float",
    cascades=[[("fresh", [(ZERO, 1)]), ("fresh", [(ZERO, 1)]), ("tombstone", [(NEG_ZERO, 1)])]],
    groups=[([], 0, [0])],
    machines=1,
    needles=[ZERO],
    condition="point",
    shares=[(0, 1)] * 5,
    cut=None,
    halves=1,
    trimmed=True,
)
# Two readers, machines 1 and 3, share every needle but read different
# slices of one run: machine 1 [cut 0, cut 1) = [1.0, 2.5), machine 3
# [cut 1, the end).  Needles 1.5 and 3.0 under a band of 2 count 6 in the
# first and 7 in the second: a reader clipped with another's slice (or its
# machine's entry of the slice rule) counts differently.
@example(
    keys="float",
    cascades=[],
    groups=[([("fresh", [(key, 1) for key in range(16, 25)])], -1, [1, 3])],
    machines=4,
    needles=[_at(1.5), _at(3.0)],
    condition="band",
    shares=[(0, 0), (0, 2), (0, 0), (0, 2), (0, 0)],
    cut=([16, 19], [(0, 1), (1, 3), (2, 2), (2, 2)]),
    halves=1,
    trimmed=True,
)
# Two readers whose shares leave a gap (needles 0-1 and 4-5): each needle
# is searched once, but every span of the union is, not just the first.
@example(
    keys="float",
    cascades=[],
    groups=[([("fresh", [(key, 1) for key in range(8, 25)])], -1, [0, 1])],
    machines=2,
    needles=list(range(10, 16)),
    condition="point",
    shares=[(0, 2), (4, 6), (0, 0), (0, 0), (0, 0)],
    cut=None,
    halves=1,
    trimmed=True,
)
# The search walks 8 keys past where it starts before it gallops.  0.0's
# answer from 0 is run A's last key walked (8), one past it in B (9) and
# past the walk in C (11, where a search that skipped the gallop would stop
# at 9); 4.0's is the last key walked from 0.0's answer, and its high bound
# each run's end, where the walk is clamped (trimmed copies, so a read past
# a run's end is the sanitizers' to report).
@example(
    keys="float",
    cascades=[],
    groups=[([_fresh(*HALVES), _fresh(-4, *HALVES), _fresh(-4, -4, -4, *HALVES)], -1, [0])],
    machines=1,
    needles=[_at(value) for value in (-4, 0, 4)],
    condition="point",
    shares=[(0, 3)] * 5,
    cut=None,
    halves=1,
    trimmed=True,
)
# A run with a NaN tail and a short one without: equal needles (-1 twice),
# a high bound answered at its low's answer (0.5, in neither run), an
# answer at the tail and at the run's end (4.0 and +inf; the short run's
# walk is clamped at its end), and a NaN needle (the empty interval: a NaN
# low under an infinite high).
@example(
    keys="float",
    cascades=[],
    groups=[([_fresh(-4, -3, -2, -1, 0, 1, 2, 3, 4, np.nan, np.nan), _fresh(-1, 0, 1)], -1, [0])],
    machines=1,
    needles=[_at(-1), _at(-1), _at(0.5), _at(4), INF, NAN],
    condition="point",
    shares=[(0, 6)] * 5,
    cut=None,
    halves=1,
    trimmed=True,
)
# Int64 keys above 2**53, each twice, under the float64 band bounds of
# sorted needles: the answers cross the walk from every start, and float64
# rounds neighbouring keys (and the bounds) onto each other.
@example(
    keys="int_float_bounds",
    cascades=[],
    groups=[([("fresh", [(key, 1) for key in range(13) for _ in range(2)])], -1, [0])],
    machines=1,
    needles=[0, 4, 5, 6, 10, 12],
    condition="band",
    shares=[(0, 6)] * 5,
    cut=None,
    halves=1,
    trimmed=True,
)
def test_count_half_is_the_per_task_count_summed_per_machine(
    keys, cascades, groups, machines, needles, condition, shares, cut, halves, trimmed
):
    """Merged runs byte for byte and every machine's total, written into its entry only."""
    pool = POOLS[keys]
    needle_keys = pool[[key % pool.size for key in needles]].astype(pool.dtype)
    if keys == "int_float_bounds":
        # Exact integer needles, sorted, against a fractional band: float
        # bounds, and the integer runs searched with them as float64.
        needle_keys = _sorted(needle_keys)
        condition = FRACTIONAL.get(condition, CONDITIONS[condition])
    else:
        condition = CONDITIONS[condition]
    lows, highs = reference_counting._bounds(condition, needle_keys, pool.dtype)
    count = needle_keys.size
    starts = np.array([start % (count + 1) for start, _ in shares[:machines]], dtype=np.int64)
    stops = np.array([stop % (count + 1) for _, stop in shares[:machines]], dtype=np.int64)

    # Cascades that merge every run (no arrivals): the stable-sort merge's subject.
    merges = [[_run(pool, kind, entries, trimmed) for kind, entries in cascade] for cascade in cascades]
    for runs in merges:
        if not any(run_keys.size for run_keys, _ in runs):  # the state never merges nothing
            runs.append(_run(pool, "fresh", [(0, 1)], trimmed))
    theirs_merged = [reference_state.merge_sorted(runs) for runs in merges]
    slices = None
    table_groups, reference_runs = [], []
    for own, merge, readers in groups:
        readers = np.array(sorted({reader % machines for reader in readers}), dtype=np.int64)
        runs = [_run(pool, kind, entries, trimmed) for kind, entries in own]
        merge = None if merge < 0 or not merges else merge % len(merges)
        if not runs and merge is None:
            continue  # a group with nothing to search is never handed over
        if cut is not None:
            cut_pool = FLOAT_POOL[~np.isnan(FLOAT_POOL)] if keys == "float" else pool.astype(np.float64)
            cut_keys = cut_pool[[key % cut_pool.size for key in cut[0]]]
            bounds = cut_keys.size + 2
            first = np.array([at % bounds for at, _ in cut[1]], dtype=np.int64)
            last = np.array([at % bounds for _, at in cut[1]], dtype=np.int64)
            slices = MachineSlices(
                _copy(cut_keys, trimmed, 0.0), _copy(first, trimmed, 0), _copy(last, trimmed, 0)
            )
        readers = _copy(readers, trimmed, 0)
        table_groups.append((runs, readers, slices, merge))
        searched = runs + ([] if merge is None or theirs_merged[merge] is None else [theirs_merged[merge]])
        reference_runs += [(run_keys, cum, readers, slices) for run_keys, cum in searched]
    starts, stops = _copy(starts, trimmed, 0), _copy(stops, trimmed, count)
    half = (_copy(needle_keys, trimmed, pool[0]), condition.rule(), starts, stops, table_groups)
    ours = np.full(machines, 7, dtype=np.int64)
    theirs = ours.copy()
    ours_merged = native.fold([(runs, None) for runs in merges], [half] * halves, ours)
    for _ in range(halves):
        reference_counting.count_half(lows, highs, starts, stops, reference_runs, theirs)
    np.testing.assert_array_equal(ours, theirs)
    assert len(ours_merged) == len(theirs_merged)
    for held, expected in zip(ours_merged, theirs_merged):
        if expected is None:
            assert held == []
            continue
        (mine,) = held
        assert mine[0].dtype == expected[0].dtype and mine[1].dtype == expected[1].dtype
        assert mine[0].tobytes() == expected[0].tobytes()
        assert mine[1].tobytes() == expected[1].tobytes()


def test_every_short_run_counts_as_the_reference_does():
    """Every ascending run of 0-20 keys over five values and NaN (NaN tails
    of every length among them), each read by a machine of its own, against
    sorted needles -- every key, a value between two keys, beyond either
    end, +-inf and NaN -- under four rules: a point (high bound the low),
    a band of 1 (low - 1 to low + 1), ``<=`` (high bound +inf) and ``>``
    (low bound -inf, high a step below), and a NaN needle's empty interval
    (NaN and +inf).  Answers fall at every position within the search's
    walk and past it, from every start."""
    domain = [-1.0, 0.0, 0.5, 1.0, 2.0, np.nan]
    needles = np.array(
        [-np.inf, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, np.inf, np.nan]
    )
    conditions = [
        EquiJoinCondition(), BandJoinCondition(beta=1),
        InequalityJoinCondition(InequalityOp.LE), InequalityJoinCondition(InequalityOp.GT),
    ]
    runs = [
        np.array(keys, dtype=np.float64)
        for size in range(21)
        for keys in itertools.combinations_with_replacement(domain, size)
    ]
    assert len(runs) == 230_230
    # Machine 4 r + c reads run r under condition c: its share is all the
    # needles in half c (one half per rule) and, for the reference, the
    # c-th block of the four rules' bounds laid end to end.
    bounds = [reference(condition).joinable_bounds(needles) for condition in conditions]
    lows, highs = (np.concatenate(side) for side in zip(*bounds))
    rules = len(conditions)
    for start in range(0, len(runs), 10_000):
        chunk = runs[start : start + 10_000]
        machines = np.arange(rules * len(chunk), dtype=np.int64)
        condition_of = machines % rules
        groups = [
            ([(keys, None)], machines[rules * m : rules * (m + 1)], None, None)
            for m, keys in enumerate(chunk)
        ]
        halves = [
            (
                needles,
                condition.rule(),
                np.zeros(machines.size, dtype=np.int64),
                np.where(condition_of == c, needles.size, 0),
                groups,
            )
            for c, condition in enumerate(conditions)
        ]
        ours = np.zeros(machines.size, dtype=np.int64)
        native.fold([], halves, ours)
        theirs = np.zeros(machines.size, dtype=np.int64)
        starts = condition_of * needles.size
        _reference(lows, highs, starts, starts + needles.size, groups, theirs)
        np.testing.assert_array_equal(ours, theirs)


#: The band whose rule the small half's needles take: each needle k joins [k - 1, k + 1].
_BAND = ("band", 1)


def _small_half():
    """Two machines, four needles, one fresh run of ten keys both read through a slice rule."""
    needles = np.arange(4.0) + 1
    starts, stops = np.array([0, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)
    readers = np.arange(2, dtype=np.int64)
    # Machine 0 reads [0, 4.5), machine 1 [2.5, the end).
    cut = MachineSlices(np.array([2.5, 4.5]), np.array([2, 0]), np.array([1, 3]))
    return needles, _BAND, starts, stops, [([(np.arange(10.0), None)], readers, cut, None)]


def _reference(lows, highs, starts, stops, groups, out) -> None:
    """``reference_counting.count_half`` over a half's groups of plain runs."""
    runs = [(keys, cum, readers, cut) for group_runs, readers, cut, _ in groups for keys, cum in group_runs]
    reference_counting.count_half(lows, highs, starts, stops, runs, out)


def _small_reference(needles, starts, stops, groups, out) -> None:
    """:func:`_reference` of the small half: its needles bounded by the band of 1."""
    _reference(needles - 1, needles + 1, starts, stops, groups, out)


def test_indices_out_of_range_raise_by_name_and_write_nothing():
    needles, rule, starts, stops, groups = _small_half()
    out = np.full(2, -7, dtype=np.int64)
    runs, readers, cut, _ = groups[0]
    cascade = ([(np.arange(3.0), None)], np.arange(2.0))
    refused = [
        ("fold: a reader's slice bound indexes no cut", (starts, stops, [(runs, readers, cut._replace(last=cut.last + 1), None)])),
        ("fold: a reader's slice bound indexes no cut", (starts, stops, [(runs, readers, cut._replace(first=cut.first - 3), None)])),
        ("fold: a group's reader is not one of the machines",
         (starts, stops, [(runs, readers + 1, cut, None)])),
        ("fold: a group's reader is not one of the machines",
         (starts, stops, [(runs, readers - 1, None, None)])),
        ("fold: a machine's share lies outside the needles", (starts, stops + 1, groups)),
        ("fold: a machine's share lies outside the needles", (starts - 1, stops, groups)),
    ]
    for message, (first, last, bad) in refused:
        with pytest.raises(ValueError, match=message):
            # A good group and a cascade first: the refusal comes before
            # anything is merged or counted.
            native.fold([cascade], [(needles, rule, first, last, groups + bad)], out)
        assert out.tolist() == [-7, -7]
    with pytest.raises(ValueError, match="fold: cascade 1 is not one of the 1 cascades"):
        native.fold([cascade], [(needles, rule, starts, stops, [(runs, readers, cut, 1)])], out)
    with pytest.raises(ValueError, match="fold: a cascade merges no run"):
        native.fold([([], None)], [(needles, rule, starts, stops, groups)], out)
    assert out.tolist() == [-7, -7]
    # A group with no run to search counts nothing.
    native.fold([], [(needles, rule, starts, stops, [([], readers, cut, None)])], out)
    assert out.tolist() == [-7, -7]
    native.fold([], [(needles, rule, starts, stops, groups)], out)
    expected = np.full(2, -7, dtype=np.int64)
    _small_reference(needles, starts, stops, groups, expected)
    assert out.tolist() == expected.tolist() != [-7, -7]


def test_inputs_it_does_not_take_raise():
    """Other dtypes and sizes, strided arrays, a read-only output, a rule
    the kernel does not bound by: a ``TypeError`` / ``ValueError`` naming
    the input, nothing written.  Read-only inputs are read."""
    needles, rule, starts, stops, groups = _small_half()
    runs, readers, cut, _ = groups[0]
    (keys, cum), = runs
    out = np.full(2, -7, dtype=np.int64)
    frozen = out.copy()
    frozen.flags.writeable = False

    def half(**changed):
        group = {"keys": keys, "cum": cum, "readers": readers, "cut": cut, **changed}
        return [([(group["keys"], group["cum"])], group["readers"], group["cut"], None)]

    refused = [
        (TypeError, "fold: needles is float32, not float64 or int64",
         (needles.astype(np.float32), rule, starts, stops, groups)),
        (TypeError, "fold: needles is uint64, not float64 or int64",
         (needles.astype(np.uint64), rule, starts, stops, groups)),
        (ValueError, "fold: rule is 'Band', not band, band_inverse, <, <=, > or >=",
         (needles, ("Band", 1), starts, stops, groups)),
        (TypeError, "fold: a rule's name is a int, not a str", (needles, (1, 1), starts, stops, groups)),
        (ValueError, "fold: a rule is 1 items, not 2", (needles, ("band",), starts, stops, groups)),
        (TypeError, "fold: beta is a str, not an int or a float",
         (needles, ("band", "1"), starts, stops, groups)),
        (ValueError, "fold: beta is nan, not a width", (needles, ("band", np.nan), starts, stops, groups)),
        (ValueError, "fold: beta is -1, not a width in int64", (needles, ("<", -1), starts, stops, groups)),
        (ValueError, "fold: beta is 18446744073709551616, not a width in int64",
         (needles, ("band", 2**64), starts, stops, groups)),
        (TypeError, "fold: starts is int32, not int64", (needles, rule, starts.astype(np.int32), stops, groups)),
        (ValueError, "fold: 2 starts and 1 stops for 2 machines", (needles, rule, starts, stops[:1], groups)),
        (TypeError, "fold: keys is int32, not float64 or int64",
         (needles, rule, starts, stops, half(keys=keys.astype(np.int32)))),
        (TypeError, "fold: readers is int32, not int64",
         (needles, rule, starts, stops, half(readers=readers.astype(np.int32)))),
        (ValueError, "fold: cum is 10 int64, not 11 int64",
         (needles, rule, starts, stops, half(cum=np.arange(10)))),
        (ValueError, "fold: a slice rule needs 2 firsts and lasts",
         (needles, rule, starts, stops, half(cut=cut._replace(first=cut.first[:1])))),
        (TypeError, "fold: last is int32, not int64",
         (needles, rule, starts, stops, half(cut=cut._replace(last=cut.last.astype(np.int32))))),
        (ValueError, "fold: keys is strided, not C-contiguous",
         (needles, rule, starts, stops, half(keys=np.arange(20.0)[::2]))),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            native.fold([], [args], out)
    with pytest.raises(ValueError, match="fold: out is read-only, not writable"):
        native.fold([], [(needles, rule, starts, stops, groups)], frozen)
    with pytest.raises(TypeError, match="fold: out is int32, not int64"):
        native.fold([], [(needles, rule, starts, stops, groups)], out.astype(np.int32))
    with pytest.raises(TypeError, match="fold: keys is float32, not float64 or int64"):
        native.fold([([(keys.astype(np.float32), None)], None)], [], out)
    with pytest.raises(TypeError, match="fold: keys is int64, not float64"):
        native.fold([([(keys, None), (keys.astype(np.int64), None)], None)], [], out)
    with pytest.raises(TypeError, match="fold: arrivals is int64, not float64"):
        native.fold([([(keys, None)], keys.astype(np.int64))], [], out)
    with pytest.raises(ValueError, match="fold: cum is 10 int64, not 11 int64"):
        native.fold([([(keys, None), (keys, np.arange(10))], None)], [], out)
    with pytest.raises(ValueError, match="fold: keys is strided, not C-contiguous"):
        native.fold([([(keys, None), (keys[::2], None)], None)], [], out)
    with pytest.raises(ValueError, match="fold: a cascade is 1 items, not 2"):
        native.fold([[(keys, None)]], [], out)
    cascade = [([(keys, None)], None)]
    with pytest.raises(TypeError, match="fold: cascade is a str, not an int"):
        native.fold(cascade, [(needles, rule, starts, stops, [([], readers, cut, "0")])], out)
    assert out.tolist() == [-7, -7]
    # int64 needles meet the float64 runs as the doubles they convert to.
    native.fold(cascade, [(needles.astype(np.int64), rule, starts, stops, [([], readers, cut, 0)])], out)
    expected = np.full(2, -7, dtype=np.int64)
    _small_reference(needles, starts, stops, groups, expected)
    assert out.tolist() == expected.tolist()
    out[:] = -7
    read_only = [array.copy() for array in (needles, starts, stops, keys, readers)]
    for array in read_only:
        array.flags.writeable = False
    frozen_needles, first, last, frozen_keys, frozen_readers = read_only
    held = native.fold(
        [([(frozen_keys, None), (frozen_keys, -np.arange(11, dtype=np.int64))], None)],
        [(frozen_needles, rule, first, last, [([(frozen_keys, cum)], frozen_readers, cut, None)])],
        out,
    )
    assert held == [[]]  # a tombstone of every key cancels them all
    assert out.tolist() == expected.tolist()
