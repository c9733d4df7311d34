"""``native.search`` against ``np.searchsorted``, on both sides.

The plan build's searches run through one kernel entry point, which must
answer exactly as ``np.searchsorted(keys, needles, side)`` does for
ascending keys in numpy's order: NaN last, ``-0.0 == 0.0``, the
infinities ordinary.  Here every ascending key array of up to five keys
over seven floats -- both infinities, -1, both zeros, 1 and NaN -- meets
every needle sequence of up to three of them, which holds ascending,
equal, descending and NaN-led orders, so both of the kernel's paths (the
walk of needles that never descend, the branch-free bisection of any
others) answer every case; int64 keys do the same over the extremes, -1,
0 and 1.  A hypothesis property takes the same check to a few thousand
keys with repeats, needles ascending or shuffled.  Keys that do not
ascend have no numpy answer to match, but are read only within their
bounds: every answer lies in ``[0, len(keys)]``, and CI runs this module
under AddressSanitizer, where a read past the keys is a report.

Planted in a scratch copy of the kernel, these mutants are caught here:
``<`` for ``<=`` in the right side's bisection step (a needle equal to a
key answers at it, not past it), and a NaN needle answering ``size`` on
the left (past a NaN tail, not at it).  The order pass that picks the path
reading ``<`` the other way round (a strict ascent, so equal needles
bisect) changes no answer and survives: both paths are exact for needles
in any order, and the pass only chooses the faster one.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import native

FLOATS = (-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan)
INTS = (np.iinfo(np.int64).min, -1, 0, 1, np.iinfo(np.int64).max)


def _ascending(values: np.ndarray) -> bool:
    """Whether ``values`` ascend in numpy's order (NaN last, the zeros equal)."""
    return np.array_equal(np.sort(values), values, equal_nan=True)


def _mismatches(alphabet, dtype, longest_keys: int, longest_needles: int) -> "tuple[int, list]":
    """Every ascending key array over ``alphabet`` against every needle sequence."""
    cases, wrong = 0, []
    needle_sets = [
        np.array(needles, dtype=dtype)
        for length in range(longest_needles + 1)
        for needles in itertools.product(alphabet, repeat=length)
    ]
    for length in range(longest_keys + 1):
        for keys in itertools.product(alphabet, repeat=length):
            keys = np.array(keys, dtype=dtype)
            if not _ascending(keys):
                continue
            for needles in needle_sets:
                for right in (False, True):
                    got = native.search(keys, needles, right)
                    want = np.searchsorted(keys, needles, "right" if right else "left")
                    cases += 1
                    if got.dtype != np.int64 or not np.array_equal(got, want):
                        wrong.append((keys.tolist(), needles.tolist(), right, got, want))
    return cases, wrong


def test_every_small_float_search_is_numpys():
    cases, wrong = _mismatches(FLOATS, np.float64, 5, 3)
    assert cases > 100_000
    assert not wrong, f"{len(wrong)} of {cases} searches differ from numpy's, first {wrong[:3]}"


def test_every_small_int64_search_is_numpys():
    cases, wrong = _mismatches(INTS, np.int64, 5, 3)
    assert cases > 10_000
    assert not wrong, f"{len(wrong)} of {cases} searches differ from numpy's, first {wrong[:3]}"


def test_keys_that_do_not_ascend_are_read_within_their_bounds():
    """Any order of up to four keys, any needles: each answer is a position."""
    for length in range(5):
        for keys in itertools.product(FLOATS, repeat=length):
            keys = np.array(keys)
            for needles in itertools.product(FLOATS, repeat=2):
                for right in (False, True):
                    got = native.search(keys, np.array(needles), right)
                    assert ((got >= 0) & (got <= length)).all(), (keys, needles, right, got)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 3_000),
    count=st.integers(0, 3_000),
    distinct=st.integers(1, 5_000),
    ascending=st.booleans(),
    integers=st.booleans(),
)
def test_a_few_thousand_keys_search_as_numpy_does(
    seed, size, count, distinct, ascending, integers
):
    """Keys with repeats (and, as floats, NaN, -0.0 and the infinities),
    needles drawn from the keys and beside them, in order or shuffled."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(-distinct, distinct, size)
    needles = np.concatenate([rng.choice(keys, count // 2) if size else keys[:0],
                              rng.integers(-distinct - 2, distinct + 2, count - count // 2)])
    if not integers:
        keys, needles = keys * 0.5, needles * 0.5
        for array in (keys, needles):
            specials = rng.integers(0, len(array) + 1, 4)
            array[specials[specials < len(array)]] = rng.choice(
                [np.nan, -0.0, np.inf, -np.inf], int((specials < len(array)).sum())
            )
    keys.sort()
    if ascending:
        needles.sort()
    else:
        rng.shuffle(needles)
    for right in (False, True):
        want = np.searchsorted(keys, needles, "right" if right else "left")
        np.testing.assert_array_equal(native.search(keys, needles, right), want)


def test_the_answers_take_the_needles_shape():
    keys = np.arange(10.0)
    needles = np.array([[2.5, 9.0], [-1.0, np.nan]])
    got = native.search(keys, needles, True)
    assert got.shape == (2, 2) and got.dtype == np.int64
    np.testing.assert_array_equal(got, np.searchsorted(keys, needles, "right"))
