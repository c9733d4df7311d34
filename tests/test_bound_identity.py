"""The kernel's joinable bounds against the conditions' numpy twins, bit for bit.

``JoinCondition.joinable_bounds`` is ``normalise_keys`` and one
``repro.joins.native.bounds`` call on the condition's one rule
(``JoinCondition.rule``).  The oracle is the numpy bounds production held
before, kept whole as each condition's twin in
``tests/reference_conditions.py``: a band's ``k -+ beta`` (exact, saturating
int64 under an integral width below 2**62, float64 otherwise), the
transposed band's exact inverses, an inequality's float and int64 bounds,
and the joins-nothing rule (NaN, a strict key at the far end of its
domain).  Bounds are compared as ``view(np.int64)``, so NaN and -0.0 count,
in their dtype and shape, over:

* every kind of ``CONDITION_KINDS`` and the transposed band;
* float64, int64 and uint64 keys (uint64 past the int64 range normalises
  to float64), with NaN, +-inf, -0.0, the largest double, the int64
  extremes and the neighbours of 2**53;
* 1-D keys, the 2-D broadcast column ``matches_many`` bounds
  (``keys[:, None]``), a general 2-D shape, 0-d keys and a strided view;
* widths fractional, integral, above 2**53 (an int, exact) and past 2**62
  (an int or a float, bounded in float64).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_conditions import reference

from repro.joins.conditions import CONDITION_KINDS, BandJoinCondition, make_condition

BIG = 2**53
INT64_MIN, INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
LARGEST = np.finfo(np.float64).max

FLOAT_KEYS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, LARGEST, -LARGEST,
                     2.0**53, 2.0**53 + 2, 2.0**62]),
    st.integers(-12, 12).map(lambda k: k / 4),
    st.floats(allow_nan=False),
)
INT_KEYS = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(-4, 4).map(lambda k: BIG + k),
    st.integers(-4, 4).map(lambda k: -BIG + k),
    st.integers(-8, 8),
)
UINT_KEYS = st.one_of(
    st.integers(0, 8),
    st.integers(-4, 4).map(lambda k: BIG + k),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1]),
)
KEYS = {"float64": (FLOAT_KEYS, np.float64), "int64": (INT_KEYS, np.int64),
        "uint64": (UINT_KEYS, np.uint64)}

#: Widths: fractional, integral (as an int and as a float), above 2**53 as
#: an int, and past 2**62 as an int and as a float.
WIDTHS = [0.25, 1.5, 0, 2, 3.0, BIG + 1, 2**62 + 5, 2.0**62 * 3]


@st.composite
def conditions(draw):
    """A condition of any kind and width, or a band's transpose."""
    kind = draw(st.sampled_from(CONDITION_KINDS))
    if kind == "equi":
        condition = make_condition("equi")
    elif kind == "inequality":
        condition = make_condition("inequality", op=draw(st.sampled_from(["<", "<=", ">", ">="])))
    elif kind == "band":
        condition = make_condition("band", beta=draw(st.sampled_from(WIDTHS)))
    else:
        beta = draw(st.sampled_from(WIDTHS))
        condition = make_condition("composite", beta=beta, scale=2.0**64 + 2 * beta,
                                   band_key_max=2.0**63)
    if isinstance(condition, BandJoinCondition) and draw(st.booleans()):
        condition = condition.transposed
    return condition


def _same_bounds(condition, keys: np.ndarray) -> None:
    ours = condition.joinable_bounds(keys)
    with np.errstate(all="ignore"):  # the twins' numpy nudges overflow on purpose
        theirs = reference(condition).joinable_bounds(keys)
    for mine, expected in zip(ours, theirs):
        assert mine.dtype == expected.dtype, (condition, keys)
        assert mine.shape == expected.shape == np.shape(keys), (condition, keys)
        assert mine.view(np.int64).tobytes() == expected.view(np.int64).tobytes(), (
            condition, keys, mine, expected,
        )


def test_every_condition_kind_is_drawn():
    assert CONDITION_KINDS == ("equi", "band", "inequality", "composite")


@settings(max_examples=400, deadline=None)
@given(
    condition=conditions(),
    dtype=st.sampled_from(sorted(KEYS)),
    data=st.data(),
)
def test_joinable_bounds_are_the_twins_bounds(condition, dtype, data):
    """1-D, a broadcast column, a 2-D block, one key (0-d) and a strided view."""
    strategy, numpy_dtype = KEYS[dtype]
    keys = np.array(data.draw(st.lists(strategy, max_size=16)), dtype=numpy_dtype)
    _same_bounds(condition, keys)
    _same_bounds(condition, keys[:, None])
    _same_bounds(condition, keys[: keys.size // 2 * 2].reshape(-1, 2))
    _same_bounds(condition, keys[::2])
    if keys.size:
        _same_bounds(condition, keys[0])
