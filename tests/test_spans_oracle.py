"""The kernel's candidate spans against the numpy search they replaced.

``JoinCondition.candidate_spans`` is one call of ``repro.joins.native.spans``:
two bisections per grid row on the condition's rule, evaluated in C as
numpy evaluates it.  The multi-way numpy search it replaced is kept in
``tests/reference_spans.py`` (``kary_spans``, over each condition's numpy
rule), and here the two must give every row the same ``[first, stop)``.

The exhaustive part takes every ascending boundary array of 0-4 cells over
``{-inf, -1, -0.0, 0.0, 1, +inf}`` for both axes, under a band of every
width in ``{0, 5e-324, 1, 1e300, inf}`` (the band family shares one
candidate test: the transposed band's rule, ``band_inverse``, is checked
too) and each inequality operator.  A row's
span reads only its own edges, so the rows of every row array are laid end
to end and searched in one call per column array and condition: each row
array is a stretch of that call, and so is each pair of rows that follow
one another in it.  A hypothesis property then takes grids of up to 600
rows, with specials mixed into ordinary keys.  Planted in a copy of the
kernel, ``>=`` for the band's ``>``, a bisection that stops one column
early and the two halves of the band swapped each fail both parts.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_spans import kary_spans

from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)

#: The edge values of the exhaustive grids, ascending (``-0.0`` before
#: ``0.0``: equal as keys, so either order ascends; this one is taken).
EDGES = (-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf)
WIDTHS = (0.0, 5e-324, 1.0, 1e300, np.inf)
CONDITIONS = (
    *(BandJoinCondition(beta=width) for width in WIDTHS),
    BandJoinCondition(beta=1.0).transposed,
    *(InequalityJoinCondition(op) for op in InequalityOp),
)


def _boundary_arrays(max_cells: int = 4) -> "list[np.ndarray]":
    """Every ascending boundary array of 0 to ``max_cells`` cells over :data:`EDGES`."""
    return [
        np.array(values)
        for length in range(1, max_cells + 2)
        for values in combinations_with_replacement(EDGES, length)
    ]


def _assert_same_spans(condition, row_lo, row_hi, col_lo, col_hi):
    first, stop = condition.candidate_spans(row_lo, row_hi, col_lo, col_hi)
    expected_first, expected_stop = kary_spans(condition, row_lo, row_hi, col_lo, col_hi)
    assert first.dtype == stop.dtype == np.int64
    np.testing.assert_array_equal(first, expected_first, err_msg=repr(condition))
    np.testing.assert_array_equal(stop, expected_stop, err_msg=repr(condition))


@pytest.mark.parametrize("condition", CONDITIONS, ids=repr)
def test_every_small_grid_over_the_specials_spans_as_the_numpy_search(condition):
    arrays = _boundary_arrays()
    assert len(arrays) == 461
    # Every row array's rows, end to end: 1,519 rows.
    row_lo = np.concatenate([boundaries[:-1] for boundaries in arrays])
    row_hi = np.concatenate([boundaries[1:] for boundaries in arrays])
    for columns in arrays:
        _assert_same_spans(condition, row_lo, row_hi, columns[:-1], columns[1:])


def test_the_band_family_names_one_rule():
    """Equi, composite and a band reach the kernel as the band rule with
    their width, the transposed band as its inverse with the same width,
    and an inequality as its own symbol."""
    band = BandJoinCondition(beta=2)
    assert band.rule() == ("band", 2)
    assert band.transposed.rule() == ("band_inverse", 2)
    assert EquiJoinCondition().rule() == ("band", 0)
    composite = CompositeEquiBandCondition(beta=1.5, scale=100.0, band_key_max=10.0)
    assert composite.rule() == ("band", 1.5)
    for op in InequalityOp:
        assert InequalityJoinCondition(op).rule() == (op.value, 0)


_SPECIALS = st.sampled_from([-np.inf, np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300])
_KEYS = st.one_of(
    st.floats(-50.0, 50.0),
    st.integers(-20, 20).map(float),
    st.floats(allow_nan=False),
    _SPECIALS,
)


def _drawn(size: int, seed: int) -> np.ndarray:
    """``size`` keys from a seeded mix: small integers (many ties), spread
    floats and the specials."""
    rng = np.random.default_rng(seed)
    specials = np.array([-np.inf, np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300])
    mixed = np.stack([
        rng.integers(-30, 30, size).astype(np.float64),
        rng.normal(0.0, 100.0, size),
        specials[rng.integers(0, specials.size, size)],
    ])
    return mixed[rng.choice(3, size, p=[0.45, 0.45, 0.1]), np.arange(size)]


def _ascending(min_size: int, max_size: int):
    """Ascending boundaries: a hypothesis list (shrinks), or a seeded draw of any size."""
    return st.one_of(
        st.lists(_KEYS, min_size=min_size, max_size=max_size),
        st.builds(_drawn, st.integers(min_size, max_size), st.integers(0, 2**32 - 1)),
    ).map(lambda keys: np.sort(np.array(keys, dtype=np.float64)))


@settings(max_examples=250, deadline=None)
@given(
    rows=_ascending(1, 601),
    columns=_ascending(1, 601),
    condition=st.one_of(
        st.sampled_from(CONDITIONS),
        st.one_of(st.floats(0.0, 1e308), _SPECIALS.map(abs)).map(
            lambda width: BandJoinCondition(beta=width)
        ),
    ),
)
def test_any_grid_spans_as_the_numpy_search(rows, columns, condition):
    """Up to 600 rows and columns, past the 64 columns where the numpy
    search takes three rounds; edges may repeat and reach the specials."""
    _assert_same_spans(condition, rows[:-1], rows[1:], columns[:-1], columns[1:])
