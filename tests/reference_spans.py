"""Reference candidate spans: the multi-way numpy search the kernel replaced.

Test-only.  ``JoinCondition.candidate_spans`` is one call of the compiled
kernel (``repro.joins.native.spans``), which bisects each grid row on the
condition's rule.  Before it, the spans came from the vectorised search
kept here verbatim: each condition stated its rule as numpy arrays
(:func:`excluded`, the ``_excluded`` hook each class had), and a few
rounds tested evenly spaced columns inside every row's range of possible
answers at once, so the number of numpy calls did not grow with the grid
(:func:`kary_spans`).  ``tests/test_spans_oracle.py`` holds the kernel to
it row for row.
"""

from __future__ import annotations

import numpy as np

from repro.joins.conditions import (
    BandJoinCondition,
    InequalityJoinCondition,
    JoinCondition,
    _TransposedBandCondition,
)

#: Rounds of :func:`kary_spans`' search.  Each round tests ``b - 1``
#: columns per row, ``b`` the smallest base with ``b ** rounds`` at least
#: the column count plus one, and cuts each row's range of possible answers
#: to a ``b``-th.  A grid narrower than ``ONE_ROUND_COLUMNS`` takes one
#: round that tests every column: fewer numpy calls, over at most that many
#: columns per row.
SPAN_ROUNDS = 3
ONE_ROUND_COLUMNS = 64


def excluded(condition: JoinCondition, row_lo, row_hi, col_lo, col_hi):
    """The candidate rule, elementwise over broadcast cell edges.

    Returns ``(left, right)``: whether each cell lies left of every pair
    its row joins (even its highest key ``col_hi`` is too low) and whether
    it lies right of them (even ``col_lo`` is too high); ``None`` for a
    side the condition never excludes.  ``left`` reads only the row edges
    and ``col_hi``, ``right`` only the row edges and ``col_lo``, so one call
    can test two different columns per row.
    """
    if isinstance(condition, _TransposedBandCondition):
        condition = condition.base
    if isinstance(condition, BandJoinCondition):
        # inf - inf is NaN and NaN > beta false: a cell whose ranges reach
        # the same infinite key is never excluded; an overflowed difference
        # compares as the true one does.
        with np.errstate(invalid="ignore", over="ignore"):
            return row_lo - col_hi > condition.beta, col_lo - row_hi > condition.beta
    if isinstance(condition, InequalityJoinCondition):
        if condition._above:
            lower, upper = row_lo, col_hi
        else:
            lower, upper = col_lo, row_hi
        joins = lower < upper if condition._strict else lower <= upper
        return (~joins, None) if condition._above else (None, ~joins)
    raise TypeError(f"no reference rule for {condition!r}")


def kary_spans(condition: JoinCondition, row_lo, row_hi, col_lo, col_hi):
    """Each grid row's candidate columns ``[first, stop)`` (``stop >= first``).

    ``left`` of :func:`excluded` holds on a prefix of a row's columns and
    ``right`` on a suffix, so ``first`` is where ``left`` stops holding
    and ``stop`` where ``right`` starts.  Each of a few rounds tests evenly
    spaced columns inside every row's range of possible answers with one
    call of the rule; the columns found on the wrong side of an end narrow
    that range, and the last round leaves one answer.
    """
    row_lo, row_hi, col_lo, col_hi = (
        np.asarray(edge, dtype=np.float64) for edge in (row_lo, row_hi, col_lo, col_hi)
    )
    rows, columns = row_lo.size, col_lo.size
    first = np.zeros(rows, dtype=np.int64)
    stop = np.full(rows, columns, dtype=np.int64)
    if not rows or not columns:
        return first, np.maximum(first, stop)
    rounds = 1 if columns < ONE_ROUND_COLUMNS else SPAN_ROUNDS
    base = 2
    while base**rounds <= columns:
        base += 1
    # Each row's answers lie in [first, first_last] and [stop_first, stop].
    first_last, stop_first = stop.copy(), first.copy()
    row_lo, row_hi = row_lo[:, None], row_hi[:, None]
    width = columns + 1
    for _ in range(rounds):
        width = -(-width // base)
        offsets = np.arange(width - 1, (base - 1) * width, width)
        at_first = first[:, None] + offsets
        at_stop = stop_first[:, None] + offsets
        left, right = excluded(
            condition, row_lo, row_hi,
            col_lo.take(at_stop, mode="clip"), col_hi.take(at_first, mode="clip"),
        )
        # A tested column past the grid is its last: on the wrong side
        # only when the answer is the column count, which the clamps keep.
        if left is not None:
            passed = left.sum(axis=1) * width
            first_last = np.minimum(first_last, first + passed + (width - 1))
            first = np.minimum(first + passed, first_last)
        if right is not None:
            passed = (~right).sum(axis=1) * width
            stop = np.minimum(stop, stop_first + passed + (width - 1))
            stop_first = np.minimum(stop_first + passed, stop)
    return first, np.maximum(first, stop)
