"""Every array argument of every kernel entry point, refused at the boundary.

``repro.joins.native``'s eight entry points read their numpy arrays through
pointers (``search`` serves the plan build's searches: ``bucket_index``,
Stream-Sample's d2equi windows and job 3, the with-replacement draw;
``spans``, the sample matrix's candidate spans; ``coarsen``, coarsening's
whole search over the band sample matrix), so each array
is checked once on the way in (``take`` in
``native.c``): an ndarray, of the dtype the loop reads in native byte
order, C-contiguous and aligned, writable where the loop writes it.  A
refusal reads ``"<entry>: <argument> is <found>, not <expected>"``; a size
refusal names the argument whose size is wrong.  Here a table holds one
valid small call per entry point and the path to each of its array
arguments, and every argument is replaced in turn by each thing the kernel
does not take: a list of the same values, a narrower dtype, a byte-swapped
copy, a strided view, an unaligned copy, a read-only copy (where the
kernel writes it) and a copy one entry short (where a size relation
holds).  Each call must raise
``TypeError`` or ``ValueError`` naming the entry point and the argument,
and leave every array of the call as it was.  A second table holds the
values a valid call's array or scalar may not carry, each refused the same way, and
a third the layouts ``coarsen`` cannot walk.  Every entry point
``native.__all__`` exports has a row, so a new one cannot skip the table.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pytest

from repro.core.grid import WeightedGrid
from repro.core.tiling_tables import TilingTables
from repro.core.weights import WeightFunction
from repro.joins import native


class Value(NamedTuple):
    """A value an entry point refuses at one position of an array argument,
    or in an argument's place."""

    entry: str
    path: tuple  # the argument, as in Arg
    at: int | None  # the array position given the value (None: the argument itself)
    value: object
    refusal: str  # how the error starts
    error: type = ValueError


#: A NaN priority last, where a check made while the loop runs would
#: already have written the entries before it, and one with its sign bit set.
#: A grid's input or frequency that is not finite and non-negative, by
#: position; and a second entry of 1e308 beside the valid call's first, in
#: the same coarse cell: each is finite, their sum is not.  A tiling
#: search's ends that do not compare or are out of order, no region to
#: spend, a negative number of midpoints and a gap below zero or NaN.  A
#: fold half's rule it does not name, a width that is NaN or negative, a
#: fractional width on int64 needles (bounded in int64 only by an int),
#: and needles of a dtype it does not bound.
VALUES = [
    Value("fold", (1, 0, 1, 0), None, "Band",
          "fold: rule is 'Band', not band, band_inverse, <, <=, > or >="),
    Value("fold", (1, 0, 1, 0), None, "band inverse",
          "fold: rule is 'band inverse', not band, band_inverse, <, <=, > or >="),
    Value("fold", (1, 0, 1, 1), None, np.nan, "fold: beta is nan, not a width"),
    Value("fold", (1, 0, 1, 1), None, -0.5, "fold: beta is -0.5, not a width"),
    Value("fold", (1, 0, 1, 1), None, -1, "fold: beta is -1, not a width in int64"),
    Value("fold", (1, 0, 0), None, np.array([0, 1, 2], dtype=np.int64),
          "fold: beta is 1.5, a float, on int64 needles: their band takes an int"),
    Value("fold", (1, 0, 0), None, np.array([0, 1, 2], dtype=np.uint64),
          "fold: needles is uint64, not float64 or int64", TypeError),
    Value("offer", (4,), 3, np.nan, "offer: priorities[3] is NaN, "),
    Value("offer", (4,), 0, -np.nan, "offer: priorities[0] is NaN, "),
    Value("coarsen", (0,), 2, np.nan, "coarsen: row_input[2] is NaN, "),
    Value("coarsen", (1,), 3, np.inf, "coarsen: col_input[3] is inf, "),
    Value("coarsen", (1,), 0, -0.5, "coarsen: col_input[0] is negative, "),
    Value("coarsen", (7,), 4, -np.inf, "coarsen: entry_value[4] is -inf, "),
    Value("coarsen", (7,), 1, 1e308,
          "coarsen: entry_value adds up to a non-finite aggregate"),
    Value("tile", (4,), None, np.nan, "tile: low is NaN: "),
    Value("tile", (5,), None, np.nan, "tile: high is NaN: "),
    Value("tile", (4,), None, 200.0, "tile: low is above high: "),
    Value("tile", (5,), None, -np.inf, "tile: low is above high: "),
    Value("tile", (6,), None, 0, "tile: budget is not a positive number of regions: "),
    Value("tile", (6,), None, -3, "tile: budget is not a positive number of regions: "),
    Value("tile", (7,), None, -1, "tile: max_midpoints is negative: "),
    Value("tile", (8,), None, -0.5, "tile: tolerance is negative or NaN: "),
    Value("tile", (8,), None, np.nan, "tile: tolerance is negative or NaN: "),
]


class Arg(NamedTuple):
    """An array argument: where it sits in the call and what a refusal calls it."""

    path: tuple  # indices into the call's positional arguments
    name: str  # the name the kernel gives it
    written: bool = False  # whether the kernel writes it
    short: str | None = None  # the word a one-short copy's refusal names (None: no size relation)


def _tables() -> TilingTables:
    """A 5 x 5 band grid's closure and child table."""
    index = np.arange(5)
    candidate = np.abs(index[:, None] - index[None, :]) <= 1
    grid = WeightedGrid(candidate.astype(np.float64), np.ones(5), np.ones(5), candidate)
    return TilingTables(grid, WeightFunction(), -np.inf)


def coarsen_call(**changes) -> tuple:
    """A valid ``coarsen`` call over a 4 x 4 band grid, with ``changes`` to its arguments.

    Entry 0 (row 0, column 0) carries 1e308: finite, and the largest a
    coarse cell can hold beside the small entries.
    """
    i64 = np.int64
    args = dict(
        row_input=np.array([1.0, 2.0, 0.0, 3.0]), col_input=np.array([2.0, 1.0, 1.0, 4.0]),
        run_ptr=np.array([0, 1, 2, 3, 4], dtype=i64), run_lo=np.array([0, 0, 1, 2], dtype=i64),
        run_hi=np.array([2, 3, 4, 4], dtype=i64), entry_ptr=np.array([0, 2, 3, 4, 5], dtype=i64),
        entry_col=np.array([0, 1, 2, 3, 3], dtype=i64),
        entry_value=np.array([1e308, 0.5, 2.0, 1.5, 0.25]),
        w_i=1.0, w_o=0.2, row_groups=2, col_groups=2, low=0.0, row_high=1e308, col_high=1e308,
        max_iterations=4, max_midpoints=25, tolerance=0.01,
    )
    return tuple((args | changes).values())


def _calls() -> "dict[str, tuple[tuple, list[Arg]]]":
    """Per entry point: a valid small call's arguments (fresh arrays) and its array arguments."""
    i64 = np.int64
    run = (np.arange(5.0), np.arange(6, dtype=i64))
    cut = (np.array([1.5, 2.5]), np.array([2, 0], dtype=i64), np.array([1, 3], dtype=i64))
    group = ([run], np.array([0, 1], dtype=i64), cut, 0)
    half = (np.array([0.0, 1.0, 2.0]), ("band", 1.5),
            np.array([0, 1], dtype=i64), np.array([2, 3], dtype=i64), [group])
    # The arrivals swallow both runs (each under 8 times the two arrivals).
    cascades = [([(np.arange(4.0), np.arange(5, dtype=i64)), (np.arange(4.0) + 0.5, None)],
                 np.array([0.25, 1.25]))]
    heap = (np.zeros(4), np.zeros(4, dtype=i64), np.zeros(4))
    tables = _tables()
    lookups = tuple(array.copy() for array in tables._lookups)
    return {
        "fold": ((cascades, [half], np.zeros(2, dtype=i64)), [
            Arg((0, 0, 0, 0, 0), "keys", short="cum"),
            Arg((0, 0, 0, 0, 1), "cum", short="cum"),
            Arg((0, 0, 0, 1, 0), "keys"),
            # Any number of arrivals joins a cascade: no size relation.
            Arg((0, 0, 1), "arrivals"),
            Arg((1, 0, 0), "needles", short="needles"),
            Arg((1, 0, 2), "starts", short="starts"),
            Arg((1, 0, 3), "stops", short="stops"),
            Arg((1, 0, 4, 0, 0, 0, 0), "keys", short="cum"),
            Arg((1, 0, 4, 0, 0, 0, 1), "cum", short="cum"),
            Arg((1, 0, 4, 0, 1), "readers"),
            Arg((1, 0, 4, 0, 2, 0), "cut_keys", short="cut"),
            Arg((1, 0, 4, 0, 2, 1), "first", short="firsts"),
            Arg((1, 0, 4, 0, 2, 2), "last", short="lasts"),
            Arg((2,), "out", written=True, short="machines"),
        ]),
        "band_inverse": ((np.array([0.0, 1.0, 2.5]), 1.0), [Arg((0,), "keys")]),
        "offer": ((heap, 0, 4, 0, np.array([0.5, 0.25, 0.75, 0.125]), np.arange(4.0)), [
            Arg((0, 0), "heap priorities", written=True, short="heap"),
            Arg((0, 1), "heap counters", written=True, short="heap"),
            Arg((0, 2), "heap keys", written=True, short="heap"),
            Arg((4,), "priorities", short="priorities"),
            Arg((5,), "keys", short="keys"),
        ]),
        # A run reaches the last column: one column short, it leaves the grid.
        "coarsen": (coarsen_call(), [
            Arg((0,), "row_input", short="row_input"),
            Arg((1,), "col_input", short="col_input"),
            Arg((2,), "run_ptr", short="run_ptr"),
            Arg((3,), "run_lo", short="run_lo"),
            Arg((4,), "run_hi", short="run_hi"),
            Arg((5,), "entry_ptr", short="entry_ptr"),
            Arg((6,), "entry_col", short="entry_col"),
            Arg((7,), "entry_value", short="entry_value"),
        ]),
        "closure": ((*lookups, False, lambda keys: np.ones(len(keys), dtype=bool)), [
            Arg((at,), name, short=name)
            for at, name in enumerate(("rows", "lo", "hi", "below", "above", "first", "last"))
        ]),
        "tile": ((tables.offsets.copy(), tables.children.copy(), tables.leaf_thresholds.copy(),
                  0, 1.0, 100.0, 5, 25, 0.01), [
            Arg((0,), "offsets", short="offsets"),
            # Each child is checked as the DP reads it: no size relation.
            Arg((1,), "children"),
            Arg((2,), "leaf_thresholds", short="rectangles"),
        ]),
        # Any number of needles searches any number of keys: no size relation.
        "search": ((np.array([0.0, 1.0, 2.0]), np.array([2.0, 0.5]), True), [
            Arg((0,), "keys"),
            Arg((1,), "needles"),
        ]),
        # A row's two edges pair up, as do a column's.
        "spans": ((np.array([-np.inf, 1.0, 2.0]), np.array([1.0, 2.0, np.inf]),
                   np.array([-np.inf, 0.5]), np.array([0.5, np.inf]), "band", 1.0), [
            Arg((0,), "row_lo", short="row_lo"),
            Arg((1,), "row_hi", short="row_hi"),
            Arg((2,), "col_lo", short="col_lo"),
            Arg((3,), "col_hi", short="col_hi"),
        ]),
    }


def _at(tree, path):
    for index in path:
        tree = tree[index]
    return tree


def _replaced(tree, path, value):
    """``tree`` with the item at ``path`` replaced (lists and tuples rebuilt, arrays shared)."""
    if not path:
        return value
    items = list(tree)
    items[path[0]] = _replaced(items[path[0]], path[1:], value)
    return tuple(items) if isinstance(tree, tuple) else items


def _arrays(tree):
    """Every array in a call, depth first."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, (list, tuple)):
        return [array for item in tree for array in _arrays(item)]
    return []


def _variants(array: np.ndarray, arg: Arg):
    """Each thing the kernel does not take in ``array``'s place: (what, error, the copy)."""
    narrow = np.float32 if array.dtype == np.float64 else np.int32
    strided = np.repeat(array, 2, axis=0)[::2]
    assert not strided.flags.c_contiguous
    unaligned = np.frombuffer(bytearray(array.nbytes + 1), array.dtype, array.size, 1)
    unaligned = unaligned.reshape(array.shape)
    unaligned[...] = array
    assert not unaligned.flags.aligned
    yield "a list", TypeError, array.tolist()
    with np.errstate(over="ignore"):  # the dtype is refused, whatever the values become
        narrowed = array.astype(narrow)
    yield "narrow", TypeError, narrowed
    yield "byte-swapped", TypeError, array.astype(array.dtype.newbyteorder())
    yield "strided", ValueError, strided
    yield "unaligned", ValueError, unaligned
    if arg.written:
        frozen = array.copy()
        frozen.flags.writeable = False
        yield "read-only", ValueError, frozen
    if arg.short is not None:
        yield "one short", ValueError, array[:-1].copy()


def test_every_entry_point_has_a_row():
    assert set(native.__all__) - {"KernelUnavailable"} == set(_calls())


@pytest.mark.parametrize("keys, needles, error, refusal", [
    (np.arange(3.0), np.arange(2), TypeError,
     "search: needles is int64, not float64 as the keys are"),
    (np.arange(3), np.arange(2.0), TypeError,
     "search: needles is float64, not int64 as the keys are"),
    (np.zeros((2, 2)), np.arange(2.0), ValueError,
     "search: keys has shape (2, 2), not one axis"),
])
def test_a_search_refuses_keys_and_needles_that_do_not_match(keys, needles, error, refusal):
    """Keys and needles are compared as one dtype, so a mismatch is
    refused by name, as is a key array of more than one axis."""
    with pytest.raises(error) as refused:
        native.search(keys, needles, False)
    assert str(refused.value) == refusal


@pytest.mark.parametrize("rule", ["", "=", "<>", "Band", "band "])
def test_spans_refuse_a_rule_they_do_not_name(rule):
    """A rule is one of the five the kernel evaluates, named exactly."""
    edges = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    with pytest.raises(ValueError) as refused:
        native.spans(*edges, *edges, rule, 0.0)
    assert str(refused.value) == f"spans: rule is '{rule}', not band, <, <=, > or >="


def test_every_valid_call_is_taken():
    """The table's calls are valid: each refusal below is the variant's alone."""
    for entry, (args, table) in _calls().items():
        getattr(native, entry)(*args)
        for arg in table:
            assert _at(args, arg.path).size >= 2, (entry, arg.name)


@pytest.mark.parametrize("entry", sorted(_calls()))
def test_every_array_argument_is_refused_by_name(entry):
    """Each variant of each argument raises, names the entry point and the
    argument, and changes no array of the call."""
    _, table = _calls()[entry]
    for arg in table:
        args, _ = _calls()[entry]
        for what, error, variant in _variants(_at(args, arg.path), arg):
            call = _replaced(args, arg.path, variant)
            before = [array.tobytes() for array in _arrays(call)]
            with pytest.raises((TypeError, ValueError)) as refused:
                getattr(native, entry)(*call)
            message = str(refused.value)
            label = f"{entry} {arg.name} {what}: {message}"
            assert refused.type is error, label
            assert message.startswith(f"{entry}: "), label
            named = arg.short if what == "one short" else arg.name
            assert re.search(rf"\b{re.escape(named)}\b", message), label
            if what != "one short":
                assert message.startswith(f"{entry}: {arg.name} is "), label
            assert [array.tobytes() for array in _arrays(call)] == before, label


@pytest.mark.parametrize(
    "value", VALUES, ids=lambda value: f"{value.entry}-{'.'.join(map(str, value.path))}-{value.at}"
)
def test_every_refused_value_is_refused_by_name(value):
    """A refused value raises a ValueError (a TypeError for a dtype) that
    names where it sits, and changes no array of the call: the heap's three
    stay byte for byte, and a fold writes nothing into ``out``."""
    args, _ = _calls()[value.entry]
    carrier = value.value
    if value.at is not None:
        carrier = _at(args, value.path).copy()
        carrier[value.at] = value.value
    call = _replaced(args, value.path, carrier)
    before = [array.tobytes() for array in _arrays(call)]
    with pytest.raises(value.error) as refused:
        getattr(native, value.entry)(*call)
    assert str(refused.value).startswith(value.refusal), str(refused.value)
    assert [array.tobytes() for array in _arrays(call)] == before


#: coarsen's layouts it cannot walk, each changed from the valid call, and
#: the refusal each reads.
LAYOUTS = [
    (dict(row_input=np.ones((4, 1))), "coarsen: row_input has shape (4, 1), not one axis"),
    (dict(row_input=np.ones(0), run_ptr=np.zeros(1, dtype=np.int64),
          entry_ptr=np.zeros(1, dtype=np.int64), run_lo=np.zeros(0, dtype=np.int64),
          run_hi=np.zeros(0, dtype=np.int64), entry_col=np.zeros(0, dtype=np.int64),
          entry_value=np.zeros(0)),
     "coarsen: row_input (0,) and col_input (4,) hold no cell"),
    (dict(row_groups=0), "coarsen: row_groups 0 and col_groups 2: each axis needs a group"),
    (dict(col_groups=-1), "coarsen: row_groups 2 and col_groups -1: each axis needs a group"),
    (dict(run_ptr=np.array([1, 1, 2, 3, 4])),
     "coarsen: run_ptr does not rise from 0 to the 4 runs"),
    (dict(run_ptr=np.array([0, 2, 1, 3, 4])),
     "coarsen: run_ptr does not rise from 0 to the 4 runs"),
    (dict(entry_ptr=np.array([0, 2, 3, 4, 4])),
     "coarsen: entry_ptr does not rise from 0 to the 5 entries"),
    (dict(run_lo=np.array([0, 0, 4, 2])),
     "coarsen: row 2's runs are not disjoint ascending ranges of the col_input's 4 columns"),
    (dict(run_lo=np.array([0, -1, 1, 2])),
     "coarsen: row 1's runs are not disjoint ascending ranges of the col_input's 4 columns"),
    (dict(run_ptr=np.array([0, 2, 2, 3, 4]), run_lo=np.array([0, 1, 1, 2]),
          run_hi=np.array([2, 3, 4, 4])),
     "coarsen: row 0's runs are not disjoint ascending ranges of the col_input's 4 columns"),
    (dict(entry_col=np.array([1, 0, 2, 3, 3])),
     "coarsen: row 0's entry_col is not ascending inside the col_input's 4 columns"),
    (dict(entry_col=np.array([0, 0, 2, 3, 3])),
     "coarsen: row 0's entry_col is not ascending inside the col_input's 4 columns"),
    (dict(entry_col=np.array([0, 1, 2, 3, 4])),
     "coarsen: row 3's entry_col is not ascending inside the col_input's 4 columns"),
]


@pytest.mark.parametrize("changes, refusal", LAYOUTS, ids=lambda item: str(item)[:40])
def test_coarsen_refuses_a_layout_it_cannot_walk(changes, refusal):
    """A grid of no cell, no group, a pointer array that does not rise from 0
    to its items, runs empty, overlapping, descending or outside the
    columns, entries out of order or outside: a ``ValueError`` that reads as
    its refusal, and every array as it was."""
    call = coarsen_call(**changes)
    before = [array.tobytes() for array in _arrays(call)]
    with pytest.raises(ValueError) as refused:
        native.coarsen(*call)
    assert str(refused.value) == refusal
    assert [array.tobytes() for array in _arrays(call)] == before
