"""Every array argument of every kernel entry point, refused at the boundary.

``repro.joins.native``'s eight entry points read their numpy arrays through
pointers (``search``, the eighth, serves the plan build's searches:
``bucket_index``, Stream-Sample's d2equi windows and job 3, the
with-replacement draw), so each array is checked once on the way in (``take`` in
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
values a valid call's array may not carry, each refused the same way.
Every entry point ``native.__all__`` exports has a row, so a new one
cannot skip the table.
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
    """A value an entry point refuses at one position of an array argument."""

    entry: str
    path: tuple  # the array argument, as in Arg
    at: int  # the position given the value
    value: float
    refusal: str  # how the ValueError starts


#: A NaN priority last, where a check made while the loop runs would
#: already have written the entries before it, and one with its sign bit set.
VALUES = [
    Value("offer", (4,), 3, np.nan, "offer: priorities[3] is NaN, "),
    Value("offer", (4,), 0, -np.nan, "offer: priorities[0] is NaN, "),
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


def _calls() -> "dict[str, tuple[tuple, list[Arg]]]":
    """Per entry point: a valid small call's arguments (fresh arrays) and its array arguments."""
    i64 = np.int64
    run = (np.arange(5.0), np.arange(6, dtype=i64))
    cut = (np.array([1.5, 2.5]), np.array([2, 0], dtype=i64), np.array([1, 3], dtype=i64))
    group = ([run], np.array([0, 1], dtype=i64), cut, 0)
    half = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]),
            np.array([0, 1], dtype=i64), np.array([2, 3], dtype=i64), [group])
    merges = [[(np.arange(4.0), np.arange(5, dtype=i64)), (np.arange(4.0) + 0.5, None)]]
    heap = (np.zeros(4), np.zeros(4, dtype=i64), np.zeros(4))
    rng = np.random.default_rng(0)
    tables = _tables()
    lookups = tuple(array.copy() for array in tables._lookups)
    return {
        "fold": ((merges, [half], np.zeros(2, dtype=i64)), [
            Arg((0, 0, 0, 0), "keys", short="cum"),
            Arg((0, 0, 0, 1), "cum", short="cum"),
            Arg((0, 0, 1, 0), "keys"),
            Arg((1, 0, 0), "lows", short="lows"),
            Arg((1, 0, 1), "highs", short="highs"),
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
        "group_sums": ((np.array([0, 2, 3], dtype=i64), np.array([0, 2, 1], dtype=i64),
                        np.array([1.0, 2.0, 3.0]), np.array([0, 2, 3], dtype=i64)), [
            Arg((0,), "ptr", short="ptr"),
            Arg((1,), "index", short="index"),
            Arg((2,), "value", short="value"),
            Arg((3,), "bounds", short="bounds"),
        ]),
        "sweep_rows": ((rng.random((4, 2)), np.ones((4, 2)), rng.random(4), rng.random(2),
                        1.0, 0.2, 5.0, 3), [
            Arg((0,), "freq", short="freq"),
            Arg((1,), "cand", short="cand"),
            Arg((2,), "row_input", short="row_input"),
            Arg((3,), "col_input", short="col_input"),
        ]),
        "closure": ((*lookups, False, lambda keys: np.ones(len(keys), dtype=bool)), [
            Arg((at,), name, short=name)
            for at, name in enumerate(("rows", "lo", "hi", "below", "above", "first", "last"))
        ]),
        "tile": ((tables.offsets.copy(), tables.children.copy(), tables.leaf_thresholds.copy(),
                  0, 1.0), [
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
    yield "narrow", TypeError, array.astype(narrow)
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


@pytest.mark.parametrize("value", VALUES, ids=lambda value: f"{value.entry}-{value.at}")
def test_every_refused_value_is_refused_by_name(value):
    """A refused value raises a ValueError that names where it sits, and
    changes no array of the call: the heap's three stay byte for byte."""
    args, _ = _calls()[value.entry]
    carrier = _at(args, value.path).copy()
    carrier[value.at] = value.value
    call = _replaced(args, value.path, carrier)
    before = [array.tobytes() for array in _arrays(call)]
    with pytest.raises(ValueError) as refused:
        getattr(native, value.entry)(*call)
    assert str(refused.value).startswith(value.refusal), str(refused.value)
    assert [array.tobytes() for array in _arrays(call)] == before
