"""Differential tests: the kernel's per-batch count against the per-task numpy form.

``repro.joins.native.count_half`` counts one half of a stream batch in one
C call: every machine's share of the routed needles searched in each run it
reads, clipped to its slice of the run (cut by the slice rule in C), summed
into its total.  ``reference_counting.count_half`` is the same half as the
state owner counted it before -- one task per run, each run cut by the
slice rule's numpy form (``MachineSlices`` called), needles gathered
segment after segment, two ``searchsorted`` passes, the clip ufuncs and a
``reduceat`` per reader -- and the totals must be equal, over:

* clipped layouts (an EWH plan: one group every machine reads through its
  key range; cut keys anywhere, +-inf among them, slice bounds at any cut
  or either end, a slice's stop before its start) and whole-group ones
  (1-Bucket's draw groups, per-machine arrays as ``RoutedSide.of`` builds
  them), readers all machines or a subset, shares empty, overlapping,
  nested or repeated;
* fresh, counted and tombstone runs (negative counts);
* NaN, +-inf and -0.0 keys and bounds in any order, the int64 extremes, and
  int64 keys above 2**53 meeting a fractional band's float bounds (the runs
  then searched as float64, as the owner does);
* arrays passed as trimmed copies -- each its own allocation, so a read
  past its end is the sanitizers' to report -- and as views into larger
  parents whose spare entries would change the count if read.

A reader that is no machine, a share outside the needles and a slice
bound that indexes no cut raise by name, having written nothing.
"""

from __future__ import annotations

import numpy as np
import pytest
import reference_counting
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.joins import native
from repro.joins.conditions import BandJoinCondition
from repro.partitioning.grid_routed import MachineSlices
from repro.joins.local import _bounds

FLOAT_POOL = np.concatenate(
    [np.arange(-8, 9) / 2.0, [np.nan, -np.inf, np.inf, -0.0, 0.0, -1e308, 1e308]]
)
INT_POOL = np.array(
    list(range(-8, 9)) + [-(2**63), 2**63 - 1, 2**53, 2**53 + 1, 2**53 - 1], dtype=np.int64
)
#: Neighbours above 2**53, which float64 rounds onto each other.
BIG_POOL = 2**53 + np.arange(-6, 7, dtype=np.int64)


def _sorted(keys: np.ndarray) -> np.ndarray:
    """Keys ascending, NaN last, as every run and every routed array is."""
    return np.sort(keys)


def _copy(array: np.ndarray, trimmed: bool, rng: np.random.Generator, spare) -> np.ndarray:
    """``array`` as its own exact-size allocation, or as a view into a larger parent.

    The parent's spare entries (``spare``) sit on both sides of the view, so
    a kernel that read past either end would count them.
    """
    if trimmed:
        return array.copy()
    pad = int(rng.integers(1, 4))
    parent = np.empty(array.size + 2 * pad, dtype=array.dtype)
    parent[:pad] = parent[pad + array.size :] = spare
    parent[pad : pad + array.size] = array
    return parent[pad : pad + array.size]


def _run(rng, pool, kind: str, size: int, trimmed: bool):
    """One ``(keys, cum)`` run: fresh, counted (negative counts too) or tombstone."""
    keys = _sorted(pool[rng.integers(0, pool.size, size)])
    if kind == "fresh":
        cum = None
    elif kind == "tombstone":
        cum = -np.arange(size + 1, dtype=np.int64)
    else:
        cum = np.concatenate([[0], np.cumsum(rng.integers(-2, 4, size))]).astype(np.int64)
    keys = _copy(keys, trimmed, rng, pool[0])
    if cum is not None:
        cum = _copy(cum, trimmed, rng, 10**6)
    return keys, cum


def _shares(rng, machines: int, needles: int, layout: str):
    """Per-machine ``[starts, stops)`` of the needles.

    ``sliced``: contiguous key-range shares, as an EWH plan cuts a sorted
    batch (some machines empty); ``grouped``: each machine a block of its
    own, as ``RoutedSide.of`` lays per-machine arrays end to end; ``random``:
    shares that overlap, nest, repeat or are empty.
    """
    if layout == "random":
        starts = rng.integers(0, needles + 1, machines)
        stops = np.minimum(starts + rng.integers(0, needles + 1, machines), needles)
        return starts.astype(np.int64), stops.astype(np.int64)
    cuts = np.sort(rng.integers(0, needles + 1, machines + 1))
    cuts[0], cuts[-1] = 0, needles
    starts, stops = cuts[:-1].copy(), cuts[1:].copy()
    if layout == "sliced":  # band replication: a share reaches into its neighbour's
        stops = np.minimum(stops + rng.integers(0, 3, machines), needles)
    return starts.astype(np.int64), stops.astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    keys=st.sampled_from(["float", "int", "big_int_float_band"]),
    layout=st.sampled_from(["sliced", "grouped", "random"]),
    clipped=st.booleans(),
    subset=st.booleans(),
    kinds=st.lists(st.sampled_from(["fresh", "counted", "tombstone"]), min_size=1, max_size=3),
    machines=st.integers(1, 6),
    needles=st.sampled_from([0, 1, 7, 40]),
    trimmed=st.booleans(),
)
@example(seed=1, keys="float", layout="sliced", clipped=True, subset=False,
         kinds=["tombstone"], machines=3, needles=7, trimmed=True)
@example(seed=2, keys="big_int_float_band", layout="grouped", clipped=False, subset=True,
         kinds=["counted", "fresh"], machines=4, needles=40, trimmed=False)
def test_count_half_is_the_per_task_count_summed_per_machine(
    seed, keys, layout, clipped, subset, kinds, machines, needles, trimmed
):
    """Every machine's total equals the reference's, written into its entry only."""
    rng = np.random.default_rng(seed)
    if keys == "big_int_float_band":
        # Exact integer needles against a fractional band: float bounds,
        # so the owner searches the integer runs as float64.
        pool = BIG_POOL
        routed = _sorted(pool[rng.integers(0, pool.size, needles)])
        lows, highs = _bounds(BandJoinCondition(beta=1.5), routed, np.dtype(np.int64))
        assert lows.dtype == np.float64
    else:
        pool = FLOAT_POOL if keys == "float" else INT_POOL
        lows = pool[rng.integers(0, pool.size, needles)]
        above = np.maximum(lows, pool[rng.integers(0, pool.size, needles)])
        highs = np.where(rng.random(needles) < 0.8, above, lows)
    starts, stops = _shares(rng, machines, needles, layout)
    runs = []
    for kind in kinds:
        run_keys, cum = _run(rng, pool, kind, int(rng.choice([0, 1, 9, 60])), trimmed)
        if run_keys.dtype != lows.dtype:
            run_keys = _copy(run_keys.astype(np.float64), trimmed, rng, 0.0)
        readers = np.arange(machines, dtype=np.int64)
        if subset:
            readers = np.flatnonzero(rng.random(machines) < 0.5).astype(np.int64)
        cut = None
        if clipped:
            # Cut keys anywhere (never NaN: no histogram boundary is), each
            # reader's slice bounds at any cut or either end, a stop now and
            # then before its start.
            cut_keys = FLOAT_POOL[~np.isnan(FLOAT_POOL)][
                rng.integers(0, FLOAT_POOL.size - 1, 2 * int(rng.integers(1, 4)))
            ]
            first = rng.integers(0, cut_keys.size + 2, readers.size)
            last = np.where(
                rng.random(readers.size) < 0.2, first, rng.integers(0, cut_keys.size + 2, readers.size)
            )
            cut = MachineSlices(
                _copy(cut_keys, trimmed, rng, 0.0),
                _copy(first, trimmed, rng, 0),
                _copy(last, trimmed, rng, 0),
            )
        runs.append((run_keys, cum, _copy(readers, trimmed, rng, 0), cut))
    lows, highs = _copy(lows, trimmed, rng, pool[0]), _copy(highs, trimmed, rng, pool[-1])
    starts, stops = _copy(starts, trimmed, rng, 0), _copy(stops, trimmed, rng, needles)
    ours = np.full(machines, 7, dtype=np.int64)
    theirs = ours.copy()
    native.count_half(lows, highs, starts, stops, runs, ours)
    reference_counting.count_half(lows, highs, starts, stops, runs, theirs)
    np.testing.assert_array_equal(ours, theirs)


def _small_half():
    """Two machines, four needles, one fresh run of ten keys both read through a slice rule."""
    lows, highs = np.arange(4.0), np.arange(4.0) + 2
    starts, stops = np.array([0, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)
    readers = np.arange(2, dtype=np.int64)
    # Machine 0 reads [0, 4.5), machine 1 [2.5, the end).
    cut = MachineSlices(np.array([2.5, 4.5]), np.array([2, 0]), np.array([1, 3]))
    return lows, highs, starts, stops, [(np.arange(10.0), None, readers, cut)]


def test_indices_out_of_range_raise_by_name_and_write_nothing():
    lows, highs, starts, stops, runs = _small_half()
    out = np.full(2, -7, dtype=np.int64)
    keys, cum, readers, cut = runs[0]
    refused = [
        ("slice bound indexes no cut", (starts, stops, [(keys, cum, readers, cut._replace(last=cut.last + 1))])),
        ("slice bound indexes no cut", (starts, stops, [(keys, cum, readers, cut._replace(first=cut.first - 3))])),
        ("reader is not one of the machines", (starts, stops, [(keys, cum, readers + 1, cut)])),
        ("reader is not one of the machines", (starts, stops, [(keys, cum, readers - 1, None)])),
        ("share lies outside the needles", (starts, stops + 1, runs)),
        ("share lies outside the needles", (starts - 1, stops, runs)),
    ]
    for message, (first, last, bad) in refused:
        with pytest.raises(ValueError, match=message):
            # A good run first: the refusal comes before anything is counted.
            native.count_half(lows, highs, first, last, runs + bad, out)
        assert out.tolist() == [-7, -7]
    native.count_half(lows, highs, starts, stops, runs, out)
    expected = np.full(2, -7, dtype=np.int64)
    reference_counting.count_half(lows, highs, starts, stops, runs, expected)
    assert out.tolist() == expected.tolist() != [-7, -7]


def test_inputs_it_does_not_take_raise():
    """Other dtypes and sizes, strided arrays, a read-only output: a
    ``TypeError`` / ``ValueError`` naming the input, nothing written.
    Read-only inputs are read."""
    lows, highs, starts, stops, runs = _small_half()
    keys, cum, readers, cut = runs[0]
    out = np.full(2, -7, dtype=np.int64)
    frozen = out.copy()
    frozen.flags.writeable = False

    def half(**changed):
        run = {"keys": keys, "cum": cum, "readers": readers, "cut": cut, **changed}
        return [(run["keys"], run["cum"], run["readers"], run["cut"])]

    refused = [
        (TypeError, "lows are float32", (lows.astype(np.float32), highs, starts, stops, runs, out)),
        (ValueError, "4 float64 lows but 3 float64 highs", (lows, highs[:3], starts, stops, runs, out)),
        (TypeError, "starts int32", (lows, highs, starts.astype(np.int32), stops, runs, out)),
        (ValueError, "2 starts and 1 stops for 2 machines", (lows, highs, starts, stops[:1], runs, out)),
        (TypeError, "a run's keys are int64", (lows, highs, starts, stops, half(keys=keys.astype(np.int64)), out)),
        (TypeError, "readers are int32", (lows, highs, starts, stops, half(readers=readers.astype(np.int32)), out)),
        (ValueError, "cum is 10 int64, not 11 int64", (lows, highs, starts, stops, half(cum=np.arange(10)), out)),
        (ValueError, "needs 2 firsts and lasts", (lows, highs, starts, stops, half(cut=cut._replace(first=cut.first[:1])), out)),
        (TypeError, "float64 cut keys and int64 bounds", (lows, highs, starts, stops, half(cut=cut._replace(last=cut.last.astype(np.int32))), out)),
        (ValueError, "is not C-contiguous", (lows, highs, starts, stops, half(keys=np.arange(20.0)[::2]), out)),
        (ValueError, "is read-only, and the kernel writes it", (lows, highs, starts, stops, runs, frozen)),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            native.count_half(*args)
    assert out.tolist() == [-7, -7]
    read_only = [array.copy() for array in (lows, highs, starts, stops, keys, readers)]
    for array in read_only:
        array.flags.writeable = False
    *bounds, first, last, frozen_keys, frozen_readers = read_only
    native.count_half(*bounds, first, last, [(frozen_keys, cum, frozen_readers, cut)], out)
    expected = np.full(2, -7, dtype=np.int64)
    reference_counting.count_half(lows, highs, starts, stops, runs, expected)
    assert out.tolist() == expected.tolist()
