"""Differential tests: the compiled count kernel against the numpy code it replaces.

``repro.joins.native`` runs one task of ``count_regions`` (search, clip,
per-segment sum) and one run merge of ``SortedRegionState`` in C.  The
numpy bodies it replaces stay in place as the fallback and are the
reference here: ``repro.joins.local._count_task`` and
``repro.streaming.incremental._merge_sorted`` with the kernel swapped out.
Per-segment outputs must be equal and merged runs equal **byte for byte**
(keys and cumulative counts), over float64 and int64 keys with NaN (two
payloads), +-inf, -0.0 and 0.0, the int64 extremes and 2**53 + 1; unsorted
needles and bounds in any order; empty runs, needles and segments; fresh,
counted and tombstone runs; clips that cut a run to nothing.  Inputs the
kernel does not take -- other dtypes, strided arrays, indices out of range
-- must leave it untouched so that numpy counts them.  The engine-level
oracles run once more on the numpy path in ``tests/test_numpy_count_path.py``.
Coarsening's sweep (``native.sweep_rows``) is held to ``_sweep_rows`` in
``tests/test_planner_oracle.py``; here are the inputs it declines and the
rounding its build must keep.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coarsening import _sweep_rows
from repro.core.weights import WeightFunction
from repro.joins import local, native
from repro.joins.conditions import BandJoinCondition
from repro.obs.trace import TickClock, Tracer
from repro.streaming import MicroBatch, StaticEWHPolicy, StreamingJoinEngine, incremental

needs_kernel = pytest.mark.skipif(native.KERNEL is None, reason=native.COUNT_PATH)

#: A NaN with the sign bit set: a second payload, so a merge that kept the
#: wrong NaN would differ in its bytes.
NEGATIVE_NAN = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
FLOAT_SPECIALS = [np.nan, -np.inf, np.inf, -0.0, 0.0, 5e-324, -1e308, 1e308]
INT_SPECIALS = [
    -(2**63 - 1), 2**63 - 1, -(2**63), 2**53, 2**53 + 1, 2**53 - 1, 0, -1, 1,
]


def _keys(rng: np.random.Generator, dtype: str, size: int) -> np.ndarray:
    """``size`` keys from a small domain, so they repeat, plus the specials."""
    if dtype == "float":
        pool = np.concatenate([np.arange(-8, 9) / 2.0, FLOAT_SPECIALS, [NEGATIVE_NAN]])
    else:
        pool = np.array(list(range(-8, 9)) + INT_SPECIALS, dtype=np.int64)
    return pool[rng.integers(0, pool.size, size)]


def _sorted(keys: np.ndarray) -> np.ndarray:
    """Keys ascending, NaN last, each NaN keeping its own payload.

    (numpy's default float sort may rewrite NaN payloads; the state's runs
    only ever come out of it or out of a merge, but a merge must keep the
    NaN numpy's stable order keeps whatever the payloads are.)
    """
    if keys.dtype.kind != "f":
        return np.sort(keys)
    nan = keys != keys
    return np.concatenate([np.sort(keys[~nan]), keys[nan]])


def _run(rng: np.random.Generator, dtype: str, kind: str, size: int):
    """One ``(keys, cum)`` run of the state: fresh, counted or tombstone."""
    keys = _sorted(_keys(rng, dtype, size))
    if kind == "fresh":
        return keys, None
    if kind == "tombstone":
        return keys, -np.arange(size + 1, dtype=np.int64)
    counts = rng.integers(-2, 4, size)
    return keys, np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


@needs_kernel
@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float", "int"]),
    kind=st.sampled_from(["fresh", "counted", "tombstone"]),
    clip=st.sampled_from(["none", "whole", "cut"]),
    size=st.sampled_from([0, 1, 2, 9, 60]),
    needles=st.sampled_from([0, 1, 3, 40]),
)
@example(seed=1, dtype="float", kind="counted", clip="cut", size=0, needles=3)
@example(seed=2, dtype="int", kind="tombstone", clip="none", size=1, needles=0)
def test_a_task_counts_what_numpy_counts(seed, dtype, kind, clip, size, needles):
    """Any bounds (NaN, +-inf, low above high), in any order, on any run."""
    rng = np.random.default_rng(seed)
    run, cum = _run(rng, dtype, kind, size)
    lows = _keys(rng, dtype, needles)
    highs = np.where(rng.random(needles) < 0.8, np.maximum(lows, _keys(rng, dtype, needles)), lows)
    task_clip = None
    if clip != "none" and needles:
        segments = int(rng.integers(1, 6))
        starts = rng.integers(0, needles + 1, segments)
        stops = np.minimum(starts + rng.integers(0, needles + 1, segments), needles)
        shares = local.segments(starts, stops)
        cut = (None, None)
        if clip == "cut":  # anywhere in the run, nothing of it included
            clip_lows = rng.integers(0, size + 1, segments)
            clip_highs = rng.integers(0, size + 1, segments)
            cut = (clip_lows, np.where(rng.random(segments) < 0.2, clip_lows, clip_highs))
        task_clip = (shares, *cut)
    width = 1 if task_clip is None else task_clip[0].count
    ours, theirs = np.full(width, -7, dtype=np.int64), np.zeros(width, dtype=np.int64)
    assert native.count(run, cum, lows, highs, task_clip, ours)
    if task_clip is None or task_clip[0].busy.size:
        local._count_task(run, cum, lows, highs, task_clip, theirs)
    np.testing.assert_array_equal(ours, theirs)


def _numpy_merge(runs):
    """``_merge_sorted`` on its numpy path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", None)
        return incremental._merge_sorted(runs)


@needs_kernel
@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float", "int"]),
    kinds=st.lists(st.sampled_from(["fresh", "counted", "tombstone"]), min_size=1, max_size=6),
)
@example(seed=3, dtype="float", kinds=["fresh", "tombstone"])
def test_a_merge_is_numpy_s_merge_byte_for_byte(seed, dtype, kinds):
    """Keys and counts, dropped zeros and the key kept for each group, bit for bit.

    Any number of runs, some empty; equal keys across runs keep the newest
    run's last one (so ``-0.0`` against ``0.0`` and two NaN payloads
    differ in bytes if the wrong one is kept).
    """
    rng = np.random.default_rng(seed)
    runs = [_run(rng, dtype, kind, int(rng.choice([0, 1, 4, 30]))) for kind in kinds]
    if not any(keys.size for keys, _ in runs):  # the state never merges nothing
        runs.append(_run(rng, dtype, "fresh", 1))
    ours, theirs = native.merge(runs), _numpy_merge(runs)
    if theirs is None:
        assert ours is None
        return
    assert ours is not False and ours is not None
    assert ours[0].dtype == theirs[0].dtype and ours[1].dtype == theirs[1].dtype
    assert ours[0].tobytes() == theirs[0].tobytes()
    assert ours[1].tobytes() == theirs[1].tobytes()


@needs_kernel
def test_a_tombstone_cancels_what_it_expires():
    """Everything cancelled is ``None`` on both paths; a partial cancel drops zeros."""
    keys = np.array([-0.0, 0.0, 1.0, np.nan, NEGATIVE_NAN])
    runs = [(keys, None), (keys, -np.arange(6, dtype=np.int64))]
    assert native.merge(runs) is None and _numpy_merge(runs) is None
    runs[1] = (keys[:2], -np.arange(3, dtype=np.int64))
    keys, cum = native.merge(runs)
    assert keys[0] == 1.0 and np.isnan(keys[1]) and cum.tolist() == [0, 1, 3]
    assert keys.tobytes() == _numpy_merge(runs)[0].tobytes()


@needs_kernel
def test_inputs_it_does_not_take_are_left_to_numpy():
    """Other dtypes, strided arrays and out-of-range indices: ``False``, nothing written."""
    run = np.arange(10.0)
    lows, highs = np.arange(4.0), np.arange(4.0) + 2
    out = np.full(1, -7, dtype=np.int64)
    assert not native.count(run.astype(np.float32), None, lows, highs, None, out)
    assert not native.count(run, None, lows.astype(np.int64), highs, None, out)
    assert not native.count(run[::2], None, lows, highs, None, out)
    assert not native.count(run, np.arange(10), lows, highs, None, out)  # cum too short
    assert out.tolist() == [-7]

    shares = local.segments(np.array([0, 2]), np.array([3, 4]))
    outs = np.full(2, -7, dtype=np.int64)
    beyond = (shares, np.array([0, 4]), np.array([5, 11]))  # the run has 10 keys
    assert not native.count(run, None, lows, highs, beyond, outs)
    stray = shares._replace(picked=shares.picked + 10)
    assert not native.count(run, None, lows, highs, (stray, None, None), outs)
    few = (shares, np.array([0]), np.array([5]))  # one clip for two segments
    assert not native.count(run, None, lows, highs, few, outs)
    assert not native.count(run, None, lows, highs, (shares, None, None), outs[:1])
    assert not native.count(run, None, lows, highs, None, outs[:0])
    assert outs.tolist() == [-7, -7]

    assert native.merge([(run.astype(np.float32), None)]) is False
    assert native.merge([(run, None), (run, np.arange(10))]) is False


@needs_kernel
def test_offers_it_does_not_take_are_left_to_offer_entries():
    """Other dtypes, strided, short or read-only arrays, a bad size: ``None``, nothing written."""
    heap = (np.full(4, 7.0), np.full(4, 7, dtype=np.int64), np.full(4, 7.0))
    priorities, keys = np.arange(3.0), np.arange(3.0) + 10
    assert native.offer(heap, 0, 4, 0, priorities.astype(np.float32), keys) is None
    assert native.offer(heap, 0, 4, 0, priorities, keys.astype(np.int64)) is None
    assert native.offer(heap, 0, 4, 0, priorities, np.arange(6.0)[::2]) is None
    assert native.offer(heap, 0, 4, 0, priorities[:2], keys) is None
    short = tuple(column[:3] for column in heap)
    assert native.offer(short, 1, 4, 0, priorities, keys) is None  # room for 3, not 4
    assert native.offer(heap, 5, 4, 0, priorities[:0], keys[:0]) is None  # size > capacity
    assert native.offer(heap, 0, 4, -1, priorities, keys) is None
    narrow = (heap[0], heap[1].astype(np.int32), heap[2])
    assert native.offer(narrow, 0, 4, 0, priorities, keys) is None
    frozen = heap[0].copy()
    frozen.flags.writeable = False
    assert native.offer((frozen, heap[1], heap[2]), 0, 4, 0, priorities, keys) is None
    assert native.offer(heap, 0, 4, 0, priorities, np.frombuffer(keys.tobytes())) is None
    assert [column.tolist() for column in heap] == [[7.0] * 4, [7] * 4, [7.0] * 4]
    assert native.offer(heap, 0, 4, 5, priorities, keys) == 8
    assert heap[1][:3].tolist() == [5, 6, 7]


@needs_kernel
def test_a_batch_the_kernel_declines_leaves_the_same_heap():
    """A read-only batch goes through ``offer_entries``, and the batches after
    it with it, to the heap and generator state an all-kernel run leaves."""
    data = np.random.default_rng(0)
    batches = [data.integers(0, 50, 30).astype(np.float64) for _ in range(6)]
    frozen = batches[2].copy()
    frozen.flags.writeable = False
    reservoirs, rngs = [], []
    for keys in (batches, batches[:2] + [frozen] + batches[3:]):
        reservoir, rng = incremental.DecayedReservoir(40, 0.8), np.random.default_rng(1)
        for batch_index, batch in enumerate(keys):
            reservoir.add_batch(batch, batch_index, rng)
        reservoirs.append(reservoir)
        rngs.append(rng.bit_generator.state)
    assert reservoirs[1]._entries is not None  # the fallback held the heap
    assert reservoirs[1].keys().tolist() == reservoirs[0].keys().tolist()
    assert rngs[0] == rngs[1]
    assert pickle.dumps(reservoirs[1]) == pickle.dumps(reservoirs[0])


@needs_kernel
def test_sweeps_it_does_not_take_are_left_to_numpy():
    """Other dtypes, strided, F-ordered or read-only arrays, mismatched shapes,
    fewer than one group: ``False``, nothing computed and nothing written."""
    rng = np.random.default_rng(3)
    freq, cand = rng.random((6, 3)), np.ones((6, 3))
    row_input, col_input = rng.random(6), rng.random(3)
    inputs = (freq, cand, row_input, col_input)
    before = [array.copy() for array in inputs]
    frozen = row_input.copy()
    frozen.flags.writeable = False
    declined = [
        (freq.astype(np.float32), cand, row_input, col_input),
        (freq, cand.astype(np.int64), row_input, col_input),
        (freq, cand, row_input.astype(np.int64), col_input),
        (np.asfortranarray(freq), cand, row_input, col_input),
        (freq, np.ones((6, 6))[:, ::2], row_input, col_input),
        (freq, cand, np.arange(12.0)[::2], col_input),
        (freq, cand, frozen, col_input),
        (freq, cand[:5], row_input, col_input),
        (freq, cand, row_input[:5], col_input),
        (freq, cand, row_input, col_input[:2]),
        (freq[0], cand[0], row_input[:1], col_input),
    ]
    for arrays in declined:
        assert native.sweep_rows(*arrays, 1.0, 0.2, 5.0, 3) is False
    assert native.sweep_rows(*inputs, 1.0, 0.2, 5.0, 0) is False
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before))
    taken = native.sweep_rows(*inputs, 1.0, 0.2, 5.0, 6)
    expected = _sweep_rows(*inputs, WeightFunction(1.0, 0.2), 5.0, 6)
    assert taken.tolist() == expected.tolist()


@needs_kernel
def test_a_block_weight_rounds_twice_as_numpy_rounds_it():
    """The kernel is built with ``-ffp-contract=off``: fused into one
    multiply-add, ``w_i * input + w_o * freq`` would round once and land
    above the threshold that numpy's two roundings meet exactly.

    Both products are inexact: 0.2 * 5 rounds down to 1.0, and 0.2 *
    5 * 2**-53 down to 2**-53.  Rounded each, their sum is the midpoint
    1 + 2**-53, which rounds to even, 1.0: not above the threshold, so the
    second row joins the first.  Fusing either product leaves the sum above
    the midpoint, 1 + 2**-52, and the row would open a second group.  (A
    target without FMA instructions never fuses.)
    """
    tiny = 2.0**-53
    freq = np.array([[2 * tiny], [3 * tiny]])
    row_input = np.array([2.0, 3.0])
    cand, col_input = np.ones((2, 1)), np.zeros(1)
    w, threshold = 0.2, 1.0
    exact_input = Fraction(w) * Fraction(row_input.sum())
    exact_output = Fraction(w) * Fraction(freq.sum())
    assert float(exact_input) + float(exact_output) == threshold
    assert float(exact_input + Fraction(float(exact_output))) > threshold
    assert float(Fraction(float(exact_input)) + exact_output) > threshold
    args = (freq, cand, row_input, col_input)
    assert _sweep_rows(*args, WeightFunction(w, w), threshold, 2).tolist() == [0, 2]
    assert native.sweep_rows(*args, w, w, threshold, 2).tolist() == [0, 2]


def test_the_count_path_says_which_kernel_loaded():
    """``COUNT_PATH`` is ``"native"`` exactly when the kernel loaded -- as it must
    wherever the default C compiler exists -- and names the reason otherwise."""
    assert (native.KERNEL is None) == native.COUNT_PATH.startswith("numpy: ")
    assert native.KERNEL is not None or native.COUNT_PATH != "native"
    compiler = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if "CC" not in os.environ and shutil.which(compiler):
        assert native.COUNT_PATH == "native"


@pytest.mark.skipif(shutil.which("false") is None, reason="needs a `false` command")
def test_without_a_compiler_numpy_counts_and_says_why():
    """``CC=false``: the build fails, numpy counts, and ``COUNT_PATH`` names the reason."""
    source = Path(local.__file__).resolve().parents[2]
    probe = (
        "import numpy as np\n"
        "from repro.joins import native\n"
        "from repro.joins.local import count_join_output\n"
        "from repro.joins.conditions import BandJoinCondition\n"
        "print(native.COUNT_PATH)\n"
        "print(count_join_output(np.arange(50.0), np.arange(50.0), BandJoinCondition(1.0)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(source), "CC": "false"},
        capture_output=True, text=True, check=True,
    )
    path, output = result.stdout.splitlines()
    assert path.startswith("numpy: ") and "false" in path
    assert int(output) == 50 + 2 * 49


def _count_span_args() -> "list[dict]":
    """The ``incremental_count`` spans' arguments of a short traced stream."""
    rng = np.random.default_rng(5)
    tracer = Tracer(clock=TickClock())
    engine = StreamingJoinEngine(
        4, BandJoinCondition(beta=1.0), WeightFunction(1.0, 0.2),
        policy=StaticEWHPolicy(), tracer=tracer, seed=5,
    )
    engine.start()
    for index in range(20):
        engine.process_batch(MicroBatch(index, *rng.integers(0, 50, (2, 40)).astype(float)))
    engine.close()
    return [span.args for span in tracer.spans if span.name == "incremental_count"]


def test_a_trace_says_when_numpy_counted(monkeypatch):
    """``count_path`` is on the count spans exactly when the kernel did not run."""
    spans = _count_span_args()
    assert spans and all("count_path" not in args for args in spans) == (
        native.COUNT_PATH == "native"
    )
    monkeypatch.setattr(native, "KERNEL", None)
    monkeypatch.setattr(native, "COUNT_PATH", "numpy: swapped out by the test")
    spans = _count_span_args()
    assert spans and all(args["count_path"] == native.COUNT_PATH for args in spans)


def test_a_world_writable_cache_is_refused(tmp_path):
    """A library anyone could have planted is never loaded: numpy counts instead."""
    package = tmp_path / "src"
    shutil.copytree(
        Path(native.__file__).resolve().parents[1], package / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = package / "repro" / "joins" / "__pycache__"
    cache.mkdir()
    cache.chmod(0o777)
    result = subprocess.run(
        [sys.executable, "-c", "from repro.joins import native; print(native.COUNT_PATH)"],
        env={**os.environ, "PYTHONPATH": str(package)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.startswith("numpy: OSError: ") and "world-writable" in result.stdout
    assert not list(cache.iterdir())
