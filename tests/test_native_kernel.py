"""Differential tests: the compiled kernel against the numpy code it replaced.

``repro.joins.native`` runs one task of ``count_regions`` (search and sum)
and one run merge of ``SortedRegionState`` in C.  The numpy bodies it
replaced are the reference here: ``reference_counting.count_task`` and
``reference_state.merge_sorted``.  Outputs must be equal and merged runs
equal **byte for byte** (keys and cumulative counts), over float64 and int64
keys with NaN (two payloads), +-inf, -0.0 and 0.0, the int64 extremes and
2**53 + 1; unsorted needles and bounds in any order; empty runs and
needles; fresh, counted and tombstone runs.  Inputs the kernel does not
take -- other dtypes and sizes, strided arrays -- raise by name and leave
everything untouched; read-only inputs are read.  (A stream batch's count,
``native.count_half``, is ``tests/test_count_half.py``'s subject.)
Coarsening's sweep (``native.sweep_rows``) is held to the numpy sweep and
the row loop of ``tests/reference_planner.py`` in
``tests/test_planner_oracle.py``; here are the inputs it refuses and the
rounding its build must keep.  Without a C compiler, or with a cache anyone
could write to, the import raises ``KernelUnavailable``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_counting
import reference_state
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_planner import numpy_sweep_rows

from repro.core.weights import WeightFunction
from repro.joins import native
from repro.streaming import incremental

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


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float", "int"]),
    kind=st.sampled_from(["fresh", "counted", "tombstone"]),
    size=st.sampled_from([0, 1, 2, 9, 60]),
    needles=st.sampled_from([0, 1, 3, 40]),
)
@example(seed=1, dtype="float", kind="counted", size=0, needles=3)
@example(seed=2, dtype="int", kind="tombstone", size=1, needles=0)
def test_a_task_counts_what_numpy_counts(seed, dtype, kind, size, needles):
    """Any bounds (NaN, +-inf, low above high), in any order, on any run."""
    rng = np.random.default_rng(seed)
    run, cum = _run(rng, dtype, kind, size)
    lows = _keys(rng, dtype, needles)
    highs = np.where(rng.random(needles) < 0.8, np.maximum(lows, _keys(rng, dtype, needles)), lows)
    ours, theirs = np.full(1, -7, dtype=np.int64), np.zeros(1, dtype=np.int64)
    native.count(run, cum, lows, highs, ours)
    reference_counting.count_task(run, cum, lows, highs, theirs)
    np.testing.assert_array_equal(ours, theirs)


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
    ours, theirs = native.merge(runs), reference_state.merge_sorted(runs)
    if theirs is None:
        assert ours is None
        return
    assert ours is not None
    assert ours[0].dtype == theirs[0].dtype and ours[1].dtype == theirs[1].dtype
    assert ours[0].tobytes() == theirs[0].tobytes()
    assert ours[1].tobytes() == theirs[1].tobytes()


def test_a_tombstone_cancels_what_it_expires():
    """Everything cancelled is ``None``, as in numpy; a partial cancel drops zeros."""
    keys = np.array([-0.0, 0.0, 1.0, np.nan, NEGATIVE_NAN])
    runs = [(keys, None), (keys, -np.arange(6, dtype=np.int64))]
    assert native.merge(runs) is None and reference_state.merge_sorted(runs) is None
    runs[1] = (keys[:2], -np.arange(3, dtype=np.int64))
    keys, cum = native.merge(runs)
    assert keys[0] == 1.0 and np.isnan(keys[1]) and cum.tolist() == [0, 1, 3]
    assert keys.tobytes() == reference_state.merge_sorted(runs)[0].tobytes()


def test_inputs_it_does_not_take_raise():
    """Other dtypes and sizes, strided arrays, a read-only output: a
    ``TypeError`` / ``ValueError`` naming the input, nothing written.
    Read-only inputs are read."""
    run = np.arange(10.0)
    lows, highs = np.arange(4.0), np.arange(4.0) + 2
    out = np.full(1, -7, dtype=np.int64)
    frozen_out = out.copy()
    frozen_out.flags.writeable = False
    refused = [
        (TypeError, "run is float32", (run.astype(np.float32), None, lows, highs)),
        (TypeError, "lows / highs are int64 / float64", (run, None, lows.astype(np.int64), highs)),
        (ValueError, "4 lows but 3 highs", (run, None, lows, highs[:3])),
        (ValueError, "run is not C-contiguous", (run[::2], None, lows, highs)),
        (ValueError, "cum is 10 int64, not 11 int64", (run, np.arange(10), lows, highs)),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            native.count(*args, out)
    with pytest.raises(TypeError, match="out is int32"):
        native.count(run, None, lows, highs, out.astype(np.int32))
    with pytest.raises(ValueError, match="out is read-only"):
        native.count(run, None, lows, highs, frozen_out)
    with pytest.raises(ValueError, match="no entry for the task"):
        native.count(run, None, lows, highs, out[:0])
    assert out.tolist() == [-7]

    with pytest.raises(TypeError, match="run keys are float32"):
        native.merge([(run.astype(np.float32), None)])
    with pytest.raises(TypeError, match="runs of float64 and int64 keys"):
        native.merge([(run, None), (run.astype(np.int64), None)])
    with pytest.raises(ValueError, match="cum is 10 int64, not 11 int64"):
        native.merge([(run, None), (run, np.arange(10))])
    with pytest.raises(ValueError, match="a run's keys or cum is not C-contiguous"):
        native.merge([(run, None), (run[::2], None)])

    read_only = [array.copy() for array in (run, lows, highs)]
    for array in read_only:
        array.flags.writeable = False
    expected = np.zeros(1, dtype=np.int64)
    reference_counting.count_task(run, None, lows, highs, expected)
    native.count(read_only[0], None, *read_only[1:], out)
    assert out.tolist() == expected.tolist()
    runs = [(read_only[0], None), (run, -np.arange(11, dtype=np.int64))]
    assert native.merge(runs) is None is reference_state.merge_sorted(runs)


def test_offers_it_does_not_take_raise():
    """Other dtypes and sizes, strided or short arrays, a bad size or counter,
    a read-only heap: a ``TypeError`` / ``ValueError`` naming the input,
    nothing written.  A read-only batch is read."""
    heap = (np.full(4, 7.0), np.full(4, 7, dtype=np.int64), np.full(4, 7.0))
    priorities, keys = np.arange(3.0), np.arange(3.0) + 10
    short = tuple(column[:3] for column in heap)
    narrow = (heap[0], heap[1].astype(np.int32), heap[2])
    frozen = heap[0].copy()
    frozen.flags.writeable = False
    refused = [
        (TypeError, "priorities float32", (heap, 0, 4, 0, priorities.astype(np.float32), keys)),
        (TypeError, "keys int64", (heap, 0, 4, 0, priorities, keys.astype(np.int64))),
        (TypeError, "heap counters int32", (narrow, 0, 4, 0, priorities, keys)),
        (ValueError, "keys is not C-contiguous", (heap, 0, 4, 0, priorities, np.arange(6.0)[::2])),
        (ValueError, "2 priorities but 3 keys", (heap, 0, 4, 0, priorities[:2], keys)),
        (ValueError, "no room for 4 entries", (short, 1, 4, 0, priorities, keys)),
        (ValueError, "size 5, capacity 4, counter 0", (heap, 5, 4, 0, priorities[:0], keys[:0])),
        (ValueError, "counter -5", (heap, 0, 4, -5, priorities, keys)),
        (ValueError, "heap priorities is read-only", ((frozen, *heap[1:]), 0, 4, 0, priorities, keys)),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            native.offer(*args)
    assert [column.tolist() for column in heap] == [[7.0] * 4, [7] * 4, [7.0] * 4]
    assert native.offer(heap, 0, 4, 5, priorities, np.frombuffer(keys.tobytes())) == 8
    assert heap[1][:3].tolist() == [5, 6, 7]
    assert sorted(heap[2][:3].tolist()) == keys.tolist()


def test_a_batch_the_kernel_declines_leaves_the_same_heap(monkeypatch):
    """A read-only batch -- a frozen copy, or ``np.frombuffer`` over bytes --
    or a strided one is offered by the kernel as its writable, contiguous
    twin is: the same heap arrays, generator state and pickle after it and
    after the batches that follow, one kernel call per batch."""
    data = np.random.default_rng(0)
    batches = [data.integers(0, 50, 30).astype(np.float64) for _ in range(6)]
    frozen = batches[2].copy()
    frozen.flags.writeable = False
    strided = np.repeat(batches[4], 2)[::2]
    assert not strided.flags.c_contiguous
    read_only = batches[:2] + [frozen, np.frombuffer(batches[3].tobytes()), strided, batches[5]]
    offers = []
    offer = native.offer

    def counted(*args):
        offers.append(args[-1].flags.writeable)
        return offer(*args)

    monkeypatch.setattr(native, "offer", counted)
    reservoirs, rngs = [], []
    for keys in (batches, read_only):
        reservoir, rng = incremental.DecayedReservoir(40, 0.8), np.random.default_rng(1)
        for batch_index, batch in enumerate(keys):
            reservoir.add_batch(batch, batch_index, rng)
        reservoirs.append(reservoir)
        rngs.append(rng.bit_generator.state)
    assert offers == [True] * 6 + [True, True, False, False, True, True]
    assert reservoirs[1].keys().tolist() == reservoirs[0].keys().tolist()
    assert rngs[0] == rngs[1]
    assert pickle.dumps(reservoirs[1]) == pickle.dumps(reservoirs[0])


def test_sweeps_it_does_not_take_raise():
    """Other dtypes, strided or F-ordered arrays, mismatched shapes, fewer
    than one group: a ``TypeError`` / ``ValueError`` naming the input,
    nothing computed and nothing written.  A read-only input is read."""
    rng = np.random.default_rng(3)
    freq, cand = rng.random((6, 3)), np.ones((6, 3))
    row_input, col_input = rng.random(6), rng.random(3)
    inputs = (freq, cand, row_input, col_input)
    before = [array.copy() for array in inputs]
    refused = [
        (TypeError, "freq float32", (freq.astype(np.float32), cand, row_input, col_input)),
        (TypeError, "cand int64", (freq, cand.astype(np.int64), row_input, col_input)),
        (TypeError, "row_input int64", (freq, cand, row_input.astype(np.int64), col_input)),
        (ValueError, "freq is not C-contiguous", (np.asfortranarray(freq), cand, row_input, col_input)),
        (ValueError, "cand is not C-contiguous", (freq, np.ones((6, 6))[:, ::2], row_input, col_input)),
        (ValueError, "row_input is not C-contiguous", (freq, cand, np.arange(12.0)[::2], col_input)),
        (ValueError, "not one matrix", (freq, cand[:5], row_input, col_input)),
        (ValueError, "do not fit", (freq, cand, row_input[:5], col_input)),
        (ValueError, "do not fit", (freq, cand, row_input, col_input[:2])),
        (ValueError, "not one matrix", (freq[0], cand[0], row_input[:1], col_input)),
    ]
    for error, message, arrays in refused:
        with pytest.raises(error, match=message):
            native.sweep_rows(*arrays, 1.0, 0.2, 5.0, 3)
    with pytest.raises(ValueError, match="max_groups is 0"):
        native.sweep_rows(*inputs, 1.0, 0.2, 5.0, 0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs, before))
    expected = numpy_sweep_rows(*inputs, WeightFunction(1.0, 0.2), 5.0, 6).tolist()
    assert native.sweep_rows(*inputs, 1.0, 0.2, 5.0, 6).tolist() == expected
    frozen = row_input.copy()
    frozen.flags.writeable = False
    assert native.sweep_rows(freq, cand, frozen, col_input, 1.0, 0.2, 5.0, 6).tolist() == expected


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
    assert numpy_sweep_rows(*args, WeightFunction(w, w), threshold, 2).tolist() == [0, 2]
    assert native.sweep_rows(*args, w, w, threshold, 2).tolist() == [0, 2]


#: Imports the kernel in a fresh interpreter; prints the error's name and message.
IMPORT_PROBE = (
    "try:\n"
    "    import repro.joins.native\n"
    "except Exception as error:\n"
    "    print(type(error).__name__, error)\n"
    "else:\n"
    "    print('loaded')\n"
)


def _import_kernel(package: Path, probe: str = IMPORT_PROBE, **environment: str) -> str:
    """``probe``'s output with ``package`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(package), **environment},
        capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.mark.skipif(shutil.which("false") is None, reason="needs a `false` command")
def test_without_a_compiler_the_import_says_why(tmp_path):
    """``CC=false``, or a compiler that fails: the import raises
    ``KernelUnavailable`` with the compiler's argv, exit status and stderr."""
    source = Path(native.__file__).resolve().parents[2]
    said = _import_kernel(source, CC="false")
    assert said.startswith("KernelUnavailable ['false', '-O2', '-ffp-contract=off'")
    assert "exited with status 1; stderr: (empty)" in said
    compiler = tmp_path / "cc"
    compiler.write_text("#!/bin/sh\necho 'cc: no such target' >&2\nexit 3\n")
    compiler.chmod(0o755)
    said = _import_kernel(source, CC=str(compiler))
    assert said.startswith(f"KernelUnavailable ['{compiler}', '-O2'")
    assert said.endswith("exited with status 3; stderr: cc: no such target")


def _package_copy(tmp_path: Path) -> "tuple[Path, Path]":
    """A copy of the ``repro`` package with no kernel cache, and where its cache goes."""
    package = tmp_path / "src"
    shutil.copytree(
        Path(native.__file__).resolve().parents[1], package / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return package, package / "repro" / "joins" / "__pycache__"


def test_a_world_writable_cache_is_refused(tmp_path):
    """A library anyone could have planted is never loaded: the import
    raises ``KernelUnavailable`` naming the cache, and nothing is built."""
    package, cache = _package_copy(tmp_path)
    cache.mkdir()
    cache.chmod(0o777)
    said = _import_kernel(package)
    assert said.startswith(f"KernelUnavailable {cache} is world-writable")
    assert not list(cache.iterdir())


def test_a_build_removes_the_stale_libraries(tmp_path):
    """A build leaves one library in the cache: the ones other sources or
    compiler argvs built are removed, another build's partial file is not."""
    package, cache = _package_copy(tmp_path)
    cache.mkdir()
    stale = cache / "native.0123456789abcdef0123456789abcdef.so"
    stale.write_bytes(b"an old build")
    partial = cache / f"{stale.name}.12345.tmp"
    partial.write_bytes(b"")
    assert _import_kernel(package) == "loaded"
    libraries = list(cache.glob("native.*.so"))
    assert len(libraries) == 1 and not stale.exists() and partial.exists()
    assert _import_kernel(package) == "loaded"
    assert list(cache.glob("native.*.so")) == libraries


#: :data:`IMPORT_PROBE` with the library removed just before its one ``dlopen``.
VANISHING_PROBE = (
    "import ctypes, os\n"
    "load = ctypes.CDLL\n"
    "def vanishing(path, *args, **kwargs):\n"
    "    ctypes.CDLL = load\n"
    "    os.unlink(path)\n"
    "    return load(path, *args, **kwargs)\n"
    "ctypes.CDLL = vanishing\n"
) + IMPORT_PROBE


def test_a_library_removed_before_its_load_is_built_again(tmp_path):
    """Another build may remove a library as stale between a loader's
    check and its ``dlopen``: the loader builds it again instead of raising."""
    package, cache = _package_copy(tmp_path)
    assert _import_kernel(package) == "loaded"
    (library,) = cache.glob("native.*.so")
    assert _import_kernel(package, VANISHING_PROBE) == "loaded"
    assert list(cache.glob("native.*.so")) == [library]
