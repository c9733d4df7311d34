"""Differential tests: the compiled kernel against the numpy code it replaced.

``repro.joins.native`` runs the count and the run merges of
``SortedRegionState`` in C, in one entry (``fold``: merge cascades, then
search and sum).  The numpy bodies it replaced are the reference here:
``reference_counting.count_task`` (a fold of one half: one reader's needles
against one run, with no cut) and ``reference_state.merge_sorted`` (a fold
of one cascade and no half).  Outputs must be equal and merged runs
equal **byte for byte** (keys and cumulative counts), over float64 and int64
keys with NaN (two payloads), +-inf, -0.0 and 0.0, the int64 extremes and
2**53 + 1; unsorted needles under every bound rule; empty runs and
needles; fresh, counted and tombstone runs.  Inputs the kernel does not
take -- other dtypes and sizes, strided arrays -- raise by name and leave
everything untouched; read-only inputs are read.  (Many readers, runs,
cuts and cascades at once -- a stream batch's fold -- are
``tests/test_count_half.py``'s subject.)
Coarsening's whole search (``native.coarsen``) is held to the band loop,
the numpy sweep and the row loop of ``tests/reference_planner.py`` in
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
import sysconfig
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_counting
import reference_state
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_planner import numpy_sweep_rows

from repro.core.grid import BandGrid, WeightedGrid
from repro.core.weights import WeightFunction
from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
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


#: A condition of each bound rule: a point (equi), an integral and a
#: fractional band, their transposes and the four inequalities.
CONDITIONS = [
    EquiJoinCondition(),
    BandJoinCondition(beta=2),
    BandJoinCondition(beta=1.5),
    BandJoinCondition(beta=2).transposed,
    BandJoinCondition(beta=1.5).transposed,
    *(InequalityJoinCondition(op) for op in InequalityOp),
]


@settings(max_examples=400, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["float", "int"]),
    kind=st.sampled_from(["fresh", "counted", "tombstone"]),
    size=st.sampled_from([0, 1, 2, 9, 60]),
    needles=st.sampled_from([0, 1, 3, 40]),
    condition=st.sampled_from(CONDITIONS),
)
@example(seed=1, dtype="float", kind="counted", size=0, needles=3, condition=CONDITIONS[0])
@example(seed=2, dtype="int", kind="tombstone", size=1, needles=0, condition=CONDITIONS[2])
def test_a_task_counts_what_numpy_counts(seed, dtype, kind, size, needles, condition):
    """Any needles (NaN, +-inf, the int64 extremes), in any order, on any run,
    bounded by each rule as ``joinable_bounds`` bounds them."""
    rng = np.random.default_rng(seed)
    run, cum = _run(rng, dtype, kind, size)
    keys = _keys(rng, dtype, needles)
    ours, theirs = np.full(1, -7, dtype=np.int64), np.zeros(1, dtype=np.int64)
    _count_one(run, cum, keys, condition.rule(), ours)
    reference_counting.count_task(run, cum, *reference_counting._bounds(condition, keys, run.dtype), theirs)
    # The kernel adds into its output: what it counted is the change.
    np.testing.assert_array_equal(ours + 7, theirs)


#: One machine, reading its share whole.
_ONE = np.zeros(1, dtype=np.int64)


def _count_one(run, cum, needles, rule, out, readers=_ONE) -> None:
    """Every needle one machine's, one run searched whole: a fold of one task and no cascade."""
    stops = np.array([needles.size], dtype=np.int64)
    native.fold([], [(needles, rule, _ONE, stops, [([(run, cum)], readers, None, None)])], out)


def _merge(runs):
    """A fold of one cascade that merges every run and no half: the merged ``(keys, cum)``, or ``None``."""
    (held,) = native.fold([(runs, None)], [], np.zeros(0, dtype=np.int64))
    return held[0] if held else None


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
    ours, theirs = _merge(runs), reference_state.merge_sorted(runs)
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
    assert _merge(runs) is None and reference_state.merge_sorted(runs) is None
    runs[1] = (keys[:2], -np.arange(3, dtype=np.int64))
    keys, cum = _merge(runs)
    assert keys[0] == 1.0 and np.isnan(keys[1]) and cum.tolist() == [0, 1, 3]
    assert keys.tobytes() == reference_state.merge_sorted(runs)[0].tobytes()


def test_inputs_it_does_not_take_raise():
    """Other dtypes and sizes, strided arrays, a read-only output: a
    ``TypeError`` / ``ValueError`` naming the input, nothing written.
    Read-only inputs are read."""
    run = np.arange(10.0)
    needles, band = np.arange(4.0), ("band", 1)
    out = np.full(1, -7, dtype=np.int64)
    frozen_out = out.copy()
    frozen_out.flags.writeable = False
    refused = [
        (TypeError, "fold: keys is float32, not float64 or int64",
         (run.astype(np.float32), None, needles, band)),
        (TypeError, "fold: needles is float32, not float64 or int64",
         (run, None, needles.astype(np.float32), band)),
        (ValueError, "fold: rule is '=', not band, band_inverse, <, <=, > or >=",
         (run, None, needles, ("=", 0))),
        (ValueError, "fold: keys is strided, not C-contiguous", (run[::2], None, needles, band)),
        (ValueError, "fold: cum is 10 int64, not 11 int64", (run, np.arange(10), needles, band)),
    ]
    for error, message, args in refused:
        with pytest.raises(error, match=message):
            _count_one(*args, out)
    with pytest.raises(TypeError, match="fold: out is int32, not int64"):
        _count_one(run, None, needles, band, out.astype(np.int32))
    with pytest.raises(ValueError, match="fold: out is read-only, not writable"):
        _count_one(run, None, needles, band, frozen_out)
    with pytest.raises(ValueError, match="fold: 1 starts and 1 stops for 0 machines"):
        _count_one(run, None, needles, band, out[:0])
    with pytest.raises(ValueError, match="fold: a group's reader is not one of the machines"):
        _count_one(run, None, needles, band, out, readers=np.ones(1, dtype=np.int64))
    assert out.tolist() == [-7]

    with pytest.raises(TypeError, match="fold: keys is float32, not float64 or int64"):
        _merge([(run.astype(np.float32), None)])
    with pytest.raises(TypeError, match="fold: keys is int64, not float64"):
        _merge([(run, None), (run.astype(np.int64), None)])
    with pytest.raises(ValueError, match="fold: cum is 10 int64, not 11 int64"):
        _merge([(run, None), (run, np.arange(10))])
    with pytest.raises(ValueError, match="fold: keys is strided, not C-contiguous"):
        _merge([(run, None), (run[::2], None)])

    read_only = [array.copy() for array in (run, needles)]
    for array in read_only:
        array.flags.writeable = False
    expected = np.zeros(1, dtype=np.int64)
    reference_counting.count_task(run, None, needles - 1, needles + 1, expected)
    out[:] = 0
    _count_one(read_only[0], None, read_only[1], band, out)
    assert out.tolist() == expected.tolist() == [11]
    runs = [(read_only[0], None), (run, -np.arange(11, dtype=np.int64))]
    assert _merge(runs) is None is reference_state.merge_sorted(runs)


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
        (TypeError, "offer: priorities is float32, not float64",
         (heap, 0, 4, 0, priorities.astype(np.float32), keys)),
        (TypeError, "offer: keys is int64, not float64",
         (heap, 0, 4, 0, priorities, keys.astype(np.int64))),
        (TypeError, "offer: heap counters is int32, not int64",
         (narrow, 0, 4, 0, priorities, keys)),
        (ValueError, "offer: keys is strided, not C-contiguous",
         (heap, 0, 4, 0, priorities, np.arange(6.0)[::2])),
        (ValueError, "offer: 2 priorities but 3 keys", (heap, 0, 4, 0, priorities[:2], keys)),
        (ValueError, "offer: the heap's arrays have no room for 4 entries",
         (short, 1, 4, 0, priorities, keys)),
        (ValueError, "offer: size 5, capacity 4, counter 0",
         (heap, 5, 4, 0, priorities[:0], keys[:0])),
        (ValueError, "offer: size 0, capacity 4, counter -5", (heap, 0, 4, -5, priorities, keys)),
        (ValueError, "offer: heap priorities is read-only, not writable",
         ((frozen, *heap[1:]), 0, 4, 0, priorities, keys)),
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
    assert reservoirs[1].payloads().tolist() == reservoirs[0].payloads().tolist()
    assert rngs[0] == rngs[1]
    assert pickle.dumps(reservoirs[1]) == pickle.dumps(reservoirs[0])


def band_arrays(grid: WeightedGrid) -> tuple:
    """A dense grid's band as ``native.coarsen``'s eight array arguments."""
    band = BandGrid.from_dense(grid)
    return (band.row_input, band.col_input, band.run_ptr, band.run_lo, band.run_hi,
            band.entry_ptr, band.entry_col, band.entry_value)


def test_coarsenings_it_does_not_take_raise():
    """Other dtypes, strided or 2-D arrays, sizes that do not fit, fewer
    than one group: a ``TypeError`` / ``ValueError`` naming the input,
    nothing computed and nothing written.  A read-only input is read."""
    rng = np.random.default_rng(3)
    candidate = np.ones((6, 3), dtype=bool)
    arrays = band_arrays(WeightedGrid(rng.random((6, 3)), rng.random(6), rng.random(3),
                                      candidate))
    row_input, col_input, run_ptr, run_lo, run_hi, entry_ptr, entry_col, entry_value = arrays
    scalars = (1.0, 0.2, 3, 3, 0.5, 30.0, 30.0, 4, 25, 0.01)
    before = [array.copy() for array in arrays]
    refused = [
        (TypeError, "coarsen: row_input is float32, not float64",
         dict(row_input=row_input.astype(np.float32))),
        (TypeError, "coarsen: run_lo is float64, not int64",
         dict(run_lo=run_lo.astype(np.float64))),
        (TypeError, "coarsen: entry_value is int64, not float64",
         dict(entry_value=entry_value.astype(np.int64))),
        (ValueError, "coarsen: col_input is strided, not C-contiguous",
         dict(col_input=np.repeat(col_input, 2)[::2])),
        (ValueError, "coarsen: entry_col is strided, not C-contiguous",
         dict(entry_col=np.repeat(entry_col, 2)[::2])),
        (ValueError, r"coarsen: entry_value has shape \(18, 1\), not one axis",
         dict(entry_value=entry_value[:, None].copy())),
        (ValueError, r"coarsen: run_ptr \(7,\) and entry_ptr \(7,\) do not fit row_input \(5,\)",
         dict(row_input=row_input[:5].copy())),
        (ValueError, r"coarsen: run_lo \(5,\) and run_hi \(6,\) are not one run list",
         dict(run_lo=run_lo[:5].copy())),
        (ValueError, r"coarsen: entry_col \(18,\) and entry_value \(17,\) are not one entry list",
         dict(entry_value=entry_value[:17].copy())),
        (ValueError, "coarsen: row 0's runs are not disjoint ascending ranges of the "
                     "col_input's 2 columns", dict(col_input=col_input[:2].copy())),
    ]
    names = ("row_input", "col_input", "run_ptr", "run_lo", "run_hi", "entry_ptr",
             "entry_col", "entry_value")
    for error, message, changes in refused:
        call = tuple(changes.get(name, array) for name, array in zip(names, arrays))
        with pytest.raises(error, match=message):
            native.coarsen(*call, *scalars)
    with pytest.raises(ValueError, match="coarsen: row_groups 0 and col_groups 3"):
        native.coarsen(*arrays, 1.0, 0.2, 0, 3, *scalars[4:])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, before))
    expected = native.coarsen(*arrays, *scalars)
    frozen = row_input.copy()
    frozen.flags.writeable = False
    again = native.coarsen(frozen, *arrays[1:], *scalars)
    assert all(np.array_equal(ours, theirs) for ours, theirs in zip(again, expected))


def test_a_block_weight_rounds_twice_as_numpy_rounds_it():
    """The kernel is built with ``-ffp-contract=off``: fused into one
    multiply-add, ``w_i * input + w_o * freq`` would round once and land
    above the threshold that numpy's two roundings meet exactly.

    Both products are inexact: 0.2 * 5 rounds down to 1.0, and 0.2 *
    5 * 2**-53 down to 2**-53.  Rounded each, their sum is the midpoint
    1 + 2**-53, which rounds to even, 1.0: not above the threshold, so the
    second row joins the first, the third opens a second group and two
    groups fit.  Fusing either product leaves the sum above the midpoint,
    1 + 2**-52: the second row would open a group and the third a third,
    and a search whose ends are both 1.0 would find no cover.  The coarse
    grid's heaviest cell is that block's weight: 1.0, not 1 + 2**-52.  (A
    target without FMA instructions never fuses.)
    """
    tiny = 2.0**-53
    freq = np.array([[2 * tiny], [3 * tiny], [0.0]])
    row_input = np.array([2.0, 3.0, 3.0])
    cand, col_input = np.ones((3, 1)), np.zeros(1)
    w, threshold = 0.2, 1.0
    exact_input = Fraction(w) * Fraction(row_input[:2].sum())
    exact_output = Fraction(w) * Fraction(freq.sum())
    assert float(exact_input) + float(exact_output) == threshold
    assert float(exact_input + Fraction(float(exact_output))) > threshold
    assert float(Fraction(float(exact_input)) + exact_output) > threshold
    args = (freq, cand, row_input, col_input)
    assert numpy_sweep_rows(*args, WeightFunction(w, w), threshold, 2).tolist() == [0, 2, 3]
    grid = WeightedGrid(freq, row_input, col_input, cand > 0)
    found = native.coarsen(*band_arrays(grid), w, w, 2, 1, threshold, threshold, threshold,
                           4, 25, 0.01)
    assert found is not None
    assert found[0].tolist() == [0, 2, 3]
    assert found[6] == threshold


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
    raises ``KernelUnavailable`` naming the cache, and nothing is built.
    The child writes no bytecode, so the cache holds only what the
    kernel's loader would put there."""
    package, cache = _package_copy(tmp_path)
    cache.mkdir()
    cache.chmod(0o777)
    said = _import_kernel(package, PYTHONDONTWRITEBYTECODE="1")
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


#: :data:`IMPORT_PROBE` with the kernel's module removed just before its one load.
VANISHING_PROBE = (
    "import os\n"
    "from importlib.machinery import ExtensionFileLoader\n"
    "import numpy\n"
    "load = ExtensionFileLoader.create_module\n"
    "def vanishing(self, spec):\n"
    "    if os.path.basename(self.path).startswith('native.'):\n"
    "        ExtensionFileLoader.create_module = load\n"
    "        os.unlink(self.path)\n"
    "    return load(self, spec)\n"
    "ExtensionFileLoader.create_module = vanishing\n"
) + IMPORT_PROBE


def test_a_library_removed_before_its_load_is_built_again(tmp_path):
    """Another build may remove a library as stale between a loader's
    check and its load: the loader builds it again instead of raising."""
    package, cache = _package_copy(tmp_path)
    assert _import_kernel(package) == "loaded"
    (library,) = cache.glob("native.*.so")
    assert _import_kernel(package, VANISHING_PROBE) == "loaded"
    assert list(cache.glob("native.*.so")) == [library]


def test_the_cache_name_changes_with_the_interpreter_abi_and_numpy():
    """A module built for another interpreter ABI or against another numpy
    is another build: each gives another name, and the loaded module's name
    is this interpreter's and this numpy's."""
    argv = native._argv()
    soabis = ("cpython-311-x86_64-linux-gnu", "cpython-312-x86_64-linux-gnu")
    versions = ("1.26.4", "2.4.6")
    names = {native._digest(argv, soabi, version) for soabi in soabis for version in versions}
    assert len(names) == 4
    live = native._digest(argv, sysconfig.get_config_var("SOABI") or "", np.__version__)
    assert Path(native._KERNEL.__file__).name == f"native.{live}.so"
