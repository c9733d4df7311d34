"""The compiled kernel: ``native.c``, built on first use and loaded through ``ctypes``.

The stream batch and the plan build spend most of their interpreter time
in four inner loops that numpy can only run as a dozen small-array calls
each, or as one Python-level step per element: the searches of one sorted
run for a batch's needles (clipped and summed per machine), the merge of a
state's sorted runs, the offer of a batch's arrivals to the stream
histogram's sample reservoir, a ``heapq`` push / ``heapreplace`` per key,
and coarsening's greedy sweep, a group of small cumulative sums per window
of rows.  ``native.c`` does each in one call -- :func:`count` for one task
of :func:`~repro.joins.local.count_regions`, :func:`merge` for
:func:`~repro.streaming.incremental._merge_sorted`, :func:`offer` for
:meth:`~repro.streaming.incremental.DecayedReservoir.add_batch`,
:func:`sweep_rows` for one threshold probe of
:func:`~repro.core.coarsening._sweep_rows` -- and its results equal the
Python code's bit for bit: counts and merged runs
(``tests/test_native_kernel.py``), the reservoir's heap array entry for
entry (``tests/test_sampling_oracle.py``), and the sweep's boundaries
(``tests/test_planner_oracle.py``).

The Python code stays: it is the reference the kernel is tested against,
and the path whenever the kernel cannot run.  Which path runs is observed,
never configured.  On import the module compiles ``native.c`` with the C
compiler (the ``CC`` environment variable, else the one Python was built
with, ``-O2 -ffp-contract=off -shared -fPIC``: the sweep must round
every product and sum on its own, as numpy does) into this package's own
``__pycache__/``, named by a SHA-256 of the source, the compiler's argv
and the platform, so a checkout compiles once and every later process --
set-up children, sticky and pool workers -- loads the cached library.  It
is written to a temporary name and renamed into place, so concurrent first
imports never load a partial file; a world-writable cache directory is
refused.  If any step fails (no compiler, a read-only package, a
``dlopen`` error) :data:`KERNEL` is ``None``, :data:`COUNT_PATH` says why,
and every caller takes its numpy path.

This module is the one place native code enters the process (analyzer rule
``FFI001``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import sysconfig
from pathlib import Path

import numpy as np

__all__ = ["COUNT_PATH", "KERNEL", "count", "merge", "offer", "sweep_rows"]

SOURCE = Path(__file__).with_name("native.c")

#: The key dtypes the kernel takes; ``_INT`` is its counts' and positions' too.
_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)
#: A zero-length view of an array's buffer: what its address is read from.
_VIEW = ctypes.c_char * 0
_addressof = ctypes.addressof

_POINTER, _SIZE = ctypes.c_void_p, ctypes.c_int64
_COUNT_ARGS = (_POINTER, _SIZE, _POINTER, _POINTER, _POINTER, _SIZE, _POINTER,
               _POINTER, _SIZE, _POINTER, _POINTER, _SIZE, _POINTER)
_MERGE_ARGS = (_SIZE, _POINTER, _POINTER, _POINTER)
_OFFER_ARGS = (_POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _SIZE, _POINTER, _POINTER, _SIZE)
_DOUBLE = ctypes.c_double
_SWEEP_ARGS = (_POINTER, _POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _DOUBLE, _DOUBLE,
               _DOUBLE, _SIZE, _POINTER)


def _build() -> ctypes.CDLL:
    """Compile ``native.c`` unless its library is cached; load it; declare its functions."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()
    argv = [*compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC"]
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*argv, sysconfig.get_platform()):
        digest.update(b"\0" + part.encode())
    cache = SOURCE.parent / "__pycache__"
    cache.mkdir(exist_ok=True)
    if cache.stat().st_mode & stat.S_IWOTH:
        raise OSError(f"{cache} is world-writable")
    library = cache / f"native.{digest.hexdigest()[:32]}.so"
    if not library.exists():
        import subprocess

        partial = cache / f"{library.name}.{os.getpid()}.tmp"
        try:
            try:
                done = subprocess.run(
                    [*argv, "-o", str(partial), str(SOURCE)],
                    capture_output=True, text=True, errors="replace", timeout=300,
                )
            except subprocess.TimeoutExpired as error:
                raise OSError(f"{argv[0]} ran past {error.timeout:.0f} s") from None
            if done.returncode:
                message = (done.stderr.strip().splitlines() or [""])[-1]
                raise OSError(f"{argv[0]} exited {done.returncode} {message}".strip())
            os.replace(partial, library)
        finally:
            partial.unlink(missing_ok=True)
    loaded = ctypes.CDLL(str(library))
    for key in ("f64", "i64"):
        function = getattr(loaded, f"count_{key}")
        function.argtypes, function.restype = _COUNT_ARGS, ctypes.c_int
        function = getattr(loaded, f"merge_{key}")
        function.argtypes, function.restype = _MERGE_ARGS, ctypes.c_int64
    loaded.offer.argtypes, loaded.offer.restype = _OFFER_ARGS, ctypes.c_int64
    loaded.sweep_rows.argtypes, loaded.sweep_rows.restype = _SWEEP_ARGS, ctypes.c_int64
    return loaded


def _load() -> "tuple[ctypes.CDLL | None, str]":
    """The loaded kernel and ``"native"``, or ``None`` and why the numpy path runs."""
    try:
        return _build(), "native"
    except (OSError, AttributeError) as error:  # no compiler, cache or symbol
        return None, f"numpy: {type(error).__name__}: {error}"


#: The loaded library, or ``None`` when the numpy path runs.
KERNEL: "ctypes.CDLL | None"
#: Which path counts, merges, offers to the reservoirs and sweeps coarsening's
#: rows: ``"native"``, or
#: ``"numpy: <why the kernel is not loaded>"``.
COUNT_PATH: str
KERNEL, COUNT_PATH = _load()


def _addresses(arrays: "list[np.ndarray]") -> "list[int] | None":
    """Each array's data address, or ``None`` unless every one is writable, C-contiguous and aligned.

    Read through the buffer protocol -- a zero-length ``ctypes`` view of
    each array, iterated by ``map`` in C -- for about 0.5 us an array,
    where ``__array_interface__`` builds a dict for about 2 us and
    ``ndarray.ctypes`` costs as much again in Python-level calls.
    """
    for array in arrays:
        if not array.flags.carray:
            return None
    return list(map(_addressof, map(_VIEW.from_buffer, arrays)))


def count(run, cum, lows, highs, clip, out: np.ndarray) -> bool:
    """One task of :func:`~repro.joins.local.count_regions` in the kernel; whether it ran.

    ``run`` is the sorted second side, ``cum`` its cumulative counts or
    ``None``, ``lows`` / ``highs`` the needles' joinable bounds, ``clip``
    the task's ``(segments, lows, highs)`` or ``None``, and ``out`` the
    task's outputs, which it writes.  Returns ``False``, having written
    nothing, when the kernel is not loaded or an input is not one it takes
    (float64 or int64 keys, the bounds in the run's dtype; int64 counts and
    positions, in range; every array writable, C-contiguous and aligned);
    the caller then counts with numpy.
    """
    kernel = KERNEL
    dtype = run.dtype
    if (
        kernel is None
        or not (dtype == _FLOAT or dtype == _INT)
        or lows.dtype != dtype
        or highs.dtype != dtype
        or highs.size != lows.size
        or out.dtype != _INT
        or not out.size
        or not (cum is None or (cum.dtype == _INT and cum.size == run.size + 1))
    ):
        return False
    gathered = segments = 0
    if clip is None:
        arrays = [run, lows, highs, out]
    else:
        shares, clip_lows, clip_highs = clip
        window = slice(shares.first, shares.last)
        lows, highs = lows[window], highs[window]
        gathered, segments = shares.picked.size, shares.count
        arrays = [run, lows, highs, out, shares.picked, shares.segment]
        if out.size < segments:
            return False
        if clip_lows is not None:
            if not (
                clip_lows.dtype == _INT == clip_highs.dtype
                and segments <= clip_lows.size
                and segments <= clip_highs.size
            ):
                return False
            arrays += clip_lows, clip_highs
        if shares.picked.dtype != _INT or shares.segment.dtype != _INT:
            return False
    if cum is not None:
        arrays.append(cum)
    addresses = _addresses(arrays)
    if addresses is None:
        return False
    keys, low, high, target, *rest = addresses
    counts = rest.pop() if cum is not None else None
    picked, segment, clip_lows, clip_highs = (*rest, None, None, None, None)[:4]
    function = kernel.count_f64 if dtype == _FLOAT else kernel.count_i64
    return not function(
        keys, run.size, counts, low, high, lows.size, picked, segment, gathered,
        clip_lows, clip_highs, segments, target,
    )


def merge(runs: "list[tuple[np.ndarray, np.ndarray | None]]"):
    """:func:`~repro.streaming.incremental._merge_sorted` in the kernel, or ``False``.

    Returns the merged ``(keys, cum)``, ``None`` when every count
    cancelled, or ``False`` -- nothing computed -- when the kernel is not
    loaded or a run is not one it takes (keys float64 or int64, all of one
    dtype; ``cum`` int64, one longer than its keys; writable, C-contiguous
    and aligned).
    """
    kernel = KERNEL
    dtype = runs[0][0].dtype
    if kernel is None or not (dtype == _FLOAT or dtype == _INT):
        return False
    arrays = []
    total = 0
    for keys, cum in runs:
        if keys.dtype != dtype:
            return False
        total += keys.size
        if cum is None:
            arrays.append(keys)
        elif cum.dtype == _INT and cum.size == keys.size + 1:
            arrays += keys, cum
        else:
            return False
    addresses = _addresses(arrays)
    if addresses is None:
        return False
    # Per run: its keys' address, their number and its counts' address (0: none).
    table = []
    at = 0
    for keys, cum in runs:
        table += addresses[at], keys.size, 0 if cum is None else addresses[at + 1]
        at += 1 if cum is None else 2
    merged_keys = np.empty(total, dtype=dtype)
    merged_cum = np.empty(total + 1, dtype=np.int64)
    function = kernel.merge_f64 if dtype == _FLOAT else kernel.merge_i64
    entries = function(
        len(runs),
        (ctypes.c_uint64 * (3 * len(runs)))(*table),
        *_addresses([merged_keys, merged_cum]),
    )
    if entries < 0:
        return False
    if entries == 0:
        return None
    # Give back the room no entry took (a realloc in place, no copy).
    merged_keys.resize(entries, refcheck=False)
    merged_cum.resize(entries + 1, refcheck=False)
    return merged_keys, merged_cum


def offer(heap, size: int, capacity: int, counter: int, priorities, keys) -> "int | None":
    """:meth:`~repro.streaming.incremental.DecayedReservoir.add_batch`'s heap loop in the kernel.

    ``heap`` is the reservoir's ``(priorities, counters, keys)`` arrays,
    whose first ``size`` entries are the heap, ``counter`` its next unused
    counter, and ``priorities`` / ``keys`` the batch's entries in offer
    order.  The kernel writes the heap array
    :func:`~repro.sampling.reservoir.offer_entries` would leave behind the
    batch-start filter, and this returns the next unused counter; the heap
    then holds ``min(capacity, size + len(keys))`` entries.  Returns
    ``None``, having written nothing, when the kernel is not loaded or an
    input is not one it takes (float64 priorities and keys, int64
    counters; the heap's arrays with room for that many entries; every
    array writable, C-contiguous and aligned).
    """
    kernel = KERNEL
    heap_priorities, counters, heap_keys = heap
    room = min(capacity, size + keys.size)
    if (
        kernel is None
        or priorities.dtype != _FLOAT
        or keys.dtype != _FLOAT
        or priorities.size != keys.size
        or heap_priorities.dtype != _FLOAT
        or counters.dtype != _INT
        or heap_keys.dtype != _FLOAT
        or min(heap_priorities.size, counters.size, heap_keys.size) < room
    ):
        return None
    addresses = _addresses([*heap, priorities, keys])
    if addresses is None:
        return None
    *target, batch_priorities, batch_keys = addresses
    counter = kernel.offer(
        *target, size, capacity, counter, batch_priorities, batch_keys, keys.size
    )
    return None if counter < 0 else counter


def sweep_rows(freq, cand, row_input, col_input, w_i, w_o, threshold, max_groups):
    """One greedy sweep of :func:`~repro.core.coarsening._sweep_rows` in the kernel.

    ``freq`` / ``cand`` are the rows' frequencies and candidate counts by
    column group (rows x groups), ``row_input`` / ``col_input`` the rows'
    and the groups' input, ``w_i`` / ``w_o`` the cost model's coefficients.
    Returns the boundary array ``_sweep_rows`` returns, ``None`` when more
    than ``max_groups`` groups are needed, or ``False`` -- nothing computed
    -- when the kernel is not loaded or an input is not one it takes
    (float64 arrays of matching shapes, each writable, C-contiguous and
    aligned; ``max_groups`` at least 1).  Candidate counts must be whole
    and non-negative, as ``_aggregate_columns`` makes them: the kernel sums
    them from each group's first row.  An F-ordered aggregate is
    declined, never read with the wrong strides: the caller makes its
    arrays C-contiguous once per axis.
    """
    kernel = KERNEL
    if (
        kernel is None
        or freq.dtype != _FLOAT
        or cand.dtype != _FLOAT
        or row_input.dtype != _FLOAT
        or col_input.dtype != _FLOAT
        or freq.ndim != 2
        or cand.shape != freq.shape
        or row_input.shape != freq.shape[:1]
        or col_input.shape != freq.shape[1:]
        or max_groups < 1
    ):
        return False
    out = np.empty(max_groups + 1, dtype=_INT)
    addresses = _addresses([freq, cand, row_input, col_input, out])
    if addresses is None:
        return False
    *inputs, target = addresses
    written = kernel.sweep_rows(
        *inputs, *freq.shape, w_i, w_o, threshold, max_groups, target
    )
    if written < 0:
        return False
    return out[:written] if written else None
