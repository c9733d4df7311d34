"""The compiled kernel: ``native.c``, built on first import and loaded through ``ctypes``.

The stream batch and the plan build spend most of their interpreter time
in inner loops that numpy can only run as a dozen small-array calls
each, or as one Python-level step per element: the searches of a state's
runs for a batch's needles (each machine's slice cut, its needles
searched and its counts summed), a transposed band's exact inverse
bounds, the merge of a
state's sorted runs, the offer of entries to an Efraimidis--Spirakis
reservoir (the stream histogram's per batch, Stream-Sample's per worker
and per merge), a ``heapq`` push / ``heapreplace`` per entry,
coarsening's sums of the band sample matrix by group, numpy's pairwise
``reduceat`` tree over the sampled entries only, its greedy sweep, a group
of small cumulative sums per window of rows, and MonotonicBSP's tiling DP, a stack walk over a grid's minimal
rectangles per threshold.  ``native.c`` does each in one call, and each
call is the only way production runs that loop: :func:`count_half` for
one half of a stream batch's count
(:meth:`~repro.streaming.backends.StateOwner.count`), :func:`count` for
one task of a batch join's :func:`~repro.joins.local.count_regions`,
:func:`band_inverse` for the transposed band's bounds, :func:`merge` for
:func:`~repro.streaming.incremental._merge_sorted`, :func:`offer` for
:meth:`~repro.streaming.incremental.DecayedReservoir.add_batch` and for
:class:`~repro.sampling.reservoir.WeightedReservoir`'s offers (its payload
an entry's position in the offered pool),
:func:`group_sums` for coarsening's aggregates of the band sample matrix
(the dense ``np.add.reduceat`` it equals bit for bit), :func:`sweep_rows`
for one threshold probe of coarsening's per-axis search, :func:`tile` for
one threshold probe of regionalization's, over the child table
:func:`closure` builds once per grid (a few calls, one per round of
rectangles that need children).  The numpy, ``heapq`` and Python
forms they replaced live in the test harness (``tests/reference_*.py``),
which holds the kernel to them bit for bit: counts and merged runs
(``tests/test_native_kernel.py``, ``tests/test_count_half.py``), the
band inverses (``tests/test_condition_properties.py``), both reservoirs' heap arrays entry for
entry (``tests/test_sampling_oracle.py``), the group sums' floats
(``tests/test_coarsening.py``), and the sweep's boundaries and the
tilings' regions and rectangle counts (``tests/test_planner_oracle.py``).

On import the module compiles ``native.c`` with the C compiler (the ``CC``
environment variable, else the one Python was built with, ``-O2
-ffp-contract=off -shared -fPIC``: the sweep must round every product and
sum on its own, as numpy does) into this package's own ``__pycache__/``,
named by a SHA-256 of the source, the compiler's argv and the platform, so
a checkout compiles once and every later process -- set-up children,
sticky and pool workers -- loads the cached library.  It is written to a
temporary name and renamed into place, so concurrent first imports never
load a partial file, and a build removes the cache's other libraries
(stale sources or compilers); a loader whose library such a build removed
before its ``dlopen`` builds it again.  The engine needs the kernel:
where it cannot be built or loaded -- no C compiler, a cache directory
that cannot be written or is world-writable, a ``dlopen`` error -- the
import raises :class:`KernelUnavailable`, naming the step that failed.

A wrapper takes the arrays its C function reads and writes as they are,
with no copy: keys float64 or int64, counts, positions, lookups and ids
int64, every array C-contiguous and aligned, every array it writes
writable.  Anything
else raises a :class:`TypeError` (a dtype) or :class:`ValueError` (a
shape, a size, a layout) that names the input, having written nothing.

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

__all__ = ["KernelUnavailable", "band_inverse", "closure", "count", "count_half", "group_sums",
           "merge", "offer", "sweep_rows", "tile"]

SOURCE = Path(__file__).with_name("native.c")

#: The key dtypes the kernel takes; ``_INT`` is its counts' and positions' too.
_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)
#: A zero-length view of an array's buffer: what its address is read from.
_VIEW = ctypes.c_char * 0
_addressof = ctypes.addressof

_POINTER, _SIZE = ctypes.c_void_p, ctypes.c_int64
_COUNT_ARGS = (_POINTER, _SIZE, _POINTER, _POINTER, _POINTER, _SIZE, _POINTER)
_HALF_ARGS = (_POINTER, _POINTER, _SIZE, _POINTER, _POINTER, _SIZE, _SIZE, _POINTER, _POINTER)
_MERGE_ARGS = (_SIZE, _POINTER, _POINTER, _POINTER)
_OFFER_ARGS = (_POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _SIZE, _POINTER, _POINTER, _SIZE)
_DOUBLE = ctypes.c_double
_GROUP_ARGS = (_POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _POINTER, _SIZE, _POINTER)
_SWEEP_ARGS = (_POINTER, _POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _DOUBLE, _DOUBLE,
               _DOUBLE, _SIZE, _POINTER)
_CLOSURE_ARGS = (_POINTER, _POINTER, _POINTER, _SIZE, _POINTER, _POINTER, _SIZE, _POINTER,
                 _POINTER, _SIZE, _SIZE, _POINTER, _SIZE, _SIZE, _POINTER, _SIZE, _POINTER,
                 _POINTER, _SIZE, _SIZE, _POINTER)
_TILE_ARGS = (_POINTER, _POINTER, _POINTER, _SIZE, _SIZE, _SIZE, _DOUBLE, _POINTER, _POINTER)
_INVERSE_ARGS = (_POINTER, _SIZE, _DOUBLE, _POINTER, _POINTER)


class KernelUnavailable(ImportError):
    """``native.c`` could not be built or loaded, so the engine cannot run.

    The message names the step: the compiler's argv with its exit status
    and stderr, the cache directory that could not be written or was
    refused as world-writable, or the library ``dlopen`` rejected.
    """


def _compile(argv: "list[str]", library: Path) -> None:
    """Compile ``native.c`` into ``library``, then remove the cache's other libraries.

    The library is written to a temporary name and renamed into place, so
    a concurrent loader never opens a partial file.  The other
    ``native.*.so`` files are stale builds (another source or compiler
    argv): removing them keeps the cache at one library per build in use.
    A process that loaded one keeps its mapping, and one about to load one
    builds it again (:func:`_build`).
    """
    import subprocess

    partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    command = [*argv, "-o", str(partial), str(SOURCE)]
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, errors="replace", timeout=300
        )
        if done.returncode:
            raise KernelUnavailable(
                f"{command} exited with status {done.returncode}; "
                f"stderr: {done.stderr.strip() or '(empty)'}"
            )
        os.replace(partial, library)
    except subprocess.TimeoutExpired as error:
        raise KernelUnavailable(f"{command} ran past {error.timeout:.0f} s") from None
    except OSError as error:  # no such compiler, or an unwritable cache
        raise KernelUnavailable(f"{command} failed: {error}") from None
    finally:
        partial.unlink(missing_ok=True)
    for stale in library.parent.glob("native.*.so"):
        if stale != library:
            stale.unlink(missing_ok=True)


def _build() -> ctypes.CDLL:
    """Compile ``native.c`` unless its library is cached; load it; declare its functions."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()
    argv = [*compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC"]
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*argv, sysconfig.get_platform()):
        digest.update(b"\0" + part.encode())
    cache = SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError as error:
        raise KernelUnavailable(f"cannot make the kernel's cache {cache}: {error}") from None
    if cache.stat().st_mode & stat.S_IWOTH:
        raise KernelUnavailable(
            f"{cache} is world-writable: a library anyone could have planted is never loaded"
        )
    library = cache / f"native.{digest.hexdigest()[:32]}.so"
    for retry in (False, True):
        if not library.exists():
            _compile(argv, library)
        try:
            loaded = ctypes.CDLL(str(library))
            break
        except OSError as error:  # a dlopen error
            # Another build removed it as stale after the check: build it again, once.
            if retry or library.exists():
                raise KernelUnavailable(f"cannot load {library}: {error}") from None
    try:
        for key in ("f64", "i64"):
            function = getattr(loaded, f"count_{key}")
            function.argtypes, function.restype = _COUNT_ARGS, None
            function = getattr(loaded, f"count_half_{key}")
            function.argtypes, function.restype = _HALF_ARGS, ctypes.c_int
            function = getattr(loaded, f"merge_{key}")
            function.argtypes, function.restype = _MERGE_ARGS, ctypes.c_int64
        loaded.offer.argtypes, loaded.offer.restype = _OFFER_ARGS, ctypes.c_int64
        loaded.group_sums.argtypes, loaded.group_sums.restype = _GROUP_ARGS, ctypes.c_int64
        loaded.sweep_rows.argtypes, loaded.sweep_rows.restype = _SWEEP_ARGS, ctypes.c_int64
        loaded.closure.argtypes, loaded.closure.restype = _CLOSURE_ARGS, ctypes.c_int64
        loaded.tile.argtypes, loaded.tile.restype = _TILE_ARGS, ctypes.c_int64
        loaded.band_inverse.argtypes, loaded.band_inverse.restype = _INVERSE_ARGS, None
    except AttributeError as error:  # a missing symbol
        raise KernelUnavailable(f"cannot load {library}: {error}") from None
    return loaded


_LIBRARY = _build()


def _addresses(arrays: "list[np.ndarray]", names: "tuple[str, ...] | str", written: int) -> "list[int]":
    """Each array's data address; the first ``written`` of them the kernel writes.

    Read through the buffer protocol -- a zero-length ``ctypes`` view of
    each array, iterated by ``map`` in C -- for about 0.5 us an array,
    where ``__array_interface__`` builds a dict for about 2 us and
    ``ndarray.ctypes`` costs as much again in Python-level calls.  A view
    needs a writable buffer, so a read-only input's address is read from
    ``ndarray.ctypes``, on that branch only; the kernel reads its inputs
    through ``const`` pointers.  Raises a :class:`ValueError` naming an
    array (by its entry of ``names``, or by ``names`` itself when it is one
    string) that is not C-contiguous and aligned, or that the kernel writes
    and is read-only.
    """
    for array in arrays:
        if not array.flags.carray:  # C-contiguous, aligned and writable
            break
    else:
        return list(map(_addressof, map(_VIEW.from_buffer, arrays)))
    addresses = []
    for at, array in enumerate(arrays):
        name = names if isinstance(names, str) else names[at]
        flags = array.flags
        if not (flags.c_contiguous and flags.aligned):
            raise ValueError(f"{name} is not C-contiguous and aligned")
        if flags.writeable:
            addresses.append(_addressof(_VIEW.from_buffer(array)))
        elif at < written:
            raise ValueError(f"{name} is read-only, and the kernel writes it")
        else:
            addresses.append(array.ctypes.data)
    return addresses


#: The names :func:`count` gives its arrays in an error.
_TASK = ("out", "run", "lows", "highs")


def count(run, cum, lows, highs, out: np.ndarray) -> None:
    """One task of :func:`~repro.joins.local.count_regions`: its output, written into ``out[0]``.

    ``run`` is the sorted second side, ``cum`` its cumulative counts or
    ``None``, ``lows`` / ``highs`` the needles' joinable bounds.  Keys are
    float64 or int64 and the bounds in the run's dtype (the caller brings
    them to one); counts are int64, ``cum`` one longer than the run, and
    ``out`` has an entry.  Otherwise this raises by name and writes
    nothing.
    """
    dtype = run.dtype
    if not (dtype == _FLOAT or dtype == _INT):
        raise TypeError(f"run is {dtype}: the kernel counts float64 or int64 keys")
    if lows.dtype != dtype or highs.dtype != dtype:
        raise TypeError(f"lows / highs are {lows.dtype} / {highs.dtype}, not the run's {dtype}")
    if highs.size != lows.size:
        raise ValueError(f"{lows.size} lows but {highs.size} highs")
    if out.dtype != _INT:
        raise TypeError(f"out is {out.dtype}, not int64")
    if not out.size:
        raise ValueError("out has no entry for the task")
    arrays, names = [out, run, lows, highs], _TASK
    if cum is not None:
        if cum.dtype != _INT or cum.size != run.size + 1:
            raise ValueError(f"cum is {cum.size} {cum.dtype}, not {run.size + 1} int64")
        arrays.append(cum)
        names += ("cum",)
    target, keys, low, high, *counts = _addresses(arrays, names, 1)
    function = _LIBRARY.count_f64 if dtype == _FLOAT else _LIBRARY.count_i64
    function(keys, run.size, counts[0] if counts else None, low, high, lows.size, target)


#: :func:`count_half`'s refusals by the kernel's status, and the words a run takes in its table.
_HALF_ERRORS = {
    1: "a run's reader is not one of the machines",
    2: "a machine's share lies outside the needles",
    3: "a reader's slice bound indexes no cut",
}
_HALF_WORDS = 9


def count_half(lows, highs, starts, stops, runs, out: np.ndarray) -> None:
    """One half of a stream batch's count: every machine's output, added into ``out``.

    ``lows`` / ``highs`` are the joinable bounds of a batch's routed keys
    on one side, and machine ``m``'s share of them is ``[starts[m],
    stops[m])``.  ``runs`` lists the state runs the half searches, each
    ``(keys, cum, readers, cut)``: a run's ascending keys and cumulative
    counts (``None``: every key counts once), the machines reading it, and
    the slice rule they read it through -- ``(cut_keys, first, last)``, a
    :class:`~repro.partitioning.grid_routed.MachineSlices` whose
    ``first[i]`` / ``last[i]`` say where reader ``i``'s slice of the run
    starts and stops -- or ``None`` when every reader reads it whole.  For
    each reader, the kernel cuts its slice from the run, searches each
    needle of its share in the run (numpy's ``searchsorted``, side "left"
    for the low bound and "right" for the high one), clips the answer to
    the slice and sums the counts into ``out[reader]`` -- one C call however
    many runs and machines there are, with nothing gathered or
    materialised per needle; ``tests/reference_counting.py`` holds the
    per-task numpy form it equals.

    Keys are float64 or int64, the bounds and every run in one of them, and
    cut keys float64; ``starts``, ``stops``, ``out``, ``cum``, readers and
    slice bounds are int64, ``starts`` / ``stops`` one entry per machine of
    ``out``, ``cum`` one longer than its run and ``first`` / ``last`` at
    least one entry per reader.  Otherwise, or when a reader is no machine,
    a share lies outside the needles or a slice bound indexes no cut, this
    raises by name and writes nothing.
    """
    dtype = lows.dtype
    if not (dtype == _FLOAT or dtype == _INT):
        raise TypeError(f"lows are {dtype}: the kernel counts float64 or int64 keys")
    if highs.dtype != dtype or highs.size != lows.size:
        raise ValueError(f"{lows.size} {dtype} lows but {highs.size} {highs.dtype} highs")
    if not (starts.dtype == stops.dtype == out.dtype == _INT):
        raise TypeError(f"starts {starts.dtype}, stops {stops.dtype}, out {out.dtype}: not int64")
    machines = out.size
    if starts.size != machines or stops.size != machines:
        raise ValueError(f"{starts.size} starts and {stops.size} stops for {machines} machines")
    arrays = [out, lows, highs, starts, stops]
    for keys, cum, readers, cut in runs:
        if keys.dtype != dtype:
            raise TypeError(f"a run's keys are {keys.dtype}, not the bounds' {dtype}")
        if readers.dtype != _INT:
            raise TypeError(f"a run's readers are {readers.dtype}, not int64")
        if cum is not None and (cum.dtype != _INT or cum.size != keys.size + 1):
            raise ValueError(f"cum is {cum.size} {cum.dtype}, not {keys.size + 1} int64")
        if cut is not None:
            cut_keys, first, last = cut
            if cut_keys.dtype != _FLOAT or first.dtype != _INT or last.dtype != _INT:
                raise TypeError("a slice rule takes float64 cut keys and int64 bounds")
            if first.size < readers.size or last.size < readers.size:
                raise ValueError(f"a slice rule needs {readers.size} firsts and lasts")
        # Six arrays a run; its keys stand in for what it lacks (the kernel
        # reads no counts or slice rule that its table entry says are none).
        arrays += keys, readers, keys if cum is None else cum, *(cut or (keys, keys, keys))
    target, low, high, first_at, last_at, *addresses = _addresses(
        arrays, "out, a bound, a share, a run or a slice rule", 1
    )
    # Per run: keys, length, counts, readers, their number, cut keys, their
    # number, firsts, lasts (0 for counts or cut keys: none).
    table = []
    at = 0
    for keys, cum, readers, cut in runs:
        keys_at, readers_at, cum_at, cuts_at, firsts_at, lasts_at = addresses[at : at + 6]
        at += 6
        table += (
            keys_at, keys.size, 0 if cum is None else cum_at, readers_at, readers.size,
            0 if cut is None else cuts_at, 0 if cut is None else cut[0].size,
            firsts_at, lasts_at,
        )
    function = _LIBRARY.count_half_f64 if dtype == _FLOAT else _LIBRARY.count_half_i64
    status = function(
        low, high, lows.size, first_at, last_at, machines, len(runs),
        (ctypes.c_uint64 * (_HALF_WORDS * len(runs)))(*table), target,
    )
    if status:
        raise ValueError(_HALF_ERRORS[status])


def band_inverse(keys: np.ndarray, beta: float) -> "tuple[np.ndarray, np.ndarray]":
    """A band's exact inverse bounds ``(L, U)``: the R1 keys each R2 key in ``keys`` joins.

    The band test from the R1 side is ``fl(k1 - beta) <= k2 <= fl(k1 +
    beta)``; from the R2 side it is ``L(k2) <= k1 <= U(k2)``, ``L(k)`` the
    smallest ``x`` with ``fl(x + beta) >= k`` and ``U(k)`` the largest with
    ``fl(x - beta) <= k``.  Each is a few one-ulp steps from ``fl(k -+
    beta)``, or a bisection over the doubles' ordinals where the key's ulp
    is far finer than the sum's; no step overflows (the step above the
    largest double is ``inf``) and nothing warns.  Both are float64 in the
    keys' shape.  ``keys`` are float64, C-contiguous and not NaN; otherwise
    this raises by name.  ``tests/reference_conditions.py`` keeps the numpy
    form they equal bit for bit.
    """
    if keys.dtype != _FLOAT:
        raise TypeError(f"keys are {keys.dtype}, not float64")
    lows, highs = np.empty(keys.shape, dtype=_FLOAT), np.empty(keys.shape, dtype=_FLOAT)
    low, high, source = _addresses([lows, highs, keys], ("lows", "highs", "keys"), 2)
    _LIBRARY.band_inverse(source, keys.size, beta, low, high)
    return lows, highs


def merge(runs: "list[tuple[np.ndarray, np.ndarray | None]]"):
    """:func:`~repro.streaming.incremental._merge_sorted` in one linear pass.

    Returns the merged ``(keys, cum)``, or ``None`` when every count
    cancelled.  Keys are float64 or int64, all of one dtype, and each
    ``cum`` int64 and one longer than its keys; otherwise this raises by
    name.
    """
    dtype = runs[0][0].dtype
    if not (dtype == _FLOAT or dtype == _INT):
        raise TypeError(f"run keys are {dtype}: the kernel merges float64 or int64 keys")
    arrays = []
    total = 0
    for keys, cum in runs:
        if keys.dtype != dtype:
            raise TypeError(f"runs of {dtype} and {keys.dtype} keys cannot be merged")
        total += keys.size
        if cum is None:
            arrays.append(keys)
        elif cum.dtype == _INT and cum.size == keys.size + 1:
            arrays += keys, cum
        else:
            raise ValueError(f"a run's cum is {cum.size} {cum.dtype}, not {keys.size + 1} int64")
    addresses = _addresses(arrays, "a run's keys or cum", 0)
    # Per run: its keys' address, their number and its counts' address (0: none).
    table = []
    at = 0
    for keys, cum in runs:
        table += addresses[at], keys.size, 0 if cum is None else addresses[at + 1]
        at += 1 if cum is None else 2
    merged_keys = np.empty(total, dtype=dtype)
    merged_cum = np.empty(total + 1, dtype=np.int64)
    function = _LIBRARY.merge_f64 if dtype == _FLOAT else _LIBRARY.merge_i64
    entries = function(
        len(runs),
        (ctypes.c_uint64 * (3 * len(runs)))(*table),
        *_addresses([merged_keys, merged_cum], ("merged keys", "merged cum"), 2),
    )
    if entries < 0:
        raise MemoryError("the kernel's merge could not allocate its run positions")
    if entries == 0:
        return None
    # Give back the room no entry took (a realloc in place, no copy).
    merged_keys.resize(entries, refcheck=False)
    merged_cum.resize(entries + 1, refcheck=False)
    return merged_keys, merged_cum


_OFFER = ("heap priorities", "heap counters", "heap keys", "priorities", "keys")


def offer(heap, size: int, capacity: int, counter: int, priorities, keys) -> int:
    """A reservoir's heap loop over a batch of entries; the next counter.

    The loop of :meth:`~repro.streaming.incremental.DecayedReservoir.add_batch`
    (payload: keys) and of :class:`~repro.sampling.reservoir.WeightedReservoir`'s
    offers (payload: pool positions).  ``heap`` is the reservoir's
    ``(priorities, counters, keys)`` arrays, whose first ``size`` entries
    are the heap, ``counter`` its next unused counter, and ``priorities`` /
    ``keys`` the batch's entries and payloads in offer order.  The kernel
    writes the heap array ``heapq`` would leave behind the batch-start
    filter (``tests/reference_sampling.py``); the heap then
    holds ``min(capacity, size + len(keys))`` entries.  Priorities and keys
    are float64, counters int64, and the heap's arrays have room for that
    many entries; ``0 <= size <= capacity`` and ``0 <= counter``.
    Otherwise this raises by name and writes nothing.
    """
    heap_priorities, counters, heap_keys = heap
    if not (
        priorities.dtype == keys.dtype == heap_priorities.dtype == heap_keys.dtype == _FLOAT
        and counters.dtype == _INT
    ):
        raise TypeError(
            f"priorities {priorities.dtype}, keys {keys.dtype}, heap priorities "
            f"{heap_priorities.dtype}, heap counters {counters.dtype}, heap keys "
            f"{heap_keys.dtype}: the kernel takes float64 and int64 counters"
        )
    if priorities.size != keys.size:
        raise ValueError(f"{priorities.size} priorities but {keys.size} keys")
    room = min(capacity, size + keys.size)
    if min(heap_priorities.size, counters.size, heap_keys.size) < room:
        raise ValueError(f"the heap's arrays have no room for {room} entries")
    *target, batch_priorities, batch_keys = _addresses([*heap, priorities, keys], _OFFER, 3)
    next_counter = _LIBRARY.offer(
        *target, size, capacity, counter, batch_priorities, batch_keys, keys.size
    )
    if next_counter < 0:
        raise ValueError(
            f"size {size}, capacity {capacity}, counter {counter}: a heap needs "
            "0 <= size <= capacity, 0 < capacity and 0 <= counter"
        )
    return next_counter


_GROUPS = ("out", "ptr", "index", "value", "bounds")


def group_sums(ptr, index, value, bounds):
    """A sparse matrix's row sums by column group, equal to the dense ``np.add.reduceat``.

    Row ``m`` holds the entries ``ptr[m]:ptr[m + 1]`` of ``index`` (their
    columns, ascending) and ``value`` (non-negative); ``bounds`` runs from 0
    up through each group's first column to the column count.  Returns the
    rows x groups float64 array, C-ordered, whose ``[m, g]`` is
    ``np.add.reduceat(dense, bounds[:-1], axis=1)[m, g]`` bit for bit:
    numpy's pairwise sum walked over the nonzero entries only (adding 0.0
    is exact).  The same call with the entries by column gives the
    transposed aggregate ``np.add.reduceat(dense, bounds[:-1], axis=0).T``.
    ``ptr``, ``index`` and ``bounds`` are int64, ``value`` float64,
    ``index`` and ``value`` one length, with at least one group; a ``ptr``
    that does not run from 0 up to that length, a row's columns out of
    order or range, or bounds that do not rise from 0 raise by name.
    """
    if not (ptr.dtype == index.dtype == bounds.dtype == _INT):
        raise TypeError(
            f"ptr {ptr.dtype}, index {index.dtype}, bounds {bounds.dtype}: not int64"
        )
    if value.dtype != _FLOAT:
        raise TypeError(f"value is {value.dtype}, not float64")
    if ptr.ndim != 1 or ptr.size < 1 or index.shape != value.shape or index.ndim != 1:
        raise ValueError(
            f"ptr {ptr.shape}, index {index.shape} and value {value.shape} are not one CSR"
        )
    if bounds.ndim != 1 or bounds.size < 2:
        raise ValueError(f"bounds {bounds.shape} hold no group")
    rows, groups = ptr.size - 1, bounds.size - 1
    out = np.empty((rows, groups), dtype=_FLOAT)
    target, *inputs = _addresses([out, ptr, index, value, bounds], _GROUPS, 1)
    status = _LIBRARY.group_sums(*inputs[:3], rows, index.size, inputs[3], groups, target)
    if status:
        raise ValueError("ptr does not run from 0 to the entries, a row's index is out "
                         "of order or range, or the bounds do not rise from 0")
    return out


_SWEEP = ("out", "freq", "cand", "row_input", "col_input")


def sweep_rows(freq, cand, row_input, col_input, w_i, w_o, threshold, max_groups):
    """One greedy sweep of coarsening's per-axis threshold search.

    ``freq`` / ``cand`` are the rows' frequencies and candidate counts by
    column group (rows x groups), ``row_input`` / ``col_input`` the rows'
    and the groups' input, ``w_i`` / ``w_o`` the cost model's coefficients.
    Returns the boundary array -- 0, each group's first row, the row count
    -- or ``None`` when more than ``max_groups`` groups are needed.  Every
    array is float64 of matching shape and C order (an F-ordered aggregate
    raises, never read with the wrong strides: the caller makes its arrays
    C-contiguous once per axis), and ``max_groups`` at least 1; otherwise
    this raises by name.  Candidate counts must be whole and non-negative,
    as coarsening's column aggregates make them: the kernel sums them from
    each group's first row.  ``tests/reference_planner.py`` holds the numpy
    sweep and the row-by-row loop it equals boundary for boundary.
    """
    if not (freq.dtype == cand.dtype == row_input.dtype == col_input.dtype == _FLOAT):
        raise TypeError(
            f"freq {freq.dtype}, cand {cand.dtype}, row_input {row_input.dtype}, "
            f"col_input {col_input.dtype}: the sweep takes float64"
        )
    if freq.ndim != 2 or cand.shape != freq.shape:
        raise ValueError(f"freq {freq.shape} and cand {cand.shape} are not one matrix")
    if row_input.shape != freq.shape[:1] or col_input.shape != freq.shape[1:]:
        raise ValueError(
            f"row_input {row_input.shape} and col_input {col_input.shape} "
            f"do not fit a {freq.shape} matrix"
        )
    if max_groups < 1:
        raise ValueError(f"max_groups is {max_groups}: a sweep needs at least one group")
    out = np.empty(max_groups + 1, dtype=_INT)
    target, *inputs = _addresses([out, freq, cand, row_input, col_input], _SWEEP, 1)
    written = _LIBRARY.sweep_rows(
        *inputs, *freq.shape, w_i, w_o, threshold, max_groups, target
    )
    if written < 0:
        raise MemoryError("the kernel's sweep could not allocate its block sums")
    return out[:written] if written else None


_LOOKUPS = ("rows", "lo", "hi", "below", "above", "first", "last")


def closure(rows, lo, hi, below, above, first, last, mirrored: bool, split):
    """The minimal candidate rectangles MonotonicBSP can reach, with their child pairs.

    The first seven arguments are :class:`~repro.core.tiling_tables.TilingTables`'
    lookups, in its own (ascending-span) columns: the candidate rows by
    position with their spans (``rows``, ``lo``, ``hi``), per grid row the
    first candidate position at or below it and the last at or above it
    (``below``, ``above``), per column the first position whose span ends
    at or after it and the last whose span starts at or before it
    (``first``, ``last``); ``mirrored`` when the grid's spans descend.
    ``split(keys)`` is called once per round with the rectangles met in
    the round before (the root, first) and says, one bool each, which of
    them need children; the kernel gives them their children in the next.
    ``keys`` is a view of a buffer the next round may move: ``split`` keeps
    nothing of it.

    Returns ``(keys, offsets, children)``: ``keys[i]`` is rectangle ``i``'s
    ``(row_lo, row_hi, col_lo, col_hi)`` in the tables' columns, the root
    first, and ``children[offsets[i]:offsets[i + 1]]`` its halves, pair by
    pair in the order the DP tries splits (none for a rectangle ``split``
    refused).  No candidate row gives no rectangle.  Every lookup is int64
    and indexes what it looks up, and the grid has 1 to 65,536 rows and
    columns (a rectangle's id is keyed on its corners, 16 bits each);
    otherwise this raises by name.
    """
    lookups = [rows, lo, hi, below, above, first, last]
    for name, array in zip(_LOOKUPS, lookups):
        if array.dtype != _INT:
            raise TypeError(f"{name} is {array.dtype}, not int64")
    if not rows.size == lo.size == hi.size:
        raise ValueError(f"{rows.size} rows but {lo.size} lo and {hi.size} hi")
    if below.size != above.size or first.size != last.size:
        raise ValueError(
            f"below / above have {below.size} / {above.size} rows and first / last "
            f"{first.size} / {last.size} columns"
        )
    num_rows, num_cols = below.size, first.size
    if not (0 < num_rows <= 65_536 and 0 < num_cols <= 65_536):
        raise ValueError(f"a {num_rows} x {num_cols} grid: the closure takes 1 to 65,536 "
                         "rows and columns")
    rows_at, lo_at, hi_at, below_at, above_at, first_at, last_at = _addresses(lookups, _LOOKUPS, 0)
    tables = (rows_at, lo_at, hi_at, rows.size, below_at, above_at, num_rows, first_at, last_at,
              num_cols, bool(mirrored))
    # Room for a 24 x 24 band grid's 1,128 rectangles and 34K children; a
    # round that runs out of either is run again in twice the room.
    keys = np.empty((2_048, 4), dtype=_INT)
    offsets = np.empty(2_049, dtype=_INT)
    children = np.empty(65_536, dtype=_INT)
    offsets[0] = count = start = entries = 0
    flags = np.empty(0, dtype=np.bool_)
    sizes = np.empty(2, dtype=_INT)
    while True:
        keys_at, offsets_at, children_at, sizes_at = _addresses(
            [keys, offsets, children, sizes], ("keys", "offsets", "children", "sizes"), 4
        )
        status = _LIBRARY.closure(
            *tables, keys_at, count, len(keys), flags.ctypes.data, start, offsets_at,
            children_at, entries, children.size, sizes_at,
        )
        if status == 1:
            keys = np.concatenate([keys, np.empty_like(keys)])
            offsets = np.concatenate([offsets, np.empty(len(keys) + 1 - offsets.size, _INT)])
            continue
        if status == 2:
            children = np.concatenate([children, np.empty_like(children)])
            continue
        if status == -1:
            raise MemoryError("the kernel's closure could not allocate its id table")
        if status:
            raise ValueError("a lookup points outside the table it indexes: "
                             "these are not a monotone grid's tables")
        start, (count, entries) = count, sizes.tolist()
        if start == count:
            # Give back the room no entry took (a realloc, no copy): every
            # array ends where its entries do.
            keys.resize((count, 4), refcheck=False)
            offsets.resize(count + 1, refcheck=False)
            children.resize(entries, refcheck=False)
            return keys, offsets, children
        flags = np.ascontiguousarray(split(keys[start:count]), dtype=np.bool_)
        if flags.shape != (count - start,):
            raise ValueError(f"split said {flags.shape} for {count - start} rectangles")


_TILE = ("counts", "splits", "offsets", "children", "leaf_thresholds")


def tile(offsets, children, leaf_thresholds, root: int, delta: float):
    """MonotonicBSP's dynamic program at threshold ``delta`` over a :func:`closure`.

    ``offsets`` / ``children`` are the closure's child table,
    ``leaf_thresholds[x]`` the smallest threshold at which rectangle ``x``
    is one region (its weight; ``-inf`` for a single cell) and ``root`` the
    rectangle to cover.  Returns ``(counts, splits)``: ``counts[x]`` is the
    fewest regions covering ``x`` (0: the search never met it), and for a
    rectangle that splits (``counts[x] > 1``) ``children[splits[x]]`` and
    ``children[splits[x] + 1]`` are the halves of its best split (``splits``
    is 0 elsewhere).  Offsets and children are int64 and index what they
    index, thresholds float64, ``offsets`` one longer than them, ``root`` a
    rectangle and ``delta`` not NaN (no rectangle is one region at a NaN
    threshold, not even a single cell); otherwise this raises by name.
    """
    if offsets.dtype != _INT or children.dtype != _INT:
        raise TypeError(f"offsets {offsets.dtype}, children {children.dtype}: not int64")
    if leaf_thresholds.dtype != _FLOAT:
        raise TypeError(f"leaf_thresholds is {leaf_thresholds.dtype}, not float64")
    size = leaf_thresholds.size
    if offsets.size != size + 1:
        raise ValueError(f"{offsets.size} offsets for {size} rectangles")
    if not 0 <= root < size:
        raise ValueError(f"root {root} is not one of the {size} rectangles")
    if delta != delta:
        raise ValueError(f"delta is {delta}: a tiling's threshold must be comparable")
    counts = np.empty(size, dtype=_INT)
    splits = np.empty(size, dtype=_INT)
    *targets, table, pairs, thresholds = _addresses(
        [counts, splits, offsets, children, leaf_thresholds], _TILE, 2
    )
    status = _LIBRARY.tile(table, pairs, thresholds, size, children.size, root, delta, *targets)
    if status == -1:
        raise MemoryError("the kernel's tiling could not allocate its stack")
    if status:
        raise ValueError("an offset or a child lies outside what it indexes, or a "
                         "rectangle above delta has no split")
    return counts, splits
