"""The compiled kernel: ``native.c``, built on first import and loaded through ``ctypes``.

The stream batch and the plan build spend most of their interpreter time
in inner loops that numpy can only run as a dozen small-array calls
each, or as one Python-level step per element: a batch's state work and
count (each side's run cascade merged, each machine's slice of every run
cut, its needles searched and its counts summed), a transposed band's
exact inverse bounds, the offer of entries to an Efraimidis--Spirakis
reservoir (the stream histogram's per batch, Stream-Sample's per worker
and per merge), a ``heapq`` push / ``heapreplace`` per entry,
coarsening's sums of the band sample matrix by group, numpy's pairwise
``reduceat`` tree over the sampled entries only, its greedy sweep, a group
of small cumulative sums per window of rows, and MonotonicBSP's tiling DP, a stack walk over a grid's minimal
rectangles per threshold.  ``native.c`` does each in one call, and each
call is the only way production runs that loop: :func:`fold` for every
merge and count -- a stream batch's
(:meth:`~repro.streaming.backends.StateOwner.count`: both sides'
cascades and both halves), a count through
:func:`~repro.joins.local.count_runs` (a batch join as the first half of
a batch into empty state) and a merge of
:class:`~repro.streaming.incremental.SortedRegionState` --
:func:`band_inverse` for the transposed band's bounds, :func:`offer` for
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
sticky workers -- loads the cached library.  It is written to a
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

__all__ = ["KernelUnavailable", "band_inverse", "closure", "fold", "group_sums", "offer",
           "sweep_rows", "tile"]

SOURCE = Path(__file__).with_name("native.c")

#: The key dtypes the kernel takes; ``_INT`` is its counts' and positions' too.
_FLOAT = np.dtype(np.float64)
_INT = np.dtype(np.int64)
#: A zero-length view of an array's buffer: what its address is read from.
_VIEW = ctypes.c_char * 0
_addressof = ctypes.addressof

_POINTER, _SIZE = ctypes.c_void_p, ctypes.c_int64
_FOLD_ARGS = (_POINTER, _SIZE, _SIZE, _POINTER, _POINTER)
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
        loaded.fold.argtypes, loaded.fold.restype = _FOLD_ARGS, ctypes.c_int64
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


#: :func:`fold`'s refusals by the kernel's status.
_FOLD_ERRORS = {
    1: "a group's reader is not one of the machines",
    2: "a machine's share lies outside the needles",
    3: "a reader's slice bound indexes no cut",
    4: "the fold's table is malformed",
}
#: A key dtype's word in the fold's table, and a group's merge word for none.
_DTYPE_WORDS = {_FLOAT: 0, _INT: 1}
_NO_MERGE = 2**64 - 1
_FOLD_ARRAYS = "out, a bound, a share, a run, a reader or a slice rule"


def _run_words(runs, dtype, table: list, at: int, arrays: list, slots: list) -> "tuple[int, int]":
    """Append each ``(keys, cum)`` run's three words -- keys, length, counts -- to ``table``.

    ``at`` is ``len(table)``.  Each array's address is filled in later: the
    array goes to ``arrays`` and the word that takes its address to
    ``slots`` (a fresh run's counts word stays 0).  Returns the runs' keys
    in all and the runs.  Nothing here calls per run, so a fold's
    interpreter calls do not grow with its runs.
    """
    total = count = 0
    for keys, cum in runs:
        if keys.dtype != dtype:
            raise TypeError(f"a run's keys are {keys.dtype}, not its group's {dtype}")
        table += 0, keys.size, 0
        total += keys.size
        if cum is None:
            arrays += (keys,)
            slots += (at,)
        elif cum.dtype == _INT and cum.size == keys.size + 1:
            arrays += keys, cum
            slots += at, at + 2
        else:
            raise ValueError(f"cum is {cum.size} {cum.dtype}, not {keys.size + 1} int64")
        at += 3
        count += 1
    return total, count


def fold(merges, halves, out: np.ndarray) -> list:
    """A stream batch's merges and count in one kernel call; the merged runs.

    ``merges`` lists run cascades, each the ``(keys, cum)`` runs of one
    group, oldest first, that fold into one counted run: ascending keys and
    their cumulative counts (``None``: every key counts once).  The kernel
    merges each as a right fold of two-way merges, the newest pair first,
    keeping the key that comes last in (run, position) order for every
    stretch of equal keys (all NaNs one) and dropping the zero counts at
    the last step only -- the stable-sort merge kept in
    ``tests/reference_state.py``, byte for byte.  It returns, per cascade,
    the merged ``(keys, cum)``, or ``None`` when every count cancelled.

    ``halves`` lists the count's halves, each ``(lows, highs, starts,
    stops, groups)``: the joinable bounds of a side's routed keys, machine
    ``m``'s share of them ``[starts[m], stops[m])``, and the groups they
    search, each ``(runs, readers, cut, merge)`` -- its ``(keys, cum)``
    runs, the machines reading it, the slice rule they read every run
    through (a :class:`~repro.partitioning.grid_routed.MachineSlices`
    whose ``first[i]`` / ``last[i]`` say where reader ``i``'s slice starts
    and stops, or ``None``: each reads the runs whole) and the index of a
    cascade whose merged run it searches too (or ``None``).  After the
    merges, the kernel searches each needle its readers hold once in each
    run (numpy's ``searchsorted``, side "left" for the low bound and
    "right" for the high one), clips the answer to every reader's slice
    and adds the counts into ``out[reader]`` -- one C call however many
    cascades, groups, runs and machines there are, with nothing gathered or
    materialised per needle; ``tests/reference_counting.py`` holds the
    per-task numpy form it equals.

    Keys are float64 or int64, one dtype per cascade and per group, and
    the bounds float64 or int64: a group's keys in the bounds' dtype, or
    int64 keys searched with float64 bounds (each compared as the float64
    it casts to, as ``searchsorted`` casts it).  Cut keys are float64;
    ``starts``, ``stops``, ``out``, ``cum``, readers and slice bounds are
    int64, ``starts`` / ``stops`` one entry per machine of ``out``, ``cum``
    one longer than its run and ``first`` / ``last`` at least one entry per
    reader.  Otherwise, or when a reader is no machine, a share lies
    outside the needles or a slice bound indexes no cut, this raises by
    name having merged nothing and written nothing into ``out``.
    """
    if out.dtype != _INT:
        raise TypeError(f"out is {out.dtype}, not int64")
    machines = out.size
    entries = np.empty(len(merges) or 1, dtype=_INT)
    # The kernel writes out, entries and the merged runs, so they come
    # first among the arrays; each array after out and entries has a slot,
    # the table word that takes its address.  `at` is len(table).
    results, dtypes, written, written_slots, inputs, slots = [], [], [out, entries], [], [], []
    table = [len(merges)]
    at = 1
    for runs in merges:
        dtype = runs[0][0].dtype
        word = _DTYPE_WORDS.get(dtype)
        if word is None:
            raise TypeError(f"run keys are {dtype}: the kernel merges float64 or int64 keys")
        table += word, 0, 0, 0
        written_slots += at + 2, at + 3
        total, count = _run_words(runs, dtype, table, at + 4, inputs, slots)
        table[at + 1] = count
        at += 4 + 3 * count
        merged = np.empty(total, dtype=dtype), np.empty(total + 1, dtype=_INT)
        results += (merged,)
        dtypes += (dtype,)
        written += merged
    table += (len(halves),)
    at += 1
    for lows, highs, starts, stops, groups in halves:
        bound = lows.dtype
        word = _DTYPE_WORDS.get(bound)
        if word is None:
            raise TypeError(f"lows are {bound}: the kernel counts float64 or int64 keys")
        if highs.dtype != bound or highs.size != lows.size:
            raise ValueError(f"{lows.size} {bound} lows but {highs.size} {highs.dtype} highs")
        if not (starts.dtype == stops.dtype == _INT):
            raise TypeError(f"starts {starts.dtype}, stops {stops.dtype}: not int64")
        if starts.size != machines or stops.size != machines:
            raise ValueError(f"{starts.size} starts and {stops.size} stops for {machines} machines")
        table += word, 0, 0, lows.size, 0, 0, 0
        inputs += lows, highs, starts, stops
        slots += at + 1, at + 2, at + 4, at + 5
        counted, at = at + 6, at + 7
        for runs, readers, cut, merge in groups:
            if merge is None:
                if not runs:
                    raise ValueError("a group searches no run")
                dtype, merge = runs[0][0].dtype, _NO_MERGE
            elif 0 <= merge < len(results):
                dtype = dtypes[merge]
            else:
                raise ValueError(f"merge {merge} is not one of the {len(results)} cascades")
            if not (dtype == bound or (dtype == _INT and bound == _FLOAT)):
                raise TypeError(f"a run's keys are {dtype}, not the bounds' {bound}")
            if readers.dtype != _INT:
                raise TypeError(f"a group's readers are {readers.dtype}, not int64")
            table += _DTYPE_WORDS[dtype], 0, readers.size, 0, 0, 0, 0, merge, 0
            inputs += (readers,)
            slots += (at + 1,)
            if cut is not None:
                cut_keys, first, last = cut
                if cut_keys.dtype != _FLOAT or first.dtype != _INT or last.dtype != _INT:
                    raise TypeError("a slice rule takes float64 cut keys and int64 bounds")
                if first.size < readers.size or last.size < readers.size:
                    raise ValueError(f"a slice rule needs {readers.size} firsts and lasts")
                table[at + 4] = cut_keys.size
                inputs += cut
                slots += at + 3, at + 5, at + 6
            _, count = _run_words(runs, dtype, table, at + 9, inputs, slots)
            table[at + 8] = count
            at += 9 + 3 * count
            table[counted] += 1
    target, counts, *addresses = _addresses(written + inputs, _FOLD_ARRAYS, len(written))
    for slot, address in zip(written_slots + slots, addresses):
        table[slot] = address
    status = _LIBRARY.fold((ctypes.c_uint64 * at)(*table), at, machines, target, counts)
    if status < 0:
        raise MemoryError("the kernel's fold could not allocate its scratch")
    if status:
        raise ValueError(_FOLD_ERRORS[status])
    folded = []
    for (keys, cum), size in zip(results, entries.tolist()):
        if size:
            # Give back the room no entry took (a realloc in place, no copy).
            keys.resize(size, refcheck=False)
            cum.resize(size + 1, refcheck=False)
            folded += ((keys, cum),)
        else:
            folded += (None,)
    return folded


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
