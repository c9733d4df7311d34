"""The compiled kernel: ``native.c``, built on first import as a CPython extension module.

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
rectangles that need children), and :func:`search` for the plan build's
``np.searchsorted`` calls (:func:`~repro.sampling.equidepth.bucket_index`,
Stream-Sample's d2equi windows and job 3, the with-replacement draw of
:func:`~repro.sampling.reservoir.wor_to_wr`): needles that never descend
walk from the previous answer, any others bisect without a branch -- and
:func:`spans` for each grid row's candidate columns
(:meth:`~repro.joins.conditions.JoinCondition.candidate_spans`: the
sample matrix's band), two bisections per row on the condition's rule.
The numpy, ``heapq`` and Python
forms they replaced live in the test harness (``tests/reference_*.py``),
which holds the kernel to them bit for bit: counts and merged runs
(``tests/test_native_kernel.py``, ``tests/test_count_half.py``), the
band inverses (``tests/test_condition_properties.py``), both reservoirs' heap arrays entry for
entry (``tests/test_sampling_oracle.py``), the group sums' floats
(``tests/test_coarsening.py``), the sweep's boundaries and the
tilings' regions and rectangle counts (``tests/test_planner_oracle.py``),
the searches' answers (``tests/test_search_oracle.py``, against
``np.searchsorted`` itself) and the candidate spans
(``tests/test_spans_oracle.py``, against the multi-way numpy search).

``native.c`` is an extension module, ``repro.joins._native``: each entry
point takes its numpy arrays as objects, with no copy, and passes every
one through one check in C -- an ndarray, keys float64 or int64 and
counts, positions, lookups and ids int64 in native byte order,
C-contiguous and aligned, writable where the kernel writes it -- then
checks sizes and index ranges.  Anything else raises a
:class:`TypeError` (an object or a dtype) or :class:`ValueError` (a
layout, a shape, a size, an index) that starts with the entry point's
name, having written nothing; an object, dtype or layout refusal reads
``"<entry>: <argument> is <found>, not <expected>"`` (``"fold: cum is
float32, not int64"``).  A loop that cannot have its scratch memory
raises :class:`MemoryError`.  Each releases the GIL while its loop runs.
This module re-exports the nine (their docstrings are in ``native.c``).

On import the module compiles ``native.c`` with the C compiler (the ``CC``
environment variable, else the one Python was built with, ``-O2
-ffp-contract=off -shared -fPIC`` and the include directories of Python's
and numpy's headers: the sweep must round every product and sum on its
own, as numpy does) into this package's own ``__pycache__/``, named by a
SHA-256 of the source, the compiler's argv, the platform, the
interpreter's ABI tag (``SOABI``) and numpy's version (:func:`_digest`),
so a checkout compiles once per interpreter and numpy, and every later
process -- set-up children, sticky workers -- loads the cached module.
It is written to a temporary name and renamed into place, so concurrent
first imports never load a partial file, and a build removes the cache's
other builds (stale sources, compilers, interpreters or numpys); a loader
whose build such a build removed before it was loaded builds it again.
The engine needs the kernel: where it cannot be built or loaded -- no C
compiler, a cache directory that cannot be written or is world-writable,
a module the loader rejects -- the import raises
:class:`KernelUnavailable`, naming the step that failed.

This module is the one place native code enters the process (analyzer rule
``FFI001``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import stat
import sysconfig
from importlib.machinery import ExtensionFileLoader
from pathlib import Path

import numpy as np

__all__ = ["KernelUnavailable", "band_inverse", "closure", "fold", "group_sums", "offer",
           "search", "spans", "sweep_rows", "tile"]

SOURCE = Path(__file__).with_name("native.c")
#: The extension module's name; ``native.c`` defines ``PyInit__native``.
_MODULE = "repro.joins._native"


class KernelUnavailable(ImportError):
    """``native.c`` could not be built or loaded, so the engine cannot run.

    The message names the step: the compiler's argv with its exit status
    and stderr, the cache directory that could not be written or was
    refused as world-writable, or the module the loader rejected.
    """


def _compile(argv: "list[str]", library: Path) -> None:
    """Compile ``native.c`` into ``library``, then remove the cache's other builds.

    The module is written to a temporary name and renamed into place, so
    a concurrent loader never opens a partial file.  The other
    ``native.*.so`` files are stale builds (another source, compiler argv,
    interpreter or numpy): removing them keeps the cache at one module per
    build in use.  A process that loaded one keeps its mapping, and one
    about to load one builds it again (:func:`_build`).
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


def _digest(argv: "list[str]", soabi: str, numpy_version: str) -> str:
    """The cache name's digest: the source, the compiler argv, the platform, the ABI and numpy.

    A module built for one interpreter ABI (``SOABI``) or against one
    numpy's headers is another build: loading it into another interpreter
    or beside another numpy could crash, so either gives another name.
    """
    digest = hashlib.sha256(SOURCE.read_bytes())
    for part in (*argv, sysconfig.get_platform(), soabi, numpy_version):
        digest.update(b"\0" + part.encode())
    return digest.hexdigest()[:32]


def _argv() -> "list[str]":
    """The compiler's argv, before its output and source."""
    compiler = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()
    return [*compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
            f"-I{sysconfig.get_paths()['include']}", f"-I{np.get_include()}"]


def _build():
    """Compile ``native.c`` unless its module is cached; load it."""
    argv = _argv()
    cache = SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
    except OSError as error:
        raise KernelUnavailable(f"cannot make the kernel's cache {cache}: {error}") from None
    if cache.stat().st_mode & stat.S_IWOTH:
        raise KernelUnavailable(
            f"{cache} is world-writable: a library anyone could have planted is never loaded"
        )
    soabi = sysconfig.get_config_var("SOABI") or ""
    library = cache / f"native.{_digest(argv, soabi, np.__version__)}.so"
    loader = ExtensionFileLoader(_MODULE, str(library))
    for retry in (False, True):
        if not library.exists():
            _compile(argv, library)
        try:
            kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader(_MODULE, loader))
            break
        except ImportError as error:  # the loader's dlopen or the module's init failed
            # Another build removed it as stale after the check: build it again, once.
            if retry or library.exists():
                raise KernelUnavailable(f"cannot load {library}: {error}") from None
    return kernel


_KERNEL = _build()
fold = _KERNEL.fold
band_inverse = _KERNEL.band_inverse
offer = _KERNEL.offer
group_sums = _KERNEL.group_sums
sweep_rows = _KERNEL.sweep_rows
closure = _KERNEL.closure
tile = _KERNEL.tile
search = _KERNEL.search
spans = _KERNEL.spans
