"""A real parallel executor built on ``multiprocessing``.

The cluster simulator (:func:`~repro.engine.cluster.run_partitioned_join`)
counts every region in the calling process; this executor ships the same
routed regions to parallel OS processes and reports wall-clock times.  Both
route with the streaming engine's route
(:func:`~repro.partitioning.routing.route_batch`), so every region's R2
share arrives key-sorted and no worker sorts it again, and every worker
counts with the same kernel (:func:`~repro.joins.local.count_runs`, a fold
of one half: one reader and one run).  Python's global
interpreter lock makes shared-memory threading useless for CPU-bound joins,
so worker processes are the honest equivalent of the paper's per-core
reducers.  It is intended for the examples and for calibrating the cost
model, not for the large benchmark sweeps (the process start-up and
pickling overhead dominates tiny inputs).

Executing per-region joins has one result type, :class:`RegionJoinResult`:
this executor returns it, and so does every streaming backend
(:mod:`repro.streaming.backends` re-exports it).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.cluster import _route
from repro.joins.conditions import JoinCondition, normalise_keys
from repro.joins.local import count_runs
from repro.obs.clock import perf_counter
from repro.partitioning.base import Partitioning

if TYPE_CHECKING:  # imported where a pool is made, not by ``import repro``
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "RegionJoinResult",
    "join_assigned_regions",
    "pickled_nbytes",
    "run_join_multiprocess",
]


class _CountingSink:
    """A write-only sink that measures bytes without retaining them."""

    __slots__ = ("nbytes",)

    def __init__(self) -> None:
        self.nbytes = 0

    def write(self, data: bytes) -> int:
        """Count ``data``'s length; the payload itself is discarded."""
        self.nbytes += len(data)
        return len(data)


def pickled_nbytes(obj: object) -> int:
    """Exact pickled size of ``obj``, in bytes, without keeping the pickle.

    This is the serialization-profiling primitive:
    :func:`join_assigned_regions` charges an execution with the bytes its
    task payloads (region key arrays) and result payloads ship through the
    ``ProcessPoolExecutor`` pickle channel, and the streaming sticky backend
    meters its control messages with it.
    Measuring through a counting sink costs one serialization pass but
    never materialises the byte string, so profiling large key arrays does
    not double peak memory.
    """
    sink = _CountingSink()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return sink.nbytes


@dataclass
class RegionJoinResult:
    """Output counts and timings of executing a set of per-region joins.

    A streaming batch's joins (every :mod:`repro.streaming.backends`
    backend) and a batch join's regions on a worker pool
    (:func:`join_assigned_regions`, :func:`run_join_multiprocess`) alike.

    Attributes
    ----------
    per_machine_output:
        Exact join output counted for each machine's region state.
    per_machine_seconds:
        Wall-clock seconds spent joining each region (worker time on a
        pool, per machine under a sticky worker);
        ``None`` for the in-process streaming ``count_batch``, which counts
        every machine in one pass.
    wall_seconds:
        End-to-end time of the whole execution, including scheduling.
    bytes_pickled, bytes_unpickled:
        Bytes the execution shipped through a pickle channel -- tasks out,
        results back.  ``None`` (not ``0``) for backends with no such
        channel, or when metering is off: the in-process simulated backend
        moves no bytes at all, and reporting renders the column as ``-``
        rather than claiming a measured zero.
    bytes_shm:
        Array payload bytes the execution moved through a shared-memory
        segment instead of the pickle channel (the sticky backend's
        :class:`~repro.streaming.shm.ShmArena` transport).  ``None`` for
        backends without a shared-memory channel.
    worker_pids, worker_seconds:
        Per dispatched unit of work, the OS pid of the process that ran it
        (``-1`` for units that were never dispatched) and the seconds it
        spent there; ``None`` for in-process backends.  A unit is one
        region on a pool and one worker process under the sticky
        ``count_batch``.  A tracer uses these to stitch per-worker child
        spans under the dispatching batch's span.
    """

    per_machine_output: np.ndarray
    per_machine_seconds: "np.ndarray | None"
    wall_seconds: float
    bytes_pickled: "int | None" = None
    bytes_unpickled: "int | None" = None
    bytes_shm: "int | None" = None
    worker_pids: "np.ndarray | None" = None
    worker_seconds: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        """Default the per-unit seconds to the per-region ones."""
        if self.worker_pids is not None and self.worker_seconds is None:
            self.worker_seconds = self.per_machine_seconds

    @property
    def total_output(self) -> int:
        """Total output tuples across machines."""
        return int(self.per_machine_output.sum())


def _join_region(args: tuple) -> tuple[int, float, int]:
    """Worker: count one region with the in-process kernel, return (output, seconds, worker pid).

    ``args`` is the task's arrays -- needles, the sorted second side and,
    for a counted run, its ``cum`` -- its condition and ``True``; they are
    counted as one reader's needles against one run
    (:func:`~repro.joins.local.count_runs`).  The pid identifies which pool
    process actually ran the region, so a tracer can stitch per-worker child
    spans under the dispatching batch.  The payload's last slot is always
    ``True`` -- the second side arrives sorted -- and is kept so the pickled
    task has the shape it always had.
    """
    needles, keys, *cum, condition, _ = args
    first = np.zeros(1, dtype=np.int64)
    output, seconds = np.zeros(1, dtype=np.int64), np.zeros(1)
    count_runs(
        condition, needles, first, np.array([len(needles)], dtype=np.int64),
        [([(normalise_keys(keys), cum[0] if cum else None)], first)], None, output, seconds,
    )
    return int(output[0]), float(seconds[0]), os.getpid()


def join_assigned_regions(
    pool: ProcessPoolExecutor,
    tasks: "list[tuple[np.ndarray, ...]]",
    conditions: "list[JoinCondition]",
    profile_serialization: bool = True,
) -> RegionJoinResult:
    """Join already-assigned regions on an existing worker pool.

    ``tasks[m]`` holds the (R1, R2) key arrays of machine ``m``'s region
    (and, for a counted run of the streaming state, its cumulative counts,
    :func:`count_runs <repro.joins.local.count_runs>`) and
    ``conditions[m]`` its condition -- the streaming engine's incremental
    counting mixes the original and the transposed orientation in a single
    dispatch so each batch costs one pool round-trip, not two.  Every second
    key array must be sorted ascending, as a run is: a routed region's R2
    share and a run of the streaming state both are.  Regions with an empty side
    cannot produce output and are never shipped to a worker.  Returns the
    per-machine output counts, worker seconds and pids, the end-to-end wall
    time, and the pickle-channel byte counts.

    ``profile_serialization`` measures, via :func:`pickled_nbytes`, the
    bytes every task ships *to* the pool and every result ships *back* --
    the per-batch serialization tax the streaming side's sticky workers
    avoid by keeping state resident.  The measurement costs one extra
    serialization pass over the payloads; pass ``False`` to skip it (the
    byte counts are then ``None``).

    The caller owns the pool: :func:`run_join_multiprocess` pays process
    start-up once per join, and the streaming benchmarks' pickling-pool
    baseline (``PicklingPoolBackend`` in ``tests/streaming_harness.py``) keeps
    one pool alive across every micro-batch.
    """
    busy = [
        machine
        for machine, (keys1, keys2, *_) in enumerate(tasks)
        if len(keys1) > 0 and len(keys2) > 0
    ]
    payloads = [(*tasks[machine], conditions[machine], True) for machine in busy]
    bytes_pickled = bytes_unpickled = None
    if profile_serialization:
        bytes_pickled = sum(map(pickled_nbytes, payloads))
        bytes_unpickled = 0
    start = perf_counter()
    outputs = np.zeros(len(tasks), dtype=np.int64)
    seconds = np.zeros(len(tasks))
    pids = np.full(len(tasks), -1, dtype=np.int64)
    if payloads:
        for machine, reply in zip(busy, pool.map(_join_region, payloads)):
            outputs[machine], seconds[machine], pids[machine] = reply
            if profile_serialization:
                bytes_unpickled += pickled_nbytes(reply)
    return RegionJoinResult(
        per_machine_output=outputs,
        per_machine_seconds=seconds,
        wall_seconds=perf_counter() - start,
        bytes_pickled=bytes_pickled,
        bytes_unpickled=bytes_unpickled,
        worker_pids=pids,
    )


def run_join_multiprocess(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    max_workers: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegionJoinResult:
    """Execute a partitioned join with one OS process per busy region.

    Parameters
    ----------
    partitioning:
        Any partitioning scheme.
    keys1, keys2:
        Join keys of R1 and R2, counted in their own dtype.
    condition:
        The join condition.
    max_workers:
        Upper bound on concurrent worker processes (defaults to the pool's
        own default, usually the CPU count).
    rng:
        Random generator for randomised schemes.

    The result's ``wall_seconds`` includes pool start-up -- a one-shot join
    pays it -- and the slowest worker is ``per_machine_seconds.max()``.  A
    join in which no region has both sides makes no pool at all.
    """
    rng = rng or np.random.default_rng(0)
    routed1, routed2 = _route(partitioning, keys1, keys2, rng)
    tasks = list(zip(routed1.columns(), routed2.columns()))
    if not any(len(share1) and len(share2) for share1, share2 in tasks):
        return RegionJoinResult(
            per_machine_output=np.zeros(len(tasks), dtype=np.int64),
            per_machine_seconds=np.zeros(len(tasks)),
            wall_seconds=0.0,
            worker_pids=np.full(len(tasks), -1, dtype=np.int64),
        )
    from concurrent.futures import ProcessPoolExecutor

    start = perf_counter()
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        execution = join_assigned_regions(
            pool, tasks, [condition] * len(tasks), profile_serialization=False
        )
    return replace(execution, wall_seconds=perf_counter() - start)
