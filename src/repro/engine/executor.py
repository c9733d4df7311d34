"""A real parallel executor built on ``multiprocessing``.

The cluster simulator models time through the cost model; this executor
actually runs the per-region local joins in parallel OS processes and reports
wall-clock times.  Python's global interpreter lock makes shared-memory
threading useless for CPU-bound joins, so worker processes are the honest
equivalent of the paper's per-core reducers.  It is intended for the examples
and for calibrating the cost model, not for the large benchmark sweeps (the
process start-up and pickling overhead dominates tiny inputs).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter
from repro.partitioning.base import Partitioning

if TYPE_CHECKING:  # imported where a pool is made, not by ``import repro``
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "MultiprocessJoinResult",
    "RegionExecution",
    "broadcast_conditions",
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


def broadcast_conditions(
    condition: "JoinCondition | list[JoinCondition]", num_regions: int
) -> "list[JoinCondition]":
    """Normalise the one-or-per-region condition argument to a full list.

    Shared by every region-join entry point (:func:`join_assigned_regions`
    and the streaming backends) so the list-or-scalar contract is validated
    in exactly one place.
    """
    if isinstance(condition, list):
        if len(condition) != num_regions:
            raise ValueError("need exactly one condition per region")
        return condition
    return [condition] * num_regions


def _join_region(
    args: tuple[np.ndarray, np.ndarray, JoinCondition, bool],
) -> tuple[int, float, int]:
    """Worker: join one region's tuples, return (output, seconds, worker pid).

    The pid identifies which pool process actually ran the region, so a
    tracer can stitch per-worker child spans under the dispatching batch.
    """
    keys1, keys2, condition, keys2_sorted = args
    start = perf_counter()
    output = count_join_output(keys1, keys2, condition, keys2_sorted=keys2_sorted)
    return output, perf_counter() - start, os.getpid()


def _busy_machines(pairs: list[tuple]) -> list[int]:
    """Machines whose region has both sides non-empty and so can produce output.

    The single definition of the skip rule, shared by the pool caller (which
    uses it on index arrays, before materializing any keys) and
    :func:`join_assigned_regions` (which uses it on the key arrays).
    """
    return [
        machine
        for machine, (side1, side2) in enumerate(pairs)
        if len(side1) > 0 and len(side2) > 0
    ]


@dataclass
class RegionExecution:
    """Everything measured while executing one set of region joins on a pool.

    Attributes
    ----------
    per_machine_output:
        Exact join output counted for each machine's region.
    per_machine_seconds:
        Wall-clock seconds each worker spent joining its region.
    wall_seconds:
        End-to-end time of the parallel execution, including scheduling.
    bytes_pickled:
        Bytes the task payloads (key arrays + condition) ship through the
        pool's pickle channel; zero when profiling is disabled.
    bytes_unpickled:
        Bytes the result payloads ship back; zero when profiling is
        disabled.
    worker_pids:
        OS pid of the pool process that ran each machine's region
        (``-1`` for machines whose region had an empty side and was never
        dispatched) -- what trace stitching keys worker tracks off.
    """

    per_machine_output: np.ndarray
    per_machine_seconds: np.ndarray
    wall_seconds: float
    bytes_pickled: int = 0
    bytes_unpickled: int = 0
    worker_pids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


def join_assigned_regions(
    pool: ProcessPoolExecutor,
    region_keys: list[tuple[np.ndarray, np.ndarray]],
    condition: "JoinCondition | list[JoinCondition]",
    keys2_sorted: bool = False,
    profile_serialization: bool = True,
) -> RegionExecution:
    """Join already-assigned regions on an existing worker pool.

    ``region_keys[m]`` holds the (R1, R2) key arrays of machine ``m``'s
    region.  Regions with an empty side cannot produce output and are never
    shipped to a worker.  Returns a :class:`RegionExecution` with the
    per-machine output counts, worker seconds and pids, the end-to-end wall
    time, and the pickle-channel byte counts.

    ``condition`` is one condition shared by every region, or a list with
    one condition per region -- the streaming engine's incremental counting
    mixes the original and the transposed orientation in a single dispatch
    so each batch costs one pool round-trip, not two.

    ``keys2_sorted`` promises that every region's second key array is
    already sorted ascending, letting the workers skip the per-region sort
    -- the streaming engine's incremental counting maintains its state
    sorted exactly so this path stays ``O(new log state)``.

    ``profile_serialization`` measures, via :func:`pickled_nbytes`, the
    bytes every task ships *to* the pool and every result ships *back* --
    the per-batch serialization tax the streaming side's sticky workers
    avoid by keeping state resident.  The measurement costs one extra
    serialization pass over the payloads; pass ``False`` to skip it.

    The caller owns the pool: :func:`run_join_multiprocess` pays process
    start-up once per join, and the streaming benchmarks' pickling-pool
    baseline (``PicklingPoolBackend`` in ``tests/streaming_harness.py``) keeps
    one pool alive across every micro-batch.
    """
    conditions = broadcast_conditions(condition, len(region_keys))
    busy_machines = _busy_machines(region_keys)
    tasks = [
        (
            region_keys[machine][0],
            region_keys[machine][1],
            conditions[machine],
            keys2_sorted,
        )
        for machine in busy_machines
    ]
    bytes_pickled = (
        sum(pickled_nbytes(task) for task in tasks)
        if profile_serialization
        else 0
    )
    bytes_unpickled = 0
    start = perf_counter()
    outputs = np.zeros(len(region_keys), dtype=np.int64)
    seconds = np.zeros(len(region_keys))
    pids = np.full(len(region_keys), -1, dtype=np.int64)
    if tasks:
        for machine, result in zip(busy_machines, pool.map(_join_region, tasks)):
            output, elapsed, pid = result
            outputs[machine] = output
            seconds[machine] = elapsed
            pids[machine] = pid
            if profile_serialization:
                bytes_unpickled += pickled_nbytes(result)
    return RegionExecution(
        per_machine_output=outputs,
        per_machine_seconds=seconds,
        wall_seconds=perf_counter() - start,
        bytes_pickled=bytes_pickled,
        bytes_unpickled=bytes_unpickled,
        worker_pids=pids,
    )


@dataclass
class MultiprocessJoinResult:
    """Wall-clock results of a multiprocess partitioned join.

    Attributes
    ----------
    per_machine_output:
        Output tuples produced by each region's worker.
    per_machine_seconds:
        Wall-clock seconds each worker spent joining its region.
    wall_seconds:
        End-to-end time of the parallel execution (including scheduling).
    total_output:
        Sum of the per-machine outputs.
    """

    per_machine_output: np.ndarray
    per_machine_seconds: np.ndarray
    wall_seconds: float

    @property
    def total_output(self) -> int:
        """Total output tuples across machines."""
        return int(self.per_machine_output.sum())

    @property
    def max_machine_seconds(self) -> float:
        """Time of the slowest worker -- the quantity load balancing minimises."""
        if len(self.per_machine_seconds) == 0:
            return 0.0
        return float(self.per_machine_seconds.max())


def run_join_multiprocess(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    max_workers: int | None = None,
    rng: np.random.Generator | None = None,
) -> MultiprocessJoinResult:
    """Execute a partitioned join with one OS process per busy region.

    Parameters
    ----------
    partitioning:
        Any partitioning scheme.
    keys1, keys2:
        Join keys of R1 and R2.
    condition:
        The join condition.
    max_workers:
        Upper bound on concurrent worker processes (defaults to the pool's
        own default, usually the CPU count).
    rng:
        Random generator for randomised schemes.
    """
    rng = rng or np.random.default_rng(0)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)

    assignments1 = partitioning.assign_r1(keys1, rng)
    assignments2 = partitioning.assign_r2(keys2, rng)
    # Regions with an empty side are never joined, so their keys are never
    # materialized either -- only busy regions pay the fancy-index copy.
    empty = np.empty(0, dtype=np.float64)
    busy = set(_busy_machines(list(zip(assignments1, assignments2))))
    region_keys = [
        (keys1[idx1], keys2[idx2]) if machine in busy else (empty, empty)
        for machine, (idx1, idx2) in enumerate(zip(assignments1, assignments2))
    ]

    # The wall clock includes pool start-up: a one-shot join pays it.
    # Pool start-up is skipped entirely when no region can produce output.
    start = perf_counter()
    if busy:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            execution = join_assigned_regions(
                pool, region_keys, condition, profile_serialization=False
            )
            outputs = execution.per_machine_output
            seconds = execution.per_machine_seconds
    else:
        outputs = np.zeros(len(region_keys), dtype=np.int64)
        seconds = np.zeros(len(region_keys))
    wall = perf_counter() - start
    return MultiprocessJoinResult(
        per_machine_output=outputs,
        per_machine_seconds=seconds,
        wall_seconds=wall,
    )
