"""A real parallel executor: a batch join on the sticky worker processes.

The cluster simulator (:func:`~repro.engine.cluster.run_partitioned_join`)
counts every region in the calling process; this executor routes the same
way and runs the routed regions as the first batch of a stream into empty
state on the streaming engine's worker processes
(:class:`~repro.streaming.backends.StickyWorkerBackend`), so every machine
counts what the simulator counts, and reports wall-clock seconds.  Python's
global interpreter lock makes threads useless for CPU-bound joins, so
worker processes stand in for the paper's per-core reducers.  It serves the
examples and cost-model calibration, not the benchmark sweeps: worker
start-up dominates small inputs.

Executing per-region joins has one result type, :class:`RegionJoinResult`:
this executor returns it, and so does every streaming backend
(:mod:`repro.streaming.backends` re-exports it).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, replace

import numpy as np

from repro.engine.cluster import _route
from repro.joins.conditions import JoinCondition, transposed_of
from repro.obs.clock import perf_counter
from repro.partitioning.base import Partitioning

__all__ = [
    "RegionJoinResult",
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

    This is the serialization-profiling primitive: the streaming sticky
    backend meters its control messages with it.
    Measuring through a counting sink costs one serialization pass but
    never materialises the byte string, so profiling large key arrays does
    not double peak memory.
    """
    sink = _CountingSink()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return sink.nbytes


@dataclass
class RegionJoinResult:
    """Output counts and timings of a batch's per-region joins, streaming or not.

    Attributes
    ----------
    per_machine_output:
        Exact join output counted for each machine's region state.
    per_machine_seconds:
        Wall-clock seconds spent joining each machine's state under a
        sticky worker (``0`` for a machine that received no arrivals);
        ``None`` for the in-process streaming ``count_batch``, which counts
        every machine in one pass.
    wall_seconds:
        End-to-end time of the whole execution, including scheduling.
    bytes_pickled, bytes_unpickled:
        Bytes the execution shipped through a pickle channel -- commands
        out, replies back.  ``None`` (not ``0``) for backends with no such
        channel, or when metering is off: the in-process simulated backend
        moves no bytes at all, and reporting renders the column as ``-``
        rather than claiming a measured zero.
    bytes_shm:
        Array payload bytes the execution moved through a shared-memory
        segment instead of the pickle channel (the sticky backend's
        :class:`~repro.streaming.shm.ShmArena` transport).  ``None`` for
        backends without a shared-memory channel.
    worker_pids, worker_seconds:
        Per dispatched unit of work -- a sticky worker process -- the OS
        pid of the process that ran it and the seconds it spent there;
        ``None`` for in-process backends.  A tracer uses these to stitch
        per-worker child spans under the dispatching batch's span.
    """

    per_machine_output: np.ndarray
    per_machine_seconds: "np.ndarray | None"
    wall_seconds: float
    bytes_pickled: "int | None" = None
    bytes_unpickled: "int | None" = None
    bytes_shm: "int | None" = None
    worker_pids: "np.ndarray | None" = None
    worker_seconds: "np.ndarray | None" = None

    @property
    def total_output(self) -> int:
        """Total output tuples across machines."""
        return int(self.per_machine_output.sum())


def run_join_multiprocess(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    max_workers: int | None = None,
    rng: np.random.Generator | None = None,
) -> RegionJoinResult:
    """Execute a partitioned join on worker processes: a first batch into empty state.

    Parameters
    ----------
    partitioning:
        Any partitioning scheme.
    keys1, keys2:
        Join keys of R1 and R2, counted in their own dtype.
    condition:
        The join condition; it must define ``.transposed``, as a stream's does.
    max_workers:
        Worker process count, capped at the region count (defaults to the
        CPU count).
    rng:
        Random generator for randomised schemes.

    Each side is routed as the simulator routes it, region ``r`` to machine
    ``r``, and the routed regions are one ``count_batch`` of a
    :class:`~repro.streaming.backends.StickyWorkerBackend`.  A machine's
    seconds are its count on its worker (``0`` if it received no tuple),
    ``worker_pids`` / ``worker_seconds`` hold one entry per worker, and
    ``wall_seconds`` runs from worker start-up to shut-down.  A join in which
    no region has both sides starts no process and reports no worker.  The
    workers start with forkserver or spawn, which import the main module: a
    script calling this needs an ``if __name__ == "__main__":`` guard.
    """
    transposed = transposed_of(condition)
    rng = rng or np.random.default_rng(0)
    routed1, routed2 = _route(partitioning, keys1, keys2, rng)
    machines = partitioning.num_regions
    if not ((routed1.sizes > 0) & (routed2.sizes > 0)).any():
        return RegionJoinResult(
            per_machine_output=np.zeros(machines, dtype=np.int64),
            per_machine_seconds=np.zeros(machines),
            wall_seconds=0.0,
            worker_pids=np.empty(0, dtype=np.int64),
            worker_seconds=np.empty(0),
        )
    # Imported here: repro.streaming.backends imports RegionJoinResult from
    # this module, and a batch join that starts no worker loads no streaming.
    from repro.streaming.backends import StickyWorkerBackend

    start = perf_counter()
    with StickyWorkerBackend(max_workers, profile_serialization=False) as backend:
        backend.bind(machines, condition, transposed)
        execution = backend.count_batch(routed1, routed2)
    return replace(execution, wall_seconds=perf_counter() - start)
