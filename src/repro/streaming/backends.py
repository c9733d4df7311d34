"""Pluggable execution backends: who owns the join state, and where it is counted.

A region's tuples live in exactly one place -- the machine its EWH region
was assigned to -- and here that place is the
:class:`ExecutionBackend`.  The engine never holds join state; it drives
every backend through one **state-ownership protocol**:

``bind`` → per batch ``count_batch`` / ``evict_state`` → ``install_state``
(migrations, resizes, restores), with ``drain_channel_bytes`` for byte
metering.  State enters a machine in one shape: per machine, its keys
sorted by the router (:meth:`RegionStateTable.fold` states the contract) --
a batch's arrivals (``count_batch``), the expired keys an eviction routes
to it (``evict_state``) and a machine's complete state (``install_state``,
whose key lists also say the fleet size) alike.  A machine holds a key
multiset and nothing else: which tuples it holds is the engine's to derive
from its arrival logs (:func:`~repro.streaming.migration.placement`), so
no verb reads state back.

The protocol is implemented once, in-process, on the base class: a
:class:`RegionStateTable` of sorted per-machine state whose ``count_batch``
folds the batch in (``C(new1, state2 + new2) + C(state1, new2)``) and
dispatches the resulting search tasks -- one per sorted run of each of a
machine's two halves -- through the backend's own
:meth:`~ExecutionBackend.join_regions`.  A backend therefore only decides
*how a list of (keys1, keys2) tasks is counted*:

* :class:`SimulatedBackend` counts each task in the engine's own process.
  Cost-model load is the quantity of interest; wall timings are recorded
  but reflect a single core.
* :class:`SlowConsumerBackend` decorates another backend's ``join_regions``
  with a deterministic delay.

:class:`StickyWorkerBackend` is the one override of the protocol itself:
each worker *process* hosts the :class:`RegionStateTable` of its machines,
resident across batches, and only per-batch deltas travel, over shared
memory.  The workers run the *same* table fold and counting loop as the
in-process default, so every backend counts bit-identical deltas; only the
measured timings and byte counts differ (``tests/test_backends.py``).  That
loop is :func:`repro.joins.local.count_regions`, the batch simulator's too,
and every backend reports a :class:`~repro.engine.executor.RegionJoinResult`
(re-exported here), the batch executor's result type.

Select a backend by passing it to :class:`StreamingJoinEngine` (default:
simulated) or by name through :func:`make_backend`::

    with make_backend("sticky", max_workers=4) as backend:
        engine = StreamingJoinEngine(8, condition, weights, backend=backend)
        result = engine.run(source)
"""

from __future__ import annotations

import abc
import os
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.engine.executor import RegionJoinResult, pickled_nbytes
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_regions
from repro.obs.clock import perf_counter
from repro.streaming.incremental import SortedRegionState

if TYPE_CHECKING:  # only sticky backends pay for importing these (see below)
    import multiprocessing.context

    from repro.streaming.shm import ShmArena, ShmMessage, ShmReader

__all__ = [
    "RegionJoinResult",
    "RegionStateTable",
    "ExecutionBackend",
    "SimulatedBackend",
    "StickyWorkerBackend",
    "SlowConsumerBackend",
    "WorkerCrashError",
    "default_mp_context",
    "make_backend",
    "state_layout",
]


#: Seconds :meth:`StickyWorkerBackend.close` waits at each step of shutting
#: a worker down (handshake, join, terminate, kill) before escalating.
CLOSE_GRACE_SECONDS = 0.5


class WorkerCrashError(RuntimeError):
    """A backend worker process died (or its channel broke) mid-command.

    Raised promptly -- the engine never hangs on a dead worker's pipe --
    with the worker identity and exit code in the message where known.
    The run that hit it is unrecoverable in place (the dead worker's
    resident state is gone); restore from the last
    :class:`~repro.streaming.checkpoint.StreamCheckpoint` onto a fresh
    backend instead, which is exactly what
    :func:`~repro.streaming.checkpoint.run_resilient` automates.
    """


def default_mp_context() -> multiprocessing.context.BaseContext:
    """The start method sticky workers are started with: forkserver, else spawn.

    Never ``fork``: forking a process that already runs threads (a
    ``StreamingPipeline(mode="thread")`` producer, a tracing exporter)
    duplicates whatever locks those threads hold and can deadlock the child
    — the classic Linux ≤3.11 default-start-method bug this choice fixes.

    ``multiprocessing`` is imported here and in :func:`_resolve_mp_context`,
    not at module level: ``import repro`` must not pay for it on behalf of
    runs that never start a worker.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _resolve_mp_context(
    mp_context: "multiprocessing.context.BaseContext | str | None",
) -> multiprocessing.context.BaseContext:
    """Normalise an ``mp_context`` argument (name, context or ``None``)."""
    if mp_context is None:
        return default_mp_context()
    if isinstance(mp_context, str):
        import multiprocessing

        return multiprocessing.get_context(mp_context)
    return mp_context


class RegionStateTable:
    """The sorted join state of a set of machines, and the fold that counts it.

    The single implementation behind every owner of join state: the
    in-process default on :class:`ExecutionBackend` hosts one table for the
    whole cluster, each :class:`StickyWorkerBackend` worker process hosts
    one for the machines it owns.  Per machine it keeps a
    :class:`~repro.streaming.incremental.SortedRegionState` pair and
    mutates it in place batch after batch, so two owners fed the same
    protocol traffic hold bit-identical state.

    Array inputs may be zero-copy views into a transient shared segment;
    :class:`SortedRegionState` copies on append, tombstone and install, so
    the state keeps no view past the call.  The per-task ``(needles, run
    keys, run counts)`` a :meth:`fold` returns are the caller's own arrival
    keys and the state's own runs: count them before the arrivals' storage
    is reused, read them, never write to them (the state itself only ever
    swaps in fresh arrays).
    """

    def __init__(self, machines: "Iterable[int]") -> None:
        self.machines = tuple(machines)
        self.state1 = {machine: SortedRegionState() for machine in self.machines}
        self.state2 = {machine: SortedRegionState() for machine in self.machines}

    def fold(
        self, arrays: "list[np.ndarray]"
    ) -> "tuple[list[tuple[np.ndarray, ...]], np.ndarray]":
        """Merge a batch's arrivals in; return the counting tasks and their owners.

        ``arrays`` is the machine-major layout of the whole cluster's
        arrivals -- ``(keys1, keys2)`` per machine; only the slices of this
        table's machines are read.  **Arrivals are key-sorted**: each key
        array ascends (NaN last), as :meth:`Partitioning.sorted_arrivals
        <repro.partitioning.base.Partitioning.sorted_arrivals>` routes
        them, so they are appended to the state as they are
        (:meth:`SortedRegionState.append_sorted
        <repro.streaming.incremental.SortedRegionState.append_sorted>`,
        which copies) and serve as the count's needles with no sort here.

        A machine's output delta
        decomposes exactly as ``C(new1, state2 + new2) + C(state1, new2)``:
        its first half searches the just-updated R2 state per new R1 key,
        its second searches the *pre-append* R1 state per new R2 key (to be
        counted under the transposed condition).  Each half is one task
        ``(needles, run keys, run counts)`` per run of the searched state
        -- the needles are the batch's arrival keys, the counts a run's
        cumulative multiplicities (``None`` for a fresh run,
        :func:`~repro.joins.local.count_regions`) -- so counting is
        ``O(new * runs * log distinct)`` and the per-run counts sum exactly
        to the half.

        ``owners[t]`` is ``2 * slot + half`` of task ``t``, with ``slot``
        the machine's position in :attr:`machines` and ``half`` 0 for the
        original condition, 1 for the transposed one; :meth:`sum_halves`
        folds per-task values back.  A half whose searched state is empty
        keeps one task with nothing to search, so every machine has at
        least its two tasks and every arrival is a needle at least once --
        and ``owners`` ascends with every half present, which is what lets
        :meth:`sum_halves` be one segmented reduction.  The tasks of one
        half share their needles *array*, so the count kernel computes
        joinable bounds for it once, not once per run.
        """
        tasks: "list[tuple[np.ndarray, ...]]" = []
        owners: "list[int]" = []
        for slot, machine in enumerate(self.machines):
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            state1, state2 = self.state1[machine], self.state2[machine]
            old_runs1 = state1.runs
            state2.append_sorted(keys2)
            state1.append_sorted(keys1)
            for half, needles, searched in (
                (0, keys1, state2.runs),
                (1, keys2, old_runs1),
            ):
                searched = searched or [(needles[:0], None)]
                tasks += [(needles, keys, cum) for keys, cum in searched]
                owners += [2 * slot + half] * len(searched)
        return tasks, np.array(owners, dtype=np.int64)

    def sum_halves(self, values: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Sum per-task ``values`` into a ``(machines, 2)`` array of halves.

        ``owners`` is what :meth:`fold` returned: ascending, every half
        present -- so each half is one contiguous stretch of tasks and the
        sums are a single segmented reduction from where each starts.
        """
        starts = owners.searchsorted(np.arange(2 * len(self.machines)))
        return np.add.reduceat(values, starts).reshape(-1, 2)

    def evict(self, arrays: "list[np.ndarray]") -> "list[tuple[int, int]]":
        """Tombstone each machine's expired keys; per machine, ``(R1, R2)`` counts.

        ``arrays`` is the machine-major ``(keys1, keys2)`` layout of what
        the router sent each machine of the expired slices, key-sorted like
        a batch (:meth:`SortedRegionState.tombstone
        <repro.streaming.incremental.SortedRegionState.tombstone>`).
        """
        dropped = []
        for machine in self.machines:
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            self.state1[machine].tombstone(keys1)
            self.state2[machine].tombstone(keys2)
            dropped.append((len(keys1), len(keys2)))
        return dropped

    def install(self, arrays: "list[np.ndarray]") -> None:
        """Replace every machine's state with its complete new keys.

        ``arrays`` is a :func:`state_layout` of the whole cluster's
        post-move state, key-sorted as :meth:`fold` requires; each machine
        becomes one counted run of them
        (:meth:`SortedRegionState.install
        <repro.streaming.incremental.SortedRegionState.install>`).
        """
        for machine in self.machines:
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            self.state1[machine].install(keys1)
            self.state2[machine].install(keys2)


def state_layout(
    keys1: "list[np.ndarray]", keys2: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Machine-major array layout: (keys1, keys2) per machine.

    The one shape protocol traffic takes on its way into a
    :class:`RegionStateTable` -- each machine's sorted R1 and R2 keys laid
    end to end -- whether the table sits in this process or behind a
    shared-memory message.
    """
    return [keys for pair in zip(keys1, keys2) for keys in pair]


def _fleet_size(state1: "list[np.ndarray]", state2: "list[np.ndarray]") -> int:
    """The machine count an ``install_state`` names: one key array per side each."""
    if not state1 or len(state1) != len(state2):
        raise ValueError(
            "install_state takes one R1 and one R2 key array per machine, "
            f"for at least one machine; got {len(state1)} and {len(state2)}"
        )
    return len(state1)


def _lengths(layout: "list[np.ndarray]") -> np.ndarray:
    """``(machines, 2)`` lengths of a :func:`state_layout`'s R1 / R2 keys."""
    return np.array([len(keys) for keys in layout], dtype=np.int64).reshape(-1, 2)


class ExecutionBackend(abc.ABC):
    """The owner of a stream's join state, and how its joins are executed.

    The engine touches join state only through the **state-ownership
    protocol** implemented here: :meth:`bind` once per stream, then per
    batch :meth:`count_batch` / :meth:`evict_state`,
    :meth:`install_state` on a migration, resize or restore and
    :meth:`drain_channel_bytes` for byte metering.  The default keeps a
    :class:`RegionStateTable` in-process and dispatches each batch's
    search tasks through :meth:`join_regions` -- the single abstract
    method, so an in-process backend only decides how a task list is
    counted.  A backend that keeps the state elsewhere
    (:class:`StickyWorkerBackend`) overrides the whole protocol; overriding
    part of it leaves half the state remote, which the static analyser
    rejects (API001).

    Backends are resources: :class:`StickyWorkerBackend` owns worker
    processes and a shared-memory segment, so every backend supports
    ``close()`` and the context-manager protocol.  An in-process backend may
    be reused by several engines *one after another* -- each ``bind`` starts
    from empty state -- and an engine only closes a backend it created
    itself.

    ``close()`` is idempotent and final: calling :meth:`join_regions` on a
    closed backend raises ``RuntimeError`` instead of silently resurrecting
    whatever resource the backend owned (resurrected workers have no
    remaining owner to shut them down -- a leak, not a convenience).
    """

    #: Reporting name recorded on the run result.
    name: str = "backend"

    #: Which clock domain the backend's reported timings live in:
    #: ``"real"`` for measured wall-clock seconds, ``"simulated"`` for
    #: modeled ones (see ``docs/observability.md`` on clock domains).
    clock_domain: str = "real"

    #: Set by :meth:`close`; class-level default so subclasses need no
    #: ``__init__`` chaining.
    _closed: bool = False

    #: The bound stream's state and its (original, transposed) conditions;
    #: class-level defaults for the same reason.
    _table: "RegionStateTable | None" = None
    _fold_conditions: "tuple[JoinCondition, ...]" = ()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this backend."""
        return self._closed

    def _ensure_open(self) -> None:
        """Raise ``RuntimeError`` if the backend has been closed."""
        if self._closed:
            raise RuntimeError(
                f"{type(self).__name__} has been closed; create a fresh "
                "backend instead of reusing a closed one"
            )

    def _bound_table(self) -> RegionStateTable:
        """The bound stream's state table; raise unless open and bound."""
        self._ensure_open()
        if self._table is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a stream yet; the "
                "engine calls bind() at the start of its run"
            )
        return self._table

    @abc.abstractmethod
    def join_regions(
        self,
        tasks: "list[tuple[np.ndarray, ...]]",
        conditions: "list[JoinCondition]",
    ) -> RegionJoinResult:
        """Join each ``(needles, run keys)`` task; count exact output.

        Tasks with an empty side produce no output and must not be charged
        any work.  ``conditions[t]`` is task ``t``'s condition
        (:meth:`count_batch` mixes the original and transposed orientations
        in one dispatch), and every task's second array is a sorted run of
        the state, searched, never sorted (``O(new * runs * log state)``
        per batch).
        """

    # ------------------------------------------------------------------
    # State-ownership protocol (in-process default)
    # ------------------------------------------------------------------
    def bind(
        self,
        num_machines: int,
        condition: JoinCondition,
        transposed: JoinCondition,
    ) -> None:
        """Start owning one stream's state: ``num_machines`` empty machines."""
        self._ensure_open()
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self._table = RegionStateTable(range(num_machines))
        self._fold_conditions = (condition, transposed)

    def count_batch(
        self, new1: "list[np.ndarray]", new2: "list[np.ndarray]"
    ) -> RegionJoinResult:
        """Fold one batch's arrivals into the state; count its output delta.

        ``new1`` / ``new2`` are per-machine arrival keys, key-sorted as
        :meth:`RegionStateTable.fold` requires.  Every machine's search
        tasks (:meth:`RegionStateTable.fold`: two halves, one task per run
        searched) go through :meth:`join_regions` as one dispatch, so the
        returned timings and serialization bytes are the backend's own; no
        full-region recount ever happens.  Per-task outputs and seconds are
        summed back to their machines; ``worker_pids`` /
        ``worker_seconds`` stay per task.
        """
        table = self._bound_table()
        tasks, owners = table.fold(state_layout(new1, new2))
        execution = self.join_regions(
            tasks, [self._fold_conditions[owner & 1] for owner in owners.tolist()]
        )
        return replace(
            execution,
            per_machine_output=table.sum_halves(
                execution.per_machine_output, owners
            ).sum(axis=1),
            per_machine_seconds=table.sum_halves(
                execution.per_machine_seconds, owners
            ).sum(axis=1),
        )

    def evict_state(
        self, expired1: "list[np.ndarray]", expired2: "list[np.ndarray]"
    ) -> int:
        """Tombstone each machine's expired keys; return how many.

        ``expired1`` / ``expired2`` are, per machine, the keys of the
        expired tuples it holds, key-sorted -- the router's share of the
        expired slices, in :meth:`count_batch`'s shape.
        """
        dropped = self._bound_table().evict(state_layout(expired1, expired2))
        return sum(side1 + side2 for side1, side2 in dropped)

    def install_state(
        self, state1: "list[np.ndarray]", state2: "list[np.ndarray]"
    ) -> None:
        """Replace every machine's state with its complete new keys.

        The one way state moves wholesale -- the initial build's backlog is
        counted as a batch, but a migration plan's new state and a
        restore's routed live state come here -- in the shape
        :meth:`count_batch` takes: per machine, keys sorted as
        :meth:`RegionStateTable.fold` requires.  The fleet size is
        ``len(state1)``: installing onto a different one is how the fleet
        resizes.
        """
        self._bound_table()
        self._table = RegionStateTable(range(_fleet_size(state1, state2)))
        self._table.install(state_layout(state1, state2))

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Protocol-channel bytes since the last drain: (pickled, unpickled, shm).

        The in-process default has no channel of its own -- whatever
        :meth:`join_regions` serialized is already on the execution it
        returned -- so all three are ``None`` (not a measured zero).
        """
        return (None, None, None)

    def close(self) -> None:
        """Release any resources held by the backend (idempotent, final)."""
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        """Enter a with-block; the backend closes itself on exit."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the backend when the with-block ends."""
        self.close()


class SimulatedBackend(ExecutionBackend):
    """Count every task in-process, with the batch simulator's kernel."""

    name = "simulated"

    def join_regions(
        self,
        tasks: "list[tuple[np.ndarray, ...]]",
        conditions: "list[JoinCondition]",
    ) -> RegionJoinResult:
        """Count each non-empty task's join output in the calling process."""
        self._ensure_open()
        start = perf_counter()
        outputs, seconds = count_regions(tasks, conditions)
        return RegionJoinResult(
            per_machine_output=outputs,
            per_machine_seconds=seconds,
            wall_seconds=perf_counter() - start,
        )


class _StickyWorkerState:
    """One sticky worker's command handlers over its resident state table.

    The worker process hosts the :class:`RegionStateTable` of the machines
    assigned to it and answers the backend's control messages with the very
    same table operations and counting loop the in-process default runs,
    in the same order -- so the counted deltas are bit-identical to the
    simulated backend's.  The handlers live on this (in-process testable)
    class; :func:`_sticky_worker_main` is only the recv/dispatch/send loop
    around it.

    Array payloads are zero-copy views into the engine's shared segment, in
    :func:`state_layout` order.  A state verb's handler returns one row of
    values per owned machine (or ``None``: no values); :meth:`handle`
    prefixes each with the machine and what it held when the command arrived.
    """

    #: The state verbs: commands whose payload is a shared-memory message.
    VERBS = ("count", "evict", "install")

    def __init__(self) -> None:
        self.table = RegionStateTable(())
        self.conditions: "tuple[JoinCondition, ...]" = ()

    def own(
        self,
        machines: "tuple[int, ...]",
        condition: JoinCondition,
        transposed: JoinCondition,
    ):
        """Adopt an owned-machine set, empty; reply with this worker's pid.

        ``bind`` sends it, and so does an ``install_state`` onto a new fleet
        size -- ownership is reassigned wholesale, and the :meth:`install`
        that follows carries every machine's complete state.
        """
        self.table = RegionStateTable(machines)
        self.conditions = (condition, transposed)
        return ("owned", os.getpid())

    def held(self) -> "list[tuple[int, int, int]]":
        """Per owned machine: ``(machine, |R1 state|, |R2 state|)``."""
        table = self.table
        return [
            (machine, len(table.state1[machine]), len(table.state2[machine]))
            for machine in table.machines
        ]

    def count(self, arrays: "list[np.ndarray]") -> "list[tuple[int, float]]":
        """Fold one batch's deltas in and count: ``(output, seconds)`` rows.

        The per-run tasks of :meth:`RegionStateTable.fold` are counted by
        :func:`~repro.joins.local.count_regions` and summed per machine
        here, in the worker, so the reply is one fixed-size row per machine
        however many runs the state holds.
        """
        table = self.table
        tasks, owners = table.fold(arrays)
        outputs, seconds = count_regions(
            tasks, [self.conditions[owner & 1] for owner in owners.tolist()]
        )
        outputs = table.sum_halves(outputs, owners).sum(axis=1).tolist()
        seconds = table.sum_halves(seconds, owners).sum(axis=1).tolist()
        return list(zip(outputs, seconds))

    def evict(self, arrays: "list[np.ndarray]") -> "list[tuple[int, int]]":
        """Tombstone each owned machine's expired keys: ``(R1, R2)`` counts."""
        return self.table.evict(arrays)

    def install(self, arrays: "list[np.ndarray]") -> None:
        """Replace every owned machine's state with its complete new keys."""
        self.table.install(arrays)

    def handle(self, command: tuple, reader: ShmReader):
        """Dispatch one command; a state verb replies ``(op, rows)``.

        One row per owned machine: ``(machine, held1, held2, *values)``.
        """
        op = command[0]
        if op == "own":
            return self.own(*command[1:])
        if op not in self.VERBS:
            raise ValueError(f"unknown sticky-worker command {op!r}")
        held = self.held()
        values = getattr(self, op)(reader.arrays(command[1])) or [()] * len(held)
        return (op, [(*before, *row) for before, row in zip(held, values)])


def _sticky_worker_main(channel) -> None:
    """Entry point of one sticky worker process: recv, handle, reply.

    Runs until a ``close`` command or the engine's end of the pipe
    disappears.  Failures inside a handler are shipped back as an
    ``("error", message)`` reply instead of killing the worker silently --
    the backend raises them engine-side.  The shared-memory reader only
    ever unmaps; the engine's arena owns every segment.
    """
    from repro.streaming.shm import ShmReader

    worker = _StickyWorkerState()
    reader = ShmReader()
    try:
        while True:
            try:
                command = channel.recv()
            except EOFError:
                break
            if command[0] == "close":
                channel.send(("closed",))
                break
            try:
                reply = worker.handle(command, reader)
            except Exception as error:
                channel.send(("error", f"{type(error).__name__}: {error}"))
            else:
                channel.send(reply)
    finally:
        reader.close()
        channel.close()


class StickyWorkerBackend(ExecutionBackend):
    """Resident per-worker join state over shared memory (zero-copy deltas).

    Each of ``max_workers`` long-lived processes owns the
    :class:`SortedRegionState` pair of the machines assigned to it (machine
    ``m`` lives on worker ``m % W``), resident across batches, so per batch
    the engine ships only the *delta*: every array payload -- arrivals,
    eviction sets, migrated state -- rides a
    :class:`~repro.streaming.shm.ShmArena` segment and the pickle channel
    carries fixed-size control messages (``docs/streaming.md``, "Zero-copy
    sticky workers", has the story and the measured baseline).

    This is the one override of the state-ownership protocol, and the
    workers hold the *only* copy of the state.  Engine-side the backend
    keeps one integer per machine and side -- how many tuples it has told
    that machine to hold -- and every reply opens with what the machine
    really held when the command arrived; a disagreement raises instead of
    counting against state that does not exist.  Nothing is ever read back:
    what a machine holds is derived engine-side from the arrival logs.
    Counted outputs are bit-identical to :class:`SimulatedBackend`: the
    workers run the same :class:`RegionStateTable` fold on the same arrays.

    Parameters
    ----------
    max_workers:
        Worker process count (capped at the machine count on ``bind``);
        defaults to the CPU count.
    profile_serialization:
        Meter the control channel's pickled bytes per command
        (``bytes_pickled`` / ``bytes_unpickled``).  The shared-memory
        payload (``bytes_shm``) is always metered -- the arena layout
        knows it exactly.
    mp_context:
        Multiprocessing context or start-method name; defaults to
        :func:`default_mp_context` (forkserver/spawn, never fork).

    A sticky backend is bound to *one* stream: re-binding (a second engine
    run) or any use after ``close()`` raises ``RuntimeError`` instead of
    silently mixing two streams' state.  ``close()`` shuts the workers down
    and unlinks the shared segment -- the test suite asserts nothing is
    left in ``/dev/shm``.
    """

    name = "sticky"

    def __init__(
        self,
        max_workers: int | None = None,
        profile_serialization: bool = True,
        mp_context: "multiprocessing.context.BaseContext | str | None" = None,
    ) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.profile_serialization = profile_serialization
        self._mp_context = _resolve_mp_context(mp_context)
        self._arena: "ShmArena | None" = None
        self._channels: list = []
        self._processes: list = []
        self._machine_pids: "np.ndarray | None" = None
        #: Tuples each machine has been told to hold, ``[machine, side]``:
        #: all the backend keeps of the state (``None`` until ``bind``).
        self._counts: "np.ndarray | None" = None
        self._bytes_pickled = 0
        self._bytes_unpickled = 0
        self._bytes_shm = 0
        self._commands_since_drain = False

    @property
    def start_method(self) -> str:
        """Start method of the pinned multiprocessing context."""
        return self._mp_context.get_start_method()

    @property
    def bound(self) -> bool:
        """Whether :meth:`bind` has attached this backend to a stream."""
        return self._counts is not None

    def _bound_arena(self) -> ShmArena:
        """The bound stream's arena; raise unless open and bound."""
        self._ensure_open()
        if self._arena is None or not self.bound:
            raise RuntimeError(
                "StickyWorkerBackend is not bound to a stream yet; the "
                "engine calls bind() at the start of its run"
            )
        return self._arena

    def bind(
        self,
        num_machines: int,
        condition: JoinCondition,
        transposed: JoinCondition,
    ) -> None:
        """Start the workers and assign machine ownership for one stream.

        A sticky backend binds exactly once: the workers' resident state
        *is* the stream's state, so a second ``bind`` raises -- restarting
        a stream needs a fresh backend, never a silent adoption of stale
        state.
        """
        self._ensure_open()
        if self.bound:
            raise RuntimeError(
                "StickyWorkerBackend is already bound to a stream and its "
                "workers hold that stream's resident state; create a fresh "
                "backend per run instead of re-binding this one"
            )
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        from repro.streaming.shm import ShmArena

        self._arena = ShmArena()
        for worker in range(
            min(self.max_workers or os.cpu_count() or 1, num_machines)
        ):
            engine_end, worker_end = self._mp_context.Pipe()
            process = self._mp_context.Process(
                target=_sticky_worker_main,
                args=(worker_end,),
                daemon=True,
                name=f"sticky-worker-{worker}",
            )
            process.start()
            worker_end.close()
            self._channels.append(engine_end)
            self._processes.append(process)
        self._fold_conditions = (condition, transposed)
        self._assign(num_machines)

    def _assign(self, num_machines: int) -> None:
        """Hand machine ``m``, empty, to worker ``m % W``: bind's and resize's step.

        One ``own`` command per worker (they differ, so not a
        :meth:`_broadcast`), all sent before any reply is awaited; the
        replies' pids rebuild the machine-to-pid map, and the counts start
        over at zero.
        """
        workers = len(self._channels)
        self._commands_since_drain = True
        for worker in range(workers):
            machines = tuple(range(worker, num_machines, workers))
            command = ("own", machines, *self._fold_conditions)
            if self.profile_serialization:
                self._bytes_pickled += pickled_nbytes(command)
            self._send(worker, command)
        pids = np.zeros(num_machines, dtype=np.int64)
        for worker in range(workers):
            pids[worker::workers] = self._recv(worker)[1]
        self._machine_pids = pids
        self._counts = np.zeros((num_machines, 2), dtype=np.int64)

    def _crashed(self, worker: int, cause: "BaseException | None" = None):
        """Build the :class:`WorkerCrashError` for a dead worker's channel."""
        process = self._processes[worker]
        error = WorkerCrashError(
            f"sticky worker {worker} (pid {process.pid}) died with exit code "
            f"{process.exitcode} before replying; its resident join state is "
            "lost -- restore the run from its last checkpoint onto a fresh "
            "backend"
        )
        if cause is not None:
            error.__cause__ = cause
        return error

    def _send(self, worker: int, command: tuple) -> None:
        """Send one command to one worker; a broken pipe means it crashed."""
        try:
            self._channels[worker].send(command)
        except (BrokenPipeError, OSError) as error:
            raise self._crashed(worker, error) from error

    def _recv(self, worker: int):
        """Receive one reply, polling so a dead worker can never hang us.

        A worker death *eventually* surfaces as ``EOFError`` on ``recv``,
        but a blocking ``recv`` hangs if the pipe breaks in ways that never
        deliver the EOF.  Polling with a liveness check bounds the wait:
        once the process is dead, one grace poll collects any reply it
        managed to send before exiting, then the crash is raised.
        """
        channel = self._channels[worker]
        process = self._processes[worker]
        while True:
            try:
                if channel.poll(0.05):
                    reply = channel.recv()
                    break
            except (EOFError, BrokenPipeError, OSError) as error:
                raise self._crashed(worker, error) from error
            if not process.is_alive():
                try:
                    if channel.poll(0.2):
                        reply = channel.recv()
                        break
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise self._crashed(worker)
        if self.profile_serialization:
            self._bytes_unpickled += pickled_nbytes(reply)
        if reply[0] == "error":
            raise RuntimeError(f"sticky worker failed: {reply[1]}")
        return reply

    def _broadcast(self, command: tuple) -> list:
        """Send one command to every worker; gather (and check) the replies.

        Profiling measures the command's pickle once and charges it per
        worker.  Replies are collected synchronously: the arena's segment
        is only reused after every worker has consumed the previous
        message.  A worker dying mid-command surfaces as
        :class:`WorkerCrashError`, never a hang (see :meth:`_recv`).
        """
        self._commands_since_drain = True
        if self.profile_serialization:
            self._bytes_pickled += pickled_nbytes(command) * len(self._channels)
        for worker in range(len(self._channels)):
            self._send(worker, command)
        return [self._recv(worker) for worker in range(len(self._channels))]

    def _command(self, op: str, message: ShmMessage) -> "list[tuple]":
        """Broadcast → gather → check: the one body of every state verb.

        ``message`` is the verb's arena payload: its bytes are metered
        here, only its descriptor is pickled.  Each worker answers one row per machine it
        owns, ``(machine, held1, held2, *values)``; the ``values`` come
        back in machine order.  What the machines held on receipt must
        equal the backend's counts -- all it knows about worker state.
        """
        self._bytes_shm += message.payload_bytes
        held = np.full_like(self._counts, -1)
        values: "list[tuple]" = [()] * len(held)
        for reply in self._broadcast((op, message)):
            for machine, held1, held2, *row in reply[1]:
                held[machine] = held1, held2
                values[machine] = tuple(row)
        if not np.array_equal(held, self._counts):
            raise RuntimeError(
                f"sticky workers held {held.tolist()} state entries (per "
                f"machine: R1, R2) on receiving {op!r} but the backend's "
                f"counts say {self._counts.tolist()}; worker-resident state "
                "has diverged from the engine"
            )
        return values

    def count_batch(
        self, new1: "list[np.ndarray]", new2: "list[np.ndarray]"
    ) -> RegionJoinResult:
        """Ship one batch's per-machine deltas; fold and count worker-side.

        The key-sorted arrivals are written to the arena as one
        :func:`state_layout` message, per machine as they came.  The byte
        accounting accrues on the backend and is drained per batch
        (:meth:`drain_channel_bytes`), covering every command of the batch.
        """
        start = perf_counter()
        layout = state_layout(new1, new2)
        rows = self._command("count", self._bound_arena().write(layout))
        self._counts += _lengths(layout)
        outputs, seconds = zip(*rows)
        return RegionJoinResult(
            per_machine_output=np.array(outputs, dtype=np.int64),
            per_machine_seconds=np.array(seconds),
            wall_seconds=perf_counter() - start,
            worker_pids=self._machine_pids.copy(),
        )

    def evict_state(
        self, expired1: "list[np.ndarray]", expired2: "list[np.ndarray]"
    ) -> int:
        """Ship each machine's expired keys; the workers tombstone them.

        One :func:`state_layout` message, like a batch; the counts shrink
        by what each machine was sent.
        """
        layout = state_layout(expired1, expired2)
        self._command("evict", self._bound_arena().write(layout))
        dropped = _lengths(layout)
        self._counts -= dropped
        return int(dropped.sum())

    def install_state(
        self, state1: "list[np.ndarray]", state2: "list[np.ndarray]"
    ) -> None:
        """Move migrated state between workers through shared memory.

        Each worker rebuilds its owned machines' state from the shared
        message, so state never crosses the pickle channel even when it
        changes owners.  Onto a new fleet size, machine ownership is
        reassigned first (:meth:`_assign`: machine ``m`` to worker
        ``m % W`` of the new numbering; the worker count is fixed at
        :meth:`bind`).
        """
        arena = self._bound_arena()
        machines = _fleet_size(state1, state2)
        if machines != len(self._counts):
            self._assign(machines)
        layout = state_layout(state1, state2)
        self._command("install", arena.write(layout))
        self._counts = _lengths(layout)

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Byte accounting since the last drain: (pickled, unpickled, shm).

        The engine calls this once per batch; the totals cover every
        command since the previous drain.  All three are ``None`` when
        none ran, and the pickle totals are ``None`` when profiling is
        disabled -- the shared-memory payload is always measured.
        """
        if not self._commands_since_drain:
            return (None, None, None)
        self._commands_since_drain = False
        totals = (self._bytes_pickled, self._bytes_unpickled, self._bytes_shm)
        self._bytes_pickled = self._bytes_unpickled = self._bytes_shm = 0
        if not self.profile_serialization:
            return (None, None, totals[2])
        return totals

    def join_regions(
        self,
        tasks: "list[tuple[np.ndarray, ...]]",
        conditions: "list[JoinCondition]",
    ) -> RegionJoinResult:
        """Refuse stateless dispatch: sticky workers own their state.

        Shipping full region arrays through this entry point is exactly the
        serialization tax this backend exists to remove.  A decorator that
        works by intercepting ``join_regions`` (``SlowConsumerBackend``)
        therefore cannot be used around a sticky backend.
        """
        self._ensure_open()
        raise RuntimeError(
            "StickyWorkerBackend owns its workers' join state and does not "
            "accept stateless join_regions dispatch; drive it through the "
            "state-ownership protocol (bind/count_batch/...)"
        )

    def close(self) -> None:
        """Stop the workers and unlink the shared segment (idempotent, final).

        Every wait is bounded by :data:`CLOSE_GRACE_SECONDS`: the ``close``
        handshake is polled, so a worker that is alive but wedged cannot
        hang the engine, and one that outlives ``join`` and ``terminate``
        (SIGTERM never lands on a stopped process) is killed.
        """
        for channel in self._channels:
            try:
                channel.send(("close",))
                if channel.poll(CLOSE_GRACE_SECONDS):
                    channel.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
            channel.close()
        self._channels = []
        for process in self._processes:
            process.join(timeout=CLOSE_GRACE_SECONDS)
            if process.is_alive():
                process.terminate()
                process.join(timeout=CLOSE_GRACE_SECONDS)
            if process.is_alive():
                process.kill()
                process.join()
        self._processes = []
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        super().close()


class SlowConsumerBackend(ExecutionBackend):
    """Decorate a backend with a deterministic per-batch slowdown.

    Backpressure only matters when the consumer cannot keep up, so the
    pipeline tests and benchmarks need a consumer whose slowness is a
    *parameter*, not an accident of the host machine.  This wrapper adds
    ``seconds_per_call + seconds_per_tuple * probe_tuples`` to every
    execution (``probe_tuples`` counts each task's first-side keys --
    under the engine's incremental counting, the batch's new arrivals once
    per sorted run of retained state they are searched against).

    By default the delay is **virtual**: it is added to the reported
    ``wall_seconds`` without stalling anything, so simulated-clock tests
    stay instant and exact.  Pass ``sleep=time.sleep`` to really stall the
    calling thread, which is what the real-thread pipeline smoke test uses
    to provoke genuine queue growth.

    Counting results are the inner backend's, untouched: the decorator
    slows the consumer down, it never changes what the consumer computes.
    """

    def __init__(
        self,
        inner: ExecutionBackend,
        seconds_per_call: float = 0.0,
        seconds_per_tuple: float = 0.0,
        sleep=None,
    ) -> None:
        if seconds_per_call < 0 or seconds_per_tuple < 0:
            raise ValueError("slowdown seconds must be non-negative")
        self.inner = inner
        self.seconds_per_call = seconds_per_call
        self.seconds_per_tuple = seconds_per_tuple
        self._sleep = sleep
        self.name = f"slow({inner.name})"
        # A virtual delay makes the reported wall time a *model*, not a
        # measurement; a real sleep keeps the inner backend's domain.
        self.clock_domain = (
            inner.clock_domain if sleep is not None else "simulated"
        )

    def join_regions(
        self,
        tasks: "list[tuple[np.ndarray, ...]]",
        conditions: "list[JoinCondition]",
    ) -> RegionJoinResult:
        """Run the inner backend, slowed by the configured delay."""
        self._ensure_open()
        delay = self.seconds_per_call + self.seconds_per_tuple * sum(
            len(task[0]) for task in tasks
        )
        if self._sleep is not None and delay > 0:
            self._sleep(delay)
        result = self.inner.join_regions(tasks, conditions)
        return replace(result, wall_seconds=result.wall_seconds + delay)

    def close(self) -> None:
        """Close the wrapped backend along with the decorator."""
        self.inner.close()
        super().close()


_BACKENDS: dict[str, type[ExecutionBackend]] = {
    SimulatedBackend.name: SimulatedBackend,
    StickyWorkerBackend.name: StickyWorkerBackend,
}


def make_backend(name: str, **kwargs: object) -> ExecutionBackend:
    """Instantiate an execution backend by its reporting name.

    ``make_backend("simulated")`` or ``make_backend("sticky",
    max_workers=4)``; unknown names raise ``ValueError`` listing the
    available backends.
    """
    try:
        backend_cls = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(f"unknown backend {name!r} (available: {known})") from None
    return backend_cls(**kwargs)  # type: ignore[arg-type]
