"""Pluggable execution backends: who owns the join state, and where it is counted.

A region's tuples live where its EWH region was assigned -- and here that
place is the :class:`ExecutionBackend`.  The engine never holds join state;
it drives every backend through one **state-ownership protocol**:

``bind`` → per batch ``count_batch`` / ``evict_state`` → ``install_state``
(migrations, resizes, restores), with ``drain_channel_bytes`` for byte
metering.  State enters in one shape, a
:class:`~repro.partitioning.routing.RoutedSide` per side: one key array
and, per machine, the slice of it the router sends that machine
(key-sorted) -- a batch's arrivals (``count_batch``), the expired keys an
eviction routes (``evict_state``) and the complete live state
(``install_state``, whose slices also say the fleet size) alike -- plus the
plan's :class:`~repro.partitioning.routing.SideLayout`, how its machines
read the state.  Which tuples a machine holds is the engine's to derive
from its arrival logs (:func:`~repro.streaming.migration.held_by_machine`),
so no verb reads state back.

The state is held once per **owner** (:class:`StateOwner`), not once per
machine.  An owner keeps each side's live keys in a few counted
:class:`~repro.streaming.incremental.SortedRegionState` groups -- one
for a grid-routed plan, one per draw group for 1-Bucket -- and a machine
reads its group through its region's key range (the slice rule of
:mod:`repro.partitioning.grid_routed`, applied to each sorted run).  A
batch's merges and count are therefore one call of the compiled kernel
(the fold), however many runs and machines there are, an eviction is one
tombstone run per group, and a migration whose plans cover the same keys
moves nothing.

The protocol is implemented once, in-process, on the base class: one
owner of every machine, whose count (``C(new1, state2 + new2) + C(state1,
new2)``, :meth:`StateOwner.count`) runs in the engine's own process.

* :class:`SimulatedBackend` is that default.  Cost-model load is the
  quantity of interest; one pass counts every machine, so no per-machine
  time is measured.

:class:`StickyWorkerBackend` overrides the protocol itself: each worker
*process* hosts a :class:`StateOwner` for the machines assigned to it,
resident across batches, and only per-batch deltas travel, over shared
memory, as per-machine arrays -- so a worker's owner holds a group per
machine, and times each machine's searches.  The workers run the same
owner count as the in-process default, so every backend counts
bit-identical deltas; only the measured timings and byte counts differ
(``tests/test_backends.py``).  Every backend reports a
:class:`~repro.engine.executor.RegionJoinResult` (re-exported here); the
batch executor is a sticky backend's first batch into empty state.

Select a backend by passing it to :class:`StreamingJoinEngine` (default:
simulated) or by name through :func:`make_backend`::

    with make_backend("sticky", max_workers=4) as backend:
        engine = StreamingJoinEngine(8, condition, weights, backend=backend)
        result = engine.run(source)
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.executor import RegionJoinResult, pickled_nbytes
from repro.joins.conditions import JoinCondition
from repro.joins import native
from repro.joins.local import fold_half
from repro.obs.clock import perf_counter
from repro.partitioning.routing import RoutedSide, SideLayout
from repro.streaming.incremental import SortedRegionState

if TYPE_CHECKING:  # only sticky backends pay for importing these (see below)
    import multiprocessing.context

    from repro.streaming.shm import ShmArena, ShmMessage, ShmReader

__all__ = [
    "RegionJoinResult",
    "StateOwner",
    "ExecutionBackend",
    "SimulatedBackend",
    "StickyWorkerBackend",
    "WorkerCrashError",
    "default_mp_context",
    "make_backend",
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


class StateOwner:
    """The join state of one owner, each side held once, and the count that folds a batch in.

    The single implementation behind every owner of join state: the
    in-process default on :class:`ExecutionBackend` is one owner of every
    machine, each :class:`StickyWorkerBackend` worker process one owner of
    its machines.  Per side it keeps one counted
    :class:`~repro.streaming.incremental.SortedRegionState` per group of
    the side's :class:`SideLayout`, holding each live key that routes to at
    least one of the group's readers exactly once, and mutates it in place
    batch after batch -- so two owners fed the same protocol traffic hold
    bit-identical state.  A machine's state is its group cut by its key
    range: the same multiset a per-machine table would hold
    (``tests/reference_state.py`` keeps that table as the oracle).

    Array inputs may be zero-copy views into a transient shared segment;
    :class:`SortedRegionState` copies on append, tombstone and install, so
    the state keeps no view past the call, and a :meth:`count` reads the
    arrival keys only while it runs (the state itself only ever swaps in
    fresh arrays, so the runs it searches are never written).
    """

    def __init__(self) -> None:
        self.states: "tuple[list[SortedRegionState], list[SortedRegionState]]" = ([], [])
        self.layouts: "list[SideLayout | None]" = [None, None]
        #: The conditions last counted with and their bound rules, worked
        #: out once: a stream counts every batch with the same pair.
        self._rules: tuple = (None, ())

    def _reading(self, sides: "tuple[RoutedSide, RoutedSide]") -> list:
        """Each side's ``(layout, groups)`` as it reads the routed ``sides``; nothing changed yet.

        A side switches to its routed layout; its groups start empty if it
        held none.
        """
        reading: list = []
        for side, routed in enumerate(sides):
            layout, states = self.layouts[side], self.states[side]
            if routed.layout is not None and routed.layout is not layout:
                layout = routed.layout
                if not states:
                    states = [SortedRegionState() for _ in layout.readers]
                elif len(states) != len(layout.readers):
                    raise ValueError(
                        f"a layout of {len(layout.readers)} groups cannot read state held "
                        f"in {len(states)}; install_state moves state onto a new layout"
                    )
            reading += ((layout, states),)
        return reading

    def _adopt(self, reading: list) -> None:
        """Read each side through its layout of ``reading`` from now on."""
        for side, (layout, states) in enumerate(reading):
            self.layouts[side] = layout
            self.states[side][:] = states

    def count(
        self,
        new1: RoutedSide,
        new2: RoutedSide,
        conditions: "tuple[JoinCondition, JoinCondition]",
        seconds: "np.ndarray | None" = None,
    ) -> np.ndarray:
        """Merge a batch's arrivals in; return its output delta per machine.

        A machine's output delta decomposes exactly as ``C(new1, state2 +
        new2) + C(state1, new2)``: its first half searches the just-updated
        R2 state per new R1 key under ``conditions[0]``, its second the
        *pre-append* R1 state per new R2 key under ``conditions[1]`` (the
        transposed condition).  A half's needles are the batch's routed
        keys of its side with the condition's bound rule
        (:func:`~repro.joins.local.fold_half`); each machine searches its
        share of them in every run of the group it reads, clipped to its key
        range on that run.  The whole batch -- each group's runs and
        arrivals (:meth:`SortedRegionState.arriving
        <repro.streaming.incremental.SortedRegionState.arriving>`), whose
        cascade the kernel settles and merges, and both halves, whose bounds
        it computes -- is one call of the compiled kernel
        (:func:`repro.joins.native.fold`), which merges first, then bounds
        and searches each needle once per run for all the machines reading
        it and adds each machine's counts straight into its total.  A group
        with no runs or no readers counts zero.  The run lists the call
        returns and any new layout are swapped in only after every call
        succeeds, so a refused fold leaves the state as it was.

        With ``seconds`` (a float per machine), each group is folded in a
        call of its own -- group ``g`` of both sides, one machine's, as a
        sticky worker's are (:meth:`RoutedSide.of`) -- and its time is added
        to that machine's entry: a real per-machine clock.  A machine that
        received no arrivals is neither folded nor timed.  Both paths are
        one loop over groups (:meth:`_fold`).
        """
        reading = self._reading((new1, new2))
        arriving = [
            [state.arriving(new.group_keys(group)) for group, state in enumerate(states)]
            for (_, states), new in zip(reading, (new1, new2))
        ]
        if conditions is not self._rules[0]:
            self._rules = (conditions, [condition.bound_rule() for condition in conditions])
        totals = np.zeros(len(new1.starts), dtype=np.int64)
        fold = (reading, arriving, (new1, new2), self._rules[1], totals)
        if seconds is None:
            held = self._fold(*fold, range(len(arriving[0])), range(len(arriving[1])))
        else:
            if len(arriving[0]) != len(arriving[1]):
                raise ValueError("a timed count folds one machine's group of each side at a time")
            held = []
            for group, (mine1, mine2) in enumerate(zip(*arriving)):
                if mine1[1].size or mine2[1].size:
                    started = perf_counter()
                    held += self._fold(*fold, (group,), (group,))
                    seconds[reading[0][0].readers[group][0]] += perf_counter() - started
        for state, runs in held:
            state.commit(runs)
        self._adopt(reading)
        return totals

    @staticmethod
    def _fold(reading, arriving, sides, rules, totals, ones, twos) -> list:
        """Fold groups ``ones`` of R1 and ``twos`` of R2 in one kernel call; ``(state, runs)`` each.

        Each group's ``(runs, arrivals)`` is one of the call's cascades; the
        first half searches the R2 groups after the append (the run lists
        their cascades leave), the second the R1 groups before it.  ``runs``
        is the run list a group's state holds next.
        """
        (layout1, states1), (layout2, states2) = reading
        new1, new2 = sides
        cascades, states, first, second = [], [], [], []
        for group in ones:
            cascade = arriving[0][group]
            second.append((cascade[0], layout1.readers[group], layout1.cut, None))
            cascades.append(cascade)
            states.append(states1[group])
        for group in twos:
            first.append(([], layout2.readers[group], layout2.cut, len(cascades)))
            cascades.append(arriving[1][group])
            states.append(states2[group])
        halves = [
            fold_half(rules[0], new1.keys, new1.starts, new1.stops, first),
            fold_half(rules[1], new2.keys, new2.starts, new2.stops, second),
        ]
        return list(zip(states, native.fold(cascades, halves, totals)))

    def evict(self, expired1: RoutedSide, expired2: RoutedSide) -> None:
        """Tombstone the expired keys: one run per group, each key once."""
        self._adopt(self._reading((expired1, expired2)))
        for side, expired in enumerate((expired1, expired2)):
            for group, state in enumerate(self.states[side]):
                state.tombstone(expired.group_keys(group))

    def install(self, state1: RoutedSide, state2: RoutedSide) -> None:
        """Hold exactly the complete live state given, read through its layout.

        Each group becomes one counted run of its keys
        (:meth:`SortedRegionState.install
        <repro.streaming.incremental.SortedRegionState.install>`) -- unless
        the state already holds them: when the old and the new layout are
        both one group whose key ranges cover every key, the state stays as
        it is and only the layout changes.  That is every migration and
        resize between EWH plans, so in-process they move nothing.
        """
        for side, state in enumerate((state1, state2)):
            layout, states = state.layout, self.states[side]
            if layout is None:
                states.clear()
            elif not self._holds(side, state):
                states[:] = [SortedRegionState() for _ in layout.readers]
                for group, held in enumerate(states):
                    held.install(state.group_keys(group))
            self.layouts[side] = layout

    def _holds(self, side: int, state: RoutedSide) -> bool:
        """Whether ``side``'s state already is ``state``'s complete keys.

        It is when the old and the new layout both hold everything routed
        in one group: every live key, once.
        """
        old, new = self.layouts[side], state.layout
        return old is not None and old.whole and new.whole

    def held(self) -> "tuple[int, int]":
        """Tuples held per side, each once (``(R1, R2)``)."""
        return tuple(sum(len(state) for state in states) for states in self.states)

    def view(self, side: int, machine: int) -> np.ndarray:
        """Machine ``machine``'s keys of one side (0 for R1), expanded, ascending.

        A read view for tests and tools -- its group's multiset cut by its
        key range; the per-batch paths never read it.
        """
        layout = self.layouts[side]
        for group, readers in enumerate(layout.readers if layout else []):
            where = (readers == machine).nonzero()[0]
            if where.size:
                keys = self.states[side][group].keys
                if layout.cut is None:
                    return keys
                lows, highs = layout.cut(keys)
                return keys[lows[where[0]] : highs[where[0]]]
        return np.empty(0)


def _per_machine(state1: RoutedSide, state2: RoutedSide) -> "list[np.ndarray]":
    """Machine-major arrays, ``(keys1, keys2)`` per machine: a sticky message's layout."""
    return [keys for pair in zip(state1.columns(), state2.columns()) for keys in pair]


def _fleet_size(state1: RoutedSide, state2: RoutedSide) -> int:
    """The machine count an ``install_state`` names: one slice per side each."""
    if not len(state1.starts) or len(state1.starts) != len(state2.starts):
        raise ValueError(
            "install_state takes one R1 and one R2 share per machine, "
            f"for at least one machine; got {len(state1.starts)} and "
            f"{len(state2.starts)}"
        )
    return len(state1.starts)


def _lengths(layout: "list[np.ndarray]") -> np.ndarray:
    """``(machines, 2)`` lengths of :func:`_per_machine`'s R1 / R2 keys."""
    return np.array([len(keys) for keys in layout], dtype=np.int64).reshape(-1, 2)


class ExecutionBackend:
    """The owner of a stream's join state, and how its joins are executed.

    The engine touches join state only through the **state-ownership
    protocol** implemented here: :meth:`bind` once per stream, then per
    batch :meth:`count_batch` / :meth:`evict_state`,
    :meth:`install_state` on a migration, resize or restore and
    :meth:`drain_channel_bytes` for byte metering.  The default keeps one
    :class:`StateOwner` of every machine in-process and counts each batch
    with it (:meth:`StateOwner.count`).  A backend that keeps the state
    elsewhere (:class:`StickyWorkerBackend`) overrides the whole protocol;
    overriding part of it leaves half the state remote, which the static
    analyser rejects (API001).

    Backends are resources: :class:`StickyWorkerBackend` owns worker
    processes and a shared-memory segment, so every backend supports
    ``close()`` and the context-manager protocol.  An in-process backend may
    be reused by several engines *one after another* -- each ``bind`` starts
    from empty state -- and an engine only closes a backend it created
    itself.

    ``close()`` is idempotent and final: calling a protocol verb on a
    closed backend raises ``RuntimeError`` instead of silently resurrecting
    whatever resource the backend owned (resurrected workers have no
    remaining owner to shut them down -- a leak, not a convenience).
    """

    #: Reporting name recorded on the run result.
    name: str = "backend"

    #: Set by :meth:`close`; class-level default so subclasses need no
    #: ``__init__`` chaining.
    _closed: bool = False

    #: The bound stream's state and its (original, transposed) conditions;
    #: class-level defaults for the same reason.
    _owner: "StateOwner | None" = None
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

    def _bound_owner(self) -> StateOwner:
        """The bound stream's state owner; raise unless open and bound."""
        self._ensure_open()
        if self._owner is None:
            raise RuntimeError(
                f"{type(self).__name__} is not bound to a stream yet; the "
                "engine calls bind() at the start of its run"
            )
        return self._owner

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
        self._owner = StateOwner()
        self._fold_conditions = (condition, transposed)

    def count_batch(self, new1: RoutedSide, new2: RoutedSide) -> RegionJoinResult:
        """Fold one batch's arrivals into the state; count its output delta.

        ``new1`` / ``new2`` are the batch's routed sides.  The owner merges
        them in and counts every machine at once (:meth:`StateOwner.count`:
        one kernel call), so no full-region recount ever
        happens and nothing is dispatched per task.  One pass counts every
        machine, so ``per_machine_seconds`` is ``None``: no per-machine
        time was measured.
        """
        owner = self._bound_owner()
        start = perf_counter()
        outputs = owner.count(new1, new2, self._fold_conditions)
        return RegionJoinResult(
            per_machine_output=outputs,
            per_machine_seconds=None,
            wall_seconds=perf_counter() - start,
        )

    def evict_state(self, expired1: RoutedSide, expired2: RoutedSide) -> int:
        """Tombstone the expired keys; return how many the machines held.

        ``expired1`` / ``expired2`` are the expired slices routed like a
        batch.  The owner tombstones each expired key once per group; the
        count returned is per machine, a replicated key once for every
        machine that held it.
        """
        owner = self._bound_owner()
        owner.evict(expired1, expired2)
        return int(
            np.add.reduce(expired1.stops - expired1.starts)
            + np.add.reduce(expired2.stops - expired2.starts)
        )

    def install_state(self, state1: RoutedSide, state2: RoutedSide) -> None:
        """Hold the complete new state: the live keys routed by a new plan.

        The one way state moves wholesale -- the initial build's backlog is
        counted as a batch, but a migration's and a resize's new plan and a
        restore's routed live state come here -- in the shape
        :meth:`count_batch` takes.  The fleet size is the number of
        machines the sides are routed to: installing onto a different one
        is how the fleet resizes.  In-process, a new plan that covers the
        keys already held moves nothing (:meth:`StateOwner.install`).
        """
        owner = self._bound_owner()
        _fleet_size(state1, state2)
        owner.install(state1, state2)

    def drain_channel_bytes(
        self,
    ) -> "tuple[int | None, int | None, int | None]":
        """Protocol-channel bytes since the last drain: (pickled, unpickled, shm).

        The in-process default has no channel of its own, so all three are
        ``None`` (not a measured zero).
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
    """The protocol's in-process default: one state owner of every machine."""

    name = "simulated"


class _StickyWorkerState:
    """One sticky worker's command handlers over its resident state owner.

    The worker process hosts the :class:`StateOwner` of the machines
    assigned to it and answers the backend's control messages with the very
    same owner operations and counting loop the in-process default runs,
    in the same order -- so the counted deltas are bit-identical to the
    simulated backend's.  The handlers live on this (in-process testable)
    class; :func:`_sticky_worker_main` is only the recv/dispatch/send loop
    around it.

    Array payloads are zero-copy views into the engine's shared segment,
    ``(keys1, keys2)`` per machine of the whole fleet; the worker reads its
    own machines' and hands them to its owner as per-machine routed sides
    (:meth:`RoutedSide.of`: a group per machine).  A state verb's reply is
    what the owner held per side when the command arrived and the verb's
    values.
    """

    #: The state verbs: commands whose payload is a shared-memory message.
    VERBS = ("count", "evict", "install")

    def __init__(self) -> None:
        self.owner = StateOwner()
        self.machines: "tuple[int, ...]" = ()
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
        self.owner = StateOwner()
        self.machines = tuple(machines)
        self.conditions = (condition, transposed)
        return ("owned", os.getpid())

    def _mine(self, arrays: "list[np.ndarray]") -> "tuple[RoutedSide, RoutedSide]":
        """This worker's machines' share of a machine-major message, per side."""
        return (
            RoutedSide.of([arrays[2 * machine] for machine in self.machines]),
            RoutedSide.of([arrays[2 * machine + 1] for machine in self.machines]),
        )

    def count(self, arrays: "list[np.ndarray]") -> "tuple[list[int], list[float]]":
        """Fold one batch's deltas in and count: per owned machine its output and seconds.

        The owner folds each owned machine on its own
        (:meth:`StateOwner.count` with ``seconds``: each group is one
        machine's, :meth:`RoutedSide.of`), one kernel call per machine that
        received arrivals, so the seconds are real per-machine seconds and
        the reply is two numbers per machine however many runs the state
        holds.
        """
        seconds = np.zeros(len(self.machines))
        outputs = self.owner.count(*self._mine(arrays), self.conditions, seconds)
        return outputs.tolist(), seconds.tolist()

    def evict(self, arrays: "list[np.ndarray]") -> None:
        """Tombstone each owned machine's expired keys."""
        self.owner.evict(*self._mine(arrays))

    def install(self, arrays: "list[np.ndarray]") -> None:
        """Hold every owned machine's complete new keys."""
        self.owner.install(*self._mine(arrays))

    def handle(self, command: tuple, reader: ShmReader):
        """Dispatch one command; a state verb replies ``(op, held, values)``.

        ``held`` is the owner's ``(R1, R2)`` tuple count on receipt.
        """
        op = command[0]
        if op == "own":
            return self.own(*command[1:])
        if op not in self.VERBS:
            raise ValueError(f"unknown sticky-worker command {op!r}")
        held = self.owner.held()
        return (op, held, getattr(self, op)(reader.arrays(command[1])))


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

    Each of ``max_workers`` long-lived processes is the :class:`StateOwner`
    of the machines assigned to it (machine ``m`` lives on worker ``m %
    W``), resident across batches, so per batch
    the engine ships only the *delta*: every array payload -- arrivals,
    eviction sets, migrated state -- rides a
    :class:`~repro.streaming.shm.ShmArena` segment and the pickle channel
    carries fixed-size control messages (``docs/streaming.md``, "Zero-copy
    sticky workers", has the story and the measured baseline).

    The workers hold the *only* copy of the state.  Engine-side the backend
    keeps one integer per machine and side -- how many tuples it has told
    that machine to hold -- and every reply opens with what the worker's
    owner really held per side when the command arrived, which must be its
    machines' sum; a disagreement raises instead of counting against state
    that does not exist.  Nothing is ever read back: what a machine holds
    is derived engine-side from the arrival logs.  Counted outputs are
    bit-identical to :class:`SimulatedBackend`: the workers run the same
    :class:`StateOwner` count.  The messages carry per-machine arrays, so a
    worker's owner holds a group per machine and times each machine's
    searches: a batch reports real per-machine seconds, and their sum per
    worker as ``worker_pids`` / ``worker_seconds``.

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
        self._worker_pids: "np.ndarray | None" = None
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
        replies' pids are the workers', and the counts start over at zero.
        """
        workers = len(self._channels)
        self._commands_since_drain = True
        for worker in range(workers):
            machines = tuple(range(worker, num_machines, workers))
            command = ("own", machines, *self._fold_conditions)
            if self.profile_serialization:
                self._bytes_pickled += pickled_nbytes(command)
            self._send(worker, command)
        self._worker_pids = np.array(
            [self._recv(worker)[1] for worker in range(workers)], dtype=np.int64
        )
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

    def _command(self, op: str, message: ShmMessage) -> "list":
        """Broadcast → gather → check: the one body of every state verb.

        ``message`` is the verb's arena payload: its bytes are metered
        here, only its descriptor is pickled.  Each worker answers
        ``(op, held, values)``: what its owner held per side on receipt --
        which must equal the sum of the backend's counts over the worker's
        machines, all it knows about worker state -- and the verb's values,
        returned in worker order.
        """
        self._bytes_shm += message.payload_bytes
        workers = len(self._channels)
        replies = self._broadcast((op, message))
        held = np.array([reply[1] for reply in replies], dtype=np.int64)
        told = np.array(
            [self._counts[worker::workers].sum(axis=0) for worker in range(workers)]
        )
        if not np.array_equal(held, told):
            raise RuntimeError(
                f"sticky workers held {held.tolist()} state entries (per "
                f"worker: R1, R2) on receiving {op!r} but the backend's "
                f"counts say {told.tolist()}; worker-resident state has "
                "diverged from the engine"
            )
        return [reply[2] for reply in replies]

    def count_batch(self, new1: RoutedSide, new2: RoutedSide) -> RegionJoinResult:
        """Ship one batch's per-machine deltas; fold and count worker-side.

        The key-sorted arrivals are written to the arena as one
        machine-major message, each machine's keys as the router sliced
        them.  The byte accounting accrues on the backend and is drained
        per batch (:meth:`drain_channel_bytes`), covering every command of
        the batch.
        """
        start = perf_counter()
        arena = self._bound_arena()
        layout = _per_machine(new1, new2)
        replies = self._command("count", arena.write(layout))
        self._counts += _lengths(layout)
        workers = len(replies)
        outputs = np.zeros(len(self._counts), dtype=np.int64)
        seconds = np.zeros(len(self._counts))
        for worker, (machine_outputs, machine_seconds) in enumerate(replies):
            outputs[worker::workers] = machine_outputs
            seconds[worker::workers] = machine_seconds
        return RegionJoinResult(
            per_machine_output=outputs,
            per_machine_seconds=seconds,
            wall_seconds=perf_counter() - start,
            worker_pids=self._worker_pids.copy(),
            worker_seconds=np.array([sum(times) for _, times in replies]),
        )

    def evict_state(self, expired1: RoutedSide, expired2: RoutedSide) -> int:
        """Ship each machine's expired keys; the workers tombstone them.

        One machine-major message, like a batch; the counts shrink by what
        each machine was sent.
        """
        arena = self._bound_arena()
        layout = _per_machine(expired1, expired2)
        self._command("evict", arena.write(layout))
        dropped = _lengths(layout)
        self._counts -= dropped
        return int(dropped.sum())

    def install_state(self, state1: RoutedSide, state2: RoutedSide) -> None:
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
        layout = _per_machine(state1, state2)
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
