"""Test helpers for the streaming suites: equivalences, faults and references.

Test-only, like the ``reference_*`` modules beside it: ``tests/`` is on
pytest's ``pythonpath`` (``pyproject.toml``), so ``benchmarks/`` imports it as
``streaming_harness`` too.  Nothing under ``src/`` may.

Several suites pin the same contract -- two engine runs over the same seeded
stream must be *behaviourally bit-identical* -- from different angles:
history trimming versus the untrimmed reference, one execution backend
versus another, and a kill-and-restore run versus the run that never
stopped.  Keeping the
comparison in one place (:func:`assert_equivalent_runs`) means a metric
added to the contract tightens every suite at once instead of silently
weakening whichever copy was not updated.

Wall-clock quantities (``wall_seconds``, ``join_seconds``,
``per_machine_join_seconds``) are deliberately excluded: they measure the
machine, not the behaviour.

The fault-injection decorators make worker crashes deterministic without
killing real processes: :class:`CrashingBackend` raises
:class:`~repro.streaming.backends.WorkerCrashError` at a chosen work call
(and stays dead, like a real lost fleet), :class:`FlakyBackend` fails a
fixed number of calls and then recovers (a transient fault).  Both wrap any
:class:`~repro.streaming.backends.ExecutionBackend` -- simulated for fast
deterministic tests, sticky for end-to-end ones -- and forward
the full state-ownership protocol, so the engine cannot tell them from the
real thing until the fault fires.

:class:`RecountingBackend` is the reference implementation of the count
itself, living here rather than as a mode of the production engine: a
protocol decorator that shadows the traffic it forwards, recounts every
machine's full region from scratch after each ``count_batch`` and asserts
the reported incremental delta against it.  Three more references sit
beside it, each selected by *which class a test instantiates*, never by an
option on production code: :class:`NoTrimWindow` (the untrimmed
bookkeeping), :class:`PositionalRebuildEngine` (the naive ``"full"``
migration) and :class:`PicklingPoolBackend` (the stateless worker pool the
sticky backend is measured against).  ``tests/conftest.py`` and
``benchmarks/conftest.py`` re-export the factory fixtures
(:func:`crashing_backend`, :func:`flaky_backend`) so every suite can inject
faults without owning backend cleanup.
"""

from __future__ import annotations

import gc
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.executor import join_assigned_regions
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter
from repro.obs.trace import TickClock
from repro.streaming.backends import (
    ExecutionBackend,
    RegionJoinResult,
    RoutedSide,
    SimulatedBackend,
    WorkerCrashError,
    default_mp_context,
)
from repro.streaming.engine import StreamingJoinEngine
from repro.streaming.metrics import StreamRunResult
from repro.streaming.window import WindowPolicy
from reference_migration import placement
from reference_state import RegionStateTable, state_layout

__all__ = [
    "use_tick_clocks",
    "arrivals",
    "columns",
    "multiset_difference",
    "assert_equivalent_runs",
    "CrashingBackend",
    "FlakyBackend",
    "RecountingBackend",
    "NoTrimWindow",
    "PositionalRebuildEngine",
    "PicklingPoolBackend",
    "crashing_backend",
    "flaky_backend",
]

#: Every in-process module whose measured seconds end up inside a checkpoint.
CLOCKED_MODULES = (
    "repro.streaming.engine",
    "repro.streaming.backends",
    "repro.joins.local",
    "repro.core.histogram",
)


def use_tick_clocks(monkeypatch) -> None:
    """Put each of :data:`CLOCKED_MODULES` on a fresh tick clock.

    Two runs that do the same work then write the same seconds, so their
    checkpoints can be compared byte for byte.
    """
    for module in CLOCKED_MODULES:
        monkeypatch.setattr(sys.modules[module], "perf_counter", TickClock())


def interpreter_calls(function, *args, **kwargs) -> "tuple[object, int]":
    """``function(*args, **kwargs)`` and the Python-level calls it made.

    ``call`` + ``c_call`` profile events: a deterministic stand-in for time
    that counts interpreter work and ignores what numpy does inside a call.
    The cycle collector is off meanwhile: a collection that happens to
    start inside ``function`` runs ``gc.callbacks`` (hypothesis registers
    one that reads a clock), which would count as its calls.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = function(*args, **kwargs)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return result, calls


def arrivals(assignments, history) -> RoutedSide:
    """What ``count_batch`` takes for one side, from index arrays and a history.

    Per machine, the keys of its arrival indices, sorted, as a routed side
    with a group per machine (``RoutedSide.of``).
    """
    return RoutedSide.of(
        [np.sort(history[np.asarray(a, dtype=np.int64)]) for a in assignments]
    )


def columns(side: RoutedSide) -> "list[np.ndarray]":
    """Each machine's keys of a protocol argument."""
    return side.columns()


def multiset_difference(held: np.ndarray, removed: np.ndarray) -> np.ndarray:
    """``held`` minus ``removed`` as key multisets, sorted; raise unless a subset.

    Each removed key takes the first still-unclaimed equal key of the
    sorted ``held`` (equal keys -- ``-0.0`` and ``0.0``, every NaN -- are
    interchangeable, as they are to a count).
    """
    held, removed = np.sort(held), np.sort(removed)
    rank = np.arange(len(removed)) - removed.searchsorted(removed, "left")
    positions = held.searchsorted(removed, "left") + rank
    if len(removed) and (
        positions[-1] >= len(held)
        or not np.array_equal(held[positions], removed, equal_nan=True)
    ):
        raise AssertionError("removed keys the multiset does not hold")
    keep = np.ones(len(held), dtype=bool)
    keep[positions] = False
    return held[keep]


def assert_equivalent_runs(
    actual: StreamRunResult, reference: StreamRunResult
) -> None:
    """Assert two runs are behaviourally bit-identical, batch by batch.

    Compares totals (output, cumulative load) and, per batch: the output
    delta (cluster-wide and per machine), per-machine loads, eviction
    counts and bytes freed, resident state, migration volume, rebuild
    charges, repartitioning decisions and the adopted migration plans
    (per-machine arrivals, departures and the region-to-machine mapping).
    Memory-footprint metrics (``resident_history_tuples``,
    ``resident_bytes``) are *not* compared -- they are exactly what history
    trimming is allowed to change -- and neither are wall-clock timings.
    """
    assert actual.num_batches == reference.num_batches
    assert actual.total_output == reference.total_output
    assert actual.num_machines == reference.num_machines
    np.testing.assert_array_equal(
        actual.cumulative_load, reference.cumulative_load
    )
    for act, ref in zip(actual.batches, reference.batches):
        assert act.batch_index == ref.batch_index
        assert act.output_delta == ref.output_delta
        assert act.tuples_evicted == ref.tuples_evicted
        assert act.bytes_freed == ref.bytes_freed
        assert act.resident_tuples == ref.resident_tuples
        assert act.migrated_tuples == ref.migrated_tuples
        assert act.repartitioned == ref.repartitioned
        assert act.resized_from == ref.resized_from
        assert act.rebuild_cost == ref.rebuild_cost
        np.testing.assert_array_equal(
            act.per_machine_load, ref.per_machine_load
        )
        if ref.per_machine_output_delta is None:
            assert act.per_machine_output_delta is None
        else:
            np.testing.assert_array_equal(
                act.per_machine_output_delta, ref.per_machine_output_delta
            )
        assert (act.migration_plan is None) == (ref.migration_plan is None)
        if ref.migration_plan is not None:
            np.testing.assert_array_equal(
                act.migration_plan.per_machine_arrivals,
                ref.migration_plan.per_machine_arrivals,
            )
            np.testing.assert_array_equal(
                act.migration_plan.per_machine_departures,
                ref.migration_plan.per_machine_departures,
            )
            np.testing.assert_array_equal(
                act.migration_plan.region_to_machine,
                ref.migration_plan.region_to_machine,
            )
            assert act.migration_plan.mode == ref.migration_plan.mode


def assert_same_checkpoint_state(ours, theirs) -> int:
    """Two checkpoints at one boundary hold the same state; returns its size.

    A checkpoint stores no machine state -- it is the live logs routed by
    the plan -- so the same state is equal logs (keys, bases, batch
    starts, live sets), plan and region map, and each checkpoint restored
    onto the in-process backend holds the same keys on every machine
    (``StateOwner.view``).  Plans are compared by what they place on every
    machine (``reference_migration.placement``; the plan objects also carry
    measured seconds).  Returns the number of keys held, summed over
    machines and sides.
    """
    for name in ("history1", "history2", "live1", "live2", "region_to_machine"):
        np.testing.assert_array_equal(getattr(ours, name), getattr(theirs, name))
    for name in ("num_machines", "base1", "base2", "starts1", "starts2"):
        assert getattr(ours, name) == getattr(theirs, name)
    assert type(ours.partitioning) is type(theirs.partitioning)
    held = []
    for checkpoint in (ours, theirs):
        engine = StreamingJoinEngine.resume_from(checkpoint)
        s, owner = engine._state, engine.backend._owner
        held.append([])
        for side, log in enumerate((s.log1, s.log2)):
            placed = placement(
                s.partitioning, side + 1, log, np.random.default_rng(0),
                engine.num_machines, s.region_to_machine,
            )
            for machine, columns in enumerate(placed):
                held[-1].extend((*columns, owner.view(side, machine)))
        engine.close()
    for mine, reference in zip(*held):
        np.testing.assert_array_equal(mine, reference)
    return sum(len(view) for view in held[0][2::3])


#: Work operations a fault can be scoped to -- the state-ownership protocol
#: calls that move or count state.  ``bind`` and ``drain_channel_bytes``
#: are deliberately not fault points: they are
#: bookkeeping commands whose failure modes the crash tests for real
#: backends already cover.  (``join_regions`` is no longer
#: one either: no protocol call dispatches through it, the in-process
#: ``count_batch`` included.)
FAULT_OPS = ("count", "evict", "install")


class _ForwardingBackend(ExecutionBackend):
    """Transparent decorator over any backend: the whole protocol, forwarded.

    The join state stays in the inner backend (in-process or sticky
    alike); every state-ownership call is passed through.  Subclasses hook
    :meth:`_before`, which runs ahead of every *work* call (the operations
    in :data:`FAULT_OPS`).  Everything else -- identity, clock domain, byte
    metering -- is forwarded verbatim, so the engine drives the wrapped
    backend exactly as it would drive the inner one.
    """

    #: Prefix composed into ``name`` (e.g. ``crashing(simulated)``).
    wrapper_name = "forwarding"

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        #: Work calls observed so far (faulting and forwarded alike).
        self.calls = 0

    @property
    def name(self) -> str:  # type: ignore[override]
        """Reporting name: the wrapper composed over the inner backend's."""
        return f"{self.wrapper_name}({self.inner.name})"

    @property
    def clock_domain(self) -> str:  # type: ignore[override]
        """The inner backend's clock domain, forwarded."""
        return self.inner.clock_domain

    def _before(self, op: str) -> None:
        """Fault hook; called before each work call with its operation name."""

    def join_regions(self, tasks, conditions) -> RegionJoinResult:
        """Forward a stateless region join (not a protocol call, no hook)."""
        self._ensure_open()
        return self.inner.join_regions(tasks, conditions)

    def bind(self, num_machines, condition, transposed) -> None:
        """Forward the stream binding (never a fault point)."""
        self._ensure_open()
        self.inner.bind(num_machines, condition, transposed)

    def count_batch(self, new1, new2) -> RegionJoinResult:
        """Forward a batch count, faults permitting."""
        self._ensure_open()
        self._before("count")
        return self.inner.count_batch(new1, new2)

    def evict_state(self, expired1, expired2) -> int:
        """Forward an eviction, faults permitting."""
        self._ensure_open()
        self._before("evict")
        return self.inner.evict_state(expired1, expired2)

    def install_state(self, state1, state2):
        """Forward a state migration install, faults permitting."""
        self._ensure_open()
        self._before("install")
        return self.inner.install_state(state1, state2)

    def drain_channel_bytes(self):
        """Forward the per-batch byte accounting drain."""
        return self.inner.drain_channel_bytes()

    def close(self) -> None:
        """Close the wrapper and the wrapped backend."""
        super().close()
        self.inner.close()


class CrashingBackend(_ForwardingBackend):
    """Inject a permanent worker crash at a chosen work call.

    The ``crash_at_call``-th matching work call (1-based; see
    :data:`FAULT_OPS`) raises
    :class:`~repro.streaming.backends.WorkerCrashError`, and -- like a real
    fleet whose resident state died with its processes -- every later work
    call keeps raising.  ``crash_on`` restricts which operations count and
    can fault (e.g. ``("install",)`` crashes *during a migration*);
    ``None`` counts every work call.  ``crash_at_call=None`` never
    crashes, making the wrapper a pure pass-through control.
    """

    wrapper_name = "crashing"

    def __init__(
        self,
        inner: ExecutionBackend,
        crash_at_call: "int | None" = None,
        crash_on: "tuple[str, ...] | None" = None,
    ) -> None:
        super().__init__(inner)
        if crash_at_call is not None and crash_at_call <= 0:
            raise ValueError("crash_at_call must be positive (1-based)")
        if crash_on is not None:
            unknown = set(crash_on) - set(FAULT_OPS)
            if unknown:
                raise ValueError(
                    f"unknown crash_on operations {sorted(unknown)!r} "
                    f"(expected a subset of {FAULT_OPS})"
                )
        self.crash_at_call = crash_at_call
        self.crash_on = tuple(crash_on) if crash_on is not None else None
        #: Set once the injected crash has fired; the backend stays dead.
        self.crashed = False

    def _before(self, op: str) -> None:
        """Raise the injected crash at (and after) the configured call."""
        if self.crashed:
            raise WorkerCrashError(
                f"injected crash: backend already dead (work call {op!r} "
                "after the crash) -- restore the run from its last "
                "checkpoint onto a fresh backend"
            )
        if self.crash_on is not None and op not in self.crash_on:
            return
        self.calls += 1
        if self.crash_at_call is not None and self.calls >= self.crash_at_call:
            self.crashed = True
            raise WorkerCrashError(
                f"injected crash at work call {self.calls} ({op!r}); the "
                "backend stays dead -- restore the run from its last "
                "checkpoint onto a fresh backend"
            )


class FlakyBackend(_ForwardingBackend):
    """Inject ``failures`` transient faults, then behave normally.

    The first ``failures`` work calls raise
    :class:`~repro.streaming.backends.WorkerCrashError`; every call after
    that is forwarded -- the model of a worker that died and was replaced,
    where retrying the whole run (or resuming it) succeeds.  The instance
    keeps its recovery across engines, so a driver that restarts on the
    *same* backend object observes fail-then-succeed.
    """

    wrapper_name = "flaky"

    def __init__(self, inner: ExecutionBackend, failures: int = 1) -> None:
        super().__init__(inner)
        if failures < 0:
            raise ValueError("failures must be non-negative")
        #: Remaining work calls that will fault; decremented per fault.
        self.failures_remaining = failures

    def _before(self, op: str) -> None:
        """Fault while the failure budget lasts, then forward forever."""
        self.calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise WorkerCrashError(
                f"injected transient fault at work call {self.calls} "
                f"({op!r}); {self.failures_remaining} more will fail"
            )


class RecountingBackend(_ForwardingBackend):
    """The count's reference implementation: recount everything, every batch.

    An oracle in the shape of a backend decorator.  It *shadows* the
    protocol traffic it forwards -- per machine and side, the keys the
    inner backend has been told to hold, batch after batch as they came,
    never merged -- and after every ``count_batch`` joins each
    machine's full shadow region from scratch
    (:func:`~repro.joins.local.count_join_output`, the same kernel the
    end-of-stream verification trusts) and asserts, per machine::

        previous full count + reported incremental delta == full recount

    Evictions and installs change a region's full count by something other
    than a batch delta, so the baseline is re-taken after ``evict_state``
    and ``install_state`` (and reset by ``bind``).  An eviction must name
    keys the machine holds: the shadow drops them as a multiset difference
    (:func:`multiset_difference`), which raises otherwise.  This is
    the legacy engine's ``O(state log state)`` recount-and-difference loop,
    kept where reference implementations belong; ``recount_seconds`` (one
    entry per ``count_batch``) lets a benchmark compare its cost with the
    incremental count's.  Works over any inner backend, sticky included.
    """

    wrapper_name = "recounting"

    def __init__(self, inner: ExecutionBackend) -> None:
        super().__init__(inner)
        #: Seconds spent recounting after each forwarded ``count_batch``.
        self.recount_seconds: "list[float]" = []
        self._condition = None
        self._shadow1: "list[np.ndarray]" = []
        self._shadow2: "list[np.ndarray]" = []
        self._totals = np.zeros(0, dtype=np.int64)

    def _reset(self, num_machines: int) -> None:
        self._shadow1 = [np.empty(0)] * num_machines
        self._shadow2 = [np.empty(0)] * num_machines
        self._totals = np.zeros(num_machines, dtype=np.int64)

    def _recount(self) -> np.ndarray:
        """Join every machine's full shadow region from scratch."""
        return np.array(
            [
                count_join_output(keys1, keys2, self._condition)
                if len(keys1) and len(keys2)
                else 0
                for keys1, keys2 in zip(self._shadow1, self._shadow2)
            ],
            dtype=np.int64,
        )

    def bind(self, num_machines, condition, transposed) -> None:
        """Forward the binding; start shadowing an empty cluster."""
        super().bind(num_machines, condition, transposed)
        self._condition = condition
        self._reset(num_machines)

    def count_batch(self, new1, new2) -> RegionJoinResult:
        """Forward the count, then check its deltas against a full recount."""
        execution = super().count_batch(new1, new2)
        for shadow, arrivals in ((self._shadow1, new1), (self._shadow2, new2)):
            for machine, keys in enumerate(columns(arrivals)):
                held = shadow[machine]
                shadow[machine] = np.concatenate([held, keys]) if len(held) else keys
        started = perf_counter()
        recount = self._recount()
        self.recount_seconds.append(perf_counter() - started)
        np.testing.assert_array_equal(
            self._totals + execution.per_machine_output,
            recount,
            err_msg="incremental delta != full recount difference",
        )
        self._totals = recount
        return execution

    def evict_state(self, expired1, expired2) -> int:
        """Forward the eviction; drop the same keys; re-take the baseline."""
        dropped = super().evict_state(expired1, expired2)
        shadowed = 0
        for shadow, expired in (
            (self._shadow1, expired1),
            (self._shadow2, expired2),
        ):
            for machine, keys in enumerate(columns(expired)):
                shadow[machine] = multiset_difference(shadow[machine], keys)
                shadowed += len(keys)
        if dropped != shadowed:
            raise AssertionError(
                f"backend dropped {dropped} entries, the shadow {shadowed}"
            )
        self._totals = self._recount()
        return dropped

    def install_state(self, state1, state2):
        """Forward the install; adopt its columns; re-take the baseline."""
        super().install_state(state1, state2)
        self._shadow1, self._shadow2 = columns(state1), columns(state2)
        self._totals = self._recount()


class NoTrimWindow(WindowPolicy):
    """The untrimmed reference: any window, with history never trimmed.

    Decorates a bounded :class:`~repro.streaming.window.WindowPolicy`:
    evictions are the inner policy's, but the safe trim point is always 0,
    so the arrival logs never advance their base and keep the full-run
    histories and batch-start lists.  Outputs, loads, evictions and
    migration plans must be bit-identical to the trimming run; only the
    footprint may differ.
    """

    def __init__(self, inner: WindowPolicy) -> None:
        self.inner = inner
        self.name = inner.name
        self.is_unbounded = inner.is_unbounded

    def evictions(self, live, batch_starts, total_arrived, rng):
        """The inner policy's evictions, unchanged."""
        return self.inner.evictions(live, batch_starts, total_arrived, rng)

    def trim_point(self, live, total_arrived) -> int:
        """Nothing is ever safe to trim."""
        return 0


class PositionalRebuildEngine(StreamingJoinEngine):
    """The naive-rebuild reference: new region ``r`` lands on machine ``r``.

    Every rebuild re-routes the whole live history positionally
    (``plan_install(mode="full")``) instead of matching regions to the
    machines already holding most of their state.  Output must equal the
    production engine's; the migration volume is what partial
    repartitioning is measured against.
    """

    migration_mode = "full"


class PicklingPoolBackend(ExecutionBackend):
    """The stateless-pool baseline: every task's full keys pickled per batch.

    The join state stays engine-side, a counted-run pair per machine
    (``reference_state.RegionStateTable``), and each batch's fold ships
    every busy task -- one per machine, half and run -- to a
    ``ProcessPoolExecutor`` through the batch side's
    :func:`~repro.engine.executor.join_assigned_regions`, which meters the
    pickle channel: the serialization volume the sticky backend's resident
    state is benchmarked against.  Counts are bit-identical to every other
    backend.
    """

    name = "multiprocess"

    def __init__(self, max_workers: int) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers, mp_context=default_mp_context()
        )
        self._table = RegionStateTable(())
        self._conditions = ()

    def join_regions(self, tasks, conditions) -> RegionJoinResult:
        """Count every busy task on the pool; report the pickled bytes.

        The second sides are sorted runs of the state, so the pool searches
        them as they are.
        """
        self._ensure_open()
        return join_assigned_regions(self._pool, tasks, conditions)

    def bind(self, num_machines, condition, transposed) -> None:
        """Start from empty per-machine state."""
        self._ensure_open()
        self._table = RegionStateTable(range(num_machines))
        self._conditions = (condition, transposed)

    def count_batch(self, new1, new2) -> RegionJoinResult:
        """Fold the batch into the per-machine table; count its tasks on the pool."""
        table = self._table
        tasks, owners = table.fold(state_layout(columns(new1), columns(new2)))
        execution = self.join_regions(
            tasks, [self._conditions[owner & 1] for owner in owners.tolist()]
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

    def evict_state(self, expired1, expired2) -> int:
        """Tombstone each machine's expired keys."""
        dropped = self._table.evict(state_layout(columns(expired1), columns(expired2)))
        return sum(side1 + side2 for side1, side2 in dropped)

    def install_state(self, state1, state2) -> None:
        """Replace every machine's state; the fleet is the number of shares."""
        state1, state2 = columns(state1), columns(state2)
        self._table = RegionStateTable(range(len(state1)))
        self._table.install(state_layout(state1, state2))

    def drain_channel_bytes(self):
        """No channel of its own: the bytes are on each execution."""
        return (None, None, None)

    def close(self) -> None:
        """Shut the pool down (idempotent, final)."""
        self._pool.shutdown()
        super().close()


@pytest.fixture
def crashing_backend():
    """Factory fixture: build :class:`CrashingBackend` wrappers.

    Call the factory with the same arguments as the class (``inner``
    defaults to a fresh :class:`SimulatedBackend`); every backend it
    built is closed at teardown, so tests do not own cleanup even when
    the injected crash aborts them mid-run.
    """
    created = []

    def factory(inner=None, **kwargs):
        backend = CrashingBackend(
            inner if inner is not None else SimulatedBackend(), **kwargs
        )
        created.append(backend)
        return backend

    yield factory
    for backend in created:
        backend.close()


@pytest.fixture
def flaky_backend():
    """Factory fixture: build :class:`FlakyBackend` wrappers.

    Same shape as :func:`crashing_backend`: call with the class's
    arguments, teardown closes everything the factory built.
    """
    created = []

    def factory(inner=None, **kwargs):
        backend = FlakyBackend(
            inner if inner is not None else SimulatedBackend(), **kwargs
        )
        created.append(backend)
        return backend

    yield factory
    for backend in created:
        backend.close()
