"""The micro-batch streaming join engine.

:class:`StreamingJoinEngine` consumes a :class:`~repro.streaming.source.StreamSource`
and runs a stateful partitioned join over it.  The join state itself has
exactly one owner -- the :class:`~repro.streaming.backends.ExecutionBackend`
-- and the engine reaches it only through the backend's state-ownership
protocol (``bind`` / ``count_batch`` / ``evict_state`` /
``install_state`` / ``drain_channel_bytes``), which carries keys only.
What the engine holds is the arrival
bookkeeping: one :class:`~repro.streaming.arrivals.ArrivalLog` per side
(keys, live arrival indices, batch starts), in the one coordinate system
:mod:`repro.streaming.arrivals` describes -- every arrival index is global
and never rewritten.  Every tuple a machine holds got there through the
current plan, so which tuples it holds is never asked of the backend: it
is the live log routed by the plan
(:func:`~repro.streaming.migration.held_by_machine`).  Per micro-batch it runs
six stages:

* **ingest** -- fold the batch into the maintained sample state, build the
  first partitioning once both sides have been seen, append the keys (and,
  under a window, the liveness bookkeeping) to the logs;
* **route** -- key-sort each side of the batch once and cut it into the
  regions' shares under the current partitioning (a region of a grid-routed
  plan is a key range, hence a slice), then ship each region's arrivals to
  the machine actually holding it (the adopted region-to-machine mapping is
  remembered between rebuilds, so partial repartitioning never degrades
  correctness);
* **count** -- hand the per-machine key-sorted arrivals to the backend, which
  appends them to each machine's counted key runs and counts the batch's
  exact output delta by binary search, ``O(new * runs * log distinct)`` per
  machine with the runs merged geometrically behind it
  (``C(new1, state2 + new2) + C(state1, new2)``; no region is ever
  re-counted and no batch re-copies the state).  The cost-model load is
  charged per machine: arrivals at the input cost, produced output at the
  output cost;
* **evict + compact** -- the :class:`~repro.streaming.window.WindowPolicy`
  decides which tuples expire (unbounded history by default, a sliding
  count-or-batch window, or exponential decay); the expired slice is routed
  through the current plan exactly like a batch and each machine
  tombstones its share.  Evictions are charged into
  :class:`~repro.streaming.metrics.BatchMetrics` and bound both the
  per-machine state and the per-batch cost.  Under any bounded window the
  logs are then *trimmed*: the window reports a safe trim point
  (everything below ``min(live)`` can never be referenced again) and each
  log gives up the keys and batch starts below it -- a pointer move, so
  the whole footprint is O(window) however long the stream runs and no
  output, load, eviction or migration plan changes (the untrimmed
  reference is the test harness's ``NoTrimWindow`` decorator);
* **repartition** -- the :class:`~repro.streaming.policies.RepartitioningPolicy`
  may swap in a new partitioning, in which case the retained *live* state
  is migrated (:mod:`repro.streaming.migration`) and the moved tuples are
  charged into the same cost model -- rebalancing is never free.  Only
  the regions whose region-to-machine assignment changed migrate (the
  naive positional rebuild that re-routes the whole live history is the
  test harness's ``PositionalRebuildEngine`` reference);
* **account** -- drain the backend's channel bytes, record the resident
  footprint and timings, and fold the batch into the run result and the
  attached metrics registry.

A mid-stream :meth:`StreamingJoinEngine.resize` goes through the same
plan → ``install_state`` → charge step as a drift migration.  What a
checkpoint captures and how a run resumes from one live beside the format
in :mod:`repro.streaming.checkpoint`; :meth:`StreamingJoinEngine.checkpoint`
and :meth:`StreamingJoinEngine.resume_from` delegate there.

Correctness mirrors the batch simulator: grid-routed partitionings cover
every candidate cell exactly once, so summing each machine's incremental
output over an *unbounded* run reproduces the exact join cardinality of the
full history, which :meth:`StreamingJoinEngine.run` verifies at end of
stream.  Under a window the ground truth changes -- an output pair exists
exactly when the later tuple arrives while the earlier one is still live --
so windowed runs skip the full-history check (``output_correct`` stays
``None``) and ``tests/test_window_properties.py`` pins the windowed
semantics against an independent reference count instead.  The per-machine
deltas are additionally pinned against a full recount of every region by
the ``RecountingBackend`` protocol oracle of the test harness
(``tests/streaming_harness.py``: test-side code, not part of the package),
which replaced the engine's old ``recount`` mode.  All of this is
backend-independent -- every backend counts with the same exact kernel --
which ``tests/test_backends.py`` pins down.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.histogram import EWHConfig
from repro.core.weights import STATS_SCAN_FACTOR, WeightFunction
from repro.joins.conditions import JoinCondition, transposed_of
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.partitioning.base import Partitioning
from repro.partitioning.routing import RoutedSide, reads_indices, route_batch
from repro.streaming.arrivals import ArrivalLog
from repro.streaming.backends import ExecutionBackend, RegionJoinResult, SimulatedBackend
from repro.streaming.checkpoint import RunState, StreamCheckpoint, capture, resume
from repro.streaming.incremental import IncrementalHistogram
from repro.streaming.metrics import BatchMetrics, StreamRunResult
from repro.streaming.migration import (
    held_by_machine,
    plan_install,
    route_live,
    sorted_live,
)
from repro.streaming.policies import (
    DriftAdaptiveEWHPolicy,
    RepartitioningPolicy,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
)
from repro.streaming.source import MicroBatch, StreamSource
from repro.streaming.window import WindowPolicy, make_window

__all__ = ["StreamingJoinEngine", "compare_streaming_schemes"]


class StreamingJoinEngine:
    """Run a stateful partitioned join over a micro-batched stream.

    Parameters
    ----------
    num_machines:
        Cluster size ``J``.
    condition:
        The monotonic join condition.
    weight_fn:
        Cost model charging arrivals and output per machine.
    policy:
        The repartitioning policy (defaults to drift-adaptive EWH).
    backend:
        The :class:`~repro.streaming.backends.ExecutionBackend` owning the
        per-machine join state and running each batch's count.  Defaults
        to a fresh :class:`~repro.streaming.backends.SimulatedBackend`; a
        backend the engine creates itself is closed at end of run, a
        caller-provided one is left open.
    window:
        The :class:`~repro.streaming.window.WindowPolicy` bounding the
        retained state, or a spec string for
        :func:`~repro.streaming.window.make_window` (``"batches:8"``,
        ``"tuples:5000"``, ``"decay:0.9"``).  ``None`` retains the full
        history (unbounded).
    sample_capacity, sample_decay:
        Per-side reservoir capacity and per-batch decay of the maintained
        sample state (the engine's :class:`IncrementalHistogram`).
    ewh_config:
        Histogram configuration used by (re)builds.
    migration_cost_factor:
        Input-cost multiplier for migrated tuples (1.0 charges a migrated
        tuple like any other network arrival).
    seed:
        Seed of the engine's internal generator (routing, sampling and any
        randomised window policy).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` recording the span tree
        ``run → batch → {route, incremental_count, evict, compact,
        drift_decide, migrate}``; under a process-backed backend the
        count span additionally stitches per-worker child spans keyed by
        the pid that ran each unit of work.  Defaults to the shared
        zero-overhead :data:`~repro.obs.trace.NULL_TRACER`.  Tracing is
        observation only: it never touches the engine's random generator or
        arithmetic, so traced runs are behaviourally bit-identical to
        untraced runs.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the engine
        folds every batch's :class:`~repro.streaming.metrics.BatchMetrics`
        into the registry's counters/gauges/histograms and pulses it once
        per batch (driving any attached
        :class:`~repro.obs.metrics.SnapshotReporter`).
    """

    #: How :func:`~repro.streaming.migration.plan_install` places rebuilt
    #: regions.  Not an option: the positional ``"full"`` reference is a
    #: subclass in the test harness (``tests/streaming_harness.py``).
    migration_mode = "partial"

    def __init__(
        self,
        num_machines: int,
        condition: JoinCondition,
        weight_fn: WeightFunction,
        policy: RepartitioningPolicy | None = None,
        backend: ExecutionBackend | None = None,
        window: WindowPolicy | str | None = None,
        sample_capacity: int = 2048,
        sample_decay: float = 0.8,
        ewh_config: EWHConfig | None = None,
        migration_cost_factor: float = 1.0,
        seed: int = 0,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if migration_cost_factor < 0:
            raise ValueError("migration_cost_factor must be non-negative")
        self._transposed = transposed_of(condition)
        self.window = make_window(window)
        self.num_machines = num_machines
        self.condition = condition
        self.weight_fn = weight_fn
        self.policy = policy or DriftAdaptiveEWHPolicy()
        self._owns_backend = backend is None
        self.backend = backend or SimulatedBackend()
        self.histogram = IncrementalHistogram(
            num_machines,
            weight_fn,
            capacity=sample_capacity,
            decay=sample_decay,
            config=ewh_config,
        )
        self.migration_cost_factor = migration_cost_factor
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._consumed = False
        # Stepwise-run lifecycle: "new" -> start() -> "running" ->
        # finish() -> "finished".  run() is a thin wrapper over the three.
        self._phase = "new"
        self._state: "RunState | None" = None
        self._run_span = None
        # After a restore, source batches at or below this index were
        # already processed before the checkpoint and are silently skipped
        # when the stream is replayed.
        self._skip_through: "int | None" = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild_charge(self) -> float:
        """Cost of one histogram (re)build, spread over the cluster."""
        return (
            STATS_SCAN_FACTOR
            * self.weight_fn.input_cost
            * self.histogram.sample_tuples
            / self.num_machines
        )

    def _stitch_workers(self, execution: RegionJoinResult, span) -> None:
        """Emit per-worker child spans for one backend execution.

        Only process-backed backends report ``worker_pids`` (and only for
        the work they actually dispatched), so simulated runs emit no worker
        spans at all -- which is what keeps simulated-mode traces
        byte-identical across runs: worker seconds are real wall-clock
        times and would otherwise leak nondeterminism into the trace.
        Each child starts at the parent span's start and lands on a per-pid
        Chrome-trace track, so Perfetto shows the fleet's real parallelism
        under the dispatching span.
        """
        pids = execution.worker_pids
        if pids is None or not self.tracer.enabled:
            return
        for task, pid in enumerate(pids.tolist()):
            self.tracer.record(
                "task",
                float(execution.worker_seconds[task]),
                category="worker",
                start=span.start,
                tid=pid,
                thread_name=f"worker {pid}",
                task=task,
            )

    @staticmethod
    def _accumulate_bytes(
        total: "int | None", measured: "int | None"
    ) -> "int | None":
        """Fold one measured byte count into a batch total.

        ``None`` means "not measured" on both sides -- a batch only gets a
        byte count once something it did went through a metered channel,
        so simulated batches keep ``None`` (rendered ``-`` in the streaming
        tables) rather than a misleading ``0``.
        """
        if measured is None:
            return total
        return (0 if total is None else total) + measured

    def _meter_batch(self, metrics: BatchMetrics) -> None:
        """Fold one batch's metrics into the attached registry and pulse it.

        This is the single bridge between the per-batch
        :class:`~repro.streaming.metrics.BatchMetrics` record and the
        unified :class:`~repro.obs.metrics.MetricsRegistry`: monotonic
        quantities become counters, instantaneous ones gauges, and the
        per-batch distributions histograms.  The trailing ``pulse()``
        drives any attached :class:`~repro.obs.metrics.SnapshotReporter`.
        """
        registry = self.metrics
        if registry is None:
            return
        registry.counter("stream.batches").inc()
        registry.counter("stream.tuples").inc(metrics.new_tuples)
        registry.counter("stream.output").inc(metrics.output_delta)
        registry.counter("stream.tuples_evicted").inc(metrics.tuples_evicted)
        registry.counter("stream.tuples_migrated").inc(metrics.migrated_tuples)
        if metrics.repartitioned:
            registry.counter("stream.repartitions").inc()
        if metrics.bytes_pickled is not None:
            registry.counter("stream.bytes_pickled").inc(metrics.bytes_pickled)
            registry.counter("stream.bytes_unpickled").inc(
                metrics.bytes_unpickled or 0
            )
        if metrics.bytes_shm is not None:
            registry.counter("stream.bytes_shm").inc(metrics.bytes_shm)
        registry.gauge("stream.resident_tuples").set(metrics.resident_tuples)
        registry.gauge("stream.resident_bytes").set(metrics.resident_bytes)
        registry.gauge("stream.live_imbalance").set(metrics.live_imbalance)
        registry.histogram("stream.batch_seconds").observe(metrics.wall_seconds)
        registry.histogram("stream.max_load").observe(metrics.max_load)
        registry.pulse()

    def _adopt(
        self, replacement: Partitioning, machines: int, builds_before: int
    ) -> dict:
        """Plan → ``install_state`` → charge: move the state onto a new plan.

        The one way a running join changes partitioning, shared by drift
        migrations (same fleet) and :meth:`resize` (``machines`` differs):
        :func:`~repro.streaming.migration.plan_install` diffs what every
        machine holds -- the live logs routed by the current plan
        (:func:`~repro.streaming.migration.held_by_machine`) -- against where
        the replacement routes them, each side's live tuples key-sorted once
        for both routes: the keys alone when both plans are key ranges (so
        they overlap by span arithmetic), with their arrival indices when
        either routes by them.  The
        backend is handed the replacement's route of that sort, the one the
        diff read (on ``machines`` machines: a fleet change is an install of
        a different length); an in-process owner whose keys the new plan
        covers already moves nothing.  The moved tuples -- plus the histogram rebuild, if one ran
        since ``builds_before`` -- are priced per machine of the new fleet.
        Returns the charges for :meth:`_charge`.
        """
        s = self._state
        indexed = reads_indices(s.partitioning) or reads_indices(replacement)
        live1, live2 = sorted_live(s.log1, indexed), sorted_live(s.log2, indexed)
        old1, old2 = (
            held_by_machine(
                s.partitioning, side, live, s.rng, self.num_machines, s.region_to_machine
            )
            for side, live in ((1, live1), (2, live2))
        )
        plan, s.layouts, (state1, state2) = plan_install(
            old1,
            old2,
            replacement,
            live1,
            live2,
            machines,
            s.rng,
            mode=self.migration_mode,
        )
        self.backend.install_state(state1, state2)
        self.num_machines = machines
        s.resident_tuples = int(state1.sizes.sum() + state2.sizes.sum())
        s.partitioning = replacement
        s.region_to_machine = plan.region_to_machine
        load = (
            self.migration_cost_factor
            * self.weight_fn.input_cost
            * plan.per_machine_arrivals.astype(np.float64)
        )
        rebuild_cost = 0.0
        if self.histogram.rebuilds > builds_before:
            rebuild_cost = self._rebuild_charge()
            load = load + rebuild_cost
        return {
            "load": load,
            "migrated": plan.total_moved,
            "rebuild_cost": rebuild_cost,
            # The plan's figures, for reports and equivalence tests: it
            # holds no state columns, so a result object pins no
            # full-history snapshot per rebuild.
            "plan": plan,
        }

    @staticmethod
    def _charge(metrics: BatchMetrics, charges: dict) -> None:
        """Fold one :meth:`_adopt`'s charges into a batch's metrics."""
        metrics.per_machine_load = metrics.per_machine_load + charges["load"]
        metrics.migrated_tuples += charges["migrated"]
        metrics.rebuild_cost += charges["rebuild_cost"]
        metrics.migration_plan = charges["plan"]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        """Lifecycle phase: ``"new"``, ``"running"`` or ``"finished"``.

        :meth:`start` (or :meth:`resume_from`) moves a new engine to
        running; :meth:`finish` moves it to finished.  :meth:`run` drives
        the whole cycle in one call.
        """
        return self._phase

    def _open_run_span(self) -> None:
        """Open the run-level span the whole consumption nests under.

        Every span arg is deterministic (indices, counts, flags -- never
        seconds), so a simulated-mode run traced with a TickClock produces
        a byte-identical trace on every replay.
        """
        self._run_span = self.tracer.span(
            "run",
            category="run",
            scheme=self.policy.scheme_name,
            machines=self.num_machines,
            backend=self.backend.name,
            window=self.window.name,
        )
        self._run_span.__enter__()

    def start(self) -> None:
        """Begin a stepwise run: initialise the loop state, bind the backend.

        The stepwise API -- :meth:`start`, then :meth:`process_batch` per
        micro-batch, then :meth:`finish` -- is :meth:`run` taken apart, so
        a driver can interleave its own actions between batches:
        :meth:`checkpoint` for crash recovery, :meth:`resize` for
        mid-stream elasticity.  An engine still consumes at most one
        stream; a second ``start`` raises exactly like a second ``run``.
        """
        if self._consumed:
            raise RuntimeError(
                "this engine has already consumed a stream; create a fresh "
                "StreamingJoinEngine (and policy) per run"
            )
        self._consumed = True
        J = self.num_machines
        s = RunState()
        s.rng = np.random.default_rng(self.seed)
        windowed = not self.window.is_unbounded
        s.log1, s.log2 = ArrivalLog(windowed), ArrivalLog(windowed)
        s.resident_tuples = 0
        s.partitioning = None
        s.layouts = None
        # Where each region's state lives; partial repartitioning may remap.
        s.region_to_machine = np.arange(J, dtype=np.int64)
        s.last_batch_index = None
        s.position = -1
        s.result = StreamRunResult(
            scheme=self.policy.scheme_name,
            num_machines=J,
            backend=self.backend.name,
            window=self.window.name,
        )
        s.cumulative = np.zeros(J, dtype=np.float64)
        s.pending_resize = None
        self._state = s
        # The backend owns the per-machine join state from here on.
        self.backend.bind(J, self.condition, self._transposed)
        self._phase = "running"
        self._open_run_span()

    def run(
        self,
        source: "StreamSource | Iterable[MicroBatch]",
        verify: bool = True,
        allow_gaps: bool = False,
    ) -> StreamRunResult:
        """Consume the stream and return the per-batch and end-to-end metrics.

        ``source`` may be a :class:`~repro.streaming.source.StreamSource`
        or any iterable of micro-batches -- the backpressured pipeline
        feeds the engine straight off its bounded queue, where batches may
        have been shed or coalesced and are no longer re-iterable.

        ``verify`` checks, at end of an *unbounded* stream, that the summed
        incremental output equals the exact join cardinality of the full
        history.  Windowed runs have no full-history ground truth (the
        window deliberately forgets pairs), so they leave
        ``output_correct`` as ``None`` regardless of ``verify``.

        ``allow_gaps`` relaxes the batch-index validation.  By default
        batch indices must be *contiguous* (each exactly one above its
        predecessor; the first may start anywhere), which catches a source
        that silently drops data.  Pass ``allow_gaps=True`` for streams
        whose numbering legitimately skips values -- a pipeline that sheds
        or coalesces batches under backpressure, or a renumbered/strided
        replay -- where any strictly increasing numbering is accepted.
        Note that the verification above always covers exactly the batches
        the engine *received*: a shed batch is absent from the retained
        history and from the expected count alike.

        Windowed semantics apply from the initial build onwards: the
        backlog routed by the first build is counted under the liveness *at
        build time*, so a pair whose tuples coexisted earlier but expired
        before a (policy-delayed) initial build is not counted.  The
        built-in EWH policies build at the first batch where both sides
        have been observed, which makes this indistinguishable from the
        pair-at-arrival semantics in practice; a custom policy that defers
        ``ready()`` for many batches trades that backlog output away.

        An engine can only consume one stream: the maintained sample state
        and the policy's drift bookkeeping are not reset between runs, so a
        second call raises instead of silently mixing streams.  This is a
        thin wrapper over the stepwise API (:meth:`start` /
        :meth:`process_batch` / :meth:`finish`), which drivers needing
        checkpoints or mid-stream resizes call directly.
        """
        self.start()
        try:
            batches = (
                source.batches() if hasattr(source, "batches") else iter(source)
            )
            for batch in batches:
                self.process_batch(batch, allow_gaps=allow_gaps)
            return self.finish(verify=verify)
        finally:
            if self._owns_backend:
                self.backend.close()

    def process_batch(
        self, batch: MicroBatch, allow_gaps: bool = False
    ) -> "BatchMetrics | None":
        """Consume one micro-batch; return its metrics.

        The stepwise core of :meth:`run`, six stages over the run state:
        ingest the arrivals, route them, count the incremental output,
        evict/compact under the window, let the policy repartition, and
        account the batch's :class:`~repro.streaming.metrics.BatchMetrics`
        into the running result.  After :meth:`resume_from`, source batches
        at or below the checkpoint's last consumed index are already part
        of the restored state; they are skipped silently and return
        ``None`` (this is what lets a driver replay a re-iterable source
        from the top after a crash).
        """
        if self._phase != "running":
            raise RuntimeError(
                "process_batch() requires a running engine; call start() "
                "(or resume_from()) first"
            )
        if self._skip_through is not None:
            if batch.index <= self._skip_through:
                return None
            self._skip_through = None
        s = self._state
        start = perf_counter()
        self._admit(s, batch, allow_gaps)
        with self.tracer.span(
            "batch",
            category="batch",
            index=batch.index,
            position=s.position,
            tuples=batch.num_tuples,
        ) as batch_span:
            offsets, rebuild_cost, initial_build = self._ingest(s, batch)
            routed = self._route(s, batch, offsets, initial_build)
            metrics = self._count(s, batch, routed, rebuild_cost)
            self._evict_and_compact(s, metrics)
            self._repartition(s, metrics)
            self._account(s, metrics, start)
            batch_span.set(
                output_delta=metrics.output_delta,
                repartitioned=metrics.repartitioned,
            )
        s.cumulative += metrics.per_machine_load
        s.result.batches.append(metrics)
        self._meter_batch(metrics)
        return metrics

    @staticmethod
    def _admit(s: RunState, batch: MicroBatch, allow_gaps: bool) -> None:
        """Validate the batch's place in the stream; advance the position.

        Liveness and windows key off the engine's own processed-batch
        count, so any strictly increasing source numbering works -- but a
        non-monotone one would silently reorder time, and a gap in a
        contiguous stream usually means lost data, so gaps must be opted
        into (shed/coalesced pipelines, renumbered replays).
        """
        if s.last_batch_index is not None:
            if batch.index <= s.last_batch_index:
                raise ValueError(
                    f"stream batch indices must be strictly "
                    f"increasing, got batch {batch.index} after "
                    f"{s.last_batch_index}"
                )
            if not allow_gaps and batch.index != s.last_batch_index + 1:
                raise ValueError(
                    f"stream batch indices must be contiguous, got "
                    f"batch {batch.index} after {s.last_batch_index}; "
                    "pass allow_gaps=True for streams that "
                    "legitimately skip indices (shed/coalesced "
                    "pipelines, renumbered sources)"
                )
        s.last_batch_index = batch.index
        s.position += 1

    def _ingest(
        self, s: RunState, batch: MicroBatch
    ) -> "tuple[tuple[int, int], float, bool]":
        """Stage 1: sample, maybe build the first plan, append the arrivals.

        Returns the per-side global arrival index the batch starts at, the
        rebuild charge of an initial build (zero otherwise) and whether
        this batch performed the initial build.
        """
        if self.policy.needs_statistics(s.partitioning is not None):
            self.histogram.observe(batch, s.rng)
        rebuild_cost, initial_build = 0.0, False
        if s.partitioning is None and self.policy.ready(self.histogram):
            builds_before = self.histogram.rebuilds
            s.partitioning = self.policy.initial_partitioning(
                self.histogram, self.condition, s.rng
            )
            if self.histogram.rebuilds > builds_before:
                rebuild_cost = self._rebuild_charge()
            initial_build = True
        offsets = s.log1.append(batch.keys1), s.log2.append(batch.keys2)
        return offsets, rebuild_cost, initial_build

    def _route(
        self,
        s: RunState,
        batch: MicroBatch,
        offsets: "tuple[int, int]",
        initial_build: bool,
    ) -> "tuple[RoutedSide, RoutedSide] | None":
        """Stage 2: the batch's routed sides, R1 then R2.

        Per side, the batch's keys sorted once and every machine's share a
        slice of them, as ``count_batch`` folds them in (:meth:`_routed`;
        the logs are not read).  A key-range plan's sort is handed to the
        side's log to keep while the batch is live
        (:meth:`~repro.streaming.arrivals.ArrivalLog.keep_sorted`): its
        eviction cuts it again instead of sorting the batch a second time.

        ``None`` while one side is still entirely unseen: no partitioning
        can be built and no output is possible yet, so the arrivals just
        accumulate in the (unrouted) history.  The initial build routes
        that backlog -- the retained (live) history -- the same way, as one
        big batch of arrivals into the empty state
        (:func:`~repro.streaming.migration.route_live`); every later batch
        routes only its own arrivals, to the machine owning each region.
        """
        if s.partitioning is None:
            return None
        with self.tracer.span(
            "route", category="stage", initial_build=initial_build
        ):
            if initial_build:
                J = self.num_machines
                s.region_to_machine = np.arange(J, dtype=np.int64)
                s.layouts, routed = route_live(
                    s.partitioning, s.log1, s.log2, s.rng, s.region_to_machine, J
                )
                return routed
            routed = (
                self._routed(s, 1, batch.keys1, offsets[0]),
                self._routed(s, 2, batch.keys2, offsets[1]),
            )
            for log, first, side in zip((s.log1, s.log2), offsets, routed):
                if side.layout.cut is not None:
                    log.keep_sorted(first, side.keys)
            return routed

    def _routed(
        self, s: RunState, side: int, keys, offset: "int | np.ndarray"
    ) -> RoutedSide:
        """The current plan's route of ``keys``: every machine's share a slice.

        The one route of tuples the machines already agree on: a batch's
        arrivals (``offset`` the first one's arrival index) and an expired
        slice (the first index of a range, the indices of any other) alike
        (:func:`~repro.partitioning.routing.route_batch`: each region's
        share to the machine holding it).
        """
        return route_batch(
            s.partitioning, side, keys, s.rng, offset, s.layouts[side - 1],
            s.region_to_machine, self.num_machines,
        )

    def _expired(
        self, s: RunState, side: int, log: ArrivalLog, expired: "np.ndarray | range"
    ) -> RoutedSide:
        """The current plan's route of an expired slice: what ``evict_state`` takes.

        A key-range plan cuts the route stage's own sort of the batch when
        the slice is exactly one batch the log kept
        (:meth:`~repro.streaming.arrivals.ArrivalLog.kept_sorted`);
        anything else is gathered from the log and routed like a batch
        (:meth:`_routed`), which sorts the same keys in the same order.
        """
        layout = s.layouts[side - 1]
        keys = log.kept_sorted(expired) if layout.cut is not None else None
        if keys is not None:
            return RoutedSide(keys, *layout.cut(keys), layout)
        offset = expired.start if isinstance(expired, range) else expired
        return self._routed(s, side, log[expired], offset)

    def _count(
        self,
        s: RunState,
        batch: MicroBatch,
        routed: "tuple[RoutedSide, RoutedSide] | None",
        rebuild_cost: float,
    ) -> BatchMetrics:
        """Stage 3: count the batch's output delta; open its metrics record.

        The backend folds the routed arrivals into its sorted state and
        counts every machine's delta there (``count_batch``), all inside one
        ``incremental_count`` span with the execution's worker pids
        stitched as child spans.  The record is opened with the batch's own
        cost-model loads and ``live_imbalance``; charges parked by a
        :meth:`resize` since the previous batch are folded in afterwards,
        exactly like a drift migration's charges land after it.
        """
        J = self.num_machines
        weight = self.weight_fn
        if routed is None:
            arrivals = deltas = np.zeros(J, dtype=np.int64)
            execution = None
        else:
            new1, new2 = routed
            arrivals = new1.sizes + new2.sizes
            with self.tracer.span(
                "incremental_count", category="stage", tasks=2 * J
            ) as span:
                execution = self.backend.count_batch(new1, new2)
            self._stitch_workers(execution, span)
            deltas = execution.per_machine_output
            s.resident_tuples += int(np.add.reduce(arrivals))
        loads = (
            weight.input_cost * arrivals.astype(np.float64)
            + weight.output_cost * deltas.astype(np.float64)
            + rebuild_cost
        )
        mean_load = float(loads.mean()) if J else 0.0
        metrics = BatchMetrics(
            batch_index=batch.index,
            stream_position=s.position,
            new_tuples=batch.num_tuples,
            per_machine_load=loads,
            output_delta=int(deltas.sum()),
            rebuild_cost=rebuild_cost,
            live_imbalance=(
                float(loads.max()) / mean_load if mean_load > 0 else 1.0
            ),
            predicted_imbalance=self.policy.predicted_imbalance(self.histogram),
            per_machine_output_delta=deltas if routed is not None else None,
        )
        if execution is not None:
            metrics.join_seconds = execution.wall_seconds
            metrics.per_machine_join_seconds = execution.per_machine_seconds
            metrics.bytes_pickled = execution.bytes_pickled
            metrics.bytes_unpickled = execution.bytes_unpickled
        if s.pending_resize is not None:
            metrics.resized_from = s.pending_resize["resized_from"]
            self._charge(metrics, s.pending_resize)
            s.pending_resize = None
        return metrics

    def _evict_and_compact(self, s: RunState, metrics: BatchMetrics) -> None:
        """Stage 4: apply the window after the count; trim what it exposed.

        Eviction runs after the batch is counted and *before* any
        repartitioning, so a migration only ever ships live state.  The
        live sets shrink here, and the expired slices -- their keys still
        in the logs until the trim -- are routed through the current plan
        like a batch (:meth:`_expired`): every machine tombstones exactly
        the keys it received when those tuples arrived, and the count of
        them is charged as ``tuples_evicted`` / ``bytes_freed``.  Each log
        then gives up the dead prefix the eviction exposed, and the sorted
        batches it kept for it.
        """
        if self.window.is_unbounded:
            return
        with self.tracer.span("evict", category="stage") as evict_span:
            expired1 = s.log1.expire(self.window, s.rng)
            expired2 = s.log2.expire(self.window, s.rng)
            if s.partitioning is not None and (len(expired1) or len(expired2)):
                metrics.tuples_evicted = self.backend.evict_state(
                    self._expired(s, 1, s.log1, expired1),
                    self._expired(s, 2, s.log2, expired2),
                )
                metrics.bytes_freed = (
                    metrics.tuples_evicted * BatchMetrics.STATE_BYTES
                )
                s.resident_tuples -= metrics.tuples_evicted
            evict_span.set(evicted=metrics.tuples_evicted)
        with self.tracer.span("compact", category="stage") as compact_span:
            trimmed = s.log1.trim(self.window) + s.log2.trim(self.window)
            metrics.history_tuples_trimmed = trimmed
            compact_span.set(trimmed=trimmed)

    def _repartition(self, s: RunState, metrics: BatchMetrics) -> None:
        """Stage 5: let the policy swap partitionings; migrate if it does.

        Migration and rebuild charges land on this batch.  Before the
        initial build there is nothing to replace.
        """
        if s.partitioning is None:
            return
        builds_before = self.histogram.rebuilds
        with self.tracer.span("drift_decide", category="stage") as drift_span:
            replacement = self.policy.maybe_repartition(
                self.histogram, metrics, self.condition, s.rng
            )
            drift_span.set(repartition=replacement is not None)
        if replacement is None:
            return
        with self.tracer.span(
            "migrate", category="stage", mode=self.migration_mode
        ) as migrate_span:
            charges = self._adopt(replacement, self.num_machines, builds_before)
            self._charge(metrics, charges)
            metrics.repartitioned = True
            migrate_span.set(moved=charges["migrated"])

    def _account(
        self, s: RunState, metrics: BatchMetrics, start: float
    ) -> None:
        """Stage 6: close the metrics record -- bytes, footprint, wall time.

        One drain covers every protocol command the batch issued (count,
        evict, install) on a backend with a metered channel;
        batches that moved no metered bytes keep ``None``, like an
        unprofiled run.  The resident count is the run state's running
        total (arrivals folded in, minus what ``evict_state`` reported,
        reset by every ``install_state``); nothing asks the backend.
        """
        pickled, unpickled, shm = self.backend.drain_channel_bytes()
        metrics.bytes_pickled = self._accumulate_bytes(
            metrics.bytes_pickled, pickled
        )
        metrics.bytes_unpickled = self._accumulate_bytes(
            metrics.bytes_unpickled, unpickled
        )
        metrics.bytes_shm = shm
        metrics.resident_tuples = s.resident_tuples
        metrics.resident_history_tuples = s.log1.retained + s.log2.retained
        metrics.resident_live_entries = s.log1.live_entries + s.log2.live_entries
        metrics.wall_seconds = perf_counter() - start

    def finish(self, verify: bool = True) -> StreamRunResult:
        """End the stream: finalise totals, verify, close the run span.

        See :meth:`run` for the ``verify`` semantics (end-of-stream exact
        recount, unbounded windows only).  An engine-owned backend is
        closed here, matching :meth:`run`; an injected backend stays open
        for the caller.
        """
        if self._phase != "running":
            raise RuntimeError(
                "finish() requires a running engine (start() first; "
                "finish() may only be called once)"
            )
        s = self._state
        result = s.result
        result.cumulative_load = s.cumulative
        result.total_output = int(
            sum(batch.output_delta for batch in result.batches)
        )
        if verify and self.window.is_unbounded:
            with self.tracer.span("verify", category="run") as verify_span:
                result.expected_output = count_join_output(
                    s.log1.keys, s.log2.keys, self.condition
                )
                result.output_correct = (
                    result.total_output == result.expected_output
                )
                verify_span.set(correct=result.output_correct)
        self._run_span.__exit__(None, None, None)
        self._run_span = None
        self._phase = "finished"
        if self._owns_backend:
            self.backend.close()
        return result

    def close(self) -> None:
        """Release an engine-owned backend without finishing the run.

        Crash cleanup: after :meth:`process_batch` raises (e.g. a
        :class:`~repro.streaming.backends.WorkerCrashError`), the run
        cannot be finished, only abandoned or restored elsewhere.
        Idempotent; an injected backend is left untouched, exactly as in
        :meth:`run`'s ``finally``.
        """
        if self._owns_backend:
            self.backend.close()

    # ------------------------------------------------------------------
    # Elasticity and fault tolerance
    # ------------------------------------------------------------------
    def checkpoint(self) -> StreamCheckpoint:
        """Capture the complete resumable state at this batch boundary.

        Self-contained and copied
        (:func:`~repro.streaming.checkpoint.capture` lists what it holds),
        so the engine may keep running after taking it; :meth:`resume_from`
        on the checkpoint continues the run bit-identically to never having
        stopped.
        """
        return capture(self)

    def resize(self, machines: int) -> None:
        """Re-plan the join onto ``machines`` machines mid-stream.

        The policy rebuilds its partitioning for the new fleet
        (:meth:`~repro.streaming.policies.RepartitioningPolicy.resize_partitioning`)
        and the state moves onto it through the same
        plan → ``install_state`` → charge step a drift migration uses
        (growing pads empty machines in; shrinking drains the departing
        ones).  State moves immediately; the migration and rebuild
        *charges* are parked and folded into the next processed batch's
        metrics (marked via ``resized_from``), mirroring how a drift
        migration's charges land on the batch that triggered it.  Several
        resizes before the next batch park additively: volumes and rebuild
        costs sum, the per-machine loads are carried onto each new fleet,
        and ``resized_from`` keeps the size the batch last saw.

        Resizing to the current size is a no-op.
        """
        if self._phase != "running":
            raise RuntimeError(
                "resize() requires a running engine (between start() and "
                "finish())"
            )
        if machines <= 0:
            raise ValueError("machines must be positive")
        s = self._state
        if s.partitioning is None:
            raise RuntimeError(
                "cannot resize before the initial partitioning is built; "
                "process at least one batch of each side first"
            )
        old_machines = self.num_machines
        if machines == old_machines:
            return
        with self.tracer.span(
            "resize",
            category="run",
            machines_from=old_machines,
            machines_to=machines,
        ) as span:
            builds_before = self.histogram.rebuilds
            replacement = self.policy.resize_partitioning(
                machines, self.histogram, self.condition, s.rng
            )
            charges = self._adopt(replacement, machines, builds_before)
            s.cumulative = self._refit(s.cumulative, machines)
            s.result.num_machines = machines
            charges["resized_from"] = old_machines
            parked = s.pending_resize
            if parked is not None:
                # An earlier resize's charges are still waiting for a batch:
                # rebalancing is never free, so they are summed, not dropped.
                charges["resized_from"] = parked["resized_from"]
                charges["load"] = charges["load"] + self._refit(
                    parked["load"], machines
                )
                charges["migrated"] += parked["migrated"]
                charges["rebuild_cost"] += parked["rebuild_cost"]
            s.pending_resize = charges
            span.set(moved=charges["plan"].total_moved)
        if self.metrics is not None:
            self.metrics.counter("stream.resizes").inc()

    @staticmethod
    def _refit(per_machine: np.ndarray, machines: int) -> np.ndarray:
        """Carry a per-machine vector onto a fleet of ``machines`` machines.

        Surviving machines keep their entries, new machines start at zero,
        and the entries of machines leaving the cluster leave with them.
        """
        fitted = np.zeros(machines, dtype=np.float64)
        survivors = min(len(per_machine), machines)
        fitted[:survivors] = per_machine[:survivors]
        return fitted

    @classmethod
    def resume_from(
        cls,
        checkpoint: StreamCheckpoint,
        *,
        backend: "ExecutionBackend | None" = None,
        machines: "int | None" = None,
        tracer=None,
        metrics=None,
    ) -> "StreamingJoinEngine":
        """Reconstruct a running engine from a checkpoint.

        The engine continues bit-identically to the one that took the
        checkpoint: same RNG stream, same sample state, same per-machine
        region state, same accumulated result.  ``backend`` provides the
        execution backend for the resumed run (default: a fresh simulated
        backend); it need not match the original -- every backend rebuilds
        the state through ``bind`` / ``install_state`` from the
        checkpoint's live logs routed by its plan.  ``machines`` optionally resizes onto
        a different fleet straight away (crash recovery onto the
        survivors), which is exactly :meth:`resize` from the restored
        state.  One checkpoint can seed any number of resumed runs.
        """
        return resume(cls, checkpoint, backend, machines, tracer, metrics)


def compare_streaming_schemes(
    source: StreamSource,
    num_machines: int,
    condition: JoinCondition,
    weight_fn: WeightFunction,
    policies: dict[str, RepartitioningPolicy] | None = None,
    backend_factory=None,
    window: WindowPolicy | str | None = None,
    ewh_config: EWHConfig | None = None,
    sample_capacity: int = 2048,
    sample_decay: float = 0.8,
    migration_cost_factor: float = 1.0,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    metrics_factory=None,
) -> dict[str, StreamRunResult]:
    """Run the same stream under several policies and collect the results.

    The default line-up is the benchmark's: static 1-Bucket, static CSIO and
    drift-adaptive CSIO.  Every engine consumes an independent replay of the
    source (sources are deterministic and re-iterable), so the comparisons
    see identical input.

    ``backend_factory`` builds one fresh
    :class:`~repro.streaming.backends.ExecutionBackend` per engine (e.g.
    ``lambda: StickyWorkerBackend(max_workers=4)``); each backend is closed
    after its run.  The default runs every engine on the in-process
    simulated backend.  ``window`` applies to every engine (window policies
    are stateless, so one instance is safely shared).

    ``tracer`` is shared by every engine -- all runs land in one trace,
    each under its own ``run`` span tagged with its scheme, so a single
    Perfetto load shows the schemes side by side.  ``metrics_factory``
    builds one fresh :class:`~repro.obs.metrics.MetricsRegistry` per scheme
    (called with the scheme name); registries are mutable run state and
    must not be shared the way the tracer is, or the schemes' counters
    would sum together.
    """
    if policies is None:
        policies = {
            "CI-static": StaticOneBucketPolicy(num_machines),
            "CSIO-static": StaticEWHPolicy(),
            "CSIO-adaptive": DriftAdaptiveEWHPolicy(),
        }
    window = make_window(window)
    results: dict[str, StreamRunResult] = {}
    for name, policy in policies.items():
        backend = backend_factory() if backend_factory is not None else None
        engine = StreamingJoinEngine(
            num_machines,
            condition,
            weight_fn,
            policy=policy,
            backend=backend,
            window=window,
            sample_capacity=sample_capacity,
            sample_decay=sample_decay,
            ewh_config=ewh_config,
            migration_cost_factor=migration_cost_factor,
            seed=seed,
            tracer=tracer,
            metrics=metrics_factory(name) if metrics_factory is not None else None,
        )
        try:
            results[name] = engine.run(source)
        finally:
            if backend is not None:
                backend.close()
    return results
