"""Per-batch and end-to-end metrics of a streaming join run.

The quantities mirror the batch pipeline's cost accounting (everything is in
cost-model units, ``w_i * input + w_o * output``) extended with the streaming
specifics: migration volume, rebuild charges and per-batch throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.streaming.migration import MigrationPlan

__all__ = ["BatchMetrics", "StreamRunResult"]


@dataclass
class BatchMetrics:
    """Everything measured while processing one micro-batch.

    Attributes
    ----------
    batch_index:
        The source's ``MicroBatch.index`` for this batch (reporting only;
        any strictly increasing numbering is accepted).
    stream_position:
        The engine's own zero-based processed-batch counter.  All
        batch-counted behaviour -- window liveness, drift warm-up and
        cool-down -- keys off this, so it is independent of the source's
        numbering; for a contiguous zero-based source the two coincide.
    new_tuples:
        Arrivals in the batch (both sides, before replication).
    per_machine_load:
        Cost-model load charged to each machine for this batch: routed
        arrivals (with replication) and migrated tuples at the input cost,
        plus produced output at the output cost, plus the rebuild's
        statistics charge.
    output_delta:
        Output tuples produced cluster-wide by this batch.
    migrated_tuples:
        Tuples shipped between machines by a repartitioning in this batch.
    tuples_evicted:
        Retained state entries dropped by the window policy after this batch
        (summed over machines and sides; a tuple replicated on two machines
        counts twice, because two state slots were freed).
    bytes_freed:
        Resident bytes released by those evictions (16 bytes per state
        entry: float64 key + int64 arrival index).
    resident_tuples:
        State entries held across all machines and both sides at the end of
        the batch (after eviction and any migration) -- the quantity a
        window policy bounds.
    resident_history_tuples:
        Entries of the engine's flat per-side key histories still resident
        at the end of the batch (both sides, after compaction).  Under a
        bounded window with history compaction this stays O(window); an
        unbounded run retains the whole stream here (it is the
        verification ground truth).
    resident_live_entries:
        Entries of the per-side live arrival-index sets at the end of the
        batch (zero for unbounded runs, which skip liveness bookkeeping).
    history_tuples_trimmed:
        Key-history entries discarded by history compaction after this
        batch (both sides) -- the dead prefix below the window's safe trim
        point.
    rebuild_cost:
        Statistics charge of rebuilding the histogram in this batch (zero
        when no rebuild happened).
    repartitioned:
        Whether a new partitioning was adopted during this batch.
    live_imbalance, predicted_imbalance:
        Measured max/mean load ratio of the batch versus the histogram's
        scale-free prediction.
    wall_seconds:
        Real time spent processing the batch (including any rebuild).
    join_seconds:
        Time the execution backend spent running this batch's per-region
        joins (worker wall clock under the sticky backend; in-process
        time under the simulated one).  Always measured on a real clock.
    queue_clock:
        The clock domain of ``producer_stall_seconds`` /
        ``consumer_idle_seconds`` in a pipelined run: ``"real"`` (a wall
        clock actually ticked) or ``"simulated"`` (the pipeline's
        discrete-event clock under ``mode="simulated"``); ``None`` for a
        synchronous batch, which has no queue.  Every other duration is real.
        Summing or comparing seconds across the two domains is a category
        error -- the streaming tables render the domain explicitly so the
        mix is visible.
    bytes_pickled, bytes_unpickled:
        Bytes this batch shipped through the execution backend's
        serialization channel: commands or task payloads out
        (``bytes_pickled``) and replies back (``bytes_unpickled``) over a
        process-backed backend's pickle channel.  ``None`` when
        the backend has no such channel (the in-process simulated backend)
        or profiling was disabled -- reporting renders ``-`` rather than a
        measured zero.  This is the per-batch serialization tax the
        zero-copy sticky-worker backend drives to ~0.
    bytes_shm:
        Bytes this batch shipped through a shared-memory arena instead of
        the pickle channel -- the sticky backend's per-batch delta payload
        (new-arrival index/key arrays, eviction sets, migrated state).
        ``None`` for backends without a shared-memory transport.  Together
        with ``bytes_pickled`` this shows *where* the batch's data moved:
        sticky steady-state batches report near-zero pickled bytes and the
        whole delta here.
    per_machine_join_seconds:
        The backend's per-machine timings of the batch's incremental
        count, where it measured any; ``None`` otherwise.  The in-process
        backend counts every machine in one pass and leaves it ``None``;
        a sticky worker times each of its machines that received
        arrivals, so the sticky backend reports one entry per machine,
        ``0.0`` for a machine that received none.
    per_machine_output_delta:
        Exact incremental output produced by each machine in this batch
        (``output_delta`` is its sum); ``None`` before the first build.
    migration_plan:
        The :class:`~repro.streaming.migration.MigrationPlan` adopted in
        this batch, or ``None`` when no repartitioning happened.  Kept so
        cross-backend equivalence tests can compare plans exactly; the
        plan's per-machine state index arrays are dropped (emptied) before
        storing so a run result never pins full-history snapshots.
    queue_depth:
        Pipelined runs only: batches sitting in the bounded queue at the
        moment this batch was popped, including itself (so a consumer that
        keeps up reads 1).  Zero for synchronous runs.
    batches_shed, tuples_shed:
        Pipelined runs under the ``shed`` policy: whole batches (and their
        tuples) dropped at the full queue since the previous consumed
        batch.  Shed input never reaches the engine -- these count what the
        run's output is missing relative to a lossless run.
    producer_stall_seconds:
        Pipelined runs under the ``block`` policy: how long the producer
        was blocked on the full queue since the previous consumed batch.
    consumer_idle_seconds:
        Pipelined runs: how long the consumer waited on an empty queue
        before this batch arrived (a fast consumer's idle time mirrors a
        slow consumer's stall/shed).
    resized_from:
        The previous fleet size when a mid-stream
        :meth:`~repro.streaming.engine.StreamingJoinEngine.resize` was
        folded into this batch (its migration volume and rebuild charge are
        accounted here); ``None`` for ordinary batches.
    """

    batch_index: int
    new_tuples: int
    per_machine_load: np.ndarray
    output_delta: int
    stream_position: int = 0
    migrated_tuples: int = 0
    tuples_evicted: int = 0
    bytes_freed: int = 0
    resident_tuples: int = 0
    resident_history_tuples: int = 0
    resident_live_entries: int = 0
    history_tuples_trimmed: int = 0
    rebuild_cost: float = 0.0
    repartitioned: bool = False
    live_imbalance: float = 1.0
    predicted_imbalance: float = 1.0
    wall_seconds: float = 0.0
    join_seconds: float = 0.0
    queue_clock: str | None = None
    bytes_pickled: int | None = None
    bytes_unpickled: int | None = None
    bytes_shm: int | None = None
    per_machine_join_seconds: np.ndarray | None = None
    per_machine_output_delta: np.ndarray | None = None
    migration_plan: "MigrationPlan | None" = None
    queue_depth: int = 0
    batches_shed: int = 0
    tuples_shed: int = 0
    producer_stall_seconds: float = 0.0
    consumer_idle_seconds: float = 0.0
    resized_from: int | None = None

    #: Bytes charged per retained state entry -- a float64 key and the
    #: int64 arrival index that names it in the log, the unit every
    #: resident-memory figure has been reported in; a machine's counted
    #: runs store less under skew (``SortedRegionState.nbytes``) -- and per
    #: history / live-set entry (one float64 key, one int64 index
    #: respectively).
    STATE_BYTES = 16
    KEY_BYTES = 8
    INDEX_BYTES = 8

    @property
    def resident_bytes(self) -> int:
        """Total resident engine footprint at the end of the batch, in bytes.

        Counts the per-machine join state (16 bytes per entry), the flat
        per-side key histories (8 bytes per key) and the live arrival-index
        sets (8 bytes per index).  This is the quantity history compaction
        bounds: under a bounded window every term is O(window), while
        without compaction the history and live-set terms grow with the
        stream even though the join state is bounded.
        """
        return (
            self.resident_tuples * self.STATE_BYTES
            + self.resident_history_tuples * self.KEY_BYTES
            + self.resident_live_entries * self.INDEX_BYTES
        )

    @property
    def max_load(self) -> float:
        """Load of the busiest machine in this batch."""
        return float(self.per_machine_load.max()) if len(self.per_machine_load) else 0.0

    @property
    def mean_load(self) -> float:
        """Mean machine load in this batch."""
        return float(self.per_machine_load.mean()) if len(self.per_machine_load) else 0.0

    @property
    def throughput(self) -> float:
        """Modelled throughput: arrivals per unit of busiest-machine work.

        ``nan`` when the batch charged no load at all (e.g. arrivals
        buffered before the initial build, or an empty batch) -- the ratio
        is undefined there, and reporting renders it as ``-`` instead of
        the misleading ``inf`` it used to propagate.
        """
        max_load = self.max_load
        return self.new_tuples / max_load if max_load > 0 else float("nan")


@dataclass
class StreamRunResult:
    """End-to-end accounting of one engine run over one stream.

    Attributes
    ----------
    scheme:
        Reporting name of the policy that drove the run.
    num_machines:
        Cluster size ``J``.
    backend:
        Reporting name of the execution backend that ran the per-region
        joins (``"simulated"`` or ``"sticky"``).
    window:
        Reporting name of the window policy that bounded the retained state
        (``"unbounded"``, ``"batches:8"``, ``"tuples:5000"``, ...).
    batches:
        Per-batch metrics in stream order.
    cumulative_load:
        Total cost-model load charged to each machine over the whole run
        (including migration and rebuild charges).
    total_output:
        Output tuples produced over the run.
    expected_output:
        Exact output of joining the full history (when verification ran).
        Only computed for unbounded runs: under a window the retained
        history is no longer the ground truth, so windowed runs leave this
        ``None`` (the window property tests pin windowed semantics against
        an independent reference instead).
    output_correct:
        Whether ``total_output`` matched the exact count; ``None`` when the
        run skipped (or could not run) verification.
    backpressure:
        Reporting name of the backpressure policy when the run went through
        a :class:`~repro.streaming.pipeline.StreamingPipeline` (``"block"``,
        ``"shed"``, ``"coalesce"``); ``None`` for synchronous runs.
    queue_batches:
        The pipeline's queue bound in batches (``None`` for synchronous
        runs *and* for pipelined runs with an unbounded queue -- check
        ``backpressure`` to distinguish them).
    queue_clock:
        Clock domain of the queue timings (stall/idle); ``None`` for
        synchronous runs, which have no queue.
    checkpoints_taken:
        How many :class:`~repro.streaming.checkpoint.StreamCheckpoint`
        snapshots the engine captured during the run.
    restores:
        How many times this run was resumed from a checkpoint (a crash
        recovery increments it; an uninterrupted run reports 0).
    """

    scheme: str
    num_machines: int
    backend: str = "simulated"
    window: str = "unbounded"
    batches: list[BatchMetrics] = field(default_factory=list)
    cumulative_load: np.ndarray | None = None
    total_output: int = 0
    expected_output: int | None = None
    output_correct: bool | None = None
    backpressure: str | None = None
    queue_batches: int | None = None
    queue_clock: str | None = None
    checkpoints_taken: int = 0
    restores: int = 0

    @property
    def num_batches(self) -> int:
        """Batches processed over the run."""
        return len(self.batches)

    @property
    def total_tuples(self) -> int:
        """Stream arrivals processed (both sides, before replication)."""
        return sum(batch.new_tuples for batch in self.batches)

    @property
    def max_machine_load(self) -> float:
        """Cumulative load of the busiest machine -- what balancing minimises."""
        if self.cumulative_load is None or len(self.cumulative_load) == 0:
            return 0.0
        return float(self.cumulative_load.max())

    @property
    def mean_machine_load(self) -> float:
        """Mean cumulative machine load."""
        if self.cumulative_load is None or len(self.cumulative_load) == 0:
            return 0.0
        return float(self.cumulative_load.mean())

    @property
    def load_imbalance(self) -> float:
        """Cumulative max/mean load ratio (1.0 is perfectly balanced)."""
        mean = self.mean_machine_load
        return self.max_machine_load / mean if mean > 0 else 1.0

    @property
    def latency_cost(self) -> float:
        """Sum over batches of the busiest machine's load.

        Models end-to-end latency when batches are barriers: every batch
        waits for its slowest machine.
        """
        return float(sum(batch.max_load for batch in self.batches))

    @property
    def total_migrated(self) -> int:
        """Tuples moved between machines by repartitionings."""
        return sum(batch.migrated_tuples for batch in self.batches)

    @property
    def total_evicted(self) -> int:
        """State entries dropped by the window policy over the run."""
        return sum(batch.tuples_evicted for batch in self.batches)

    @property
    def total_bytes_freed(self) -> int:
        """Resident bytes released by window evictions over the run."""
        return sum(batch.bytes_freed for batch in self.batches)

    @property
    def peak_resident_tuples(self) -> int:
        """Largest end-of-batch resident state seen during the run.

        This is what a window policy bounds: under a sliding window it
        plateaus at roughly the window's tuple capacity (times the
        replication factor), while an unbounded run grows linearly with the
        stream.
        """
        if not self.batches:
            return 0
        return max(batch.resident_tuples for batch in self.batches)

    @property
    def peak_resident_bytes(self) -> int:
        """Largest end-of-batch total footprint (state + history + live sets).

        This is what history compaction bounds: a windowed compacted run
        plateaus, while both the unbounded run and an uncompacted windowed
        run keep growing (the latter in its history and live sets only).
        """
        if not self.batches:
            return 0
        return max(batch.resident_bytes for batch in self.batches)

    @property
    def total_history_trimmed(self) -> int:
        """Key-history entries discarded by compaction over the run."""
        return sum(batch.history_tuples_trimmed for batch in self.batches)

    @property
    def num_repartitions(self) -> int:
        """Repartitionings adopted during the run."""
        return sum(1 for batch in self.batches if batch.repartitioned)

    @property
    def num_resizes(self) -> int:
        """Mid-stream fleet resizes folded into this run's batches."""
        return sum(1 for batch in self.batches if batch.resized_from is not None)

    @property
    def wall_seconds(self) -> float:
        """Real time spent processing the whole stream."""
        return float(sum(batch.wall_seconds for batch in self.batches))

    @property
    def join_seconds(self) -> float:
        """Real time the backend spent on per-region joins over the run."""
        return float(sum(batch.join_seconds for batch in self.batches))

    @property
    def mean_throughput(self) -> float:
        """Modelled stream throughput: arrivals per unit of latency cost.

        ``nan`` for degenerate runs that charged no load (zero batches, or
        an empty stream) -- previously this emitted ``inf``, which crept
        into reports as a claim of infinite throughput.
        """
        latency = self.latency_cost
        return self.total_tuples / latency if latency > 0 else float("nan")

    @property
    def total_bytes_pickled(self) -> int | None:
        """Bytes shipped to workers over the run's serialization channel.

        ``None`` when no batch measured the channel (in-process backends,
        or profiling disabled) -- distinct from a measured total of zero.
        """
        measured = [
            batch.bytes_pickled
            for batch in self.batches
            if batch.bytes_pickled is not None
        ]
        return sum(measured) if measured else None

    @property
    def total_bytes_unpickled(self) -> int | None:
        """Bytes shipped back from workers over the run (``None``: unmeasured)."""
        measured = [
            batch.bytes_unpickled
            for batch in self.batches
            if batch.bytes_unpickled is not None
        ]
        return sum(measured) if measured else None

    @property
    def total_bytes_shm(self) -> int | None:
        """Bytes shipped through shared memory over the run (``None``: none).

        The sticky backend's zero-copy payload total; ``None`` for
        backends without a shared-memory transport, so the ``shm KB``
        column renders ``-`` exactly like the pickle columns do.
        """
        measured = [
            batch.bytes_shm
            for batch in self.batches
            if batch.bytes_shm is not None
        ]
        return sum(measured) if measured else None

    @property
    def clock_domains(self) -> str:
        """Compact clock-domain label: ``"queue:sim"`` or ``"real"``.

        ``"queue:sim"`` for a simulated-clock pipeline, whose queue
        seconds are modeled while its wall and join seconds are real, so
        no table can pass a modeled second off as a measured one;
        ``"real"`` for every other run.
        """
        return "queue:sim" if self.queue_clock == "simulated" else "real"

    @property
    def peak_queue_depth(self) -> int:
        """Deepest the pipeline queue got at any pop (0 when not pipelined)."""
        if not self.batches:
            return 0
        return max(batch.queue_depth for batch in self.batches)

    @property
    def total_batches_shed(self) -> int:
        """Whole batches dropped by the backpressure policy over the run."""
        return sum(batch.batches_shed for batch in self.batches)

    @property
    def total_tuples_shed(self) -> int:
        """Tuples dropped with those shed batches over the run."""
        return sum(batch.tuples_shed for batch in self.batches)

    @property
    def producer_stall_seconds(self) -> float:
        """Total time the producer spent blocked on the full queue."""
        return float(
            sum(batch.producer_stall_seconds for batch in self.batches)
        )

    @property
    def consumer_idle_seconds(self) -> float:
        """Total time the consumer spent waiting on the empty queue."""
        return float(
            sum(batch.consumer_idle_seconds for batch in self.batches)
        )
