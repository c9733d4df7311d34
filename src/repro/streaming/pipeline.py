"""Backpressured producer/consumer pipeline between a source and the engine.

The synchronous :meth:`~repro.streaming.engine.StreamingJoinEngine.run` loop
pulls batches one at a time: a slow batch (a repartitioning, a migration, a
skew-inflated join) stalls the *producer*, and nothing in the system models
the regime where arrivals outpace joining -- exactly where an adaptive
scheme has to prove itself.  :class:`StreamingPipeline` decouples the two
ends with a bounded queue of micro-batches:

* the **producer** runs the :class:`~repro.streaming.source.StreamSource`
  (on its own thread in ``mode="thread"``), pushing each batch into the
  queue as it becomes available -- on the wall-clock schedule declared by a
  :class:`~repro.streaming.source.RateLimitedSource`, or as fast as the
  queue accepts otherwise;
* the **consumer** is the engine itself, popping batches off the queue and
  processing them exactly as the synchronous loop would;
* a pluggable :class:`BackpressurePolicy` decides what happens when the
  queue is full:

  - :class:`BlockPolicy` (``"block"``, the default) -- lossless: the
    producer stalls until a slot frees.  The consumed batch sequence is
    identical to the source, so a ``block`` run is *bit-identical* to the
    synchronous engine -- outputs, loads, evictions, migration plans --
    and the stall time is the price, surfaced as
    ``producer_stall_seconds``.
  - :class:`ShedPolicy` (``"shed"``) -- lossy: the incoming batch is
    dropped whole and counted (``batches_shed`` / ``tuples_shed``).  The
    queue (and so the engine's backlog) stays bounded no matter how slow
    the consumer is; the output can only shrink relative to a lossless
    run.
  - :class:`CoalescePolicy` (``"coalesce"``) -- lossless but lumpy: the
    queued batches and the arrival merge into one super-batch (the queue
    drops to one occupied slot, never exceeding its bound), so the engine
    catches up in fewer, larger steps.  Per-batch
    overheads -- dispatch, eviction sweeps, repartitioning checks -- are
    paid once per super-batch, which is how a consumer whose cost is
    dominated by per-batch overhead actually catches up.

Two execution modes share all of that policy logic:

* ``mode="simulated"`` replaces wall time with a **simulated clock**: batch
  arrival times come from the source's declared schedule and the consumer's
  per-batch service time from an explicit ``service_model``, and the whole
  queue evolution is computed as a deterministic single-threaded
  discrete-event simulation (ties broken consumer-first).  Every queue
  depth, stall second and shed decision is exactly reproducible, which is
  what the tier-1 tests and the backpressure benchmark assert against.
* ``mode="thread"`` (the default) runs the producer on a real
  ``threading.Thread`` against a condition-variable bounded queue and
  measures stalls and idle time with a real clock.  Behaviour
  under ``block`` is still bit-identical to the synchronous engine --
  losslessness does not depend on timing -- while ``shed``/``coalesce``
  decisions naturally depend on real machine speed.

Shed and coalesced streams skip batch indices, so the pipeline runs the
engine with ``allow_gaps=True`` for those policies; ``block`` keeps the
strict contiguous-index validation.
"""

from __future__ import annotations

import abc
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.obs.clock import perf_counter
from repro.streaming.engine import StreamingJoinEngine
from repro.streaming.metrics import StreamRunResult
from repro.streaming.source import MicroBatch, StreamSource

__all__ = [
    "BACKPRESSURE_MODES",
    "BackpressurePolicy",
    "BlockPolicy",
    "ShedPolicy",
    "CoalescePolicy",
    "make_backpressure",
    "merge_batches",
    "StreamingPipeline",
]

#: Backpressure policy names accepted by :func:`make_backpressure`.
BACKPRESSURE_MODES = ("block", "shed", "coalesce")


def merge_batches(batches: "list[MicroBatch]") -> MicroBatch:
    """Merge consecutive micro-batches into one super-batch.

    The merged batch carries the *last* constituent's index (so a stream of
    merged batches keeps strictly increasing indices) and the concatenation
    of both sides' keys in arrival order.  Key dtypes are preserved --
    merging int64 batches yields an int64 super-batch.
    """
    if not batches:
        raise ValueError("cannot merge zero batches")
    if len(batches) == 1:
        return batches[0]
    return MicroBatch(
        index=batches[-1].index,
        keys1=np.concatenate([batch.keys1 for batch in batches]),
        keys2=np.concatenate([batch.keys2 for batch in batches]),
    )


class BackpressurePolicy(abc.ABC):
    """What the producer does when the bounded queue has no free slot.

    Policies are stateless: :meth:`on_full` may mutate the queue to make
    room (coalesce) or refuse the incoming batch (shed), and the
    ``blocks_producer`` flag selects the lossless wait-for-a-slot behaviour
    instead.  The same policy instance may drive several pipelines.
    """

    #: Reporting name recorded on the run result.
    name: str = "backpressure"

    #: Whether every produced tuple reaches the engine.
    lossless: bool = True

    #: True when a full queue stalls the producer until a slot frees
    #: (``on_full`` is never consulted).
    blocks_producer: bool = False

    #: True when the consumed stream may skip batch indices; the pipeline
    #: then runs the engine with ``allow_gaps=True``.
    introduces_gaps: bool = False

    @abc.abstractmethod
    def on_full(self, queue: "deque[MicroBatch]", batch: MicroBatch) -> bool:
        """Handle ``batch`` arriving at a full queue; report its fate.

        Called with the queue holding exactly its bound.  The policy either
        absorbs the batch -- mutating ``queue`` in place while keeping it
        within that bound (coalesce merges it into the queued batches) --
        and returns ``True``, or returns ``False`` to drop it (the pipeline
        records the shed).  The caller never appends after a ``True``: the
        queue must already reflect the arrival.
        """


class BlockPolicy(BackpressurePolicy):
    """Lossless backpressure: the producer waits for a free slot."""

    name = "block"
    blocks_producer = True

    def on_full(self, queue, batch):
        """Never reached: a blocking policy's producer waits instead."""
        raise RuntimeError(
            "BlockPolicy blocks the producer on a full queue; on_full is "
            "never consulted"
        )


class ShedPolicy(BackpressurePolicy):
    """Lossy backpressure: drop the incoming batch whole when full.

    Dropping whole batches (rather than sampling tuples) keeps every
    delivered batch internally intact, so the engine's per-batch semantics
    -- liveness, drift statistics, incremental counting -- are unaffected;
    only coverage of the stream shrinks.  Every shed is recorded.
    """

    name = "shed"
    lossless = False
    introduces_gaps = True

    def on_full(self, queue, batch):
        """Refuse the incoming batch; the queue is left untouched."""
        return False


class CoalescePolicy(BackpressurePolicy):
    """Lossless backpressure: merge the full queue into one super-batch.

    The queued batches and the incoming batch collapse into a single batch,
    so the queue drops to one occupied slot and never exceeds its bound --
    even a bound of one.  No tuple is lost: the engine just sees fewer,
    larger steps, paying per-batch overheads (dispatch, eviction sweeps,
    repartitioning decisions) once per super-batch.  Note that windowed
    semantics are defined over *processed* batches, so under a bounded
    window coalescing legitimately changes which pairs coexist; under an
    unbounded window the total output is exactly that of the lossless
    per-batch run.
    """

    name = "coalesce"
    introduces_gaps = True

    def on_full(self, queue, batch):
        """Collapse the queue plus the arrival into one super-batch."""
        merged = merge_batches(list(queue) + [batch])
        queue.clear()
        queue.append(merged)
        return True


def make_backpressure(
    spec: "BackpressurePolicy | str",
) -> BackpressurePolicy:
    """Build a backpressure policy from its name (or pass one through).

    Accepted names are ``"block"``, ``"shed"`` and ``"coalesce"``; unknown
    names raise ``ValueError`` listing the accepted forms.
    """
    if isinstance(spec, BackpressurePolicy):
        return spec
    policies = {
        BlockPolicy.name: BlockPolicy,
        ShedPolicy.name: ShedPolicy,
        CoalescePolicy.name: CoalescePolicy,
    }
    try:
        return policies[spec]()
    except KeyError:
        raise ValueError(
            f"unknown backpressure policy {spec!r} "
            f"(expected one of {BACKPRESSURE_MODES})"
        ) from None


@dataclass
class _PopRecord:
    """One consumed batch plus the queue events attributed to it.

    ``batches_shed`` / ``tuples_shed`` / ``stall_seconds`` accrue between
    the previous pop and this one; ``idle_seconds`` is how long the
    consumer waited on the empty queue before this batch; ``queue_depth``
    counts the queued batches at the moment of the pop, including this one.
    """

    batch: MicroBatch
    queue_depth: int
    batches_shed: int
    tuples_shed: int
    stall_seconds: float
    idle_seconds: float


def _simulate(
    batches: "Iterator[MicroBatch]",
    arrival_time: "Callable[[int], float] | None",
    service_time: "Callable[[MicroBatch], float]",
    policy: BackpressurePolicy,
    maxsize: "int | None",
) -> "list[_PopRecord]":
    """Deterministic discrete-event simulation of the bounded queue.

    Batch ``i`` arrives at ``arrival_time(i)`` (immediately, pushed only by
    producer stalls, when ``None``); the consumer takes ``service_time(b)``
    simulated seconds per popped batch.  When an arrival and a pop fall on
    the same instant the pop happens first (consumer-first tie-break), so a
    consumer that exactly keeps up never sees the queue grow.  Returns the
    consumed batches in order with their queue metrics; the engine run
    afterwards is fed exactly this sequence.
    """
    queue: "deque[MicroBatch]" = deque()
    pops: "list[_PopRecord]" = []
    t_producer = 0.0  # when the producer finished its latest enqueue
    t_consumer = 0.0  # when the consumer frees up
    pending_shed_batches = 0
    pending_shed_tuples = 0
    pending_stall = 0.0
    pending_idle = 0.0

    def pop() -> None:
        nonlocal t_consumer
        nonlocal pending_shed_batches, pending_shed_tuples
        nonlocal pending_stall, pending_idle
        batch = queue.popleft()
        pops.append(
            _PopRecord(
                batch=batch,
                queue_depth=len(queue) + 1,
                batches_shed=pending_shed_batches,
                tuples_shed=pending_shed_tuples,
                stall_seconds=pending_stall,
                idle_seconds=pending_idle,
            )
        )
        pending_shed_batches = 0
        pending_shed_tuples = 0
        pending_stall = 0.0
        pending_idle = 0.0
        t_consumer += service_time(batch)

    for position, batch in enumerate(batches):
        scheduled = arrival_time(position) if arrival_time is not None else 0.0
        now = max(t_producer, scheduled)
        # Consumer-first tie-break: every pop the consumer can start at or
        # before this arrival happens first.
        while queue and t_consumer <= now:
            pop()
        if not queue and t_consumer < now:
            # The consumer drained the queue and waited for this arrival.
            pending_idle += now - t_consumer
            t_consumer = now
        if maxsize is not None and len(queue) >= maxsize:
            if policy.blocks_producer:
                while len(queue) >= maxsize:
                    # The next slot frees the moment the consumer pops,
                    # which is when it finishes its current batch.
                    slot_freed_at = t_consumer
                    pop()
                    pending_stall += slot_freed_at - now
                    now = slot_freed_at
                queue.append(batch)
            elif not policy.on_full(queue, batch):
                pending_shed_batches += 1
                pending_shed_tuples += batch.num_tuples
            # else: absorbed in place (coalesced), still within the bound.
        else:
            queue.append(batch)
        t_producer = now
    while queue:
        pop()
    return pops


class _BoundedBuffer:
    """Thread-safe bounded micro-batch queue applying a backpressure policy.

    The single producer calls :meth:`put` (blocking, shedding or coalescing
    per the policy) and :meth:`finish` when the stream ends; the single
    consumer calls :meth:`pop`, which waits for an item and returns it with
    its queue metrics, or ``None`` once the stream is drained.
    :meth:`cancel` unblocks both ends (consumer died mid-run).
    """

    def __init__(self, maxsize: "int | None", policy: BackpressurePolicy) -> None:
        self._maxsize = maxsize
        self._policy = policy
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._items: "deque[MicroBatch]" = deque()
        self._done = False
        self._cancelled = False
        self._pending_shed_batches = 0
        self._pending_shed_tuples = 0
        self._pending_stall = 0.0

    @property
    def cancelled(self) -> bool:
        """Whether the consumer aborted the run."""
        with self._lock:
            return self._cancelled

    def put(self, batch: MicroBatch) -> None:
        """Producer side: enqueue a batch, applying the policy when full."""
        with self._lock:
            if (
                self._maxsize is not None
                and len(self._items) >= self._maxsize
                and not self._cancelled
            ):
                if self._policy.blocks_producer:
                    stalled_from = perf_counter()
                    while (
                        len(self._items) >= self._maxsize
                        and not self._cancelled
                    ):
                        self._not_full.wait(timeout=0.1)
                    self._pending_stall += perf_counter() - stalled_from
                else:
                    if self._policy.on_full(self._items, batch):
                        # Absorbed in place (coalesced), within the bound.
                        self._not_empty.notify()
                    else:
                        self._pending_shed_batches += 1
                        self._pending_shed_tuples += batch.num_tuples
                    return
            if self._cancelled:
                return
            self._items.append(batch)
            self._not_empty.notify()

    def finish(self) -> None:
        """Producer side: signal end of stream."""
        with self._lock:
            self._done = True
            self._not_empty.notify_all()

    def cancel(self) -> None:
        """Consumer side: abort -- unblock the producer and drop new puts."""
        with self._lock:
            self._cancelled = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def pop(self) -> "_PopRecord | None":
        """Consumer side: wait for the next batch; ``None`` at end of stream."""
        with self._lock:
            waiting_from = perf_counter()
            while not self._items and not self._done and not self._cancelled:
                self._not_empty.wait(timeout=0.1)
            idle = perf_counter() - waiting_from
            if not self._items:
                return None
            batch = self._items.popleft()
            record = _PopRecord(
                batch=batch,
                queue_depth=len(self._items) + 1,
                batches_shed=self._pending_shed_batches,
                tuples_shed=self._pending_shed_tuples,
                stall_seconds=self._pending_stall,
                idle_seconds=idle,
            )
            self._pending_shed_batches = 0
            self._pending_shed_tuples = 0
            self._pending_stall = 0.0
            self._not_full.notify()
            return record


class StreamingPipeline:
    """Run a stream through a bounded queue into a streaming join engine.

    Parameters
    ----------
    source:
        The stream to consume.  Wrap it in a
        :class:`~repro.streaming.source.RateLimitedSource` to declare when
        each batch arrives; otherwise the producer offers batches as fast
        as the queue accepts them.
    engine:
        A fresh :class:`~repro.streaming.engine.StreamingJoinEngine` (one
        engine consumes one stream).  The pipeline calls ``engine.run`` on
        the consumed batch sequence and annotates the result with the queue
        metrics.
    queue_batches:
        Queue bound, in batches.  ``None`` means an unbounded queue -- the
        lossless buffer-everything baseline whose depth grows with the
        consumer's lag.
    backpressure:
        A :class:`BackpressurePolicy` or its name (``"block"`` -- the
        lossless default, ``"shed"``, ``"coalesce"``).
    mode:
        ``"thread"`` (default) runs the producer on a real thread with real
        clocks; ``"simulated"`` computes the queue evolution on a simulated
        clock -- fully deterministic, which the tests and benchmarks
        require -- and needs ``service_model``.
    service_model:
        Simulated mode's consumer cost: seconds per popped batch, as a
        constant or a ``batch -> seconds`` callable.  Ignored (and
        refused) in threaded mode, where the engine's real processing time
        plays this role.
    allow_gaps:
        Forwarded to ``engine.run`` for sources whose own numbering
        legitimately skips values (renumbered or strided replays).  Gaps
        introduced by the queue itself -- shedding or coalescing -- are
        declared automatically; this flag is only for gaps already present
        in the source.
    """

    def __init__(
        self,
        source: StreamSource,
        engine: StreamingJoinEngine,
        *,
        queue_batches: "int | None" = 8,
        backpressure: "BackpressurePolicy | str" = "block",
        mode: str = "thread",
        service_model: "Callable[[MicroBatch], float] | float | None" = None,
        allow_gaps: bool = False,
    ) -> None:
        if mode not in ("thread", "simulated"):
            raise ValueError(
                f"unknown pipeline mode {mode!r} "
                "(expected 'thread' or 'simulated')"
            )
        if queue_batches is not None and queue_batches < 1:
            raise ValueError("queue_batches must be >= 1 (or None: unbounded)")
        if mode == "simulated" and service_model is None:
            raise ValueError(
                "simulated mode needs a service_model (seconds per consumed "
                "batch, constant or callable) to drive the simulated clock"
            )
        if mode == "thread" and service_model is not None:
            raise ValueError(
                "service_model only applies to mode='simulated'; in threaded "
                "mode the engine's real processing time is the service time"
            )
        self.source = source
        self.engine = engine
        self.queue_batches = queue_batches
        self.policy = make_backpressure(backpressure)
        self.mode = mode
        self._allow_gaps = allow_gaps or self.policy.introduces_gaps
        if service_model is None or callable(service_model):
            self._service_model = service_model
        else:
            seconds = float(service_model)
            self._service_model = lambda batch: seconds

    def run(self, verify: bool = True) -> StreamRunResult:
        """Produce, queue and consume the stream; return the annotated result.

        The returned :class:`~repro.streaming.metrics.StreamRunResult` is
        the engine's, with the pipeline's queue metrics filled in: one
        entry of ``queue_depth`` / ``batches_shed`` / ``tuples_shed`` /
        ``producer_stall_seconds`` / ``consumer_idle_seconds`` per consumed
        batch, plus the run-level ``backpressure`` and ``queue_batches``
        labels.  ``verify`` is forwarded to the engine.

        Every queue quantity is stamped with its clock domain:
        ``mode="simulated"`` stalls and idles are simulated seconds,
        threaded ones are real seconds, and ``queue_clock`` on both the
        batch and run records says which -- so a report can never silently
        compare a simulated stall against a wall-clock one.  If the engine
        carries a :class:`~repro.obs.metrics.MetricsRegistry`, the queue
        totals (sheds, stall, idle, peak depth) are folded into it after
        the run, under ``queue.*`` names.
        """
        if self.mode == "simulated":
            records = _simulate(
                iter(self.source.batches()),
                getattr(self.source, "arrival_time", None),
                self._service_model,
                self.policy,
                self.queue_batches,
            )
            result = self.engine.run(
                (record.batch for record in records),
                verify=verify,
                allow_gaps=self._allow_gaps,
            )
        else:
            result, records = self._run_threaded(verify)
        queue_clock = "simulated" if self.mode == "simulated" else "real"
        for metrics, record in zip(result.batches, records):
            metrics.queue_depth = record.queue_depth
            metrics.batches_shed = record.batches_shed
            metrics.tuples_shed = record.tuples_shed
            metrics.producer_stall_seconds = record.stall_seconds
            metrics.consumer_idle_seconds = record.idle_seconds
            metrics.queue_clock = queue_clock
        result.backpressure = self.policy.name
        result.queue_batches = self.queue_batches
        result.queue_clock = queue_clock
        registry = self.engine.metrics
        if registry is not None:
            # The engine pulsed per batch while it ran; the queue's totals
            # are only known post-hoc (pop records are zipped onto the
            # batches above), so they land as run-level counters/gauges.
            registry.counter("queue.batches_shed").inc(
                result.total_batches_shed
            )
            registry.counter("queue.tuples_shed").inc(result.total_tuples_shed)
            registry.counter("queue.producer_stall_seconds").inc(
                result.producer_stall_seconds
            )
            registry.counter("queue.consumer_idle_seconds").inc(
                result.consumer_idle_seconds
            )
            registry.gauge("queue.peak_depth").set(result.peak_queue_depth)
        return result

    def _run_threaded(
        self, verify: bool
    ) -> "tuple[StreamRunResult, list[_PopRecord]]":
        """Real-thread execution: producer thread, engine on this thread."""
        buffer = _BoundedBuffer(self.queue_batches, self.policy)
        arrival = getattr(self.source, "arrival_time", None)
        started_at = perf_counter()
        producer_error: "list[BaseException]" = []

        def produce() -> None:
            try:
                for position, batch in enumerate(self.source.batches()):
                    if arrival is not None:
                        delay = arrival(position) - (perf_counter() - started_at)
                        if delay > 0:
                            time.sleep(delay)
                    if buffer.cancelled:
                        return
                    buffer.put(batch)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                producer_error.append(error)
            finally:
                buffer.finish()

        records: "list[_PopRecord]" = []

        def consumed() -> "Iterator[MicroBatch]":
            while True:
                record = buffer.pop()
                if record is None:
                    return
                records.append(record)
                yield record.batch

        producer = threading.Thread(
            target=produce, name="stream-producer", daemon=True
        )
        producer.start()
        try:
            result = self.engine.run(
                consumed(),
                verify=verify,
                allow_gaps=self._allow_gaps,
            )
        finally:
            buffer.cancel()
            producer.join(timeout=30.0)
        if producer_error:
            raise producer_error[0]
        return result, records
