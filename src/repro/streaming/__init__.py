"""Online streaming join subsystem.

Runs partitioned joins over micro-batched, unbounded input: the equi-weight
histogram's sample state is maintained incrementally across batches, a drift
detector compares the live load imbalance against the histogram's own
prediction, and the engine rebuilds the partitioning online -- charging the
state-migration cost explicitly -- when the prediction goes stale.  Rebuilds
default to *partial repartitioning* (only the regions whose region-to-machine
assignment changed migrate state), and the per-batch region joins execute on
a pluggable :class:`~repro.streaming.backends.ExecutionBackend` (in-process
simulation, or zero-copy sticky workers that keep each machine's join state
resident in its worker process, receive per-batch deltas over a
:mod:`~repro.streaming.shm` shared-memory arena and report real wall-clock
timings).

Retained state is bounded by a pluggable
:class:`~repro.streaming.window.WindowPolicy` (unbounded, sliding
count-or-batch window, or exponential decay): expired tuples are evicted from
every machine after each batch, the freed memory is charged into the metrics,
and repartitioning migrates live state only.  The join state has one owner
-- the execution backend, driven through a single state-ownership protocol
-- and each side of a machine's state is kept as a few key-sorted runs,
merged geometrically, so the per-batch output delta is counted
incrementally in ``O(new * runs * log state)`` searches plus amortised
``O(new * ratio * log_ratio(state / new))`` copies instead of re-counting
(or re-copying) whole regions (see ``docs/streaming.md`` for the full
narrative).

A :class:`~repro.streaming.pipeline.StreamingPipeline` decouples the source
from the engine with a bounded queue and a pluggable backpressure policy
(``block`` -- lossless, bit-identical to the synchronous engine; ``shed`` --
drop whole batches at the full queue; ``coalesce`` -- merge the queue into
one super-batch), so a slow batch no longer stalls the producer and the
arrivals-outpace-joining regime is measurable: queue depth, shed volume,
producer stall and consumer idle time all land in the metrics.

The engine is elastic and crash-survivable:
:meth:`~repro.streaming.engine.StreamingJoinEngine.checkpoint` captures the
complete resumable state at any batch boundary
(:class:`~repro.streaming.checkpoint.StreamCheckpoint`, with a versioned
integrity-checked on-disk format),
:meth:`~repro.streaming.engine.StreamingJoinEngine.resize` re-plans the join
onto a different machine set mid-stream through the same migration machinery
a drift rebuild uses, and :func:`~repro.streaming.checkpoint.run_resilient`
drives a run to completion across backend worker crashes
(:class:`~repro.streaming.backends.WorkerCrashError`) by restoring from the
last checkpoint and replaying the source (see ``docs/fault_tolerance.md``).
"""

from repro import lazy_exports

_EXPORTS = {
    "ExecutionBackend": "repro.streaming.backends",
    "SimulatedBackend": "repro.streaming.backends",
    "StickyWorkerBackend": "repro.streaming.backends",
    "RegionJoinResult": "repro.engine.executor",
    "ShmArena": "repro.streaming.shm",
    "ShmReader": "repro.streaming.shm",
    "default_mp_context": "repro.streaming.backends",
    "make_backend": "repro.streaming.backends",
    "MicroBatch": "repro.streaming.source",
    "StreamSource": "repro.streaming.source",
    "ArrayStreamSource": "repro.streaming.source",
    "DriftingZipfSource": "repro.streaming.source",
    "RateLimitedSource": "repro.streaming.source",
    "BACKPRESSURE_MODES": "repro.streaming.pipeline",
    "BackpressurePolicy": "repro.streaming.pipeline",
    "BlockPolicy": "repro.streaming.pipeline",
    "ShedPolicy": "repro.streaming.pipeline",
    "CoalescePolicy": "repro.streaming.pipeline",
    "make_backpressure": "repro.streaming.pipeline",
    "merge_batches": "repro.streaming.pipeline",
    "StreamingPipeline": "repro.streaming.pipeline",
    "DecayedReservoir": "repro.streaming.incremental",
    "IncrementalHistogram": "repro.streaming.incremental",
    "SortedRegionState": "repro.streaming.incremental",
    "DriftDetector": "repro.streaming.drift",
    "MigrationPlan": "repro.streaming.migration",
    "plan_install": "repro.streaming.migration",
    "ArrivalLog": "repro.streaming.arrivals",
    "WindowPolicy": "repro.streaming.window",
    "UnboundedWindow": "repro.streaming.window",
    "SlidingWindow": "repro.streaming.window",
    "ExponentialDecayWindow": "repro.streaming.window",
    "make_window": "repro.streaming.window",
    "BatchMetrics": "repro.streaming.metrics",
    "StreamRunResult": "repro.streaming.metrics",
    "RepartitioningPolicy": "repro.streaming.policies",
    "StaticOneBucketPolicy": "repro.streaming.policies",
    "StaticEWHPolicy": "repro.streaming.policies",
    "DriftAdaptiveEWHPolicy": "repro.streaming.policies",
    "StreamingJoinEngine": "repro.streaming.engine",
    "compare_streaming_schemes": "repro.streaming.engine",
    "WorkerCrashError": "repro.streaming.backends",
    "CHECKPOINT_VERSION": "repro.streaming.checkpoint",
    "StreamCheckpoint": "repro.streaming.checkpoint",
    "run_resilient": "repro.streaming.checkpoint",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
