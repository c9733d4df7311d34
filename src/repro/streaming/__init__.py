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

from repro.streaming.arrivals import ArrivalLog
from repro.streaming.backends import (
    ExecutionBackend,
    RegionJoinResult,
    RegionStateTable,
    SimulatedBackend,
    SlowConsumerBackend,
    StickyWorkerBackend,
    WorkerCrashError,
    default_mp_context,
    make_backend,
)
from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    StreamCheckpoint,
    run_resilient,
)
from repro.streaming.shm import ShmArena, ShmReader
from repro.streaming.drift import DriftDetector, DriftObservation
from repro.streaming.engine import (
    StreamingJoinEngine,
    compare_streaming_schemes,
)
from repro.streaming.incremental import (
    DecayedReservoir,
    IncrementalHistogram,
    SortedRegionState,
)
from repro.streaming.metrics import BatchMetrics, StreamRunResult
from repro.streaming.migration import MigrationPlan, plan_migration
from repro.streaming.pipeline import (
    BACKPRESSURE_MODES,
    BackpressurePolicy,
    BlockPolicy,
    CoalescePolicy,
    ShedPolicy,
    StreamingPipeline,
    make_backpressure,
    merge_batches,
)
from repro.streaming.window import (
    ExponentialDecayWindow,
    SlidingWindow,
    UnboundedWindow,
    WindowPolicy,
    make_window,
)
from repro.streaming.policies import (
    DriftAdaptiveEWHPolicy,
    RepartitioningPolicy,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
)
from repro.streaming.source import (
    ArrayStreamSource,
    DriftingZipfSource,
    MicroBatch,
    RateLimitedSource,
    StreamSource,
)

__all__ = [
    "ExecutionBackend",
    "SimulatedBackend",
    "StickyWorkerBackend",
    "SlowConsumerBackend",
    "RegionJoinResult",
    "RegionStateTable",
    "ShmArena",
    "ShmReader",
    "default_mp_context",
    "make_backend",
    "MicroBatch",
    "StreamSource",
    "ArrayStreamSource",
    "DriftingZipfSource",
    "RateLimitedSource",
    "BACKPRESSURE_MODES",
    "BackpressurePolicy",
    "BlockPolicy",
    "ShedPolicy",
    "CoalescePolicy",
    "make_backpressure",
    "merge_batches",
    "StreamingPipeline",
    "DecayedReservoir",
    "IncrementalHistogram",
    "SortedRegionState",
    "DriftDetector",
    "DriftObservation",
    "MigrationPlan",
    "plan_migration",
    "ArrivalLog",
    "WindowPolicy",
    "UnboundedWindow",
    "SlidingWindow",
    "ExponentialDecayWindow",
    "make_window",
    "BatchMetrics",
    "StreamRunResult",
    "RepartitioningPolicy",
    "StaticOneBucketPolicy",
    "StaticEWHPolicy",
    "DriftAdaptiveEWHPolicy",
    "StreamingJoinEngine",
    "compare_streaming_schemes",
    "WorkerCrashError",
    "CHECKPOINT_VERSION",
    "StreamCheckpoint",
    "run_resilient",
]
