"""Online streaming join with drift-triggered repartitioning and windows.

Feeds a micro-batched stream whose Zipf skew shifts mid-stream (near-uniform
at first, then a hot spot at a fresh location) to three engines:

* CI-static -- 1-Bucket built once: immune to skew, pays replication forever;
* CSIO-static -- the equi-weight histogram built from the stream prefix and
  frozen, the online analogue of trusting a stale batch build;
* CSIO-adaptive -- the same initial build, plus a drift detector that
  rebuilds the histogram from the incrementally maintained sample state and
  pays an explicit state-migration cost for every repartitioning.  Rebuilds
  use partial repartitioning: only the regions whose region-to-machine
  assignment changed migrate state.

The per-region joins of every batch run on a pluggable execution backend;
pass ``--backend sticky`` to execute them on persistent OS worker processes
(real per-region wall-clock timings in the ``join s`` column) instead of
the in-process simulator: each worker keeps its machines' join state
resident across batches and receives only the per-batch delta over shared
memory, so the ``pickled KB`` column carries control messages only while
``shm KB`` carries the actual payload.  The cost-model columns are
identical under either backend.

Retained state is bounded by a window policy; pass ``--window batches:6``
(tuples from the last 6 micro-batches stay live), ``--window tuples:5000``
(most recent 5000 arrivals per side) or ``--window decay:0.9`` (exponential
decay) to evict expired state after every batch.  Under any bounded window
the engine also compacts its key histories and index bookkeeping below the
window's trim point, so the run's *total* resident memory is O(window).
The ``peak resident`` and ``peak mem KB`` columns show the memory the
window (and the compaction) bounds, ``evicted`` what the policy dropped;
windowed runs report ``-`` in the ``correct`` column because the
full-history check no longer applies once the engine deliberately forgets
state.

Pass ``--queue N`` to decouple the source from each engine with a real
producer thread feeding a bounded queue of N batches, and ``--backpressure
{block,shed,coalesce}`` to pick what happens when the queue fills: ``block``
stalls the producer (lossless -- the join is bit-identical to the
synchronous run), ``shed`` drops whole batches, ``coalesce`` merges the
queue into one super-batch.  The table then gains ``backpressure``, ``peak
queue``, ``shed`` and ``stall s`` columns.

Pass ``--trace trace.json`` to record the span tree of all three runs --
``run → batch → {route, incremental_count, evict, compact, drift_decide,
migrate}``, plus per-worker child spans under the sticky backend --
into one Chrome-trace file (load it at https://ui.perfetto.dev; a ``.jsonl``
suffix writes the span log as JSON lines instead) and print a where-did-
the-time-go summary table.  Pass ``--metrics metrics.json`` to collect each
scheme's run into a :class:`~repro.obs.metrics.MetricsRegistry` and dump
the final counter/gauge/histogram snapshots as JSON.

Run with::

    python examples/streaming_join.py [--backend {simulated,sticky}]
                                      [--window SPEC]
                                      [--queue N]
                                      [--backpressure {block,shed,coalesce}]
                                      [--trace PATH] [--metrics PATH]
"""

from __future__ import annotations

import argparse
import json

from repro.bench.reporting import format_streaming_table, format_trace_summary
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.obs import MetricsRegistry, Tracer
from repro.streaming import (
    BACKPRESSURE_MODES,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    RateLimitedSource,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamingJoinEngine,
    StreamingPipeline,
    compare_streaming_schemes,
    make_backend,
    make_window,
)


def main() -> None:
    """Run the three streaming schemes over a drifting stream and report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--backend",
        choices=["simulated", "sticky"],
        default="simulated",
        help="execution backend for the per-region joins (default: simulated)",
    )
    parser.add_argument(
        "--window",
        default="unbounded",
        help="window policy bounding the retained state: 'unbounded' "
        "(default), 'batches:<n>', 'tuples:<n>' or 'decay:<p>'",
    )
    parser.add_argument(
        "--queue",
        type=int,
        default=0,
        metavar="N",
        help="run each engine behind a producer thread and a bounded queue "
        "of N batches (0, the default, runs synchronously)",
    )
    parser.add_argument(
        "--backpressure",
        choices=list(BACKPRESSURE_MODES),
        default="block",
        help="what the producer does when the queue is full (with --queue): "
        "'block' stalls (lossless, default), 'shed' drops whole batches, "
        "'coalesce' merges the queue into one super-batch",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the span tree of all three runs into PATH as "
        "Chrome-trace JSON (open in https://ui.perfetto.dev; a .jsonl "
        "suffix writes a JSON-lines span log instead) and print a trace "
        "summary table",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="collect each scheme's run into a metrics registry and write "
        "the final counter/gauge/histogram snapshots to PATH as JSON",
    )
    args = parser.parse_args()
    window = make_window(args.window)

    # One tracer shared by all three engines -- every run lands in the same
    # timeline under its own scheme-tagged `run` span -- but one registry
    # per scheme: registries are mutable run state and summing the schemes'
    # counters together would be meaningless.
    tracer = Tracer() if args.trace else None
    registries: "dict[str, MetricsRegistry]" = {}

    def metrics_for(name: str) -> "MetricsRegistry | None":
        if args.metrics is None:
            return None
        return registries.setdefault(name, MetricsRegistry())

    num_machines = 16
    source = DriftingZipfSource(
        num_batches=16,
        tuples_per_batch=800,
        num_values=400,
        z_initial=0.1,
        z_final=0.9,
        shift_at_batch=6,
        seed=42,
    )
    policies = {
        "CI-static": lambda: StaticOneBucketPolicy(num_machines),
        "CSIO-static": lambda: StaticEWHPolicy(),
        "CSIO-adaptive": lambda: DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=3)
        ),
    }
    pipelined = args.queue > 0
    print(
        "Streaming a band join over 16 micro-batches; the key skew shifts "
        f"at batch 6 (backend: {args.backend}, window: {window.name}"
        + (
            f", queue: {args.queue} batches, backpressure: {args.backpressure}"
            if pipelined
            else ""
        )
        + ")...\n"
    )
    if pipelined:
        # One real producer thread per engine: each batch is offered every
        # 10ms and the engine consumes from the bounded queue.
        results = {}
        for name, policy_factory in policies.items():
            with make_backend(args.backend) as backend:
                engine = StreamingJoinEngine(
                    num_machines,
                    BandJoinCondition(beta=1.0),
                    BAND_JOIN_WEIGHTS,
                    policy=policy_factory(),
                    backend=backend,
                    window=window,
                    sample_capacity=2048,
                    sample_decay=0.7,
                    seed=3,
                    tracer=tracer,
                    metrics=metrics_for(name),
                )
                results[name] = StreamingPipeline(
                    RateLimitedSource(source, 0.01),
                    engine,
                    queue_batches=args.queue,
                    backpressure=args.backpressure,
                ).run()
    else:
        results = compare_streaming_schemes(
            source,
            num_machines,
            BandJoinCondition(beta=1.0),
            BAND_JOIN_WEIGHTS,
            policies={name: factory() for name, factory in policies.items()},
            backend_factory=lambda: make_backend(args.backend),
            window=window,
            sample_capacity=2048,
            sample_decay=0.7,
            seed=3,
            tracer=tracer,
            metrics_factory=metrics_for,
        )
    print(format_streaming_table(results))

    adaptive = results["CSIO-adaptive"]
    rebuild_batches = [
        batch.batch_index for batch in adaptive.batches if batch.repartitioned
    ]
    print(
        f"\nThe adaptive engine repartitioned at batch(es) {rebuild_batches}, "
        f"moving {adaptive.total_migrated:,} tuples of retained state between "
        "machines (charged into its load above). Partial repartitioning kept "
        "every region whose machine assignment did not change in place."
    )
    if not window.is_unbounded:
        print(
            f"The {window.name} window evicted {adaptive.total_evicted:,} "
            "state entries from the adaptive engine "
            f"({adaptive.total_bytes_freed:,} bytes freed), capping its "
            f"resident state at {adaptive.peak_resident_tuples:,} entries; "
            "migrations shipped live state only. History compaction trimmed "
            f"{adaptive.total_history_trimmed:,} dead history keys, "
            "holding total resident memory at "
            f"{adaptive.peak_resident_bytes / 1024:,.0f} KB."
        )
    if pipelined:
        print(
            f"Backpressure ({args.backpressure}): the adaptive engine's "
            f"producer stalled {adaptive.producer_stall_seconds:.3f}s, shed "
            f"{adaptive.total_tuples_shed:,} tuples and saw the queue peak "
            f"at {adaptive.peak_queue_depth} of {args.queue} batches; the "
            f"consumer sat idle {adaptive.consumer_idle_seconds:.3f}s."
        )
    print(
        "Reading the table: once the hot spot appears, the frozen histogram's "
        "busiest machine absorbs most of the new output while the adaptive "
        "engine restores balance and ends with a lower max-machine load -- "
        "migration cost included."
    )
    if tracer is not None:
        if args.trace.endswith(".jsonl"):
            tracer.write_jsonl(args.trace)
        else:
            tracer.write_chrome_trace(args.trace)
        print(
            f"\nTrace: {len(tracer.spans)} spans -> {args.trace} "
            "(open in https://ui.perfetto.dev). Where the time went:"
        )
        print(format_trace_summary(tracer))
    if args.metrics is not None:
        payload = {
            name: registry.snapshot() for name, registry in registries.items()
        }
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(
            f"\nMetrics: final registry snapshots of {len(registries)} "
            f"schemes -> {args.metrics}"
        )


if __name__ == "__main__":
    main()
