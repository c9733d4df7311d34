"""Streaming extension: backpressure when arrivals outpace the join.

The synchronous engine pulls batches one at a time, so a slow batch stalls
the producer and the system never has to decide what to do with a backlog.
This benchmark runs the drifting-Zipf stream through the backpressured
pipeline against a consumer that is **4x too slow** (one batch arrives per
simulated second, each consumed batch takes four) and compares the four
ways of absorbing the gap, all on the simulated clock so every number is
deterministic:

* **sync** -- the synchronous engine: the baseline every lossless run must
  match bit-for-bit.
* **buffer** (unbounded queue) -- lossless, but the queue grows linearly
  with the consumer's lag: the memory-leak shape of "just buffer it".
* **block@4** (bounded queue of 4, lossless) -- queue memory is flat, but
  the producer pays: its stall time grows linearly with the stream.
* **shed@4** -- queue memory flat *and* no producer stall; the price is
  dropped batches, so output shrinks (and can only shrink).
* **coalesce@4** -- queued batches merge into super-batches: queue memory
  flat, no stall, no loss; the engine catches up in fewer, larger steps,
  paying per-batch overheads once per super-batch.

The ``block@4`` run additionally records the full span tree with a
deterministic :class:`~repro.obs.trace.TickClock` tracer: the
bit-identity assertion against the synchronous run then doubles as proof
that tracing is behaviourally invisible, the exported Chrome trace is
validated in-test and written to
``benchmarks/results/streaming_backpressure_trace.json`` (CI uploads it
as an artifact; open it in https://ui.perfetto.dev), and its
tick-deterministic summary is appended to the report golden.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.reporting import (
    format_streaming_batches,
    format_streaming_table,
    format_trace_summary,
)
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.obs import TickClock, Tracer
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    RateLimitedSource,
    StreamingJoinEngine,
    StreamingPipeline,
)
from streaming_harness import assert_equivalent_runs

from bench_utils import scaled

TRACE_PATH = Path(__file__).parent / "results" / "streaming_backpressure_trace.json"

BAND = BandJoinCondition(beta=1.0)
NUM_BATCHES = 24
QUEUE = 4
ARRIVAL_SECONDS = 1.0
SERVICE_SECONDS = 4.0  # the consumer is 4x too slow


def drift_source():
    """The drifting-Zipf stream shared by every run."""
    return DriftingZipfSource(
        num_batches=NUM_BATCHES,
        tuples_per_batch=scaled(400),
        num_values=scaled(200),
        z_initial=0.2,
        z_final=1.0,
        shift_at_batch=9,
        seed=42,
    )


def adaptive_engine(tracer=None):
    """A fresh drift-adaptive engine over 8 machines."""
    policy = DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=4)
    )
    return StreamingJoinEngine(
        8,
        BAND,
        BAND_JOIN_WEIGHTS,
        policy=policy,
        sample_capacity=2048,
        sample_decay=0.7,
        seed=3,
        tracer=tracer,
    )


def piped(backpressure, queue, tracer=None):
    """One pipelined run of the stream on the simulated clock."""
    return StreamingPipeline(
        RateLimitedSource(drift_source(), ARRIVAL_SECONDS),
        adaptive_engine(tracer),
        queue_batches=queue,
        backpressure=backpressure,
        mode="simulated",
        service_model=SERVICE_SECONDS,
    ).run()


def test_backpressure_policies_under_a_slow_consumer(benchmark, report):
    tracers = []

    def run_all():
        # The block@4 run is traced with a deterministic tick clock: the
        # bit-identity check against the untraced sync run below is then
        # also the proof that tracing is behaviourally invisible.
        tracer = Tracer(clock=TickClock())
        tracers.append(tracer)
        return {
            "sync": adaptive_engine().run(drift_source()),
            "buffer": piped("block", None),
            "block@4": piped("block", QUEUE, tracer=tracer),
            "shed@4": piped("shed", QUEUE),
            "coalesce@4": piped("coalesce", QUEUE),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    tracer = tracers[-1]
    report(
        "streaming_backpressure",
        "Backpressured pipeline vs a 4x-slow consumer (J = 8, "
        f"queue = {QUEUE} batches, simulated clock)",
        format_streaming_table(results, golden=True)
        + "\n\nPer-batch max-machine load, resident state and queue depth\n\n"
        + format_streaming_batches(results)
        + "\n\nblock@4 trace summary (deterministic tick clock; "
        "seconds are ticks)\n\n"
        + format_trace_summary(tracer),
    )

    sync = results["sync"]
    buffered = results["buffer"]
    block = results["block@4"]
    shed = results["shed@4"]
    coalesce = results["coalesce@4"]

    # Lossless backpressure is invisible to the join: the block run is
    # behaviourally bit-identical to the synchronous engine -- outputs,
    # loads, evictions, migration plans -- whatever the queue did.
    assert_equivalent_runs(block, sync)

    # Every run's engine verified the exact join of the batches it
    # received (shed included: its history is smaller, not wrong).
    assert all(r.output_correct for r in results.values())

    # The unbounded buffer "solves" backpressure by leaking: its queue
    # grows linearly with the consumer's lag (the producer finishes at
    # t=24 while the consumer is ~6 batches in), far past any bound.
    assert buffered.producer_stall_seconds == 0.0
    assert buffered.peak_queue_depth >= (3 * NUM_BATCHES) // 4 - 2
    assert buffered.peak_queue_depth > 3 * QUEUE

    # The bounded lossless queue keeps memory flat and pays with stall:
    # the producer loses about (SERVICE - ARRIVAL) seconds per batch, a
    # stall that grows linearly with the stream.
    assert block.peak_queue_depth <= QUEUE
    steady = (SERVICE_SECONDS - ARRIVAL_SECONDS) * (NUM_BATCHES - 2 * QUEUE)
    assert block.producer_stall_seconds >= steady
    # ... and the stall accrues throughout: the second half of the
    # consumed stream still stalls the producer (it is not a start-up
    # transient).
    second_half = block.batches[NUM_BATCHES // 2 :]
    assert sum(b.producer_stall_seconds for b in second_half) >= steady / 3

    # Shedding keeps both flat -- no queue growth, no stall -- and drops
    # roughly 3 of every 4 batches; output can only shrink.
    assert shed.peak_queue_depth <= QUEUE
    assert shed.producer_stall_seconds == 0.0
    assert shed.total_batches_shed >= NUM_BATCHES // 2
    assert shed.num_batches + shed.total_batches_shed == NUM_BATCHES
    assert shed.total_output < sync.total_output

    # Coalescing keeps both flat *without* losing anything: every tuple is
    # consumed, in fewer, larger steps, and over the unbounded window the
    # total output is exactly the synchronous engine's.
    assert coalesce.peak_queue_depth <= QUEUE
    assert coalesce.producer_stall_seconds == 0.0
    assert coalesce.total_tuples_shed == 0
    assert coalesce.total_tuples == sync.total_tuples
    assert coalesce.num_batches < NUM_BATCHES
    assert coalesce.total_output == sync.total_output

    # Every simulated queue quantity is tagged with its clock domain, and
    # the sync run (no queue at all) stays fully real-clock.
    assert all(
        r.clock_domains == "queue:sim"
        for name, r in results.items()
        if name != "sync"
    )
    assert sync.clock_domains == "real"

    # Export the block@4 span tree as a Chrome trace, prove it is
    # well-formed trace-event JSON, and leave it in benchmarks/results/
    # for CI to upload (and humans to open in https://ui.perfetto.dev).
    TRACE_PATH.parent.mkdir(exist_ok=True)
    tracer.write_chrome_trace(str(TRACE_PATH))
    payload = json.loads(TRACE_PATH.read_text(encoding="utf-8"))
    events = payload["traceEvents"]
    assert isinstance(events, list) and events
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event)
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert "cat" in event
            assert event["ts"] >= 0
            assert event["dur"] >= 0
    names = {event["name"] for event in events}
    assert {"run", "batch", "route", "incremental_count", "drift_decide"} <= names
    # One complete event per recorded span, plus track-name metadata.
    assert sum(1 for e in events if e["ph"] == "X") == len(tracer.spans)
