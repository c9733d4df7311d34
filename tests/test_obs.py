"""The observability layer: spans, metrics, profiling -- and its invisibility.

Three families of guarantees:

* **the instruments themselves** -- span nesting, deterministic tick
  clocks, exporter well-formedness (JSONL and Chrome-trace), registry
  typing, snapshot cadence;
* **invisibility** -- a traced-and-metered engine run is behaviourally
  bit-identical to an untraced one (a hypothesis property over windows,
  policies and counting modes), the no-op tracer's per-span overhead is
  bounded on a hot loop, and a simulated pipeline traced with a
  :class:`~repro.obs.trace.TickClock` exports a **byte-identical** trace
  on every replay;
* **serialization profiling** -- under the sticky (process) backend every
  counted batch reports nonzero pickle-channel bytes, which surface in
  :class:`~repro.streaming.metrics.BatchMetrics` and the streaming tables,
  while the simulated backend's runs render ``-`` there (``None``, never a
  fake ``0``).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.reporting import (
    format_streaming_batches,
    format_streaming_table,
    format_trace_summary,
)
from repro.core.weights import WeightFunction
from repro.engine.executor import pickled_nbytes
from repro.joins.conditions import BandJoinCondition
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    SnapshotReporter,
    TickClock,
    Tracer,
    summarize_spans,
)
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    RateLimitedSource,
    StaticEWHPolicy,
    StreamingJoinEngine,
    StreamingPipeline,
    make_backend,
)
from streaming_harness import assert_equivalent_runs

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)


def make_source(seed: int = 7, num_batches: int = 6) -> DriftingZipfSource:
    """A short drifting stream with integer-valued (exact) keys."""
    return DriftingZipfSource(
        num_batches=num_batches, tuples_per_batch=150, num_values=48,
        z_initial=0.2, z_final=1.1, shift_at_batch=3, seed=seed,
    )


def make_engine(
    adaptive: bool = True,
    window=None,
    backend=None,
    tracer=None,
    metrics=None,
) -> StreamingJoinEngine:
    """A small engine with every observability knob exposed."""
    if adaptive:
        policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
        )
    else:
        policy = StaticEWHPolicy()
    return StreamingJoinEngine(
        4,
        BAND,
        UNIT,
        policy=policy,
        backend=backend,
        window=window,
        sample_capacity=512,
        sample_decay=0.8,
        seed=0,
        tracer=tracer,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# Clocks and spans
# ----------------------------------------------------------------------
class TestTickClock:
    def test_advances_one_tick_per_call(self):
        clock = TickClock(tick=0.5)
        assert [clock(), clock(), clock()] == [0.0, 0.5, 1.0]

    def test_rejects_non_positive_tick(self):
        with pytest.raises(ValueError):
            TickClock(tick=0.0)


class TestTracer:
    def test_spans_nest_and_carry_args(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("run", category="run", scheme="x"):
            with tracer.span("batch", category="batch", index=3) as batch:
                batch.set(output_delta=17)
        spans = tracer.spans
        # Inner span finishes first.
        assert [s.name for s in spans] == ["batch", "run"]
        batch, run = spans
        assert batch.depth == 1 and run.depth == 0
        assert batch.args == {"index": 3, "output_delta": 17}
        assert run.args == {"scheme": "x"}
        assert run.start <= batch.start
        assert batch.end <= run.end

    def test_record_places_span_on_named_track(self):
        tracer = Tracer(clock=TickClock())
        tracer.record(
            "task", 0.25, category="worker", start=1.0, tid=4242,
            thread_name="worker 4242", task=1,
        )
        (span,) = tracer.spans
        assert (span.tid, span.start, span.duration) == (4242, 1.0, 0.25)
        trace = tracer.to_chrome_trace()
        names = {
            event["args"]["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "M"
        }
        assert {"engine", "worker 4242"} <= names

    def test_jsonl_export_is_one_parseable_object_per_span(self):
        tracer = Tracer(clock=TickClock())
        with tracer.span("a"):
            pass
        with tracer.span("b", index=1):
            pass
        lines = tracer.to_jsonl().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [entry["name"] for entry in parsed] == ["a", "b"]
        assert parsed[1]["args"] == {"index": 1}

    def test_chrome_trace_is_wellformed(self, tmp_path):
        tracer = Tracer(clock=TickClock())
        with tracer.span("run", category="run"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        payload = json.loads(path.read_text(encoding="utf-8"))
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        (event,) = complete
        # Timestamps and durations are microseconds under "X" events.
        assert event["ts"] == pytest.approx(0.0)
        assert event["dur"] == pytest.approx(1.0)  # one 1e-6 s tick
        assert event["cat"] == "run" and event["pid"] == 1

    def test_null_tracer_is_inert_but_exports_valid_documents(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("batch", index=1) as span:
            span.set(ignored=True)
        tracer.record("task", 1.0, tid=7)
        assert tracer.spans == []
        assert tracer.to_jsonl() == ""
        assert tracer.to_chrome_trace()["traceEvents"] == []
        path = tmp_path / "empty.json"
        tracer.write_chrome_trace(str(path))
        assert json.loads(path.read_text(encoding="utf-8"))["traceEvents"] == []

    def test_null_tracer_shares_one_span_singleton(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b", index=1)

    def test_summarize_spans_aggregates_by_label(self):
        tracer = Tracer(clock=TickClock())
        for _ in range(3):
            with tracer.span("batch", category="batch"):
                with tracer.span("route"):
                    pass
        rows = summarize_spans(tracer.spans)
        by_name = {row["name"]: row for row in rows}
        assert by_name["batch"]["count"] == 3
        assert by_name["route"]["count"] == 3
        # batch spans contain their route children, so they total more.
        assert by_name["batch"]["total_seconds"] > by_name["route"]["total_seconds"]
        assert rows[0]["name"] == "batch"


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_is_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2.0)
        assert gauge.value == 2.0

    def test_histogram_buckets_and_moments(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 5.0):
            histogram.observe(value)
        snapshot = histogram.to_snapshot()
        assert snapshot["counts"] == [1, 2, 1]
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(15.125)
        assert snapshot["min"] == 0.5 and snapshot["max"] == 50.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_registry_is_get_or_create_with_type_safety(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        assert registry.names == ["x"]

    def test_snapshot_is_sorted_and_json_able(self):
        registry = MetricsRegistry()
        registry.counter("b.total").inc(2)
        registry.gauge("a.level").set(1)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a.level", "b.total"]
        json.dumps(snapshot)  # must not raise

    def test_reporter_snapshots_every_n_pulses(self):
        registry = MetricsRegistry()
        reporter = registry.attach(SnapshotReporter(every=2))
        for pulse in range(5):
            registry.counter("ticks").inc()
            registry.pulse()
        assert [pulse for pulse, _ in reporter.snapshots] == [2, 4]
        assert reporter.latest["ticks"]["value"] == 4.0
        assert registry.pulses == 5

    def test_reporter_series_exports_as_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        reporter = registry.attach(SnapshotReporter())
        registry.counter("n").inc()
        registry.pulse()
        path = tmp_path / "series.jsonl"
        reporter.write_jsonl(str(path))
        (line,) = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line) == {
            "pulse": 1,
            "metrics": {"n": {"type": "counter", "value": 1.0}},
        }


# ----------------------------------------------------------------------
# Invisibility: observing a run never changes it
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    window=st.sampled_from([None, "batches:3", "tuples:400", "decay:0.9"]),
    adaptive=st.booleans(),
)
def test_tracing_and_metering_are_behaviourally_invisible(
    seed, window, adaptive
):
    """Traced+metered runs are bit-identical to bare runs, whatever the
    window or policy -- observability never touches the engine's RNG or
    arithmetic."""
    source = make_source(seed)
    bare = make_engine(adaptive=adaptive, window=window).run(source)
    registry = MetricsRegistry()
    registry.attach(SnapshotReporter(every=2))
    observed = make_engine(
        adaptive=adaptive,
        window=window,
        tracer=Tracer(clock=TickClock()),
        metrics=registry,
    ).run(source)
    assert_equivalent_runs(observed, bare)
    assert registry.counter("stream.batches").value == observed.num_batches


def test_simulated_pipeline_trace_is_byte_identical_across_runs(tmp_path):
    """A deterministic pipeline traced with a tick clock golden-files: two
    independent replays export the same bytes, JSONL and Chrome alike."""

    def traced_run(path):
        tracer = Tracer(clock=TickClock())
        pipeline = StreamingPipeline(
            RateLimitedSource(make_source(), 1.0),
            make_engine(adaptive=True, tracer=tracer),
            queue_batches=2,
            backpressure="block",
            mode="simulated",
            service_model=3.0,
        )
        pipeline.run()
        tracer.write_chrome_trace(str(path))
        return tracer.to_jsonl(), path.read_bytes()

    first_jsonl, first_chrome = traced_run(tmp_path / "a.json")
    second_jsonl, second_chrome = traced_run(tmp_path / "b.json")
    assert first_jsonl == second_jsonl
    assert first_chrome == second_chrome
    assert first_jsonl  # non-trivial: the trace actually has spans


def test_null_tracer_overhead_is_bounded_on_a_hot_loop():
    """The no-op tracer costs a method call per span -- generous bound so
    the test never flakes, but a regression to clock-reads-per-span or
    allocation-per-span would still blow it."""
    iterations = 100_000

    started = time.perf_counter()
    for index in range(iterations):
        with NULL_TRACER.span("hot", index=index):
            pass
    elapsed = time.perf_counter() - started
    # ~0.2 us/span observed; 10 us/span is two orders of magnitude slack.
    assert elapsed < iterations * 10e-6


def test_engine_span_taxonomy_covers_every_stage():
    tracer = Tracer(clock=TickClock())
    make_engine(
        adaptive=True, window="batches:2", tracer=tracer
    ).run(make_source())
    names = {span.name for span in tracer.spans}
    assert {
        "run",
        "batch",
        "route",
        "incremental_count",
        "evict",
        "compact",
        "drift_decide",
    } <= names
    run_spans = [span for span in tracer.spans if span.name == "run"]
    assert len(run_spans) == 1 and run_spans[0].depth == 0


# ----------------------------------------------------------------------
# Serialization profiling and table rendering
# ----------------------------------------------------------------------
def test_pickled_nbytes_matches_real_pickle_size():
    import pickle

    payload = {"keys": np.arange(100.0), "label": "x"}
    assert pickled_nbytes(payload) == len(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )


def test_simulated_runs_report_no_serialization_channel():
    result = make_engine().run(make_source())
    assert result.total_bytes_pickled is None
    assert all(batch.bytes_pickled is None for batch in result.batches)
    table = format_streaming_table({"sim": result})
    row = table.splitlines()[2]
    assert "pickled KB" in table.splitlines()[0]
    assert " -  " in row  # the pickled KB cell renders "-", not 0
    # Without any profiled run, the per-batch table adds no pickled column.
    assert "pickled KB" not in format_streaming_batches({"sim": result})


@pytest.mark.multiprocess
def test_multiprocess_runs_charge_pickle_bytes_per_batch():
    """Every counted batch ships control messages through the sticky
    workers' pickle channel (and its arrays through shared memory); the
    engine charges those bytes onto BatchMetrics and the tables surface
    them."""
    tracer = Tracer()
    with make_backend("sticky", max_workers=2) as backend:
        result = make_engine(backend=backend, tracer=tracer).run(make_source())
    counted = [b for b in result.batches if b.bytes_pickled is not None]
    assert counted, "no batch went through the serialization channel"
    assert all(batch.bytes_pickled > 0 for batch in counted)
    assert result.total_bytes_pickled == sum(b.bytes_pickled for b in counted)
    assert result.total_bytes_unpickled is not None
    assert all(batch.bytes_shm > 0 for batch in counted)

    table = format_streaming_table({"mp": result})
    header, _, row = table.splitlines()[:3]
    pickled_cell = row[header.index("pickled KB"):].split()[0]
    assert pickled_cell not in ("-", "0.0")
    batches_table = format_streaming_batches({"mp": result})
    assert "mp pickled KB" in batches_table.splitlines()[0]

    # Worker spans were stitched under the dispatching batch, one Chrome
    # track per worker pid.
    worker_spans = [s for s in tracer.spans if s.category == "worker"]
    assert worker_spans
    assert all(span.tid > 0 for span in worker_spans)
    assert len({span.tid for span in worker_spans}) == 2


def test_trace_summary_renders_header_for_empty_trace():
    table = format_trace_summary(NULL_TRACER)
    assert table.splitlines()[0].startswith("category")
    assert len(table.splitlines()) == 2  # header + rule, no rows


def test_trace_summary_orders_by_total_time():
    tracer = Tracer(clock=TickClock())
    make_engine(tracer=tracer).run(make_source())
    table = format_trace_summary(tracer)
    lines = table.splitlines()
    assert lines[2].split()[1] == "run"  # the root span dominates


# ----------------------------------------------------------------------
# Clock domains
# ----------------------------------------------------------------------
def test_clock_domains_tag_simulated_queue_time():
    sync = make_engine().run(make_source())
    assert sync.clock_domains == "real"
    assert sync.queue_clock is None
    assert all(b.queue_clock is None for b in sync.batches)

    piped = StreamingPipeline(
        RateLimitedSource(make_source(), 1.0),
        make_engine(),
        queue_batches=2,
        backpressure="block",
        mode="simulated",
        service_model=2.0,
    ).run()
    assert piped.queue_clock == "simulated"
    assert piped.clock_domains == "queue:sim"
    assert all(b.queue_clock == "simulated" for b in piped.batches)
    table = format_streaming_table({"sync": sync, "piped": piped})
    header = table.splitlines()[0]
    assert "clock" in header
    column = header.index("clock")
    cells = [line[column:].split()[0] for line in table.splitlines()[2:]]
    assert cells == ["real", "queue:sim"]
