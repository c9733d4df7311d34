"""`repro.obs` — tracing and metrics for the streaming stack.

Three small, dependency-free building blocks:

* :mod:`repro.obs.trace` — hierarchical spans (``run → batch → {route,
  incremental_count, join, evict, compact, drift_decide, migrate}``) with an
  injectable clock, a zero-overhead no-op tracer as the default, and
  exporters to JSONL event logs and Chrome-trace/Perfetto JSON.
* :mod:`repro.obs.clock` — the single sanctioned home for wall-clock
  reads (``perf_counter``/``monotonic``/``wall_time``); everything outside
  this package that wants the time imports it from here, a boundary the
  static analyzer's ``DET001`` rule enforces.
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry with a
  periodic snapshot reporter, the single home for the run-time quantities
  that used to live only as ad-hoc fields scattered across
  :class:`~repro.streaming.metrics.BatchMetrics` and
  :class:`~repro.streaming.metrics.StreamRunResult`.

Everything here is *observation only*: enabling a tracer or a registry on a
:class:`~repro.streaming.engine.StreamingJoinEngine` never touches the
engine's random generator, its routing, counting or migration arithmetic —
traced runs are behaviourally bit-identical to untraced runs, which
``tests/test_obs.py`` pins with a hypothesis property.  See
``docs/observability.md`` for the full narrative.
"""

from repro import lazy_exports

_EXPORTS = {
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "NullTracer": "repro.obs.trace",
    "NULL_TRACER": "repro.obs.trace",
    "TickClock": "repro.obs.trace",
    "summarize_spans": "repro.obs.trace",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "SnapshotReporter": "repro.obs.metrics",
    "perf_counter": "repro.obs.clock",
    "monotonic": "repro.obs.clock",
    "wall_time": "repro.obs.clock",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
