"""Hierarchical span tracing with pluggable clocks and exporters.

A :class:`Tracer` records *spans* — named, timed intervals that nest — as
plain data:  the streaming engine opens a ``run`` span, a ``batch`` span per
micro-batch, and child spans for each processing stage (``route``,
``incremental_count``, ``evict``, ``compact``, ``drift_decide``,
``migrate``).  Finished spans are held in memory and exported on demand:

* :meth:`Tracer.write_jsonl` — one JSON object per span, in finish order,
  for grepping and ad-hoc analysis;
* :meth:`Tracer.write_chrome_trace` — the Chrome trace-event JSON format,
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev for a flame
  view of where batch time actually goes.

Time comes from an injectable ``clock`` (default
:func:`time.perf_counter`).  A deterministic pipeline — ``mode="simulated"``
plus the :class:`~repro.streaming.backends.SimulatedBackend` — traced with a
:class:`TickClock` produces a **byte-identical** trace on every run, so
traces can be golden-filed and diffed like any other output.

The default tracer everywhere is :data:`NULL_TRACER`, a no-op whose
``span()`` returns a shared singleton context manager: no clock reads, no
allocation, no list append.  Instrumented code pays one method call per
span, which a smoke test in ``tests/test_obs.py`` bounds on a hot loop.

Tracing is observation only: a tracer never touches a random generator or
any engine arithmetic, so traced runs are behaviourally bit-identical to
untraced runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TickClock",
    "summarize_spans",
]

#: The engine's reserved Chrome-trace thread id (worker spans use pids).
ENGINE_TID = 0


class TickClock:
    """A deterministic clock: each call advances by a fixed tick.

    Two runs that make the same sequence of clock calls read the same
    sequence of times, so a tracer driven by a :class:`TickClock` over a
    deterministic pipeline (``mode="simulated"``, simulated backend) emits a
    byte-identical trace every run.  The tick defaults to one microsecond,
    which renders readably in Perfetto's timeline.

    Parameters
    ----------
    tick:
        Seconds to advance per call (must be positive).
    """

    def __init__(self, tick: float = 1e-6) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.tick = tick
        self._now = 0.0

    def __call__(self) -> float:
        """Return the current time and advance by one tick."""
        now = self._now
        self._now += self.tick
        return now


@dataclass
class Span:
    """One finished, timed interval.

    Attributes
    ----------
    name:
        The span's label (``"batch"``, ``"route"``, ...).
    category:
        Coarse grouping for exporters and summaries (``"run"``,
        ``"batch"``, ``"stage"``, ``"worker"``).
    start:
        Clock reading when the span opened, in seconds.
    duration:
        Seconds between open and close (never negative).
    depth:
        Nesting depth at open time (``0`` for a top-level span).
    tid:
        Chrome-trace thread id: :data:`ENGINE_TID` for engine spans, a
        worker's OS pid for stitched worker-process spans.
    args:
        Deterministic key/value annotations (batch index, output delta,
        bytes pickled, ...) carried into every exporter.
    """

    name: str
    category: str
    start: float
    duration: float
    depth: int = 0
    tid: int = ENGINE_TID
    args: dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """Clock reading when the span closed."""
        return self.start + self.duration


class _ActiveSpan:
    """A span that is currently open; also the ``with`` context manager."""

    __slots__ = ("_tracer", "name", "category", "start", "depth", "args")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        start: float,
        depth: int,
        args: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.start = start
        self.depth = depth
        self.args = args

    def set(self, **args: object) -> None:
        """Attach annotations to the span (merged into its ``args``)."""
        self.args.update(args)

    def __enter__(self) -> "_ActiveSpan":
        """Return the active span so callers can annotate it."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Close the span and hand it to the tracer."""
        self._tracer._finish(self)


class _NullSpan:
    """The shared no-op span: every protocol method does nothing."""

    __slots__ = ()

    #: No-op spans report a start so stitching code can run unconditionally.
    start = 0.0

    def set(self, **args: object) -> None:
        """Discard the annotations."""

    def __enter__(self) -> "_NullSpan":
        """Return the shared singleton."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Do nothing on exit."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collect hierarchical spans against an injectable clock.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  Defaults to
        :func:`time.perf_counter`; pass a :class:`TickClock` for
        deterministic, byte-identical traces of simulated pipelines.

    One tracer may observe several sequential runs (the streaming example
    traces three engines into one timeline); concurrent use from several
    threads is not supported — give each pipeline its own tracer.
    """

    #: Lets instrumented code skip building expensive annotations.
    enabled: bool = True

    def __init__(
        self, clock: "Callable[[], float]" = time.perf_counter
    ) -> None:
        self._clock = clock
        self._spans: list[Span] = []
        self._depth = 0
        self._thread_names: dict[int, str] = {ENGINE_TID: "engine"}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "stage", **args: object) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("batch", index=3) as s:``.

        The returned context manager closes the span (reading the clock
        again) when the block exits; ``s.set(key=value)`` attaches
        annotations discovered mid-block.
        """
        span = _ActiveSpan(self, name, category, self._clock(), self._depth, args)
        self._depth += 1
        return span

    def _finish(self, active: _ActiveSpan) -> None:
        """Close an active span and store it as finished data."""
        self._depth -= 1
        self._spans.append(
            Span(
                name=active.name,
                category=active.category,
                start=active.start,
                duration=max(self._clock() - active.start, 0.0),
                depth=active.depth,
                tid=ENGINE_TID,
                args=active.args,
            )
        )

    def record(
        self,
        name: str,
        duration: float,
        category: str = "stage",
        start: "float | None" = None,
        tid: int = ENGINE_TID,
        thread_name: "str | None" = None,
        **args: object,
    ) -> None:
        """Store an externally-timed span (e.g. a worker's reported seconds).

        ``start`` defaults to the current clock reading; the engine passes
        the enclosing join span's start so worker-process spans sit
        *under* the batch that dispatched them.  ``tid`` places the span on
        its own Chrome-trace track (workers use their OS pid) and
        ``thread_name`` labels that track in the exported trace.
        """
        if start is None:
            start = self._clock()
        if thread_name is not None:
            self._thread_names.setdefault(tid, thread_name)
        self._spans.append(
            Span(
                name=name,
                category=category,
                start=start,
                duration=max(float(duration), 0.0),
                depth=self._depth,
                tid=tid,
                args=args,
            )
        )

    @property
    def spans(self) -> "list[Span]":
        """The finished spans, in finish order."""
        return list(self._spans)

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per finished span, in finish order.

        Keys are sorted and floats written verbatim, so a deterministic
        clock yields byte-identical output across runs.
        """
        lines: list[str] = []
        for span in self._spans:
            lines.append(
                json.dumps(
                    {
                        "name": span.name,
                        "cat": span.category,
                        "start": span.start,
                        "dur": span.duration,
                        "depth": span.depth,
                        "tid": span.tid,
                        "args": span.args,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> None:
        """Write :meth:`to_jsonl` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    def to_chrome_trace(self) -> dict[str, object]:
        """The trace as a Chrome trace-event JSON object.

        Spans become complete (``"ph": "X"``) duration events with
        microsecond timestamps; nesting is implied by time containment on
        each track, which is how ``chrome://tracing`` and Perfetto render
        flame views.  Named tracks get ``thread_name`` metadata events.
        """
        events: list[dict[str, object]] = []
        for tid, label in sorted(self._thread_names.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
        for span in self._spans:
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 1,
                    "tid": span.tid,
                    "args": span.args,
                }
            )
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` to ``path`` as deterministic JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, sort_keys=True)
            handle.write("\n")


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    ``span()`` hands back one shared context-manager singleton — no clock
    read, no allocation — so instrumenting a hot loop with the null tracer
    costs a method call per span and nothing else.  Exporters yield empty
    traces rather than raising, so reporting code need not special-case the
    default.
    """

    enabled: bool = False

    def span(self, name: str, category: str = "stage", **args: object) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def record(self, name: str, duration: float, **kwargs: object) -> None:
        """Discard the externally-timed span."""

    @property
    def spans(self) -> "list[Span]":
        """Always empty."""
        return []

    def to_jsonl(self) -> str:
        """An empty JSONL document."""
        return ""

    def write_jsonl(self, path: str) -> None:
        """Write an empty JSONL document to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("")

    def to_chrome_trace(self) -> dict[str, object]:
        """An empty (but well-formed) Chrome trace."""
        return {"displayTimeUnit": "ms", "traceEvents": []}

    def write_chrome_trace(self, path: str) -> None:
        """Write an empty Chrome trace to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, sort_keys=True)
            handle.write("\n")


#: The process-wide no-op tracer used wherever no tracer is passed.
NULL_TRACER = NullTracer()


def summarize_spans(spans: "Iterable[Span]") -> "list[dict[str, Any]]":
    """Aggregate spans by (category, name): count, total/mean/max seconds.

    Returns one dict per distinct span label, ordered by descending total
    time — the input to
    :func:`repro.bench.reporting.format_trace_summary`.
    """
    totals: dict[tuple[str, str], dict[str, Any]] = {}
    for span in spans:
        key = (span.category, span.name)
        entry = totals.setdefault(
            key,
            {
                "category": span.category,
                "name": span.name,
                "count": 0,
                "total_seconds": 0.0,
                "max_seconds": 0.0,
            },
        )
        entry["count"] += 1
        entry["total_seconds"] += span.duration
        entry["max_seconds"] = max(entry["max_seconds"], span.duration)
    rows = sorted(
        totals.values(), key=lambda row: (-row["total_seconds"], row["name"])
    )
    for row in rows:
        row["mean_seconds"] = row["total_seconds"] / row["count"]
    return rows
