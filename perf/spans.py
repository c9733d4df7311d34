"""The harness's own span log for traced runs.

Spans are recorded here, from the benchmark's files, around the calls into
each layer of the program; nothing under ``src/`` is instrumented.  They are
kept in memory and written out once, when the traced run ends, as JSON lines
(``name, start, end, id, parent, pass``) and as a Chrome trace.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

__all__ = ["SpanLog"]


class SpanLog:
    """Nested, timed spans; one log per traced run."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._open: "list[int]" = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str, **args):
        """Time a block; the record is yielded so callers can read its time."""
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "pass": self.pass_id,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "args": args,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def adopt(self, name: str, start: float, duration: float, parent: int, **args) -> None:
        """Add a span timed elsewhere (the engine's own tracer) under ``parent``."""
        self.spans.append({
            "id": len(self.spans),
            "parent": parent,
            "pass": self.pass_id,
            "name": name,
            "start": start,
            "end": start + duration,
            "args": args,
        })

    def seconds(self, name: str, pass_id: "int | None" = None) -> "list[float]":
        """Durations of every finished span called ``name`` (of one pass)."""
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and (pass_id is None or span["pass"] == pass_id)
        ]

    def write(self, jsonl_path, chrome_path) -> None:
        """Write the JSON-lines log and the Chrome trace (one track per pass)."""
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        origin = min((span["start"] for span in self.spans), default=0.0)
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": span["pass"],
                "args": span["args"],
            }
            for span in self.spans
        ]
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump({"displayTimeUnit": "ms", "traceEvents": events}, handle)
            handle.write("\n")
