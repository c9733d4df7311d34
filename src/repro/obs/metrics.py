"""A unified counter/gauge/histogram registry with periodic snapshots.

The streaming stack accumulates run-time quantities — queue depth, producer
stalls, shed tuples, resident bytes, evictions, join seconds, pickle-channel
bytes — that historically lived only as ad-hoc fields on
:class:`~repro.streaming.metrics.BatchMetrics`.  A :class:`MetricsRegistry`
gives them one live, uniformly-typed home:

* :class:`Counter` — monotonically non-decreasing totals (tuples processed,
  batches shed, bytes pickled, join seconds);
* :class:`Gauge` — last-written level quantities (resident bytes, queue
  depth);
* :class:`Histogram` — bucketed distributions (per-batch output, per-batch
  wall seconds).

Instruments are get-or-create by name, so instrumentation points never race
over registration order, and :meth:`MetricsRegistry.snapshot` returns the
whole registry as one sorted, JSON-able dict — the payload a stats endpoint
(the ROADMAP's ``repro.service``) can serve directly.

A :class:`SnapshotReporter` attached to the registry captures snapshots
periodically: the engine pulses the registry once per processed batch, and
every ``every`` pulses the reporter stores a numbered snapshot (and can
dump the series as JSONL).  Like tracing, the registry is observation only:
updating instruments never touches an engine's random generator, so metered
runs are behaviourally bit-identical to unmetered runs.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Callable, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SnapshotReporter",
]


class Counter:
    """A monotonically non-decreasing total (float-valued)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def to_snapshot(self) -> dict[str, object]:
        """This instrument's entry in a registry snapshot."""
        return {"type": "counter", "value": self._value}


class Gauge:
    """A level quantity: the last value written wins."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self._value = float(value)

    @property
    def value(self) -> float:
        """The last value written (0.0 before any write)."""
        return self._value

    def to_snapshot(self) -> dict[str, object]:
        """This instrument's entry in a registry snapshot."""
        return {"type": "gauge", "value": self._value}


#: Default histogram bucket upper bounds: ten powers of ten spanning
#: microseconds-to-hours style ranges as well as count-like quantities.
DEFAULT_BUCKETS = (
    1e-3,
    1e-2,
    1e-1,
    1.0,
    1e1,
    1e2,
    1e3,
    1e4,
    1e5,
    1e6,
)


class Histogram:
    """A fixed-bucket distribution with exact sum/count/min/max.

    Parameters
    ----------
    name:
        Registry name of the instrument.
    buckets:
        Strictly increasing upper bounds; an implicit overflow bucket
        catches everything above the last bound.
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, name: str, buckets: "tuple[float, ...]" = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(
            later <= earlier for earlier, later in zip(bounds, bounds[1:])
        ):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._counts[bisect_right(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (``nan`` when empty)."""
        return self._sum / self._count if self._count else float("nan")

    def to_snapshot(self) -> dict[str, object]:
        """This instrument's entry in a registry snapshot."""
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
        }


#: The instrument types a registry can hold; ``_get_or_create`` preserves
#: the concrete type requested by ``counter``/``gauge``/``histogram``.
_InstrumentT = TypeVar("_InstrumentT", bound="Counter | Gauge | Histogram")


class MetricsRegistry:
    """Named instruments, created on first use, snapshottable as one dict.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call under a name fixes the instrument's type, and a later call under
    the same name with a different type raises instead of silently
    shadowing.  :meth:`pulse` advances the registry's reporting period —
    the streaming engine pulses once per processed batch — notifying every
    attached :class:`SnapshotReporter`.
    """

    def __init__(self) -> None:
        self._instruments: "dict[str, Counter | Gauge | Histogram]" = {}
        self._reporters: "list[SnapshotReporter]" = []
        self._pulses = 0

    def _get_or_create(
        self, name: str, factory: "Callable[[], _InstrumentT]", kind: "type[_InstrumentT]"
    ) -> "_InstrumentT":
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: "tuple[float, ...] | None" = None
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` only applies on creation; a later lookup returns the
        existing instrument with its original buckets.
        """
        return self._get_or_create(
            name,
            lambda: Histogram(name, buckets if buckets is not None else DEFAULT_BUCKETS),
            Histogram,
        )

    @property
    def names(self) -> "list[str]":
        """The registered instrument names, sorted."""
        return sorted(self._instruments)

    @property
    def pulses(self) -> int:
        """Reporting periods elapsed (one per engine-processed batch)."""
        return self._pulses

    def attach(self, reporter: "SnapshotReporter") -> "SnapshotReporter":
        """Subscribe a reporter to this registry's pulses; returns it."""
        self._reporters.append(reporter)
        return reporter

    def pulse(self) -> None:
        """Advance one reporting period and notify attached reporters."""
        self._pulses += 1
        for reporter in self._reporters:
            reporter.on_pulse(self._pulses, self)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """The whole registry as one sorted, JSON-able dict."""
        return {
            name: self._instruments[name].to_snapshot()
            for name in sorted(self._instruments)
        }


class SnapshotReporter:
    """Capture a registry snapshot every ``every`` pulses.

    Attach with ``registry.attach(SnapshotReporter(every=4))``; the engine
    pulses the registry once per processed batch, so ``every=4`` keeps one
    snapshot per four batches.  The collected series is the shape a polling
    stats endpoint serves: ``latest`` for the current state,
    :meth:`write_jsonl` for the whole history.
    """

    def __init__(self, every: int = 1) -> None:
        if every <= 0:
            raise ValueError("every must be positive")
        self.every = every
        self.snapshots: "list[tuple[int, dict[str, dict[str, object]]]]" = []

    def on_pulse(self, pulse: int, registry: MetricsRegistry) -> None:
        """Registry callback: snapshot when the period boundary is reached."""
        if pulse % self.every == 0:
            self.snapshots.append((pulse, registry.snapshot()))

    @property
    def latest(self) -> "dict[str, dict[str, object]] | None":
        """The most recent snapshot (``None`` before the first)."""
        return self.snapshots[-1][1] if self.snapshots else None

    def write_jsonl(self, path: str) -> None:
        """One ``{"pulse": n, "metrics": {...}}`` JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for pulse, snapshot in self.snapshots:
                handle.write(
                    json.dumps(
                        {"pulse": pulse, "metrics": snapshot}, sort_keys=True
                    )
                )
                handle.write("\n")
