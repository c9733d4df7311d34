"""Plain-text report tables mirroring the paper's tables and figure series.

The benchmark suite prints these tables so a run of
``pytest benchmarks/ --benchmark-only -s`` regenerates, in text form, the
rows and series of every table and figure of the evaluation section.
"""

from __future__ import annotations

import math

from repro.bench.experiments import ComparisonResult
from repro.bench.scalability import ScalabilityPoint
from repro.obs.trace import summarize_spans
from repro.streaming.metrics import StreamRunResult
from repro.workloads.definitions import JoinWorkload

__all__ = [
    "bucket_ratio",
    "bucket_seconds",
    "format_comparison_table",
    "format_scalability_table",
    "format_streaming_table",
    "format_streaming_batches",
    "format_table_iv",
    "format_trace_summary",
    "format_rows",
    "measured_seconds",
]


def bucket_seconds(seconds: float) -> str:
    """Render a measured wall-clock duration as a log-decade bucket.

    Golden benchmark files must be byte-stable across regenerations, but a
    measured duration churns in its trailing digits on every run (the PR 6
    follow-up touched ten golden files with pure timing noise).  A decade
    bucket (``10-100ms``) is stable across machines and runs while still
    catching order-of-magnitude regressions; exact digits remain available
    in non-golden output.  Non-finite values render ``-`` and an exact zero
    renders ``0`` (a simulated path that never tired the clock).
    """
    if not math.isfinite(seconds):
        return "-"
    if seconds == 0.0:
        return "0"
    if seconds < 0.001:
        return "<1ms"
    if seconds < 0.01:
        return "1-10ms"
    if seconds < 0.1:
        return "10-100ms"
    if seconds < 1.0:
        return "0.1-1s"
    if seconds < 10.0:
        return "1-10s"
    if seconds < 100.0:
        return "10-100s"
    return ">=100s"


def measured_seconds(seconds: float, golden: bool = False) -> str:
    """Render a measured wall-clock duration: exact live, ``-`` in a golden.

    The one place the golden-mode rule lives: a committed benchmark file
    must be byte-stable across regenerations (tier-1 leaves ``git status``
    clean), and any rendering of a measured duration -- even a
    :func:`bucket_seconds` decade -- churns when a measurement sits near a
    boundary.  Exact digits stay in the live (non-golden) output.
    """
    return "-" if golden else f"{seconds:.3f}"


def bucket_ratio(ratio: float) -> str:
    """Render a measured ratio (e.g. a speedup) as a power-of-two bucket.

    The golden-file counterpart of printing ``2.83x``: ``2-4x`` is stable
    run to run while a halved speedup still changes the bucket.  Ratios
    below one render ``<1x`` and non-finite values ``-``.
    """
    if not math.isfinite(ratio):
        return "-"
    if ratio < 1.0:
        return "<1x"
    exponent = int(math.floor(math.log2(ratio)))
    return f"{2 ** exponent}-{2 ** (exponent + 1)}x"


def format_rows(headers: list[str], rows: list[list[str]]) -> str:
    """Format a list of rows as a fixed-width text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_ratio(value: float, pattern: str = "{:.3f}") -> str:
    """Format a ratio, rendering undefined (nan/inf) values as ``-``.

    Degenerate runs -- zero batches, an empty stream, load-free batches --
    have no meaningful throughput; they must render as ``-`` rather than
    crash the table or print a claim of infinite throughput.
    """
    return pattern.format(value) if math.isfinite(value) else "-"


def format_table_iv(workloads: list[JoinWorkload]) -> str:
    """Table IV: join characteristics (input, output, output/input ratio)."""
    rows = []
    for workload in workloads:
        rows.append(
            [
                workload.name,
                workload.condition.name,
                f"{workload.num_input_tuples:,}",
                f"{workload.exact_output_size():,}",
                f"{workload.output_input_ratio():.2f}",
            ]
        )
    headers = ["join", "condition", "input tuples", "output tuples", "rho_oi"]
    return format_rows(headers, rows)


def format_comparison_table(comparisons: list[ComparisonResult]) -> str:
    """Figure 4a/4c/4h style table: one row per (workload, scheme)."""
    headers = [
        "join",
        "rho_oi",
        "scheme",
        "stats cost",
        "join cost",
        "total cost",
        "memory (tuples)",
        "max region w",
        "est. max w",
        "repl.",
        "correct",
    ]
    rows = []
    for comparison in comparisons:
        for scheme, result in comparison.results.items():
            estimated = (
                f"{result.estimated_max_weight:,.0f}"
                if result.estimated_max_weight is not None
                else "-"
            )
            rows.append(
                [
                    comparison.workload_name,
                    f"{comparison.output_input_ratio:.2f}",
                    scheme,
                    f"{result.stats_cost:,.0f}",
                    f"{result.join_cost:,.0f}",
                    f"{result.total_cost:,.0f}",
                    f"{result.memory_tuples:,}",
                    f"{result.max_region_weight:,.0f}",
                    estimated,
                    f"{result.replication_factor:.2f}",
                    "yes" if result.output_correct else "NO",
                ]
            )
    return format_rows(headers, rows)


def format_streaming_table(
    results: dict[str, StreamRunResult], golden: bool = False
) -> str:
    """Streaming-drift summary: one row per scheme over the whole stream.

    ``join s`` is the execution backend's real wall clock over the run's
    per-region joins -- the only column that depends on the backend; all the
    cost-model columns are backend-independent.  ``window`` is the window
    policy bounding the retained state, ``peak resident`` the largest
    end-of-batch state across machines (what the window bounds),
    ``peak mem KB`` the largest end-of-batch *total* engine footprint --
    join state plus key history plus live index sets, what history
    compaction bounds -- and ``evicted`` the state entries the policy
    dropped over the run.  ``correct`` is ``-`` for windowed runs: the
    full-history check does not apply once the engine deliberately forgets
    state.

    When any run went through a backpressured pipeline, four more columns
    appear: ``backpressure`` (policy @ queue bound), ``peak queue``
    (deepest the bounded queue got, in batches), ``shed`` (tuples dropped
    at the full queue) and ``stall s`` (producer time lost blocking on
    it); synchronous runs render ``-`` there.

    When any run was elastic or crash-survivable -- it took checkpoints,
    was restored from one, or resized its fleet mid-stream -- three more
    columns appear: ``ckpts``, ``restores`` and ``resizes``.  Plain runs
    keep the historical column set, so committed goldens stay byte-stable
    until a benchmark opts into elasticity.

    ``pickled KB`` is the run's total serialization tax -- bytes a
    process-backed backend shipped through its pickle channel; runs whose
    backend has no serialization channel (the in-process simulated backend)
    render ``-``, never a misleading ``0``.
    ``shm KB`` is the payload the sticky backend moved through its
    shared-memory arena instead -- the two columns together show *where*
    each run's data travelled.  ``clock`` says which clock domain each
    run's timed quantities live in: ``real`` throughout, or ``queue:sim``
    for a simulated pipeline, whose stall seconds are modeled -- so a
    table can never silently compare simulated seconds against wall-clock
    seconds.

    ``golden=True`` renders every *measured* (real-clock) duration as
    ``-``, so the table is byte-stable when committed as a benchmark
    golden -- even a :func:`bucket_seconds` decade bucket churns when a
    single measurement sits near a bucket boundary on a noisy runner.
    Durations from a simulated clock domain are exact either way (they are
    deterministic), and the exact measured values remain in the live
    (non-golden) benchmark output.
    """
    pipelined = any(
        result.backpressure is not None for result in results.values()
    )
    elastic = any(
        result.checkpoints_taken or result.restores or result.num_resizes
        for result in results.values()
    )
    headers = [
        "scheme",
        "backend",
        "window",
        "batches",
        "tuples",
        "output",
        "max mach. load",
        "latency cost",
        "imbalance",
        "migrated",
        "rebuilds",
        "peak resident",
        "peak mem KB",
        "evicted",
    ]
    if pipelined:
        headers += ["backpressure", "peak queue", "shed", "stall s"]
    if elastic:
        headers += ["ckpts", "restores", "resizes"]
    headers += [
        "throughput",
        "join s",
        "pickled KB",
        "shm KB",
        "clock",
        "correct",
    ]
    rows = []
    for scheme, result in results.items():
        hide_stall = golden and result.queue_clock != "simulated"
        row = [
            scheme,
            result.backend,
            result.window,
            str(result.num_batches),
            f"{result.total_tuples:,}",
            f"{result.total_output:,}",
            f"{result.max_machine_load:,.0f}",
            f"{result.latency_cost:,.0f}",
            f"{result.load_imbalance:.2f}",
            f"{result.total_migrated:,}",
            str(result.num_repartitions),
            f"{result.peak_resident_tuples:,}",
            f"{result.peak_resident_bytes / 1024:,.0f}",
            f"{result.total_evicted:,}",
        ]
        if pipelined:
            if result.backpressure is None:
                row += ["-", "-", "-", "-"]
            else:
                bound = (
                    "inf"
                    if result.queue_batches is None
                    else str(result.queue_batches)
                )
                row += [
                    f"{result.backpressure}@{bound}",
                    f"{result.peak_queue_depth:,}",
                    f"{result.total_tuples_shed:,}",
                    measured_seconds(
                        result.producer_stall_seconds, golden=hide_stall
                    ),
                ]
        if elastic:
            row += [
                str(result.checkpoints_taken),
                str(result.restores),
                str(result.num_resizes),
            ]
        row += [
            _format_ratio(result.mean_throughput),
            measured_seconds(result.join_seconds, golden=golden),
            "-"
            if result.total_bytes_pickled is None
            else f"{result.total_bytes_pickled / 1024:,.1f}",
            "-"
            if result.total_bytes_shm is None
            else f"{result.total_bytes_shm / 1024:,.1f}",
            result.clock_domains,
            "-"
            if result.output_correct is None
            else ("yes" if result.output_correct else "NO"),
        ]
        rows.append(row)
    return format_rows(headers, rows)


def format_streaming_batches(results: dict[str, StreamRunResult]) -> str:
    """Per-batch max-machine-load, resident-state and memory series, side by side.

    One ``max load``, one ``resident`` (end-of-batch retained state
    entries), one ``mem KB`` (end-of-batch total footprint: state + key
    history + live sets) and one ``repart.`` column per scheme -- plus one
    ``queue`` column per scheme (queue depth at the batch's pop) when any
    run went through a backpressured pipeline.  Rows are aligned by the
    source's ``batch_index``, not by position, so schemes that consumed
    different subsets of the stream -- a run that stopped early, a
    pipeline that shed batches or merged them into super-batches -- line
    up against the same source batch, with blank cells where a scheme
    never processed that index (a coalesced super-batch sits on its last
    constituent's index).  An empty result set renders the header only
    instead of crashing.

    When any run measured its serialization channel, one ``pickled KB``
    column per scheme appears too (the batch's pickle-channel bytes under
    a process-backed backend); batches with no measurement render ``-``,
    so mixing a profiled run with simulated ones stays unambiguous.  An
    ``shm KB`` column per scheme appears likewise when any run moved bytes
    through a shared-memory arena (the sticky backend's per-batch delta
    payload).
    """
    schemes = list(results)
    pipelined = any(
        result.backpressure is not None for result in results.values()
    )
    profiled = any(
        batch.bytes_pickled is not None
        for result in results.values()
        for batch in result.batches
    )
    shm_profiled = any(
        batch.bytes_shm is not None
        for result in results.values()
        for batch in result.batches
    )
    headers = (
        ["batch", "tuples"]
        + [f"{s} max load" for s in schemes]
        + [f"{s} resident" for s in schemes]
        + [f"{s} mem KB" for s in schemes]
        + ([f"{s} queue" for s in schemes] if pipelined else [])
        + ([f"{s} pickled KB" for s in schemes] if profiled else [])
        + ([f"{s} shm KB" for s in schemes] if shm_profiled else [])
        + [f"{s} repart." for s in schemes]
    )
    by_scheme = [
        {batch.batch_index: batch for batch in result.batches}
        for result in results.values()
    ]
    indices = sorted({index for mapping in by_scheme for index in mapping})
    rows = []
    for index in indices:
        per_scheme = [mapping.get(index) for mapping in by_scheme]
        tuples = next(
            (batch.new_tuples for batch in per_scheme if batch is not None), 0
        )
        rows.append(
            [str(index), f"{tuples:,}"]
            + ["" if b is None else f"{b.max_load:,.0f}" for b in per_scheme]
            + ["" if b is None else f"{b.resident_tuples:,}" for b in per_scheme]
            + ["" if b is None else f"{b.resident_bytes / 1024:,.0f}" for b in per_scheme]
            + (
                ["" if b is None else f"{b.queue_depth:,}" for b in per_scheme]
                if pipelined
                else []
            )
            + (
                [
                    ""
                    if b is None
                    else (
                        "-"
                        if b.bytes_pickled is None
                        else f"{b.bytes_pickled / 1024:,.1f}"
                    )
                    for b in per_scheme
                ]
                if profiled
                else []
            )
            + (
                [
                    ""
                    if b is None
                    else (
                        "-"
                        if b.bytes_shm is None
                        else f"{b.bytes_shm / 1024:,.1f}"
                    )
                    for b in per_scheme
                ]
                if shm_profiled
                else []
            )
            + ["" if b is None else ("*" if b.repartitioned else "") for b in per_scheme]
        )
    return format_rows(headers, rows)


def format_trace_summary(trace) -> str:
    """Where the traced time went, aggregated by span label.

    ``trace`` is a :class:`~repro.obs.trace.Tracer` (or anything with a
    ``spans`` attribute), or a plain iterable of
    :class:`~repro.obs.trace.Span`.  One row per distinct
    ``(category, name)``, ordered by descending total time: count, total,
    mean and max seconds.  Seconds are in the *tracer's* clock -- wall
    seconds under the default clock, tick counts under a deterministic
    :class:`~repro.obs.trace.TickClock` -- so the table itself never mixes
    clock domains.  An empty trace (e.g. the null tracer) renders the
    header only.
    """
    spans = getattr(trace, "spans", trace)
    headers = ["category", "span", "count", "total s", "mean s", "max s"]
    rows = [
        [
            entry["category"],
            entry["name"],
            str(entry["count"]),
            f"{entry['total_seconds']:.6f}",
            f"{entry['mean_seconds']:.6f}",
            f"{entry['max_seconds']:.6f}",
        ]
        for entry in summarize_spans(spans)
    ]
    return format_rows(headers, rows)


def format_scalability_table(points: list[ScalabilityPoint]) -> str:
    """Figure 4d-4g style table: total cost and memory per (point, scheme)."""
    headers = [
        "scale",
        "machines",
        "scheme",
        "total cost",
        "join cost",
        "memory (tuples)",
        "correct",
    ]
    rows = []
    for point in points:
        for scheme, result in point.comparison.results.items():
            rows.append(
                [
                    f"{point.scale:g}",
                    str(point.num_machines),
                    scheme,
                    f"{result.total_cost:,.0f}",
                    f"{result.join_cost:,.0f}",
                    f"{result.memory_tuples:,}",
                    "yes" if result.output_correct else "NO",
                ]
            )
    return format_rows(headers, rows)
