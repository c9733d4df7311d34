"""Streaming extension: sliding windows and incremental per-region counting.

The unbounded streaming engine retains the full join history on every
machine, so memory grows with the stream -- and so would the per-batch cost
if each region's output were re-counted from scratch every batch, as the
pre-window engine did.  This benchmark demonstrates the two claims of the
windowed engine on a long drifting-Zipf run:

* **Bounded memory** -- under a sliding window the peak resident state
  plateaus (flat across the tail of the stream) while the unbounded
  engine's grows linearly, and every eviction is charged into the metrics
  (tuples evicted, bytes freed).
* **Incremental counting** -- maintaining each region's state sorted by
  join key turns the per-batch output delta into ``O(new log state)``
  binary searches.  The per-batch, per-machine deltas are checked against
  a full recount of every region by the
  :class:`~streaming_harness.RecountingBackend` oracle, and at long
  horizons the incremental counter's measured per-batch join time is at
  least twice as fast as that recount (in practice far more: the
  recount's work grows with the retained state, the incremental counter's
  only with the batch).
"""

from __future__ import annotations

from repro.bench.reporting import (
    format_streaming_batches,
    format_streaming_table,
)
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SimulatedBackend,
    StaticEWHPolicy,
    StreamingJoinEngine,
    make_window,
)
from streaming_harness import (
    NoTrimWindow,
    RecountingBackend,
    assert_equivalent_runs,
)

from bench_utils import scaled

BAND = BandJoinCondition(beta=1.0)
NUM_BATCHES = 36


def long_drift_source():
    """A long drifting-Zipf stream: the horizon where state growth hurts."""
    return DriftingZipfSource(
        num_batches=NUM_BATCHES,
        tuples_per_batch=scaled(500),
        num_values=scaled(300),
        z_initial=0.1,
        z_final=0.9,
        shift_at_batch=12,
        seed=42,
    )


def adaptive_engine(window):
    """A drift-adaptive engine over 8 machines with the given window."""
    policy = DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=4)
    )
    return StreamingJoinEngine(
        8,
        BAND,
        BAND_JOIN_WEIGHTS,
        policy=policy,
        window=window,
        sample_capacity=2048,
        sample_decay=0.7,
        seed=3,
    )


def test_sliding_window_bounds_resident_state(benchmark, report):
    """A sliding window caps resident state; unbounded grows linearly."""

    def run_pair():
        return {
            "CSIO-adaptive/unbounded": adaptive_engine(None).run(
                long_drift_source()
            ),
            "CSIO-adaptive/batches:6": adaptive_engine("batches:6").run(
                long_drift_source()
            ),
        }

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    report(
        "streaming_window_memory",
        "Sliding-window streaming join: resident state under a long drift "
        "(J = 8)",
        format_streaming_table(results, golden=True)
        + "\n\nPer-batch max-machine load and resident state\n\n"
        + format_streaming_batches(results),
    )

    unbounded = results["CSIO-adaptive/unbounded"]
    windowed = results["CSIO-adaptive/batches:6"]

    # The unbounded run is the exact full-history join; the windowed run
    # forgets pairs whose halves never coexisted, so it produces less.
    assert unbounded.output_correct
    assert 0 < windowed.total_output < unbounded.total_output

    # Every eviction is accounted: entries dropped and bytes freed.
    assert unbounded.total_evicted == 0
    assert windowed.total_evicted > 0
    assert windowed.total_bytes_freed == 16 * windowed.total_evicted

    # Headline claim: the window bounds resident state.  Compare the state
    # held at mid-stream against the end of the stream: the unbounded
    # engine keeps growing (linear in the stream), the windowed engine has
    # plateaued (flat across the tail, modulo replication changes on a
    # repartitioning).
    resident_unbounded = [b.resident_tuples for b in unbounded.batches]
    resident_windowed = [b.resident_tuples for b in windowed.batches]
    mid = NUM_BATCHES // 2
    assert resident_unbounded[-1] >= 1.5 * resident_unbounded[mid]
    assert resident_windowed[-1] <= 1.25 * resident_windowed[mid]
    # The tail itself is flat: no creeping growth across the last third.
    tail = resident_windowed[2 * NUM_BATCHES // 3 :]
    assert max(tail) <= 1.3 * min(tail)
    # And the bound is a real saving against the unbounded engine.
    assert windowed.peak_resident_tuples < 0.6 * unbounded.peak_resident_tuples


def test_history_compaction_keeps_windowed_memory_flat(benchmark, report):
    """Compacting the history makes a windowed run's *total* memory O(window).

    The sliding window alone bounds the per-machine join state, but the
    pre-compaction engine kept the flat per-side key histories, the live
    index sets and the batch-start lists for the whole run -- an O(stream)
    leak that ``resident_bytes`` now measures.  Three long-horizon runs on
    the same seeded drifting stream:

    * **unbounded** -- no window: everything grows linearly (and must, the
      full history is the verification ground truth);
    * **batches:8 compacted** (the default) -- total resident memory is
      flat across the stream tail;
    * **batches:8 leaky** (the window behind ``NoTrimWindow``, the
      pre-compaction engine) -- join state is bounded but total memory
      still grows linearly with the stream.

    Compaction must be pure bookkeeping: the compacted run's outputs,
    loads, evictions and migration plans are bit-identical to the leaky
    reference on the same stream.
    """

    def run_trio():
        return {
            "CSIO-adaptive/unbounded": adaptive_engine(None).run(
                long_drift_source()
            ),
            "CSIO-adaptive/batches:8": adaptive_engine("batches:8").run(
                long_drift_source()
            ),
            "CSIO-adaptive/batches:8/leaky": adaptive_engine(
                NoTrimWindow(make_window("batches:8"))
            ).run(long_drift_source()),
        }

    results = benchmark.pedantic(run_trio, rounds=1, iterations=1)
    report(
        "streaming_window_history",
        "History compaction: total resident memory (state + history + live "
        "sets) under a long drift (J = 8)",
        format_streaming_table(results, golden=True)
        + "\n\nPer-batch max-machine load, resident state and total memory\n\n"
        + format_streaming_batches(results),
    )

    unbounded = results["CSIO-adaptive/unbounded"]
    compacted = results["CSIO-adaptive/batches:8"]
    leaky = results["CSIO-adaptive/batches:8/leaky"]

    # Compaction is invisible to everything but the footprint.
    assert_equivalent_runs(compacted, leaky)

    # The leak, quantified: the leaky engine ends holding the entire
    # stream's keys; the compacted engine holds the window's worth.
    per_side = scaled(500)
    assert leaky.batches[-1].resident_history_tuples == 2 * per_side * NUM_BATCHES
    assert leaky.total_history_trimmed == 0
    assert compacted.batches[-1].resident_history_tuples == 2 * per_side * 8
    assert compacted.total_history_trimmed > 0

    # Headline claim: total resident memory is flat across the compacted
    # run's tail, while both the unbounded and the leaky windowed run grow
    # linearly.
    mem_unbounded = [b.resident_bytes for b in unbounded.batches]
    mem_compacted = [b.resident_bytes for b in compacted.batches]
    mem_leaky = [b.resident_bytes for b in leaky.batches]
    mid = NUM_BATCHES // 2
    assert mem_unbounded[-1] >= 1.5 * mem_unbounded[mid]
    # The leaky run's bounded join state dilutes a ratio test, but its
    # absolute growth across the tail is the history leak itself: 8 bytes
    # per key, two sides, every batch, forever.
    leaked_bytes = 8 * 2 * per_side * (NUM_BATCHES - 1 - mid)
    assert mem_leaky[-1] - mem_leaky[mid] >= 0.8 * leaked_bytes
    assert mem_compacted[-1] <= 1.25 * mem_compacted[mid]
    tail = mem_compacted[2 * NUM_BATCHES // 3 :]
    assert max(tail) <= 1.3 * min(tail)
    # And the saving is real and widening: by end of stream the compacted
    # engine holds well under two thirds of the leaky engine's bytes (both
    # runs' transient peaks coincide at a repartitioning state spike, so
    # the end-of-run gap, not the peak, is the honest comparison).
    assert mem_compacted[-1] < 0.6 * mem_leaky[-1]


def test_incremental_counting_matches_recount_and_is_faster(benchmark, report):
    """Incremental deltas equal the full recount's, and are >= 2x faster.

    One stationary-skew stream, one static-EWH engine, run over the
    :class:`~streaming_harness.RecountingBackend` oracle: after every
    batch the oracle re-counts each machine's full region from scratch
    (``O(state log state)``, the pre-window engine's loop) and asserts the
    difference against the delta the engine got by binary-searching just
    the arrivals into the maintained sorted state (``O(new log state)``).
    A mismatch on any machine in any batch fails the run; at the
    long-horizon tail the incremental count must be at least twice as
    fast per batch as the recount it replaced.
    """

    def run_checked():
        oracle = RecountingBackend(SimulatedBackend())
        result = StreamingJoinEngine(
            8,
            BAND,
            BAND_JOIN_WEIGHTS,
            policy=StaticEWHPolicy(),
            backend=oracle,
            sample_capacity=2048,
            seed=5,
        ).run(
            DriftingZipfSource(
                num_batches=72,
                tuples_per_batch=scaled(800),
                num_values=scaled(400),
                z_initial=0.6,
                z_final=0.6,
                seed=7,
            )
        )
        oracle.close()
        return result, oracle.recount_seconds

    incremental, recount_seconds = benchmark.pedantic(
        run_checked, rounds=1, iterations=1
    )

    # Every batch was checked (the oracle raises on the first mismatch), and
    # the summed deltas equal the exact join of the full history.
    assert incremental.output_correct
    assert len(recount_seconds) == incremental.num_batches

    # The speedup claim, over the last third of the stream (where the
    # retained state dwarfs a batch): recount work grows with the state,
    # incremental with the batch.  Measured wall times stay out of the
    # golden -- the assertion carries the claim, the file carries the run.
    tail = incremental.num_batches * 2 // 3
    recount_tail = sum(recount_seconds[tail:])
    incremental_tail = sum(b.join_seconds for b in incremental.batches[tail:])
    speedup = recount_tail / incremental_tail
    table = format_streaming_table(
        {"CSIO-static/incremental": incremental}, golden=True
    )
    report(
        "streaming_window_counting",
        "Incremental per-region counting vs full recount (J = 8)",
        table
        + "\n\nEvery batch's per-machine deltas were asserted against a "
        "full recount of each region (RecountingBackend oracle); over the "
        "last third of the stream the incremental count must be at least "
        "2x faster per batch than that recount.",
        live=table
        + f"\n\nLast third of the stream: recount {recount_tail:.3f}s, "
        f"incremental {incremental_tail:.3f}s (speedup {speedup:.1f}x).",
    )
    assert speedup >= 2.0
