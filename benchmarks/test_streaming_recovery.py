"""Streaming extension: crash recovery and mid-stream elasticity.

A long-running streaming join cannot assume its fleet survives the stream.
This benchmark drives the same fixed-seed drifting stream through three
lifecycles and pins that elasticity is *free of behavioural cost*:

* **uninterrupted** -- the plain engine run, the reference;
* **crash + restore** -- a :class:`~streaming_harness.CrashingBackend`
  kills the fleet mid-stream (the 19th ``count_batch``, i.e. batch 18);
  :func:`~repro.streaming.checkpoint.run_resilient` restores the run from
  its last periodic checkpoint (every 6 batches) onto a fresh backend and
  replays the source.  The recovered run must be **bit-identical** to the
  uninterrupted one -- same per-batch output deltas, loads, migration
  plans -- with exactly one restore on the books;
* **resize mid-stream** -- the stepwise engine grows its fleet 8 -> 12 at
  the halfway batch through the same partial-migration machinery a drift
  rebuild uses, and still counts every output pair exactly once.

The golden commits the summary table verbatim (fixed seeds, simulated
backend, deterministic cost model); the elastic columns (``ckpts``,
``restores``, ``resizes``) appear precisely because these runs checkpoint,
restore and resize -- plain benchmarks keep the historical column set.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import format_streaming_table
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SimulatedBackend,
    StreamingJoinEngine,
    run_resilient,
)
from streaming_harness import CrashingBackend, assert_equivalent_runs

from bench_utils import scaled

BAND = BandJoinCondition(beta=1.0)
MACHINES = 8
NUM_BATCHES = 24
CRASH_AT_CALL = 19  # scoped to count_batch, one per batch: dies in batch 18
CHECKPOINT_EVERY = 6
RESIZE_AT_BATCH = NUM_BATCHES // 2
RESIZE_TO = 12


def drift_source():
    """The fixed-seed drifting stream every lifecycle replays."""
    return DriftingZipfSource(
        num_batches=NUM_BATCHES,
        tuples_per_batch=scaled(400),
        num_values=scaled(200),
        z_initial=0.1,
        z_final=1.1,
        shift_at_batch=8,
        seed=21,
    )


def adaptive_engine(backend=None):
    """A drift-adaptive engine (fixed seeds) over the given backend."""
    policy = DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=3)
    )
    return StreamingJoinEngine(
        MACHINES,
        BAND,
        BAND_JOIN_WEIGHTS,
        policy=policy,
        backend=backend,
        sample_capacity=1024,
        sample_decay=0.7,
        seed=5,
    )


def test_crash_recovery_and_resize_cost_nothing(benchmark, report):
    def run_all():
        results = {"uninterrupted": adaptive_engine().run(drift_source())}

        crashing = CrashingBackend(
            SimulatedBackend(),
            crash_at_call=CRASH_AT_CALL,
            crash_on=("count",),
        )
        results["crash+restore"] = run_resilient(
            lambda: adaptive_engine(backend=crashing),
            drift_source(),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        crashing.close()

        grown = adaptive_engine()
        grown.start()
        for batch in drift_source().batches():
            if batch.index == RESIZE_AT_BATCH:
                grown.resize(RESIZE_TO)
            grown.process_batch(batch)
        results["resize 8->12"] = grown.finish()
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    uninterrupted = results["uninterrupted"]
    recovered = results["crash+restore"]
    resized = results["resize 8->12"]

    # Headline: kill-and-restore is bit-identical to never having crashed.
    assert_equivalent_runs(recovered, uninterrupted)
    assert recovered.restores == 1
    assert recovered.checkpoints_taken >= 1
    assert uninterrupted.restores == 0

    # The resized run still counts every output pair exactly once, on the
    # grown fleet, through exactly one mid-stream migration.
    assert resized.output_correct and uninterrupted.output_correct
    assert resized.total_output == uninterrupted.total_output
    assert resized.num_machines == RESIZE_TO
    assert resized.num_resizes == 1
    resize_batches = [
        b.batch_index for b in resized.batches if b.resized_from is not None
    ]
    assert resize_batches == [RESIZE_AT_BATCH]

    restored_at = CHECKPOINT_EVERY * (
        (CRASH_AT_CALL - 1) // CHECKPOINT_EVERY
    )
    report(
        "streaming_recovery",
        "Crash recovery and mid-stream elasticity "
        f"(J = {MACHINES}, {NUM_BATCHES} batches)",
        format_streaming_table(results, golden=True)
        + "\n\nThe crashed fleet died at work call "
        f"{CRASH_AT_CALL} (batch {CRASH_AT_CALL - 1}); run_resilient "
        f"restored from the checkpoint at batch {restored_at - 1} and "
        "replayed the source -- bit-identical to the uninterrupted run "
        "(outputs, loads, migration plans, batch by batch).  The resize "
        f"run grew {MACHINES} -> {RESIZE_TO} machines at batch "
        f"{RESIZE_AT_BATCH} and kept the exact output count.",
    )


if __name__ == "__main__":  # pragma: no cover - manual profiling entry
    pytest.main([__file__, "-v"])
