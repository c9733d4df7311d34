"""Streaming extension: zero-copy sticky workers vs the pickling pool.

The pickling-pool baseline (a stateless ``ProcessPoolExecutor`` backend kept
in ``tests/streaming_harness.py``; its row is named ``multiprocess``) re-pickles
every machine's *full* region key arrays through its executor channel on
every batch, so its serialization volume grows with the retained state --
for a persistent streaming join the channel, not the join, becomes the
bottleneck.  The sticky-worker backend keeps each machine's join state
resident in its owner process and ships only the per-batch delta through a
shared-memory arena, leaving the pickle channel to fixed-size control
messages.

Claims verified on one fixed-seed drifting stream, per batch and end to
end:

* **bit identity** -- the simulated, pooled and sticky runs agree on
  every per-machine output delta, cost-model load and migration plan; the
  backend only changes *where* the counting runs, never what is counted;
* **steady-state serialization collapse** -- over the second half of the
  stream (state large, deltas constant) the pool pushes at least 10x more
  bytes through pickle than the sticky backend, whose array payload travels
  as shared memory (``shm KB``) instead.

Byte totals are exact and deterministic (fixed seeds, fixed-width segment
names), so the golden commits them verbatim; only wall-clock durations are
bucketed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.reporting import format_streaming_table
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SimulatedBackend,
    StickyWorkerBackend,
    StreamingJoinEngine,
)
from streaming_harness import PicklingPoolBackend

from bench_utils import scaled

BAND = BandJoinCondition(beta=1.0)
MACHINES = 8
NUM_BATCHES = 16
WORKERS = 2


def drift_source():
    """A drifting-Zipf stream long enough to reach a steady-state tail."""
    return DriftingZipfSource(
        num_batches=NUM_BATCHES,
        tuples_per_batch=scaled(400),
        num_values=scaled(200),
        z_initial=0.1,
        z_final=1.1,
        shift_at_batch=6,
        seed=21,
    )


def adaptive_engine(backend):
    """A drift-adaptive engine over the given backend (fixed seeds)."""
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


@pytest.mark.multiprocess
def test_sticky_workers_collapse_steady_state_serialization(benchmark, report):
    def run_all():
        results = {
            "simulated": adaptive_engine(SimulatedBackend()).run(drift_source())
        }
        with PicklingPoolBackend(max_workers=WORKERS) as pool:
            results["multiprocess"] = adaptive_engine(pool).run(drift_source())
        with StickyWorkerBackend(max_workers=WORKERS) as sticky:
            results["sticky"] = adaptive_engine(sticky).run(drift_source())
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    simulated = results["simulated"]
    multiprocess = results["multiprocess"]
    sticky = results["sticky"]

    # Bit identity across all three backends: outputs, loads and plans.
    for other in (multiprocess, sticky):
        assert other.output_correct and simulated.output_correct
        assert other.total_output == simulated.total_output
        np.testing.assert_allclose(
            other.cumulative_load, simulated.cumulative_load
        )
        assert [b.batch_index for b in other.batches if b.repartitioned] == [
            b.batch_index for b in simulated.batches if b.repartitioned
        ]
        for sim_batch, other_batch in zip(simulated.batches, other.batches):
            np.testing.assert_array_equal(
                sim_batch.per_machine_output_delta,
                other_batch.per_machine_output_delta,
            )
            np.testing.assert_allclose(
                sim_batch.per_machine_load, other_batch.per_machine_load
            )
    assert simulated.num_repartitions >= 1  # the drift is actually exercised

    # Steady state: the second half of the stream, where the pool's pickled
    # volume is dominated by the retained state and the sticky backend's by
    # fixed-size control messages.
    steady = NUM_BATCHES // 2
    pool_pickled = sum(
        b.bytes_pickled for b in multiprocess.batches[steady:]
    )
    sticky_pickled = sum(b.bytes_pickled for b in sticky.batches[steady:])
    sticky_shm = sum(b.bytes_shm for b in sticky.batches[steady:])
    ratio = pool_pickled / sticky_pickled

    report(
        "streaming_scaling",
        "Zero-copy sticky workers vs the pickling pool "
        f"(J = {MACHINES}, {WORKERS} workers)",
        format_streaming_table(results, golden=True)
        + "\n\nSteady-state serialization, batches "
        f"{steady}-{NUM_BATCHES - 1} (exact, deterministic):\n"
        f"multiprocess pickled {pool_pickled / 1024:,.1f} KB vs sticky "
        f"pickled {sticky_pickled / 1024:,.1f} KB -- {ratio:.1f}x less "
        "through the pickle channel; the sticky delta payload rode shared "
        f"memory instead ({sticky_shm / 1024:,.1f} KB).",
    )

    # Headline claim: >= 10x less pickle traffic at steady state, with the
    # array payload accounted as shared memory.
    assert ratio >= 10.0
    assert sticky_shm > 0
    assert sticky.total_bytes_shm is not None and sticky.total_bytes_shm > 0
    assert multiprocess.total_bytes_shm is None
