"""Streaming extension: partitioned joins under mid-stream skew drift.

The batch pipeline builds its partitioning once, from a snapshot of the data.
This benchmark runs the online subsystem over a stream whose Zipf skew shifts
mid-stream (near-uniform, then a hot spot at a new location) and compares:

* **CI-static** -- 1-Bucket built once; immune to skew, pays replication.
* **CSIO-static** -- the equi-weight histogram built from the stream prefix
  and frozen: the online analogue of trusting a stale batch build.
* **CSIO-adaptive** -- the same initial build plus drift-triggered rebuilds
  from the incrementally maintained sample state, paying an explicit state
  migration cost for every repartitioning.

The claims verified: the drift-adaptive engine achieves a lower cumulative
max-machine load than the frozen histogram while accounting a nonzero
migration volume; partial repartitioning migrates strictly fewer tuples than
the full positional rebuild on the same skew shift with identical join
output; and every engine still produces the exact join output.
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
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamingJoinEngine,
    compare_streaming_schemes,
)
from streaming_harness import PositionalRebuildEngine

from bench_utils import bench_machines, scaled


def drift_source():
    return DriftingZipfSource(
        num_batches=20,
        tuples_per_batch=scaled(1_000),
        num_values=scaled(500),
        z_initial=0.1,
        z_final=0.9,
        shift_at_batch=7,
        seed=42,
    )


def adaptive_policy():
    return DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=3)
    )


def run_sweep():
    machines = bench_machines()
    policies = {
        "CI-static": StaticOneBucketPolicy(machines),
        "CSIO-static": StaticEWHPolicy(),
        "CSIO-adaptive": adaptive_policy(),
    }
    return compare_streaming_schemes(
        drift_source(),
        machines,
        BandJoinCondition(beta=1.0),
        BAND_JOIN_WEIGHTS,
        policies=policies,
        sample_capacity=2048,
        sample_decay=0.7,
        migration_cost_factor=1.0,
        seed=3,
    )


def test_streaming_drift(benchmark, report):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    report(
        "streaming_drift",
        f"Streaming joins under mid-stream skew drift (J = {bench_machines()})",
        format_streaming_table(results, golden=True)
        + "\n\nPer-batch max-machine load\n\n"
        + format_streaming_batches(results),
    )

    static = results["CSIO-static"]
    adaptive = results["CSIO-adaptive"]
    one_bucket = results["CI-static"]

    # Every engine produces the exact join output of the full history.
    assert all(r.output_correct for r in results.values())
    outputs = {r.total_output for r in results.values()}
    assert len(outputs) == 1

    # The static schemes never repartition; the adaptive one does, and its
    # migration volume is explicitly nonzero and charged into its load.
    assert static.num_repartitions == 0 and static.total_migrated == 0
    assert one_bucket.num_repartitions == 0 and one_bucket.total_migrated == 0
    assert adaptive.num_repartitions >= 1
    assert adaptive.total_migrated > 0

    # Headline claim: under a mid-stream skew shift, drift-triggered
    # repartitioning beats the frozen histogram on cumulative max-machine
    # load even after paying for the migrated state.
    assert adaptive.max_machine_load < static.max_machine_load

    # 1-Bucket stays balanced under any skew (its load spread is tight)...
    assert one_bucket.load_imbalance < 1.5
    # ...while the frozen histogram's balance has collapsed.
    assert static.load_imbalance > 2.0
    assert adaptive.load_imbalance < static.load_imbalance


def test_partial_vs_full_repartitioning(benchmark, report):
    """Partial repartitioning ships strictly less state for the same joins.

    The same drift-adaptive run on the positional-rebuild reference engine
    (``/full``: new region r lands on machine r) and on the production engine
    (``/partial``: regions are remapped to the machines already holding most
    of their state): the partial plan must migrate strictly fewer tuples on
    the mid-stream skew shift while triggering at the same batches and
    producing the identical exact join output.
    """

    def run_modes():
        return {
            f"CSIO-adaptive/{mode}": engine_cls(
                bench_machines(),
                BandJoinCondition(beta=1.0),
                BAND_JOIN_WEIGHTS,
                policy=adaptive_policy(),
                sample_capacity=2048,
                sample_decay=0.7,
                migration_cost_factor=1.0,
                seed=3,
            ).run(drift_source())
            for mode, engine_cls in (
                ("full", PositionalRebuildEngine),
                ("partial", StreamingJoinEngine),
            )
        }

    results = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    report(
        "streaming_partial_repartitioning",
        "Partial vs full repartitioning under mid-stream skew drift "
        f"(J = {bench_machines()})",
        format_streaming_table(results, golden=True),
    )

    full = results["CSIO-adaptive/full"]
    partial = results["CSIO-adaptive/partial"]

    # Identical joins: exact output, same number of batches and rebuilds,
    # triggered at the same stream positions.
    assert full.output_correct and partial.output_correct
    assert partial.total_output == full.total_output
    assert partial.num_repartitions == full.num_repartitions >= 1
    assert [b.batch_index for b in partial.batches if b.repartitioned] == [
        b.batch_index for b in full.batches if b.repartitioned
    ]

    # Headline claim: diffing the region-to-machine mapping migrates
    # strictly less state than the positional full rebuild.
    assert 0 < partial.total_migrated < full.total_migrated
