"""Section V (related work): why hash repartitioning fails for band joins.

The paper argues that hash-based equi-join schemes replicate each tuple of
the opposite relation to up to ``2*beta + 1`` machines when forced to handle
a band join of width beta, so their input-related work grows linearly with
the band width, whereas range-partitioned schemes (M-Bucket, EWH) keep
neighbouring keys together.  This benchmark measures the replication factor
and the resulting maximum machine weight of hash repartitioning against CSIO
across band widths.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import format_rows
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.engine.cluster import run_partitioned_join
from repro.joins.conditions import BandJoinCondition
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.hash_repartition import HashRepartitioning

from bench_utils import bench_machines, scaled

BETAS = (0, 1, 2, 4, 8)


def run_sweep():
    machines = bench_machines()
    rng = np.random.default_rng(21)
    size = scaled(8_000)
    keys1 = rng.integers(0, 4 * size, size).astype(float)
    keys2 = rng.integers(0, 4 * size, size).astype(float)

    rows = []
    for beta in BETAS:
        condition = BandJoinCondition(beta=float(beta))
        hash_part = HashRepartitioning(machines, band_width=float(beta))
        hash_exec = run_partitioned_join(
            hash_part, keys1, keys2, condition, rng=np.random.default_rng(0)
        )
        csio_part = build_ewh_partitioning(
            keys1, keys2, condition, machines,
            weight_fn=BAND_JOIN_WEIGHTS, rng=np.random.default_rng(0),
        )
        csio_exec = run_partitioned_join(
            csio_part, keys1, keys2, condition, rng=np.random.default_rng(0)
        )
        rows.append((beta, hash_exec, csio_exec))
    return rows


def test_hash_replication_grows_with_band_width(benchmark, report):
    sweep = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for beta, hash_exec, csio_exec in sweep:
        rows.append(
            [
                str(beta),
                f"{hash_exec.replication_factor:.2f}",
                f"{csio_exec.replication_factor:.2f}",
                f"{hash_exec.max_weight(BAND_JOIN_WEIGHTS):,.0f}",
                f"{csio_exec.max_weight(BAND_JOIN_WEIGHTS):,.0f}",
            ]
        )
    table = format_rows(
        ["beta", "hash repl.", "CSIO repl.", "hash max weight", "CSIO max weight"],
        rows,
    )
    report(
        "related_hash_vs_range",
        f"Section V: hash repartitioning vs CSIO as the band widens (J = {bench_machines()})",
        table,
    )

    # Both produce the same (correct) output.
    for _, hash_exec, csio_exec in sweep:
        assert hash_exec.total_output == csio_exec.total_output

    # Hash replication grows with beta; CSIO's stays essentially flat.
    hash_repl = [h.replication_factor for _, h, _ in sweep]
    csio_repl = [c.replication_factor for _, _, c in sweep]
    assert hash_repl[-1] > hash_repl[0] * 2
    assert max(csio_repl) <= 2.0

    # For wide bands the hash scheme's maximum machine weight is clearly worse.
    _, hash_wide, csio_wide = sweep[-1]
    assert hash_wide.max_weight(BAND_JOIN_WEIGHTS) > csio_wide.max_weight(
        BAND_JOIN_WEIGHTS
    )
