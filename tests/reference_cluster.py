"""Reference batch executor: assign with masks, gather per region, count each one.

Test-only.  This is the body ``repro.engine.cluster.run_partitioned_join``
had before batch execution took the streaming engine's route and kernel,
kept verbatim as the differential oracle (``tests/test_cluster_oracle.py``):
both sides are cast to float64, routed by ``assign_r1`` / ``assign_r2``
(one index array per region), gathered region by region, and every region
with two non-empty sides is counted by its own ``count_join_output`` call,
which sorts its R2 side again.  The production path -- each side routed
once by the stream's route and counted as the first half of a stream batch
into empty state, one kernel call -- must give every machine the same input
and output, and leave the generator in the same state.

The float64 cast is the behaviour the production path dropped (it counts
in the keys' own dtype), so the oracle is only comparable on keys that
float64 holds exactly: floats, and integers below 2**53.
"""

from __future__ import annotations

import numpy as np

from repro.engine.cluster import JoinExecutionResult
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.base import Partitioning


def run_partitioned_join(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    rng: np.random.Generator | None = None,
) -> JoinExecutionResult:
    """Execute a partitioned join and return per-machine statistics."""
    rng = rng or np.random.default_rng(0)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)

    assignments1 = partitioning.assign_r1(keys1, rng)
    assignments2 = partitioning.assign_r2(keys2, rng)
    if len(assignments1) != partitioning.num_regions:
        raise ValueError("assign_r1 must return one index array per region")
    if len(assignments2) != partitioning.num_regions:
        raise ValueError("assign_r2 must return one index array per region")

    num_machines = partitioning.num_regions
    per_machine_input = np.zeros(num_machines, dtype=np.int64)
    per_machine_output = np.zeros(num_machines, dtype=np.int64)

    for machine, (idx1, idx2) in enumerate(zip(assignments1, assignments2)):
        per_machine_input[machine] = len(idx1) + len(idx2)
        if len(idx1) == 0 or len(idx2) == 0:
            continue
        per_machine_output[machine] = count_join_output(
            keys1[idx1], keys2[idx2], condition
        )

    total_input_shipped = int(per_machine_input.sum())
    total_tuples = len(keys1) + len(keys2)
    replication = total_input_shipped / total_tuples if total_tuples else 0.0

    return JoinExecutionResult(
        per_machine_input=per_machine_input,
        per_machine_output=per_machine_output,
        total_output=int(per_machine_output.sum()),
        memory_tuples=total_input_shipped,
        network_tuples=total_input_shipped,
        replication_factor=replication,
    )
