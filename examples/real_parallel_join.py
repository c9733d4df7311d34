"""Real parallel execution and cost-model calibration.

The benchmark suite measures time through the paper's cost model
``w(r) = w_i * input(r) + w_o * output(r)``.  This example closes the loop on
a real machine:

1. it times single-process joins of growing size and fits ``w_i`` and ``w_o``
   by least squares (the paper's linear-regression calibration);
2. it executes the partitioned join on worker processes (Python's GIL rules
   out shared-memory threads) and prints, per scheme, the spread of the
   machines' measured count times beside the end-to-end time.  The
   executor runs the join as the first batch of the streaming engine's
   sticky workers: machine ``m`` on worker ``m % W``, its tuples shipped
   over shared memory, counted in place.  At this size a machine's count
   takes a few milliseconds at most and the workers' start-up most of a
   second, so the timings show what real execution costs, not which scheme
   balances load best: the cost model ranks those.

The workers start with forkserver (else spawn), which imports this script
in each of them: a script that calls the executor needs its
``if __name__ == "__main__":`` guard, as this one has.

Run with::

    python examples/real_parallel_join.py
"""

from __future__ import annotations

import numpy as np

from repro.engine.calibration import calibrate_cost_weights, collect_calibration_samples
from repro.engine.executor import run_join_multiprocess
from repro.joins.conditions import BandJoinCondition
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.workloads.definitions import make_bcb


def main() -> None:
    workload = make_bcb(beta=2, small_segment_size=2_000, seed=11)
    keys1, keys2 = workload.keys1, workload.keys2
    condition: BandJoinCondition = workload.condition  # type: ignore[assignment]
    num_machines = 8

    # ------------------------------------------------------------------
    # 1. Calibrate the cost model from timed local joins.
    # ------------------------------------------------------------------
    print("Calibrating the cost model from timed local joins...")
    samples = collect_calibration_samples(
        keys1, keys2, condition, fractions=(0.25, 0.5, 0.75, 1.0),
        rng=np.random.default_rng(0),
    )
    for sample in samples:
        print(
            f"  input {sample.input_tuples:7.0f}  output {sample.output_tuples:9.0f}  "
            f"{sample.seconds * 1e3:7.2f} ms"
        )
    weight_fn = calibrate_cost_weights(samples)
    print(
        f"fitted cost model: w_i = {weight_fn.input_cost:.2f}, "
        f"w_o = {weight_fn.output_cost:.3f} "
        "(paper's cluster regression gave w_o = 0.2 for band joins)\n"
    )

    # ------------------------------------------------------------------
    # 2. Execute the partitioned join on up to one worker process per machine.
    # ------------------------------------------------------------------
    schemes = {
        "CI": build_one_bucket_partitioning(num_machines),
        "CSI": build_m_bucket_partitioning(
            keys1, keys2, condition, num_machines,
            weight_fn=weight_fn, config=MBucketConfig(num_buckets=64),
            rng=np.random.default_rng(1),
        ),
        "CSIO": build_ewh_partitioning(
            keys1, keys2, condition, num_machines,
            weight_fn=weight_fn, rng=np.random.default_rng(1),
        ),
    }
    print(f"Executing the join with {num_machines} worker processes per scheme...")
    for name, partitioning in schemes.items():
        result = run_join_multiprocess(
            partitioning, keys1, keys2, condition, max_workers=num_machines,
            rng=np.random.default_rng(2),
        )
        machine_ms = result.per_machine_seconds * 1e3
        print(
            f"  {name:5s} output {result.total_output:9,}  "
            f"machines {machine_ms.min():6.2f} to {machine_ms.max():6.2f} ms  "
            f"end-to-end {result.wall_seconds * 1e3:7.1f} ms"
        )
    print(
        "\nEach machine's count takes a few milliseconds at most, against the "
        "workers' start-up in the end-to-end time, so these timings cannot rank "
        "the schemes: their spread is timer and scheduling noise as much as "
        "load.  The cost model's per-machine weights rank them (see "
        "skew_resilience.py)."
    )


if __name__ == "__main__":
    main()
