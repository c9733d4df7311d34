"""Table V: sweeping M-Bucket's bucket count cannot cure join product skew.

For BE_OCD and B_CB-3 the benchmark sweeps the number of equi-depth buckets
``p`` given to CSI and reports the histogram-algorithm time, join cost and
total cost of each setting next to a single CSIO reference.  The paper's
message: more input statistics increase the scheme-building time and help the
join a little, but even the best CSI configuration remains far more expensive
than CSIO because it still knows nothing about the output distribution.
"""

from __future__ import annotations

from repro.bench.reporting import format_rows, measured_seconds
from repro.bench.table5 import run_table_v
from repro.workloads.definitions import make_bcb, make_beocd

from bench_utils import bench_machines, scaled


BUCKET_COUNTS = (50, 100, 200, 400, 800)


def run_all():
    machines = bench_machines()
    results = []
    for workload in (
        make_beocd(num_orders=scaled(20_000), seed=7),
        make_bcb(beta=3, small_segment_size=scaled(2_000), seed=14),
    ):
        results.append(run_table_v(workload, machines, bucket_counts=BUCKET_COUNTS))
    return results


def test_table_v_bucket_sweep(benchmark, report):
    sweeps = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def table(golden):
        rows = []
        for sweep in sweeps:
            for row in sweep.csi_rows:
                rows.append(
                    [
                        sweep.workload_name,
                        "CSI",
                        str(row.num_buckets),
                        measured_seconds(row.histogram_seconds, golden=golden),
                        f"{row.join_cost:,.0f}",
                        f"{row.total_cost:,.0f}",
                    ]
                )
            reference = sweep.csio_reference
            rows.append(
                [
                    sweep.workload_name,
                    "CSIO (ref)",
                    "-",
                    measured_seconds(reference.build_seconds, golden=golden),
                    f"{reference.join_cost:,.0f}",
                    f"{reference.total_cost:,.0f}",
                ]
            )
        return format_rows(
            ["join", "scheme", "buckets p", "histogram alg (s)", "join cost", "total cost"],
            rows,
        )

    report(
        "table_v_csi_buckets",
        f"Table V: CSI bucket-count sweep vs CSIO (J = {bench_machines()})",
        table(golden=True),
        live=table(golden=False),
    )

    for sweep in sweeps:
        # All runs correct.
        assert all(row.result.output_correct for row in sweep.csi_rows)
        assert sweep.csio_reference.output_correct
        # Even the best CSI total cost stays above CSIO's.
        assert sweep.best_csi_total_cost() > sweep.csio_reference.total_cost
        # The histogram-algorithm time grows with the bucket count (comparing
        # the ends of the sweep absorbs wall-clock noise in the middle).
        assert (
            sweep.csi_rows[-1].histogram_seconds
            >= 0.5 * sweep.csi_rows[0].histogram_seconds
        )
