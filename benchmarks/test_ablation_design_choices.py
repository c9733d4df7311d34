"""Ablations of the histogram algorithm's design choices (DESIGN.md).

Not a figure of the paper, but the paper's design discussion (sections III-A
to III-D, Appendix A5) motivates three sizing decisions that this benchmark
quantifies on one cost-balanced workload:

* coarsened matrix size ``n_c = 2J`` versus ``J`` and ``3J``;
* sample matrix size ``n_s`` from Lemma 3.1 versus much smaller grids;
* output sample size as a multiple of the candidate MS cells.
"""

from __future__ import annotations

from repro.bench.ablation import (
    coarsened_size_ablation,
    output_sample_ablation,
    sample_matrix_size_ablation,
)
from repro.bench.reporting import format_rows, measured_seconds
from repro.sampling.sizes import sample_matrix_size
from repro.workloads.definitions import make_bcb

from bench_utils import bench_machines, scaled


def run_all():
    machines = bench_machines()
    workload = make_bcb(beta=3, small_segment_size=scaled(2_000), seed=14)
    n = max(len(workload.keys1), len(workload.keys2))
    lemma_ns = sample_matrix_size(n, machines)
    return {
        "workload": workload,
        "machines": machines,
        "nc": coarsened_size_ablation(workload, machines, multipliers=(1.0, 2.0, 3.0)),
        "ns": sample_matrix_size_ablation(
            workload, machines, sizes=(max(8, lemma_ns // 8), lemma_ns // 2, lemma_ns)
        ),
        "so": output_sample_ablation(workload, machines, multiples=(0.25, 1.0, 2.0, 4.0)),
    }


def test_ablation_design_choices(benchmark, report):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def table(golden):
        rows = [
            [
                row.knob,
                f"{row.value:g}",
                f"{row.join_cost:,.0f}",
                f"{row.total_cost:,.0f}",
                measured_seconds(row.build_seconds, golden=golden),
            ]
            for group in ("nc", "ns", "so")
            for row in results[group]
        ]
        return format_rows(
            ["knob", "value", "join cost", "total cost", "build (s)"], rows
        )

    report(
        "ablation_design_choices",
        f"Ablations of the histogram algorithm's sizing choices "
        f"({results['workload'].name}, J = {results['machines']})",
        table(golden=True),
        live=table(golden=False),
    )

    # Every configuration still produces correct output -- the knobs trade
    # efficiency against balance, never correctness.
    for group in ("nc", "ns", "so"):
        for row in results[group]:
            assert row.result.output_correct

    # n_c = 2J balances at least as well as n_c = J (the paper's argument for
    # lessening the grid-partitioning accuracy loss).
    nc_rows = {row.value: row for row in results["nc"]}
    assert nc_rows[2.0].join_cost <= 1.05 * nc_rows[1.0].join_cost

    # The Lemma 3.1 sample matrix stays competitive with much coarser grids;
    # at laptop scale sampling noise can favour either side by a little, so
    # the check is a sanity band rather than a strict ordering.
    ns_rows = results["ns"]
    assert ns_rows[-1].join_cost <= 1.25 * ns_rows[0].join_cost
