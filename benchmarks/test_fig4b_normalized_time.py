"""Figure 4b: normalized total time as a function of the output/input ratio.

Sweeps the B_CB band width (which sweeps rho_oi) and reports every operator's
total cost normalised by CSIO's.  The paper's series shows CI starting high
(input costs dominate at small rho_oi) and converging towards CSIO as rho_oi
grows, while CSI starts close to CSIO and degrades; CSIO stays at 1.0 by
construction and is never above either baseline.
"""

from __future__ import annotations

from repro.bench.experiments import compare_operators
from repro.bench.reporting import format_rows
from repro.workloads.definitions import make_bcb

from bench_utils import bench_machines, scaled

BETAS = (1, 2, 3, 4, 8, 16)


def run_sweep():
    machines = bench_machines()
    comparisons = []
    for beta in BETAS:
        workload = make_bcb(beta=beta, small_segment_size=scaled(2_000), seed=11 + beta)
        comparisons.append(compare_operators(workload, num_machines=machines, seed=0))
    return comparisons


def test_figure4b_normalized_total_time(benchmark, report):
    comparisons = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for comparison in comparisons:
        csio = comparison.results["CSIO"].total_cost
        rows.append(
            [
                comparison.workload_name,
                f"{comparison.output_input_ratio:.2f}",
                f"{comparison.results['CI'].total_cost / csio:.2f}",
                f"{comparison.results['CSI'].total_cost / csio:.2f}",
                "1.00",
            ]
        )
    table = format_rows(
        ["join", "rho_oi", "CI / CSIO", "CSI / CSIO", "CSIO"], rows
    )
    report(
        "fig4b_normalized_time",
        f"Figure 4b: normalized total cost vs rho_oi (B_CB sweep, J = {bench_machines()})",
        table,
    )

    # rho_oi grows with the band width.
    ratios = [c.output_input_ratio for c in comparisons]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))

    # CSI never beats CSIO anywhere on the B_CB family; CI never beats it by
    # more than a few percent even at the widest band, where the two schemes
    # converge (the paper's own worst-case tolerance is 1.04x).
    for comparison in comparisons:
        csio = comparison.results["CSIO"].total_cost
        assert comparison.results["CSI"].total_cost >= csio
        assert comparison.results["CI"].total_cost >= 0.9 * csio

    # CI's normalised cost improves (or at least does not degrade) as the
    # output share grows, because its replication overhead loses relevance.
    ci_norm = [
        c.results["CI"].total_cost / c.results["CSIO"].total_cost for c in comparisons
    ]
    assert ci_norm[-1] <= ci_norm[0]
