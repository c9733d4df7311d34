"""Figure 4a: total execution time (stats + join) per join and operator.

Runs every Table IV workload under CI, CSI and CSIO on the simulated cluster
and reports the modelled stats cost, join cost and total cost -- the bar
chart of Figure 4a in table form.  The expected shape:

* B_ICD (small rho_oi): CI is the worst, CSI and CSIO are close;
* B_CB-beta: CSIO is the best, with CI improving and CSI degrading as the
  band width (and hence rho_oi) grows;
* BE_OCD (large rho_oi): CSI is by far the worst, CI and CSIO are close,
  CSIO in front.
"""

from __future__ import annotations

from repro.bench.experiments import compare_operators
from repro.bench.reporting import format_comparison_table
from repro.workloads.definitions import make_bcb, make_beocd, make_bicd

from bench_utils import bench_machines, scaled


def run_all():
    machines = bench_machines()
    workloads = [make_bicd(num_orders=scaled(10_000), seed=7)]
    for beta in (1, 2, 3, 4, 8, 16):
        workloads.append(
            make_bcb(beta=beta, small_segment_size=scaled(2_000), seed=11 + beta)
        )
    workloads.append(make_beocd(num_orders=scaled(20_000), seed=7))
    return [
        compare_operators(workload, num_machines=machines, seed=0)
        for workload in workloads
    ]


def test_figure4a_total_time(benchmark, report):
    comparisons = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report(
        "fig4a_total_time",
        f"Figure 4a: total execution cost per join (J = {bench_machines()})",
        format_comparison_table(comparisons),
    )

    by_name = {c.workload_name: c for c in comparisons}

    # Everything is correct everywhere.
    for comparison in comparisons:
        for scheme, result in comparison.results.items():
            assert result.output_correct, (comparison.workload_name, scheme)

    # CSIO is on the lower envelope (within a small tolerance) for every join.
    for comparison in comparisons:
        best_other = min(
            comparison.results["CI"].total_cost, comparison.results["CSI"].total_cost
        )
        assert comparison.results["CSIO"].total_cost <= 1.15 * best_other, (
            comparison.workload_name
        )

    # Input-dominated corner: CI suffers from replication.
    assert by_name["B_ICD"].speedup("CI") > 1.3
    # Output-dominated corner: CSI suffers from JPS.
    assert by_name["BE_OCD"].speedup("CSI") > 1.25
    # The B_CB family: CSIO beats CSI everywhere and beats CI except possibly
    # at the widest band, where output costs dwarf input costs and the two
    # schemes converge (the paper's own worst case is CSIO 1.04x slower).
    for beta in (1, 2, 3, 4, 8, 16):
        comparison = by_name[f"B_CB-{beta}"]
        assert comparison.speedup("CSI") >= 1.0
        assert comparison.speedup("CI") >= (1.0 if beta <= 8 else 0.9)
