"""Figures 4f and 4g: weak scalability of BE_OCD (execution time and memory).

The paper scales the TPC-H scale factor and J together (80/16 -> 160/32 ->
320/64).  The output grows much faster than the input for this join, so the
expected shape is: CSI scales very poorly (JPS concentrates the growing
output on a few machines), while CI and CSIO both scale well with CSIO in
front; the memory gap between CI and the others is smaller than for the band
joins because the filtered input is small.
"""

from __future__ import annotations

from repro.bench.reporting import format_scalability_table
from repro.bench.scalability import run_weak_scaling
from repro.workloads.definitions import make_beocd

from bench_utils import scaled


def run_sweep():
    points = [(scaled(10_000), 8), (scaled(20_000), 16), (scaled(40_000), 32)]
    return run_weak_scaling(
        workload_factory=lambda size: make_beocd(num_orders=int(size), seed=7),
        points=points,
        schemes=("CI", "CSI", "CSIO"),
        seed=0,
    )


def test_figure4fg_beocd_weak_scaling(benchmark, report):
    points = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "fig4fg_beocd_scalability",
        "Figures 4f/4g: BE_OCD weak scaling (scale factor and J doubled together)",
        format_scalability_table(points),
    )

    for point in points:
        for scheme, result in point.comparison.results.items():
            assert result.output_correct, (point.num_machines, scheme)

    # CSI is the worst operator at every point (JPS), and its disadvantage
    # against CSIO persists as the workload scales.
    for point in points:
        results = point.comparison.results
        assert results["CSI"].total_cost > results["CSIO"].total_cost
        assert results["CSI"].join_cost >= results["CI"].join_cost * 0.9

    # CSIO stays close to the best operator everywhere.
    for point in points:
        results = point.comparison.results
        best_other = min(results["CI"].total_cost, results["CSI"].total_cost)
        assert results["CSIO"].total_cost <= 1.2 * best_other
