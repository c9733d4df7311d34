"""Figure 4h: maximum region weight per scheme, and CSIO's own estimate.

For B_ICD, B_CB-3 and BE_OCD this regenerates the maximum region weight
(computed after execution from the per-machine input/output counts) of every
scheme, plus CSIO's *estimated* maximum region weight (CSIO-est) produced by
the histogram algorithm before any tuple is routed.  Two claims are checked:

* within one join, the ordering of the maximum region weights matches the
  ordering of the join costs (the cost model is faithful);
* CSIO-est is close to the weight measured after execution (the paper
  reports at most 6% deviation at cluster scale; sampling noise is larger at
  laptop scale, so the tolerance here is looser).
"""

from __future__ import annotations

from repro.bench.experiments import compare_operators
from repro.bench.reporting import format_rows
from repro.workloads.definitions import make_bcb, make_beocd, make_bicd

from bench_utils import bench_machines, scaled


def run_all():
    machines = bench_machines()
    workloads = [
        make_bicd(num_orders=scaled(10_000), seed=7),
        make_bcb(beta=3, small_segment_size=scaled(2_000), seed=14),
        make_beocd(num_orders=scaled(20_000), seed=7),
    ]
    return [
        compare_operators(workload, num_machines=machines, seed=0)
        for workload in workloads
    ]


def test_figure4h_max_region_weight(benchmark, report):
    comparisons = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for comparison in comparisons:
        for scheme in ("CI", "CSI", "CSIO"):
            result = comparison.results[scheme]
            estimate = (
                f"{result.estimated_max_weight:,.0f}"
                if result.estimated_max_weight is not None
                else "-"
            )
            rows.append(
                [
                    comparison.workload_name,
                    scheme,
                    f"{result.max_region_weight:,.0f}",
                    estimate,
                    f"{result.join_cost:,.0f}",
                ]
            )
    table = format_rows(
        ["join", "scheme", "max region weight", "CSIO-est", "join cost"], rows
    )
    report(
        "fig4h_region_weight",
        f"Figure 4h: maximum region weight (J = {bench_machines()})",
        table,
    )

    for comparison in comparisons:
        results = comparison.results
        # The cost model: within one join, region-weight ordering equals
        # join-cost ordering (they are the same quantity in the simulator, so
        # this is a consistency check on the accounting).
        by_weight = sorted(results, key=lambda s: results[s].max_region_weight)
        by_cost = sorted(results, key=lambda s: results[s].join_cost)
        assert by_weight == by_cost

        # CSIO achieves the smallest maximum region weight, up to a few
        # percent in the no-JPS corner (B_ICD) where CSI is essentially
        # optimal already (the paper's worst case there is 1.04x).
        csio = results["CSIO"].max_region_weight
        assert csio <= results["CI"].max_region_weight
        assert csio <= 1.05 * results["CSI"].max_region_weight

        # CSIO-est is close to the measured weight.
        estimate = results["CSIO"].estimated_max_weight
        assert estimate is not None
        assert abs(estimate - csio) / csio < 0.40
