"""Figure 4c: cluster memory (and network) consumption per operator.

For the three representative joins (B_ICD, B_CB-3, BE_OCD) the benchmark
reports each operator's cluster-wide memory consumption -- the number of
tuples resident across all machines after routing, which is also the network
traffic of the repartition join.  The paper's shape: CI consumes several
times more than CSI/CSIO on the band joins because of its input replication
(around 4x at J = 32), while CSIO sits slightly above CSI because balancing
total work sometimes assigns more input to regions with little output.
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


def test_figure4c_memory_consumption(benchmark, report):
    comparisons = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for comparison in comparisons:
        for scheme in ("CI", "CSI", "CSIO"):
            result = comparison.results[scheme]
            rows.append(
                [
                    comparison.workload_name,
                    scheme,
                    f"{result.memory_tuples:,}",
                    f"{result.network_tuples:,}",
                    f"{result.replication_factor:.2f}",
                ]
            )
    table = format_rows(
        ["join", "scheme", "memory (tuples)", "network (tuples)", "repl. factor"], rows
    )
    report(
        "fig4c_memory",
        f"Figure 4c: cluster memory consumption (J = {bench_machines()})",
        table,
    )

    for comparison in comparisons:
        ci = comparison.results["CI"]
        csi = comparison.results["CSI"]
        csio = comparison.results["CSIO"]
        if comparison.workload_name != "BE_OCD":
            # On the band joins CI needs several times more memory.
            assert ci.memory_tuples > 2.0 * csio.memory_tuples
        # CI is never more memory-efficient than the content-sensitive schemes.
        assert ci.memory_tuples >= csio.memory_tuples
        assert ci.memory_tuples >= csi.memory_tuples
        # CSIO pays at most a modest premium over CSI for balancing total work.
        assert csio.memory_tuples <= 2.5 * csi.memory_tuples
