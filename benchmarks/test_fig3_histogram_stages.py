"""Figure 3: the three stages of the histogram algorithm.

Regenerates, for one JPS-heavy workload, the chain sampling -> coarsening ->
regionalization: the sizes of the sample matrix MS and the coarsened matrix
MC, the maximum cell weight after each stage, the number and weights of the
final regions, and the wall-clock seconds spent per stage.
"""

from __future__ import annotations

import numpy as np

from repro.bench.reporting import format_rows, measured_seconds
from repro.core.histogram import build_equi_weight_histogram
from repro.workloads.definitions import make_bcb

from bench_utils import bench_machines, scaled


def build():
    workload = make_bcb(beta=3, small_segment_size=scaled(2_000), seed=11)
    machines = bench_machines()
    histogram = build_equi_weight_histogram(
        workload.keys1, workload.keys2, workload.condition, machines,
        workload.weight_fn, rng=np.random.default_rng(0),
    )
    return workload, machines, histogram


def test_figure3_histogram_stages(benchmark, report):
    workload, machines, histogram = benchmark.pedantic(build, rounds=1, iterations=1)
    weight_fn = workload.weight_fn

    ms = histogram.sample_matrix.grid
    mc = histogram.coarsening.grid

    def table(golden):
        def seconds(stage):
            return measured_seconds(histogram.stage_seconds[stage], golden=golden)

        rows = [
            [
                "sampling (MS)",
                f"{ms.num_rows} x {ms.num_cols}",
                f"{ms.max_cell_weight(weight_fn, candidates_only=True):,.0f}",
                seconds("sampling"),
            ],
            [
                "coarsening (MC)",
                f"{mc.num_rows} x {mc.num_cols}",
                f"{histogram.coarsening.max_cell_weight:,.0f}",
                seconds("coarsening"),
            ],
            [
                "regionalization (MH)",
                f"{histogram.num_regions} regions",
                f"{histogram.estimated_max_weight:,.0f}",
                seconds("regionalization"),
            ],
        ]
        return format_rows(
            ["stage", "size", "max cell/region weight", "seconds"], rows
        )

    report(
        "fig3_histogram_stages",
        f"Figure 3: histogram algorithm stages on {workload.name} (J = {machines})",
        table(golden=True),
        live=table(golden=False),
    )

    # The chain shrinks the matrix at every stage.
    assert mc.num_rows <= ms.num_rows
    assert mc.num_cols <= ms.num_cols
    assert histogram.num_regions <= machines
    # n_c = 2J as in the paper (clamped by the sample matrix size).
    assert mc.num_rows <= 2 * machines
    # The maximum cell weight grows as the matrix coarsens, while the final
    # regions bound it from above (regions may merge several cells).
    ms_sigma = ms.max_cell_weight(weight_fn, candidates_only=True)
    assert histogram.coarsening.max_cell_weight >= ms_sigma - 1e-9
    assert histogram.estimated_max_weight >= histogram.coarsening.max_cell_weight - 1e-9
    # Lemma 3.1: the MS cell weight stays at most half the optimum region
    # weight (approximated here by the achieved estimate).
    assert ms_sigma <= 0.75 * histogram.estimated_max_weight
