"""Integration tests: the paper's headline claims at small scale.

Each test runs the full stack (data generator -> statistics -> partitioning
scheme -> simulated execution) and asserts the *shape* of the paper's
evaluation results: who wins, in which regime, and why.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import compare_operators
from repro.core.histogram import EWHConfig
from repro.engine.operators import CSIOOperator
from repro.workloads.definitions import make_bcb, make_beocd, make_bicd


@pytest.fixture(scope="module")
def bcb_comparison():
    """Cost-balanced band join (B_CB-3) at small scale, J = 8."""
    workload = make_bcb(beta=3, small_segment_size=1_500, seed=11)
    return compare_operators(workload, num_machines=8, seed=0)


@pytest.fixture(scope="module")
def bicd_comparison():
    """Input-cost dominated join (B_ICD) at small scale, J = 8."""
    workload = make_bicd(num_orders=8_000, seed=7)
    return compare_operators(workload, num_machines=8, seed=0)


@pytest.fixture(scope="module")
def beocd_comparison():
    """Output-cost dominated join (BE_OCD) at small scale, J = 8."""
    workload = make_beocd(num_orders=10_000, seed=7)
    return compare_operators(workload, num_machines=8, seed=0)


class TestHeadlineClaims:
    def test_all_operators_correct_everywhere(
        self, bcb_comparison, bicd_comparison, beocd_comparison
    ):
        for comparison in (bcb_comparison, bicd_comparison, beocd_comparison):
            for scheme, result in comparison.results.items():
                assert result.output_correct, (comparison.workload_name, scheme)

    def test_csio_wins_or_ties_on_total_cost(
        self, bcb_comparison, bicd_comparison, beocd_comparison
    ):
        """CSIO is near the lower envelope across the whole rho_oi spectrum."""
        for comparison in (bcb_comparison, bicd_comparison, beocd_comparison):
            best_other = min(
                comparison.results["CI"].total_cost,
                comparison.results["CSI"].total_cost,
            )
            csio = comparison.results["CSIO"].total_cost
            # Allow a small tolerance: the paper itself reports CSIO up to
            # 1.04x slower than CSI in the extreme input-dominated corner.
            assert csio <= 1.15 * best_other, comparison.workload_name

    def test_csi_suffers_from_jps_on_output_dominated_join(self, beocd_comparison):
        """BE_OCD: JPS makes CSI clearly worse than CSIO.

        The paper reports up to 15x at 160 GB / 32 machines; at laptop scale
        the gap is smaller but must remain clearly visible.
        """
        assert beocd_comparison.speedup("CSI") > 1.25

    def test_ci_suffers_on_input_dominated_join(self, bicd_comparison):
        """B_ICD: input replication makes CI clearly worse than CSIO."""
        assert bicd_comparison.speedup("CI") > 1.3

    def test_ci_memory_is_worst_everywhere(
        self, bcb_comparison, bicd_comparison, beocd_comparison
    ):
        """Figure 4c: CI's replication dominates memory consumption."""
        for comparison in (bcb_comparison, bicd_comparison):
            ci_memory = comparison.results["CI"].memory_tuples
            assert ci_memory > comparison.results["CSI"].memory_tuples
            assert ci_memory > comparison.results["CSIO"].memory_tuples

    def test_csio_close_to_best_on_cost_balanced_join(self, bcb_comparison):
        """B_CB: both baselines lose to CSIO when neither cost dominates."""
        assert bcb_comparison.speedup("CI") > 1.0
        assert bcb_comparison.speedup("CSI") > 1.0

    def test_csio_estimate_tracks_measured_weight(self, bcb_comparison):
        """Figure 4h: the CSIO-est bar is close to the measured bar."""
        csio = bcb_comparison.results["CSIO"]
        assert csio.estimated_max_weight == pytest.approx(
            csio.max_region_weight, rel=0.35
        )

    def test_region_weight_ordering_mirrors_join_cost_ordering(self, beocd_comparison):
        """Figure 4h: max region weights are proportional to join times."""
        results = beocd_comparison.results
        by_weight = sorted(results, key=lambda s: results[s].max_region_weight)
        by_cost = sorted(results, key=lambda s: results[s].join_cost)
        assert by_weight == by_cost


class TestScalingBehaviour:
    def test_csio_join_cost_scales_with_machines(self):
        """Doubling J roughly halves CSIO's per-machine work on a fixed input."""
        workload = make_bcb(beta=3, small_segment_size=1_500, seed=11)
        costs = {}
        for machines in (4, 16):
            result = CSIOOperator(machines).run(
                workload.keys1, workload.keys2, workload.condition,
                workload.weight_fn, rng=np.random.default_rng(0),
                expected_output=workload.exact_output_size(),
            )
            costs[machines] = result.join_cost
        assert costs[16] < costs[4]
        # Within a factor-2 slack of ideal linear scaling.
        assert costs[16] >= costs[4] / 8

    def test_smaller_sample_matrix_degrades_balance(self):
        """The Lemma 3.1 sizing matters: a tiny n_s hurts load balance."""
        workload = make_bcb(beta=3, small_segment_size=1_500, seed=11)
        expected = workload.exact_output_size()

        def run(ns):
            return CSIOOperator(8, config=EWHConfig(sample_matrix_size=ns)).run(
                workload.keys1, workload.keys2, workload.condition,
                workload.weight_fn, rng=np.random.default_rng(1),
                expected_output=expected,
            )

        tiny = run(8)
        proper = run(128)
        assert tiny.output_correct and proper.output_correct
        assert proper.join_cost <= tiny.join_cost * 1.05
