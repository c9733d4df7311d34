"""The high-selectivity fallback operator (paper, section VI-E).

CSIO is designed for low-selectivity joins.  When the output is several
orders of magnitude larger than the input, 1-Bucket's replication cost stops
mattering and CSIO's statistics phase stops paying for itself.  Join
selectivity cannot be known in advance, so the paper's operator *always*
starts by building the CSIO scheme and watches how long that takes relative
to the input size: if building the scheme exceeds an experimentally
determined threshold (about half a second per million input tuples on their
cluster), it abandons the scheme and falls back to the content-insensitive
operator, having wasted only a few percent of CI's total execution time.

:class:`AdaptiveOperator` reproduces that policy: it builds the CSIO scheme,
measures the build wall-clock with an injectable ``clock`` (so the threshold
path is testable without real timing), and either executes the scheme or
abandons it -- before running the join -- in favour of CI, charging the
wasted statistics work to the reported costs.  The threshold is expressed the
same way as the paper's (seconds of scheme-building wall-clock per million
input tuples) and is configurable because absolute constants do not transfer
between the paper's cluster and a laptop-scale Python run.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.histogram import EWHConfig
from repro.core.weights import WeightFunction
from repro.engine.operators import CIOperator, CSIOOperator, Operator, OperatorRunResult
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter

__all__ = ["AdaptiveOperator"]


class AdaptiveOperator(Operator):
    """Start with CSIO; fall back to CI when scheme building is too expensive.

    Parameters
    ----------
    num_machines:
        ``J``.
    fallback_seconds_per_million:
        Threshold on the scheme-building wall-clock time, in seconds per
        million input tuples.  When building the CSIO scheme exceeds it, the
        operator abandons the scheme, switches to CI and charges the wasted
        statistics work to the reported costs.
    ewh_config:
        Configuration forwarded to the CSIO build.
    clock:
        Monotonic time source used to measure the scheme build (defaults to
        :func:`repro.obs.clock.perf_counter`).  Injectable so tests can
        drive the
        fallback decision deterministically.
    """

    scheme_name = "CSIO-adaptive"

    def __init__(
        self,
        num_machines: int,
        fallback_seconds_per_million: float = 0.5,
        ewh_config: EWHConfig | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        super().__init__(num_machines)
        if fallback_seconds_per_million <= 0:
            raise ValueError("fallback_seconds_per_million must be positive")
        self.fallback_seconds_per_million = fallback_seconds_per_million
        self.ewh_config = ewh_config
        self.clock = clock or perf_counter
        self.fell_back = False

    def build_partitioning(self, keys1, keys2, condition, weight_fn, rng):
        raise NotImplementedError(
            "AdaptiveOperator overrides run() directly because the fallback "
            "decision needs the CSIO build measurements"
        )

    def run(
        self,
        keys1: np.ndarray,
        keys2: np.ndarray,
        condition: JoinCondition,
        weight_fn: WeightFunction,
        rng: np.random.Generator | None = None,
        expected_output: int | None = None,
    ) -> OperatorRunResult:
        rng = rng or np.random.default_rng(0)
        keys1, keys2 = np.asarray(keys1), np.asarray(keys2)
        if expected_output is None:
            expected_output = count_join_output(keys1, keys2, condition)

        csio = CSIOOperator(self.num_machines, config=self.ewh_config)
        start = self.clock()
        partitioning, csio_stats_cost, build_seconds = csio.build_partitioning(
            keys1, keys2, condition, weight_fn, rng
        )
        measured_build_seconds = self.clock() - start

        input_millions = (len(keys1) + len(keys2)) / 1_000_000
        threshold_seconds = self.fallback_seconds_per_million * max(
            input_millions, 1e-6
        )
        self.fell_back = measured_build_seconds > threshold_seconds
        if not self.fell_back:
            return csio.execute_and_report(
                partitioning, csio_stats_cost, build_seconds,
                keys1, keys2, condition, weight_fn, rng, expected_output,
            )

        # Abandon the scheme before the join and run CI instead.
        ci_result = CIOperator(self.num_machines).run(
            keys1, keys2, condition, weight_fn, rng, expected_output=expected_output
        )
        # The abandoned CSIO statistics work is not free: charge it on top of
        # CI's costs, exactly as the paper accounts for the wasted 4%.
        return OperatorRunResult(
            scheme=self.scheme_name,
            num_machines=self.num_machines,
            stats_cost=ci_result.stats_cost + csio_stats_cost,
            join_cost=ci_result.join_cost,
            memory_tuples=ci_result.memory_tuples,
            network_tuples=ci_result.network_tuples,
            max_region_weight=ci_result.max_region_weight,
            estimated_max_weight=None,
            total_output=ci_result.total_output,
            output_correct=ci_result.output_correct,
            replication_factor=ci_result.replication_factor,
            build_seconds=build_seconds + ci_result.build_seconds,
            execution=ci_result.execution,
        )
