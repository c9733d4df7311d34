"""The three join operators compared by the paper's evaluation.

An *operator* bundles a partitioning scheme's build (statistics) phase with
the partitioned join execution and reports the quantities of Figure 4:

* ``stats_cost`` -- the modelled cost of collecting statistics and building
  the partitioning scheme, in cost-model units (per-machine scan work).
  1-Bucket has none; M-Bucket scans both relations twice (its two
  MapReduce statistics stages); CSIO scans both relations once (shared
  mappers) plus the much smaller d2equi/output-sample pass.
* ``join_cost`` -- the maximum machine weight of the execution (modelled join
  time; Fig. 4h validates the proportionality to wall-clock time).
* ``total_cost`` -- the paper's "total execution time": stats + join.
* memory / network tuples, the achieved and (for CSIO) estimated maximum
  region weight, the replication factor and output-correctness flag.

Wall-clock seconds spent building each scheme are reported separately
(``build_seconds``) -- they correspond to the "histogram algorithm time" rows
of Table V.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.histogram import EWHConfig
from repro.core.weights import STATS_SCAN_FACTOR, WeightFunction
from repro.engine.cluster import JoinExecutionResult, run_partitioned_join
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.partitioning.base import Partitioning
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning

__all__ = [
    "OperatorRunResult",
    "Operator",
    "CIOperator",
    "CSIOperator",
    "CSIOOperator",
]


@dataclass
class OperatorRunResult:
    """Everything measured for one operator on one workload.

    All ``*_cost`` figures are in cost-model units (the same units as region
    weights); ``build_seconds`` is wall-clock time spent constructing the
    partitioning scheme on this machine.
    """

    scheme: str
    num_machines: int
    stats_cost: float
    join_cost: float
    memory_tuples: int
    network_tuples: int
    max_region_weight: float
    estimated_max_weight: float | None
    total_output: int
    output_correct: bool
    replication_factor: float
    build_seconds: float
    execution: JoinExecutionResult

    @property
    def total_cost(self) -> float:
        """Total execution cost: statistics phase plus join phase."""
        return self.stats_cost + self.join_cost


class Operator(abc.ABC):
    """Base class of the CI / CSI / CSIO operators."""

    #: Reporting name of the scheme.
    scheme_name: str = "operator"

    def __init__(self, num_machines: int) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self.num_machines = num_machines

    @abc.abstractmethod
    def build_partitioning(
        self,
        keys1: np.ndarray,
        keys2: np.ndarray,
        condition: JoinCondition,
        weight_fn: WeightFunction,
        rng: np.random.Generator,
    ) -> tuple[Partitioning, float, float]:
        """Build the scheme; return (partitioning, stats_cost, build_seconds)."""

    def run(
        self,
        keys1: np.ndarray,
        keys2: np.ndarray,
        condition: JoinCondition,
        weight_fn: WeightFunction,
        rng: np.random.Generator | None = None,
        expected_output: int | None = None,
    ) -> OperatorRunResult:
        """Build the scheme, execute the partitioned join and report metrics.

        ``expected_output`` (the exact join size) enables the correctness
        check; when omitted it is computed once from the inputs.  Keys keep
        their own dtype: the builders sample them as float64 for statistics,
        but routing and counting compare the keys themselves, so int64 keys
        above 2**53 are counted exactly.
        """
        rng = rng or np.random.default_rng(0)
        keys1, keys2 = np.asarray(keys1), np.asarray(keys2)
        if expected_output is None:
            expected_output = count_join_output(keys1, keys2, condition)

        partitioning, stats_cost, build_seconds = self.build_partitioning(
            keys1, keys2, condition, weight_fn, rng
        )
        return self.execute_and_report(
            partitioning, stats_cost, build_seconds,
            keys1, keys2, condition, weight_fn, rng, expected_output,
        )

    def execute_and_report(
        self,
        partitioning: Partitioning,
        stats_cost: float,
        build_seconds: float,
        keys1: np.ndarray,
        keys2: np.ndarray,
        condition: JoinCondition,
        weight_fn: WeightFunction,
        rng: np.random.Generator,
        expected_output: int,
    ) -> OperatorRunResult:
        """Execute an already-built partitioning and assemble the report.

        Split out of :meth:`run` so callers that interpose on the build phase
        (the adaptive fallback operator) can reuse the execution/reporting
        half unchanged.
        """
        execution = run_partitioned_join(partitioning, keys1, keys2, condition, rng)
        estimated = getattr(partitioning, "estimated_max_weight", None)
        return OperatorRunResult(
            scheme=self.scheme_name,
            num_machines=self.num_machines,
            stats_cost=stats_cost,
            join_cost=execution.max_weight(weight_fn),
            memory_tuples=execution.memory_tuples,
            network_tuples=execution.network_tuples,
            max_region_weight=execution.max_weight(weight_fn),
            estimated_max_weight=estimated,
            total_output=execution.total_output,
            output_correct=execution.total_output == expected_output,
            replication_factor=execution.replication_factor,
            build_seconds=build_seconds,
            execution=execution,
        )


class CIOperator(Operator):
    """The content-insensitive operator (1-Bucket): no statistics phase at all."""

    scheme_name = "CI"

    def build_partitioning(self, keys1, keys2, condition, weight_fn, rng):
        partitioning = build_one_bucket_partitioning(
            self.num_machines, int(rng.integers(2**63))
        )
        return partitioning, 0.0, 0.0


class CSIOperator(Operator):
    """The content-sensitive, input-only operator (M-Bucket)."""

    scheme_name = "CSI"

    def __init__(
        self,
        num_machines: int,
        config: MBucketConfig | None = None,
    ) -> None:
        super().__init__(num_machines)
        self.config = config or MBucketConfig()

    def build_partitioning(self, keys1, keys2, condition, weight_fn, rng):
        partitioning = build_m_bucket_partitioning(
            keys1, keys2, condition, self.num_machines,
            weight_fn=weight_fn, config=self.config, rng=rng,
        )
        # Two MapReduce statistics stages, each scanning both relations,
        # parallelised over the machines.
        scan_tuples = 2.0 * (len(keys1) + len(keys2))
        stats_cost = (
            STATS_SCAN_FACTOR
            * weight_fn.input_cost
            * scan_tuples
            / self.num_machines
        )
        return partitioning, stats_cost, partitioning.build_seconds


class CSIOOperator(Operator):
    """The equi-weight histogram operator (the paper's CSIO)."""

    scheme_name = "CSIO"

    def __init__(
        self,
        num_machines: int,
        config: EWHConfig | None = None,
    ) -> None:
        super().__init__(num_machines)
        self.config = config or EWHConfig()

    def build_partitioning(self, keys1, keys2, condition, weight_fn, rng):
        partitioning = build_ewh_partitioning(
            keys1, keys2, condition, self.num_machines,
            weight_fn=weight_fn, config=self.config, rng=rng,
        )
        stats = partitioning.histogram.sampling_stats
        # One shared scan over both relations, plus the (small) d2equi and
        # output-sample passes of the parallel Stream-Sample.
        scan_tuples = len(keys1) + len(keys2)
        extra_tuples = sum(stats.d2equi_entries_shipped) + sum(
            stats.sample_pairs_produced
        )
        stats_cost = (
            STATS_SCAN_FACTOR
            * weight_fn.input_cost
            * (scan_tuples + extra_tuples)
            / self.num_machines
        )
        return partitioning, stats_cost, partitioning.build_seconds
