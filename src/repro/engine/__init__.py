"""The simulated shared-nothing execution engine.

The paper runs its operators on SQUALL (a Storm-based MapReduce-like
main-memory system) over a physical cluster.  This reproduction replaces that
substrate with:

* :mod:`repro.engine.cluster` -- a deterministic cluster simulator: mappers
  route tuples according to a partitioning scheme, reducers run the local
  join, and per-machine counters capture exactly the quantities the paper's
  evaluation reports (input received, output produced, memory-resident
  tuples, network traffic, maximum region weight under the cost model).
* :mod:`repro.engine.operators` -- the three operators (CI, CSI, CSIO) that
  combine a statistics/build phase with the partitioned join execution and
  report stats/join/total cost in cost-model units.
* :mod:`repro.engine.adaptive` -- the high-selectivity fallback operator
  (start with CSIO statistics, switch to CI when building the scheme becomes
  too expensive).
* :mod:`repro.engine.executor` -- a real ``multiprocessing`` executor that
  joins the per-region partitions in parallel OS processes (Python's GIL
  rules out shared-memory threading) and reports wall-clock times in a
  :class:`~repro.engine.executor.RegionJoinResult`, the streaming backends'
  result type too.
* :mod:`repro.engine.calibration` -- linear regression of the cost-model
  coefficients ``w_i`` and ``w_o`` from measured runs.
"""

from repro.engine.adaptive import AdaptiveOperator
from repro.engine.calibration import CalibrationSample, calibrate_cost_weights
from repro.engine.cluster import JoinExecutionResult, run_partitioned_join
from repro.engine.executor import RegionJoinResult, run_join_multiprocess
from repro.engine.heterogeneous import (
    HeterogeneousAssignment,
    HeterogeneousJoinResult,
    assign_regions_to_machines,
    plan_virtual_regions,
    run_heterogeneous_join,
)
from repro.engine.operators import (
    CIOperator,
    CSIOOperator,
    CSIOperator,
    Operator,
    OperatorRunResult,
)

__all__ = [
    "JoinExecutionResult",
    "run_partitioned_join",
    "Operator",
    "OperatorRunResult",
    "CIOperator",
    "CSIOperator",
    "CSIOOperator",
    "AdaptiveOperator",
    "RegionJoinResult",
    "run_join_multiprocess",
    "CalibrationSample",
    "calibrate_cost_weights",
    "HeterogeneousAssignment",
    "HeterogeneousJoinResult",
    "plan_virtual_regions",
    "assign_regions_to_machines",
    "run_heterogeneous_join",
]
