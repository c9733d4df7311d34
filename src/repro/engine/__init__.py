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
* :mod:`repro.engine.executor` -- a real parallel executor that runs the
  routed regions as the first batch of the streaming engine's sticky worker
  processes (Python's GIL rules out shared-memory threading) and reports
  wall-clock times in a :class:`~repro.engine.executor.RegionJoinResult`,
  the streaming backends' result type too.
* :mod:`repro.engine.calibration` -- linear regression of the cost-model
  coefficients ``w_i`` and ``w_o`` from measured runs.
"""

from repro import lazy_exports

_EXPORTS = {
    "JoinExecutionResult": "repro.engine.cluster",
    "run_partitioned_join": "repro.engine.cluster",
    "Operator": "repro.engine.operators",
    "OperatorRunResult": "repro.engine.operators",
    "CIOperator": "repro.engine.operators",
    "CSIOperator": "repro.engine.operators",
    "CSIOOperator": "repro.engine.operators",
    "AdaptiveOperator": "repro.engine.adaptive",
    "RegionJoinResult": "repro.engine.executor",
    "run_join_multiprocess": "repro.engine.executor",
    "CalibrationSample": "repro.engine.calibration",
    "calibrate_cost_weights": "repro.engine.calibration",
    "HeterogeneousAssignment": "repro.engine.heterogeneous",
    "HeterogeneousJoinResult": "repro.engine.heterogeneous",
    "plan_virtual_regions": "repro.engine.heterogeneous",
    "assign_regions_to_machines": "repro.engine.heterogeneous",
    "run_heterogeneous_join": "repro.engine.heterogeneous",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
