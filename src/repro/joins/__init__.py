"""Join conditions, relations and local (per-machine) join algorithms.

This subpackage is the substrate every partitioning scheme relies on:

* :mod:`repro.joins.conditions` -- monotonic join predicates (equi-, band-,
  inequality- and composite equi+band joins) with interval arithmetic used
  both for matching tuples and for candidate-cell checks on grid boundaries.
* :mod:`repro.joins.relations` -- a small column-oriented relation container.
* :mod:`repro.joins.local` -- the local join algorithms each worker runs on
  its region (sort-merge band join, hash equi-join, nested loop), plus fast
  vectorised output counting used by the simulator and the benchmarks.
"""

from repro import lazy_exports

_EXPORTS = {
    "JoinCondition": "repro.joins.conditions",
    "EquiJoinCondition": "repro.joins.conditions",
    "BandJoinCondition": "repro.joins.conditions",
    "InequalityJoinCondition": "repro.joins.conditions",
    "InequalityOp": "repro.joins.conditions",
    "CompositeEquiBandCondition": "repro.joins.conditions",
    "Relation": "repro.joins.relations",
    "join_output_pairs": "repro.joins.local",
    "count_join_output": "repro.joins.local",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
