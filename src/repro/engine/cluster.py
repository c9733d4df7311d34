"""The shared-nothing cluster simulator.

``run_partitioned_join`` executes a join under a given partitioning exactly
the way the paper's runtime would, but bookkeeping-only: every region's
machine receives the tuples the scheme routes to it (counting replication),
joins them locally (the output count is computed, not materialised), and the
per-machine input/output counters feed the cost model.  Routing and counting
are the streaming engine's own: each side is routed once
(:func:`~repro.partitioning.routing.route_batch` -- a grid scheme sorts the
side once and hands every region a slice), and the join is counted as the
first half of a stream batch into empty state: R1's routed keys against
R2's routed groups in one :func:`~repro.joins.local.count_runs` call, in
the keys' own dtype.
The simulator therefore measures the quantities Figure 4 reports:

* ``join cost`` -- the maximum machine weight ``w_i*input + w_o*output``
  (the paper validates in Fig. 4h that this is proportional to the join
  execution time);
* ``memory`` -- tuples resident across the cluster (input after replication);
* ``network`` -- tuples shipped from mappers to reducers.

Correctness is also checked: the total output across machines must equal the
exact join size, which guards against partitionings that drop or duplicate
candidate cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition, normalise_keys
from repro.joins.local import count_runs
from repro.partitioning.base import Partitioning
from repro.partitioning.routing import RoutedSide, route_batch, side_layout

__all__ = ["JoinExecutionResult", "run_partitioned_join"]


@dataclass
class JoinExecutionResult:
    """Per-machine accounting of one partitioned join execution.

    Attributes
    ----------
    per_machine_input:
        Tuples received by each machine (R1 + R2, counting replication).
    per_machine_output:
        Output tuples produced by each machine.
    total_output:
        Sum of the per-machine outputs.
    memory_tuples:
        Total tuples resident across the cluster (equals total input after
        replication -- the join is main-memory).
    network_tuples:
        Tuples shipped from mappers to reducers (equals the memory figure for
        a repartition join).
    replication_factor:
        Average number of machines each input tuple was shipped to.
    """

    per_machine_input: np.ndarray
    per_machine_output: np.ndarray
    total_output: int
    memory_tuples: int
    network_tuples: int
    replication_factor: float

    @property
    def num_machines(self) -> int:
        """Number of machines that could receive work."""
        return len(self.per_machine_input)

    def max_weight(self, weight_fn: WeightFunction) -> float:
        """Maximum machine weight under ``weight_fn`` (the modelled join time)."""
        if self.num_machines == 0:
            return 0.0
        weights = (
            weight_fn.input_cost * self.per_machine_input
            + weight_fn.output_cost * self.per_machine_output
        )
        return float(weights.max())

    def machine_weights(self, weight_fn: WeightFunction) -> np.ndarray:
        """Per-machine weights under ``weight_fn``."""
        return (
            weight_fn.input_cost * self.per_machine_input
            + weight_fn.output_cost * self.per_machine_output
        )


def _route(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    rng: np.random.Generator,
) -> "tuple[RoutedSide, RoutedSide]":
    """Both sides of a batch join routed, region ``r`` to machine ``r``.

    The one routing step of batch execution, shared with the multiprocess
    executor: each side normalised (:func:`~repro.joins.conditions.normalise_keys`)
    and routed once by the stream's own route
    (:func:`~repro.partitioning.routing.route_batch`), R1 first, so a
    randomised scheme draws from ``rng`` exactly as ``assign_r1`` then
    ``assign_r2`` would.
    """
    machines = partitioning.num_regions
    regions = np.arange(machines, dtype=np.int64)
    return tuple(
        route_batch(
            partitioning, side, normalise_keys(keys), rng, 0,
            side_layout(partitioning, side, regions, machines), regions, machines,
        )
        for side, keys in ((1, keys1), (2, keys2))
    )


def run_partitioned_join(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    rng: np.random.Generator | None = None,
) -> JoinExecutionResult:
    """Execute a partitioned join and return per-machine statistics.

    Parameters
    ----------
    partitioning:
        Any partitioning scheme (CI, CSI, CSIO, ...).
    keys1, keys2:
        Join keys of R1 and R2, counted in their own dtype (integer keys
        above 2**53 stay exact).
    condition:
        The join condition evaluated by the local joins.
    rng:
        Random generator for randomised schemes (1-Bucket); a fixed default
        is used when omitted.
    """
    rng = rng or np.random.default_rng(0)
    routed1, routed2 = _route(partitioning, keys1, keys2, rng)
    per_machine_input = routed1.sizes + routed2.sizes
    # The first half of a stream batch into empty state: R1's needles
    # against R2's routed groups, each machine reading its own.
    per_machine_output = np.zeros(len(per_machine_input), dtype=np.int64)
    layout = routed2.layout
    count_runs(
        condition, routed1.keys, routed1.starts, routed1.stops,
        [
            ([(routed2.group_keys(group), None)], readers)
            for group, readers in enumerate(layout.readers)
        ],
        layout.cut, per_machine_output,
    )

    total_input_shipped = int(per_machine_input.sum())
    total_tuples = len(keys1) + len(keys2)
    replication = total_input_shipped / total_tuples if total_tuples else 0.0

    return JoinExecutionResult(
        per_machine_input=per_machine_input,
        per_machine_output=per_machine_output,
        total_output=int(per_machine_output.sum()),
        memory_tuples=total_input_shipped,
        network_tuples=total_input_shipped,
        replication_factor=replication,
    )
