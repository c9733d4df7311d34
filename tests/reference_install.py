"""Reference wholesale-state path: index assignments, a gather, a sort per machine.

Test-only, the differential oracle of ``tests/test_install_oracle.py``.
Until state entered a machine in the router's shape, a migration, a resize
and a restore reached the backend in three steps:

1. ``route_live`` (kept in ``tests/reference_migration.py``) -- the live
   history routed by ``assign_r1`` / ``assign_r2`` into per-region index
   arrays padded to the fleet, then placed by the planner's own loop; the
   initial build instead gathered and stably sorted each machine's keys
   right away;
2. ``ExecutionBackend.resize`` -- a fresh, empty table of the new size (the
   sticky backend: new machine ownership, ``_assign``) when the fleet size
   changed, which on its own dropped everything;
3. ``install_state(assignments1, assignments2, history1, history2)`` --
   ``_gather_columns`` pulled each machine's keys back out of the logs and
   ``RegionStateTable.install`` rebuilt every machine with
   ``SortedRegionState.from_pairs``' stable key-sort.

The functions and methods below are those bodies as they stood.  A sticky
worker is production code in another process and no longer sorts what it
installs, so :class:`ReferenceStickyBackend` applies ``from_pairs``' sort
engine-side before shipping -- the same arrays, of the same sizes, as the
old install wrote.  :class:`ReferenceInstallEngine` runs the chain in a
real engine.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np
import reference_migration

from repro.partitioning.base import sort_arrivals
from repro.streaming import migration
from repro.streaming.arrivals import ArrivalLog
from repro.streaming.backends import (
    RegionStateTable,
    SimulatedBackend,
    StickyWorkerBackend,
    _index_lengths,
    state_layout,
)
from repro.streaming.engine import StreamingJoinEngine
from repro.streaming.incremental import SortedRegionState

__all__ = [
    "ReferenceInstallBackend",
    "ReferenceInstallEngine",
    "ReferenceStickyBackend",
    "from_pairs",
    "install_table",
    "plan_columns",
    "sorted_columns",
]


# ----------------------------------------------------------------------
# 3. The install: gather, then a stable key-sort per machine
# ----------------------------------------------------------------------
def _gather_columns(
    assignments: "list[np.ndarray]", history: "ArrivalLog | np.ndarray"
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Per machine, an index assignment with its keys gathered from the history."""
    columns = []
    for indices in assignments:
        indices = np.asarray(indices, dtype=np.int64)
        columns.append((indices, history[indices]))
    return columns


def from_pairs(indices: np.ndarray, keys: np.ndarray) -> SortedRegionState:
    """Build single-run state from parallel arrival-index / key arrays."""
    indices, keys = sort_arrivals(
        np.asarray(indices, dtype=np.int64), np.asarray(keys)
    )
    return SortedRegionState(index=indices, keys=keys)


def install_table(table: RegionStateTable, arrays: "list[np.ndarray]") -> None:
    """``RegionStateTable.install``: every machine rebuilt by ``from_pairs``."""
    for machine in table.machines:
        idx1, keys1, idx2, keys2 = arrays[4 * machine : 4 * machine + 4]
        table.state1[machine] = from_pairs(idx1, keys1)
        table.state2[machine] = from_pairs(idx2, keys2)


def sorted_columns(assignments, history) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Per machine, the columns the old install held: gathered, then sorted."""
    return [
        sort_arrivals(np.asarray(indices, dtype=np.int64), np.asarray(keys))
        for indices, keys in _gather_columns(assignments, history)
    ]


def plan_columns(*arguments, **options) -> migration.MigrationPlan:
    """The reference planner's plan as the production type, columns sorted.

    ``arguments`` are ``plan_migration``'s; the histories are the fourth
    and fifth.
    """
    plan = reference_migration.plan_migration(*arguments, **options)
    keys1, keys2 = arguments[3], arguments[4]
    return migration.MigrationPlan(
        new_state1=sorted_columns(plan.new_assignments1, keys1),
        new_state2=sorted_columns(plan.new_assignments2, keys2),
        per_machine_arrivals=plan.per_machine_arrivals,
        per_machine_departures=plan.per_machine_departures,
        region_to_machine=plan.region_to_machine,
        mode=plan.mode,
    )


# ----------------------------------------------------------------------
# 2. + 3. The backends' resize and index-assignment install
# ----------------------------------------------------------------------
class ReferenceInstallBackend(SimulatedBackend):
    """The in-process default's ``resize`` and four-argument ``install_state``."""

    def install_state(self, assignments1, assignments2, history1, history2):
        """Replace every machine's state with complete index assignments."""
        install_table(
            self._bound_table(),
            state_layout(
                _gather_columns(assignments1, history1),
                _gather_columns(assignments2, history2),
            ),
        )

    def resize(self, num_machines: int) -> None:
        """Adopt a new fleet size, discarding all resident state."""
        self._bound_table()
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self._table = RegionStateTable(range(num_machines))


class ReferenceStickyBackend(StickyWorkerBackend):
    """The sticky backend's ``resize`` and four-argument ``install_state``."""

    def install_state(self, assignments1, assignments2, history1, history2):
        """Move migrated state between workers through shared memory."""
        layout = state_layout(
            sorted_columns(assignments1, history1),
            sorted_columns(assignments2, history2),
        )
        self._command("install", self._bound_arena().write(layout))
        self._counts = _index_lengths(assignments1, assignments2)

    def resize(self, num_machines: int) -> None:
        """Reassign machine ownership across the workers for a new fleet size."""
        self._bound_arena()
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self._assign(num_machines)


# ----------------------------------------------------------------------
# 1. + the engine's initial build and plan -> resize -> install
# ----------------------------------------------------------------------
class ReferenceInstallEngine(StreamingJoinEngine):
    """A production engine whose wholesale state takes the old three steps.

    Run it on :class:`ReferenceInstallBackend` or
    :class:`ReferenceStickyBackend`.  Per-batch routing is production's.
    """

    def _route(self, s, batch, offsets, initial_build):
        if not initial_build:
            return super()._route(s, batch, offsets, initial_build)
        J = self.num_machines
        with self.tracer.span("route", category="stage", initial_build=initial_build):
            s.region_to_machine = np.arange(J, dtype=np.int64)
            return tuple(
                [
                    sort_arrivals(held, log[held])
                    for held in reference_migration.route_live(assign, log, J, s.rng)
                ]
                for assign, log in (
                    (s.partitioning.assign_r1, s.log1),
                    (s.partitioning.assign_r2, s.log2),
                )
            )

    def _adopt(self, replacement, machines, builds_before):
        s = self._state
        resident1, resident2 = self.backend.resident_indices()
        plan = reference_migration.plan_migration(
            resident1,
            resident2,
            replacement,
            s.log1,
            s.log2,
            machines,
            s.rng,
            mode=self.migration_mode,
        )
        if machines != self.num_machines:
            self.backend.resize(machines)
            self.num_machines = machines
        self.backend.install_state(
            plan.new_assignments1, plan.new_assignments2, s.log1, s.log2
        )
        s.resident_tuples = sum(
            len(held) for held in plan.new_assignments1 + plan.new_assignments2
        )
        s.partitioning = replacement
        s.region_to_machine = plan.region_to_machine
        load = (
            self.migration_cost_factor
            * self.weight_fn.input_cost
            * plan.per_machine_arrivals.astype(np.float64)
        )
        rebuild_cost = 0.0
        if self.histogram.rebuilds > builds_before:
            rebuild_cost = self._rebuild_charge()
            load = load + rebuild_cost
        return {
            "load": load,
            "migrated": int(plan.per_machine_arrivals.sum()),
            "rebuild_cost": rebuild_cost,
            # What the production engine keeps of a plan: the figures, no state.
            "plan": migration.MigrationPlan(
                new_state1=[],
                new_state2=[],
                per_machine_arrivals=plan.per_machine_arrivals,
                per_machine_departures=plan.per_machine_departures,
                region_to_machine=plan.region_to_machine,
                mode=plan.mode,
            ),
        }
