"""Reference wholesale-state path: index assignments, a gather, a sort per machine.

Test-only, the differential oracle of ``tests/test_install_oracle.py``.
Until state entered a machine in the router's shape, a migration, a resize
and a restore reached the backend in three steps:

1. ``route_live`` (kept in ``tests/reference_migration.py``) -- the live
   history routed by ``assign_r1`` / ``assign_r2`` into per-region index
   arrays padded to the fleet, then placed by the planner's own loop; the
   initial build instead gathered and sorted each machine's keys right away;
2. ``ExecutionBackend.resize`` -- a fresh, empty table of the new size (the
   sticky backend: new machine ownership, ``_assign``) when the fleet size
   changed, which on its own dropped everything;
3. ``install_state(assignments1, assignments2, history1, history2)`` --
   each machine's keys gathered back out of the logs by index and sorted,
   then installed.

The functions and methods below are those steps, ending in the keys a
machine holds now, handed to a backend as the one-array ``RoutedSide`` it
takes (``reference_routing.as_routed``, which checks each machine's keys
are what the plan's layout can say).  :class:`ReferenceInstallEngine` runs
the chain in a real engine; what every machine held before a migration it derives as production
does (``reference_migration.placement``), since no backend can say.
Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

import numpy as np
import reference_migration

from repro.partitioning.routing import side_layout
from repro.streaming import migration
from repro.streaming.arrivals import ArrivalLog
from reference_routing import as_routed
from reference_state import state_layout

from repro.streaming.backends import (
    SimulatedBackend,
    StateOwner,
    StickyWorkerBackend,
    _lengths,
)
from repro.streaming.engine import StreamingJoinEngine

__all__ = [
    "ReferenceInstallBackend",
    "ReferenceInstallEngine",
    "ReferenceStickyBackend",
    "as_history",
    "plan_install",
    "sorted_keys",
]


def as_history(keys):
    """A history indexable by global arrival index, from any planner input.

    :class:`~repro.streaming.migration.LiveKeys` -- the engine's one sort of
    a side's live tuples -- become a windowed log whose live set is theirs
    (in arrival order); logs and bare arrays pass through.
    """
    if not isinstance(keys, migration.LiveKeys):
        return keys
    if len(keys.indices) == 0:
        return ArrivalLog(True, keys=keys.keys[:0])
    order = np.argsort(keys.indices, kind="stable")
    live = keys.indices[order]
    dense = np.zeros(live[-1] - live[0] + 1, dtype=keys.keys.dtype)
    dense[live - live[0]] = keys.keys[order]
    return ArrivalLog(True, keys=dense, base=int(live[0]), live=live)


def sorted_keys(assignments, history) -> "list[np.ndarray]":
    """Per machine, the keys of an index assignment gathered from the history, sorted."""
    return [np.sort(history[np.asarray(indices, dtype=np.int64)]) for indices in assignments]


def plan_install(*arguments, **options):
    """``plan_install`` from the reference planner: its index arrays routed.

    ``arguments`` are ``plan_install``'s; the histories are the fourth and
    fifth.  Each machine's index array becomes its keys, gathered from the
    history and sorted, and the two ``RoutedSide`` the backend takes
    (``reference_routing.as_routed``, each machine's keys checked against
    the new plan's layout); the plan returned is the production type,
    figures only.
    """
    arguments = list(arguments)
    lives = [reference_migration.argsort_live(keys) for keys in arguments[3:5]]
    arguments[3:5] = [as_history(keys) for keys in arguments[3:5]]
    expected = reference_migration.plan_migration(*arguments, **options)
    partitioning, histories, machines = arguments[2], arguments[3:5], arguments[5]
    layouts = tuple(
        side_layout(partitioning, side, expected.region_to_machine, machines)
        for side in (1, 2)
    )
    routed = tuple(
        as_routed(sorted_keys(assignments, history), live.keys, layout)
        for assignments, history, live, layout in zip(
            (expected.new_assignments1, expected.new_assignments2), histories, lives, layouts
        )
    )
    return _figures(expected), layouts, routed


def _figures(plan) -> migration.MigrationPlan:
    """What the production engine keeps of a reference plan: the figures."""
    return migration.MigrationPlan(
        per_machine_arrivals=plan.per_machine_arrivals,
        per_machine_departures=plan.per_machine_departures,
        region_to_machine=plan.region_to_machine,
        mode=plan.mode,
    )


# ----------------------------------------------------------------------
# 2. + 3. The backends' resize and index-assignment install
# ----------------------------------------------------------------------
def _live_keys(log) -> np.ndarray:
    """Every live key of a log, in arrival order: what a route cuts."""
    return log[log.live] if log.windowed else log.keys


class ReferenceInstallBackend(SimulatedBackend):
    """The in-process default's ``resize`` and index-assignment ``install_state``."""

    def install_state(self, assignments1, assignments2, history1, history2, layouts):
        """Hold complete index assignments, read through the new plan's ``layouts``."""
        super().install_state(
            as_routed(sorted_keys(assignments1, history1), _live_keys(history1), layouts[0]),
            as_routed(sorted_keys(assignments2, history2), _live_keys(history2), layouts[1]),
        )

    def resize(self, num_machines: int) -> None:
        """Adopt a new fleet size, discarding all resident state."""
        self._bound_owner()
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self._owner = StateOwner()


class ReferenceStickyBackend(StickyWorkerBackend):
    """The sticky backend's ``resize`` and index-assignment ``install_state``."""

    def install_state(self, assignments1, assignments2, history1, history2, layouts):
        """Move migrated state between workers through shared memory."""
        layout = state_layout(
            sorted_keys(assignments1, history1), sorted_keys(assignments2, history2)
        )
        self._command("install", self._bound_arena().write(layout))
        self._counts = _lengths(layout)

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
            s.layouts = tuple(
                side_layout(s.partitioning, side, s.region_to_machine, J)
                for side in (1, 2)
            )
            return tuple(
                as_routed(
                    sorted_keys(reference_migration.route_live(assign, log, J, s.rng), log),
                    _live_keys(log),
                    layout,
                )
                for assign, log, layout in (
                    (s.partitioning.assign_r1, s.log1, s.layouts[0]),
                    (s.partitioning.assign_r2, s.log2, s.layouts[1]),
                )
            )

    def _adopt(self, replacement, machines, builds_before):
        s = self._state
        resident1, resident2 = (
            [
                indices
                for indices, _ in reference_migration.placement(
                    s.partitioning, side, log, s.rng, self.num_machines, s.region_to_machine
                )
            ]
            for side, log in ((1, s.log1), (2, s.log2))
        )
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
        s.layouts = tuple(
            side_layout(replacement, side, plan.region_to_machine, machines)
            for side in (1, 2)
        )
        self.backend.install_state(
            plan.new_assignments1, plan.new_assignments2, s.log1, s.log2, s.layouts
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
            "plan": _figures(plan),
        }
