"""Owner state is derived: each side holds the plan's route of the live log, once.

Machines hold key multisets and nothing else, so whenever the engine needs
to know *which* tuples a machine holds -- the old placement of a migration
-- it derives them, and a checkpoint stores none: every tuple reached its
machine through the current plan (a batch, an expired slice, the initial
build, a migration, a resize, a restore all route by it, and routing is a
pure function of key and arrival index), so machine ``m``'s tuples are the
live log routed by the plan and placed by ``region_to_machine``
(``reference_migration.placement``).

The backend's ``StateOwner`` holds each side once, in groups (one for a
key-range plan, one per draw group for 1-Bucket), and a machine reads its
group through its key range.  This file checks the owner invariant after
every batch: every group holds exactly the live keys routed to at least one
of its readers, each once, and every machine's view -- its group cut by its
range -- equals the keys of its derived placement.  Over every window, for
static EWH, adaptive EWH and 1-Bucket, on the in-process and the sticky
backend, across a partial repartitioning that remaps regions to other
machines, and across resizes.

Sticky workers cannot be read, so a sticky run forwards every verb to the
workers *and* an in-process twin: the twin's owner is checked against the
derivation, and every count's outputs and the per-machine sizes the backend
has told its workers must equal the twin's views.
"""

from __future__ import annotations

import numpy as np
import pytest
from streaming_harness import _ForwardingBackend

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SimulatedBackend,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StickyWorkerBackend,
    StreamingJoinEngine,
)
from reference_migration import placement

MACHINES = 4
BAND = BandJoinCondition(beta=2.0)
WEIGHTS = WeightFunction(input_cost=1.0, output_cost=0.2)
WINDOWS = ["unbounded", "batches:3", "tuples:500", "decay:0.8"]
POLICIES = {
    "static": StaticEWHPolicy,
    "adaptive": lambda: DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
    ),
    "one_bucket": lambda: StaticOneBucketPolicy(MACHINES),
}


class _TwinBackend(_ForwardingBackend):
    """Every verb to a sticky backend and an in-process twin, compared."""

    wrapper_name = "twin"

    def __init__(self, inner):
        super().__init__(inner)
        self.twin = SimulatedBackend()

    def _held(self) -> None:
        owner = self.twin._owner
        held = [
            [len(owner.view(0, m)), len(owner.view(1, m))]
            for m in range(len(self.inner._counts))
        ]
        assert self.inner._counts.tolist() == held

    def bind(self, num_machines, condition, transposed) -> None:
        super().bind(num_machines, condition, transposed)
        self.twin.bind(num_machines, condition, transposed)

    def count_batch(self, new1, new2):
        execution = super().count_batch(new1, new2)
        np.testing.assert_array_equal(
            execution.per_machine_output,
            self.twin.count_batch(new1, new2).per_machine_output,
        )
        self._held()
        return execution

    def evict_state(self, expired1, expired2) -> int:
        dropped = super().evict_state(expired1, expired2)
        assert dropped == self.twin.evict_state(expired1, expired2)
        self._held()
        return dropped

    def install_state(self, state1, state2):
        super().install_state(state1, state2)
        self.twin.install_state(state1, state2)
        self._held()


def _owner(backend):
    """The in-process state owner that holds (or mirrors) the run's state."""
    return (backend.twin if isinstance(backend, _TwinBackend) else backend)._owner


def assert_state_is_derived(engine: StreamingJoinEngine) -> None:
    """Each group holds its readers' derived placement once; each view is a placement."""
    s = engine._state
    owner = _owner(engine.backend)
    for side, log in ((1, s.log1), (2, s.log2)):
        held = placement(
            s.partitioning, side, log, np.random.default_rng(0),
            engine.num_machines, s.region_to_machine,
        )
        layout = owner.layouts[side - 1]
        if layout is None:
            assert s.partitioning is None and not owner.states[side - 1]
            continue
        assert layout is s.layouts[side - 1]
        for group, readers in enumerate(layout.readers):
            routed = np.unique(
                np.concatenate([held[m][0] for m in readers.tolist()] + [np.empty(0, int)])
            ).astype(np.int64)
            np.testing.assert_array_equal(
                owner.states[side - 1][group].keys, np.sort(log[routed])
            )
        for machine, (indices, keys) in enumerate(held):
            np.testing.assert_array_equal(keys, log[indices])
            np.testing.assert_array_equal(
                owner.view(side - 1, machine), np.sort(log[indices])
            )


def _source(seed: int = 23) -> DriftingZipfSource:
    return DriftingZipfSource(
        num_batches=10, tuples_per_batch=160, num_values=60,
        z_initial=0.1, z_final=1.3, shift_at_batch=4, seed=seed,
    )


def _run(policy: str, window: str, backend, resize_at=None, seed: int = 23):
    """Run on ``backend``, checking the invariant after every batch and resize."""
    engine = StreamingJoinEngine(
        MACHINES, BAND, WEIGHTS,
        policy=POLICIES[policy](), backend=backend, window=window,
        sample_capacity=256, seed=9,
    )
    engine.start()
    remapped = False
    for position, batch in enumerate(_source(seed).batches()):
        engine.process_batch(batch)
        assert_state_is_derived(engine)
        remapped |= not np.array_equal(
            engine._state.region_to_machine, np.arange(engine.num_machines)
        )
        if resize_at is not None and position == resize_at[0]:
            engine.resize(resize_at[1])
            assert_state_is_derived(engine)
    return engine.finish(), remapped


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_machine_holds_its_derived_route(policy, window):
    result, _ = _run(policy, window, SimulatedBackend())
    if policy == "adaptive":
        assert result.num_repartitions >= 1
    if window != "unbounded":
        assert result.total_evicted > 0


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_sticky_machine_holds_its_derived_route(policy, window):
    with StickyWorkerBackend(max_workers=2) as sticky:
        result, _ = _run(policy, window, _TwinBackend(sticky))
    assert result.backend == "twin(sticky)"


def test_a_partial_remap_keeps_the_derivation():
    """A drift migration that hands regions to other machines, windowed."""
    result, remapped = _run("adaptive", "batches:3", SimulatedBackend(), seed=5)
    assert result.num_repartitions >= 1 and remapped


@pytest.mark.parametrize(
    "backend", ["simulated", pytest.param("sticky", marks=pytest.mark.multiprocess)]
)
@pytest.mark.parametrize("machines", [3, 6])
def test_a_resize_keeps_the_derivation(machines, backend):
    if backend == "simulated":
        result, _ = _run("adaptive", "batches:3", SimulatedBackend(), resize_at=(5, machines))
    else:
        with StickyWorkerBackend(max_workers=2) as sticky:
            result, _ = _run(
                "adaptive", "batches:3", _TwinBackend(sticky), resize_at=(5, machines)
            )
    assert result.num_machines == machines
