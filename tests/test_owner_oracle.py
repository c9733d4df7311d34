"""Differential oracle: the state owner against the per-machine table, per batch.

The engine holds each side's join state once per owner
(``repro.streaming.backends.StateOwner``) and a machine reads it through its
region's key range.  Until then every machine held its own counted runs,
fed its own routed keys: that table is kept in ``tests/reference_state.py``
(``RegionStateTable``) with its fold, and counted here by the per-task
reference kernel of ``tests/reference_counting.py``.  A twin backend
forwards every protocol verb to an in-process owner and mirrors it into the
table -- each machine's slice of every routed side -- and after every verb
asks, machine by machine, for the same output delta and the same view
(the owner's group cut by the machine's range == the table's multiset).

The streams carry the owner's pitfalls: int64 keys above 2**53 (clipped by
the float64 slice rule), NaN keys (sorted last, joining nothing), one or
two distinct keys (one key builds plans with fewer regions than machines,
as does 1-Bucket on a smaller grid than the fleet), a decay window
(evictions that are not a prefix), adaptive plans (partial repartitions
that remap regions), 1-Bucket (draw groups read whole) and a mid-stream
resize.
"""

from __future__ import annotations

import numpy as np
import reference_counting
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_state import RegionStateTable, state_layout
from streaming_harness import _ForwardingBackend, columns

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    MicroBatch,
    SimulatedBackend,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamingJoinEngine,
)

BAND = BandJoinCondition(beta=2.0)  # integral: exact on int64 keys above 2**53
WEIGHTS = WeightFunction(input_cost=1.0, output_cost=0.2)
STYLES = ["float", "big_int", "nan", "one_key", "two_keys"]
WINDOWS = ["unbounded", "batches:2", "decay:0.7"]
POLICIES = ["static", "adaptive", "one_bucket", "small_one_bucket"]


class _ReferenceTwin(_ForwardingBackend):
    """Every verb to an in-process owner and to the per-machine table, compared."""

    wrapper_name = "reference-twin"

    def __init__(self) -> None:
        super().__init__(SimulatedBackend())
        self.table = RegionStateTable(())
        self.conditions: tuple = ()
        self.verbs: "set[str]" = set()

    def _compare(self, verb: str) -> None:
        owner, table = self.inner._owner, self.table
        for machine in table.machines:
            for side, held in ((0, table.state1), (1, table.state2)):
                np.testing.assert_array_equal(
                    owner.view(side, machine), held[machine].keys
                )
        self.verbs.add(verb)

    def bind(self, num_machines, condition, transposed) -> None:
        super().bind(num_machines, condition, transposed)
        self.table = RegionStateTable(range(num_machines))
        self.conditions = (condition, transposed)

    def count_batch(self, new1, new2):
        execution = super().count_batch(new1, new2)
        tasks, owners = self.table.fold(state_layout(columns(new1), columns(new2)))
        outputs, _ = reference_counting.count_regions(
            tasks, [self.conditions[owner & 1] for owner in owners.tolist()]
        )
        np.testing.assert_array_equal(
            execution.per_machine_output,
            self.table.sum_halves(outputs, owners).sum(axis=1),
        )
        self._compare("count")
        return execution

    def evict_state(self, expired1, expired2) -> int:
        dropped = super().evict_state(expired1, expired2)
        evicted = self.table.evict(state_layout(columns(expired1), columns(expired2)))
        assert dropped == sum(side1 + side2 for side1, side2 in evicted)
        self._compare("evict")
        return dropped

    def install_state(self, state1, state2):
        super().install_state(state1, state2)
        state1, state2 = columns(state1), columns(state2)
        self.table = RegionStateTable(range(len(state1)))
        self.table.install(state_layout(state1, state2))
        self._compare("install")


def _keys(rng: np.random.Generator, style: str, size: int, shift: int) -> np.ndarray:
    """One side of one batch; the distribution shifts halfway (drift)."""
    if style == "big_int":
        return 2**53 + rng.integers(0, 30, size, dtype=np.int64) * (1 + shift)
    if style == "one_key":
        return np.full(size, 5.0 + shift)
    if style == "two_keys":
        return rng.choice([3.0, 40.0 + shift], size)
    keys = np.round(rng.zipf(1.3 + shift, size) % 60 + rng.random(size), 1)
    if style == "nan":
        keys[rng.random(size) < 0.1] = np.nan
    return keys


def _policy(name: str, machines: int):
    if name == "static":
        return StaticEWHPolicy()
    if name == "one_bucket":
        return StaticOneBucketPolicy(machines)
    if name == "small_one_bucket":
        return StaticOneBucketPolicy(machines - 1)
    return DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.1, warmup_batches=1, cooldown_batches=1)
    )


def _run(seed, style, policy, window, machines, resize_to):
    rng = np.random.default_rng(seed)
    backend = _ReferenceTwin()
    engine = StreamingJoinEngine(
        machines, BAND, WEIGHTS,
        policy=_policy(policy, machines), backend=backend, window=window,
        sample_capacity=128, seed=seed % 1000,
    )
    engine.start()
    plans = set()
    for index in range(8):
        shift = int(index >= 4)
        engine.process_batch(
            MicroBatch(index, *(_keys(rng, style, int(rng.integers(20, 70)), shift) for _ in range(2)))
        )
        plans.add((engine._state.partitioning.num_regions, engine.num_machines))
        if resize_to is not None and index == 5:
            engine.resize(resize_to)
    result = engine.finish()
    return result, backend, plans


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(STYLES),
    policy=st.sampled_from(POLICIES),
    window=st.sampled_from(WINDOWS),
    machines=st.sampled_from([3, 4]),
    resize_to=st.sampled_from([None, 2, 6]),
)
@example(seed=1, style="one_key", policy="static", window="decay:0.7", machines=4, resize_to=None)
@example(seed=4, style="two_keys", policy="small_one_bucket", window="decay:0.7", machines=4, resize_to=None)
@example(seed=2, style="big_int", policy="adaptive", window="batches:2", machines=4, resize_to=6)
@example(seed=3, style="nan", policy="one_bucket", window="decay:0.7", machines=4, resize_to=2)
def test_the_owner_counts_and_holds_what_the_per_machine_table_does(
    seed, style, policy, window, machines, resize_to
):
    result, backend, _ = _run(seed, style, policy, window, machines, resize_to)
    assert "count" in backend.verbs
    if window == "unbounded":
        assert result.output_correct


def test_the_pitfalls_are_reached():
    """The explicit examples above do exercise what they are there for."""
    for style, policy in (("one_key", "static"), ("two_keys", "small_one_bucket")):
        _, _, plans = _run(1, style, policy, "decay:0.7", 4, None)
        assert any(regions < machines for regions, machines in plans)
    result, backend, _ = _run(2, "big_int", "adaptive", "batches:2", 4, 6)
    assert result.num_repartitions >= 1 and {"evict", "install"} <= backend.verbs
    result, backend, _ = _run(3, "nan", "one_bucket", "decay:0.7", 4, 2)
    assert result.num_machines == 2 and result.total_evicted > 0
