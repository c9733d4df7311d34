"""End to end: streams of ties, promotions, special and huge keys through counted runs.

A machine-side holds a key multiset in counted runs: equal keys collapse
into one entry, a dtype change promotes every run, and expired tuples become
tombstones that a later merge cancels.  Four kinds of stream lean on exactly
that, and every per-batch output delta must equal a partition-free windowed
reference on every window, under a frozen and an adaptive plan:

* duplicate-only streams -- one key value on both sides, so every run is a
  single entry whose count rises and falls;
* streams whose int64 keys turn float64 mid-stream;
* NaN, ``-0.0`` and ``0.0`` keys (NaN joins nothing, the zeros are one key);
* int64 keys around 2**53, where float64 cannot tell neighbours apart.

The reference counts, at each batch, the new arrivals of one side against
the other side's live keys -- a pair counts at the later tuple's arrival
while the earlier one is live.  Liveness is read from the engine's own
arrival logs (a decay window draws it from the engine's generator), never
from a machine, a plan or a run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.joins.local import count_join_output
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    MicroBatch,
    StaticEWHPolicy,
    StreamingJoinEngine,
)

BAND = BandJoinCondition(beta=1.0)
UNIT = WeightFunction(1.0, 1.0)
KINDS = ["duplicates", "promote", "specials", "big_int"]
WINDOWS = ["unbounded", "batches:2", "tuples:150", "decay:0.7"]
POLICIES = {
    "static": StaticEWHPolicy,
    "adaptive": lambda: DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.1, warmup_batches=1, cooldown_batches=1)
    ),
}
NUM_BATCHES = 9


def _keys(rng: np.random.Generator, kind: str, size: int, batch: int) -> np.ndarray:
    """One side of one batch of the given kind."""
    if kind == "duplicates":
        return np.full(size, 3.0)
    if kind == "promote":
        if batch < NUM_BATCHES // 2:
            return rng.integers(-4, 12, size)
        return rng.integers(-16, 48, size) / 4.0
    if kind == "specials":
        return rng.choice([np.nan, -0.0, 0.0, 1.0, 2.5, -1.0, 40.0], size)
    assert kind == "big_int"
    # The key set moves at mid-stream, so the adaptive plan repartitions.
    step = 1 if batch < NUM_BATCHES // 2 else 3
    return 2**53 + step * rng.integers(-6, 7, size)


def _stream(kind: str, seed: int) -> "list[MicroBatch]":
    rng = np.random.default_rng(seed)
    return [
        MicroBatch(
            index,
            _keys(rng, kind, int(rng.integers(1, 60)), index),
            _keys(rng, kind, int(rng.integers(1, 60)), index),
        )
        for index in range(NUM_BATCHES)
    ]


def _live(log) -> np.ndarray:
    """The global indices a log holds live (everything, unwindowed)."""
    return log.live if log.windowed else np.arange(log.total)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    machines=st.integers(1, 4),
)
def test_every_delta_equals_the_partition_free_reference(
    policy, window, kind, seed, machines
):
    engine = StreamingJoinEngine(
        machines, BAND, UNIT, policy=POLICIES[policy](), window=window,
        sample_capacity=256, seed=seed % 97,
    )
    engine.start()
    delivered = [np.empty(0), np.empty(0)]
    live_before = [np.empty(0, dtype=np.int64)] * 2
    built = False
    for batch in _stream(kind, seed):
        new = []
        for side, keys in enumerate((batch.keys1, batch.keys2)):
            first = len(delivered[side])
            delivered[side] = np.concatenate([delivered[side], keys]) if first else keys
            new.append(np.arange(first, len(delivered[side])))
        metrics = engine.process_batch(batch)
        live = [np.concatenate([live_before[side], new[side]]) for side in (0, 1)]
        keys1, keys2 = delivered
        if metrics.per_machine_output_delta is None:
            expected = 0
        elif not built:
            # The initial build counts the backlog live at build time at once.
            expected = count_join_output(keys1[live[0]], keys2[live[1]], BAND)
            built = True
        else:
            expected = count_join_output(keys1[new[0]], keys2[live[1]], BAND)
            expected += count_join_output(keys1[live_before[0]], keys2[new[1]], BAND)
        assert metrics.output_delta == expected
        state = engine._state
        live_before = [_live(state.log1), _live(state.log2)]
        assert metrics.resident_tuples <= machines * (len(live_before[0]) + len(live_before[1]))
    result = engine.finish()
    assert built
    if window == "unbounded":
        assert result.output_correct
