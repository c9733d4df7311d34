"""Differential tests: batch execution against its mask → gather → recount original.

``tests/reference_cluster.py`` holds ``run_partitioned_join`` as it was
before batch execution took the streaming engine's route and kernel: assign
with one index array per region, gather every region's keys, count each
region with its own ``count_join_output`` call.  Production routes each side
once by the stream's route, ``repro.partitioning.routing.route_batch`` (a
grid scheme slices one sorted copy, every other scheme assigns in arrival
order and sorts each share), and counts R1's routed keys against R2's routed
groups in one kernel call, the first half of a stream batch into empty
state.  The rewrite must be
invisible: the same per-machine input and output, total, memory, network and
replication factor, and the same generator state after the run -- over
EWH, M-Bucket, 1-Bucket, hash and an assign-only custom scheme, on float
keys with NaN / ±inf / −0.0, int32 keys and int64 keys below 2**53 (the
reference casts to float64, which holds those exactly), empty sides
included.  The multiprocess executor shares the route and runs it as the
first batch of the sticky workers, so it must give every machine the output
the simulator gives it.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pytest
import reference_cluster as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cluster import run_partitioned_join
from repro.engine.executor import run_join_multiprocess
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.partitioning.base import Partitioning
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.hash_repartition import build_hash_repartitioning
from repro.partitioning.m_bucket import MBucketConfig, build_m_bucket_partitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning

BAND = BandJoinCondition(beta=2.0)
CONDITIONS = [
    BAND,  # integral width: counted in exact integers on integer keys
    BandJoinCondition(beta=0.5),  # fractional width: a float count on any keys
    EquiJoinCondition(),
    InequalityJoinCondition(InequalityOp.LT),
]
SCHEMES = ["ewh", "m_bucket", "one_bucket", "hash", "scatter"]
KEY_STYLES = ["float", "int32", "int64"]
SIZES = [0, 1, 7, 60, 300]


class ScatterPartitioning(Partitioning):
    """Assign-only: each R1 tuple to one random region, each R2 tuple to all.

    Every output pair is still produced exactly once.  The index arrays come
    back unsorted -- a random permutation's order for R1, descending for R2
    -- so the base class's ``sorted_arrivals`` has to sort every share.
    """

    scheme_name = "scatter"

    def __init__(self, regions: int) -> None:
        self.regions = regions

    @property
    def num_regions(self) -> int:
        return self.regions

    def assign_r1(self, keys, rng):
        order = rng.permutation(len(keys))
        return [order[region :: self.regions] for region in range(self.regions)]

    def assign_r2(self, keys, rng):
        return [np.arange(len(keys))[::-1] for _ in range(self.regions)]


@functools.lru_cache(maxsize=None)
def _plan(scheme: str) -> Partitioning:
    """One plan per scheme, built once from skewed, lopsided float keys.

    R1 and R2 are drawn from different ranges so that a grid plan's row
    and column boundaries differ: routing one side by the other's cuts
    cannot go unnoticed.
    """
    rng = np.random.default_rng(7)
    keys1 = np.floor(rng.pareto(1.5, 500) * 8)
    keys2 = rng.integers(20, 140, 400).astype(np.float64)
    if scheme == "ewh":
        return build_ewh_partitioning(keys1, keys2, BAND, 5, rng=np.random.default_rng(1))
    if scheme == "m_bucket":
        return build_m_bucket_partitioning(
            keys1, keys2, BAND, 4, config=MBucketConfig(num_buckets=12),
            rng=np.random.default_rng(1),
        )
    if scheme == "one_bucket":
        return build_one_bucket_partitioning(6)
    if scheme == "hash":
        return build_hash_repartitioning(4, band_width=2.0)
    assert scheme == "scatter"
    return ScatterPartitioning(3)


def _keys(rng: np.random.Generator, style: str, size: int) -> np.ndarray:
    """Execution keys, mostly inside the plans' key range, some far outside."""
    if style == "float":
        keys = rng.integers(-10, 160, size) / 2.0
        specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        spiked = rng.random(size) < 0.15
        keys[spiked] = rng.choice(specials, int(spiked.sum()))
        return keys
    if style == "int32":
        return rng.integers(-10, 160, size).astype(np.int32)
    assert style == "int64"
    # Neighbours just below 2**53, where float64 still holds every integer.
    near = 2**53 - 1 - rng.integers(0, 12, size, dtype=np.int64)
    return np.where(rng.random(size) < 0.5, rng.integers(-10, 160, size), near)


def _assert_same_execution(ours, expected) -> None:
    np.testing.assert_array_equal(ours.per_machine_input, expected.per_machine_input)
    np.testing.assert_array_equal(ours.per_machine_output, expected.per_machine_output)
    assert ours.per_machine_input.dtype == expected.per_machine_input.dtype
    assert ours.per_machine_output.dtype == expected.per_machine_output.dtype
    assert ours.total_output == expected.total_output
    assert ours.memory_tuples == expected.memory_tuples
    assert ours.network_tuples == expected.network_tuples
    assert ours.replication_factor == expected.replication_factor


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(SCHEMES),
    style=st.sampled_from(KEY_STYLES),
    condition=st.sampled_from(CONDITIONS),
    size1=st.sampled_from(SIZES),
    size2=st.sampled_from(SIZES),
)
def test_batch_execution_matches_the_reference(
    seed, scheme, style, condition, size1, size2
):
    """Per machine: same input, same output; same totals and generator state."""
    rng = np.random.default_rng(seed)
    keys1, keys2 = _keys(rng, style, size1), _keys(rng, style, size2)
    partitioning = _plan(scheme)
    ours_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # Hash routing rounds keys to integers, which NaN and ±inf have none of.
    with np.errstate(invalid="ignore"):
        ours = run_partitioned_join(partitioning, keys1, keys2, condition, ours_rng)
        expected = reference.run_partitioned_join(
            partitioning, keys1, keys2, condition, reference_rng
        )
    _assert_same_execution(ours, expected)
    assert ours_rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_reference_run_is_not_vacuous(scheme):
    """Every plan spreads real work over several machines on in-range keys."""
    rng = np.random.default_rng(3)
    keys1, keys2 = _keys(rng, "int32", 300), _keys(rng, "int32", 300)
    expected = reference.run_partitioned_join(_plan(scheme), keys1, keys2, BAND)
    assert (expected.per_machine_output > 0).sum() >= 2
    _assert_same_execution(
        run_partitioned_join(_plan(scheme), keys1, keys2, BAND), expected
    )


@pytest.mark.multiprocess
@pytest.mark.parametrize("style", KEY_STYLES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_multiprocess_executor_counts_what_the_simulator_counts(scheme, style):
    """Same route, same counts: per machine, and the generator state after."""
    rng = np.random.default_rng(11)
    keys1, keys2 = _keys(rng, style, 300), _keys(rng, style, 60)
    simulated_rng, executed_rng = np.random.default_rng(5), np.random.default_rng(5)
    with np.errstate(invalid="ignore"):
        simulated = run_partitioned_join(
            _plan(scheme), keys1, keys2, BAND, simulated_rng
        )
        executed = run_join_multiprocess(
            _plan(scheme), keys1, keys2, BAND, max_workers=2, rng=executed_rng
        )
    np.testing.assert_array_equal(executed.per_machine_output, simulated.per_machine_output)
    assert executed.per_machine_output.dtype == np.int64
    assert executed.total_output == simulated.total_output
    assert executed_rng.bit_generator.state == simulated_rng.bit_generator.state
    # A distinct pid per worker process, none of them this one's; a
    # machine's seconds are 0 exactly where it received no arrivals.
    workers = min(2, len(simulated.per_machine_input))
    assert len(set(executed.worker_pids.tolist())) == executed.worker_pids.size == workers
    assert (executed.worker_pids > 0).all() and os.getpid() not in executed.worker_pids
    assert executed.worker_seconds.shape == (workers,)
    np.testing.assert_array_equal(
        executed.per_machine_seconds == 0, simulated.per_machine_input == 0
    )
