"""Differential tests: the count kernel against its bounds-per-task original.

``tests/reference_counting.py`` holds the per-region count loop as it was
before joinable bounds were hoisted out of it (bounds recomputed per task,
every task timed on its own) and the ``np.add.at`` scatter the per-machine
halves were summed with.  Every count is a fold of the compiled kernel
(``repro.joins.native.fold``), and it must be invisible: a batch join's
per-machine outputs (``repro.joins.local.count_runs``) equal the
reference's count of every routed region, for every condition and key
dtype.  A stream batch's half (a fold half: reader segments of the needles,
each seeing one slice of each run) must count per reader what the reference counts on that
reader's needles against that slice of the runs.  Both streaming owners of
the kernel are driven batch after batch -- ``SimulatedBackend`` and an
in-process ``_StickyWorkerState`` -- against the per-machine table kept in
``tests/reference_state.py``, with their clock reads (a batch join's totals
and generator state are ``tests/test_cluster_oracle.py``'s subject).
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
import reference_counting as reference
from hypothesis import given, settings
from hypothesis import strategies as st
from streaming_harness import arrivals as sorted_batch

from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
    JoinCondition,
)
from reference_state import RegionStateTable, state_layout

from repro.engine.cluster import run_partitioned_join
from repro.obs.trace import TickClock
from repro.partitioning.base import Partitioning
from repro.partitioning.ewh import build_ewh_partitioning
from repro.partitioning.hash_repartition import build_hash_repartitioning
from repro.partitioning.one_bucket import build_one_bucket_partitioning
from repro.streaming import SimulatedBackend
from repro.joins import native
from repro.joins.conditions import normalise_keys
from repro.streaming import backends as production
from repro.partitioning.grid_routed import MachineSlices
from repro.streaming.backends import _StickyWorkerState

BAND = BandJoinCondition(beta=2.0)  # integral: exact on int64 keys above 2**53
NARROW = BandJoinCondition(beta=0.3)
COMPOSITE = CompositeEquiBandCondition(beta=1.0, scale=100.0, band_key_max=40.0)
CONDITIONS: "list[JoinCondition]" = [
    BAND,
    BAND.transposed,
    NARROW,
    NARROW.transposed,
    EquiJoinCondition(),
    InequalityJoinCondition(InequalityOp.LT),
    InequalityJoinCondition(InequalityOp.GE),
    COMPOSITE,
    COMPOSITE.transposed,
]
KEY_STYLES = ["float", "big_int", "small_int", "unsigned"]


def _draw_keys(rng: np.random.Generator, style: str, size: int) -> np.ndarray:
    if style == "float":
        # A coarse grid, so keys land exactly on band boundaries.
        return rng.integers(0, 400, size) / 10.0
    if style == "big_int":
        # Neighbours above 2**53: float64 would collapse them onto each other.
        return 2**53 + rng.integers(0, 40, size, dtype=np.int64)
    if style == "small_int":
        return rng.integers(0, 40, size).astype(np.int32)
    assert style == "unsigned"
    return rng.integers(0, 40, size).astype(np.uint64)


class CountingClock(TickClock):
    """A tick clock that also says how often it was read."""

    reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return super().__call__()


@contextlib.contextmanager
def tick_clocks():
    """One tick clock under the production kernel, one under the reference."""
    # Whole-second ticks: differences are exact whatever read they start at.
    clocks = CountingClock(tick=1.0), CountingClock(tick=1.0)
    with pytest.MonkeyPatch.context() as patch:
        # The backend times the kernel; the kernel reads no clock.
        patch.setattr(production, "perf_counter", clocks[0])
        patch.setattr(reference, "perf_counter", clocks[1])
        yield clocks


@functools.lru_cache(maxsize=None)
def _plan(scheme: str) -> Partitioning:
    """One plan per scheme: key ranges, draw groups, or a region per hash bucket."""
    if scheme == "ewh":
        rng = np.random.default_rng(3)
        keys1, keys2 = rng.integers(0, 400, 300) / 10.0, rng.integers(0, 400, 200) / 10.0
        return build_ewh_partitioning(keys1, keys2, BAND, 4, rng=np.random.default_rng(1))
    if scheme == "one_bucket":
        return build_one_bucket_partitioning(6)
    assert scheme == "hash"
    return build_hash_repartitioning(3, band_width=2.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["ewh", "one_bucket", "hash"]),
    condition=st.sampled_from(CONDITIONS),
    styles=st.tuples(st.sampled_from(KEY_STYLES), st.sampled_from(KEY_STYLES)),
    sizes=st.tuples(st.sampled_from([0, 1, 9, 80]), st.sampled_from([0, 1, 9, 80])),
)
def test_batch_execution_counts_what_the_per_task_kernel_counts(
    seed, scheme, condition, styles, sizes
):
    """Per machine: a batch join's output is the reference's count of its routed region.

    The batch join counts R1's routed keys against R2's routed groups in one
    kernel call; the reference counts every region on its own, its shares
    routed by ``Partitioning.sorted_arrivals`` from the same generator
    state.  Conditions and key dtypes are mixed, so integer needles meet
    float runs and the other way round.
    """
    rng = np.random.default_rng(seed)
    keys1, keys2 = (_draw_keys(rng, style, size) for style, size in zip(styles, sizes))
    plan = _plan(scheme)
    with np.errstate(invalid="ignore"):  # hash routing rounds the keys it buckets
        execution = run_partitioned_join(
            plan, keys1, keys2, condition, np.random.default_rng(seed)
        )
        generator = np.random.default_rng(seed)
        shares = [
            [keys for _, keys in plan.sorted_arrivals(side, normalise_keys(keys), generator)]
            for side, keys in ((1, keys1), (2, keys2))
        ]
    tasks = list(zip(*shares))
    expected, _ = reference.count_regions(tasks, [condition] * len(tasks))
    np.testing.assert_array_equal(execution.per_machine_output, expected)
    assert execution.per_machine_output.dtype == np.int64


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(KEY_STYLES),
    condition=st.sampled_from(CONDITIONS),
    counted=st.booleans(),
    runs=st.integers(1, 3),
)
def test_a_clipped_task_counts_each_segment_on_its_slice(
    seed, style, condition, counted, runs
):
    """Per reader: the reference's count of its needles against its run slice.

    One half of a batch as the state owner counts it (a
    :func:`repro.joins.native.fold` half of needles and the condition's
    bound rule), against the reference's per-task loop -- bounds
    recomputed per task by ``count_matches_per_key`` -- over every reader's
    needle segment and its slice of each run.  Segments overlap, nest,
    repeat and are empty; slices are empty, whole, or anywhere in the run; runs are
    counted (negative counts too) or fresh, and of any key style, so
    integer needles meet float runs.
    """
    rng = np.random.default_rng(seed)
    needles = np.sort(_draw_keys(rng, style, int(rng.choice([1, 7, 60]))))
    segments = int(rng.integers(1, 6))
    starts = rng.integers(0, len(needles) + 1, segments)
    stops = np.minimum(starts + rng.integers(0, len(needles) + 1, segments), len(needles))
    readers = np.arange(segments, dtype=np.int64)
    tasks, expected_tasks = [], []
    run_style = style if rng.random() < 0.5 else rng.choice(KEY_STYLES)
    # Key ranges as an EWH plan's slice rule cuts them: a cut pair per
    # reader, or an open end (0 or the run's length).
    cut_keys = np.sort(normalise_keys(_draw_keys(rng, run_style, 2 * segments))).astype(np.float64)
    first = np.where(rng.random(segments) < 0.2, 2 * segments, np.arange(segments))
    last = np.where(rng.random(segments) < 0.2, 2 * segments + 1, segments + np.arange(segments))
    slices = MachineSlices(np.concatenate([cut_keys[::2], cut_keys[1::2]]), first, last)
    for _ in range(runs):
        run = np.sort(normalise_keys(_draw_keys(rng, run_style, int(rng.choice([1, 5, 50])))))
        cum = None
        if counted:
            cum = np.concatenate([[0], np.cumsum(rng.integers(-2, 4, len(run)))])
        cut = None if rng.random() < 0.3 else slices
        # An integer run meeting float needles or bounds is searched as it
        # is: the kernel compares each key as the float64 it casts to.
        tasks.append(([(run, cum)], readers, cut, None))
        clip_lows, clip_highs = slices(run)
        for start, stop, low, high in zip(
            starts.tolist(), stops.tolist(), clip_lows.tolist(), clip_highs.tolist()
        ):
            if cut is None:
                low, high = 0, len(run)
            sliced = None if cum is None else cum[low : high + 1] - cum[low]
            expected_tasks.append((needles[start:stop], run[low:high], sliced))
    outputs = np.zeros(segments, dtype=np.int64)
    native.fold([], [(normalise_keys(needles), condition.rule(), starts, stops, tasks)], outputs)
    expected, _ = reference.count_regions(expected_tasks, [condition] * len(expected_tasks))
    np.testing.assert_array_equal(outputs, expected.reshape(runs, segments).sum(axis=0))


# ----------------------------------------------------------------------
# The fold path: both owners of the kernel, batch after batch
# ----------------------------------------------------------------------
def _layout(sides):
    """A sticky message of routed sides: ``(keys1, keys2)`` per machine."""
    return state_layout(*(side.columns() for side in sides))


def _count_simulated(condition, machines):
    """``(count, evict)`` of an in-process backend: per-machine outputs."""
    backend = SimulatedBackend()
    backend.bind(machines, condition, condition.transposed)

    def count(new1, new2):
        return backend.count_batch(new1, new2).per_machine_output.tolist()

    return count, backend.evict_state


def _count_sticky(condition, machines):
    """``(count, evict)`` of a sticky worker's handlers, in-process."""
    worker = _StickyWorkerState()
    worker.own(tuple(range(machines)), condition, condition.transposed)
    return (
        lambda *batch: worker.count(_layout(batch))[0],
        lambda *expired: worker.evict(_layout(expired)),
    )


@pytest.mark.parametrize("owner", [_count_simulated, _count_sticky])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    style=st.sampled_from(["float", "big_int"]),
    condition=st.sampled_from([BAND, NARROW, EquiJoinCondition(), CONDITIONS[6]]),
    batches=st.integers(1, 12),
)
def test_a_fold_counts_what_the_per_task_kernel_counts(
    owner, seed, style, condition, batches
):
    """Per machine and per batch: the owner's output is the per-machine table's.

    Between batches some held tuples expire: their keys are tombstoned on
    both owners, so the searched runs carry negative counts too.  The owner
    holds a group per machine here (per-machine arrays), so each of its
    tasks is one of the table's and the clock is read as often.
    """
    machines = 3
    rng = np.random.default_rng(seed)
    count, evict = owner(condition, machines)
    table = RegionStateTable(range(machines))  # the reference's own state
    fold_conditions = (condition, condition.transposed)
    history1 = history2 = _draw_keys(rng, style, 0)
    held = [[np.empty(0, dtype=np.int64)] * machines for _ in range(2)]
    reads = 0
    with tick_clocks() as (ours_clock, _):
        for batch in range(1, batches + 1):
            if rng.random() < 0.5:
                expired = []
                for side, history in enumerate((history1, history2)):
                    gone = [indices[rng.random(len(indices)) < 0.3] for indices in held[side]]
                    held[side] = [
                        np.setdiff1d(indices, out) for indices, out in zip(held[side], gone)
                    ]
                    expired.append(sorted_batch(gone, history))
                evict(*expired)
                table.evict(_layout(expired))
            new = []
            for history in (history1, history2):
                size = int(rng.choice([0, 1, 7, 90]))
                machine = rng.integers(0, machines, size)
                arrived = len(history) + np.arange(size, dtype=np.int64)
                new.append([arrived[machine == slot] for slot in range(machines)])
            new1, new2 = new
            for side, arrived in enumerate(new):
                held[side] = [
                    np.concatenate([indices, mine]) for indices, mine in zip(held[side], arrived)
                ]
            history1 = np.concatenate(
                [history1, _draw_keys(rng, style, sum(map(len, new1)))]
            )
            history2 = np.concatenate(
                [history2, _draw_keys(rng, style, sum(map(len, new2)))]
            )

            new1, new2 = sorted_batch(new1, history1), sorted_batch(new2, history2)
            rows = count(new1, new2)
            tasks, owners = table.fold(_layout((new1, new2)))
            outputs, seconds = reference.count_regions(
                tasks, [fold_conditions[owner & 1] for owner in owners.tolist()]
            )
            assert rows == (
                reference.sum_halves(machines, outputs, owners).sum(axis=1).tolist()
            )
            # The simulated backend reads the clock twice per batch, around
            # the whole count; a sticky worker twice around each fold of a
            # machine that received arrivals on either side, where the
            # reference reads it twice per run searched.
            if owner is _count_simulated:
                reads += 2
            else:
                reads += 2 * int(np.count_nonzero(new1.sizes + new2.sizes))
            assert ours_clock.reads == reads
