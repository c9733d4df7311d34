"""Differential tests: slice routing against the mask / gather / sort chain.

``tests/reference_routing.py`` holds the batch route as it stood before the
router sorted a batch once and cut it into slices: per-region masks, a
per-machine offset, a per-machine gather from the key history and a
per-machine stable argsort.  ``Partitioning.sorted_arrivals`` must hand each
machine the same ``(arrival index, key bits)`` pairs, dtype for dtype, with
keys ascending -- the order among equal keys is unspecified, and nothing
reads it: counts, loads, plans and checkpoints stay bit-identical
(``tests/test_tie_order.py`` runs whole engines with the ties reversed).

The first half holds the production route to the chain column by column
over random grids; two deliberate mutants of the slice rule must fail the
same check.  The second half installs the chain in a real engine
(``ReferenceRouteEngine``) and asks for equivalent runs and equal mid-run
checkpoint bytes over windows x policies x backends, and across a resize.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routing import ReferenceRouteEngine, reference_route
from streaming_harness import assert_equivalent_runs, use_tick_clocks

from repro.core.region import GridRegion
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.partitioning import (
    GridRoutedPartitioning,
    build_hash_repartitioning,
    build_one_bucket_partitioning,
)
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
from repro.streaming.migration import _to_machines

# ----------------------------------------------------------------------
# Column for column, per machine
# ----------------------------------------------------------------------
#: Boundary values come from a small pool so that keys land exactly on them.
POOL = [-np.inf, -7.0, -2.5, 0.0, 0.0, 1.0, 3.0, 3.0, 8.5, 2.0**53, np.inf]

KEY_DTYPES = ["float64", "int32", "uint64", "int64_big"]


def _draw_boundaries(rng: np.random.Generator) -> np.ndarray:
    """Ascending, duplicates allowed, open or closed ends, 1 to 7 ranges."""
    picked = rng.choice(len(POOL), size=int(rng.integers(2, 9)))
    return np.sort(np.array(POOL)[picked])


def _draw_regions(rng, num_rows: int, num_cols: int) -> "list[GridRegion]":
    """0 to 6 rectangles; row and column ranges overlap freely (replication)."""
    regions = []
    for _ in range(int(rng.integers(0, 7))):
        row_lo, row_hi = np.sort(rng.integers(0, num_rows, 2))
        col_lo, col_hi = np.sort(rng.integers(0, num_cols, 2))
        regions.append(GridRegion(int(row_lo), int(row_hi), int(col_lo), int(col_hi)))
    return regions


def _draw_keys(rng, boundaries: np.ndarray, dtype: str, size: int) -> np.ndarray:
    """Keys on, between, below and above the boundaries, with duplicates."""
    finite = boundaries[np.isfinite(boundaries)]
    anchors = finite if len(finite) else np.zeros(1)
    keys = rng.choice(anchors, size) + rng.choice([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 40.0], size)
    if dtype == "float64":
        special = rng.random(size)
        keys[special < 0.08] = np.nan
        keys[(special >= 0.08) & (special < 0.14)] = np.inf
        keys[(special >= 0.14) & (special < 0.20)] = -np.inf
        keys[(special >= 0.20) & (special < 0.24)] = -0.0
        return keys
    if dtype == "int32":
        return np.clip(np.round(keys), -(2**31), 2**31 - 1).astype(np.int32)
    if dtype == "uint64":
        small = np.clip(np.round(keys), 0, 2.0**62).astype(np.uint64)
        huge = np.uint64(2**64 - 1) - rng.integers(0, 3, size).astype(np.uint64)
        return np.where(rng.random(size) < 0.2, huge, small)
    # int64 around 2**53, where neighbouring integers collapse in float64:
    # the stored key must come back exact, never through a float.
    return (2**53 + rng.integers(-4, 5, size)).astype(np.int64)


def assert_same_columns(idx, held, ref_idx, ref_held) -> None:
    """One machine-side: the same ``(index, key bits)`` multiset, keys ascending.

    The order among equal keys is unspecified (``sort_arrivals``), so the
    pairs are compared sorted by ``(index, key bits)``, and the key column
    as it lies must only never decrease (NaN last).  Key bytes, not values:
    NaN == NaN and -0.0 != 0.0 here.
    """
    assert idx.dtype == ref_idx.dtype == np.int64
    assert held.dtype == ref_held.dtype
    bits, ref_bits = held.view(f"u{held.itemsize}"), ref_held.view(f"u{held.itemsize}")
    order, ref_order = np.lexsort((bits, idx)), np.lexsort((ref_bits, ref_idx))
    np.testing.assert_array_equal(idx[order], ref_idx[ref_order])
    np.testing.assert_array_equal(bits[order], ref_bits[ref_order])
    assert np.array_equal(held, np.sort(held), equal_nan=True)


def assert_same_keys(held, ref_held) -> None:
    """One machine-side's keys: the same key-bit multiset, ``held`` ascending.

    :func:`assert_same_columns` without the indices, for state that reaches
    a machine as keys alone; ``ref_held`` may lie in any order.
    """
    assert held.dtype == ref_held.dtype
    bits, ref_bits = held.view(f"u{held.itemsize}"), ref_held.view(f"u{held.itemsize}")
    np.testing.assert_array_equal(np.sort(bits), np.sort(ref_bits))
    assert np.array_equal(held, np.sort(held), equal_nan=True)


def _columns_match(candidate, partitioning_cls, seed: int, dtype: str) -> None:
    """One random grid, map and batch: ``candidate`` against the old chain."""
    rng = np.random.default_rng(seed)
    row_boundaries, col_boundaries = _draw_boundaries(rng), _draw_boundaries(rng)
    regions = _draw_regions(rng, len(row_boundaries) - 1, len(col_boundaries) - 1)
    partitioning = partitioning_cls(row_boundaries, col_boundaries, regions)
    # More machines than regions now and then, and never the identity map
    # by construction: a partial migration's remap.
    num_machines = len(regions) + int(rng.integers(0, 3))
    region_to_machine = rng.permutation(num_machines)[: len(regions)].astype(np.int64)
    for side, boundaries in ((1, row_boundaries), (2, col_boundaries)):
        size = int(rng.integers(0, 60)) if rng.random() < 0.9 else 0
        keys = _draw_keys(rng, boundaries, dtype, size)
        offset = int(rng.integers(0, 40))
        history = np.concatenate([np.zeros(offset, dtype=keys.dtype), keys])
        expected = reference_route(
            partitioning, side, keys, None, offset, region_to_machine, num_machines, history
        )
        routed = candidate(partitioning, side, keys, offset)
        actual = _to_machines(routed, keys, region_to_machine, num_machines)
        assert len(actual) == len(expected) == num_machines
        for (idx, held), (ref_idx, ref_held) in zip(actual, expected):
            assert held.dtype == keys.dtype
            assert_same_columns(idx, held, ref_idx, ref_held)


def _production(partitioning, side, keys, offset):
    return partitioning.sorted_arrivals(side, keys, None, offset)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from(KEY_DTYPES))
def test_slices_equal_masks_gathers_and_sorts(seed, dtype):
    _columns_match(_production, GridRoutedPartitioning, seed, dtype)


def test_routed_slices_never_alias_the_batch():
    keys = np.array([3.0, 1.0, 2.0, 1.0])
    partitioning = GridRoutedPartitioning(
        np.array([-np.inf, 2.0, np.inf]), np.array([-np.inf, np.inf]),
        [GridRegion(0, 0, 0, 0), GridRegion(1, 1, 0, 0)],
    )
    for indices, held in partitioning.sorted_arrivals(1, keys, None, 10):
        assert not np.shares_memory(held, keys)
        assert indices.min() >= 10


class _RestatedSliceRule(GridRoutedPartitioning):
    """The slice rule restated with two knobs, for planting mutants."""

    low_side = "left"
    step = 1

    def sorted_arrivals(self, side, keys, rng, offset=0):
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        sorted_keys, indices = keys[order], order + offset
        probe = sorted_keys.astype(np.float64)
        boundaries = self.row_boundaries if side == 1 else self.col_boundaries
        routed = []
        for region in self.regions:
            lo, hi = (region.row_lo, region.row_hi) if side == 1 else (region.col_lo, region.col_hi)
            start = 0 if lo == 0 else int(probe.searchsorted(boundaries[lo], self.low_side))
            stop = len(keys) if hi == len(boundaries) - 2 else int(
                probe.searchsorted(boundaries[hi + 1], "left"))
            routed.append((indices[start:stop][:: self.step], sorted_keys[start:stop][:: self.step]))
        return routed


class _LowCutOnTheRight(_RestatedSliceRule):
    low_side = "right"


class _ReversedSlices(_RestatedSliceRule):
    step = -1


def _sweep(partitioning_cls) -> None:
    for seed in range(200):
        for dtype in KEY_DTYPES:
            _columns_match(_production, partitioning_cls, seed, dtype)


def test_the_oracle_rejects_a_misplaced_low_cut_and_a_reversed_slice():
    """The restated rule passes; either single-token mutant fails."""
    _sweep(_RestatedSliceRule)
    with pytest.raises(AssertionError):
        _sweep(_LowCutOnTheRight)
    with pytest.raises(AssertionError):
        _sweep(_ReversedSlices)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheme=st.sampled_from(["one_bucket", "hash"]),
    machines=st.integers(1, 7),
)
def test_the_default_assigns_in_arrival_order_then_sorts(seed, scheme, machines):
    """Randomised and hash schemes: same columns, same generator draws."""
    if scheme == "one_bucket":
        partitioning = build_one_bucket_partitioning(machines)
    else:
        partitioning = build_hash_repartitioning(machines, band_width=1.0)
    rng = np.random.default_rng(seed)
    region_to_machine = rng.permutation(machines).astype(np.int64)
    for side in (1, 2):
        keys = rng.integers(0, 12, int(rng.integers(0, 50))).astype(np.float64)
        offset = int(rng.integers(0, 40))
        history = np.concatenate([np.zeros(offset), keys])
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = reference_route(
            partitioning, side, keys, theirs, offset, region_to_machine, machines, history
        )
        actual = _to_machines(
            partitioning.sorted_arrivals(side, keys, ours, offset),
            keys, region_to_machine, machines,
        )
        assert ours.bit_generator.state == theirs.bit_generator.state
        for (idx, held), (ref_idx, ref_held) in zip(actual, expected):
            assert_same_columns(idx, held, ref_idx, ref_held)


# ----------------------------------------------------------------------
# The whole engine, with the chain installed
# ----------------------------------------------------------------------
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

BACKENDS = {
    "simulated": SimulatedBackend,
    "sticky": lambda: StickyWorkerBackend(max_workers=2),
}


def _source() -> DriftingZipfSource:
    return DriftingZipfSource(
        num_batches=10, tuples_per_batch=160, num_values=60,
        z_initial=0.1, z_final=1.3, shift_at_batch=4, seed=23,
    )


def _run(engine_cls, policy, backend, window, monkeypatch, resize_to=None):
    """Run on a fresh ``backend()``, checkpointing after batch 6: (result, bytes).

    Both engines read a tick clock, so what is left in a checkpoint of the
    machine rather than the behaviour is a sticky worker's own seconds and
    the pickled size of its pid; both are blanked before encoding.
    """
    use_tick_clocks(monkeypatch)
    with backend() as owner:
        engine = engine_cls(
            MACHINES, BAND, WEIGHTS,
            policy=POLICIES[policy](), backend=owner, window=window,
            sample_capacity=256, seed=9,
        )
        engine.start()
        raw = None
        for position, batch in enumerate(_source().batches()):
            engine.process_batch(batch)
            if position == 6:
                if resize_to is not None:
                    engine.resize(resize_to)
                checkpoint = engine.checkpoint()
                for metrics in checkpoint.result.batches:
                    metrics.per_machine_join_seconds = None
                    metrics.bytes_unpickled = None
                raw = checkpoint.to_bytes()
        return engine.finish(), raw


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_engine_runs_and_checkpoints_match_the_reference_route(
    policy, window, monkeypatch
):
    expected, expected_raw = _run(
        ReferenceRouteEngine, policy, BACKENDS["simulated"], window, monkeypatch
    )
    actual, raw = _run(
        StreamingJoinEngine, policy, BACKENDS["simulated"], window, monkeypatch
    )
    assert_equivalent_runs(actual, expected)
    assert raw == expected_raw
    if window == "unbounded":
        assert actual.output_correct
    if policy == "adaptive":
        assert actual.num_repartitions >= 1


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_sticky_runs_and_checkpoints_match_the_reference_route(
    policy, window, monkeypatch
):
    expected, expected_raw = _run(
        ReferenceRouteEngine, policy, BACKENDS["sticky"], window, monkeypatch
    )
    actual, raw = _run(
        StreamingJoinEngine, policy, BACKENDS["sticky"], window, monkeypatch
    )
    assert_equivalent_runs(actual, expected)
    assert actual.backend == "sticky"
    assert raw == expected_raw


@pytest.mark.parametrize("resize_to", [3, 6])
def test_a_resize_matches_the_reference_route(resize_to, monkeypatch):
    runs = [
        _run(engine_cls, "adaptive", SimulatedBackend, "batches:3", monkeypatch, resize_to)
        for engine_cls in (ReferenceRouteEngine, StreamingJoinEngine)
    ]
    (expected, expected_raw), (actual, raw) = runs
    assert_equivalent_runs(actual, expected)
    assert raw == expected_raw
    assert actual.num_machines == resize_to
