"""The per-side arrival log: global indices in, the same keys out, O(window) held."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from streaming_harness import use_tick_clocks

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    ArrivalLog,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    SlidingWindow,
    StreamingJoinEngine,
    make_window,
)
from repro.streaming.window import drop_expired

WINDOWS = ["batches:1", "batches:3", "tuples:1", "tuples:40", "decay:0.5", "decay:0.9"]


def test_arrival_log_keeps_global_indices_exact_and_its_buffer_bounded():
    rng = np.random.default_rng(5)
    window = SlidingWindow(tuples=300)
    log = ArrivalLog(windowed=True)

    # Integer keys stay integers: 2**53 + 1 is not a float64.
    big = np.array([2**53 + 1, 2**62 + 3, 7], dtype=np.int64)
    assert log.append(big) == 0
    assert log.keys.dtype == np.int64
    assert log[np.array([1, 0])].tolist() == [2**62 + 3, 2**53 + 1]

    # An empty batch records its start and changes nothing else.
    assert log.append(np.empty(0)) == 3
    assert (log.total, log.starts, log.keys.dtype) == (3, [0, 3], np.int64)

    # A later float batch promotes what is retained, by numpy's rules.
    assert log.append(np.array([0.5])) == 3
    assert log.keys.dtype == np.float64 and log[np.array([3])].tolist() == [0.5]

    # 1,000 append / expire / trim rounds: every global index still
    # resolves to the key delivered there, and the physical buffer never
    # exceeds 2x retained plus one batch.
    delivered = log.keys.copy()
    batch = 40
    for _ in range(1000):
        keys = rng.integers(0, 1000, batch).astype(np.float64)
        delivered = np.concatenate([delivered, keys])
        before = log.keys  # a view handed out before a (possibly reclaiming) append
        snapshot = before.copy()
        first = log.append(keys)
        np.testing.assert_array_equal(before, snapshot)
        assert first == len(delivered) - batch
        log.expire(window, rng)
        log.trim(window)
        assert len(log._buffer) <= 2 * log.retained + batch
        np.testing.assert_array_equal(log[log.live], delivered[log.live])
    assert log.total == len(delivered)
    assert (log.base, log.retained) == (log.total - 300, 300)
    assert log.starts[0] >= log.base and log.live[0] == log.base
    np.testing.assert_array_equal(log.keys, delivered[log.base :])

    # A policy whose trim point overshoots a live tuple is refused at the
    # trim: that tuple's index would resolve to some other key later.
    class Overshooting(SlidingWindow):
        def trim_point(self, oldest_live):
            return int(oldest_live) + 1

    with pytest.raises(ValueError, match="past the oldest live arrival"):
        log.trim(Overshooting(tuples=300))


def _expire_by_membership(log, window, rng):
    """``ArrivalLog.expire`` with every eviction through ``drop_expired``."""
    expired = window.evictions(log.live, log.starts, log.total, rng)
    log.live = drop_expired(log.live, expired)
    return expired


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(WINDOWS),
    sizes=st.lists(st.integers(0, 12), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_expire_leaves_the_live_set_drop_expired_leaves(spec, sizes, seed):
    """Sliding evictions are sliced off, decay ones masked: the same live set."""
    window = make_window(spec)
    log, twin = ArrivalLog(windowed=True), ArrivalLog(windowed=True)
    rng, twin_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for size in sizes:
        for side in (log, twin):
            side.append(np.arange(size, dtype=np.float64))
        expired = log.expire(window, rng)
        np.testing.assert_array_equal(expired, _expire_by_membership(twin, window, twin_rng))
        np.testing.assert_array_equal(log.live, twin.live)
        assert log.live.dtype == twin.live.dtype == np.int64
        assert log.trim(window) == twin.trim(window)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


@pytest.mark.parametrize("window", ["batches:3", "tuples:500", "decay:0.8"])
def test_mid_run_checkpoint_bytes_equal_with_every_eviction_masked(window, monkeypatch):
    """Slicing the live set changes no byte of a mid-run checkpoint."""

    def payload() -> bytes:
        use_tick_clocks(monkeypatch)
        engine = StreamingJoinEngine(
            4, BandJoinCondition(beta=2.0), WeightFunction(1.0, 0.2),
            policy=DriftAdaptiveEWHPolicy(
                DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
            ),
            window=window, sample_capacity=256, seed=9,
        )
        engine.start()
        source = DriftingZipfSource(
            num_batches=12, tuples_per_batch=160, num_values=60,
            z_initial=0.1, z_final=1.3, shift_at_batch=4, seed=23,
        )
        for position, batch in enumerate(source.batches()):
            engine.process_batch(batch)
            if position == 8:
                raw = engine.checkpoint().to_bytes()
        engine.close()
        return raw

    raw = payload()
    monkeypatch.setattr(ArrivalLog, "expire", _expire_by_membership)
    assert raw == payload()
