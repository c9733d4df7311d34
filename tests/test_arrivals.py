"""The per-side arrival log: global indices in, the same keys out, O(window) held."""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming import ArrivalLog, SlidingWindow


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
        def trim_point(self, live, total_arrived):
            return int(live[0]) + 1

    with pytest.raises(ValueError, match="past the oldest live arrival"):
        log.trim(Overshooting(tuples=300))
