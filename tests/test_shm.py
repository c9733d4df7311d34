"""Unit tests for the shared-memory array transport (repro.streaming.shm)."""

from __future__ import annotations

import secrets
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest

from repro.streaming.shm import (
    SEGMENT_PREFIX,
    ShmArena,
    ShmReader,
    attach_segment,
)
from streaming_harness import SHM_DIR, shm_leak_check


def _segment_exists(name: str) -> bool:
    """Whether a POSIX shm segment of that name is currently linked."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux fallback
        try:
            attach_segment(name).close()
            return True
        except FileNotFoundError:
            return False
    return (shm_dir / name).exists()


class TestShmArena:
    def test_roundtrip_preserves_values_and_dtypes(self):
        arena = ShmArena()
        reader = ShmReader()
        arrays = [
            np.arange(7, dtype=np.int64),
            np.linspace(0.0, 1.0, 5),
            np.empty(0, dtype=np.int64),
            np.array([2**60, -5], dtype=np.int64),
        ]
        try:
            message = arena.write(arrays)
            views = reader.arrays(message)
            assert len(views) == len(arrays)
            for view, original in zip(views, arrays):
                assert view.dtype == original.dtype
                np.testing.assert_array_equal(view, original)
        finally:
            reader.close()
            arena.close()

    def test_views_are_zero_copy(self):
        arena = ShmArena()
        reader = ShmReader()
        try:
            message = arena.write([np.arange(4, dtype=np.int64)])
            view = reader.arrays(message)[0]
            # The view aliases the mapped segment, not a private copy.
            assert not view.flags.owndata
            del view
        finally:
            reader.close()
            arena.close()

    def test_payload_bytes_counts_array_payload(self):
        arena = ShmArena()
        try:
            message = arena.write(
                [np.zeros(10, dtype=np.int64), np.zeros(3, dtype=np.float64)]
            )
            assert message.payload_bytes == 10 * 8 + 3 * 8
        finally:
            arena.close()

    def test_segment_reused_until_capacity_grows(self):
        arena = ShmArena()
        try:
            first = arena.write([np.zeros(8, dtype=np.int64)])
            capacity = arena.capacity
            second = arena.write([np.zeros(4, dtype=np.int64)])
            assert second.segment == first.segment
            assert arena.capacity == capacity
        finally:
            arena.close()

    def test_growth_renames_and_unlinks_the_old_segment(self):
        arena = ShmArena()
        try:
            small = arena.write([np.zeros(4, dtype=np.int64)])
            big = arena.write(
                [np.zeros(4096, dtype=np.int64)]  # larger than the floor
            )
            assert big.segment != small.segment
            assert arena.capacity >= 4096 * 8
            assert not _segment_exists(small.segment)
            assert _segment_exists(big.segment)
        finally:
            arena.close()

    def test_segment_names_have_constant_width(self):
        # The pickled size of a ShmMessage must not depend on how many
        # times the arena grew, or serialization byte counts would drift.
        arena = ShmArena()
        try:
            names = [
                arena.write([np.zeros(size, dtype=np.int64)]).segment
                for size in (1, 1024, 4096)
            ]
            assert len({len(name) for name in names}) == 1
            assert all(name.startswith(SEGMENT_PREFIX) for name in names)
        finally:
            arena.close()

    def test_offsets_are_aligned(self):
        arena = ShmArena()
        try:
            message = arena.write(
                [np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64)]
            )
            assert all(spec.offset % 16 == 0 for spec in message.specs)
        finally:
            arena.close()

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        message = arena.write([np.arange(3, dtype=np.int64)])
        arena.close()
        assert not _segment_exists(message.segment)
        arena.close()  # idempotent

    def test_write_after_close_raises(self):
        arena = ShmArena()
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.write([np.zeros(1, dtype=np.int64)])


class TestShmReader:
    def test_reader_caches_attachment_until_name_changes(self):
        arena = ShmArena()
        reader = ShmReader()
        try:
            first = arena.write([np.arange(4, dtype=np.int64)])
            reader.arrays(first)
            cached = reader._segment
            again = arena.write([np.arange(2, dtype=np.int64)])
            reader.arrays(again)
            assert reader._segment is cached  # same segment, no re-attach
            grown = arena.write([np.zeros(4096, dtype=np.int64)])
            views = reader.arrays(grown)
            assert reader._segment is not cached  # new segment attached
            np.testing.assert_array_equal(
                views[0], np.zeros(4096, dtype=np.int64)
            )
        finally:
            reader.close()
            arena.close()

    def test_reader_close_is_idempotent_and_never_unlinks(self):
        arena = ShmArena()
        reader = ShmReader()
        message = arena.write([np.arange(3, dtype=np.int64)])
        reader.arrays(message)
        reader.close()
        reader.close()  # idempotent
        # The reader unmapped but did not unlink: the writer still owns it.
        assert _segment_exists(message.segment)
        arena.close()
        assert not _segment_exists(message.segment)

    def test_a_workers_state_never_aliases_the_arena(self):
        """What a worker folds in are views of a segment the next message
        overwrites: its sorted state must hold copies -- the arrivals no
        longer pass through a sort that used to make them."""
        from repro.joins.conditions import BandJoinCondition
        from repro.streaming.backends import _StickyWorkerState

        band = BandJoinCondition(beta=1.0)
        worker = _StickyWorkerState()
        worker.own((0,), band, band.transposed)
        arena = ShmArena()
        reader = ShmReader()
        try:
            first = 0
            # 64, then 3 (appended unmerged: 64 >= 8 * 3), then 3 (merged).
            for size in (64, 3, 3):
                keys = np.linspace(0.0, 50.0, size) + first
                first += size
                message = arena.write([keys, keys])
                views = reader.arrays(message)
                worker.handle(("count", message), reader)
                held = worker.owner.states[0][0], worker.owner.states[1][0]
                for state in held:
                    for run in state.runs:
                        for column in run:
                            if column is None:
                                continue
                            assert column.flags.owndata
                            assert not any(
                                np.shares_memory(column, view) for view in views
                            )
                before = [state.keys.copy() for state in held]
                del views
                # The next message reuses the segment under the old views.
                arena.write([np.full(2 * size, -1.0)] * 2)
                for state, keys_before in zip(held, before):
                    np.testing.assert_array_equal(state.keys, keys_before)
        finally:
            reader.close()
            arena.close()


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="POSIX shm is not mounted at /dev/shm here")
class TestLeakCheck:
    """The autouse leak check counts only the segments of this process's arenas."""

    def test_a_foreign_segment_does_not_fail_a_test(self, arena_tokens):
        # Another process's arena -- a concurrent test run's sticky backend
        # -- makes a segment during the test and still holds it after.
        name = f"{SEGMENT_PREFIX}-{secrets.token_hex(6)}-0000"
        foreign = None
        try:
            with shm_leak_check(arena_tokens):
                foreign = shared_memory.SharedMemory(name=name, create=True, size=16)
            assert _segment_exists(name)
        finally:
            if foreign is not None:
                foreign.close()
                foreign.unlink()

    def test_an_unclosed_arena_still_fails(self, arena_tokens):
        arena = ShmArena()
        try:
            with pytest.raises(AssertionError, match="leaked shared-memory segments"):
                with shm_leak_check(arena_tokens):
                    arena.write([np.arange(4)])
        finally:
            arena.close()
