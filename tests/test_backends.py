"""Execution backends: unit behaviour and cross-backend equivalence.

The streaming engine's correctness story only works if every execution
backend computes the *same* per-region outputs for the same state -- the
cost model, incremental deltas and migration plans must be backend
independent, with only the measured wall timings differing.  The equivalence
tests here run a full drifting-Zipf stream through the simulated and the
sticky backend with fixed seeds and compare everything that must match,
batch by batch.

Tests that spawn worker processes are marked ``multiprocess`` so constrained
runners can deselect them with ``-m "not multiprocess"``.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.joins import native
from repro.joins.conditions import BandJoinCondition
from repro.joins.local import count_join_output
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    ExecutionBackend,
    RegionJoinResult,
    SimulatedBackend,
    SortedRegionState,
    StickyWorkerBackend,
    StreamingJoinEngine,
    StreamingPipeline,
    default_mp_context,
    make_backend,
)
from repro.partitioning.routing import RoutedSide
from repro.streaming import backends
from repro.streaming.backends import StateOwner, _StickyWorkerState
from repro.streaming.shm import SEGMENT_PREFIX
from reference_state import state_layout
import streaming_harness
from streaming_harness import SleepingBackend, _ForwardingBackend, arrivals

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)


def _region_keys(rng, num_regions=4, size=120):
    """Random per-region sides, key-sorted, including one empty-sided region."""
    region_keys = [
        (np.sort(rng.uniform(0, 50, size)), np.sort(rng.uniform(0, 50, size)))
        for _ in range(num_regions - 1)
    ]
    region_keys.append((np.empty(0), np.sort(rng.uniform(0, 50, size))))
    return region_keys


def _first_batch(region_keys) -> "tuple[RoutedSide, RoutedSide]":
    """Per-region sides as a stream's first batch, a machine per region."""
    return (
        RoutedSide.of([keys1 for keys1, _ in region_keys]),
        RoutedSide.of([keys2 for _, keys2 in region_keys]),
    )


def _bound(backend, machines=4):
    """``backend``, bound to a band join of ``machines`` machines."""
    backend.bind(machines, BAND, BAND.transposed)
    return backend


class TestSimulatedBackend:
    def test_counts_match_exact_kernel(self, rng):
        """A first batch into empty state counts each region's whole join."""
        region_keys = _region_keys(rng)
        result = _bound(SimulatedBackend()).count_batch(*_first_batch(region_keys))
        expected = [
            count_join_output(k1, k2, BAND) if len(k1) and len(k2) else 0
            for k1, k2 in region_keys
        ]
        assert result.per_machine_output.tolist() == expected
        assert result.total_output == sum(expected)

    def test_empty_regions_charge_no_time(self, rng):
        result = _bound(SimulatedBackend()).count_batch(*_first_batch(_region_keys(rng)))
        # The empty-sided region produced nothing; one pass counts every
        # machine, so no machine is charged a time of its own.
        assert result.per_machine_output[-1] == 0
        assert result.per_machine_seconds is None
        assert result.wall_seconds >= 0.0

    def test_close_is_final_and_context_manager_works(self, rng):
        batch = _first_batch(_region_keys(rng, size=10))
        with SimulatedBackend() as backend:
            _bound(backend).count_batch(*batch)
        backend.close()  # idempotent
        assert backend.closed
        # Uniform resource contract with the sticky backend: a closed
        # backend refuses work instead of silently coming back to life.
        with pytest.raises(RuntimeError, match="closed"):
            backend.count_batch(*batch)


class TestSleepingBackend:
    """The harness's slow consumer: a forwarding decorator that sleeps."""

    def test_results_unchanged_and_the_count_really_stalls(self, rng):
        batch = _first_batch(_region_keys(rng))
        reference = _bound(SimulatedBackend()).count_batch(*batch)
        slow = _bound(SleepingBackend(SimulatedBackend(), seconds=0.05))
        start = time.perf_counter()
        result = slow.count_batch(*batch)
        assert time.perf_counter() - start >= 0.05
        np.testing.assert_array_equal(
            result.per_machine_output, reference.per_machine_output
        )
        assert slow.name == "sleeping(simulated)"

    def test_every_field_of_the_inner_execution_survives(self):
        # The decorator returns the inner result as it is: bytes_shm and
        # worker_seconds reach the engine's metering and span stitching.
        inner_result = RegionJoinResult(
            per_machine_output=np.array([3, 5]),
            per_machine_seconds=np.array([0.1, 0.2]),
            wall_seconds=1.0,
            bytes_pickled=11,
            bytes_unpickled=13,
            bytes_shm=4096,
            worker_pids=np.array([101, 102]),
            worker_seconds=np.array([0.7, 0.9]),
        )

        class Stub(SimulatedBackend):
            def count_batch(self, new1, new2):
                return inner_result

        nothing = RoutedSide.of([np.empty(0)] * 2)
        result = SleepingBackend(Stub(), seconds=0.0).count_batch(nothing, nothing)
        assert result is inner_result

    def test_close_closes_the_inner_backend_and_is_final(self, rng):
        inner = SimulatedBackend()
        slow = _bound(SleepingBackend(inner, seconds=0.0))
        slow.close()
        slow.close()  # idempotent
        assert inner.closed and slow.closed
        with pytest.raises(RuntimeError, match="closed"):
            slow.count_batch(*_first_batch(_region_keys(rng, size=10)))

    def test_sleeps_before_counts_only_through_the_protocol(self, rng, monkeypatch):
        slept = []
        monkeypatch.setattr(streaming_harness.time, "sleep", slept.append)
        history1, history2 = rng.uniform(0, 50, 80), rng.uniform(0, 50, 80)
        split = [np.arange(0, 40, dtype=np.int64), np.arange(40, 80, dtype=np.int64)]
        slow = SleepingBackend(SimulatedBackend(), seconds=0.25)
        reference = SimulatedBackend()
        for backend in (slow, reference):
            backend.bind(2, BAND, BAND.transposed)
        batch = arrivals(split, history1), arrivals(split, history2)
        np.testing.assert_array_equal(
            slow.count_batch(*batch).per_machine_output,
            reference.count_batch(*batch).per_machine_output,
        )
        assert slept == [0.25]
        expired = [np.arange(0, 10, dtype=np.int64), np.empty(0, dtype=np.int64)]
        assert slow.evict_state(
            arrivals(expired, history1), arrivals(expired, history2)
        ) == 20
        swapped = [split[1], split[0]]
        slow.install_state(arrivals(swapped, history1), arrivals(swapped, history2))
        assert slept == [0.25]
        np.testing.assert_array_equal(
            slow.inner._owner.view(0, 0), np.sort(history1[split[1]])
        )


class TestMakeBackend:
    def test_by_name(self):
        assert isinstance(make_backend("simulated"), SimulatedBackend)

    def test_sticky_by_name(self):
        backend = make_backend("sticky", max_workers=2)
        assert isinstance(backend, StickyWorkerBackend)
        assert backend.max_workers == 2
        assert not hasattr(backend, "owns_state")  # one protocol, no flag
        backend.close()  # never bound: no workers to stop, still final

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_every_backend_the_module_defines_is_built_by_name(self):
        """The production module holds only backends a run can select;
        decorators and test doubles live in ``tests/streaming_harness.py``."""
        defined = [
            cls
            for cls in vars(backends).values()
            if isinstance(cls, type)
            and issubclass(cls, ExecutionBackend)
            and cls is not ExecutionBackend
            and cls.__module__ == backends.__name__
        ]
        assert {cls.__name__ for cls in defined} >= {"SimulatedBackend", "StickyWorkerBackend"}
        for cls in defined:
            with make_backend(cls.name) as backend:
                assert type(backend) is cls

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            StickyWorkerBackend(max_workers=0)


class TestStartMethodPinning:
    """The process backend must never inherit the platform's fork default.

    A forked worker inherits the parent's locks mid-state; combined with
    ``StreamingPipeline(mode="thread")`` that is a textbook deadlock.  The
    sticky backend therefore pins an explicit context (forkserver where
    available, else spawn) instead of trusting
    ``multiprocessing.get_start_method()``.
    """

    def test_default_context_is_never_fork(self):
        assert default_mp_context().get_start_method() in {
            "forkserver",
            "spawn",
        }

    def test_sticky_backend_pins_the_default_context(self):
        backend = StickyWorkerBackend(max_workers=1)
        assert backend.start_method in {"forkserver", "spawn"}
        backend.close()

    def test_explicit_context_accepted_by_name(self):
        sticky = StickyWorkerBackend(max_workers=1, mp_context="spawn")
        assert sticky.start_method == "spawn"
        sticky.close()


class _ArrayReader:
    """Stands in for a worker's ``ShmReader``: the message *is* the arrays."""

    def __init__(self, arrays):
        self._arrays = arrays

    def arrays(self, message):
        return self._arrays


class TestStickyWorkerState:
    """The state owner, and the sticky worker's handlers over it.

    :class:`StateOwner` is the one fold implementation: the in-process
    default is one owner of every machine, each sticky worker one owner of
    its machines.  The owner tests pin the fold semantics exactly on
    per-machine arrays (a group per machine); the handler tests pin the
    worker's machine-major message layout and replies
    (``_StickyWorkerState`` is the code that runs inside the worker
    processes -- exercising it in-process keeps it visible to coverage,
    which cannot see subprocesses).  Key ranges over one group are
    ``tests/test_state_runs.py``'s and ``tests/test_state_derivation.py``'s.
    """

    @staticmethod
    def _layout(num_machines, machine, keys1, keys2):
        """A machine-major message with one populated machine."""
        arrays = [np.empty(0)] * (2 * num_machines)
        arrays[2 * machine : 2 * machine + 2] = [keys1, keys2]
        return arrays

    def test_count_replays_the_incremental_fold(self, rng, monkeypatch):
        owner = StateOwner()
        worker = _StickyWorkerState()
        op, pid = worker.own((0,), BAND, BAND.transposed)
        assert op == "owned" and pid == os.getpid()
        history1 = rng.uniform(0, 50, 60)
        history2 = rng.uniform(0, 50, 60)
        state1 = SortedRegionState()
        state2 = SortedRegionState()
        calls = []
        fold = native.fold

        def spy(merges, halves, out):
            merged = fold(merges, halves, out)
            calls.append((halves, merged))
            return merged

        monkeypatch.setattr(native, "fold", spy)
        runs_per_half = []
        # 50, then 5, then 5 arrivals: the second batch stays its own run
        # (50 >= 8 * 5), so the third batch's second half searches two runs.
        for lo, hi in ((0, 50), (50, 55), (55, 60)):
            keys1, keys2 = history1[lo:hi], history2[lo:hi]
            # The reference decomposition:
            # C(new1, state2 + new2) + C_transposed(new2, old state1).
            old_keys1 = state1.keys.copy()
            state2.insert(keys2)
            expected = count_join_output(keys1, state2.keys, BAND)
            if len(old_keys1):
                expected += count_join_output(keys2, old_keys1, BAND.transposed)
            state1.insert(keys1)
            # The owner makes one kernel call: both halves, each over every
            # sorted run of the searched state (the merged run the fold
            # makes among them), the batch's sorted arrivals the needles --
            # and no half whose searched state is still empty.
            layout = [np.sort(keys1), np.sort(keys2)]
            halves = [(keys1, state2.keys)] + [(keys2, old_keys1)] * bool(len(old_keys1))
            calls.clear()
            outputs = owner.count(
                RoutedSide.of([layout[0]]), RoutedSide.of([layout[1]]), (BAND, BAND.transposed)
            )
            assert outputs.tolist() == [expected]
            assert len(calls) == 1
            seen, merged = calls[0]
            assert len(seen) == len(halves)
            searched_runs = []
            for (_, _, starts, stops, groups), (needles, searched) in zip(seen, halves):
                assert (starts.tolist(), stops.tolist()) == ([0], [len(needles)])
                ((runs, readers, clip, merge),) = groups
                assert readers.tolist() == [0] and clip is None  # read whole
                runs = runs + ([] if merge is None else [merged[merge]])
                for run, _ in runs:
                    assert np.all(np.diff(run) >= 0)
                expanded = [run if cum is None else np.repeat(run, np.diff(cum)) for run, cum in runs]
                np.testing.assert_array_equal(np.sort(np.concatenate(expanded)), searched)
                searched_runs.append(len(runs))
            runs_per_half.append(searched_runs + [0] * (2 - len(searched_runs)))
            # ... and the worker counts them the same way, per machine.
            outputs, seconds = worker.count(layout)
            assert outputs == [expected]
            assert len(seconds) == 1 and seconds[0] >= 0.0
        assert runs_per_half == [[1, 0], [2, 1], [1, 2]]
        for held in (owner, worker.owner):
            np.testing.assert_array_equal(held.view(0, 0), state1.keys)
            np.testing.assert_array_equal(held.view(1, 0), state2.keys)

    def test_count_touches_owned_machines_only(self, rng):
        worker = _StickyWorkerState()
        worker.own((1,), BAND, BAND.transposed)
        keys = np.sort(rng.uniform(0, 50, 20))
        outputs, _ = worker.count(self._layout(2, 1, keys, keys))
        assert len(outputs) == 1  # one output per *owned* machine
        assert worker.owner.held() == (20, 20)

    def test_empty_sides_are_skipped_and_untimed(self):
        worker = _StickyWorkerState()
        worker.own((0,), BAND, BAND.transposed)
        empty = np.empty(0)
        assert worker.count([empty, empty]) == ([0], [0.0])

    def test_evict_reports_entries_actually_dropped(self, rng):
        owner = StateOwner()
        keys = np.sort(rng.uniform(0, 50, 10))
        empty = keys[:0]
        owner.count(RoutedSide.of([keys, empty]), RoutedSide.of([keys, empty]), (BAND, BAND))
        expired = keys[[2, 5, 7]]
        # Three entries per side on machine 0, nothing on machine 1.
        owner.evict(RoutedSide.of([expired, empty]), RoutedSide.of([expired, empty]))
        assert owner.held() == (7, 7)
        np.testing.assert_array_equal(owner.view(0, 0), np.delete(keys, [2, 5, 7]))
        assert len(owner.view(0, 1)) == 0
        # The backend reports the entries its machines dropped.
        backend = SimulatedBackend()
        backend.bind(2, BAND, BAND.transposed)
        backend.count_batch(RoutedSide.of([keys, empty]), RoutedSide.of([keys, empty]))
        assert backend.evict_state(
            RoutedSide.of([expired, empty]), RoutedSide.of([expired, empty])
        ) == 6
        # The worker's handler is that call behind a message.
        worker = _StickyWorkerState()
        worker.own((0,), BAND, BAND.transposed)
        worker.count([keys, keys])
        assert worker.evict([expired, expired]) is None
        assert worker.owner.held() == (7, 7)

    def test_install_rebuilds_bit_identical_to_from_indices(self, rng):
        owner = StateOwner()
        history = rng.integers(0, 12, 40).astype(np.float64)  # repeated keys
        idx = rng.permutation(40)[:15].astype(np.int64)
        columns = [np.sort(history[idx])] * 2
        owner.install(RoutedSide.of(columns[:1]), RoutedSide.of(columns[1:]))
        reference = SortedRegionState.from_indices(idx, history)
        np.testing.assert_array_equal(owner.view(0, 0), reference.keys)
        # One counted run: each distinct key once, with its count.
        ((keys, cum),) = owner.states[0][0].runs
        np.testing.assert_array_equal(keys, np.unique(history[idx]))
        assert cum[-1] == 15
        worker = _StickyWorkerState()
        worker.own((0,), BAND, BAND.transposed)
        reply = worker.handle(("install", None), _ArrayReader(columns))
        assert reply == ("install", (0, 0), None)  # held nothing on receipt
        np.testing.assert_array_equal(worker.owner.view(0, 0), reference.keys)

    def test_worker_resize_adopts_new_machines_with_empty_state(self, rng):
        worker = _StickyWorkerState()
        worker.own((0,), BAND, BAND.transposed)
        keys = np.sort(rng.uniform(0, 50, 5))
        worker.count([keys, keys])
        # Resizing is the same command bind sent, with the new machines.
        assert worker.own((1, 3), BAND, BAND.transposed) == ("owned", os.getpid())
        assert worker.machines == (1, 3)
        assert worker.owner.held() == (0, 0)

    def test_state_never_aliases_the_message_views(self, rng):
        # Fold inputs are views into a reused shared segment (a sticky
        # worker's arena) or slices of a routed batch.  The sorted append
        # keeps neither: not in a run that nothing merged into (64, then 3:
        # 64 >= 8 * 3), not in a merged one (3 more: 3 < 8 * 3 <= 64 / 2).
        worker = _StickyWorkerState()
        worker.own((0,), BAND, BAND.transposed)
        owner = StateOwner()

        def fold(arrays):
            owner.count(RoutedSide.of(arrays[:1]), RoutedSide.of(arrays[1:]), (BAND, BAND))

        for count, held in ((fold, owner), (worker.count, worker.owner)):
            segment = np.zeros(64)
            for size, runs in ((64, 1), (3, 2), (3, 2)):
                keys = segment[:size]
                keys[:] = np.sort(rng.uniform(0, 50, size))
                count([keys, keys])
                for states in held.states:
                    assert len(states[0].runs) == runs
                    for run in states[0].runs:
                        for column in run:
                            assert column is None or not np.shares_memory(column, segment)
                before = held.view(0, 0).copy()
                segment[:] = -1.0  # the arena overwrites the segment
                np.testing.assert_array_equal(held.view(0, 0), before)

    def test_unknown_command_raises(self):
        worker = _StickyWorkerState()
        with pytest.raises(ValueError, match="unknown sticky-worker command"):
            worker.handle(("bogus",), None)


class TestInProcessStateProtocol:
    """The base-class default: every in-process backend speaks the protocol."""

    @staticmethod
    def _traffic(rng):
        history1 = rng.uniform(0, 50, 80)
        history2 = rng.uniform(0, 50, 80)
        split = [
            np.arange(0, 40, dtype=np.int64),
            np.arange(40, 80, dtype=np.int64),
        ]
        return history1, history2, split

    def test_count_batch_makes_one_kernel_call(self, rng, monkeypatch):
        history1, history2, split = self._traffic(rng)
        calls = []
        fold = native.fold

        def spy(merges, halves, out):
            calls.append(
                [sum(len(runs) + (merge is not None) for runs, *_, merge in groups)
                 for *_, groups in halves]
            )
            return fold(merges, halves, out)

        monkeypatch.setattr(native, "fold", spy)
        backend = SimulatedBackend()
        backend.bind(2, BAND, BAND.transposed)
        result = backend.count_batch(
            arrivals(split, history1), arrivals(split, history2)
        )
        # One call, a half over every machine's group and run of the R2
        # state; the R1 state was empty before the batch, so the second
        # half searches nothing and is left out.
        assert calls == [[2]]
        expected = [
            count_join_output(history1[idx], history2[idx], BAND)
            for idx in split
        ]
        assert result.per_machine_output.tolist() == expected
        assert result.per_machine_seconds is None  # one pass, no per-machine time
        assert result.worker_pids is None and result.bytes_pickled is None
        owner = backend._owner
        assert [len(owner.view(0, m)) for m in (0, 1)] == [40, 40]
        # A machine holding several runs holds their union, as a multiset.
        tail = [np.array([80], dtype=np.int64), np.empty(0, dtype=np.int64)]
        calls.clear()
        backend.count_batch(
            arrivals(tail, np.append(history1, 1.0)),
            arrivals(tail, np.append(history2, 1.0)),
        )
        # Both halves in one call: machine 0's two R2 runs and machine 1's
        # one, then each machine's pre-batch R1 run.
        assert calls == [[3, 2]]
        assert len(owner.states[0][0].runs) == 2
        np.testing.assert_array_equal(
            owner.view(0, 0), np.sort(np.append(history1[split[0]], 1.0))
        )

    def test_evict_install_resize_and_drain(self, rng):
        history1, history2, split = self._traffic(rng)
        backend = SimulatedBackend()
        backend.bind(2, BAND, BAND.transposed)
        backend.count_batch(arrivals(split, history1), arrivals(split, history2))
        # Machine 0 expires its first ten arrivals, machine 1 nothing.
        expired = [np.arange(0, 10, dtype=np.int64), np.empty(0, dtype=np.int64)]
        assert backend.evict_state(
            arrivals(expired, history1), arrivals(expired, history2)
        ) == 20
        owner = backend._owner
        np.testing.assert_array_equal(owner.view(0, 0), np.sort(history1[10:40]))
        np.testing.assert_array_equal(owner.view(1, 1), np.sort(history2[40:80]))
        swapped = [split[1], split[0]]
        backend.install_state(arrivals(swapped, history1), arrivals(swapped, history2))
        np.testing.assert_array_equal(owner.view(0, 0), np.sort(history1[split[1]]))
        # An install of another length resizes the fleet.
        grown = [split[0], np.empty(0, dtype=np.int64), split[1]]
        backend.install_state(arrivals(grown, history1), arrivals(grown, history2))
        assert [
            len(owner.view(side, m)) for side in (0, 1) for m in range(3)
        ] == [40, 0, 40] * 2
        with pytest.raises(ValueError, match="one R1 and one R2 share"):
            backend.install_state(RoutedSide.of([]), RoutedSide.of([]))
        assert backend.drain_channel_bytes() == (None, None, None)


    def test_protocol_calls_before_bind_and_after_close_are_refused(self):
        backend = SimulatedBackend()
        empty = np.empty(0)
        with pytest.raises(RuntimeError, match="not bound"):
            backend.count_batch([], [])
        with pytest.raises(RuntimeError, match="not bound"):
            backend.install_state([empty], [empty])
        backend.bind(1, BAND, BAND.transposed)
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.evict_state(empty, empty)
        with pytest.raises(RuntimeError, match="closed"):
            backend.bind(1, BAND, BAND.transposed)

    def test_rebinding_starts_a_fresh_stream(self, rng):
        # An in-process backend may serve several engines one after another
        # (a shared pool): each bind starts from empty state.
        history1, history2, split = self._traffic(rng)
        backend = SimulatedBackend()
        backend.bind(2, BAND, BAND.transposed)
        batch = arrivals(split, history1), arrivals(split, history2)
        first = backend.count_batch(*batch)
        backend.bind(2, BAND, BAND.transposed)
        again = backend.count_batch(*batch)
        np.testing.assert_array_equal(
            first.per_machine_output, again.per_machine_output
        )


class _ShadowingBackend(_ForwardingBackend):
    """Forward every verb to a sticky backend *and* an in-process twin.

    Nothing is read back from a worker, so what is compared is what the
    backend knows of its workers -- the per-machine counts every reply
    confirms -- against the twin's state, plus every count's output.
    ``compared`` lists the verbs checked.
    """

    wrapper_name = "shadowing"

    def __init__(self, inner):
        super().__init__(inner)
        self.twin = SimulatedBackend()
        self.compared: "list[str]" = []

    def _compare(self, verb: str) -> None:
        self.compared.append(verb)
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
        twin = self.twin.count_batch(new1, new2)
        np.testing.assert_array_equal(
            execution.per_machine_output, twin.per_machine_output
        )
        self._compare("count")
        return execution

    def evict_state(self, expired1, expired2) -> int:
        dropped = super().evict_state(expired1, expired2)
        assert dropped == self.twin.evict_state(expired1, expired2)
        self._compare("evict")
        return dropped

    def install_state(self, state1, state2):
        super().install_state(state1, state2)
        self.twin.install_state(state1, state2)
        self._compare("install")


@pytest.mark.multiprocess
class TestStickyWorkerBackend:
    """Lifecycle contract of the sticky backend: bind once, close cleanly."""

    def test_counts_match_the_in_process_fold(self, rng):
        history1 = rng.uniform(0, 50, 80)
        history2 = rng.uniform(0, 50, 80)
        split = [np.arange(0, 40, dtype=np.int64), np.arange(40, 80, dtype=np.int64)]
        reference = _StickyWorkerState()
        reference.own((0, 1), BAND, BAND.transposed)
        batch = arrivals(split, history1), arrivals(split, history2)
        expected, _ = reference.count(state_layout(*(side.columns() for side in batch)))
        with StickyWorkerBackend(max_workers=2) as backend:
            backend.bind(2, BAND, BAND.transposed)
            result = backend.count_batch(*batch)
        assert result.per_machine_output.tolist() == expected

    def test_a_machine_without_arrivals_is_timed_at_zero(self, rng):
        """One measured entry per machine: real seconds where a machine
        received arrivals, ``0.0`` where it received none."""
        history = rng.uniform(0, 50, 80)
        split = [
            np.arange(0, 40, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.arange(40, 80, dtype=np.int64),
        ]
        with StickyWorkerBackend(max_workers=2) as backend:
            backend.bind(3, BAND, BAND.transposed)
            result = backend.count_batch(
                arrivals(split, history), arrivals(split, history)
            )
        seconds = result.per_machine_seconds
        assert seconds is not None and seconds.shape == (3,)
        assert seconds[1] == 0.0 and (seconds[[0, 2]] > 0).all()
        assert result.per_machine_output[1] == 0

    def test_worker_counts_match_the_in_process_view_after_every_verb(self):
        """Sticky workers hold the only copy; what the backend knows of it is the twin's.

        A windowed drift run (counts, evictions, a drift migration's install)
        plus a mid-stream resize, every verb forwarded to the sticky backend
        *and* an in-process twin: after each one every count's outputs and
        the per-machine sizes the workers confirmed equal the twin's.
        """
        with StickyWorkerBackend(max_workers=2) as sticky:
            shadowing = _ShadowingBackend(sticky)
            engine = _drift_engine(shadowing, window="batches:3")
            engine.start()
            for batch in _drift_source().batches():
                engine.process_batch(batch)
                if batch.index == 5:
                    engine.resize(6)
            engine.finish(verify=False)
            assert set(shadowing.compared) == {"count", "evict", "install"}
            assert shadowing.compared.count("install") >= 2  # drift + resize

    def test_bound_backend_keeps_counts_not_tuples(self, rng):
        """Between batches the engine side holds no per-tuple array: one
        integer per machine and side (plus the workers' pids)."""
        history = rng.uniform(0, 50, 4000)
        idx = [np.arange(m, 4000, 4, dtype=np.int64) for m in range(4)]
        with StickyWorkerBackend(max_workers=2) as backend:
            backend.bind(4, BAND, BAND.transposed)
            backend.count_batch(arrivals(idx, history), arrivals(idx, history))
            expired = [held[:2] for held in idx]
            backend.evict_state(arrivals(expired, history), RoutedSide.of([np.empty(0)] * 4))
            assert backend._counts.tolist() == [[998, 1000]] * 4
            arrays = {
                name: value.shape
                for name, value in vars(backend).items()
                if isinstance(value, np.ndarray)
            }
            assert arrays == {"_counts": (4, 2), "_worker_pids": (2,)}
            assert not any(
                isinstance(value, (list, dict)) and len(value) > backend.max_workers
                for value in vars(backend).values()
            )

    def test_an_install_onto_a_new_fleet_reassigns_ownership_first(
        self, rng, monkeypatch
    ):
        # Resizing is part of the install: an "own" command per worker, then
        # the install itself -- and only when the machine count changes.
        history = rng.uniform(0, 50, 12)
        idx = [np.arange(0, 6, dtype=np.int64), np.arange(6, 12, dtype=np.int64)]
        grown = [idx[1], np.empty(0, dtype=np.int64), idx[0]]
        with StickyWorkerBackend(max_workers=2) as backend:
            backend.bind(2, BAND, BAND.transposed)
            sent = []
            send = backend._send
            monkeypatch.setattr(
                backend, "_send",
                lambda worker, command: (sent.append(command[0]), send(worker, command)),
            )
            backend.install_state(arrivals(grown, history), arrivals(grown, history))
            assert sent == ["own", "own", "install", "install"]
            assert backend._counts.tolist() == [[6, 6], [0, 0], [6, 6]]
            assert len(backend._worker_pids) == 2
            del sent[:]
            backend.install_state(arrivals(grown, history), arrivals(grown[::-1], history))
            assert sent == ["install", "install"]
            assert backend._counts.tolist() == [[6, 6], [0, 0], [6, 6]]

    def test_divergence_is_detected_on_evict_and_on_count(self, rng):
        # The counts are the backend's claim about worker state; a worker
        # whose resident length disagrees is a fault, not noise.
        history = rng.uniform(0, 50, 10)
        idx = [np.arange(4, dtype=np.int64)]
        expired = arrivals([np.arange(2, dtype=np.int64)], history)
        for verb in ("evict_state", "count_batch"):
            with StickyWorkerBackend(max_workers=1) as backend:
                backend.bind(1, BAND, BAND.transposed)
                backend.count_batch(arrivals(idx, history), arrivals(idx, history))
                # Behind the backend's back: the worker drops two R1 entries.
                message = backend._arena.write([expired[0], expired[0][:0]])
                assert backend._broadcast(("evict", message))[0] == ("evict", (4, 4), None)
                with pytest.raises(RuntimeError, match="diverged"):
                    getattr(backend, verb)(expired, expired)

    def test_rebind_refused(self):
        with StickyWorkerBackend(max_workers=1) as backend:
            backend.bind(2, BAND, BAND.transposed)
            assert backend.bound
            with pytest.raises(RuntimeError, match="re-binding"):
                backend.bind(2, BAND, BAND.transposed)

    def test_stateful_calls_before_bind_are_refused(self):
        backend = StickyWorkerBackend(max_workers=1)
        empty = np.empty(0)
        with pytest.raises(RuntimeError, match="not bound"):
            backend.count_batch([], [])
        with pytest.raises(RuntimeError, match="not bound"):
            backend.evict_state(empty, empty)
        backend.close()

    def test_use_after_close_raises_instead_of_restarting_workers(self):
        backend = StickyWorkerBackend(max_workers=1)
        backend.bind(1, BAND, BAND.transposed)
        backend.close()
        assert backend.closed
        with pytest.raises(RuntimeError, match="closed"):
            backend.bind(1, BAND, BAND.transposed)
        with pytest.raises(RuntimeError, match="closed"):
            backend.count_batch([], [])
        backend.close()  # idempotent

    def test_close_unlinks_the_shared_segment(self, rng):
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux fallback
            pytest.skip("POSIX shm is not mounted at /dev/shm here")
        before = {p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}-*")}
        backend = StickyWorkerBackend(max_workers=1)
        backend.bind(1, BAND, BAND.transposed)
        idx = np.arange(16, dtype=np.int64)
        history = rng.uniform(0, 50, 16)
        backend.count_batch(arrivals([idx], history), arrivals([idx], history))
        live = {
            p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}-*")
        } - before
        assert live  # the arena segment exists while the stream is bound
        backend.close()
        after = {p.name for p in shm_dir.glob(f"{SEGMENT_PREFIX}-*")}
        assert not (live & after)

    def test_close_is_bounded_when_a_worker_is_wedged(self, rng):
        """A worker that is alive but stopped cannot hang ``close()``.

        The handshake is polled, and SIGTERM never lands on a stopped
        process, so ``close()`` must escalate to SIGKILL -- and still
        unlink the segment (the autouse leak fixture checks it too).
        """
        backend = StickyWorkerBackend(max_workers=2)
        backend.bind(2, BAND, BAND.transposed)
        idx = [np.arange(8, dtype=np.int64)] * 2
        history = rng.uniform(0, 50, 8)
        backend.count_batch(arrivals(idx, history), arrivals(idx, history))
        segment = backend._arena.segment_name
        processes = list(backend._processes)
        os.kill(processes[0].pid, signal.SIGSTOP)
        try:
            started = time.perf_counter()
            backend.close()
            elapsed = time.perf_counter() - started
        finally:
            for process in processes:
                if process.is_alive():  # pragma: no cover - only on failure
                    process.kill()
        assert elapsed < 5.0
        assert not any(process.is_alive() for process in processes)
        assert processes[0].exitcode == -signal.SIGKILL
        assert not (Path("/dev/shm") / segment).exists()
        assert backend.closed

    def test_worker_pids_are_real_and_follow_ownership(self, rng):
        with StickyWorkerBackend(max_workers=2) as backend:
            backend.bind(4, BAND, BAND.transposed)
            idx = np.arange(8, dtype=np.int64)
            history = rng.uniform(0, 50, 8)
            result = backend.count_batch(
                arrivals([idx] * 4, history), arrivals([idx] * 4, history)
            )
        pids = result.worker_pids
        assert pids is not None and np.all(pids > 0)
        assert not np.any(pids == os.getpid())
        # One pid per worker; a worker's counting time is its machines' sum
        # (machine m lives on worker m % 2).
        assert len(pids) == 2 and pids[0] != pids[1]
        seconds = result.per_machine_seconds
        assert seconds.shape == (4,) and np.all(seconds > 0)
        np.testing.assert_allclose(
            result.worker_seconds, [seconds[0::2].sum(), seconds[1::2].sum()]
        )

    def test_worker_errors_surface_engine_side(self):
        with StickyWorkerBackend(max_workers=1) as backend:
            backend.bind(1, BAND, BAND.transposed)
            with pytest.raises(RuntimeError, match="sticky worker failed"):
                backend._broadcast(("bogus",))

    def test_drain_reports_batch_bytes_then_goes_quiet(self, rng):
        with StickyWorkerBackend(max_workers=1) as backend:
            backend.bind(1, BAND, BAND.transposed)
            pickled, unpickled, shm = backend.drain_channel_bytes()
            assert pickled > 0 and unpickled > 0  # the init command
            assert shm == 0  # init ships no arrays
            assert backend.drain_channel_bytes() == (None, None, None)
            idx = np.arange(8, dtype=np.int64)
            history = rng.uniform(0, 50, 8)
            backend.count_batch(arrivals([idx], history), arrivals([idx], history))
            pickled, unpickled, shm = backend.drain_channel_bytes()
            assert pickled > 0 and unpickled > 0
            assert shm == 2 * 8 * 8  # two key arrays of 8 float64

    def test_drain_without_profiling_still_meters_shm(self, rng):
        with StickyWorkerBackend(
            max_workers=1, profile_serialization=False
        ) as backend:
            backend.bind(1, BAND, BAND.transposed)
            idx = np.arange(4, dtype=np.int64)
            history = rng.uniform(0, 50, 4)
            backend.count_batch(arrivals([idx], history), arrivals([idx], history))
            pickled, unpickled, shm = backend.drain_channel_bytes()
            assert pickled is None and unpickled is None
            assert shm == 2 * 8 * 4


def _drift_source():
    """The fixed-seed drifting-Zipf stream shared by the equivalence runs."""
    return DriftingZipfSource(
        num_batches=8, tuples_per_batch=250, num_values=80,
        z_initial=0.1, z_final=1.3, shift_at_batch=3, seed=11,
    )


def _drift_engine(backend, window="unbounded"):
    """A fixed-seed adaptive engine over the given backend."""
    policy = DriftAdaptiveEWHPolicy(
        DriftDetector(threshold=1.3, warmup_batches=1, cooldown_batches=2)
    )
    return StreamingJoinEngine(
        4, BAND, UNIT,
        policy=policy,
        backend=backend,
        sample_capacity=256,
        seed=4,
        window=window,
    )


def _drift_run(backend, window="unbounded"):
    """One fixed-seed drifting-Zipf run on the given backend."""
    return _drift_engine(backend, window).run(_drift_source())


@pytest.mark.multiprocess
class TestStickyBackendEquivalence:
    """The sticky backend's worker-resident fold must be bit-identical.

    A fixed-seed drifting stream run on both backends; under sticky the
    join state lives in the worker processes and the engine only
    ever ships deltas, so these tests pin the whole state-ownership
    protocol (count/evict/install) against the in-process engine.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        simulated = _drift_run(SimulatedBackend())
        with StickyWorkerBackend(max_workers=2) as backend:
            sticky = _drift_run(backend)
        return simulated, sticky

    def test_backend_name_and_repartitioning(self, runs):
        simulated, sticky = runs
        assert (simulated.backend, sticky.backend) == ("simulated", "sticky")
        assert simulated.num_repartitions >= 1
        assert simulated.total_migrated > 0
        assert sticky.num_repartitions == simulated.num_repartitions

    def test_total_output_identical_and_correct(self, runs):
        simulated, sticky = runs
        assert simulated.output_correct and sticky.output_correct
        assert simulated.total_output == sticky.total_output

    def test_per_region_output_counts_identical(self, runs):
        simulated, sticky = runs
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            if sim_batch.per_machine_output_delta is None:
                assert sticky_batch.per_machine_output_delta is None
                continue
            np.testing.assert_array_equal(
                sim_batch.per_machine_output_delta,
                sticky_batch.per_machine_output_delta,
            )
            assert sim_batch.output_delta == sticky_batch.output_delta

    def test_cost_model_loads_identical(self, runs):
        simulated, sticky = runs
        np.testing.assert_allclose(
            simulated.cumulative_load, sticky.cumulative_load
        )
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            np.testing.assert_allclose(
                sim_batch.per_machine_load, sticky_batch.per_machine_load
            )
            assert sim_batch.live_imbalance == pytest.approx(
                sticky_batch.live_imbalance
            )

    def test_migration_plans_identical(self, runs):
        simulated, sticky = runs
        assert [
            b.batch_index for b in simulated.batches if b.repartitioned
        ] == [b.batch_index for b in sticky.batches if b.repartitioned]
        sim_plans = [
            b.migration_plan for b in simulated.batches if b.repartitioned
        ]
        sticky_plans = [
            b.migration_plan for b in sticky.batches if b.repartitioned
        ]
        for sim_plan, sticky_plan in zip(sim_plans, sticky_plans):
            assert sim_plan.mode == sticky_plan.mode == "partial"
            np.testing.assert_array_equal(
                sim_plan.region_to_machine, sticky_plan.region_to_machine
            )
            np.testing.assert_array_equal(
                sim_plan.per_machine_arrivals, sticky_plan.per_machine_arrivals
            )
            np.testing.assert_array_equal(
                sim_plan.per_machine_departures,
                sticky_plan.per_machine_departures,
            )

    def test_resident_accounting_matches_the_in_process_engine(self, runs):
        simulated, sticky = runs
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            assert sim_batch.resident_tuples == sticky_batch.resident_tuples

    def test_deltas_travel_over_shared_memory_not_pickle(self, runs):
        _, sticky = runs
        assert sticky.total_bytes_shm is not None
        assert sticky.total_bytes_shm > 0
        counting = [b for b in sticky.batches if b.new_tuples > 0]
        assert counting
        assert all(b.bytes_shm is not None and b.bytes_shm > 0 for b in counting)
        # The pickle channel carries only control messages: far smaller
        # than the array payload it replaces (the hard >=10x steady-state
        # bound against the pickling-pool baseline lives in
        # benchmarks/test_streaming_scaling.py).
        assert sticky.total_bytes_pickled < sticky.total_bytes_shm

    def test_every_machine_is_timed_on_its_own_and_counts_as_simulated(self, runs):
        """Per batch, one measured entry per machine and the simulated counts.

        A sticky worker counts each of its machines in kernel calls of its
        own, one per half, so ``per_machine_join_seconds`` stays a real
        per-machine clock (what fitting the cost model to measured seconds
        reads): every machine that counted output spent measured time, and
        the counts are the in-process backend's, which measures none.
        """
        simulated, sticky = runs
        timed = 0
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            delta = sticky_batch.per_machine_output_delta
            if delta is None:
                continue
            np.testing.assert_array_equal(delta, sim_batch.per_machine_output_delta)
            assert sim_batch.per_machine_join_seconds is None
            seconds = sticky_batch.per_machine_join_seconds
            assert seconds is not None and seconds.shape == delta.shape
            assert (seconds >= 0).all() and (seconds[delta > 0] > 0).all()
            timed += int((delta > 0).sum())
        assert timed > 0

    def test_sticky_records_real_worker_timings(self, runs):
        _, sticky = runs
        assert sticky.join_seconds > 0
        busy_batches = [
            batch for batch in sticky.batches if batch.output_delta > 0
        ]
        assert busy_batches
        assert all(
            batch.per_machine_join_seconds is not None
            and batch.per_machine_join_seconds.max() > 0
            for batch in busy_batches
        )


@pytest.mark.multiprocess
class TestStickyWindowedEquivalence:
    """Windowed runs drive evictions through the ownership protocol.

    A bounded window makes the engine evict expired state and trim its
    logs every batch, so the worker-resident copies must shrink in
    lockstep with the in-process mirror -- any divergence either trips the
    engine's drop-count cross-check or shows up here as a load or output
    mismatch.
    """

    @pytest.fixture(scope="class")
    def runs(self):
        simulated = _drift_run(SimulatedBackend(), window="batches:3")
        with StickyWorkerBackend(max_workers=2) as backend:
            sticky = _drift_run(backend, window="batches:3")
        return simulated, sticky

    def test_the_window_actually_evicts_and_compacts(self, runs):
        simulated, _ = runs
        assert simulated.total_evicted > 0
        assert simulated.total_history_trimmed > 0

    def test_outputs_and_loads_identical(self, runs):
        simulated, sticky = runs
        assert simulated.total_output == sticky.total_output
        np.testing.assert_allclose(
            simulated.cumulative_load, sticky.cumulative_load
        )
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            np.testing.assert_array_equal(
                sim_batch.per_machine_output_delta,
                sticky_batch.per_machine_output_delta,
            )

    def test_eviction_and_memory_accounting_identical(self, runs):
        simulated, sticky = runs
        assert simulated.total_evicted == sticky.total_evicted
        assert simulated.total_history_trimmed == sticky.total_history_trimmed
        for sim_batch, sticky_batch in zip(simulated.batches, sticky.batches):
            assert sim_batch.tuples_evicted == sticky_batch.tuples_evicted
            assert sim_batch.resident_tuples == sticky_batch.resident_tuples
            assert (
                sim_batch.history_tuples_trimmed
                == sticky_batch.history_tuples_trimmed
            )


@pytest.mark.multiprocess
@pytest.mark.threads
class TestThreadedPipelineOverProcessBackends:
    """Real threads feeding the process-backed engine must not deadlock.

    Under the platform-default fork start method a worker forked while the
    pipeline's producer thread holds an internal lock can inherit that lock
    mid-acquire and hang forever; the pinned forkserver/spawn context makes
    the combination safe.  The run also re-pins losslessness: block-mode
    pipelining never changes what is computed.
    """

    def test_thread_pipeline_over_sticky_backend(self):
        sync = _drift_run(SimulatedBackend())
        with StickyWorkerBackend(max_workers=2) as backend:
            piped = StreamingPipeline(
                _drift_source(),
                _drift_engine(backend),
                queue_batches=2,
                backpressure="block",
                mode="thread",
            ).run()
        assert piped.total_output == sync.total_output
        assert piped.total_tuples_shed == 0
        np.testing.assert_allclose(piped.cumulative_load, sync.cumulative_load)
