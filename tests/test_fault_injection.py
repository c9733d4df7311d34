"""Fault injection: worker crashes must surface fast, clearly and recoverably.

Three layers are pinned here:

* the **decorators** (:class:`~streaming_harness.CrashingBackend`,
  :class:`~streaming_harness.FlakyBackend`) inject deterministic
  :class:`~repro.streaming.backends.WorkerCrashError` faults at chosen work
  calls while staying otherwise transparent -- same outputs, same protocol;
* the **real backend** must detect an actually-dead worker process
  *promptly* -- a killed sticky worker turns into ``WorkerCrashError``
  instead of a hang on a dead pipe, and the error names the crashed worker
  and the recovery path.  A checkpoint reads state back from the workers,
  so it is one of the fault points;
* the **driver** (:func:`~repro.streaming.checkpoint.run_resilient`)
  survives all of it: restart-from-scratch before the first checkpoint,
  restore-from-checkpoint after, onto a fresh backend and optionally a
  smaller surviving fleet, with the final result bit-identical to a run
  that never crashed.

The sticky-worker wall-clock scaling check rides along (the zero-copy
backend's reason to exist): with enough cores, more workers must not be
slower than one worker on a join-heavy stream.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    StickyWorkerBackend,
    StreamingJoinEngine,
    WorkerCrashError,
    run_resilient,
)
from repro.partitioning.routing import RoutedSide
from streaming_harness import (
    CrashingBackend,
    assert_equivalent_runs,
    assert_same_checkpoint_state,
)

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)
MACHINES = 4


def make_source(seed=3, num_batches=12, tuples=150):
    """A drifting stream that triggers at least one repartitioning."""
    return DriftingZipfSource(
        num_batches=num_batches, tuples_per_batch=tuples, num_values=300,
        z_initial=0.1, z_final=1.1, shift_at_batch=num_batches // 2, seed=seed,
    )


def make_engine(
    backend=None, window=None, seed=5, machines=MACHINES,
    engine_cls=StreamingJoinEngine,
):
    """A fresh adaptive engine over the given backend."""
    return engine_cls(
        machines, BAND, UNIT,
        policy=DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=3)
        ),
        backend=backend, window=window, sample_capacity=512, seed=seed,
    )


class TestCrashingBackend:
    def test_passthrough_until_the_crash_point(self, crashing_backend):
        """Before the fault the wrapper is invisible: runs are identical."""
        source = make_source()
        reference = make_engine().run(source)
        wrapped = crashing_backend(crash_at_call=None)
        result = make_engine(backend=wrapped).run(source)
        assert_equivalent_runs(result, reference)
        assert result.backend == "crashing(simulated)"
        assert wrapped.calls > 0 and not wrapped.crashed

    def test_crashes_at_the_configured_call_and_stays_dead(
        self, crashing_backend
    ):
        """The nth work call raises; so does every call after it."""
        backend = crashing_backend(crash_at_call=3)
        engine = make_engine(backend=backend)
        engine.start()
        with pytest.raises(WorkerCrashError, match="injected crash"):
            for batch in make_source().batches():
                engine.process_batch(batch)
        assert backend.crashed
        with pytest.raises(WorkerCrashError, match="already dead"):
            backend.evict_state(np.zeros(1, dtype=np.int64), np.zeros(0))
        engine.close()

    def test_crash_during_migration_only(self, crashing_backend):
        """crash_on=("install",) fires exactly at the first state migration."""
        source = make_source()
        reference = make_engine().run(source)
        first_migration = next(
            batch.batch_index for batch in reference.batches
            if batch.repartitioned
        )
        backend = crashing_backend(crash_on=("install",), crash_at_call=1)
        engine = make_engine(backend=backend)
        engine.start()
        processed = 0
        with pytest.raises(WorkerCrashError, match="'install'"):
            for batch in source.batches():
                engine.process_batch(batch)
                processed += 1
        # Every count before it went through; the fleet died mid-migration.
        assert backend.crashed and backend.calls == 1
        assert processed == first_migration
        engine.close()

    @pytest.mark.parametrize(
        "crash_on, crash_at_call, window",
        [
            (("count",), 4, None),
            (("install",), 1, None),
            (("count",), 4, "batches:3"),
            (("evict",), 2, "batches:3"),
            (("install",), 1, "batches:3"),
        ],
    )
    def test_every_protocol_call_is_a_recoverable_fault_point(
        self, crashing_backend, crash_on, crash_at_call, window
    ):
        """The fault matrix over the in-process backend: whichever protocol
        call the fleet dies in, run_resilient recovers bit-identically.
        (Each cell's call number lands after the first checkpoint.)"""
        source = make_source()
        reference = make_engine(window=window).run(source)
        backend = crashing_backend(
            crash_on=crash_on, crash_at_call=crash_at_call
        )
        result = run_resilient(
            lambda: make_engine(backend=backend, window=window),
            source,
            checkpoint_every=2,
        )
        assert backend.crashed
        assert result.restores == 1
        assert_equivalent_runs(result, reference)

    def test_rejects_bad_configuration(self, crashing_backend):
        """Bad crash points and unknown operations are refused loudly."""
        with pytest.raises(ValueError, match="positive"):
            crashing_backend(crash_at_call=0)
        with pytest.raises(ValueError, match="unknown crash_on"):
            crashing_backend(crash_on=("reboot",))


class TestFlakyBackend:
    def test_fails_then_recovers(self, flaky_backend):
        """The first ``failures`` work calls raise; later calls succeed."""
        backend = flaky_backend(failures=2)
        backend.bind(1, BAND, BAND.transposed)
        new1, new2 = RoutedSide.of([np.array([1.0, 2.0])]), RoutedSide.of([np.array([1.5, 9.0])])
        for _ in range(2):
            with pytest.raises(WorkerCrashError, match="transient"):
                backend.count_batch(new1, new2)
        result = backend.count_batch(new1, new2)
        assert result.per_machine_output.sum() == 2
        assert backend.failures_remaining == 0

    def test_zero_failures_is_a_pure_passthrough(self, flaky_backend):
        """failures=0 never faults."""
        source = make_source()
        reference = make_engine().run(source)
        result = make_engine(backend=flaky_backend(failures=0)).run(source)
        assert_equivalent_runs(result, reference)


class TestRunResilient:
    def test_recovers_from_mid_stream_crash(self, crashing_backend):
        """Kill at a mid-stream work call; the recovered run is identical."""
        source = make_source()
        reference = make_engine().run(source)
        backend = crashing_backend(crash_at_call=8)
        result = run_resilient(
            lambda: make_engine(backend=backend), source, checkpoint_every=3
        )
        assert result.restores == 1
        assert_equivalent_runs(result, reference)

    def test_restarts_from_scratch_before_first_checkpoint(
        self, flaky_backend
    ):
        """A transient fault with no checkpoint yet restarts cleanly."""
        source = make_source()
        reference = make_engine().run(source)
        backend = flaky_backend(failures=1)
        result = run_resilient(
            lambda: make_engine(backend=backend), source, checkpoint_every=0
        )
        assert result.restores == 0  # restarted, not restored
        assert_equivalent_runs(result, reference)

    def test_exhausted_crash_budget_reraises(self, crashing_backend):
        """Beyond max_restarts the WorkerCrashError propagates."""
        source = make_source()
        backend = crashing_backend(crash_at_call=1)
        with pytest.raises(WorkerCrashError):
            run_resilient(
                lambda: make_engine(backend=backend), source, max_restarts=0
            )

    def test_recovery_onto_surviving_fleet(self, crashing_backend):
        """machines=<survivors> resumes the run on a smaller cluster."""
        source = make_source()
        backend = crashing_backend(crash_at_call=8)
        result = run_resilient(
            lambda: make_engine(backend=backend),
            source,
            checkpoint_every=3,
            machines=MACHINES - 1,
        )
        assert result.restores == 1
        assert result.num_machines == MACHINES - 1
        assert result.total_output == make_engine().run(source).total_output

    def test_windowed_recovery(self, crashing_backend):
        """Crash recovery under a sliding window is bit-identical too."""
        source = make_source()
        reference = make_engine(window="batches:4").run(source)
        backend = crashing_backend(crash_at_call=9)
        result = run_resilient(
            lambda: make_engine(backend=backend, window="batches:4"),
            source,
            checkpoint_every=3,
        )
        assert result.restores == 1
        assert_equivalent_runs(result, reference)


@pytest.mark.multiprocess
class TestRealWorkerCrashes:
    def test_killed_sticky_worker_raises_promptly_not_hangs(self):
        """A dead sticky worker must surface as WorkerCrashError in bounded
        time -- never a hang on the dead pipe."""
        source = make_source()
        backend = StickyWorkerBackend(max_workers=2)
        try:
            engine = make_engine(backend=backend)
            engine.start()
            batches = source.batches()
            for _ in range(4):
                engine.process_batch(next(batches))
            backend._processes[0].kill()
            backend._processes[0].join(timeout=5)
            started = time.perf_counter()
            with pytest.raises(WorkerCrashError, match="sticky worker 0"):
                engine.process_batch(next(batches))
            assert time.perf_counter() - started < 10.0
            engine.close()
        finally:
            backend.close()

    def test_sticky_crash_recovery_end_to_end(self):
        """Kill a real worker mid-stream; run_resilient restores onto a
        fresh sticky fleet and matches the uninterrupted run."""
        source = make_source()
        reference = make_engine().run(source)
        backend = CrashingBackend(
            StickyWorkerBackend(max_workers=2), crash_at_call=8
        )
        try:
            result = run_resilient(
                lambda: make_engine(backend=backend),
                source,
                checkpoint_every=3,
                backend_factory=lambda: StickyWorkerBackend(max_workers=2),
            )
        finally:
            backend.close()
        assert result.restores == 1
        assert_equivalent_runs(result, reference)

    def test_worker_killed_between_batches_fails_the_next_batch_promptly(self):
        """A checkpoint reads nothing from the workers -- what they hold is
        derived from the arrival logs -- so it still succeeds after a worker
        died; the next batch's count is the fault point, and surfaces the
        death as WorkerCrashError in bounded time."""
        source = make_source()
        backend = StickyWorkerBackend(max_workers=2)
        try:
            engine = make_engine(backend=backend)
            engine.start()
            batches = source.batches()
            for _ in range(4):
                engine.process_batch(next(batches))
            healthy = engine.checkpoint()
            backend._processes[1].kill()
            backend._processes[1].join(timeout=5)
            dead = engine.checkpoint()
            assert_same_checkpoint_state(dead, healthy)
            started = time.perf_counter()
            with pytest.raises(WorkerCrashError, match="sticky worker 1"):
                engine.process_batch(next(batches))
            assert time.perf_counter() - started < 10.0
            engine.close()
        finally:
            backend.close()

    def test_run_resilient_recovers_from_a_crash_during_checkpoint(self):
        """A worker dies as the second checkpoint is taken; the checkpoint
        reads nothing back, so the next batch's count hits the dead worker,
        the driver restores the second checkpoint onto a fresh fleet and
        the finished run is bit-identical to one that never crashed."""
        source = make_source()
        reference = make_engine().run(source)
        doomed = StickyWorkerBackend(max_workers=2)

        class KillingEngine(StreamingJoinEngine):
            def checkpoint(self):
                taken = self._state.result.checkpoints_taken
                if self.backend is doomed and taken == 1:
                    doomed._processes[0].kill()
                    doomed._processes[0].join(timeout=5)
                return super().checkpoint()

        try:
            result = run_resilient(
                lambda: make_engine(backend=doomed, engine_cls=KillingEngine),
                source,
                checkpoint_every=3,
                backend_factory=lambda: StickyWorkerBackend(max_workers=2),
            )
        finally:
            doomed.close()
        assert result.restores == 1
        assert_equivalent_runs(result, reference)


@pytest.mark.slow
@pytest.mark.multiprocess
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="wall-clock scaling needs at least 4 cores",
)
def test_sticky_workers_scale_wall_clock():
    """More sticky workers must speed up a join-heavy stream (PR 7 follow-on).

    One worker versus four on an identical hot-key stream: with >= 4 cores
    the four-worker fleet's summed join wall clock must come in under the
    single worker's.  The threshold is deliberately modest (1.3x, not 4x):
    CI machines are noisy and the engine's routing work is serial, so this
    pins "parallelism is real", not a linear-speedup claim.
    """
    source = DriftingZipfSource(
        num_batches=6, tuples_per_batch=4000, num_values=120,
        z_initial=1.2, z_final=1.2, seed=13,
    )

    def joined_seconds(workers: int) -> float:
        backend = StickyWorkerBackend(max_workers=workers)
        try:
            result = make_engine(backend=backend, machines=8, seed=13).run(
                source
            )
        finally:
            backend.close()
        return sum(batch.join_seconds for batch in result.batches)

    # Warm both pools once so process start-up cost cancels out.
    single = joined_seconds(1)
    quad = joined_seconds(4)
    assert quad < single / 1.3, (
        f"4 sticky workers took {quad:.3f}s of join wall clock vs "
        f"{single:.3f}s on 1 worker -- expected at least a 1.3x speedup"
    )
