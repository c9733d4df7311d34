"""Tests for the backpressured producer/consumer pipeline.

The simulated-clock tests pin the queue dynamics *exactly* -- depths,
stalls, idle time and shed decisions are deterministic arithmetic, so every
assertion is an equality.  The hypothesis suites pin the two semantic
contracts: a ``block`` pipeline is behaviourally bit-identical to the
synchronous engine (across windows and queue/timing parameters), and
``shed`` can only lose output relative to a lossless run.  Real-thread
runs are covered by smoke tests marked ``threads`` (deselected on the fast
CI matrix, run by the full job).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming import (
    ArrayStreamSource,
    BlockPolicy,
    CoalescePolicy,
    DriftingZipfSource,
    MicroBatch,
    RateLimitedSource,
    ShedPolicy,
    SimulatedBackend,
    StaticEWHPolicy,
    StreamingJoinEngine,
    StreamingPipeline,
    make_backpressure,
    merge_batches,
)
from streaming_harness import SleepingBackend, assert_equivalent_runs

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)


def drift_source(num_batches=10, tuples_per_batch=150, seed=7):
    """A small drifting-Zipf stream shared by the equivalence tests."""
    return DriftingZipfSource(
        num_batches=num_batches,
        tuples_per_batch=tuples_per_batch,
        num_values=60,
        z_initial=0.2,
        z_final=1.1,
        shift_at_batch=num_batches // 2,
        seed=seed,
    )


def make_engine(window=None, backend=None):
    """A fresh 4-machine engine (engines consume exactly one stream)."""
    return StreamingJoinEngine(
        4, BAND, UNIT,
        policy=StaticEWHPolicy(),
        backend=backend,
        window=window,
        sample_capacity=256,
        seed=3,
    )


def tiny_source(num_batches=5, per_batch=20):
    """A uniform float stream cut into equal batches of known size."""
    keys = np.linspace(0.0, 100.0, num_batches * per_batch)
    return ArrayStreamSource(keys, keys, num_batches)


def simulated(source, engine, *, backpressure, queue, service, rate=None):
    """Run a simulated-clock pipeline with the given knobs."""
    if rate is not None:
        source = RateLimitedSource(source, rate)
    return StreamingPipeline(
        source,
        engine,
        queue_batches=queue,
        backpressure=backpressure,
        mode="simulated",
        service_model=service,
    ).run()


# ----------------------------------------------------------------------
# Building blocks
# ----------------------------------------------------------------------
class TestMergeBatches:
    def test_merges_in_order_with_last_index(self):
        batches = [
            MicroBatch(3, np.array([1.0, 2.0]), np.array([5.0])),
            MicroBatch(4, np.array([3.0]), np.array([6.0, 7.0])),
        ]
        merged = merge_batches(batches)
        assert merged.index == 4
        assert merged.keys1.tolist() == [1.0, 2.0, 3.0]
        assert merged.keys2.tolist() == [5.0, 6.0, 7.0]
        assert merged.num_tuples == 6

    def test_preserves_integer_dtype(self):
        big = 2**53
        batches = [
            MicroBatch(0, np.array([big + 1], dtype=np.int64), np.empty(0, dtype=np.int64)),
            MicroBatch(1, np.array([big + 3], dtype=np.int64), np.empty(0, dtype=np.int64)),
        ]
        merged = merge_batches(batches)
        assert merged.keys1.dtype == np.int64
        assert merged.keys1.tolist() == [big + 1, big + 3]

    def test_single_batch_passes_through(self):
        batch = MicroBatch(0, np.array([1.0]), np.array([2.0]))
        assert merge_batches([batch]) is batch

    def test_zero_batches_rejected(self):
        with pytest.raises(ValueError):
            merge_batches([])


class TestMakeBackpressure:
    def test_names_resolve(self):
        assert isinstance(make_backpressure("block"), BlockPolicy)
        assert isinstance(make_backpressure("shed"), ShedPolicy)
        assert isinstance(make_backpressure("coalesce"), CoalescePolicy)

    def test_policy_passes_through(self):
        policy = ShedPolicy()
        assert make_backpressure(policy) is policy

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backpressure"):
            make_backpressure("drop-oldest")

    def test_flags(self):
        assert BlockPolicy.lossless and BlockPolicy.blocks_producer
        assert not BlockPolicy.introduces_gaps
        assert not ShedPolicy.lossless and ShedPolicy.introduces_gaps
        assert CoalescePolicy.lossless and CoalescePolicy.introduces_gaps

    def test_block_on_full_is_unreachable_by_contract(self):
        # block never consults on_full (the producer waits instead); a
        # call signals a pipeline bug, not a policy decision.
        from collections import deque

        queue = deque([MicroBatch(0, np.array([1.0]), np.array([1.0]))])
        with pytest.raises(RuntimeError, match="never consulted"):
            BlockPolicy().on_full(queue, queue[0])
        assert len(queue) == 1

    def test_coalesce_never_exceeds_the_queue_bound(self):
        # The merge absorbs the incoming batch too, so even a single-slot
        # queue holds: the queue must never report a depth above its bound.
        sync = make_engine().run(tiny_source())
        result = simulated(
            tiny_source(), make_engine(),
            backpressure="coalesce", queue=1, service=1.0,
        )
        assert result.peak_queue_depth <= 1
        assert result.total_tuples == sync.total_tuples
        assert result.total_output == sync.total_output
        assert result.output_correct


class TestPipelineValidation:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StreamingPipeline(tiny_source(), make_engine(), mode="fibers")

    def test_zero_queue(self):
        with pytest.raises(ValueError, match="queue_batches"):
            StreamingPipeline(tiny_source(), make_engine(), queue_batches=0)

    def test_simulated_requires_service_model(self):
        with pytest.raises(ValueError, match="service_model"):
            StreamingPipeline(tiny_source(), make_engine(), mode="simulated")

    def test_thread_refuses_service_model(self):
        with pytest.raises(ValueError, match="service_model"):
            StreamingPipeline(
                tiny_source(), make_engine(), mode="thread", service_model=1.0
            )


# ----------------------------------------------------------------------
# Simulated-clock queue dynamics: exact, hand-computed expectations
# ----------------------------------------------------------------------
class TestSimulatedQueueDynamics:
    """Instant producer (no rate limit), service 1.0s, queue of 2.

    With five batches b0..b4 offered at t=0 the exact evolution is: b0 pops
    immediately; b1, b2 queue; every later arrival finds the queue full.
    """

    def test_block_stalls_the_producer_exactly(self):
        result = simulated(
            tiny_source(), make_engine(),
            backpressure="block", queue=2, service=1.0,
        )
        assert result.backpressure == "block"
        assert result.queue_batches == 2
        assert result.num_batches == 5
        assert [b.queue_depth for b in result.batches] == [1, 2, 2, 2, 1]
        # b3 waits for the pop at t=1, b4 for the pop at t=2: one simulated
        # second each, attributed to the next consumed batch.
        assert [b.producer_stall_seconds for b in result.batches] == [
            0.0, 0.0, 1.0, 1.0, 0.0,
        ]
        assert result.producer_stall_seconds == 2.0
        assert result.total_tuples_shed == 0
        assert result.consumer_idle_seconds == 0.0
        assert result.peak_queue_depth == 2

    def test_shed_drops_whole_batches_and_records_them(self):
        result = simulated(
            tiny_source(), make_engine(),
            backpressure="shed", queue=2, service=1.0,
        )
        # b3 and b4 arrive at a full queue and are dropped whole.
        assert [b.batch_index for b in result.batches] == [0, 1, 2]
        assert result.total_batches_shed == 2
        assert result.total_tuples_shed == 2 * 40
        assert result.total_tuples == 3 * 40
        assert result.producer_stall_seconds == 0.0
        # The sheds happened before b1's pop at t=1 and are attributed there.
        assert result.batches[1].batches_shed == 2
        # The engine verified the consumed history exactly.
        assert result.output_correct

    def test_coalesce_merges_the_queue_and_loses_nothing(self):
        source = tiny_source()
        sync = make_engine().run(tiny_source())
        result = simulated(
            source, make_engine(),
            backpressure="coalesce", queue=2, service=1.0,
        )
        # b3's arrival merges [b1, b2]; b4's arrival merges [b12, b3]: the
        # consumer pops b0, then the b1-b3 super-batch (index 3), then b4.
        assert [b.batch_index for b in result.batches] == [0, 3, 4]
        assert result.total_tuples == sync.total_tuples
        assert result.total_tuples_shed == 0
        assert result.producer_stall_seconds == 0.0
        # Unbounded window: the total output over the full history does not
        # depend on how the history was batched.
        assert result.total_output == sync.total_output
        assert result.output_correct

    def test_unbounded_queue_buffers_everything(self):
        result = simulated(
            tiny_source(), make_engine(),
            backpressure="block", queue=None, service=1.0,
        )
        assert result.queue_batches is None
        assert result.num_batches == 5
        assert result.producer_stall_seconds == 0.0
        # b0 pops at t=0; b1..b4 are all queued by then: depth 4 at b1's pop.
        assert [b.queue_depth for b in result.batches] == [1, 4, 3, 2, 1]
        assert result.peak_queue_depth == 4

    def test_fast_consumer_accrues_idle_time(self):
        result = simulated(
            tiny_source(3), make_engine(),
            backpressure="block", queue=2, service=0.5, rate=1.0,
        )
        # Arrivals at t=1,2,3; each pop takes 0.5s: the consumer waits 1.0s
        # for b0, then 0.5s before each later batch.
        assert [b.queue_depth for b in result.batches] == [1, 1, 1]
        assert [b.consumer_idle_seconds for b in result.batches] == [
            1.0, 0.5, 0.5,
        ]
        assert result.consumer_idle_seconds == 2.0
        assert result.producer_stall_seconds == 0.0

    def test_allow_gaps_passes_through_for_renumbered_sources(self):
        # A source whose own numbering skips values (the engine supports
        # this via run(..., allow_gaps=True)) must be usable through a
        # block pipeline too -- the pipeline forwards the flag.
        from repro.streaming import StreamSource

        class Strided(StreamSource):
            def __init__(self, inner):
                self.inner = inner

            @property
            def num_batches(self):
                return self.inner.num_batches

            def batches(self):
                for batch in self.inner.batches():
                    yield MicroBatch(
                        index=3 * batch.index,
                        keys1=batch.keys1,
                        keys2=batch.keys2,
                    )

        def pipeline(**kwargs):
            return StreamingPipeline(
                Strided(tiny_source()), make_engine(),
                queue_batches=2, backpressure="block",
                mode="simulated", service_model=1.0, **kwargs,
            )

        with pytest.raises(ValueError, match="allow_gaps"):
            pipeline().run()
        sync = make_engine().run(Strided(tiny_source()), allow_gaps=True)
        piped = pipeline(allow_gaps=True).run()
        assert_equivalent_runs(piped, sync)

    def test_service_model_may_be_a_callable(self):
        seen = []

        def service(batch):
            seen.append(batch.index)
            return 1.0

        simulated(
            tiny_source(3), make_engine(),
            backpressure="block", queue=2, service=service,
        )
        assert seen == [0, 1, 2]


# ----------------------------------------------------------------------
# Semantic contracts (hypothesis)
# ----------------------------------------------------------------------
class TestPipelineContracts:
    @settings(max_examples=20, deadline=None)
    @given(
        window=st.sampled_from([None, "batches:2", "tuples:120", "decay:0.8"]),
        queue=st.integers(min_value=1, max_value=5),
        service=st.floats(min_value=0.1, max_value=5.0),
        rate=st.one_of(st.none(), st.floats(min_value=0.25, max_value=2.0)),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_block_pipeline_is_bit_identical_to_synchronous(
        self, window, queue, service, rate, seed
    ):
        """Lossless backpressure must not change behaviour, only timing.

        Whatever the queue bound, consumer speed or arrival rate, a
        ``block`` pipeline feeds the engine the exact source sequence, so
        outputs, loads, evictions and migration plans are bit-identical to
        the synchronous run -- across window policies too.
        """
        source = drift_source(num_batches=6, tuples_per_batch=60, seed=seed)
        sync = make_engine(window).run(
            drift_source(num_batches=6, tuples_per_batch=60, seed=seed)
        )
        piped = simulated(
            source, make_engine(window),
            backpressure="block", queue=queue, service=service, rate=rate,
        )
        assert_equivalent_runs(piped, sync)
        assert piped.total_tuples_shed == 0

    @settings(max_examples=20, deadline=None)
    @given(
        queue=st.integers(min_value=1, max_value=3),
        service=st.floats(min_value=1.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=4),
    )
    def test_shed_never_exceeds_the_lossless_output(
        self, queue, service, seed
    ):
        """Dropping batches can only lose output, never invent it."""
        lossless = simulated(
            drift_source(num_batches=6, tuples_per_batch=60, seed=seed),
            make_engine(),
            backpressure="block", queue=queue, service=service, rate=1.0,
        )
        shed = simulated(
            drift_source(num_batches=6, tuples_per_batch=60, seed=seed),
            make_engine(),
            backpressure="shed", queue=queue, service=service, rate=1.0,
        )
        assert shed.total_output <= lossless.total_output
        assert shed.total_tuples + shed.total_tuples_shed == (
            lossless.total_tuples
        )
        # The consumed batches are a subsequence of the source's.
        consumed = [b.batch_index for b in shed.batches]
        assert consumed == sorted(set(consumed))
        assert set(consumed) <= set(range(6))

    def test_coalesce_conserves_tuples_under_pressure(self):
        lossless = make_engine().run(drift_source())
        coalesced = simulated(
            drift_source(), make_engine(),
            backpressure="coalesce", queue=3, service=4.0, rate=1.0,
        )
        assert coalesced.num_batches < lossless.num_batches
        assert coalesced.total_tuples == lossless.total_tuples
        assert coalesced.total_output == lossless.total_output
        assert coalesced.peak_queue_depth <= 3


@pytest.mark.multiprocess
class TestMultiprocessPipeline:
    def test_block_pipeline_matches_synchronous_across_backends(self):
        """The pipeline contract is backend-independent.

        A block-mode pipelined run on the sticky (real-process) backend
        must be behaviourally bit-identical to the synchronous
        simulated-backend run: the queue changes when work happens, never
        what is computed.
        """
        sync = make_engine().run(drift_source(num_batches=6))
        from repro.streaming import StickyWorkerBackend

        with StickyWorkerBackend(max_workers=2) as backend:
            piped = simulated(
                drift_source(num_batches=6), make_engine(backend=backend),
                backpressure="block", queue=2, service=2.0, rate=1.0,
            )
        assert_equivalent_runs(piped, sync)


# ----------------------------------------------------------------------
# Real threads (smoke; deselected on the fast CI matrix)
# ----------------------------------------------------------------------
@pytest.mark.threads
class TestThreadedPipeline:
    def test_block_run_matches_synchronous_with_real_threads(self):
        """Losslessness does not depend on timing: real threads, same bits."""
        sync = make_engine().run(drift_source(num_batches=6))
        piped = StreamingPipeline(
            drift_source(num_batches=6),
            make_engine(),
            queue_batches=2,
            backpressure="block",
            mode="thread",
        ).run()
        assert_equivalent_runs(piped, sync)
        assert piped.backpressure == "block"
        assert all(1 <= b.queue_depth <= 2 for b in piped.batches)
        assert piped.total_tuples_shed == 0

    def test_slow_consumer_sheds_for_real(self):
        """A genuinely slow consumer behind a tiny queue must shed load.

        The consumer is slowed with a real sleep (50ms per execution) while
        the producer offers a batch every 2ms: with a single queue slot
        most of the stream must be dropped, and the engine still verifies
        the batches it did receive.
        """
        backend = SleepingBackend(SimulatedBackend(), seconds=0.05)
        piped = StreamingPipeline(
            RateLimitedSource(drift_source(num_batches=10), 0.002),
            make_engine(backend=backend),
            queue_batches=1,
            backpressure="shed",
            mode="thread",
        ).run()
        backend.close()
        assert piped.total_batches_shed >= 5
        assert piped.num_batches + piped.total_batches_shed == 10
        assert piped.output_correct
        assert piped.peak_queue_depth <= 1
