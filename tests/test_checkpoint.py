"""Checkpoint/restore and mid-stream elasticity of the streaming engine.

The headline property is **kill-and-restore == uninterrupted run**: stop an
engine at any batch boundary, reconstruct it from the checkpoint (same or
different backend), replay the stream, and every behavioural metric --
outputs, per-machine loads, migration plans, resident counts -- is
bit-identical to the run that never stopped.  Hypothesis sweeps the crash
point, window policy and random seed; a multiprocess-marked variant pins the
same property across the real process-backed backends.

The serialized format gets its own roundtrip property: ``save`` is
deterministic (same state, same bytes), ``load`` reconstructs a checkpoint
that resumes identically, and corrupt or unknown-version containers are
refused with a clear error instead of unpickling garbage.

``resize()`` is pinned against its own definition: resizing a running
engine mid-stream is bit-identical to checkpointing at the same boundary
and resuming onto the target fleet (``resume_from(cp, machines=J')``), for
growth and shrinkage alike.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import struct
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import EquiWeightHistogram
from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.obs.metrics import MetricsRegistry
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.streaming import (
    CHECKPOINT_VERSION,
    DecayedReservoir,
    DriftAdaptiveEWHPolicy,
    DriftDetector,
    DriftingZipfSource,
    MicroBatch,
    StaticEWHPolicy,
    StaticOneBucketPolicy,
    StreamCheckpoint,
    StreamingJoinEngine,
    make_backend,
    run_resilient,
)
from streaming_harness import assert_equivalent_runs, assert_same_checkpoint_state

UNIT = WeightFunction(1.0, 1.0)
BAND = BandJoinCondition(beta=1.0)
MACHINES = 4
NUM_BATCHES = 10

WINDOWS = [None, "batches:4", "tuples:800", "decay:0.85"]


def make_source(seed: int, num_batches: int = NUM_BATCHES) -> DriftingZipfSource:
    """A short drifting stream with integer-valued (exact) keys."""
    return DriftingZipfSource(
        num_batches=num_batches, tuples_per_batch=120, num_values=60,
        z_initial=0.2, z_final=1.2, shift_at_batch=4, seed=seed,
    )


def make_engine(window=None, backend=None, seed=0, machines=MACHINES,
                metrics=None):
    """A fresh adaptive engine with an eagerly re-triggering drift detector."""
    return StreamingJoinEngine(
        machines, BAND, UNIT,
        policy=DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
        ),
        backend=backend, window=window,
        sample_capacity=256, seed=seed, metrics=metrics,
    )


def run_with_checkpoint(source, stop_after, window=None, seed=0):
    """Run to completion, capturing a checkpoint after batch ``stop_after``."""
    engine = make_engine(window=window, seed=seed)
    engine.start()
    checkpoint = None
    for batch in source.batches():
        engine.process_batch(batch)
        if batch.index == stop_after:
            checkpoint = engine.checkpoint()
    return engine.finish(), checkpoint


def resume_and_finish(checkpoint, source, backend=None, machines=None):
    """Resume from a checkpoint, replay the whole source, finish."""
    engine = StreamingJoinEngine.resume_from(
        checkpoint, backend=backend, machines=machines
    )
    for batch in source.batches():
        engine.process_batch(batch)
    return engine.finish()


# ---------------------------------------------------------------------------
# Kill-and-restore == uninterrupted (the headline property)
# ---------------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    stop_after=st.integers(0, NUM_BATCHES - 2),
    window=st.sampled_from(WINDOWS),
)
def test_restore_is_bit_identical_to_uninterrupted(seed, stop_after, window):
    """Resuming at any boundary reproduces the uninterrupted run exactly."""
    source = make_source(seed)
    uninterrupted, checkpoint = run_with_checkpoint(
        source, stop_after, window=window, seed=seed
    )
    resumed = resume_and_finish(checkpoint, source)
    assert_equivalent_runs(resumed, uninterrupted)
    assert resumed.restores == 1
    assert uninterrupted.checkpoints_taken == 1


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    stop_after=st.integers(1, NUM_BATCHES - 2),
    window=st.sampled_from(WINDOWS),
)
def test_one_checkpoint_seeds_many_resumes(seed, stop_after, window):
    """A checkpoint is immutable: two resumes from it agree with each other."""
    source = make_source(seed)
    _, checkpoint = run_with_checkpoint(
        source, stop_after, window=window, seed=seed
    )
    first = resume_and_finish(checkpoint, source)
    second = resume_and_finish(checkpoint, source)
    assert_equivalent_runs(second, first)


@pytest.mark.multiprocess
@pytest.mark.parametrize("backend_name", ["sticky"])
@pytest.mark.parametrize("window", [None, "batches:4"])
def test_restore_bit_identical_across_real_backends(backend_name, window):
    """Kill-and-restore holds on the real process-backed backend too."""

    def build_backend():
        return make_backend(backend_name, max_workers=2)

    source = make_source(seed=7)
    backend = build_backend()
    try:
        engine = make_engine(window=window, backend=backend, seed=7)
        engine.start()
        checkpoint = None
        for batch in source.batches():
            engine.process_batch(batch)
            if batch.index == 4:
                checkpoint = engine.checkpoint()
        uninterrupted = engine.finish()
    finally:
        backend.close()
    # Under the window history was trimmed first: both restores start at base > 0.
    assert (checkpoint.base1 > 0) == (checkpoint.base2 > 0) == (window is not None)
    replacement = build_backend()
    try:
        resumed = resume_and_finish(checkpoint, source, backend=replacement)
    finally:
        replacement.close()
    assert_equivalent_runs(resumed, uninterrupted)
    # And the simulated backend continues the same checkpoint identically.
    simulated = resume_and_finish(checkpoint, source)
    assert_equivalent_runs(simulated, uninterrupted)


@pytest.mark.multiprocess
@pytest.mark.parametrize("window", [None, "batches:4"])
def test_sticky_and_simulated_checkpoints_hold_the_same_state(window):
    """Taken from the workers or in-process, a checkpoint at the same
    boundary holds the same logs, plan and region map, and restores to the
    same keys on every machine (the run-so-far it also carries names its
    backend, so the bytes differ)."""
    source = make_source(seed=7)
    _, expected = run_with_checkpoint(source, stop_after=5, window=window, seed=7)
    with make_backend("sticky", max_workers=2) as backend:
        engine = make_engine(window=window, backend=backend, seed=7)
        engine.start()
        for batch in source.batches():
            engine.process_batch(batch)
            if batch.index == 5:
                checkpoint = engine.checkpoint()
                break
        engine.close()
    assert checkpoint.num_machines == MACHINES
    assert assert_same_checkpoint_state(checkpoint, expected) > 0


#: Functions that route or sort a side's state: a checkpoint calls none.
ROUTING = frozenset({"cut_sorted", "cut_spans", "sort_arrivals", "sorted_live"})


def _routing_calls(function) -> "tuple[object, int]":
    """``function()`` and how many routing or sorting calls it made.

    Counted by code name, so every override of ``cut_sorted`` /
    ``cut_spans`` and every module's binding of ``sort_arrivals`` counts,
    and ``sorted_live``, which sorts a key-range plan's live keys alone.
    """
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name in ROUTING:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        value = function()
    finally:
        sys.setprofile(previous)
    return value, calls


@pytest.mark.parametrize(
    "policy, window",
    [("adaptive", None), ("adaptive", "batches:4"), ("one_bucket", "decay:0.85")],
)
def test_a_checkpoint_routes_nothing(policy, window):
    """A checkpoint is a copy of the logs, the plan and the region map:
    ``capture`` cuts, slices and sorts nothing, and leaves the engine's
    generator where it was (a restore routes, once)."""
    source = make_source(seed=5)
    engine = (
        make_engine(window=window, seed=5) if policy == "adaptive"
        else StreamingJoinEngine(
            MACHINES, BAND, UNIT, policy=StaticOneBucketPolicy(MACHINES), window=window,
            seed=5,
        )
    )
    engine.start()
    for batch in list(source.batches())[:6]:
        engine.process_batch(batch)
    before = engine._state.rng.bit_generator.state
    checkpoint, calls = _routing_calls(engine.checkpoint)
    print(f"{policy}/{window}: {calls} routing calls in a checkpoint")
    assert calls == 0
    assert engine._state.rng.bit_generator.state == before
    assert checkpoint.partitioning is not None
    resumed, calls = _routing_calls(lambda: StreamingJoinEngine.resume_from(checkpoint))
    assert calls > 0  # the proxy counts: a restore routes the live logs
    resumed.close()
    engine.close()


def _edge_batches(seed, silent_side, silent, distinct) -> "list[MicroBatch]":
    """Integer keys from ``range(distinct)``; one side empty for ``silent`` batches."""
    rng = np.random.default_rng(seed)
    batches = []
    for index in range(NUM_BATCHES):
        sides = [rng.integers(0, distinct, 60).astype(np.float64) for _ in range(2)]
        if index < silent:
            sides[silent_side - 1] = np.empty(0, dtype=np.float64)
        batches.append(MicroBatch(index, *sides))
    return batches


def _edge_run(batches, beta, checkpoint_after=None):
    """A drift-adaptive run over ``batches``; the checkpoint after one, if asked."""
    engine = StreamingJoinEngine(
        8, BandJoinCondition(beta=beta), UNIT,
        policy=DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.2, warmup_batches=1, cooldown_batches=2)
        ),
        sample_capacity=64, seed=3,
    )
    engine.start()
    checkpoint = None
    for batch in batches:
        engine.process_batch(batch)
        if batch.index == checkpoint_after:
            checkpoint = engine.checkpoint()
    return engine.finish(), checkpoint


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    silent_side=st.sampled_from([1, 2]),
    silent=st.integers(0, NUM_BATCHES // 2),
    distinct=st.integers(1, 12),
    beta=st.sampled_from(["zero", "span", "unit"]),
    stop_after=st.integers(0, NUM_BATCHES - 2),
)
def test_edge_streams_join_exactly_and_restore_identically(
    seed, silent_side, silent, distinct, beta, stop_after
):
    """One side silent for up to half the stream, beta = 0 and beta at
    least the key span, fewer distinct keys than machines (8): the
    unbounded run's output is exact, and a restore at any boundary -- one
    before the initial build too, which restores an empty fleet -- is the
    uninterrupted run, batch for batch."""
    width = {"zero": 0.0, "span": float(distinct), "unit": 1.0}[beta]
    batches = _edge_batches(seed, silent_side, silent, distinct)
    uninterrupted, checkpoint = _edge_run(batches, width, checkpoint_after=stop_after)
    assert uninterrupted.output_correct is True
    restored = StreamingJoinEngine.resume_from(StreamCheckpoint.from_bytes(checkpoint.to_bytes()))
    if stop_after < silent:
        assert checkpoint.partitioning is None
        owner = restored.backend._owner
        assert not any(
            len(owner.view(side, machine))
            for side in (0, 1)
            for machine in range(restored.num_machines)
        )
    for batch in batches:
        restored.process_batch(batch)
    resumed = restored.finish()
    assert resumed.output_correct is True
    assert_equivalent_runs(resumed, uninterrupted)


# ---------------------------------------------------------------------------
# Serialized container: deterministic save, exact load, refused corruption
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    stop_after=st.integers(0, NUM_BATCHES - 2),
    window=st.sampled_from(WINDOWS),
)
def test_checkpoint_roundtrip(seed, stop_after, window):
    """save/load roundtrips exactly and serialization is deterministic."""
    source = make_source(seed)
    uninterrupted, checkpoint = run_with_checkpoint(
        source, stop_after, window=window, seed=seed
    )
    payload = checkpoint.to_bytes()
    assert payload == checkpoint.to_bytes(), "two saves must be byte-identical"
    loaded = StreamCheckpoint.from_bytes(payload)
    assert loaded.version == CHECKPOINT_VERSION
    assert loaded.num_machines == checkpoint.num_machines
    assert loaded.last_batch_index == checkpoint.last_batch_index
    np.testing.assert_array_equal(loaded.history1, checkpoint.history1)
    np.testing.assert_array_equal(loaded.history2, checkpoint.history2)
    assert loaded.rng_state == checkpoint.rng_state
    assert_same_checkpoint_state(loaded, checkpoint)
    # No machine state is stored: it is the logs routed by the plan.
    assert not hasattr(loaded, "state_index1") and not hasattr(loaded, "state_keys1")
    # The loaded checkpoint resumes bit-identically to the original run.
    resumed = resume_and_finish(loaded, source)
    assert_equivalent_runs(resumed, uninterrupted)


def _reachable(root):
    """Every object reachable from ``root`` through instances and containers
    (not through classes, modules or functions)."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
        stack.extend(getattr(obj, "__dict__", {}).values())
    return found


@pytest.mark.parametrize("stop_after", [2, 6])
def test_a_checkpoint_holds_a_routing_only_plan(stop_after):
    """A stream plan is its routing: in a loaded checkpoint of a
    drift-adaptive run (the initial build's plan, or a rebuild's) the plan
    is a bare grid-routed partitioning, no built histogram -- sample
    matrix, coarsening, regionalization -- is reachable from anything the
    checkpoint holds, and the resumed run, which repartitions away from
    that plan later, is still the uninterrupted one."""
    source = make_source(seed=11)
    uninterrupted, checkpoint = run_with_checkpoint(source, stop_after, seed=11)
    assert any(batch.repartitioned for batch in uninterrupted.batches[stop_after + 1 :])
    loaded = StreamCheckpoint.from_bytes(checkpoint.to_bytes())
    assert type(loaded.partitioning) is GridRoutedPartitioning
    assert not [obj for obj in _reachable(loaded) if isinstance(obj, EquiWeightHistogram)]
    assert_equivalent_runs(resume_and_finish(loaded, source), uninterrupted)


def test_checkpoint_save_and_load_file(tmp_path):
    """save() writes the container to disk; load() reads it back."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    path = tmp_path / "run.ckpt"
    written = checkpoint.save(path)
    assert written == path.stat().st_size > 0
    loaded = StreamCheckpoint.load(path)
    assert loaded.position == checkpoint.position
    assert_same_checkpoint_state(loaded, checkpoint)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """A write that dies midway leaves the old file loadable, no temp behind."""
    source = make_source(seed=3)
    _, older = run_with_checkpoint(source, 2, seed=3)
    _, newer = run_with_checkpoint(source, 6, seed=3)
    path = tmp_path / "run.ckpt"
    older.save(path)

    def full_disk(fd):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError, match="no space"):
        newer.save(path)
    monkeypatch.undo()
    assert StreamCheckpoint.load(path).position == older.position
    assert [entry.name for entry in tmp_path.iterdir()] == ["run.ckpt"]
    newer.save(path)
    assert StreamCheckpoint.load(path).position == newer.position


def test_from_bytes_refuses_garbage():
    """Truncation, bad magic, unknown versions and corruption all raise."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    payload = checkpoint.to_bytes()

    with pytest.raises(ValueError, match="truncated"):
        StreamCheckpoint.from_bytes(payload[:10])
    with pytest.raises(ValueError, match="magic"):
        StreamCheckpoint.from_bytes(b"XXXX" + payload[4:])
    versioned = bytearray(payload)
    versioned[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(ValueError, match="version 99"):
        StreamCheckpoint.from_bytes(bytes(versioned))
    # Versions 1 (key-sorted state columns, a counting mode), 2 (three
    # removed engine options), 3 (arrival indices shifted by the trimmed
    # history), 4 (per-machine arrival indices), 5 (reservoirs as heap
    # tuples) and 6 (their keys as ``_keys``) are refused by name, with the
    # version this build does read.
    assert CHECKPOINT_VERSION == 7
    for stale in (1, 2, 3, 4, 5, 6):
        versioned[4:8] = stale.to_bytes(4, "little")
        with pytest.raises(
            ValueError,
            match=rf"version {stale};.*reads version 7 only"
            r".*version 1.*version 2.*version 3.*version 4.*version 5.*version 6",
        ):
            StreamCheckpoint.from_bytes(bytes(versioned))
    corrupted = bytearray(payload)
    corrupted[-1] ^= 0xFF
    with pytest.raises(ValueError, match="digest mismatch"):
        StreamCheckpoint.from_bytes(bytes(corrupted))
    with pytest.raises(ValueError, match="payload bytes"):
        StreamCheckpoint.from_bytes(payload + b"trailing")


def test_from_bytes_refuses_a_payload_with_the_wrong_keys():
    """A digest-valid container whose keys are not the fields: ValueError."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    raw = checkpoint.to_bytes()
    header = struct.Struct("<4sIQ32s")
    magic, version, _, _ = header.unpack_from(raw)

    def container(captured):
        payload = pickle.dumps(captured, protocol=4)
        digest = hashlib.sha256(payload).digest()
        return header.pack(magic, version, len(payload), digest) + payload

    captured = pickle.loads(raw[header.size :])
    assert StreamCheckpoint.from_bytes(container(captured)).position == checkpoint.position
    del captured["seed"]
    captured["stale_option"] = True
    with pytest.raises(
        ValueError,
        match=r"missing \['seed'\], unexpected \['stale_option'\]",
    ):
        StreamCheckpoint.from_bytes(container(captured))
    with pytest.raises(ValueError, match="malformed stream checkpoint"):
        StreamCheckpoint.from_bytes(container(["not", "a", "dict"]))


def test_a_version_4_checkpoint_is_refused_by_name():
    """A digest-valid version-4 container -- this build's fields plus the
    per-machine arrival indices it stored -- is refused, naming what
    version 4 held, before anything is unpickled."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    raw = checkpoint.to_bytes()
    header = struct.Struct("<4sIQ32s")
    magic, _, _, _ = header.unpack_from(raw)
    captured = pickle.loads(raw[header.size :])
    captured["state_index1"] = captured["state_index2"] = [
        np.arange(3, dtype=np.int64) for _ in range(MACHINES)
    ]
    payload = pickle.dumps(captured, protocol=4)
    stale = header.pack(magic, 4, len(payload), hashlib.sha256(payload).digest()) + payload
    with pytest.raises(
        ValueError,
        match=r"version 4; this build reads version 7 only.*"
        r"version 4 stored per-machine arrival indices, state_index\*",
    ):
        StreamCheckpoint.from_bytes(stale)


def _as_version_5(reservoir: DecayedReservoir) -> DecayedReservoir:
    """The reservoir with the fields version 5 held: the heap a list of
    ``(priority, counter, key)`` tuples."""
    state = reservoir.__getstate__()
    heap = zip(
        state.pop("_priorities").tolist(),
        state.pop("_counters").tolist(),
        state.pop("_payloads").tolist(),
    )
    del state["_size"]
    stale = DecayedReservoir.__new__(DecayedReservoir)
    stale.__dict__.update(state, _heap=list(heap))
    return stale


def test_a_version_5_checkpoint_is_refused_by_name(monkeypatch):
    """A digest-valid version-5 container -- this build's fields with the
    sample reservoirs as heap tuples -- is refused, naming what version 5
    held, before anything is unpickled."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    raw = checkpoint.to_bytes()
    header = struct.Struct("<4sIQ32s")
    magic, _, _, _ = header.unpack_from(raw)
    captured = pickle.loads(raw[header.size :])
    histogram = captured["histogram"]
    assert len(histogram.reservoir1) and len(histogram.reservoir2)
    histogram.reservoir1 = _as_version_5(histogram.reservoir1)
    histogram.reservoir2 = _as_version_5(histogram.reservoir2)
    with monkeypatch.context() as patch:
        # Pickled as version 5 pickled it: the instance dict as it is.
        patch.setattr(DecayedReservoir, "__getstate__", lambda self: self.__dict__)
        payload = pickle.dumps(captured, protocol=4)
    assert b"_heap" in payload and b"_priorities" not in payload
    stale = header.pack(magic, 5, len(payload), hashlib.sha256(payload).digest()) + payload

    def unpickled(*args, **kwargs):
        raise AssertionError("a stale payload was unpickled")

    monkeypatch.setattr(pickle, "loads", unpickled)
    with pytest.raises(
        ValueError,
        match=r"version 5; this build reads version 7 only.*"
        r"version 5 stored the sample reservoirs as heap tuples",
    ):
        StreamCheckpoint.from_bytes(stale)


def test_a_version_6_checkpoint_is_refused_by_name(monkeypatch):
    """A digest-valid version-6 container -- this build's fields with each
    sample reservoir's keys in an array of its own, ``_keys``, where this
    build's heap holds them as payloads -- is refused, naming what version
    6 held, before anything is unpickled."""
    source = make_source(seed=3)
    _, checkpoint = run_with_checkpoint(source, 4, seed=3)
    raw = checkpoint.to_bytes()
    header = struct.Struct("<4sIQ32s")
    magic, _, _, _ = header.unpack_from(raw)
    captured = pickle.loads(raw[header.size :])
    histogram = captured["histogram"]
    assert len(histogram.reservoir1) and len(histogram.reservoir2)
    for reservoir in (histogram.reservoir1, histogram.reservoir2):
        reservoir._keys = reservoir.__dict__.pop("_payloads")
    with monkeypatch.context() as patch:
        # Pickled as version 6 pickled it: the heap arrays cut, ``_keys`` among them.
        patch.setattr(DecayedReservoir, "_HEAP", ("_priorities", "_counters", "_keys"))
        payload = pickle.dumps(captured, protocol=4)
    assert b"_keys" in payload and b"_payloads" not in payload
    stale = header.pack(magic, 6, len(payload), hashlib.sha256(payload).digest()) + payload

    def unpickled(*args, **kwargs):
        raise AssertionError("a stale payload was unpickled")

    monkeypatch.setattr(pickle, "loads", unpickled)
    with pytest.raises(
        ValueError,
        match=r"version 6; this build reads version 7 only.*"
        r"version 6 stored their sampled keys as _keys, not heap payloads",
    ):
        StreamCheckpoint.from_bytes(stale)


# ---------------------------------------------------------------------------
# Mid-stream resize
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    resize_after=st.integers(1, NUM_BATCHES - 2),
    target=st.sampled_from([2, 3, 6, 8]),
    window=st.sampled_from([None, "batches:4"]),
)
def test_resize_matches_resume_onto_target_fleet(
    seed, resize_after, target, window
):
    """In-place resize == checkpoint + resume_from(machines=target)."""
    source = make_source(seed)
    engine = make_engine(window=window, seed=seed)
    engine.start()
    checkpoint = None
    for batch in source.batches():
        engine.process_batch(batch)
        if batch.index == resize_after:
            checkpoint = engine.checkpoint()
            engine.resize(target)
    resized = engine.finish(verify=False)
    resumed = resume_and_finish(checkpoint, source, machines=target)
    assert_equivalent_runs(resumed, resized)
    assert resized.num_machines == target
    assert resized.num_resizes == 1
    marked = [b for b in resized.batches if b.resized_from is not None]
    assert len(marked) == 1 and marked[0].resized_from == MACHINES


def test_resize_preserves_total_output():
    """Growing then shrinking the fleet never changes the join output."""
    source = make_source(seed=11)
    reference = make_engine(seed=11).run(source)
    engine = make_engine(seed=11)
    engine.start()
    for batch in source.batches():
        engine.process_batch(batch)
        if batch.index == 3:
            engine.resize(7)
        if batch.index == 6:
            engine.resize(2)
    elastic = engine.finish(verify=False)
    assert elastic.total_output == reference.total_output
    assert elastic.num_resizes == 2
    assert elastic.num_machines == 2
    assert len(elastic.cumulative_load) == 2


def test_resize_works_for_one_bucket_policy():
    """The statistics-free 1-Bucket policy rebuilds its grid on resize."""
    source = make_source(seed=5)
    engine = StreamingJoinEngine(
        MACHINES, BAND, UNIT, policy=StaticOneBucketPolicy(MACHINES),
        sample_capacity=256, seed=5,
    )
    engine.start()
    for batch in source.batches():
        engine.process_batch(batch)
        if batch.index == 4:
            engine.resize(6)
    result = engine.finish(verify=False)
    reference = StreamingJoinEngine(
        MACHINES, BAND, UNIT, policy=StaticOneBucketPolicy(MACHINES),
        sample_capacity=256, seed=5,
    ).run(source)
    assert result.total_output == reference.total_output
    assert result.num_machines == 6


def test_resize_validation():
    """resize() refuses bad fleets and bad phases."""
    engine = make_engine(seed=1)
    with pytest.raises(RuntimeError, match="running"):
        engine.resize(2)
    engine.start()
    with pytest.raises(ValueError, match="positive"):
        engine.resize(0)
    with pytest.raises(RuntimeError, match="initial partitioning"):
        engine.resize(2)
    source = make_source(seed=1)
    for batch in source.batches():
        engine.process_batch(batch)
    before = engine.num_machines
    engine.resize(before)  # no-op, never raises
    assert engine.num_machines == before
    engine.finish()


def test_back_to_back_resizes_sum_their_parked_charges():
    """A second resize() before the next batch keeps the first one's charges.

    resize(8) then resize(6) with no batch in between used to overwrite the
    parked charges: the next batch paid for the second migration only and
    reported ``resized_from == 8``.  The single-step reference parks one
    resize at a time by slipping an empty micro-batch between the two (it
    routes nothing, counts nothing and draws nothing from the generator, so
    both runs plan identical migrations); the folded batch must then carry
    exactly the two single-step charges -- rebalancing is never free.
    """

    def static_engine():
        engine = StreamingJoinEngine(
            MACHINES, BAND, UNIT, policy=StaticEWHPolicy(),
            sample_capacity=256, seed=3,
        )
        engine.start()
        return engine

    batches = list(make_source(seed=3).batches())[:4]
    empty = np.empty(0, dtype=batches[0].keys1.dtype)

    folded = static_engine()
    for batch in batches[:3]:
        folded.process_batch(batch)
    folded.resize(8)
    folded.resize(6)
    both = folded.process_batch(batches[3])

    stepped = static_engine()
    for batch in batches[:3]:
        stepped.process_batch(batch)
    stepped.resize(8)
    first = stepped.process_batch(MicroBatch(3, empty, empty))
    stepped.resize(6)
    second = stepped.process_batch(
        MicroBatch(4, batches[3].keys1, batches[3].keys2)
    )

    assert first.migrated_tuples > 0 and second.migrated_tuples > 0
    assert first.output_delta == 0 and first.resized_from == MACHINES
    assert second.resized_from == 8
    # The folded batch: both volumes, both rebuilds, the earliest fleet.
    assert both.migrated_tuples == first.migrated_tuples + second.migrated_tuples
    assert both.rebuild_cost == pytest.approx(
        first.rebuild_cost + second.rebuild_cost
    )
    assert both.resized_from == MACHINES
    assert both.output_delta == second.output_delta
    # Loads: the first step's charges ride along on the machines that
    # survive the second resize (8 -> 6 drops the last two).
    np.testing.assert_allclose(
        both.per_machine_load,
        second.per_machine_load + first.per_machine_load[:6],
    )
    np.testing.assert_array_equal(
        both.migration_plan.per_machine_arrivals,
        second.migration_plan.per_machine_arrivals,
    )
    folded.finish(verify=False)
    stepped.finish(verify=False)


# ---------------------------------------------------------------------------
# Lifecycle and counters
# ---------------------------------------------------------------------------
def test_stepwise_equals_run():
    """start/process_batch/finish is run() taken apart, bit for bit."""
    source = make_source(seed=9)
    via_run = make_engine(seed=9).run(source)
    engine = make_engine(seed=9)
    assert engine.phase == "new"
    engine.start()
    assert engine.phase == "running"
    for batch in source.batches():
        engine.process_batch(batch)
    stepwise = engine.finish()
    assert engine.phase == "finished"
    assert_equivalent_runs(stepwise, via_run)
    assert stepwise.output_correct is True


def test_lifecycle_misuse_raises():
    """Each lifecycle method refuses to run outside its phase."""
    source = make_source(seed=2)
    engine = make_engine(seed=2)
    batch = next(iter(source.batches()))
    with pytest.raises(RuntimeError, match="running engine"):
        engine.process_batch(batch)
    with pytest.raises(RuntimeError, match="running engine"):
        engine.finish()
    with pytest.raises(RuntimeError, match="checkpoint"):
        engine.checkpoint()
    engine.start()
    with pytest.raises(RuntimeError, match="already consumed"):
        engine.start()
    engine.process_batch(batch)
    engine.finish()
    with pytest.raises(RuntimeError, match="finish"):
        engine.finish()
    with pytest.raises(RuntimeError, match="already consumed"):
        engine.run(source)


def test_elasticity_counters_and_metrics_registry():
    """stream.checkpoints/restores/resizes land in the metrics registry."""
    source = make_source(seed=4)
    registry = MetricsRegistry()
    engine = make_engine(seed=4, metrics=registry)
    engine.start()
    checkpoint = None
    for batch in source.batches():
        engine.process_batch(batch)
        if batch.index == 3:
            checkpoint = engine.checkpoint()
            engine.resize(5)
    engine.finish(verify=False)
    assert registry.counter("stream.checkpoints").value == 1
    assert registry.counter("stream.resizes").value == 1

    resumed_registry = MetricsRegistry()
    resumed = StreamingJoinEngine.resume_from(
        checkpoint, metrics=resumed_registry
    )
    for batch in source.batches():
        resumed.process_batch(batch)
    resumed.finish()
    assert resumed_registry.counter("stream.restores").value == 1


def test_run_resilient_validation():
    """run_resilient rejects nonsensical cadences and budgets."""
    source = make_source(seed=1)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run_resilient(lambda: make_engine(), source, checkpoint_every=-1)
    with pytest.raises(ValueError, match="max_restarts"):
        run_resilient(lambda: make_engine(), source, max_restarts=-1)
