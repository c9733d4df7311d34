"""Checkpoint/restore of a running streaming join, and crash-resilient driving.

A streaming join is long-lived state: the flat key histories, window
liveness, the current plan and where its regions live, the histogram's
decayed sample reservoirs, the drift detector's EWMA and the engine's own
random generator.  :class:`StreamCheckpoint` captures *all* of it --
everything :meth:`~repro.streaming.engine.StreamingJoinEngine.process_batch`
reads or writes -- so a run can be stopped at any batch boundary and resumed
bit-identically: the restored run produces the same outputs, per-machine
loads, migration plans and resident counts as the run that never stopped
(``tests/test_checkpoint.py`` pins this with hypothesis across window
policies, backends and crash points).  The format and the two functions
that know its field list -- :func:`capture` and :func:`resume`, which the
engine's ``checkpoint()`` / ``resume_from()`` delegate to -- live together
in this module.

On-disk format
--------------
``to_bytes`` serializes a versioned, integrity-checked container::

    magic  b"RPSC"            4 bytes
    version  uint32 LE        4 bytes   (refused on load unless current)
    payload length  uint64 LE 8 bytes
    sha256(payload)          32 bytes   (refused on load if it mismatches)
    payload                   pickle protocol 4 of the checkpoint fields

The payload pins pickle protocol 4, so serializing the same state twice in
one process yields byte-identical files -- ``save`` output is deterministic
and safe to golden.  ``from_bytes`` refuses other versions, corrupt
payloads and payloads whose keys are not exactly the checkpoint's fields
with a clear ``ValueError`` instead of unpickling garbage.

No machine state is stored, and no backend state is read.  Every tuple a
machine holds reached it through the current plan, so a machine's state is
the live log routed by that plan and placed by ``region_to_machine``: a
checkpoint is the two arrival logs, the plan and the region map, copied --
:func:`capture` routes nothing and sorts nothing -- and a restore is a
migration from nothing, the logs routed by the captured plan
(:func:`~repro.streaming.migration.route_live`) and handed to
``install_state``.  That reproduces every machine's key multiset on any
backend, so a checkpoint taken on one backend restores onto any other, and
a dead worker cannot fail a checkpoint.  Every stored arrival index is
global (:mod:`repro.streaming.arrivals`); ``base1`` / ``base2`` say which
index the retained keys start at.  The plan is routing only -- a
:class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`'s key
boundaries and regions, or 1-Bucket's grid shape and draw key -- so no
histogram build artefact (sample matrix, coarsening, regionalization) is
pickled: the sample state a rebuild reads is the histogram's two
reservoirs, pickled as the live entries of their heap arrays
(priorities, counters, payloads: the keys), with no spare room, so two
saves of one state are the same bytes.  Version 1 (verbatim key-sorted
state columns and a counting mode), version 2 (three engine options that
no longer exist), version 3 (indices shifted by the trimmed history, no
bases), version 4 (per-machine arrival indices, ``state_index*``),
version 5 (the sample reservoirs as lists of heap tuples) and version 6
(their sampled keys as an array of their own, ``_keys``) are refused by
name.

Driving a crash-survivable run
------------------------------
:func:`run_resilient` wraps the engine's stepwise API into a loop that
checkpoints every ``checkpoint_every`` batches and, when a backend worker
dies mid-stream (:class:`~repro.streaming.backends.WorkerCrashError`),
restores onto a fresh backend from the last checkpoint and replays the
source -- the engine skips the already-processed prefix, so the final
result is identical to an uninterrupted run::

    result = run_resilient(
        lambda: StreamingJoinEngine(8, condition, weights, backend=backend()),
        source,
        checkpoint_every=6,
        backend_factory=lambda: SimulatedBackend(),
    )

The source must be re-iterable (every
:class:`~repro.streaming.source.StreamSource` is); a one-shot iterable can
be driven through the stepwise API directly with externally stored batches.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import struct
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from repro.partitioning.routing import RoutedSide
from repro.streaming.arrivals import ArrivalLog
from repro.streaming.backends import WorkerCrashError
from repro.streaming.metrics import StreamRunResult
from repro.streaming.migration import route_live

__all__ = [
    "CHECKPOINT_VERSION",
    "RunState",
    "StreamCheckpoint",
    "capture",
    "resume",
    "run_resilient",
]

#: Magic prefix of the serialized container ("RePro Stream Checkpoint").
_MAGIC = b"RPSC"

#: Format version written by this build; :meth:`StreamCheckpoint.from_bytes`
#: refuses anything else (version 1 predates index-only state, version 2
#: carried three since-removed engine options, version 3 stored indices
#: shifted down by the trimmed history, version 4 stored every machine's
#: arrival indices, version 5 stored the sample reservoirs as heap tuples,
#: version 6 their sampled keys as ``_keys``, not heap payloads).
CHECKPOINT_VERSION = 7

#: Pickle protocol pinned for deterministic bytes (same state, same process,
#: same serialization).
_PICKLE_PROTOCOL = 4

_HEADER = struct.Struct("<4sIQ32s")


class RunState:
    """Mutable loop state of one engine run, hoisted off the stack.

    Everything
    :meth:`~repro.streaming.engine.StreamingJoinEngine.process_batch` reads
    or writes between batches lives here or in the backend (the engine
    object itself holds only configuration), and the backend's state is a
    function of it (the live logs routed by ``partitioning`` and
    ``region_to_machine``), so a checkpoint is a copy of this object's
    fields and the engine's collaborators, and a restore rebuilds exactly
    this.  ``log1`` / ``log2`` are the per-side
    :class:`~repro.streaming.arrivals.ArrivalLog` (keys, live set, batch
    starts); ``resident_tuples`` is derived and never captured -- the
    running count of state entries the backend holds, which a restore
    recounts from what it installs.
    """

    __slots__ = (
        "rng",
        "log1",
        "log2",
        "resident_tuples",
        "partitioning",
        "region_to_machine",
        "layouts",
        "last_batch_index",
        "position",
        "cumulative",
        "result",
        "pending_resize",
    )


@dataclass(eq=False)
class StreamCheckpoint:
    """The complete resumable state of a streaming join at a batch boundary.

    Captured by :func:`capture` and consumed by :func:`resume` (the
    engine's ``checkpoint()`` / ``resume_from()``); the
    fields split into the engine's *configuration* (scalars plus the live
    condition/weight/policy/window/histogram objects, pickled wholesale so
    the restored engine is constructed exactly like the original) and the
    run's *mutable state* (histories, liveness, region map, generator
    state, accumulated result).  No machine's state is held: it is the
    live logs routed by ``partitioning`` and placed by
    ``region_to_machine``, which a restore routes again.

    Attributes
    ----------
    num_machines, migration_cost_factor, seed:
        The engine constructor arguments at checkpoint time
        (``num_machines`` reflects any resize already adopted).
    condition, weight_fn, policy, window, histogram, partitioning:
        The engine's live collaborator objects, deep-copied at capture so
        later batches cannot mutate the checkpoint retroactively.  The
        policy carries its drift detector's EWMA and last trigger, the
        histogram (an :class:`~repro.streaming.incremental.IncrementalHistogram`)
        its decayed reservoirs and the last build's predicted imbalance --
        no built histogram.  ``partitioning`` is the plan's routing alone
        (a :class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`
        under the EWH policies), ``None`` before the initial build.
    rng_state:
        The engine generator's ``bit_generator.state`` dict -- restoring it
        replays routing, reservoir sampling and decay-window survival draws
        exactly.
    history1, history2, base1, base2, starts1, starts2, live1, live2:
        Each side's arrival log: the retained keys, the global arrival
        index of the first of them, the batch-start list and the live
        arrival-index set.
    region_to_machine:
        Where each region's state lives after any partial-repartitioning
        remap.
    last_batch_index, position:
        The last consumed source index (resume skips everything at or
        below it when the source is replayed) and the engine's own
        processed-batch counter.
    cumulative:
        Per-machine cost-model load accumulated so far.
    result:
        The partially filled :class:`~repro.streaming.metrics.StreamRunResult`
        (all batches processed so far), so the resumed run's final result
        covers the whole stream.
    pending_resize:
        Charges of a :meth:`~repro.streaming.engine.StreamingJoinEngine.resize`
        not yet folded into a batch, or ``None``.
    version:
        Format version (:data:`CHECKPOINT_VERSION`).
    """

    num_machines: int
    migration_cost_factor: float
    seed: int
    condition: Any
    weight_fn: Any
    policy: Any
    window: Any
    histogram: Any
    partitioning: Any
    rng_state: dict[str, Any]
    history1: np.ndarray
    history2: np.ndarray
    base1: int
    base2: int
    starts1: list[int]
    starts2: list[int]
    live1: np.ndarray
    live2: np.ndarray
    region_to_machine: np.ndarray
    last_batch_index: "int | None"
    position: int
    cumulative: np.ndarray
    result: StreamRunResult
    pending_resize: "dict[str, Any] | None" = None
    version: int = CHECKPOINT_VERSION

    def to_bytes(self) -> bytes:
        """Serialize to the versioned, digest-protected container format.

        Deterministic within a process: pickling the same captured state
        twice yields identical bytes (the protocol is pinned and dict
        insertion order is stable), which
        ``tests/test_checkpoint.py::test_checkpoint_roundtrip`` asserts.
        """
        payload = pickle.dumps(self._payload(), protocol=_PICKLE_PROTOCOL)
        header = _HEADER.pack(
            _MAGIC, self.version, len(payload), hashlib.sha256(payload).digest()
        )
        return header + payload

    def _payload(self) -> dict[str, Any]:
        """The field dict shipped in the pickled payload (version travels in the header)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "version"
        }

    @classmethod
    def from_bytes(cls, raw: bytes) -> "StreamCheckpoint":
        """Parse the container format; refuse other versions and corruption."""
        if len(raw) < _HEADER.size:
            raise ValueError(
                f"truncated stream checkpoint: {len(raw)} bytes is shorter "
                f"than the {_HEADER.size}-byte header"
            )
        magic, version, length, digest = _HEADER.unpack_from(raw)
        if magic != _MAGIC:
            raise ValueError(
                f"not a stream checkpoint (bad magic {magic!r}, "
                f"expected {_MAGIC!r})"
            )
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported stream checkpoint version {version}; this "
                f"build reads version {CHECKPOINT_VERSION} only (version 1 "
                "stored key-sorted state columns and a counting mode, "
                "version 2 three engine options, that no longer exist; "
                "version 3 stored arrival indices shifted by the trimmed "
                "history; version 4 stored per-machine arrival indices, "
                "state_index*; version 5 stored the sample reservoirs as "
                "heap tuples; version 6 stored their sampled keys as _keys, "
                "not heap payloads -- re-take the checkpoint)"
            )
        payload = raw[_HEADER.size :]
        if len(payload) != length:
            raise ValueError(
                f"truncated stream checkpoint: header promises {length} "
                f"payload bytes, got {len(payload)}"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError(
                "corrupt stream checkpoint: payload digest mismatch"
            )
        captured = pickle.loads(payload)
        expected = {f.name for f in fields(cls)} - {"version"}
        if not isinstance(captured, dict) or set(captured) != expected:
            found = set(captured) if isinstance(captured, dict) else set()
            raise ValueError(
                "malformed stream checkpoint: the payload's keys are not "
                f"the checkpoint's fields (missing {sorted(expected - found)}, "
                f"unexpected {sorted(found - expected, key=repr)})"
            )
        return cls(version=version, **captured)

    def save(self, path: "str | Path") -> int:
        """Atomically write the serialized checkpoint; return bytes written.

        Write-temp, flush + fsync, rename: a failure at any point leaves
        whatever ``path`` held before loadable and no temporary behind.
        """
        data = self.to_bytes()
        path = Path(path)
        temporary = path.with_name(path.name + ".tmp")
        try:
            with open(temporary, "wb") as stream:
                stream.write(data)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(temporary, path)
        except BaseException:
            temporary.unlink(missing_ok=True)
            raise
        return len(data)

    @classmethod
    def load(cls, path: "str | Path") -> "StreamCheckpoint":
        """Read a checkpoint written by :meth:`save` (validating the format)."""
        return cls.from_bytes(Path(path).read_bytes())


def capture(engine: Any) -> StreamCheckpoint:
    """Capture a running engine's complete resumable state.

    The body of
    :meth:`~repro.streaming.engine.StreamingJoinEngine.checkpoint`: the one
    place that lists what a checkpoint holds.  No machine's state is
    captured: it is the live logs routed by the current plan, so nothing is
    routed, sorted or drawn here, and the backend is never asked, so a
    checkpoint cannot fail on a dead worker.  Everything is copied, so the
    engine may keep running after.
    """
    if engine.phase != "running":
        raise RuntimeError(
            "checkpoint() requires a running engine (between start()/"
            "process_batch() and finish())"
        )
    s = engine._state
    with engine.tracer.span(
        "checkpoint", category="run", position=s.position
    ) as span:
        s.result.checkpoints_taken += 1
        checkpoint = StreamCheckpoint(
            num_machines=engine.num_machines,
            migration_cost_factor=engine.migration_cost_factor,
            seed=engine.seed,
            condition=engine.condition,
            weight_fn=engine.weight_fn,
            policy=copy.deepcopy(engine.policy),
            window=copy.deepcopy(engine.window),
            histogram=copy.deepcopy(engine.histogram),
            partitioning=copy.deepcopy(s.partitioning),
            rng_state=copy.deepcopy(s.rng.bit_generator.state),
            history1=np.array(s.log1.keys),
            history2=np.array(s.log2.keys),
            base1=s.log1.base,
            base2=s.log2.base,
            starts1=list(s.log1.starts),
            starts2=list(s.log2.starts),
            live1=np.array(s.log1.live),
            live2=np.array(s.log2.live),
            region_to_machine=np.array(s.region_to_machine),
            last_batch_index=s.last_batch_index,
            position=s.position,
            cumulative=np.array(s.cumulative),
            result=copy.deepcopy(s.result),
            pending_resize=copy.deepcopy(s.pending_resize),
        )
        span.set(batches=len(s.result.batches), resident=s.resident_tuples)
    if engine.metrics is not None:
        engine.metrics.counter("stream.checkpoints").inc()
    return checkpoint


def _restored_state(s: RunState, machines: int) -> tuple:
    """Both sides' live logs routed by the captured plan: what a restore installs.

    One sort per side (:func:`~repro.streaming.migration.route_live`): of
    the live keys alone under a key-range plan, of the ``(arrival index,
    key)`` pairs under one that routes by index.  Sets the run state's
    layouts on the way; before the initial build there is no plan, and
    nothing is held.
    """
    if s.partitioning is None:
        s.layouts = None
        empty = np.zeros(machines, dtype=np.int64)
        return tuple(
            RoutedSide(log.keys[:0], empty, empty, None) for log in (s.log1, s.log2)
        )
    s.layouts, routed = route_live(
        s.partitioning, s.log1, s.log2, s.rng, s.region_to_machine, machines
    )
    return routed


def resume(
    engine_cls: Any,
    checkpoint: StreamCheckpoint,
    backend: Any = None,
    machines: "int | None" = None,
    tracer: Any = None,
    metrics: Any = None,
) -> Any:
    """Build a running ``engine_cls`` engine from a checkpoint.

    The body of
    :meth:`~repro.streaming.engine.StreamingJoinEngine.resume_from` (see
    there for the arguments): construct the engine from the captured
    configuration, adopt the captured sample state (the engine's
    ``histogram`` becomes the checkpoint's) and run state, and rebuild the
    join state on ``backend`` through ``bind`` / ``install_state`` -- a
    migration from nothing: the live logs routed by the captured plan and
    placed by its ``region_to_machine``, which reproduces every machine's
    key multiset as it stood when the checkpoint was taken.  The resident
    count is that of the state installed.  The checkpoint is deep-copied
    first, so one checkpoint can seed any number of resumed runs.
    """
    checkpoint = copy.deepcopy(checkpoint)
    engine = engine_cls(
        checkpoint.num_machines,
        checkpoint.condition,
        checkpoint.weight_fn,
        policy=checkpoint.policy,
        backend=backend,
        window=checkpoint.window,
        migration_cost_factor=checkpoint.migration_cost_factor,
        seed=checkpoint.seed,
        tracer=tracer,
        metrics=metrics,
    )
    engine.histogram = checkpoint.histogram
    engine._consumed = True
    s = RunState()
    s.rng = np.random.default_rng(engine.seed)
    s.rng.bit_generator.state = checkpoint.rng_state
    windowed = not engine.window.is_unbounded
    s.log1 = ArrivalLog(
        windowed, checkpoint.history1, checkpoint.base1, checkpoint.live1, checkpoint.starts1
    )
    s.log2 = ArrivalLog(
        windowed, checkpoint.history2, checkpoint.base2, checkpoint.live2, checkpoint.starts2
    )
    s.partitioning = checkpoint.partitioning
    s.region_to_machine = checkpoint.region_to_machine
    s.last_batch_index = checkpoint.last_batch_index
    s.position = checkpoint.position
    s.cumulative = checkpoint.cumulative
    s.result = checkpoint.result
    s.pending_resize = checkpoint.pending_resize
    s.result.restores += 1
    s.result.backend = engine.backend.name
    engine._state = s
    engine._phase = "running"
    # Replayed source batches at or below this index were already consumed
    # before the checkpoint; process_batch skips them.
    engine._skip_through = checkpoint.last_batch_index
    engine._open_run_span()
    with engine.tracer.span(
        "restore", category="run", position=s.position
    ) as span:
        engine.backend.bind(
            engine.num_machines, engine.condition, engine._transposed
        )
        routed = _restored_state(s, engine.num_machines)
        engine.backend.install_state(*routed)
        s.resident_tuples = int(sum(side.sizes.sum() for side in routed))
        span.set(batches=len(s.result.batches), resident=s.resident_tuples)
    if engine.metrics is not None:
        engine.metrics.counter("stream.restores").inc()
    if machines is not None and machines != engine.num_machines:
        engine.resize(machines)
    return engine


def run_resilient(
    engine_factory: "Callable[[], Any]",
    source: "Iterable[Any]",
    *,
    checkpoint_every: int = 8,
    max_restarts: int = 3,
    backend_factory: "Callable[[], Any] | None" = None,
    machines: "int | None" = None,
    verify: bool = True,
    allow_gaps: bool = False,
) -> StreamRunResult:
    """Run a streaming join to completion, surviving backend worker crashes.

    Drives ``engine_factory()``'s engine through the stepwise API
    (``start`` / ``process_batch`` / ``finish``), capturing a
    :class:`StreamCheckpoint` every ``checkpoint_every`` processed batches.
    When a :class:`~repro.streaming.backends.WorkerCrashError` surfaces the
    crashed engine is closed (which reaps an engine-owned backend; an
    *injected* backend stays the caller's to close, so a transient
    fault-injection backend (the test harness's ``FlakyBackend``) shared
    across restarts survives), the run is restored from the last checkpoint onto a fresh
    backend (``backend_factory()`` when given, else the restored engine's
    default simulated backend) and the source is replayed -- the engine
    skips every batch at or below the checkpoint's position, so nothing is
    double-counted.  A crash before the first checkpoint restarts from
    scratch via ``engine_factory()``.

    Parameters
    ----------
    engine_factory:
        Zero-argument callable building a fresh, unconsumed engine (with a
        fresh backend if it uses a process-backed one).
    source:
        The stream; must be re-iterable for replay after a crash.
    checkpoint_every:
        Checkpoint cadence in processed batches; ``0`` disables periodic
        checkpoints (a crash then always restarts from scratch).
    max_restarts:
        Crash budget; the ``WorkerCrashError`` is re-raised once exceeded.
    backend_factory:
        Builds the backend each *restore* runs on.  ``None`` resumes onto
        the engine default (in-process simulated).
    machines:
        Optional fleet size to resize onto at restore time -- crash
        recovery onto a surviving (smaller) fleet is
        ``machines=<survivors>``.
    verify, allow_gaps:
        Forwarded to ``finish`` / ``process_batch`` (same semantics as
        :meth:`~repro.streaming.engine.StreamingJoinEngine.run`).

    Returns the completed :class:`~repro.streaming.metrics.StreamRunResult`;
    its ``restores`` field counts how many recoveries happened.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    if max_restarts < 0:
        raise ValueError("max_restarts must be non-negative")
    engine = engine_factory()
    restarts = 0
    last_checkpoint: "StreamCheckpoint | None" = None
    # Backends built by backend_factory are this function's resources: the
    # resumed engine treats an injected backend as the caller's, and here
    # the caller is this loop.  close() is idempotent.
    factory_backends: "list[Any]" = []
    try:
        while True:
            try:
                if engine.phase == "new":
                    engine.start()
                processed = 0
                batches = (
                    source.batches()
                    if hasattr(source, "batches")
                    else iter(source)
                )
                for batch in batches:
                    if engine.process_batch(batch, allow_gaps=allow_gaps) is None:
                        continue  # replayed prefix, already restored
                    processed += 1
                    if checkpoint_every and processed % checkpoint_every == 0:
                        last_checkpoint = engine.checkpoint()
                return engine.finish(verify=verify)
            except WorkerCrashError:
                # Engine-owned backends are reaped here; an injected backend
                # stays the caller's to close (a transient FlakyBackend
                # shared across restarts must survive the crash, and a dead
                # sticky fleet is the caller's resource either way).
                engine.close()
                restarts += 1
                if restarts > max_restarts:
                    raise
                if last_checkpoint is None:
                    # No checkpoint yet: restart from scratch.  The factory
                    # must hand back a fresh usable backend (the crashed
                    # engine's owned backend is closed above).
                    engine = engine_factory()
                else:
                    backend = (
                        backend_factory()
                        if backend_factory is not None
                        else None
                    )
                    if backend is not None:
                        factory_backends.append(backend)
                    engine = type(engine).resume_from(
                        last_checkpoint,
                        backend=backend,
                        machines=machines,
                    )
    finally:
        for backend in factory_backends:
            backend.close()
