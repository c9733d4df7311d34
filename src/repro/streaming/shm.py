"""Zero-copy array transport over POSIX shared memory for sticky workers.

Re-pickling every region's full key arrays through a worker pool's pickle
channel on every batch is a serialization tax that, for a persistent
streaming join, dominates the join itself (``BatchMetrics.bytes_pickled``
meters it exactly).  The sticky worker backend keeps each worker's join
state *resident* and ships only the per-batch delta, and this module is the
transport it ships it on:

* :class:`ShmArena` is the engine-side writer.  It owns one resizable
  ``multiprocessing.shared_memory`` segment, reused across messages: each
  :meth:`ShmArena.write` call copies a list of numpy arrays into the segment
  at aligned offsets and returns a tiny :class:`ShmMessage` descriptor
  (segment name, dtypes, shapes, offsets).  Only that descriptor crosses the
  pickle channel -- the array payload never does.  Traffic is one-way:
  nothing is read back from the workers.
* :class:`ShmReader` is the worker-side counterpart.  It attaches to the
  named segment once (attachments are cached until the arena grows and the
  name changes) and materialises each message's arrays as **zero-copy numpy
  views** into the mapped buffer.  A worker that retains data past the
  message -- inserting arrivals into its resident state -- copies implicitly
  through the state's own merge; views themselves never outlive the handler.

Lifecycle rules keep ``/dev/shm`` clean (the tests assert no leaked
segments):

* the arena *owns* its segment: growing unlinks the old segment and
  :meth:`ShmArena.close` unlinks the last one.  An unlinked segment stays
  mapped in any worker still attached (POSIX semantics), so growth never
  races a reader -- the reader simply closes its stale mapping when the next
  message names the new segment;
* readers only ever ``close()`` (unmap), never ``unlink`` -- ownership is
  the writer's.  Attaching deliberately bypasses the resource tracker
  (``track=False`` on Python 3.13+, an explicit unregister before that), so
  a worker exiting does not tear down a segment the engine still owns.

Segment names are fixed-width (``rshm-`` + hex token + sequence number), so
the pickled size of a :class:`ShmMessage` is independent of pid or sequence
-- which keeps serialization-profiling goldens deterministic.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # imported where a segment is made or attached, not here:
    from multiprocessing import shared_memory  # ``import repro`` stays light

__all__ = [
    "SEGMENT_PREFIX",
    "ArraySpec",
    "ShmMessage",
    "ShmArena",
    "ShmReader",
    "attach_segment",
]

#: Every segment this module creates is named ``rshm-...`` -- the test
#: suite's leak fixture recognises (and fails on) leftovers by this prefix.
SEGMENT_PREFIX = "rshm"

#: Array payloads are laid out at 16-byte-aligned offsets (numpy's widest
#: streaming dtypes are 8 bytes; 16 keeps any future complex dtype aligned).
_ALIGNMENT = 16


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership of it.

    ``multiprocessing.shared_memory`` registers *attachments* with the
    resource tracker on Python < 3.13, so a worker process would fight the
    engine over a segment only the engine owns (spurious tracker
    unregisters and shutdown unlinks).  Python 3.13 added ``track=False``
    for exactly this; on older versions registration is suppressed for the
    duration of the attach instead, so the worker never talks to the
    tracker at all -- the engine's create/unlink pair stays the segment's
    only tracker traffic.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ArraySpec:
    """Where one array lives inside a segment: dtype, shape and byte offset."""

    dtype: str
    shape: "tuple[int, ...]"
    offset: int


@dataclass(frozen=True)
class ShmMessage:
    """A batch of arrays described by reference into a shared segment.

    This is the only thing the sticky backend's control channel pickles per
    payload: the segment name plus one :class:`ArraySpec` per array.
    ``payload_bytes`` is the total array payload resident in the segment --
    the quantity reported as ``bytes_shm`` / the ``shm KB`` column.
    """

    segment: str
    specs: "tuple[ArraySpec, ...]"
    payload_bytes: int


def _aligned(nbytes: int) -> int:
    """Round a byte count up to the arena alignment."""
    return (nbytes + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _views(
    segment: shared_memory.SharedMemory, specs: "tuple[ArraySpec, ...]"
) -> "list[np.ndarray]":
    """Each spec's slice of the segment as a writable zero-copy array."""
    return [
        np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=segment.buf,
            offset=spec.offset,
        )
        for spec in specs
    ]


class ShmArena:
    """Engine-side writer owning one resizable shared-memory segment.

    One arena serves one sticky backend: every payload -- per-batch
    arrivals, expired keys, migrated state -- is written through
    :meth:`write`, which reuses the current segment when it is large enough
    and reallocates (unlinking the old one) when it is not.  Capacity only
    grows, so a steady-state stream settles into zero allocations per
    batch.
    """

    def __init__(self) -> None:
        # Fixed-width token + fixed-width sequence keep the name length
        # (and so every ShmMessage's pickled size) constant.
        self._token = secrets.token_hex(6)
        self._sequence = 0
        self._segment: "shared_memory.SharedMemory | None" = None
        self._closed = False

    @property
    def segment_name(self) -> "str | None":
        """Name of the current segment (``None`` before the first write)."""
        return None if self._segment is None else self._segment.name

    @property
    def capacity(self) -> int:
        """Bytes the current segment can hold."""
        return 0 if self._segment is None else self._segment.size

    def _ensure_capacity(self, nbytes: int) -> shared_memory.SharedMemory:
        """Return a segment of at least ``nbytes``, reallocating if needed."""
        if self._segment is not None and self._segment.size >= nbytes:
            return self._segment
        from multiprocessing import shared_memory

        if self._segment is not None:
            self._segment.close()
            self._segment.unlink()
        # Doubling growth amortises reallocation; floor keeps tiny control
        # messages from thrashing the segment on every size change.
        size = max(nbytes, 2 * self.capacity, 4096)
        name = f"{SEGMENT_PREFIX}-{self._token}-{self._sequence:04d}"
        self._sequence += 1
        self._segment = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        return self._segment

    def write(self, arrays: "list[np.ndarray]") -> ShmMessage:
        """Copy ``arrays`` into the segment; return their descriptor.

        Arrays are laid out back to back at aligned offsets.  The returned
        :class:`ShmMessage` is safe to pickle (it carries no buffers) and
        stays valid until the *next* :meth:`write` -- the arena reuses its
        segment, so a reader must consume a message before the writer moves
        on, which the sticky backend's synchronous command protocol
        guarantees.
        """
        if self._closed:
            raise RuntimeError("ShmArena has been closed")
        arrays = [np.asarray(array) for array in arrays]
        specs = []
        cursor = payload = 0
        for array in arrays:
            specs.append(ArraySpec(dtype=array.dtype.str, shape=array.shape, offset=cursor))
            cursor += _aligned(array.nbytes)
            payload += array.nbytes
        segment = self._ensure_capacity(cursor)
        for view, array in zip(_views(segment, specs), arrays):
            view[...] = array
        return ShmMessage(segment=segment.name, specs=tuple(specs), payload_bytes=payload)

    def close(self) -> None:
        """Unlink the segment and release the mapping (idempotent)."""
        if self._segment is not None:
            self._segment.close()
            self._segment.unlink()
            self._segment = None
        self._closed = True


class ShmReader:
    """Worker-side attachment cache producing zero-copy views of messages.

    The reader attaches to a message's segment by name on first sight and
    keeps the mapping until a message names a different segment (the writer
    grew) -- then the stale mapping is closed and the new one attached.
    Views returned by :meth:`arrays` alias the mapped buffer directly: a
    caller that retains data past the message must copy (inserting into a
    :class:`~repro.streaming.incremental.SortedRegionState` copies through
    its merge), and all views must be dropped before :meth:`close`.
    """

    def __init__(self) -> None:
        self._segment: "shared_memory.SharedMemory | None" = None
        self._name: "str | None" = None

    def arrays(self, message: ShmMessage) -> "list[np.ndarray]":
        """Materialise a message's arrays as views into the shared segment."""
        if message.segment != self._name:
            self.close()
            self._segment = attach_segment(message.segment)
            self._name = message.segment
        assert self._segment is not None
        return _views(self._segment, message.specs)

    def close(self) -> None:
        """Unmap the current attachment (never unlink -- the writer owns it)."""
        if self._segment is not None:
            self._segment.close()
            self._segment = None
            self._name = None
