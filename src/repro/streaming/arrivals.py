"""Arrival bookkeeping: one coordinate system for every tuple of a stream.

Every tuple of a join side has exactly one name, for the whole run and on
both sides of the backend protocol: its **global arrival index**, the
number of tuples that arrived on that side before it.  The live sets, the
batch starts and a checkpoint's copy of both store global indices, and
nothing ever rewrites one.  Machines hold keys alone: which tuples a machine
holds is the live log routed by the current plan.

A live set is held as what it is.  Every stream starts with one run of
consecutive indices, ``[live_start, total)``, and a prefix expiry -- every
:class:`~repro.streaming.window.SlidingWindow` one is -- keeps it one: an
append extends it and an expiry moves its start, so neither builds an
index array, and the live keys are one slice of the log.  Only an eviction
that is not a prefix (a decay window, a custom policy) turns it into a
sorted index array, grown and cut in place the same way.  A checkpoint
writes either form out as the same index array.

What a bounded window reclaims is *storage*, not names.  An
:class:`ArrivalLog` -- one per join side -- remembers the global index its
retained keys start at (``base``).  Trimming the dead prefix the window
exposed moves ``base`` forward; the space is reclaimed by the next append
that needs room.  So a windowed run's footprint is O(window) however long
the stream runs, no per-batch step touches more than the batch's arrivals
(amortised), and -- because the key an index resolves to never changes --
outputs, loads, evictions and migration plans are bit-identical with or
without trimming (the untrimmed reference is the ``NoTrimWindow``
decorator in ``tests/streaming_harness.py``).

Wherever the migration planner takes a key *history*, it takes anything
indexable by global index arrays: the engine passes its logs, and a bare
key array is the log of a stream that never trimmed (base 0, everything
live).  The backend protocol takes no history and no index: state reaches
it as keys, one key-sorted array per side with a slice per machine
(:class:`~repro.partitioning.routing.RoutedSide`).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

import numpy as np

from repro.streaming.window import WindowPolicy, drop_expired

__all__ = ["ArrivalLog"]


class ArrivalLog:
    """One join side's keys, live set and batch starts, by global arrival index.

    The live set is held as a range ``[live_start, total)`` while it is
    one, and as a sorted index array after a non-prefix eviction (module
    docstring); :attr:`live` shows either as indices.  Under a window the
    log also keeps, for each wholly live batch the route stage sorted, that
    sort (:meth:`keep_sorted`), so the batch's eviction is handed it back
    (:meth:`kept_sorted`) instead of gathering and sorting its keys again.

    Parameters
    ----------
    windowed:
        Whether liveness is tracked.  An unbounded run never evicts, so its
        log reports ``live`` and ``starts`` empty and keeps no sorted batch
        (everything retained is live and ``base`` stays 0); under a bounded
        window every append extends both.
    keys, base, live, starts:
        A checkpoint's retained keys, the global index of the first of
        them, and its liveness bookkeeping, to resume from; a new stream
        starts empty at 0.

    Attributes
    ----------
    base, total:
        The retained keys are those of global indices ``[base, total)``.
    starts:
        Global index each processed batch started at, oldest first;
        :meth:`trim` drops the entries below ``base``.
    """

    __slots__ = (
        "windowed", "base", "total", "starts", "_buffer", "_origin", "_live", "_live_start",
        "_live_stop", "_sorted",
    )

    def __init__(self, windowed: bool, keys=(), base: int = 0, live=(), starts=()) -> None:
        self.windowed = windowed
        # _buffer[i] is the key of global index _origin + i; _origin trails
        # base until an append reclaims the dead prefix between them.
        self._buffer = np.asarray(keys)
        self._origin = self.base = base
        self.total = base + len(self._buffer)
        self.starts = list(starts)
        # (first index, key-sorted keys) of each wholly live batch whose
        # route sorted it (keep_sorted), oldest first.
        self._sorted: "deque[tuple[int, np.ndarray]]" = deque()
        if windowed:
            self.live = live
        else:
            self._live, self._live_start = None, base

    @property
    def live(self) -> np.ndarray:
        """Sorted global indices of the tuples still live (never written to later).

        Empty for an unwindowed log, which tracks no liveness
        (:meth:`live_indices` is every retained index there).
        """
        return self.live_indices() if self.windowed else np.empty(0, dtype=np.int64)

    @live.setter
    def live(self, indices) -> None:
        """Hold ``indices`` (sorted global indices) as the live set.

        A run of consecutive indices ending at ``total`` (an empty set
        included) is held as a range, anything else as the array.
        """
        indices = np.asarray(indices, dtype=np.int64)
        count = indices.size
        if count == 0 or (indices[0] == self.total - count and indices[-1] == self.total - 1):
            self._live, self._live_start = None, self.total - count
        else:
            self._live, self._live_start, self._live_stop = indices, 0, count
            self._sorted.clear()

    def live_indices(self) -> np.ndarray:
        """Sorted global indices of the live tuples: every retained one if unwindowed.

        While the live set is one range it is held as its start alone, and
        this builds its indices; the per-batch steps never ask for them.
        """
        if self._live is not None:
            return self._live[self._live_start : self._live_stop]
        return np.arange(self._live_start, self.total, dtype=np.int64)

    @property
    def live_entries(self) -> int:
        """Number of live tuples a windowed log tracks (0 unwindowed)."""
        if self._live is not None:
            return self._live_stop - self._live_start
        return self.total - self._live_start if self.windowed else 0

    def live_keys(self) -> np.ndarray:
        """The live tuples' keys in arrival order: all retained keys if unwindowed.

        One slice of the log (a view, never written to later) while the
        live set is a range; a gather of :attr:`live` otherwise.
        """
        if self._live is None:
            return self._buffer[self._live_start - self._origin : self.total - self._origin]
        return self[self.live]

    @property
    def retained(self) -> int:
        """Number of keys still addressable (``total - base``)."""
        return self.total - self.base

    @property
    def keys(self) -> np.ndarray:
        """The retained keys, oldest first (a view; never written to later)."""
        return self._buffer[self.base - self._origin : self.total - self._origin]

    def __getitem__(self, indices: "np.ndarray | range") -> np.ndarray:
        """The keys of global indices in ``[base, total)``: an array, or a range (a view)."""
        if isinstance(indices, range):
            return self._buffer[indices.start - self._origin : indices.stop - self._origin]
        return self._buffer[np.asarray(indices) - self._origin]

    def append(self, keys: np.ndarray) -> int:
        """Append one batch's keys; return the global index of the first.

        ``O(new)`` amortised: a full buffer (or a dtype change) moves the
        retained keys to the front of a *fresh* one of twice their size,
        dropping the trimmed prefix -- so the buffer stays within 2x
        retained plus one batch, and a view handed out earlier is never
        written to.  A live set held as indices grows the same way; one
        held as a range grows with ``total``.  The first retained
        non-empty batch decides the dtype (integer keys stay integers --
        int64 join keys above 2**53 must never round through float64); a
        later dtype change promotes by ``np.promote_types``, and an empty
        batch only records its start.
        """
        keys = np.asarray(keys)
        first, new = self.total, keys.size
        if self.windowed:
            self.starts.append(first)
        if new == 0:
            return first
        retained, buffer = first - self.base, self._buffer
        dtype = np.promote_types(buffer.dtype, keys.dtype) if retained else keys.dtype
        end = first - self._origin
        if dtype != buffer.dtype or end + new > buffer.size:
            grown = np.empty(max(retained + new, 2 * retained), dtype=dtype)
            grown[:retained] = self.keys
            self._buffer, self._origin, end = grown, self.base, retained
        self._buffer[end : end + new] = keys
        self.total += new
        if self._live is not None:
            stop = self._live_stop
            if stop + new > self._live.size:
                live = self.live
                grown = np.empty(max(live.size + new, 2 * live.size), dtype=np.int64)
                grown[: live.size] = live
                self._live, self._live_start, stop = grown, 0, live.size
            self._live[stop : stop + new] = np.arange(first, self.total, dtype=np.int64)
            self._live_stop = stop + new
        return first

    def keep_sorted(self, first: int, keys: np.ndarray) -> None:
        """Keep a batch's key-sorted keys, starting at ``first``, while it is live.

        The route stage's sort of the batch it just appended: when exactly
        that batch expires, :meth:`kept_sorted` hands it back, so the
        eviction neither gathers nor sorts.  Kept only while a windowed
        log's live set is a range (an unbounded run keeps nothing), and
        dropped by :meth:`trim` once the batch is no longer wholly live.
        """
        if self.windowed and self._live is None and keys.size:
            self._sorted.append((first, keys))

    def kept_sorted(self, expired: "np.ndarray | range") -> "np.ndarray | None":
        """The kept key-sorted keys of ``expired`` if it is exactly one kept batch.

        ``None`` for anything else -- a cut inside a batch, a batch never
        kept, one of another dtype than the log's -- which the caller
        gathers (``log[expired]``) and sorts: the same keys in the same
        order, so the same sort.
        """
        if not self._sorted or not isinstance(expired, range):
            return None
        first, keys = self._sorted[0]
        exact = (first, first + keys.size) == (expired.start, expired.stop)
        return keys if exact and keys.dtype == self._buffer.dtype else None

    def expire(self, window: WindowPolicy, rng: np.random.Generator) -> "np.ndarray | range":
        """Drop what ``window`` expires from the live set; return its indices (sorted).

        A live range whose window states a cutoff
        (:meth:`~repro.streaming.window.WindowPolicy.cutoff`) expires by
        moving its start, and the expired indices are returned as a
        ``range``.  Otherwise the window's :meth:`evictions` decides from
        the live indices: a prefix of them moves the start (``O(expired)``
        checked, a ``range`` again for a live range), and any other
        eviction set (decay windows, custom policies) goes through
        :func:`~repro.streaming.window.drop_expired`, which leaves the live
        set an index array.
        """
        start, total = self._live_start, self.total
        if self._live is None:
            cutoff = window.cutoff(self.starts, total)
            if cutoff is not None:
                stop = min(max(cutoff, start), total)
                self._live_start = stop
                return range(start, stop)
        live = self.live
        expired = window.evictions(live, self.starts, total, rng)
        cut = len(expired)
        if cut and np.array_equal(live[:cut], expired):
            self._live_start += cut
            if self._live is None:
                return range(start, start + cut)
        elif cut:
            self.live = drop_expired(live, expired)
        return expired

    def trim(self, window: WindowPolicy) -> int:
        """Advance ``base`` to the window's safe trim point; return the move.

        Nothing below the trim point (the oldest live index, or ``total``
        once nothing is live) can be referenced again, so its keys and
        batch starts are given up -- a pointer move: no key and no stored
        index is touched -- and so are the kept sorted batches no longer
        wholly live.  A trim point past a live tuple would let that tuple's
        index resolve to some other key later, so it is refused here.
        """
        if self._live is None:
            oldest = self._live_start
        else:
            oldest = self._live[self._live_start] if self.live_entries else self.total
        kept = self._sorted
        while kept and kept[0][0] < oldest:
            kept.popleft()
        point = window.trim_point(oldest)
        if point > oldest:
            raise ValueError(
                f"{type(window).__name__}.trim_point returned {point}, past "
                "the oldest live arrival index"
            )
        trimmed = point - self.base
        if trimmed <= 0:
            return 0
        self.base = point
        del self.starts[: bisect_left(self.starts, point)]
        return trimmed
