"""Arrival bookkeeping: one coordinate system for every tuple of a stream.

Every tuple of a join side has exactly one name, for the whole run and on
both sides of the backend protocol: its **global arrival index**, the
number of tuples that arrived on that side before it.  The live sets, the
batch starts and a checkpoint's copy of both store global indices, and
nothing ever rewrites one.  Machines hold keys alone: which tuples a machine
holds is the live log routed by the current plan.

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

import numpy as np

from repro.streaming.window import WindowPolicy, drop_expired

__all__ = ["ArrivalLog"]


class ArrivalLog:
    """One join side's keys, live set and batch starts, by global arrival index.

    Parameters
    ----------
    windowed:
        Whether liveness is tracked.  An unbounded run never evicts, so its
        log leaves ``live`` and ``starts`` empty (everything retained is
        live and ``base`` stays 0); under a bounded window every append
        extends both.
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
        "_live_stop",
    )

    def __init__(self, windowed: bool, keys=(), base: int = 0, live=(), starts=()) -> None:
        self.windowed = windowed
        # _buffer[i] is the key of global index _origin + i; _origin trails
        # base until an append reclaims the dead prefix between them.
        self._buffer = np.asarray(keys)
        self._origin = self.base = base
        self.total = base + len(self._buffer)
        self.live = live
        self.starts = list(starts)

    @property
    def live(self) -> np.ndarray:
        """Sorted global indices of the tuples still live (a view; never written to later).

        They are ``_live[_live_start:_live_stop]``: an append writes past
        the stop (into a fresh buffer of twice the live set when the buffer
        is full, dropping the expired prefix), and a prefix expiry moves
        the start, so neither touches more than its own indices (amortised).
        """
        return self._live[self._live_start : self._live_stop]

    @live.setter
    def live(self, indices) -> None:
        """Hold ``indices`` (sorted global indices) as the live set."""
        self._live = np.asarray(indices, dtype=np.int64)
        self._live_start, self._live_stop = 0, self._live.size

    @property
    def retained(self) -> int:
        """Number of keys still addressable (``total - base``)."""
        return self.total - self.base

    @property
    def keys(self) -> np.ndarray:
        """The retained keys, oldest first (a view; never written to later)."""
        return self._buffer[self.base - self._origin : self.total - self._origin]

    def __getitem__(self, indices: np.ndarray) -> np.ndarray:
        """Gather the keys of an array of global indices in ``[base, total)``."""
        return self._buffer[np.asarray(indices) - self._origin]

    def append(self, keys: np.ndarray) -> int:
        """Append one batch's keys; return the global index of the first.

        ``O(new)`` amortised: a full buffer (or a dtype change) moves the
        retained keys to the front of a *fresh* one of twice their size,
        dropping the trimmed prefix -- so the buffer stays within 2x
        retained plus one batch, and a view handed out earlier is never
        written to.  The live set grows the same way.  The first retained
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
        if self.windowed:
            stop = self._live_stop
            if stop + new > self._live.size:
                live = self.live
                grown = np.empty(max(live.size + new, 2 * live.size), dtype=np.int64)
                grown[: live.size] = live
                self._live, self._live_start, stop = grown, 0, live.size
            self._live[stop : stop + new] = np.arange(first, self.total, dtype=np.int64)
            self._live_stop = stop + new
        return first

    def expire(self, window: WindowPolicy, rng: np.random.Generator) -> np.ndarray:
        """Drop what ``window`` expires from the live set; return it (sorted).

        An eviction that is a prefix of the live set -- every
        :class:`~repro.streaming.window.SlidingWindow` one is -- is cut off
        by moving the live set's start, after an ``O(expired)`` check; any
        other eviction set
        (decay windows, custom policies) goes through
        :func:`~repro.streaming.window.drop_expired`.
        """
        live = self.live
        expired = window.evictions(live, self.starts, self.total, rng)
        cut = len(expired)
        if cut and np.array_equal(live[:cut], expired):
            self._live_start += cut
        else:
            self.live = drop_expired(live, expired)
        return expired

    def trim(self, window: WindowPolicy) -> int:
        """Advance ``base`` to the window's safe trim point; return the move.

        Nothing below the trim point (``min(live)``, or ``total`` once
        nothing is live) can be referenced again, so its keys and batch
        starts are given up -- a pointer move: no key and no stored index
        is touched.  A trim point past a live tuple would let that tuple's
        index resolve to some other key later, so it is refused here.
        """
        live = self.live
        point = window.trim_point(live, self.total)
        if point > (live[0] if live.size else self.total):
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
