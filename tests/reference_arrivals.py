"""The array-form arrival log: every live set a sorted index array.

:class:`ArrayArrivalLog` is :class:`~repro.streaming.arrivals.ArrivalLog`
with no range form and nothing kept: every append concatenates the batch's
indices onto the live set, every expiry hands the window's ``evictions``
the whole live array and masks it (``drop_expired``), and every expired
slice is gathered out of the log and sorted again by the engine.  It
subclasses the production log only so that the migration planner takes it
for a log (``sorted_live``'s ``isinstance``); the keys storage is
inherited, every liveness method is its own.

``tests/test_live_set_forms.py`` runs whole engines on both logs
(:func:`use_array_logs`) and holds live sets, expired keys, trims, metrics
and checkpoint bytes equal.
"""

from __future__ import annotations

import numpy as np

from repro.streaming import checkpoint, engine
from repro.streaming.arrivals import ArrivalLog
from repro.streaming.window import drop_expired

__all__ = ["ArrayArrivalLog", "use_array_logs"]


class ArrayArrivalLog(ArrivalLog):
    """An arrival log whose live set is always an index array."""

    __slots__ = ("_indices",)

    def __init__(self, windowed: bool, keys=(), base: int = 0, live=(), starts=()) -> None:
        # The production log holds the keys and batch starts; as an
        # unwindowed one it tracks no liveness of its own.
        super().__init__(False, keys, base, (), starts)
        self.windowed = windowed
        self._indices = np.asarray(live, dtype=np.int64)

    @property
    def live(self) -> np.ndarray:
        """Sorted global indices of the live tuples (empty unwindowed)."""
        return self._indices if self.windowed else np.empty(0, dtype=np.int64)

    @live.setter
    def live(self, indices) -> None:
        self._indices = np.asarray(indices, dtype=np.int64)

    def live_indices(self) -> np.ndarray:
        """The live indices: every retained one if unwindowed."""
        return self._indices if self.windowed else np.arange(self.base, self.total)

    @property
    def live_entries(self) -> int:
        """Entries of the live array (0 unwindowed)."""
        return len(self._indices) if self.windowed else 0

    def live_keys(self) -> np.ndarray:
        """The live keys, gathered."""
        return self[self.live_indices()]

    def append(self, keys: np.ndarray) -> int:
        """Append the keys; concatenate their indices onto the live set."""
        first = super().append(keys)
        if self.windowed:
            self._indices = np.concatenate(
                [self._indices, np.arange(first, self.total, dtype=np.int64)]
            )
        return first

    def keep_sorted(self, first: int, keys: np.ndarray) -> None:
        """Keep nothing."""

    def kept_sorted(self, expired) -> None:
        """Nothing is kept: every expired slice is gathered and sorted."""
        return None

    def expire(self, window, rng) -> np.ndarray:
        """Ask the window's ``evictions`` and mask them out of the live array."""
        expired = window.evictions(self._indices, self.starts, self.total, rng)
        self._indices = drop_expired(self._indices, expired)
        return expired

    def trim(self, window) -> int:
        """Advance ``base`` to the window's trim point of the oldest live index."""
        oldest = int(self._indices[0]) if len(self._indices) else self.total
        point = window.trim_point(oldest)
        if point > oldest:
            raise ValueError("trim point past the oldest live arrival index")
        trimmed = point - self.base
        if trimmed <= 0:
            return 0
        self.base = point
        self.starts = [start for start in self.starts if start >= point]
        return trimmed


def use_array_logs(monkeypatch) -> None:
    """Make every engine started or restored from now on keep array-form logs."""
    monkeypatch.setattr(engine, "ArrivalLog", ArrayArrivalLog)
    monkeypatch.setattr(checkpoint, "ArrivalLog", ArrayArrivalLog)
