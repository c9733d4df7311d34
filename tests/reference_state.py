"""Reference join state: the pre-rewrite single-array ``SortedRegionState``.

Test-only.  This is the class ``repro.streaming.incremental`` shipped before
the state was re-laid out as geometrically merged sorted runs, kept verbatim
as the differential oracle (``tests/test_state_runs.py``): one key-sorted
array pair per machine-side, ``np.insert`` on every batch, ``np.isin`` on
every eviction -- ``O(state)`` per call, and obviously right.  The production
class must hold the same ``(index, key)`` set after any sequence of protocol
calls, report the same ``evict`` counts and count the same fold totals.
Order among equal keys is unspecified on both sides, so comparisons go
through ``sorted(index)`` / ``keys[argsort(index)]``.

:class:`PairwiseRunState` is the other kind of reference: the sorted-run
state as it merged before the one-pass merge -- ``_merge_runs`` and the
``while`` cascade of ``insert``, and the per-run ``surviving`` call of
``evict``, verbatim.  The production class must hold the *same run list*
after every call: run count, both columns of every run, dtype, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.incremental import RUN_MERGE_RATIO
from repro.streaming.window import surviving


class SortedRegionState:
    """One machine's retained join state on one side, kept sorted by key.

    The engine's incremental counting needs, per batch and per machine, the
    number of joinable pairs between the batch's few arrivals and the
    machine's (much larger) retained state.  Keeping the state sorted by
    join key turns that into ``O(new log state)`` binary searches: arrivals
    are merged in with :func:`numpy.searchsorted` + :func:`numpy.insert`,
    and expired tuples are dropped with one vectorised mask -- no per-batch
    re-sort of the full region ever happens.

    The ``(index, keys)`` pair is also the unit of state portability:
    checkpoints (:class:`~repro.streaming.checkpoint.StreamCheckpoint`)
    capture it verbatim, migrations and restores rebuild it with
    :meth:`from_indices` / :meth:`from_pairs`, and because the key-sort is
    stable, rebuilding from arrival-index-sorted inputs reproduces the
    original ordering exactly -- the foundation of the kill-and-restore ==
    uninterrupted-run guarantee.

    Attributes
    ----------
    keys:
        The retained join keys, ascending.  The dtype follows the stream's
        key arrays: integer keys are retained as integers (int64 keys
        above 2**53 must not round through float64), floats as float64.
    index:
        Arrival indices, parallel to ``keys`` (``keys[i]`` is the key of
        history tuple ``index[i]``).  Unique within a machine: a machine
        holds one region, and a region routes each tuple at most once.
    """

    __slots__ = ("keys", "index")

    #: Resident bytes per retained tuple (float64 key + int64 arrival index).
    BYTES_PER_TUPLE = 16

    def __init__(
        self, index: np.ndarray | None = None, keys: np.ndarray | None = None
    ) -> None:
        self.index = (
            np.empty(0, dtype=np.int64) if index is None else np.asarray(index)
        )
        self.keys = (
            np.empty(0, dtype=np.float64) if keys is None else np.asarray(keys)
        )

    @classmethod
    def from_indices(
        cls, indices: np.ndarray, history: np.ndarray
    ) -> "SortedRegionState":
        """Build sorted state for ``indices`` looked up in the key history.

        The history's dtype carries over, so integer-keyed streams keep
        exact integer state across migrations.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return cls.from_pairs(indices, np.asarray(history)[indices])

    @classmethod
    def from_pairs(
        cls, indices: np.ndarray, keys: np.ndarray
    ) -> "SortedRegionState":
        """Build sorted state from parallel arrival-index / key arrays.

        Same stable key-sort as :meth:`from_indices`, for callers that have
        already gathered the keys -- a sticky worker rebuilding migrated
        state from a shared-memory message holds ``(indices, keys)`` pairs
        but no key history.  Both inputs are copied (the pairs may be views
        into a transient shared segment).
        """
        indices = np.asarray(indices, dtype=np.int64)
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        return cls(index=indices[order], keys=keys[order])

    def __len__(self) -> int:
        """Number of retained tuples."""
        return len(self.index)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the retained state (keys + arrival indices)."""
        return len(self.index) * self.BYTES_PER_TUPLE

    def insert(self, new_indices: np.ndarray, new_keys: np.ndarray) -> None:
        """Merge a batch's arrivals into the sorted state.

        ``O(new log state)`` searches plus one ``O(state + new)`` array
        merge; the keys stay sorted so the next batch's counting can binary
        search them directly.  The first insert into empty state adopts the
        arrivals' dtype (exact integers stay integers); a later dtype
        mismatch promotes the state, so a mixed int/float stream never
        truncates a float key into an integer slot.
        """
        if len(new_indices) == 0:
            return
        new_indices = np.asarray(new_indices, dtype=np.int64)
        new_keys = np.asarray(new_keys)
        order = np.argsort(new_keys, kind="stable")
        new_keys = new_keys[order]
        new_indices = new_indices[order]
        if len(self.keys) == 0:
            self.keys = new_keys
            self.index = new_indices
            return
        if self.keys.dtype != new_keys.dtype:
            target = np.promote_types(self.keys.dtype, new_keys.dtype)
            self.keys = self.keys.astype(target)
            new_keys = new_keys.astype(target)
        positions = np.searchsorted(self.keys, new_keys)
        self.keys = np.insert(self.keys, positions, new_keys)
        self.index = np.insert(self.index, positions, new_indices)

    def evict(self, expired: np.ndarray) -> int:
        """Drop the given global arrival indices; return how many were held.

        ``expired`` is the window policy's eviction set for the side; only
        the tuples this machine actually holds are dropped (and counted).
        """
        if len(self.index) == 0 or len(expired) == 0:
            return 0
        keep = ~np.isin(self.index, expired, assume_unique=True)
        dropped = int(len(keep) - keep.sum())
        if dropped:
            self.index = self.index[keep]
            self.keys = self.keys[keep]
        return dropped


def _merge_runs(
    older: "tuple[np.ndarray, np.ndarray]", newer: "tuple[np.ndarray, np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge two key-sorted ``(keys, index)`` runs into one fresh run.

    A stable sort of the two runs laid end to end: numpy's stable sort is
    a timsort, which finds the two sorted runs and merges them in one
    linear pass -- measured about twice as fast as a ``searchsorted`` plus
    scatter of both columns, at every run size from 1.5K to 400K.  Neither
    input is modified, so a reader still holding the old run keeps a valid
    snapshot.
    """
    keys = np.concatenate([older[0], newer[0]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return keys, np.concatenate([older[1], newer[1]])[order]


class PairwiseRunState:
    """Sorted runs merged by a cascade of pairwise merges, newest run back."""

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []

    def insert(self, new_indices: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
        """Add a batch's arrivals as the newest run; merge geometrically."""
        new_keys = np.asarray(new_keys)
        if len(new_indices) == 0:
            return new_keys
        order = np.argsort(new_keys, kind="stable")
        needles = new_keys = new_keys[order]
        new_indices = np.asarray(new_indices, dtype=np.int64)[order]
        runs = self._runs
        if runs and runs[0][0].dtype != new_keys.dtype:
            target = np.promote_types(runs[0][0].dtype, new_keys.dtype)
            runs[:] = [(keys.astype(target), index) for keys, index in runs]
            new_keys = new_keys.astype(target)
        runs.append((new_keys, new_indices))
        while len(runs) > 1 and len(runs[-2][1]) < RUN_MERGE_RATIO * len(runs[-1][1]):
            newer = runs.pop()
            runs[-1] = _merge_runs(runs[-1], newer)
        return needles

    def evict(self, expired: np.ndarray) -> int:
        """Drop the given global arrival indices; return how many were held."""
        if not self._runs or len(expired) == 0:
            return 0
        dropped = 0
        survivors = []
        for keys, index in self._runs:
            keep = surviving(index, expired)
            kept = int(np.count_nonzero(keep))
            if kept < len(index):
                dropped += len(index) - kept
                keys, index = keys[keep], index[keep]
            if kept:
                survivors.append((keys, index))
        self._runs = survivors
        return dropped
