"""Reference join state: index columns, and a merge by counting key values.

Test-only, the differential oracles of ``tests/test_state_runs.py``.  The
production ``SortedRegionState`` holds a key multiset in counted runs and
evicts by tombstones; these hold or merge the same state the obvious way.

* :class:`SortedRegionState` -- the single-array state: one key-sorted
  ``(index, keys)`` column pair per machine-side, ``np.insert`` on every
  batch, ``np.isin`` on every eviction.  ``O(state)`` per call, and
  obviously right.
* :class:`IndexedRunState` -- the state as machines held it before they
  held key multisets: geometrically merged runs of ``(keys, index)``
  columns, evicted by masking every run by arrival index, and read back by
  ``arrival_indices`` (the sticky backend's ``resident_indices`` verb).
  The production table must hold, machine-side for machine-side, the key
  multiset of its index set; a test tombstones what it evicts.
* :class:`PairwiseRunState` -- counted runs merged by a cascade of pairwise
  merges, newest run back, each merge a :class:`collections.Counter` of key
  values.  The production one-pass merge must leave the same run list.
* :func:`merge_sorted` -- one merge of counted runs by a stable sort, as it
  ran before the compiled kernel (``repro.joins.native.merge``), which
  ``tests/test_native_kernel.py`` holds to it byte for byte.
* :func:`cascade` -- how far a batch's arrivals merge, decided in Python
  as ``SortedRegionState.cascade`` did before the kernel's fold settled
  cascades itself, and :func:`committed`, the run list it left
  (``tests/test_fold_rules.py`` holds the fold's to it byte for byte).
* :class:`RegionStateTable` -- the join state as the engine held it before
  a side was held once per owner: a counted-run pair per *machine*, fed
  each machine's own sorted keys, and its fold (one search task per
  machine, half and run).  A production owner's per-machine counts and
  views must equal it batch for batch (``tests/test_state_derivation.py``),
  and the test harness's ``PicklingPoolBackend`` ships its tasks.

Key equality is by value: ``-0.0`` and ``0.0`` are one key, every NaN is
one key.  Nothing under ``src/`` may import this module.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.streaming.incremental import RUN_MERGE_RATIO, _group_ends
from repro.streaming.incremental import SortedRegionState as CountedRuns
from repro.streaming.window import surviving


class SortedRegionState:
    """One machine's retained join state on one side, kept sorted by key.

    Attributes
    ----------
    keys:
        The retained join keys, ascending, in the stream's dtype.
    index:
        Arrival indices, parallel to ``keys``; unique within a machine.
    """

    __slots__ = ("keys", "index")

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
    def from_pairs(
        cls, indices: np.ndarray, keys: np.ndarray
    ) -> "SortedRegionState":
        """Build sorted state from parallel arrival-index / key arrays."""
        indices = np.asarray(indices, dtype=np.int64)
        keys = np.asarray(keys)
        order = np.argsort(keys, kind="stable")
        return cls(index=indices[order], keys=keys[order])

    def __len__(self) -> int:
        """Number of retained tuples."""
        return len(self.index)

    def insert(self, new_indices: np.ndarray, new_keys: np.ndarray) -> None:
        """Merge a batch's arrivals into the sorted state (promoting dtypes)."""
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

    def expired_keys(self, expired: np.ndarray) -> np.ndarray:
        """The keys of the held tuples ``expired`` names, sorted: what to tombstone."""
        held = np.isin(self.index, expired, assume_unique=True)
        return np.sort(self.keys[held])

    def evict(self, expired: np.ndarray) -> int:
        """Drop the given global arrival indices; return how many were held."""
        if len(self.index) == 0 or len(expired) == 0:
            return 0
        keep = ~np.isin(self.index, expired, assume_unique=True)
        dropped = int(len(keep) - keep.sum())
        if dropped:
            self.index = self.index[keep]
            self.keys = self.keys[keep]
        return dropped


def _merge_indexed(
    runs: "list[tuple[np.ndarray, np.ndarray]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge key-sorted ``(keys, index)`` runs, oldest first, into one run."""
    keys = np.concatenate([keys for keys, _ in runs])
    order = np.argsort(keys, kind="stable")
    index = np.concatenate([index for _, index in runs])
    return keys[order], index[order]


class IndexedRunState:
    """Sorted ``(keys, index)`` runs merged geometrically; evicted by index."""

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []

    def __len__(self) -> int:
        """Number of retained tuples."""
        return sum(len(index) for _, index in self._runs)

    @property
    def keys(self) -> np.ndarray:
        """Every retained key, ascending."""
        if not self._runs:
            return np.empty(0)
        return _merge_indexed(self._runs)[0]

    def arrival_indices(self) -> np.ndarray:
        """Every arrival index held, in no particular order."""
        if not self._runs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([index for _, index in self._runs])

    def append_sorted(self, new_indices: np.ndarray, new_keys: np.ndarray) -> None:
        """Add key-sorted arrivals as the newest run; merge geometrically."""
        if len(new_indices) == 0:
            return
        new_indices = np.asarray(new_indices, dtype=np.int64)
        runs = self._runs
        if runs and runs[0][0].dtype != new_keys.dtype:
            target = np.promote_types(runs[0][0].dtype, new_keys.dtype)
            runs[:] = [(keys.astype(target), index) for keys, index in runs]
            new_keys = new_keys.astype(target)
        first, merged = len(runs), len(new_keys)
        while first and len(runs[first - 1][1]) < RUN_MERGE_RATIO * merged:
            first -= 1
            merged += len(runs[first][1])
        if first < len(runs):
            runs[first:] = [_merge_indexed(runs[first:] + [(new_keys, new_indices)])]
        else:
            runs.append((new_keys.copy(), new_indices.copy()))

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


def resident_indices(states: "list[IndexedRunState]") -> "list[np.ndarray]":
    """Per machine, the arrival indices held: what machines were asked to read back."""
    return [state.arrival_indices() for state in states]


# ----------------------------------------------------------------------
# Counted runs, merged pairwise by counting key values
# ----------------------------------------------------------------------
_NAN = "nan"


def _tally(run: "tuple[np.ndarray, np.ndarray | None]") -> Counter:
    """A run's multiplicity per key value (NaN under one name)."""
    keys, cum = run
    counts = [1] * len(keys) if cum is None else np.diff(cum).tolist()
    tally: Counter = Counter()
    for key, count in zip(keys.tolist(), counts):
        tally[_NAN if key != key else key] += count
    return tally


def merge_sorted(
    runs: "list[tuple[np.ndarray, np.ndarray | None]]",
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``repro.streaming.incremental._merge_sorted`` by one stable sort.

    The runs laid end to end are sorted stably -- numpy's stable sort is a
    timsort, which finds the sorted runs and merges them in linear passes --
    and the running total of the sorted multiplicities, read at the last
    element of each group, *is* the merged run's ``cum``.
    """
    keys = np.concatenate([keys for keys, _ in runs])
    counts = np.empty(keys.size, dtype=np.int64)
    start = 0
    for run, cum in runs:
        stop = start + run.size
        counts[start:stop] = 1 if cum is None else cum[1:] - cum[:-1]
        start = stop
    order = keys.argsort(kind="stable")
    keys = keys[order]
    running = counts[order].cumsum()
    last = _group_ends(keys)
    cum = np.empty(last.size + 1, dtype=np.int64)
    cum[0] = 0
    cum[1:] = running[last]
    kept = (cum[1:] != cum[:-1]).nonzero()[0]
    if kept.size < last.size:
        if kept.size == 0:
            return None
        last = last[kept]
        cum = np.concatenate([cum[:1], cum[1:][kept]])
    return keys[last], cum


def _conform(runs: list, keys: np.ndarray) -> "tuple[list, np.ndarray]":
    """The runs and ``keys`` in one dtype, promoting *every* run on a mismatch.

    The first keys into empty state set the dtype (exact integers stay
    integers); a later mismatch promotes all runs, so a mixed int/float
    stream never truncates a float key into an integer slot.  The runs
    come back as a list the caller may hold (promoted copies on a
    mismatch): nothing is swapped in until the caller commits, and no
    list of runs is ever changed in place.
    """
    if runs and runs[0][0].dtype != keys.dtype:
        target = np.promote_types(runs[0][0].dtype, keys.dtype)
        runs = [(run.astype(target), cum) for run, cum in runs]
        keys = keys.astype(target)
    return runs, keys


def cascade(runs: list, keys: np.ndarray) -> "tuple[list, list | None, np.ndarray]":
    """Where key-sorted arrivals go: ``(kept, merging, keys)``, nothing changed yet.

    The new run is merged into its predecessor while the predecessor
    holds fewer than :data:`RUN_MERGE_RATIO` times the distinct keys
    merged so far, so the amortised copy cost is ``O(new * ratio *
    log_ratio(distinct / new))``.  How far that cascade reaches depends
    on run lengths alone, so it is decided here, before anything is
    copied: ``kept`` are the runs it leaves alone, ``merging`` the runs
    it merges, oldest first and the arrivals last -- ``None`` when the
    arrivals become a run of their own -- and ``keys`` the arrivals in
    the runs' dtype.  The caller merges ``merging`` and commits the result.
    """
    if runs and keys.size and runs[0][0].dtype != keys.dtype:
        runs, keys = _conform(runs, keys)
    first = last = len(runs)
    merged = keys.size
    while merged and first and runs[first - 1][0].size < RUN_MERGE_RATIO * merged:
        first -= 1
        merged += runs[first][0].size
    if first == last:
        return runs, None, keys
    return runs[:first], [*runs[first:], (keys, None)], keys


def committed(runs: list, keys: np.ndarray) -> list:
    """The run list :func:`cascade` leaves: kept runs, then the merged run or the arrivals."""
    kept, merging, keys = cascade(runs, keys)
    if merging is None:
        return kept + ([(keys.copy(), None)] if keys.size else [])
    merged = merge_sorted(merging)
    return kept + ([] if merged is None else [merged])


def _merge_pair(older, newer) -> "tuple[np.ndarray, np.ndarray] | None":
    """Two runs into one counted run: distinct ascending keys, ``cum``."""
    tally = _tally(older)
    tally.update(_tally(newer))
    dtype = older[0].dtype
    keys = sorted(key for key, count in tally.items() if count and key != _NAN)
    if tally[_NAN]:
        keys.append(_NAN)
    if not keys:
        return None
    counts = [tally[key] for key in keys]
    values = [np.nan if key == _NAN else key for key in keys]
    return np.array(values, dtype=dtype), np.concatenate([[0], np.cumsum(counts)])


class PairwiseRunState:
    """Counted runs merged by a cascade of pairwise merges, newest run back.

    The cascade reaches as far as the production rule says -- decided
    first, from the runs' distinct lengths -- and is then merged one pair
    at a time.
    """

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray | None]]" = []

    def _conform(self, keys: np.ndarray) -> np.ndarray:
        runs = self._runs
        if runs and runs[0][0].dtype != keys.dtype:
            target = np.promote_types(runs[0][0].dtype, keys.dtype)
            runs[:] = [(run.astype(target), cum) for run, cum in runs]
            keys = keys.astype(target)
        return keys

    def append_sorted(self, keys: np.ndarray) -> None:
        """Add key-sorted arrivals as the newest run; cascade pairwise."""
        if len(keys) == 0:
            return
        keys = self._conform(keys)
        runs = self._runs
        first, merged = len(runs), len(keys)
        while first and len(runs[first - 1][0]) < RUN_MERGE_RATIO * merged:
            first -= 1
            merged += len(runs[first][0])
        if first == len(runs):
            runs.append((keys.copy(), None))
            return
        merged_run = (keys, None)
        for older in reversed(runs[first:]):
            merged_run = _merge_pair(older, merged_run)
            if merged_run is None:
                merged_run = (keys[:0], np.zeros(1, dtype=np.int64))
        runs[first:] = [merged_run] if len(merged_run[0]) else []

    def tombstone(self, keys: np.ndarray) -> None:
        """Record key-sorted expired keys as one negative run."""
        if len(keys):
            keys = self._conform(keys)
            self._runs.append((keys.copy(), -np.arange(len(keys) + 1)))


def state_layout(
    keys1: "list[np.ndarray]", keys2: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Machine-major array layout: (keys1, keys2) per machine."""
    return [keys for pair in zip(keys1, keys2) for keys in pair]


class RegionStateTable:
    """The sorted join state of a set of machines, a counted-run pair each, and its fold.

    ``state1[m]`` / ``state2[m]`` hold machine ``m``'s key multisets as
    production counted runs, fed machine ``m``'s keys only -- so a key
    replicated to several machines is held once per machine.
    """

    def __init__(self, machines) -> None:
        self.machines = tuple(machines)
        self.state1 = {machine: CountedRuns() for machine in self.machines}
        self.state2 = {machine: CountedRuns() for machine in self.machines}

    def fold(self, arrays: "list[np.ndarray]"):
        """Merge a batch's machine-major sorted arrivals in; return tasks and owners.

        ``C(new1, state2 + new2) + C(state1, new2)`` per machine: half 0
        searches the just-updated R2 state per new R1 key, half 1 the
        pre-append R1 state per new R2 key.  One ``(needles, run keys, run
        counts)`` task per run searched -- a half with nothing to search
        keeps one empty task -- and ``owners[t] = 2 * slot + half``,
        ascending.
        """
        tasks, owners = [], []
        for slot, machine in enumerate(self.machines):
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            state1, state2 = self.state1[machine], self.state2[machine]
            old_runs1 = state1.runs
            state2.append_sorted(keys2)
            state1.append_sorted(keys1)
            for half, needles, searched in ((0, keys1, state2.runs), (1, keys2, old_runs1)):
                searched = searched or [(needles[:0], None)]
                tasks += [(needles, keys, cum) for keys, cum in searched]
                owners += [2 * slot + half] * len(searched)
        return tasks, np.array(owners, dtype=np.int64)

    def sum_halves(self, values: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Sum per-task ``values`` into a ``(machines, 2)`` array of halves."""
        starts = owners.searchsorted(np.arange(2 * len(self.machines)))
        return np.add.reduceat(values, starts).reshape(-1, 2)

    def evict(self, arrays: "list[np.ndarray]") -> "list[tuple[int, int]]":
        """Tombstone each machine's expired keys; per machine, ``(R1, R2)`` counts."""
        dropped = []
        for machine in self.machines:
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            self.state1[machine].tombstone(keys1)
            self.state2[machine].tombstone(keys2)
            dropped.append((len(keys1), len(keys2)))
        return dropped

    def install(self, arrays: "list[np.ndarray]") -> None:
        """Replace every machine's state with its complete new keys."""
        for machine in self.machines:
            keys1, keys2 = arrays[2 * machine : 2 * machine + 2]
            self.state1[machine].install(keys1)
            self.state2[machine].install(keys2)
