"""Incremental maintenance of streaming state: histogram samples and join state.

Two kinds of state are maintained incrementally across micro-batches, and
both live here:

* the equi-weight histogram's **sample state** (:class:`DecayedReservoir`,
  :class:`IncrementalHistogram`), so the partitioning can be rebuilt online
  at a cost proportional to the reservoir capacity instead of the stream
  length; and
* each machine's **retained join state** (:class:`SortedRegionState`), kept
  as a few key-sorted runs merged geometrically, so the engine counts a
  batch's incremental output with ``O(new * runs * log state)`` binary
  searches and folds the batch in for an amortised ``O(new * ratio *
  log_ratio(state / new))`` copies -- instead of re-sorting and re-scanning
  the whole region every batch (``O(state log state)``) or re-copying it
  (``O(state)``).

The batch pipeline samples both relations from scratch every time it builds
the histogram.  Over an unbounded stream that is impossible -- the input can
no longer be rescanned -- so the streaming subsystem keeps the *sample* state
alive across micro-batches and rebuilds the histogram from it on demand:

* Each side feeds a :class:`DecayedReservoir`, an Efraimidis--Spirakis
  weighted reservoir whose item weights grow geometrically with the batch
  index.  Algebraically this is time-biased sampling: an item that arrived
  ``a`` batches ago is retained with probability proportional to
  ``decay ** a``, so the reservoir tracks the *recent* key distribution and
  forgets stale phases at a configurable half-life.  Priorities are kept in
  log space (``ln(u) / w``) so the geometric weights never overflow or lose
  float resolution.
* Rebuilding runs the ordinary 3-stage pipeline
  (:func:`~repro.core.histogram.build_equi_weight_histogram`) over the two
  reservoir snapshots.  The cost is proportional to the reservoir capacity,
  not to the stream length -- the whole point of maintaining the state
  incrementally.

The rebuilt histogram routes *real* keys correctly because the outermost
region boundaries are opened to +-infinity, and its predicted region-weight
imbalance (a scale-free ratio) is what the drift detector compares against
the live load imbalance.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.histogram import (
    EWHConfig,
    EquiWeightHistogram,
    build_equi_weight_histogram,
)
from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition
from repro.partitioning.base import sort_arrivals
from repro.partitioning.ewh import EWHPartitioning
from repro.sampling.reservoir import offer_entries
from repro.streaming.source import MicroBatch
from repro.streaming.window import surviving

__all__ = ["DecayedReservoir", "IncrementalHistogram", "SortedRegionState"]


#: A new run is merged into its predecessor while the predecessor is smaller
#: than this many times the new run.  Measured, not tunable: every run is its
#: own cache-cold binary-search descent per needle, so 2 (textbook binary
#: merging) and 4 read clearly slower than 8 on both the unbounded and the
#: windowed benchmark stream, while 8 to 32 are within noise of each other;
#: 8 keeps at most four runs at 120K tuples per machine-side (the sweep is in
#: ``docs/streaming.md``, "State layout").
RUN_MERGE_RATIO = 8


def _merge_sorted(
    runs: "list[tuple[np.ndarray, np.ndarray]]",
) -> "tuple[np.ndarray, np.ndarray]":
    """Merge key-sorted ``(keys, index)`` runs, oldest first, into one fresh run.

    One stable sort of the runs laid end to end: numpy's stable sort is a
    timsort, which finds the sorted runs and merges them in linear passes
    -- measured about twice as fast as a ``searchsorted`` plus scatter of
    both columns, at every run size from 1.5K to 400K.  This is the one
    stable sort left on the state path, kept for speed, not for tie order:
    on two concatenated runs it beats numpy's default sort, which does not
    look for runs (about 20 vs 100 us at 5,700 + 380 keys and 0.4 vs 1.7 ms
    at 100K + 12K on an AVX-512 Xeon, numpy 2.4), while on *unsorted*
    arrivals the default sort wins
    (:func:`~repro.partitioning.base.sort_arrivals`).  Equal keys keep
    their oldest-run-first order, exactly as a cascade of pairwise merges
    from the newest run back would leave them.  No input is modified, so a
    reader still holding an old run keeps a valid snapshot.
    """
    keys = np.concatenate([keys for keys, _ in runs])
    order = np.argsort(keys, kind="stable")
    index = np.concatenate([index for _, index in runs])
    return keys[order], index[order]


class SortedRegionState:
    """One machine's retained join state on one side: a few key-sorted runs.

    The engine's incremental counting needs, per batch and per machine, the
    number of joinable pairs between the batch's few arrivals and the
    machine's (much larger) retained state.  The state is a short list of
    **runs**, each a ``(keys, index)`` column pair sorted by join key,
    oldest and largest first.  A batch's arrivals come key-sorted from the
    router (:meth:`append_sorted`; :meth:`insert` sorts for callers that
    hold them unsorted) and are
    appended as the newest run, which then swallows its predecessor while
    the predecessor is smaller than :data:`RUN_MERGE_RATIO` times it -- the
    whole cascade merged in one pass
    (the Bentley--Saxe logarithmic method, the sorted runs of an LSM tree):
    adjacent runs stay at least that ratio apart, so ``N`` tuples inserted
    ``m`` at a time sit in at most ``log_ratio(N / m) + 1`` runs and each
    tuple is copied ``O(ratio * log_ratio(N / m))`` times over its life --
    not once per later batch, as with one array and :func:`numpy.insert`.
    Counting a batch is one binary search per arrival *per run*:
    ``O(new * runs * log state)``.

    Eviction masks each run by arrival index (two comparisons per entry
    for a sliding window's contiguous range, recognised once per call; one
    :func:`~repro.streaming.window.surviving` membership pass per run
    otherwise), and no array is ever
    modified in place -- every operation swaps in fresh columns -- so run
    arrays handed out as search targets stay valid snapshots.

    The ``(index, keys)`` set is also the unit of state portability:
    checkpoints (:class:`~repro.streaming.checkpoint.StreamCheckpoint`)
    capture the indices, migrations and restores append the key-sorted
    columns to empty state as a single run (:meth:`append_sorted`;
    :meth:`from_indices` sorts them first).  What is preserved is the
    *set* of ``(index, key)`` pairs.  The order among equal keys is
    unspecified -- it differs between an insert, a merge and a rebuild --
    and nothing may depend on it: counts do not, checkpoints sort their
    index columns, ``resident_indices`` is documented as a set.

    All runs of one state share one key dtype, which follows the stream's
    key arrays: integer keys are retained as integers (int64 keys above
    2**53 must not round through float64), floats as float64.  Arrival
    indices are unique within a machine: a machine holds one region, and a
    region routes each tuple at most once.  They are global and stored as
    given (:mod:`repro.streaming.arrivals`).
    """

    __slots__ = ("_runs",)

    #: Resident bytes per retained tuple (float64 key + int64 arrival index).
    BYTES_PER_TUPLE = 16

    def __init__(
        self, index: np.ndarray | None = None, keys: np.ndarray | None = None
    ) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray]]" = []
        if index is not None and len(index):
            self._runs.append((np.asarray(keys), np.asarray(index)))

    @classmethod
    def from_indices(
        cls, indices: np.ndarray, history: np.ndarray
    ) -> "SortedRegionState":
        """Build single-run state for ``indices`` looked up in the key history.

        The history's dtype carries over, so integer-keyed streams keep
        exact integer state across migrations.
        """
        indices = np.asarray(indices, dtype=np.int64)
        indices, keys = sort_arrivals(indices, np.asarray(history)[indices])
        return cls(index=indices, keys=keys)

    def __len__(self) -> int:
        """Number of retained tuples."""
        return sum(len(index) for _, index in self._runs)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the retained state (keys + arrival indices)."""
        return len(self) * self.BYTES_PER_TUPLE

    @property
    def run_keys(self) -> "list[np.ndarray]":
        """Each run's sorted key column, oldest run first (no copy).

        What a count searches: one binary-search pass per run.  The list is
        a snapshot -- later inserts and evictions swap in new arrays and
        never write into these.
        """
        return [keys for keys, _ in self._runs]

    def _merged(self) -> "tuple[np.ndarray, np.ndarray]":
        """The whole state as one key-sorted ``(keys, index)`` pair, uncached."""
        if not self._runs:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        if len(self._runs) == 1:
            return self._runs[0]
        return _merge_sorted(self._runs)

    @property
    def keys(self) -> np.ndarray:
        """Every retained join key, ascending (a read view for tests and tools).

        Merged on demand from the runs -- ``O(state log runs)`` per read
        and nothing is cached, so the state never holds a second copy of
        itself.  The per-batch paths never read it.
        """
        return self._merged()[0]

    @property
    def index(self) -> np.ndarray:
        """Arrival indices parallel to :attr:`keys` (``keys[i]`` is the key
        of history tuple ``index[i]``); merged on demand like :attr:`keys`.
        """
        return self._merged()[1]

    def arrival_indices(self) -> np.ndarray:
        """Every arrival index held, in no particular order.

        One concatenation of the runs' index columns and no merge (the
        single run's own column, uncopied, when there is one): what
        migration planning and checkpoints read, both of which treat it as
        a set.
        """
        if len(self._runs) == 1:
            return self._runs[0][1]
        if not self._runs:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([index for _, index in self._runs])

    def insert(self, new_indices: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
        """Key-sort a batch's arrivals and :meth:`append_sorted` them.

        For callers holding arrivals unsorted; equal keys end up in an
        unspecified order (:func:`~repro.partitioning.base.sort_arrivals`).
        Returns the sorted keys in their own dtype -- the needles the
        batch's count searches with, which descend a large sorted run
        faster than unsorted ones.
        """
        new_indices, new_keys = sort_arrivals(
            np.asarray(new_indices, dtype=np.int64), np.asarray(new_keys)
        )
        self.append_sorted(new_indices, new_keys)
        return new_keys

    def append_sorted(self, new_indices: np.ndarray, new_keys: np.ndarray) -> None:
        """Add key-sorted arrivals as the newest run; merge geometrically.

        ``new_keys`` ascend (NaN last), equal keys in any order,
        ``new_indices`` parallel to them.  Neither array is kept: they may
        be slices of a routed batch or views into a transient shared
        segment, so the run holds copies -- the merge's fresh columns, or
        explicit ones when nothing merges.

        The new run is merged into its predecessor while the predecessor
        is smaller than :data:`RUN_MERGE_RATIO` times it, so the amortised
        copy cost is ``O(new * ratio * log_ratio(state / new))`` and the
        largest run is rewritten only once the runs behind it have grown to
        an eighth of its size.  How far that cascade reaches depends on run
        lengths alone, so it is decided first and the whole suffix of runs
        is merged in one pass (:func:`_merge_sorted`) -- the run list is
        bit-identical to merging pairwise from the newest run back, equal
        keys included.

        The first arrivals into empty state set the dtype (exact integers
        stay integers); a later dtype mismatch promotes *every* run, so a
        mixed int/float stream never truncates a float key into an integer
        slot and all runs keep one dtype.
        """
        if len(new_indices) == 0:
            return
        new_indices = np.asarray(new_indices, dtype=np.int64)
        runs = self._runs
        if runs and runs[0][0].dtype != new_keys.dtype:
            target = np.promote_types(runs[0][0].dtype, new_keys.dtype)
            runs[:] = [(keys.astype(target), index) for keys, index in runs]
            new_keys = new_keys.astype(target)
        # Which suffix of runs the arrivals cascade into is a question of
        # lengths alone, so it is settled before anything is copied.
        first, merged = len(runs), len(new_keys)
        while first and len(runs[first - 1][1]) < RUN_MERGE_RATIO * merged:
            first -= 1
            merged += len(runs[first][1])
        if first < len(runs):
            runs[first:] = [_merge_sorted(runs[first:] + [(new_keys, new_indices)])]
        else:
            runs.append((new_keys.copy(), new_indices.copy()))

    def evict(self, expired: np.ndarray) -> int:
        """Drop the given global arrival indices; return how many were held.

        ``expired`` is the window policy's eviction set for the side --
        sorted ascending and unique; only the tuples this machine actually
        holds are dropped (and counted).  A contiguous ``expired`` (every
        sliding-window eviction) is recognised once, from its ends, and
        masks each run with two comparisons per entry; anything else goes
        through :func:`~repro.streaming.window.surviving` run by run.  A
        run left empty is removed, a run that held none of ``expired`` is
        left untouched.
        """
        if not self._runs or len(expired) == 0:
            return 0
        low, high = expired[0], expired[-1]
        contiguous = high - low + 1 == len(expired)
        dropped = 0
        survivors = []
        for keys, index in self._runs:
            if contiguous:
                keep = (index < low) | (index > high)
            else:
                keep = surviving(index, expired)
            kept = int(np.count_nonzero(keep))
            if kept < len(index):
                dropped += len(index) - kept
                keys, index = keys[keep], index[keep]
            if kept:
                survivors.append((keys, index))
        self._runs = survivors
        return dropped


class DecayedReservoir:
    """A bounded weighted reservoir that favours recent arrivals.

    Entries are ``(priority_key, counter, key)`` triples in a min-heap of
    bounded size.  The Efraimidis--Spirakis priority of an item offered in
    batch ``b`` with weight ``w = decay ** -b`` is ``u ** (1/w)``; comparing
    those directly (or their logs ``ln(u) * decay**b``) underflows once
    ``decay**b`` hits the float floor, which would silently freeze the sample
    on long streams.  Only the *order* matters, so the heap stores the
    doubly-logarithmic rebasing

        priority_key = -ln(-ln(u)) + b * ln(1/decay)

    which is strictly increasing in the original priority and grows only
    linearly with the batch index.  The retained set is exactly the weighted
    sample without replacement.
    """

    def __init__(self, capacity: int, decay: float = 1.0) -> None:
        if capacity <= 0:
            raise ValueError("reservoir capacity must be positive")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.capacity = capacity
        self.decay = decay
        self._log_inv_decay = -math.log(decay)
        self._heap: list[tuple[float, int, float]] = []
        self._counter = 0
        self.tuples_seen = 0

    def __len__(self) -> int:
        """Number of keys currently held in the reservoir."""
        return len(self._heap)

    def add_batch(
        self, keys: np.ndarray, batch_index: int, rng: np.random.Generator
    ) -> None:
        """Offer one micro-batch of keys, all weighted by the batch's age."""
        keys = np.asarray(keys, dtype=np.float64)  # repro: ignore[KEY001]  # reservoir samples feed float EWH boundaries, not join state
        self.tuples_seen += len(keys)
        if len(keys) == 0:
            return
        with np.errstate(divide="ignore"):
            # -ln(-ln u): u -> 0 gives -inf (never sampled), u -> 1 gives +inf.
            priorities = -np.log(-np.log(rng.random(len(keys))))
        priorities += batch_index * self._log_inv_decay
        if len(self._heap) >= self.capacity:
            # Entries below the current minimum can never enter (the heap
            # minimum only rises): drop them vectorised before the heap loop.
            mask = priorities > self._heap[0][0]
            keys, priorities = keys[mask], priorities[mask]
        self._counter = offer_entries(
            self._heap, self.capacity, self._counter, priorities.tolist(), keys.tolist()
        )

    def keys(self) -> np.ndarray:
        """Snapshot of the sampled keys (unordered)."""
        return np.array([entry[2] for entry in self._heap], dtype=np.float64)


class IncrementalHistogram:
    """EWH sample state maintained across micro-batches.

    Parameters
    ----------
    num_machines:
        ``J`` -- the number of regions the rebuilt histogram targets.
    weight_fn:
        The cost model used by coarsening and regionalization.
    capacity:
        Per-side reservoir capacity (the rebuild cost scales with it).
    decay:
        Per-batch retention factor of old samples; 1.0 keeps the whole
        history uniformly, 0.8 halves an old batch's influence roughly every
        three batches.
    config:
        Histogram configuration used by rebuilds.  The sample-matrix size is
        derived from the reservoir size, so the streaming default caps it
        lower than the batch default.
    """

    def __init__(
        self,
        num_machines: int,
        weight_fn: WeightFunction,
        capacity: int = 2048,
        decay: float = 0.8,
        config: EWHConfig | None = None,
    ) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self.num_machines = num_machines
        self.weight_fn = weight_fn
        self.config = config or EWHConfig(max_sample_matrix_size=256)
        self.reservoir1 = DecayedReservoir(capacity, decay)
        self.reservoir2 = DecayedReservoir(capacity, decay)
        self.batches_observed = 0
        self.rebuilds = 0
        self.last_histogram: EquiWeightHistogram | None = None
        self._predicted_imbalance = 1.0

    @property
    def tuples_seen(self) -> int:
        """Total stream tuples observed (both sides)."""
        return self.reservoir1.tuples_seen + self.reservoir2.tuples_seen

    @property
    def sample_tuples(self) -> int:
        """Tuples currently held in the two reservoirs."""
        return len(self.reservoir1) + len(self.reservoir2)

    def observe(self, batch: MicroBatch, rng: np.random.Generator) -> None:
        """Fold one micro-batch into the maintained sample state.

        The decay exponent is the histogram's own observation counter, not
        the source's ``MicroBatch.index``: recency is measured in batches
        *observed*, so any strictly increasing source numbering samples
        identically (and a policy that stops observing does not inflate the
        next observation's weight).
        """
        self.reservoir1.add_batch(batch.keys1, self.batches_observed, rng)
        self.reservoir2.add_batch(batch.keys2, self.batches_observed, rng)
        self.batches_observed += 1

    def can_build(self) -> bool:
        """Whether both sides have sample mass to build from."""
        return len(self.reservoir1) > 0 and len(self.reservoir2) > 0

    def build_partitioning(
        self, condition: JoinCondition, rng: np.random.Generator
    ) -> EWHPartitioning:
        """Rebuild the EWH partitioning from the current sample state.

        Runs sampling/coarsening/regionalization over the reservoir
        snapshots; cost is ``O(capacity)`` work regardless of how long the
        stream has run.
        """
        if not self.can_build():
            raise ValueError(
                "cannot build a histogram before both sides have been observed"
            )
        histogram = build_equi_weight_histogram(
            self.reservoir1.keys(),
            self.reservoir2.keys(),
            condition,
            self.num_machines,
            self.weight_fn,
            config=self.config,
            rng=rng,
        )
        self.last_histogram = histogram
        self.rebuilds += 1
        # Freeze the predicted imbalance at build time: the ratio of the
        # estimated maximum region weight to the no-replication lower bound
        # over the sample the histogram was actually built from.
        lower = self.weight_fn.lower_bound_optimum(
            self.sample_tuples, histogram.total_output, self.num_machines
        )
        if lower > 0 and math.isfinite(lower):
            self._predicted_imbalance = max(
                1.0, histogram.estimated_max_weight / lower
            )
        else:
            self._predicted_imbalance = 1.0
        return EWHPartitioning(histogram)

    def predicted_imbalance(self) -> float:
        """The last build's predicted max/mean region-weight ratio.

        The ratio is scale-free, so it transfers from sample space to the
        live stream: it is the imbalance the histogram *expects* the cluster
        to exhibit if the key distribution has not drifted.  Computed against
        the no-replication lower bound at build time, it is slightly
        conservative (the denominator ignores replicated input), which biases
        the drift detector towards fewer, more certain triggers.
        """
        return self._predicted_imbalance
