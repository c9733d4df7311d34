"""Incremental maintenance of streaming state: histogram samples and join state.

Two kinds of state are maintained incrementally across micro-batches, and
both live here:

* the equi-weight histogram's **sample state** (:class:`DecayedReservoir`,
  :class:`IncrementalHistogram`), so the partitioning can be rebuilt online
  at a cost proportional to the reservoir capacity instead of the stream
  length; and
* the **retained join state** (:class:`SortedRegionState`), a key
  multiset kept as a few key-sorted counted runs merged geometrically --
  held once per side by each state owner
  (:class:`~repro.streaming.backends.StateOwner`), every machine reading it
  through its key range -- so the engine counts a batch's incremental
  output with two searches per new key and run, each a short walk when
  its answer lies a few keys past the previous key's and ``O(log gap)``
  farther (``O(new * runs * log distinct)`` at worst), and folds
  the batch in for an amortised ``O(new * ratio * log_ratio(distinct /
  new))`` copies -- instead of re-sorting and re-scanning the whole state
  every batch (``O(state log state)``) or re-copying it (``O(state)``).

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
  float resolution.  Its heap is Stream-Sample's
  (:class:`~repro.sampling.reservoir.WeightedReservoir`), and a batch is one
  call of the compiled kernel (:func:`repro.joins.native.offer`) -- the same
  heap array the ``heapq`` loop it replaces builds, entry for entry -- so
  observing a batch costs a fixed number of interpreter calls per side,
  however many keys it offers.
* Rebuilding runs the ordinary 3-stage pipeline
  (:func:`~repro.core.histogram.build_equi_weight_histogram`) over the two
  reservoir snapshots.  The cost is proportional to the reservoir capacity,
  not to the stream length -- the whole point of maintaining the state
  incrementally.  What a rebuild keeps is the plan's routing (a
  :class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`) and one
  number, the predicted imbalance; the sample and coarsened matrices are
  intermediate results and are dropped.

The rebuilt plan routes *real* keys correctly because the outermost
region boundaries are opened to +-infinity, and its predicted region-weight
imbalance (a scale-free ratio) is what the drift detector compares against
the live load imbalance.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.histogram import EWHConfig, build_equi_weight_histogram
from repro.core.weights import WeightFunction
from repro.joins import native
from repro.joins.conditions import JoinCondition
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.sampling.reservoir import WeightedReservoir
from repro.streaming.source import MicroBatch

__all__ = ["DecayedReservoir", "IncrementalHistogram", "SortedRegionState"]


#: A new run is merged into its predecessor while the predecessor holds
#: fewer than this many times the *distinct* keys merged so far: the
#: compiled kernel's cascade rule, read from it (``native.c`` defines it,
#: and :func:`repro.joins.native.fold` applies it).  Measured, not
#: tunable: every run is its own search per needle, so a small ratio
#: buys cheap merges with many searches.  Re-measured under the compiled
#: kernel's linear merge, over five interleaved runs each
#: (``docs/streaming.md``, "State layout"): 16 read ahead of 8 on
#: `stream_growth` (median 4,232K vs 4,059K tuples/s, 4/5 runs) but behind
#: on `stream_steady` (3,286K vs 3,467K, 1/5), and 4 behind on both
#: (3,993K, 3,307K), so none beat 8 on both.  Applied to tuple totals
#: instead of distinct lengths it read 20% slower per
#: ``stream_growth``-shaped batch (per-machine runs, PR 31).
RUN_MERGE_RATIO: int = native.RUN_MERGE_RATIO


def _group_ends(keys: np.ndarray) -> np.ndarray:
    """Positions of the last element of every group of equal sorted keys.

    NaN != NaN, so the NaNs -- sorted last -- are made one group by hand.
    """
    last = np.empty(keys.size, dtype=bool)
    last[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    if keys.dtype.kind == "f" and keys[-1] != keys[-1]:
        last[keys.searchsorted(keys[-1]) : -1] = False
    return last.nonzero()[0]


#: The totals of a fold that counts nothing.
_NO_MACHINES = np.zeros(0, dtype=np.int64)


class SortedRegionState:
    """Retained join state on one side: a key multiset in runs.

    The engine's incremental counting needs, per batch and per machine, the
    number of joinable pairs between the batch's few arrivals and the
    machine's (much larger) retained state.  A state owner holds one of
    these per side (or per 1-Bucket draw group) and every machine reads it
    through its key range
    (:class:`~repro.streaming.backends.StateOwner`).  Nothing about a retained tuple
    but its key is ever read -- which machine holds which tuple is the
    router applied to the arrival logs (``docs/streaming.md``, "State
    layout") -- so the state is a key *multiset*: a short list of **runs**,
    each ``(keys, cum)`` with ``keys`` ascending, oldest run first.

    * A **fresh run** is a routed batch's sorted keys as they came, ``cum``
      ``None``: every key counts once.
    * A **tombstone run** is a routed eviction's sorted keys with ``cum =
      -arange(n + 1)``: every key counts minus once (:meth:`tombstone`).
    * A **counted run** is what a merge leaves: distinct ascending keys and
      ``cum``, their cumulative counts, ``cum[0] == 0``.

    Counting needles against a run is ``cum[searchsorted(keys, hi,
    'right')] - cum[searchsorted(keys, lo, 'left')]`` per needle (plain
    position differences for a fresh run), so the per-run counts of live,
    expired and re-arrived keys sum exactly to the live multiset's.  A
    batch's arrivals come key-sorted from the router (:meth:`append_sorted`;
    :meth:`insert` sorts for callers that hold them unsorted) and are
    appended as the newest run, which then swallows its predecessor while
    the predecessor holds fewer than :data:`RUN_MERGE_RATIO` times its
    distinct keys -- the cascade settled and merged by the compiled kernel
    (:func:`repro.joins.native.fold`, handed the runs and the arrivals,
    :meth:`arriving`), inside a stream batch's own fold, which returns the
    run list the state then holds (:meth:`commit`; the Bentley--Saxe
    logarithmic method, the sorted runs of an LSM tree, O'Neil et al. 1996,
    whose tombstones the negative runs are).  Under skew a merged run is
    many times shorter than the tuples it counts, so a side settles at one
    or two short runs.  An eviction appends its tombstones without
    any cascade; the next batch's merge cancels them against the tuples
    they expire and drops the zero counts, so no run is ever masked or
    rewritten to shrink it.  No array and no list of runs is ever modified
    in place, so runs handed out as search targets stay valid snapshots.

    All runs of one state share one key dtype, which follows the stream's
    key arrays: integer keys are retained as integers (int64 keys above
    2**53 must not round through float64), floats as float64.
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: "list[tuple[np.ndarray, np.ndarray | None]]" = []

    @classmethod
    def from_indices(
        cls, indices: np.ndarray, history: np.ndarray
    ) -> "SortedRegionState":
        """Build single-run state of the keys ``history[indices]``.

        The history's dtype carries over, so integer-keyed streams keep
        exact integer state.  Only the keys are kept.
        """
        state = cls()
        state.insert(np.asarray(history)[np.asarray(indices, dtype=np.int64)])
        return state

    def __len__(self) -> int:
        """Number of retained tuples (the multiset's size)."""
        return sum(
            len(keys) if cum is None else int(cum[-1]) for keys, cum in self._runs
        )

    @property
    def nbytes(self) -> int:
        """Resident bytes of the runs' arrays (keys and cumulative counts)."""
        return sum(
            keys.nbytes + (0 if cum is None else cum.nbytes) for keys, cum in self._runs
        )

    @property
    def runs(self) -> "list[tuple[np.ndarray, np.ndarray | None]]":
        """Each run's ``(keys, cum)``, oldest run first (no copy).

        What a count searches: one binary-search pass per run.  The list is
        a snapshot -- later appends swap in new arrays and never write into
        these.
        """
        return list(self._runs)

    @property
    def keys(self) -> np.ndarray:
        """Every retained join key with its multiplicity, ascending.

        A read view for tests and tools, expanded on demand from one merge
        of the runs -- nothing is cached, so the state never holds a second
        copy of itself.  The per-batch paths never read it.
        """
        if not self._runs:
            return np.empty(0, dtype=np.float64)
        keys, cum = self._runs[0]
        if len(self._runs) == 1 and cum is None:
            return keys
        merged = native.fold([(self._runs, None)], [], _NO_MACHINES)[0]
        if not merged:
            return keys[:0]
        ((keys, cum),) = merged
        return np.repeat(keys, np.diff(cum))

    def insert(self, *columns: np.ndarray) -> np.ndarray:
        """Key-sort arrivals and :meth:`append_sorted` them; return the sorted keys.

        ``columns`` is the arrivals' keys, or a routed ``(arrival indices,
        keys)`` pair whose indices are not kept.  For callers holding
        arrivals unsorted; the sorted keys, in their own dtype, are the
        needles a count searches with.
        """
        keys = np.sort(np.asarray(columns[-1]))
        self.append_sorted(keys)
        return keys

    def evict(self, keys: np.ndarray) -> int:
        """Key-sort expired keys and :meth:`tombstone` them; return how many."""
        keys = np.sort(np.asarray(keys))
        self.tombstone(keys)
        return len(keys)

    def arriving(self, keys: np.ndarray) -> "tuple[list, np.ndarray]":
        """The runs and key-sorted arrivals in one dtype: a cascade as the fold takes it.

        The first keys into empty state set the dtype (exact integers stay
        integers); a later mismatch promotes *every* run, so a mixed
        int/float stream never truncates a float key into an integer slot.
        The promotion runs only when the dtypes differ.  The runs come back
        as a list the caller may hold (promoted copies on a mismatch):
        nothing is swapped in until the caller commits the fold's run list
        (:meth:`commit`), and no list of runs is ever changed in place.
        """
        runs = self._runs
        if runs and runs[0][0].dtype != keys.dtype:
            target = np.promote_types(runs[0][0].dtype, keys.dtype)
            runs = [(run.astype(target), cum) for run, cum in runs]
            keys = keys.astype(target)
        return runs, keys

    def commit(self, runs: list) -> None:
        """Hold ``runs``, the run list a fold of this state's cascade returned."""
        self._runs = runs

    def append_sorted(self, keys: np.ndarray) -> None:
        """Add key-sorted arrivals as the newest run; merge geometrically.

        ``keys`` ascend (NaN last).  They are not kept: they may be a slice
        of a routed batch or a view into a transient shared segment, so the
        run holds a copy -- the merge's fresh arrays, or the kernel's copy
        when nothing merges.  The cascade (``(runs, keys)``, :meth:`arriving`)
        is one fold with no half: the kernel decides how far it reaches,
        merges that suffix of runs and returns the run list to hold.
        """
        if keys.size == 0:
            return
        (self._runs,) = native.fold([self.arriving(keys)], [], _NO_MACHINES)

    def install(self, keys: np.ndarray) -> None:
        """Become exactly the key-sorted multiset ``keys``, as one counted run.

        Wholesale state -- a migration's or a restore's routed live keys --
        is counted at once, so later batches cascade into a run of distinct
        keys rather than of tuples.
        """
        if keys.size == 0:
            self._runs = []
            return
        # Every key counts once, so the running total at a group's last
        # element is its position plus one: no sort, no sum.
        last = _group_ends(keys)
        cum = np.empty(last.size + 1, dtype=np.int64)
        cum[0] = 0
        np.add(last, 1, out=cum[1:])
        self._runs = [(keys[last], cum)]

    def tombstone(self, keys: np.ndarray) -> None:
        """Record key-sorted expired keys as one negative run, merging nothing.

        ``keys`` are tuples this state holds (the router's share of an
        expired slice, which the state received when it arrived).  The run
        counts each of them minus once until the next :meth:`append_sorted`
        merge cancels it against the tuple it expires.
        """
        if keys.size == 0:
            return
        runs, keys = self.arriving(keys)
        self._runs = [*runs, (keys.copy(), -np.arange(keys.size + 1, dtype=np.int64))]


class DecayedReservoir(WeightedReservoir):
    """A bounded weighted reservoir that favours recent arrivals.

    The Efraimidis--Spirakis heap of
    :class:`~repro.sampling.reservoir.WeightedReservoir`, its payloads the
    sampled keys.  The priority of an item offered in batch ``b`` with
    weight ``w = decay ** -b`` is ``u ** (1/w)``; comparing those directly
    (or their logs ``ln(u) * decay**b``) underflows once ``decay**b`` hits
    the float floor, which would silently freeze the sample on long
    streams.  Only the *order* matters, so the heap stores the
    doubly-logarithmic rebasing

        priority_key = -ln(-ln(u)) + b * ln(1/decay)

    which is strictly increasing in the original priority and grows only
    linearly with the batch index.  The retained set is exactly the weighted
    sample without replacement.
    """

    def __init__(self, capacity: int, decay: float = 1.0) -> None:
        super().__init__(capacity)
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = decay
        self._log_inv_decay = -math.log(decay)
        self.tuples_seen = 0

    def add_batch(
        self, keys: np.ndarray, batch_index: int, rng: np.random.Generator
    ) -> None:
        """Offer one micro-batch of keys, all weighted by the batch's age.

        A NaN key joins nothing, so it is never offered: no histogram built
        from the sample can get a NaN boundary.  When the heap starts the
        batch full, entries at or below its minimum can never enter (the
        minimum only rises), so they take no counter.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)  # repro: ignore[KEY001]  # reservoir samples feed float EWH boundaries, not join state
        self.tuples_seen += len(keys)
        if len(keys) and np.isnan(keys.min()):
            keys = keys[~np.isnan(keys)]
        if len(keys) == 0:
            return
        with np.errstate(divide="ignore"):
            # -ln(-ln u): u -> 0 gives -inf (never sampled), u -> 1 gives +inf.
            priorities = -np.log(-np.log(rng.random(len(keys))))
        priorities += batch_index * self._log_inv_decay
        self.offer(priorities, keys)


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
    ) -> GridRoutedPartitioning:
        """Rebuild the CSIO plan from the current sample state.

        Runs sampling/coarsening/regionalization over the reservoir
        snapshots; cost is ``O(capacity)`` work regardless of how long the
        stream has run.  The plan is its routing alone -- the coarsened
        grid's key boundaries and the at most ``J`` regions over it -- and
        the build's sample matrix, coarsening and regionalization are
        dropped once it is made: the next batch reads the routing, the
        drift detector the predicted imbalance (:meth:`predicted_imbalance`),
        and nothing else of the build is kept, in the engine or in a
        checkpoint.
        """
        if not self.can_build():
            raise ValueError(
                "cannot build a histogram before both sides have been observed"
            )
        histogram = build_equi_weight_histogram(
            self.reservoir1.payloads(),
            self.reservoir2.payloads(),
            condition,
            self.num_machines,
            self.weight_fn,
            config=self.config,
            rng=rng,
        )
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
        return GridRoutedPartitioning(
            histogram.mc_row_boundaries,
            histogram.mc_col_boundaries,
            histogram.grid_regions,
            scheme_name="CSIO",
        )

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
