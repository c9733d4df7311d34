"""Window policies: bounding the retained state of a streaming join.

An unbounded streaming join retains every tuple forever -- new arrivals on
one side must join the other side's full history, so per-machine state (and
with it the per-batch counting cost) grows linearly with the stream.  A
:class:`WindowPolicy` bounds that growth by declaring, after every processed
micro-batch, which retained tuples are still *live*.  Expired tuples are
evicted from every machine's region state, the freed memory is charged into
:class:`~repro.streaming.metrics.BatchMetrics` (tuples evicted, bytes freed,
resident state), and a later repartitioning migrates only the surviving
tuples (:func:`~repro.streaming.migration.plan_install` routes a log's
live set).

Eviction also reports a **safe trim point** (:meth:`WindowPolicy.trim_point`):
the arrival-index prefix that no liveness bookkeeping can ever reference
again.  Each side's :class:`~repro.streaming.arrivals.ArrivalLog` gives up
the keys and batch starts below it, so a windowed run's total footprint
(history + live sets + state) is O(window), not O(stream).  Every index here
is a global arrival index (:mod:`repro.streaming.arrivals`).  A policy
whose evictions are always the prefix below one index states that index
(:meth:`WindowPolicy.cutoff`), so a log holding its live set as a range
expires by moving the range's start.

Three policies are provided:

* :class:`UnboundedWindow` -- the pre-window behaviour: nothing ever
  expires.  The engine skips all liveness bookkeeping on this fast path.
* :class:`SlidingWindow` -- a hard horizon, expressed either in **batches**
  (a tuple is live for the ``batches`` most recent micro-batches, the
  classic jumping/sliding window) or in **tuples** (only the most recent
  ``tuples`` arrivals per side are live, a count-based window).  Liveness is
  a pure cutoff on the global arrival index, so it is identical on every
  machine -- a replicated tuple expires everywhere at once and can never be
  resurrected by a migration.
* :class:`ExponentialDecayWindow` -- a probabilistic horizon: after each
  batch every live tuple survives independently with probability
  ``survival`` (one uniform per live tuple, drawn from the engine's seeded
  generator; the eviction set is computed once per side and applied to all
  machines, so runs are reproducible and replicas stay consistent).  Tuple
  lifetimes are
  geometric with mean ``1 / (1 - survival)`` batches: recent state dominates
  without a sharp edge, mirroring the decayed reservoir that feeds the
  histogram (:class:`~repro.streaming.incremental.DecayedReservoir`).

Windowed semantics: an output pair is produced exactly when the later tuple
arrives while the earlier one is still live.  Because eviction runs *after*
a batch is counted, a window of one batch still joins each batch against
itself.  Policies are stateless -- liveness is a pure function of the
arrival bookkeeping and the generator -- so one policy instance may be
shared by several engines (``compare_streaming_schemes`` does).
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "WindowPolicy",
    "UnboundedWindow",
    "SlidingWindow",
    "ExponentialDecayWindow",
    "WINDOW_SPEC_FORMS",
    "drop_expired",
    "make_window",
    "surviving",
]

#: Every spec form :func:`make_window` accepts, aliases included.  The
#: factory's own error message derives from this tuple, and spec
#: validators (the query analyzer's QRY005) introspect it to suggest
#: choices without re-stating the grammar.
WINDOW_SPEC_FORMS = (
    "unbounded",
    "none",
    "batches:<n>",
    "sliding:<n>",
    "tuples:<n>",
    "count:<n>",
    "decay:<p>",
)


class WindowPolicy(abc.ABC):
    """Decides, after each batch, which retained tuples remain live.

    The engine calls :meth:`evictions` once per join side per processed
    batch and removes the returned tuples from every machine's region state
    and from its own liveness bookkeeping.  Implementations must be
    stateless: liveness may depend only on the method's arguments, so the
    same policy instance can drive several engines at once.
    """

    #: Reporting name recorded on the run result (e.g. ``"batches:8"``).
    name: str = "window"

    #: True for the no-op policy; lets the engine skip liveness bookkeeping.
    is_unbounded: bool = False

    @abc.abstractmethod
    def evictions(
        self,
        live: np.ndarray,
        batch_starts: list[int],
        total_arrived: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return the arrival indices that expire after the just-processed batch.

        Parameters
        ----------
        live:
            Sorted arrival indices of one side's currently live tuples
            (including this batch's arrivals).
        batch_starts:
            Arrival-index starts of recently processed batches, oldest
            first; ``batch_starts[-1]`` belongs to the batch just processed.
            One entry is appended per *processed* batch (liveness is a
            function of the engine's own batch count, never of a source's
            ``MicroBatch.index`` numbering), and entries below the trim
            point are dropped -- only the suffix a policy can still
            reference is guaranteed to be present.
        total_arrived:
            The side's arrivals so far, this batch included (one past the
            largest arrival index).
        rng:
            The engine's seeded generator, for randomised policies.

        All index arguments are global arrival indices.  The result must
        be a sorted subset of ``live`` (``live`` itself is sorted
        ascending, so any mask or prefix of it qualifies).
        """

    def cutoff(self, batch_starts: list[int], total_arrived: int) -> "int | None":
        """The arrival index everything below which has expired, or ``None``.

        A policy whose every eviction set is the live prefix below one
        global index states that index here (the arguments are
        :meth:`evictions`' own); an arrival log holding its live set as a
        range then expires it by moving a pointer, and never builds the
        array :meth:`evictions` takes (:meth:`ArrivalLog.expire
        <repro.streaming.arrivals.ArrivalLog.expire>`).  ``None``, the
        default, says the policy decides per tuple: :meth:`evictions` is
        asked.  A subclass that overrides :meth:`evictions` of a policy
        stating a cutoff must override this too.
        """
        return None

    def trim_point(self, oldest_live: int) -> int:
        """The arrival-index prefix that is safe to trim away.

        ``oldest_live`` is the smallest live arrival index, or the side's
        arrival count once nothing is live.  Everything strictly below the
        returned index can never be referenced again: eviction cutoffs only
        move forward, so ``oldest_live`` itself is a safe bound for every
        provided policy.  Override only for a policy whose future cutoffs
        can move *backwards* -- such a policy must return the smallest
        index it may still reference.
        """
        return int(oldest_live)


class UnboundedWindow(WindowPolicy):
    """Retain the full history: nothing ever expires (the legacy behaviour)."""

    name = "unbounded"
    is_unbounded = True

    def evictions(self, live, batch_starts, total_arrived, rng):
        """Evict nothing, ever."""
        return np.empty(0, dtype=np.int64)


class SlidingWindow(WindowPolicy):
    """A hard horizon in batches or in tuples (exactly one must be given).

    Parameters
    ----------
    batches:
        A tuple is live for this many micro-batches, counting its arrival
        batch: ``batches=1`` keeps only the current batch's arrivals,
        ``batches=8`` keeps the last eight batches' worth of state.
    tuples:
        Only the most recent ``tuples`` arrivals of each side are live --
        a count-based bound that holds regardless of batch sizes.

    Both forms are global cutoffs on the arrival index, so every machine
    (and every replica of a tuple) agrees on liveness, and a repartitioning
    can never resurrect an expired tuple.
    """

    def __init__(self, batches: int | None = None, tuples: int | None = None) -> None:
        if (batches is None) == (tuples is None):
            raise ValueError("specify exactly one of batches= or tuples=")
        if batches is not None and batches <= 0:
            raise ValueError("batches must be positive")
        if tuples is not None and tuples <= 0:
            raise ValueError("tuples must be positive")
        self.batches = batches
        self.tuples = tuples
        self.name = f"batches:{batches}" if batches is not None else f"tuples:{tuples}"

    def cutoff(self, batch_starts, total_arrived):
        """The batch- or tuple-count cutoff: everything below it has expired.

        The batch cutoff is positional from the *end* of ``batch_starts``
        (the engine's processed-batch count), so it is independent of any
        ``MicroBatch.index`` numbering and survives the list's dead prefix
        being trimmed.  Before the window has filled it is 0: nothing
        expires.
        """
        if self.batches is not None:
            if len(batch_starts) < self.batches:
                return 0
            return batch_starts[-self.batches]
        return max(0, total_arrived - self.tuples)

    def evictions(self, live, batch_starts, total_arrived, rng):
        """Evict the live prefix below :meth:`cutoff`."""
        return live[: np.searchsorted(live, self.cutoff(batch_starts, total_arrived))]


class ExponentialDecayWindow(WindowPolicy):
    """Probabilistic decay: each tuple survives a batch with fixed probability.

    Parameters
    ----------
    survival:
        Per-batch survival probability in ``(0, 1)``.  Lifetimes are
        geometric with mean ``1 / (1 - survival)`` batches, so
        ``survival=0.9`` retains a soft horizon of roughly ten batches.

    Survival is drawn once per live tuple per side per batch (one vectorised
    ``rng.random(len(live))`` call on the engine's seeded generator), and
    the resulting eviction set is applied to every machine -- so runs are
    reproducible and all replicas of a tuple live or die together.  The
    decay applies from a tuple's arrival batch onwards: it is counted
    against the batch it arrives in first, then decays.
    """

    def __init__(self, survival: float) -> None:
        if not 0.0 < survival < 1.0:
            raise ValueError("survival must be in (0, 1)")
        self.survival = survival
        self.name = f"decay:{survival:g}"

    def evictions(self, live, batch_starts, total_arrived, rng):
        """Evict each live tuple independently with probability 1 - survival."""
        if len(live) == 0:
            return live
        return live[rng.random(len(live)) >= self.survival]


def surviving(held: np.ndarray, expired: np.ndarray) -> np.ndarray:
    """Boolean mask over ``held``: which arrival indices are *not* expired.

    The membership test behind :func:`drop_expired`, its one production
    caller: a live set whose eviction is not a prefix of it (a sliding
    window's is, and :meth:`~repro.streaming.arrivals.ArrivalLog.expire`
    moves the live set's start instead).  Retained join state holds keys,
    not arrival indices, so it is never masked: an eviction is a tombstone run
    (:meth:`~repro.streaming.incremental.SortedRegionState.tombstone`).
    ``expired`` must be non-empty, sorted ascending and unique
    (every window policy's eviction set is); ``held`` may be in any order
    and ``expired`` need not be a subset of it.

    A *contiguous* eviction set -- every :class:`SlidingWindow` one is: a
    prefix of the consecutive live indices -- is recognised from its ends
    (``hi - lo + 1 == len(expired)``) and becomes two comparisons per held
    index, no membership test at all.  Anything else
    (:class:`ExponentialDecayWindow`'s random survivors) is one
    ``searchsorted`` of ``held`` into ``expired``, ``O(held log expired)``;
    ``numpy.isin`` would re-sort both arrays on every windowed batch.
    """
    low, high = expired[0], expired[-1]
    if high - low + 1 == len(expired):
        return (held < low) | (held > high)
    positions = np.searchsorted(expired, held)
    positions[positions == len(expired)] = len(expired) - 1
    return expired[positions] != held


def drop_expired(held: np.ndarray, expired: np.ndarray) -> np.ndarray:
    """Drop ``expired`` (sorted, unique) from the index array ``held``.

    :func:`surviving` applied: a live set shrinks through here when its
    eviction is not a prefix of it (decay windows, custom policies).
    ``held`` is returned as is when either side is empty.
    """
    if len(held) == 0 or len(expired) == 0:
        return held
    return held[surviving(held, expired)]


def make_window(spec: "WindowPolicy | str | None") -> WindowPolicy:
    """Build a window policy from a spec string (or pass a policy through).

    Accepted specs::

        make_window(None)             # unbounded (the default)
        make_window("unbounded")      # same, by name ("none" also works)
        make_window("batches:8")      # sliding window of 8 micro-batches
        make_window("sliding:8")      # alias for batches:8
        make_window("tuples:5000")    # most recent 5000 arrivals per side
        make_window("count:5000")     # alias for tuples:5000
        make_window("decay:0.9")      # exponential decay, survival 0.9

    Unknown names raise ``ValueError`` listing the accepted forms.
    """
    if spec is None:
        return UnboundedWindow()
    if isinstance(spec, WindowPolicy):
        return spec
    name, _, argument = spec.partition(":")
    name = name.strip().lower()
    bad_spec = ValueError(
        f"unknown window spec {spec!r} "
        f"(expected one of {', '.join(repr(form) for form in WINDOW_SPEC_FORMS)})"
    )
    if name in ("unbounded", "none") and not argument:
        return UnboundedWindow()
    if name in ("batches", "sliding", "tuples", "count", "decay"):
        # Only the numeric parse is guarded: a malformed argument becomes
        # the spec error, a policy constructor's own ValueError (e.g. a
        # non-positive size) passes through unchanged.
        try:
            value = float(argument) if name == "decay" else int(argument)
        except ValueError:
            raise bad_spec from None
        if name == "decay":
            return ExponentialDecayWindow(value)
        if name in ("batches", "sliding"):
            return SlidingWindow(batches=value)
        return SlidingWindow(tuples=value)
    raise bad_spec
