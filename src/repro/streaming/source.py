"""Micro-batched input streams for the online join engine.

A :class:`StreamSource` produces a deterministic, re-iterable sequence of
:class:`MicroBatch` objects, each carrying the join keys that arrived on both
sides during one batch interval.  Two concrete sources are provided:

* :class:`ArrayStreamSource` replays fixed key arrays (for example a
  :class:`~repro.workloads.definitions.JoinWorkload`) in contiguous slices --
  a stationary stream, useful for validating the engine against the batch
  pipeline.
* :class:`DriftingZipfSource` draws each batch from a Zipf(z) multiplicity
  distribution whose skew parameter *and* rank-to-value permutation change at
  a configurable shift point.  Before the shift the stream is near-uniform;
  after it, a few hot values concentrate most of the mass (join product
  skew), and because the permutation is redrawn the hot values *move* -- the
  scenario where a partitioning built from early statistics goes stale.

Sources are re-iterable: every call to :meth:`StreamSource.batches` restarts
the stream from scratch with the same seed, so several engines can consume
identical input.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.joins.conditions import normalise_keys

__all__ = [
    "MicroBatch",
    "StreamSource",
    "ArrayStreamSource",
    "DriftingZipfSource",
    "RateLimitedSource",
]


def _as_key_array(keys) -> np.ndarray:
    """Normalise a key array, preserving exact integer values.

    Delegates to :func:`~repro.joins.conditions.normalise_keys`, the one
    shared rule: integer inputs keep their exact int64 image (coercing
    them to ``float64`` silently rounds integer join keys above 2**53 and
    can change join output -- two distinct keys collapse onto one float);
    everything else, including the pathological uint64 beyond int64 range,
    is coerced to ``float64`` as before.
    """
    return normalise_keys(keys)


@dataclass(frozen=True)
class MicroBatch:
    """One batch interval's worth of arrivals on both join sides.

    Attributes
    ----------
    index:
        Zero-based batch sequence number.
    keys1, keys2:
        Join keys that arrived on the R1 and R2 side during the interval
        (either may be empty).  Dtypes are preserved end-to-end: integer
        keys stay integers through the engine's history and region state,
        so int64 keys above 2**53 never lose precision.
    """

    index: int
    keys1: np.ndarray
    keys2: np.ndarray

    @property
    def num_tuples(self) -> int:
        """Total arrivals in the batch (both sides)."""
        return len(self.keys1) + len(self.keys2)


class StreamSource(abc.ABC):
    """A deterministic, re-iterable producer of micro-batches."""

    @property
    @abc.abstractmethod
    def num_batches(self) -> int:
        """Number of batches the stream produces."""

    @abc.abstractmethod
    def batches(self) -> Iterator[MicroBatch]:
        """Yield the stream's micro-batches from the beginning."""

    def __iter__(self) -> Iterator[MicroBatch]:
        """Iterate the stream from the beginning (alias for :meth:`batches`)."""
        return self.batches()

    @property
    def total_tuples(self) -> int:
        """Total arrivals over the whole stream.

        The base implementation materialises the stream to count; sources
        (and wrappers) that already know the answer override it with an
        O(1) computation so pipeline bookkeeping never replays the stream.
        """
        return sum(batch.num_tuples for batch in self.batches())


class ArrayStreamSource(StreamSource):
    """Replay fixed key arrays as a stream of contiguous micro-batches.

    Both sides are cut into ``num_batches`` near-equal contiguous slices in
    arrival order, so batch ``i`` of a replayed workload contains the same
    tuples on every iteration.  Integer key arrays keep their dtype -- an
    int64 workload replays exactly, even for keys above 2**53 that a
    ``float64`` coercion would silently round.
    """

    def __init__(
        self, keys1: np.ndarray, keys2: np.ndarray, num_batches: int
    ) -> None:
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        self.keys1 = _as_key_array(keys1)
        self.keys2 = _as_key_array(keys2)
        self._num_batches = num_batches

    @property
    def num_batches(self) -> int:
        """Number of slices the arrays are replayed as."""
        return self._num_batches

    @property
    def total_tuples(self) -> int:
        """Both arrays' combined length, without replaying the stream."""
        return len(self.keys1) + len(self.keys2)

    def batches(self) -> Iterator[MicroBatch]:
        """Yield the arrays as contiguous, near-equal micro-batches."""
        splits1 = np.array_split(self.keys1, self._num_batches)
        splits2 = np.array_split(self.keys2, self._num_batches)
        for index, (part1, part2) in enumerate(zip(splits1, splits2)):
            yield MicroBatch(index=index, keys1=part1, keys2=part2)


class DriftingZipfSource(StreamSource):
    """A band-join friendly stream whose skew shifts mid-stream.

    Every batch draws ``tuples_per_batch`` keys per side over the integer
    domain ``[domain_min, domain_min + num_values)`` with Zipf(z)
    multiplicities -- an independent multinomial realisation per side (and
    per batch), so R1 and R2 are never the same multiset; they only share
    the skew distribution.  The rank-to-value permutation is fixed *within*
    a phase (so the hot values persist batch after batch and the skew is a
    stable property of the stream, as with a trending key in production
    traffic) and redrawn at the shift, so the post-shift hot spot lands
    somewhere a partitioning built on the early phase never anticipated.
    Both sides share the phase permutation, which aligns the hot values
    across sides and turns the frequency skew into join *product* skew.

    Parameters
    ----------
    num_batches:
        Length of the stream.
    tuples_per_batch:
        Arrivals per side per batch.
    num_values:
        Distinct key values in the domain.
    z_initial, z_final:
        Zipf skew before and after the shift (``z_initial`` near 0 is
        near-uniform).
    shift_at_batch:
        First batch drawn from the post-shift distribution; ``None`` (or a
        value >= ``num_batches``) yields a stationary stream.
    z_schedule:
        Optional override: a callable ``batch_index -> z`` replacing the
        two-phase schedule (the permutation still changes at
        ``shift_at_batch``).
    domain_min:
        Smallest key value.
    seed:
        Seed of the stream; iterating twice yields identical batches.
    """

    def __init__(
        self,
        num_batches: int,
        tuples_per_batch: int,
        num_values: int,
        z_initial: float = 0.1,
        z_final: float = 1.0,
        shift_at_batch: int | None = None,
        z_schedule: Callable[[int], float] | None = None,
        domain_min: int = 1,
        seed: int = 0,
    ) -> None:
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        if tuples_per_batch <= 0:
            raise ValueError("tuples_per_batch must be positive")
        if num_values <= 0:
            raise ValueError("num_values must be positive")
        self._num_batches = num_batches
        self.tuples_per_batch = tuples_per_batch
        self.num_values = num_values
        self.z_initial = z_initial
        self.z_final = z_final
        self.shift_at_batch = shift_at_batch
        self.z_schedule = z_schedule
        self.domain_min = domain_min
        self.seed = seed

    @property
    def num_batches(self) -> int:
        """Length of the stream in micro-batches."""
        return self._num_batches

    @property
    def total_tuples(self) -> int:
        """Exact stream volume (two fixed-size sides), computed in O(1)."""
        return 2 * self.tuples_per_batch * self._num_batches

    def _z_of(self, batch_index: int) -> float:
        if self.z_schedule is not None:
            return float(self.z_schedule(batch_index))
        if self.shift_at_batch is not None and batch_index >= self.shift_at_batch:
            return self.z_final
        return self.z_initial

    def _phase_of(self, batch_index: int) -> int:
        if self.shift_at_batch is None:
            return 0
        return 0 if batch_index < self.shift_at_batch else 1

    def batches(self) -> Iterator[MicroBatch]:
        """Yield the drifting-Zipf batches deterministically from the seed."""
        from repro.data.zipf import sample_zipf_multiplicities

        rng = np.random.default_rng(self.seed)
        values = np.arange(
            self.domain_min, self.domain_min + self.num_values, dtype=np.int64
        )
        # One permutation per phase, drawn up front so the per-batch draws
        # cannot perturb it.
        permutations = [rng.permutation(values), rng.permutation(values)]
        for index in range(self._num_batches):
            phase_values = permutations[self._phase_of(index)]
            sides = []
            for _ in range(2):
                # One multinomial draw per side: R1 and R2 share the skew
                # distribution and the phase permutation (so the hot values
                # align across sides and the skew becomes join product
                # skew) but are independent realisations, not copies of
                # one multiset.
                counts = sample_zipf_multiplicities(
                    self.num_values, self.tuples_per_batch, self._z_of(index), rng
                )
                keys = np.repeat(phase_values, counts).astype(np.float64)  # repro: ignore[KEY001]  # drifting-Zipf source emits small-domain float keys by design
                rng.shuffle(keys)
                sides.append(keys)
            yield MicroBatch(index=index, keys1=sides[0], keys2=sides[1])


class RateLimitedSource(StreamSource):
    """Attach a wall-clock arrival schedule to an existing stream.

    The wrapper changes *when* batches become available, never what they
    contain: batch ``i`` arrives at ``(i + 1) * seconds_per_batch`` (one
    interval elapses while a batch's tuples are being collected).  The
    :class:`~repro.streaming.pipeline.StreamingPipeline` reads the schedule
    through :meth:`arrival_time` -- its threaded mode sleeps the producer
    until each batch is due, its simulated mode uses the times directly as
    deterministic event timestamps.  Consuming the source outside a
    pipeline (e.g. ``engine.run(rate_limited)``) ignores the schedule and
    behaves exactly like the wrapped source.

    Parameters
    ----------
    inner:
        The stream being scheduled.
    seconds_per_batch:
        Interval between consecutive batch arrivals (must be positive).
    """

    def __init__(self, inner: StreamSource, seconds_per_batch: float) -> None:
        if seconds_per_batch <= 0:
            raise ValueError("seconds_per_batch must be positive")
        self.inner = inner
        self.seconds_per_batch = float(seconds_per_batch)

    @property
    def num_batches(self) -> int:
        """Length of the wrapped stream."""
        return self.inner.num_batches

    @property
    def total_tuples(self) -> int:
        """The wrapped stream's volume; never re-materialises the stream.

        Delegates to the inner source, which knows its own count (O(1) for
        the provided sources) -- the wrapper adds timing metadata only.
        """
        return self.inner.total_tuples

    def arrival_time(self, position: int) -> float:
        """Seconds from stream start until batch ``position`` is available."""
        return (position + 1) * self.seconds_per_batch

    def batches(self) -> Iterator[MicroBatch]:
        """Yield the wrapped stream's batches (the schedule is metadata)."""
        return self.inner.batches()
