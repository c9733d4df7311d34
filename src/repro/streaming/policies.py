"""Repartitioning policies: when (and with what) to replace the partitioning.

The engine is scheme-agnostic; a policy decides which partitioning starts the
run and whether to adopt a new one after a batch.  Three policies reproduce
the comparison of interest:

* :class:`StaticOneBucketPolicy` -- 1-Bucket, built once, never changed.
  Immune to skew by construction but pays input replication forever.
* :class:`StaticEWHPolicy` -- the equi-weight histogram built from the first
  observed batch(es) and then frozen: the online analogue of running the
  batch pipeline on a prefix and hoping the distribution holds.
* :class:`DriftAdaptiveEWHPolicy` -- the same initial build, plus a
  :class:`~repro.streaming.drift.DriftDetector` that rebuilds from the
  incrementally maintained sample state when the live imbalance leaves the
  histogram's prediction, paying the migration cost in exchange for restored
  balance.

Policies only pick the *partitioning*; how much state a rebuild actually
moves is the engine's migration planning (partial vs. full migration, see
:mod:`repro.streaming.migration`), and the policy's drift decisions are
deliberately insensitive to it: the detector consumes the batch's live
imbalance *before* migration charges land, and that ratio is invariant under
the region-to-machine remap partial repartitioning performs.  The same
policy therefore triggers at the same batches under either mode and under
any execution backend, which the equivalence tests rely on.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.joins.conditions import JoinCondition
from repro.partitioning.base import Partitioning
from repro.streaming.drift import DriftDetector
from repro.streaming.incremental import IncrementalHistogram
from repro.streaming.metrics import BatchMetrics

__all__ = [
    "RepartitioningPolicy",
    "StaticOneBucketPolicy",
    "StaticEWHPolicy",
    "DriftAdaptiveEWHPolicy",
]


class RepartitioningPolicy(abc.ABC):
    """Decides the initial partitioning and any mid-stream replacement."""

    #: Reporting name used by the benchmark tables.
    scheme_name: str = "policy"

    def ready(self, histogram: IncrementalHistogram) -> bool:
        """Whether enough of the stream has been seen to build a partitioning.

        The engine defers the initial build (and buffers nothing but the
        retained history) until this returns True.
        """
        return True

    def needs_statistics(self, has_partitioning: bool) -> bool:
        """Whether the engine should keep folding batches into the sample state.

        Maintaining the reservoirs costs per-tuple work; policies that will
        never (or never again) build from them let the engine skip it.
        """
        return True

    @abc.abstractmethod
    def initial_partitioning(
        self,
        histogram: IncrementalHistogram,
        condition: JoinCondition,
        rng: np.random.Generator,
    ) -> Partitioning:
        """Build the partitioning that starts the run (first batch observed)."""

    def maybe_repartition(
        self,
        histogram: IncrementalHistogram,
        metrics: BatchMetrics,
        condition: JoinCondition,
        rng: np.random.Generator,
    ) -> Partitioning | None:
        """Return a replacement partitioning, or None to keep the current one.

        Called after every processed batch with that batch's metrics; static
        policies never replace.
        """
        return None

    def predicted_imbalance(self, histogram: IncrementalHistogram) -> float:
        """The imbalance the current partitioning is expected to exhibit."""
        return histogram.predicted_imbalance()

    def resize_partitioning(
        self,
        num_machines: int,
        histogram: IncrementalHistogram,
        condition: JoinCondition,
        rng: np.random.Generator,
    ) -> Partitioning:
        """Build the partitioning for a mid-stream fleet resize.

        The engine calls this when
        :meth:`~repro.streaming.engine.StreamingJoinEngine.resize` changes
        the machine count: the histogram is retargeted at the new fleet and
        rebuilt from the maintained sample state.  Policies that never
        consult statistics (1-Bucket) override this to rebuild their grid
        directly.  The histogram's machine count is mutated in place --
        subsequent drift rebuilds target the new fleet too.
        """
        histogram.num_machines = num_machines
        return histogram.build_partitioning(condition, rng)


class StaticOneBucketPolicy(RepartitioningPolicy):
    """1-Bucket built once; random routing needs no statistics and no rebuilds."""

    scheme_name = "CI-static"

    def __init__(self, num_machines: int) -> None:
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        self.num_machines = num_machines

    def initial_partitioning(self, histogram, condition, rng):
        """Build the 1-Bucket grid, its draws keyed from ``rng``; no statistics."""
        from repro.partitioning.one_bucket import build_one_bucket_partitioning

        return build_one_bucket_partitioning(self.num_machines, int(rng.integers(2**63)))

    def needs_statistics(self, has_partitioning: bool) -> bool:
        """Random routing never consults the sample state."""
        return False

    def predicted_imbalance(self, histogram) -> float:
        """Randomised routing balances in expectation regardless of content."""
        return 1.0

    def resize_partitioning(self, num_machines, histogram, condition, rng):
        """Rebuild the 1-Bucket grid for the new fleet; no statistics needed."""
        from repro.partitioning.one_bucket import build_one_bucket_partitioning

        self.num_machines = num_machines
        return build_one_bucket_partitioning(num_machines, int(rng.integers(2**63)))


class _EWHPolicyBase(RepartitioningPolicy):
    """Shared EWH behaviour: build from the sample state once both sides exist."""

    def ready(self, histogram):
        """Defer the initial build until both sides have sample mass."""
        return histogram.can_build()

    def initial_partitioning(self, histogram, condition, rng):
        """Build the equi-weight histogram from the maintained sample state."""
        return histogram.build_partitioning(condition, rng)


class StaticEWHPolicy(_EWHPolicyBase):
    """The equi-weight histogram built from the stream prefix, then frozen."""

    scheme_name = "CSIO-static"

    def needs_statistics(self, has_partitioning: bool) -> bool:
        """The sample only feeds the one initial build."""
        return not has_partitioning


class DriftAdaptiveEWHPolicy(_EWHPolicyBase):
    """EWH with drift-triggered rebuilds from the maintained sample state."""

    scheme_name = "CSIO-adaptive"

    def __init__(self, detector: DriftDetector | None = None) -> None:
        self.detector = detector or DriftDetector()

    def maybe_repartition(self, histogram, metrics, condition, rng):
        """Rebuild from the sample state when the drift detector fires."""
        # The detector's warm-up and cool-down count processed batches, so
        # they use the engine's own position, not the source's numbering.
        drifted = self.detector.update(
            metrics.stream_position,
            metrics.live_imbalance,
            metrics.predicted_imbalance,
        )
        if not drifted or not histogram.can_build():
            return None
        return histogram.build_partitioning(condition, rng)
