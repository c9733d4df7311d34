"""Drift detection: when does the live load stop matching the histogram?

The equi-weight histogram predicts, at build time, the maximum-to-mean
region-weight ratio the cluster should exhibit (a scale-free imbalance).  As
long as the stream's key distribution matches the sample the histogram was
built from, the measured per-batch load imbalance hovers around that
prediction; when skew drifts, the measured imbalance climbs while the
prediction stays flat.  :class:`DriftDetector` smooths the measured ratio
with an EWMA (single noisy batches must not trigger a repartitioning, whose
migration cost is real) and signals drift when the smoothed value exceeds the
prediction by a configurable factor, subject to a warm-up and a cool-down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DriftDetector"]


@dataclass
class DriftDetector:
    """EWMA comparison of live versus predicted load imbalance.

    Parameters
    ----------
    threshold:
        Trigger factor: drift is signalled when the smoothed live imbalance
        exceeds ``threshold * predicted_imbalance``.
    ewma_alpha:
        Weight of the newest batch in the smoothed imbalance (1.0 disables
        smoothing).
    warmup_batches:
        Batches observed before the detector may trigger at all (the first
        partitioning is built from very little sample mass).
    cooldown_batches:
        Minimum batches between two triggers, giving a fresh partitioning
        time to show its effect before it can be declared stale.

    Between batches it holds two numbers, the EWMA and the batch of its
    last trigger, and no per-batch record: each batch's live imbalance and
    whether it repartitioned are in the run's
    :class:`~repro.streaming.metrics.BatchMetrics`.  The EWMA the last
    trigger fired on stays readable (:attr:`fired_imbalance`).
    """

    threshold: float = 1.5
    ewma_alpha: float = 0.5
    warmup_batches: int = 2
    cooldown_batches: int = 3
    _smoothed: float | None = field(default=None, repr=False)
    _last_trigger: int | None = field(default=None, repr=False)
    _fired: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Validate the threshold and smoothing parameters."""
        if self.threshold <= 1.0:
            raise ValueError("threshold must exceed 1.0")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")

    @property
    def smoothed_imbalance(self) -> float:
        """Current EWMA of the live imbalance (1.0 before any update)."""
        return self._smoothed if self._smoothed is not None else 1.0

    @property
    def fired_imbalance(self) -> float | None:
        """The EWMA the last trigger fired on (``None`` before any trigger).

        A trigger restarts the EWMA, so :attr:`smoothed_imbalance` reads
        1.0 right after it; this keeps the value the decision was taken on.
        It describes that decision, not the state the next batch reads, so
        a pickle (a checkpoint) leaves it out.
        """
        return self._fired

    def __getstate__(self) -> dict:
        """The pickled state: every field but :attr:`fired_imbalance`'s."""
        state = dict(self.__dict__)
        state.pop("_fired", None)
        return state

    def update(
        self,
        batch_index: int,
        live_imbalance: float,
        predicted_imbalance: float,
    ) -> bool:
        """Fold in one batch's measured imbalance; return True on drift."""
        if self._smoothed is None:
            self._smoothed = live_imbalance
        else:
            self._smoothed = (
                self.ewma_alpha * live_imbalance
                + (1.0 - self.ewma_alpha) * self._smoothed
            )

        in_warmup = batch_index < self.warmup_batches
        in_cooldown = (
            self._last_trigger is not None
            and batch_index - self._last_trigger < self.cooldown_batches
        )
        triggered = (
            not in_warmup
            and not in_cooldown
            and self._smoothed > self.threshold * max(predicted_imbalance, 1.0)
        )
        if triggered:
            self._last_trigger = batch_index
            self._fired = self._smoothed
            # The repartitioning resets the live load profile; restart the
            # EWMA so stale pre-rebuild imbalance cannot re-trigger.
            self._smoothed = None
        return triggered
