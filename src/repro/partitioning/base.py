"""The common interface of all partitioning schemes.

A :class:`Partitioning` routes tuples to regions.  The engine asks it to
assign the R1 and R2 key arrays and receives, for every region, the indexes
of the tuples that must be shipped to the machine owning that region.  A
tuple may be assigned to several regions (replication) or to none (its row or
column intersects no region because it cannot produce output).

The streaming engine keeps every region's state key-sorted, so per batch --
and for the live history a build or migration routes -- it asks the same
question through :meth:`Partitioning.sorted_arrivals`: the
region's share of the batch *already in key order*.  The default answers by
assigning and then sorting each share; a scheme whose regions are key ranges
sorts the batch once and hands out slices
(:class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["Partitioning", "RegionStatistics", "sort_arrivals"]


@dataclass(frozen=True)
class RegionStatistics:
    """Per-region input/output statistics measured after an execution.

    Attributes
    ----------
    input_tuples:
        Tuples received by the region's machine (R1 + R2, after replication).
    output_tuples:
        Output tuples the machine produced.
    """

    input_tuples: int
    output_tuples: int


def sort_arrivals(
    indices: np.ndarray, keys: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Stable key-sort of parallel ``(indices, keys)`` columns, both copied.

    Ascending keys (NaN last), equal keys in their given order -- arrival
    order when ``indices`` ascend.  The one sort behind every key-sorted
    column pair the streaming state is built from.
    """
    order = np.argsort(keys, kind="stable")
    return indices[order], keys[order]


class Partitioning(abc.ABC):
    """Abstract base class of a partitioning scheme's result."""

    #: Short scheme name used in reports (``CI``, ``CSI``, ``CSIO``).
    scheme_name: str = "scheme"

    @property
    @abc.abstractmethod
    def num_regions(self) -> int:
        """Number of regions (machines that can receive work)."""

    @abc.abstractmethod
    def assign_r1(
        self, keys: np.ndarray, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Return, per region, the indexes of R1 tuples routed to it.

        ``rng`` is only used by randomised schemes (1-Bucket); deterministic
        schemes ignore it.
        """

    @abc.abstractmethod
    def assign_r2(
        self, keys: np.ndarray, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Return, per region, the indexes of R2 tuples routed to it."""

    def sorted_arrivals(
        self,
        side: int,
        keys: np.ndarray,
        rng: np.random.Generator,
        offset: int = 0,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per region, its share of one side's batch as key-sorted columns.

        ``side`` is 1 for R1, 2 for R2.  Region ``r`` gets ``(indices,
        keys)``: the batch positions routed to it shifted by ``offset`` (the
        arrival index of the batch's first tuple) and their keys in the
        batch's own dtype, ascending by key with equal keys in arrival
        order.  The default assigns in arrival order -- a randomised scheme
        draws from ``rng`` per tuple in that order, exactly as
        :meth:`assign_r1` / :meth:`assign_r2` do -- then sorts each
        region's share on its own.
        """
        keys = np.asarray(keys)
        assign = self.assign_r1 if side == 1 else self.assign_r2
        return [
            sort_arrivals(np.asarray(local, dtype=np.int64) + offset, keys[local])
            for local in assign(keys, rng)
        ]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def replication_factor(
        self, keys1: np.ndarray, keys2: np.ndarray, rng: np.random.Generator
    ) -> float:
        """Average number of regions each input tuple is shipped to."""
        total = len(keys1) + len(keys2)
        if total == 0:
            return 0.0
        assigned = sum(len(idx) for idx in self.assign_r1(keys1, rng))
        assigned += sum(len(idx) for idx in self.assign_r2(keys2, rng))
        return assigned / total
