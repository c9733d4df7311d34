"""The common interface of all partitioning schemes.

A :class:`Partitioning` routes tuples to regions: for every region, the
tuples that must be shipped to the machine owning it.  A tuple may be
assigned to several regions (replication) or to none (its row or column
intersects no region because it cannot produce output).

Both engines ask one routing question, :meth:`Partitioning.sorted_arrivals`:
a region's share of a side *already in key order*, asked through one route
(:mod:`repro.partitioning.routing`).  The streaming engine routes every
batch, eviction and the live history a build, migration or checkpoint
routes, because it keeps every region's state key-sorted; batch execution
(:func:`~repro.engine.cluster.run_partitioned_join` and the multiprocess
executor) routes each side once, so every region's R2 share arrives sorted
for the count.  The default answers by assigning
(:meth:`assign_r1` / :meth:`assign_r2`) and then sorting each share; a scheme
whose regions are key ranges sorts the side once and hands out slices
(:class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`), and a side
already sorted is cut by :meth:`Partitioning.cut_sorted`.  The schemes here
route as a pure function of each tuple's key and global arrival index -- none
draws from ``rng`` to route -- so routing the same tuples again reproduces
the shares exactly.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Partitioning", "Spans", "sort_arrivals"]


def _named(local: np.ndarray, offset: "int | np.ndarray") -> np.ndarray:
    """Global arrival indices of batch positions ``local`` (see ``offset``)."""
    return offset[local] if isinstance(offset, np.ndarray) else local + offset


def sort_arrivals(
    indices: np.ndarray, keys: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Key-sort of parallel ``(indices, keys)`` columns, both copied.

    Ascending keys (NaN last); the order among equal keys is unspecified
    but deterministic for a given input and numpy build.  Nothing reads it
    -- a count searches by key value, and state is a set of ``(index,
    key)`` pairs -- so this is numpy's default (unstable, vectorised) sort,
    several times faster than the stable one on unsorted arrivals.  An
    argsort and two gathers: the sort for shares that read arrival indices
    (the default :meth:`Partitioning.sorted_arrivals`, and a side's live
    tuples under a plan that routes by index,
    :func:`~repro.streaming.migration.sorted_live`).  Key-range shares read
    keys alone, so their sorts are values sorts (``np.sort``), several
    times faster again.
    """
    order = np.argsort(keys)
    return indices[order], keys[order]


@dataclass(eq=False, slots=True)
class Spans:
    """Shares of one key-sorted side as slices: share ``i`` is ``[starts[i], stops[i])``.

    Per region of a plan (:meth:`Partitioning.cut_spans`, as int lists, which
    a batch route slices by directly), or per machine of a placement
    (:func:`~repro.streaming.migration.held_by_machine`, as int arrays).
    ``len`` is the number of shares.
    """

    starts: "Sequence[int]"
    stops: "Sequence[int]"

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def sizes(self) -> np.ndarray:
        """Tuples per share."""
        return np.subtract(self.stops, self.starts, dtype=np.int64)

    def columns(
        self, indices: np.ndarray, keys: np.ndarray
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Each share's ``(indices, keys)`` columns: views of the sorted side."""
        return [
            (indices[start:stop], keys[start:stop])
            for start, stop in zip(self.starts, self.stops)
        ]

    def padded(self, count: int) -> "Spans":
        """These shares followed by empty ones, ``count`` in all, as arrays."""
        starts = np.zeros(count, dtype=np.int64)
        stops = np.zeros(count, dtype=np.int64)
        starts[: len(self)], stops[: len(self)] = self.starts, self.stops
        return Spans(starts, stops)

    def overlaps(self, other: "Spans") -> np.ndarray:
        """``len(self[i] & other[j])`` for every pair: span arithmetic.

        Both must cut the same sort, whose positions are its tuples one to
        one, so an intersection of slices is the intersection of shares:
        ``max(0, min(stop_i, stop_j) - max(start_i, start_j))``.
        """
        low = np.maximum.outer(self.starts, other.starts)
        high = np.minimum.outer(self.stops, other.stops)
        return np.maximum(high - low, 0)


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

        ``rng`` is there for randomised schemes; every scheme shipped here
        ignores it (1-Bucket draws from a key fixed per plan).
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
        offset: "int | np.ndarray" = 0,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per region, its share of one side's batch as key-sorted columns.

        The routing question both engines ask (module docstring).  ``side``
        is 1 for R1, 2 for R2.  ``offset`` names the tuples: the global
        arrival index of ``keys[0]`` when the batch is contiguous, or an
        array of every key's index.  Region ``r`` gets ``(indices, keys)``:
        the indices of the tuples routed to it and their keys in the
        batch's own dtype, ascending by key (NaN last); the order among
        equal keys is unspecified (:func:`sort_arrivals`).  The default
        assigns in arrival order -- a randomised scheme draws from ``rng``
        per tuple in that order, exactly as :meth:`assign_r1` /
        :meth:`assign_r2` do -- then sorts each region's share on its own;
        a scheme that cuts key-sorted tuples directly sorts the batch once
        and calls :meth:`cut_sorted`.
        """
        keys = np.asarray(keys)
        assign = self.assign_r1 if side == 1 else self.assign_r2
        return [
            sort_arrivals(_named(np.asarray(local, dtype=np.int64), offset), keys[local])
            for local in assign(keys, rng)
        ]

    def _sort_then_cut(
        self,
        side: int,
        keys: np.ndarray,
        rng: np.random.Generator,
        offset: "int | np.ndarray" = 0,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """:meth:`sorted_arrivals` of a scheme that overrides :meth:`cut_sorted`.

        One key sort of the batch, numpy's default, so equal keys come out
        in an unspecified (deterministic) order, as :func:`sort_arrivals`
        leaves them; the shares are cut from two arrays made here, never
        from ``keys``.
        """
        keys = np.asarray(keys)
        order = np.argsort(keys)
        return self.cut_sorted(side, keys[order], _named(order, offset), rng)

    def cut_spans(self, side: int, keys: np.ndarray) -> "Spans | None":
        """Per region, its share of ascending ``keys`` as a slice, or ``None``.

        A scheme whose regions are key ranges hands every region one
        contiguous ``keys[starts[r]:stops[r]]`` of a key-sorted side and
        says so here; the default -- shares that are not slices -- returns
        ``None``.  A migration between two plans that cut the same sort
        into slices overlaps them by span arithmetic and installs the sort
        itself, sliced (:func:`~repro.streaming.migration.plan_install`).
        """
        return None

    def share_groups(self, side: int) -> np.ndarray:
        """Per region, which group of identical shares of ``side`` it receives.

        Regions in one group are routed the same tuples of that side, so a
        state owner keeps their state once (1-Bucket: every region of a grid
        row gets the same R1 tuples).  Read for plans whose shares are not
        key ranges; a
        :class:`~repro.partitioning.grid_routed.GridRoutedPartitioning`'s
        are, and are read from one state by range instead.  The default:
        every region its own group.
        """
        return np.arange(self.num_regions)

    def cut_sorted(
        self,
        side: int,
        keys: np.ndarray,
        indices: np.ndarray,
        rng: np.random.Generator,
    ) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Per region, its share of key-sorted tuples as ``(indices, keys)``.

        ``keys`` ascend (NaN last) and ``indices`` are their global arrival
        indices -- a side's live tuples sorted once
        (:func:`~repro.streaming.migration.sorted_live`), cut by one plan
        after another.  A scheme with :meth:`cut_spans` hands out those
        slices (views of ``indices`` and ``keys``); the default routes the
        tuples like a batch (:meth:`sorted_arrivals`); a scheme whose shares
        are subsequences overrides it.
        """
        spans = self.cut_spans(side, keys)
        if spans is None:
            return self.sorted_arrivals(side, keys, rng, indices)
        return spans.columns(indices, keys)

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
