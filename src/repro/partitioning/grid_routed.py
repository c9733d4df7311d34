"""Grid-routed partitionings: regions defined over a key-boundary grid.

Both content-sensitive schemes (M-Bucket and EWH) express their regions as
rectangles over a grid whose rows/columns are key ranges.  Routing a tuple is
then: find the grid row (column) containing its join key, and ship it to
every region whose row (column) range covers that index.  Keys outside the
sampled key range clamp into the outermost rows/columns, whose key ranges the
builders extend to +-infinity.

**The slice rule.**  A region's row range is a key range, so its share of a
key-sorted batch is one contiguous slice.  With ``b`` the ascending row
boundaries, ``last = len(b) - 2`` and ``sorted_keys`` the batch in ascending
order (NaN last, as every numpy sort and search orders it), region
``[row_lo..row_hi]`` takes ``sorted_keys[start:stop]`` where::

    start = 0                 if row_lo == 0    else searchsorted(sorted_keys, b[row_lo], "left")
    stop  = len(sorted_keys)  if row_hi == last else searchsorted(sorted_keys, b[row_hi + 1], "left")

This is exactly membership by :func:`~repro.sampling.equidepth.bucket_index`,
the rule :meth:`GridRoutedPartitioning.assign_r1` routes by.  It puts key
``k`` in row ``clip(c(k) - 1, 0, last)``, ``c(k)`` being how many boundaries
are ``<= k`` (all of them for NaN).  For ``row_lo >= 1`` the
lower clamp cannot reach ``row_lo``, so ``row(k) >= row_lo`` iff ``c(k) >=
row_lo + 1`` iff ``b[row_lo] <= k`` (``b`` ascends) -- the keys from ``start``
on; for ``row_lo == 0`` the clamp makes it hold for every key -- ``start =
0``, which is where keys below ``b[0]`` sit.  For ``row_hi < last`` the upper
clamp cannot reach ``row_hi``, so ``row(k) <= row_hi`` iff ``c(k) <= row_hi +
1`` iff ``k < b[row_hi + 1]`` -- the keys before ``stop``; for ``row_hi ==
last`` it holds for every key -- ``stop = len``, which takes in the keys at or
above ``b[-1]`` and the NaNs behind them.  ``start <= stop`` because ``b``
ascends and ``row_lo <= row_hi``, which is why the constructor insists on
both.  Columns and R2 keys likewise.  The rule reads key values only, so any
key-ascending order of the batch hands every region the same set of
tuples: the order among equal keys is left to the sort.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.region import GridRegion, KeyRegion, key_regions
from repro.partitioning.base import Partitioning, Spans
from repro.sampling.equidepth import bucket_index

__all__ = ["GridRoutedPartitioning", "MachineSlices"]


class MachineSlices(NamedTuple):
    """Every machine's slice of ascending keys under the slice rule, as data.

    ``cut_keys`` are the regions' cut keys on one side (float64: every
    region's low cut, then every high cut), and machine ``m``'s slice of
    ascending keys starts where ``first[m]`` says and stops where
    ``last[m]`` says: at cut ``i``'s search position (``searchsorted`` of
    the keys' float64 view, side "left") for ``i < len(cut_keys)``, at 0
    for ``len(cut_keys)`` and at the keys' length for ``len(cut_keys) +
    1``.  Calling it with ascending keys gives every machine's ``(starts,
    stops)``; the count kernel applies the same rule to each run it
    searches (:func:`repro.joins.native.count_half`).
    """

    cut_keys: np.ndarray
    first: np.ndarray
    last: np.ndarray

    def __call__(self, keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Every machine's ``(starts, stops)`` in the ascending ``keys``."""
        if keys.dtype != np.float64:
            keys = keys.astype(np.float64)
        count = self.cut_keys.size
        cuts = np.empty(count + 2, dtype=np.int64)
        cuts[:count] = keys.searchsorted(self.cut_keys)
        cuts[count:] = 0, keys.size
        return cuts[self.first], cuts[self.last]


class GridRoutedPartitioning(Partitioning):
    """A partitioning whose regions are rectangles over a key grid.

    Parameters
    ----------
    row_boundaries, col_boundaries:
        Ascending key boundaries of the grid rows (R1 side) and columns
        (R2 side); arrays of length ``rows + 1`` / ``cols + 1``.
    regions:
        Rectangles in grid-index coordinates.
    scheme_name:
        Reporting name (``CSI`` or ``CSIO``).
    """

    def __init__(
        self,
        row_boundaries: np.ndarray,
        col_boundaries: np.ndarray,
        regions: list[GridRegion],
        scheme_name: str = "grid",
    ) -> None:
        self.row_boundaries = np.asarray(row_boundaries, dtype=np.float64)
        self.col_boundaries = np.asarray(col_boundaries, dtype=np.float64)
        if len(self.row_boundaries) < 2 or len(self.col_boundaries) < 2:
            raise ValueError("boundary arrays must have at least two entries")
        # Routing is a binary search of the boundaries (and, for a sorted
        # batch, of the batch by the boundaries): anything but ascending
        # boundaries misroutes silently instead of failing.
        for name, boundaries in (
            ("row_boundaries", self.row_boundaries),
            ("col_boundaries", self.col_boundaries),
        ):
            if np.isnan(boundaries).any():
                raise ValueError(f"{name} contains NaN: {boundaries}")
            if (boundaries[1:] < boundaries[:-1]).any():
                raise ValueError(f"{name} must ascend: {boundaries}")
        self.regions = list(regions)
        self.scheme_name = scheme_name
        num_rows = len(self.row_boundaries) - 1
        num_cols = len(self.col_boundaries) - 1
        for region in self.regions:
            if min(region.row_lo, region.col_lo) < 0:
                raise ValueError(f"negative coordinates in region {region}")
            if region.row_lo > region.row_hi or region.col_lo > region.col_hi:
                raise ValueError(f"inverted range in region {region}")
            if region.row_hi >= num_rows or region.col_hi >= num_cols:
                raise ValueError(f"region {region} exceeds the grid {num_rows}x{num_cols}")
        # Per side, what the slice rule (module docstring) needs of every
        # region: its low and high boundary keys laid end to end for one
        # search, and whether each end is open (clamped).
        self._cuts = {
            1: self._side_cuts(
                self.row_boundaries, [(r.row_lo, r.row_hi) for r in self.regions]
            ),
            2: self._side_cuts(
                self.col_boundaries, [(r.col_lo, r.col_hi) for r in self.regions]
            ),
        }

    @staticmethod
    def _side_cuts(
        boundaries: np.ndarray, ranges: "list[tuple[int, int]]"
    ) -> "tuple[np.ndarray, list[bool], list[bool]]":
        """``(cut keys, open low ends, open high ends)`` of inclusive index ranges."""
        lows = [lo for lo, _ in ranges]
        highs = [hi + 1 for _, hi in ranges]
        return (
            np.ascontiguousarray(
                boundaries[np.array(lows + highs, dtype=np.int64)], dtype=np.float64
            ),
            [low == 0 for low in lows],
            [high == len(boundaries) - 1 for high in highs],
        )

    # ------------------------------------------------------------------
    # Partitioning API
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self.regions)

    def assign_r1(self, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        rows = bucket_index(self.row_boundaries, keys)
        return [
            np.flatnonzero((rows >= region.row_lo) & (rows <= region.row_hi))
            for region in self.regions
        ]

    def assign_r2(self, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        cols = bucket_index(self.col_boundaries, keys)
        return [
            np.flatnonzero((cols >= region.col_lo) & (cols <= region.col_hi))
            for region in self.regions
        ]

    sorted_arrivals = Partitioning._sort_then_cut

    def cut_spans(self, side: int, keys: np.ndarray) -> Spans:
        """Every region's slice of the ascending ``keys``: the slice rule.

        The rule of the module docstring: no per-region mask, gather or
        sort -- :meth:`machine_slicer` with region ``r`` on machine ``r``.
        :meth:`cut_sorted` hands out these slices.
        """
        regions = len(self.regions)
        slices = self.machine_slicer(side, np.arange(regions), regions)
        starts, stops = slices(np.asarray(keys))
        return Spans(starts.tolist(), stops.tolist())

    def machine_slicer(
        self, side: int, region_to_machine, num_machines: int
    ) -> "MachineSlices":
        """The slice rule per machine, for one placement of the regions.

        Machine ``region_to_machine[r]`` gets region ``r``'s slice, a
        machine holding no region an empty one (:class:`MachineSlices`:
        called with ascending keys, one search of their float64 view and two
        gathers, however many machines there are).
        """
        cut_keys, open_lo, open_hi = self._cuts[side]
        regions = len(open_lo)
        # Where each machine's start and stop are read from: its region's
        # cut, or one of the two ends behind the cuts (0 and n).
        first = np.full(num_machines, 2 * regions, dtype=np.int64)
        last = np.full(num_machines, 2 * regions, dtype=np.int64)
        machines = np.asarray(region_to_machine, dtype=np.int64)[:regions]
        own = np.arange(regions)
        first[machines] = np.where(open_lo, 2 * regions, own)
        last[machines] = np.where(open_hi, 2 * regions + 1, regions + own)
        return MachineSlices(cut_keys, first, last)

    def covers_all(self, side: int) -> bool:
        """Whether every key of ``side`` routes to at least one region."""
        reach = -1
        for low, high in sorted(
            (r.row_lo, r.row_hi) if side == 1 else (r.col_lo, r.col_hi)
            for r in self.regions
        ):
            if low > reach + 1:
                return False
            reach = max(reach, high)
        boundaries = self.row_boundaries if side == 1 else self.col_boundaries
        return reach == len(boundaries) - 2

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def key_regions(self) -> list[KeyRegion]:
        """The regions expressed as rectangles in join-key space."""
        return key_regions(self.regions, self.row_boundaries, self.col_boundaries)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{self.__class__.__name__}(scheme={self.scheme_name!r}, "
            f"regions={self.num_regions}, "
            f"grid={len(self.row_boundaries) - 1}x{len(self.col_boundaries) - 1})"
        )
