"""The tiling algorithms' working set: delta-independent tables of one grid.

Regionalization runs a tiling algorithm on the same grid up to 30 times (its
budget; a ``batch_plan`` build takes 11-12), each time with another weight
threshold ``delta``.  Three things a tiling step needs do not depend on
``delta``:

* the **minimal candidate rectangle** a rectangle shrinks to,
* a minimal rectangle's **weight**, and
* a minimal rectangle's **children** -- the shrunk halves of every
  horizontal split (top to bottom) followed by every vertical split (left to
  right), which is the order the dynamic programs try splits in and
  therefore the order that breaks ties between equally good ones.

A monotonic join's candidate rows have column spans whose two ends both move
right down the grid, or both move left (:meth:`WeightedGrid.span_direction`);
the tables work on spans that move right, mirroring the columns of a grid
whose spans move left.  Four lookups built once per grid then shrink any
rectangle in O(1), the cost per rectangle Lemma 3.5's O(n) bound for the
stage assumes: per row, the position of the next candidate row at or below
it and of the previous one at or above it; per column, the first position
whose span ends at or after it and the last whose span starts at or before
it.  The rows a rectangle keeps run from the larger of its two "first"
lookups to the smaller of its two "last" ones, and its columns are clipped
by the first row's span start and the last row's span end.  The halves of a
split of a minimal rectangle need one such lookup each, so children come in
closed form, with no shrink of the halves.

:class:`TilingTables` builds all of it once, on construction, for every
threshold from a least one on (a regionalization's lower bound, where its
search starts):

* **the closure** -- every minimal rectangle reachable from the whole
  grid's by splitting rectangles heavier than the least threshold, and a
  CSR table of their children -- built by the compiled kernel
  (:func:`repro.joins.native.closure`: integers only, ids from an
  open-addressed table in C) one round of new rectangles at a time, three
  to five rounds on a coarse grid, and
* **the weights** of each round's rectangles in one numpy pass, which say
  which of them split in the next round.

A rectangle no heavier than the least threshold is one region at every
threshold the tables serve, so it needs no children: without that cut the
closure of a single 600-cell row would hold all 180K of its intervals'
children (about 72M entries), where the search needs those of 600.  A tiling
step is then one kernel call (:func:`repro.joins.native.tile`), which reads
nothing but the child table and the leaf thresholds.

**The float order is a contract.**  A rectangle's weight is
``weight_fn.weight(rows + cols, output)`` with ``rows``, ``cols`` and
``output`` formed from the grid's prefix sums by the same subtractions in
the same order as :meth:`WeightedGrid.region_input` and
:meth:`WeightedGrid.region_output`, element by element.  The binary search
compares these weights with ``delta`` and returns one of them as the plan's
estimated maximum, so a reassociated sum would move a region boundary on
some input and a committed golden with it.  ``tests/test_planner_oracle.py``
holds the tables to the grid's public methods and the kernel's tilings to
the Python DP they replaced (``tests/reference_planner.py``), bit for bit.

:meth:`TilingTables.shrink` answers the same lookups for any rectangles;
only the baseline BSP (:mod:`repro.core.bsp`), which tiles every rectangle
of the grid, asks for it.  A ``TilingTables`` belongs to one
``regionalize`` (or one stand-alone tiling) call and dies with it; the grid
keeps only its prefix sums and spans.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import WeightedGrid
from repro.core.weights import WeightFunction
from repro.joins import native

__all__ = ["Rect", "TilingTables"]

#: An inclusive rectangle ``(row_lo, row_hi, col_lo, col_hi)`` of grid cells.
Rect = tuple[int, int, int, int]


class TilingTables:
    """The closure of one weighted grid's minimal rectangles, weighed.

    Attributes
    ----------
    shape:
        ``(num_rows, num_cols)`` of the grid.
    rects:
        ``rects[i]`` is the minimal candidate rectangle with id ``i``
        (int64, one row of ``(row_lo, row_hi, col_lo, col_hi)`` each).
    weights:
        ``weights[i]`` is its weight under the tables' weight function.
    leaf_thresholds:
        The smallest ``delta`` at which rectangle ``i`` needs no split: its
        weight, or ``-inf`` for a single cell (which cannot be split, so it
        is one region however heavy).
    offsets, children:
        Rectangle ``i``'s children are ``children[offsets[i]:offsets[i + 1]]``,
        ``[first_0, second_0, first_1, second_1, ...]``: the halves of each
        split, horizontal splits from the top, then vertical splits from
        the left; none for a rectangle one region at ``least_delta``.  Both
        halves of a split of a minimal rectangle hold candidates (its
        boundary rows and columns do), so every entry is a valid id.
    root:
        Id of the whole grid's minimal candidate rectangle (0), ``-1`` when
        the grid has no candidate cell.
    least_delta:
        The least threshold the tables serve: a rectangle whose leaf
        threshold is no higher has no children.

    Raises
    ------
    ValueError
        If the candidate rows' column spans do not move in one direction
        (:meth:`WeightedGrid.span_direction`): Lemma 3.4, and the lookups
        below, hold only for a monotonic join's grid.
    """

    def __init__(self, grid: WeightedGrid, weight_fn: WeightFunction, least_delta: float) -> None:
        self.shape = num_rows, num_cols = grid.shape
        self._grid, self._weight_fn = grid, weight_fn
        # Descending spans are ascending in mirrored columns: the tables work
        # on column ``num_cols - 1 - c`` in their stead and mirror a
        # rectangle back before they weigh it or hand it out.
        self._mirrored = grid.span_direction() < 0
        span_lo, span_hi = grid._row_cand_spans
        rows = np.flatnonzero(span_lo >= 0)
        lo, hi = span_lo[rows], span_hi[rows]
        if self._mirrored:
            lo, hi = num_cols - 1 - hi, num_cols - 1 - lo
        every_row, every_col = np.arange(num_rows), np.arange(num_cols)
        # The candidate rows by position, with their (ascending) spans; per
        # row, the position of the first candidate row at or below it and of
        # the last at or above it; per column, the first position whose span
        # ends at or after it and the last whose span starts at or before it.
        self._lookups = (
            rows, lo, hi,
            np.searchsorted(rows, every_row),
            np.searchsorted(rows, every_row, side="right") - 1,
            np.searchsorted(hi, every_col),
            np.searchsorted(lo, every_col, side="right") - 1,
        )
        # Each round of the closure weighs the rectangles it met, and those
        # that are one region at every threshold from ``least_delta`` on get
        # no children.
        weighed: list[tuple[np.ndarray, np.ndarray]] = [(np.empty(0), np.empty(0))]

        def split(keys: np.ndarray) -> np.ndarray:
            rects = self._unmirror(keys)
            weights = self.weigh(rects)
            single_cell = (rects[:, 0] == rects[:, 1]) & (rects[:, 2] == rects[:, 3])
            thresholds = np.where(single_cell, -np.inf, weights)
            weighed.append((weights, thresholds))
            return thresholds > least_delta

        keys, self.offsets, self.children = native.closure(*self._lookups, self._mirrored, split)
        self.rects = self._unmirror(keys)
        self.weights, self.leaf_thresholds = map(np.concatenate, zip(*weighed))
        self.least_delta = least_delta
        self.root = 0 if len(keys) else -1

    def _unmirror(self, keys: np.ndarray) -> np.ndarray:
        """Rectangles in the tables' columns, in the grid's (int64 rows of four)."""
        if not self._mirrored:
            return keys
        rects = keys.copy()
        rects[:, 2:] = self.shape[1] - 1 - keys[:, 3:1:-1]
        return rects

    def weigh(self, rects: np.ndarray) -> np.ndarray:
        """The weights of rectangles given as int64 rows of four, in one pass."""
        grid = self._grid
        row_lo, row_hi, col_lo, col_hi = rects.T
        row_prefix, col_prefix, freq_prefix = grid._row_prefix, grid._col_prefix, grid._freq_prefix
        rows = row_prefix[row_hi + 1] - row_prefix[row_lo]
        cols = col_prefix[col_hi + 1] - col_prefix[col_lo]
        output = (
            freq_prefix[row_hi + 1, col_hi + 1] - freq_prefix[row_lo, col_hi + 1]
            - freq_prefix[row_hi + 1, col_lo] + freq_prefix[row_lo, col_lo]
        )
        return self._weight_fn.weight(rows + cols, output)

    def shrink(self, rects: np.ndarray) -> np.ndarray:
        """The minimal candidate rectangles of int64 rows of four; ``-1`` rows hold none.

        The candidate rows reaching into columns ``col_lo..col_hi`` are a
        run of positions: ascending spans end at or after ``col_lo`` from
        some position on and start at or before ``col_hi`` up to some
        position.  The run's first row starts the leftmost span, its last
        row ends the rightmost.
        """
        rows, lo, hi, below, above, first_end, last_start = self._lookups
        row_lo, row_hi, col_lo, col_hi = rects.T
        if self._mirrored:
            mirror = self.shape[1] - 1
            col_lo, col_hi = mirror - col_hi, mirror - col_lo
        first = np.maximum(below[row_lo], first_end[col_lo])
        last = np.minimum(above[row_hi], last_start[col_hi])
        held = first <= last
        first, last = first[held], last[held]
        minimal = np.full((len(rects), 4), -1, dtype=np.int64)
        minimal[held] = self._unmirror(np.stack([
            rows[first], rows[last],
            np.maximum(lo[first], col_lo[held]), np.minimum(hi[last], col_hi[held]),
        ], axis=1))
        return minimal
