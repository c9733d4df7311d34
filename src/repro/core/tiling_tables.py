"""The tiling algorithms' working set: delta-independent tables of one grid.

Regionalization runs a tiling algorithm on the same grid up to 30 times (its
budget; a ``batch_plan`` build takes 11-12), each time with another weight
threshold ``delta``.  Three things a tiling step needs do not depend on
``delta``:

* the **minimal candidate rectangle** a rectangle shrinks to,
* a minimal rectangle's **weight**, and
* a minimal rectangle's **child list** -- the shrunk halves of every
  horizontal split (top to bottom) followed by every vertical split (left to
  right), which is the order the dynamic programs try splits in and
  therefore the order that breaks ties between equally good ones.

:class:`TilingTables` answers each of them in O(1), the cost per rectangle
Lemma 3.5's O(n) bound for the stage assumes.  A monotonic join's candidate
rows have column spans whose two ends both move right down the grid, or both
move left (:meth:`WeightedGrid.span_direction`); the tables work on spans
that move right, mirroring the columns of a grid whose spans move left.
Four lists built once per grid then shrink any rectangle: per row, the
position of the next candidate row at or below it and of the previous one at
or above it; per column, the first position whose span ends at or after it
and the last whose span starts at or before it.  The rows a rectangle keeps
run from the larger of its two "first" lookups to the smaller of its two
"last" ones, and its columns are clipped by the first row's span start and
the last row's span end.  The halves of a split of a minimal rectangle need
one such lookup each, so a child list is built in closed form, with no shrink
of the halves and no memo of un-shrunk rectangles.

Weights and child lists are computed on first use and kept, so the first
step of a binary search pays for the rectangles it visits and every later
step is list lookups and integer adds.  Rectangles are plain
``(row_lo, row_hi, col_lo, col_hi)`` tuples; every *minimal* rectangle met
gets a dense integer id -- the id table holds minimal rectangles only -- and
weights and child lists are Python lists indexed by that id (a
:class:`~repro.core.region.GridRegion` is built only for the regions a
tiling returns).  The prefix sums and per-row candidate spans are the grid's
own arrays, which the grid builds on this first read, copied to Python
lists: a float taken out of a list is the same IEEE double numpy held, and
list indexing is several times cheaper than numpy scalar indexing.
:meth:`WeightedGrid.minimal_candidate_rectangle` keeps its own pass over a
rectangle's rows for queries on arbitrary grids;
``tests/test_planner_oracle.py`` holds the two to the same answer on every
sub-rectangle of span-monotone grids.

**The float order is a contract.**  A rectangle's weight is
``weight_fn.weight(rows + cols, output)`` with ``rows``, ``cols`` and
``output`` formed from the same prefix sums, by the same subtractions in the
same order, as :meth:`WeightedGrid.region_input` and
:meth:`WeightedGrid.region_output`.  The binary search compares these weights
with ``delta`` and returns one of them as the plan's estimated maximum, so a
reassociated sum would move a region boundary on some input and a committed
golden with it.  ``tests/test_planner_oracle.py`` holds the tables to the
grid's public methods and to the pre-tables implementation, bit for bit.

A ``TilingTables`` belongs to one ``regionalize`` (or one stand-alone tiling)
call and dies with it; the grid keeps only its prefix sums and spans.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import WeightedGrid
from repro.core.weights import WeightFunction

__all__ = ["Rect", "TilingTables"]

#: An inclusive rectangle ``(row_lo, row_hi, col_lo, col_hi)`` of grid cells.
Rect = tuple[int, int, int, int]


class TilingTables:
    """Lazily filled weight / child-list tables of one weighted grid.

    Attributes
    ----------
    shape:
        ``(num_rows, num_cols)`` of the grid.
    rects:
        ``rects[i]`` is the minimal candidate rectangle with id ``i``.
    weights:
        ``weights[i]`` is its weight under the tables' weight function.
    leaf_thresholds:
        The smallest ``delta`` at which rectangle ``i`` needs no split: its
        weight, or ``-inf`` for a single cell (which cannot be split, so it
        is one region however heavy).
    root:
        Id of the whole grid's minimal candidate rectangle, ``-1`` when the
        grid has no candidate cell.

    Raises
    ------
    ValueError
        If the candidate rows' column spans do not move in one direction
        (:meth:`WeightedGrid.span_direction`): Lemma 3.4, and the lookups
        below, hold only for a monotonic join's grid.
    """

    def __init__(self, grid: WeightedGrid, weight_fn: WeightFunction) -> None:
        self.shape = num_rows, num_cols = grid.shape
        self._weight = weight_fn.weight
        self._freq_prefix: list[list[float]] = grid._freq_prefix.tolist()
        self._row_prefix: list[float] = grid._row_prefix.tolist()
        self._col_prefix: list[float] = grid._col_prefix.tolist()
        # Descending spans are ascending in mirrored columns: the tables work
        # on column ``num_cols - 1 - c`` in their stead and mirror a
        # rectangle back when they weigh it or hand it out.
        self._mirrored = grid.span_direction() < 0
        span_lo, span_hi = grid._row_cand_spans
        rows = np.flatnonzero(span_lo >= 0)
        lo, hi = span_lo[rows], span_hi[rows]
        if self._mirrored:
            lo, hi = num_cols - 1 - hi, num_cols - 1 - lo
        every_row, every_col = np.arange(num_rows), np.arange(num_cols)
        # The candidate rows by position, with their (ascending) spans.
        self._rows: list[int] = rows.tolist()
        self._lo: list[int] = lo.tolist()
        self._hi: list[int] = hi.tolist()
        # Per row: the position of the first candidate row at or below it
        # and of the last at or above it.
        self._next: list[int] = np.searchsorted(rows, every_row).tolist()
        self._prev: list[int] = (np.searchsorted(rows, every_row, side="right") - 1).tolist()
        # Per column: the first position whose span ends at or after it and
        # the last whose span starts at or before it.
        self._first: list[int] = np.searchsorted(hi, every_col).tolist()
        self._last: list[int] = (np.searchsorted(lo, every_col, side="right") - 1).tolist()
        self.rects: list[Rect] = []
        self.weights: list[float] = []
        self.leaf_thresholds: list[float] = []
        self._keys: list[Rect] = []  # rects[i] in the tables' own columns
        self._children: list[list[int] | None] = []
        self._ids: dict[Rect, int] = {}
        self.root = self.shrink((0, num_rows - 1, 0, num_cols - 1)) if self._rows else -1

    def shrink(self, rect: Rect) -> int:
        """Id of the minimal candidate rectangle of ``rect`` (-1: no candidates).

        The candidate rows reaching into columns ``col_lo..col_hi`` are a
        run of positions: ascending spans end at or after ``col_lo`` from
        some position on and start at or before ``col_hi`` up to some
        position.  The run's first row starts the leftmost span, its last
        row ends the rightmost.
        """
        row_lo, row_hi, col_lo, col_hi = rect
        if self._mirrored:
            mirror = self.shape[1] - 1
            col_lo, col_hi = mirror - col_hi, mirror - col_lo
        first = max(self._next[row_lo], self._first[col_lo])
        last = min(self._prev[row_hi], self._last[col_hi])
        if first > last:
            return -1
        key = (self._rows[first], self._rows[last],
               max(self._lo[first], col_lo), min(self._hi[last], col_hi))
        rect_id = self._ids.get(key)
        return self._weigh(key) if rect_id is None else rect_id

    def _weigh(self, key: Rect) -> int:
        """Give a minimal rectangle met for the first time its id and weight."""
        row_lo, row_hi, col_lo, col_hi = key
        if self._mirrored:
            mirror = self.shape[1] - 1
            col_lo, col_hi = mirror - col_hi, mirror - col_lo
        rows = self._row_prefix[row_hi + 1] - self._row_prefix[row_lo]
        cols = self._col_prefix[col_hi + 1] - self._col_prefix[col_lo]
        above, through = self._freq_prefix[row_lo], self._freq_prefix[row_hi + 1]
        output = (
            through[col_hi + 1] - above[col_hi + 1] - through[col_lo] + above[col_lo]
        )
        weight = self._weight(rows + cols, output)
        single_cell = row_lo == row_hi and col_lo == col_hi
        rect_id = self._ids[key] = len(self.rects)
        self.rects.append((row_lo, row_hi, col_lo, col_hi))
        self._keys.append(key)
        self.weights.append(weight)
        self.leaf_thresholds.append(float("-inf") if single_cell else weight)
        self._children.append(None)
        return rect_id

    def children(self, rect_id: int) -> list[int]:
        """Shrunk halves of every split of rectangle ``rect_id``, as a flat list.

        ``[first_0, second_0, first_1, second_1, ...]``: horizontal splits
        from the top, then vertical splits from the left.  Both halves of a
        split of a minimal rectangle hold candidates (its boundary rows and
        columns do), so every entry is a valid id.

        In the tables' columns a half is its rectangle with one row end and
        one column end moved, each read off one lookup.  Above a horizontal
        cut the rows end at the last candidate row above it, whose span end
        clips the right column; below it they start at the first candidate
        row below it, whose span start clips the left column.  Left of a
        vertical cut the rows end at the last one whose span starts left of
        the cut, right of it they start at the first whose span ends right
        of it.
        """
        children = self._children[rect_id]
        if children is None:
            row_lo, row_hi, col_lo, col_hi = self._keys[rect_id]
            rows, lo, hi = self._rows, self._lo, self._hi
            below, above, first, last = self._next, self._prev, self._first, self._last
            top, bottom = below[row_lo], above[row_hi]
            ids, weigh = self._ids, self._weigh
            children = []
            for row in range(row_lo, row_hi):
                end, start = above[row], below[row + 1]
                end_hi, start_lo = hi[end], lo[start]
                for half in ((row_lo, rows[end], col_lo,
                              end_hi if end_hi < col_hi else col_hi),
                             (rows[start], row_hi,
                              start_lo if start_lo > col_lo else col_lo, col_hi)):
                    half_id = ids.get(half)
                    children.append(weigh(half) if half_id is None else half_id)
            cuts = []
            for col in range(col_lo, col_hi):
                end, start = last[col], first[col + 1]
                if end > bottom:
                    end = bottom
                if start < top:
                    start = top
                end_hi, start_lo = hi[end], lo[start]
                for half in ((row_lo, rows[end], col_lo, end_hi if end_hi < col else col),
                             (rows[start], row_hi,
                              start_lo if start_lo > col + 1 else col + 1, col_hi)):
                    half_id = ids.get(half)
                    cuts.append(weigh(half) if half_id is None else half_id)
            if self._mirrored:
                # Mirrored columns cut from the right, and a pair's left half
                # is the grid's right one.
                cuts.reverse()
            children += cuts
            self._children[rect_id] = children
        return children
