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

:class:`TilingTables` computes each of them on first use and keeps it, so the
first step of a binary search pays for the rectangles it visits and every
later step is dictionary lookups and integer adds.  Rectangles are plain
``(row_lo, row_hi, col_lo, col_hi)`` tuples; every *minimal* rectangle met
gets a dense integer id, and weights and child lists are Python lists indexed
by that id (a :class:`~repro.core.region.GridRegion` is built only for the
regions a tiling returns).  The prefix sums and per-row candidate spans are
the grid's own arrays, which the grid builds on this first read, copied to
Python lists: a float taken out of a list is the same IEEE double numpy
held, and list indexing is several times cheaper than numpy scalar indexing.

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

from repro.core.grid import WeightedGrid, shrink_to_candidates
from repro.core.weights import WeightFunction

__all__ = ["Rect", "TilingTables"]

#: An inclusive rectangle ``(row_lo, row_hi, col_lo, col_hi)`` of grid cells.
Rect = tuple[int, int, int, int]


class TilingTables:
    """Lazily filled shrink / weight / child-list tables of one weighted grid.

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
    """

    def __init__(self, grid: WeightedGrid, weight_fn: WeightFunction) -> None:
        self.shape = grid.shape
        self._weight = weight_fn.weight
        self._freq_prefix: list[list[float]] = grid._freq_prefix.tolist()
        self._row_prefix: list[float] = grid._row_prefix.tolist()
        self._col_prefix: list[float] = grid._col_prefix.tolist()
        span_lo, span_hi = grid._row_cand_spans
        self._span_lo: list[int] = span_lo.tolist()
        self._span_hi: list[int] = span_hi.tolist()
        self.rects: list[Rect] = []
        self.weights: list[float] = []
        self.leaf_thresholds: list[float] = []
        self._children: list[list[int] | None] = []
        self._shrunk: dict[Rect, int] = {}
        self.root = self.shrink((0, grid.num_rows - 1, 0, grid.num_cols - 1))

    def shrink(self, rect: Rect) -> int:
        """Id of the minimal candidate rectangle of ``rect`` (-1: no candidates)."""
        minimal_id = self._shrunk.get(rect)
        if minimal_id is None:
            minimal = shrink_to_candidates(self._span_lo, self._span_hi, *rect)
            if minimal is None:
                minimal_id = -1
            else:
                # A minimal rectangle shrinks to itself: its own entry names it.
                minimal_id = self._shrunk.get(minimal)
                if minimal_id is None:
                    minimal_id = self._shrunk[minimal] = self._weigh(minimal)
            self._shrunk[rect] = minimal_id
        return minimal_id

    def _weigh(self, rect: Rect) -> int:
        """Give a minimal rectangle met for the first time its id and weight."""
        row_lo, row_hi, col_lo, col_hi = rect
        rows = self._row_prefix[row_hi + 1] - self._row_prefix[row_lo]
        cols = self._col_prefix[col_hi + 1] - self._col_prefix[col_lo]
        above, through = self._freq_prefix[row_lo], self._freq_prefix[row_hi + 1]
        output = (
            through[col_hi + 1] - above[col_hi + 1] - through[col_lo] + above[col_lo]
        )
        weight = self._weight(rows + cols, output)
        single_cell = row_lo == row_hi and col_lo == col_hi
        self.rects.append(rect)
        self.weights.append(weight)
        self.leaf_thresholds.append(float("-inf") if single_cell else weight)
        self._children.append(None)
        return len(self.rects) - 1

    def children(self, rect_id: int) -> list[int]:
        """Shrunk halves of every split of rectangle ``rect_id``, as a flat list.

        ``[first_0, second_0, first_1, second_1, ...]``: horizontal splits
        from the top, then vertical splits from the left.  Both halves of a
        split of a minimal rectangle hold candidates (its boundary rows and
        columns do), so every entry is a valid id.
        """
        children = self._children[rect_id]
        if children is None:
            row_lo, row_hi, col_lo, col_hi = self.rects[rect_id]
            shrink = self.shrink
            children = []
            for row in range(row_lo, row_hi):
                children.append(shrink((row_lo, row, col_lo, col_hi)))
                children.append(shrink((row + 1, row_hi, col_lo, col_hi)))
            for col in range(col_lo, col_hi):
                children.append(shrink((row_lo, row_hi, col_lo, col)))
                children.append(shrink((row_lo, row_hi, col + 1, col_hi)))
            self._children[rect_id] = children
        return children
