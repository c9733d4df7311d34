"""Reference planner kernels: the pre-rewrite tiling DP, sweep and searches.

Test-only.  These are the implementations ``repro.core`` shipped before the
planner kernels were rewritten around shared tiling tables and a vectorised
sweep, and the three threshold searches (regionalization, coarsening's
per-axis search, M-Bucket's region search) as each was written out before
they became one ``smallest_feasible``, kept verbatim as the differential
oracle: the production kernels must return bit-identical plans (same regions
in the same order, same floats, same rectangle counts, same search steps).
They are deliberately slow and self-contained -- every rectangle is a frozen
:class:`GridRegion`, every shrink is a numpy slice, every weight goes
through ``WeightFunction.weight`` -- and share only ``GridRegion``,
``WeightFunction`` and the grid's public arrays with the code under test.
The exception is the tiling tables as production built them before the
compiled kernel took over (``LazyTilingTables``: child lists and weights
filled on first use, list lookups) with the Python DP over them
(``lazy_monotonic_bsp_tiling``), kept verbatim as the kernel's
``closure`` / ``tile`` reference.

The one edit: the recursive DP no longer raises the interpreter's recursion
limit, so use it on grids whose ``rows + cols`` stays in the low hundreds.
"""

from __future__ import annotations

import numpy as np

from repro.core.bsp import BSPResult
from repro.core.coarsening import (
    CoarseningResult,
    _aggregate_columns,
    _build_coarse_grid,
    _even_boundaries,
)
from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.core.regionalization import RegionalizationResult
from repro.core.tiling_tables import Rect
from repro.core.weights import WeightFunction


# ----------------------------------------------------------------------
# Grid primitives (were WeightedGrid methods over its numpy tables)
# ----------------------------------------------------------------------
class _Primitives:
    """Region weight, candidate count and shrink over numpy tables, memoised.

    The tables are built here, eagerly, from the grid's four public arrays
    exactly as the old ``WeightedGrid.__post_init__`` built them, so nothing
    below depends on how (or when) the grid builds its own; they are the
    oracle for the grid's on-demand tables.
    """

    def __init__(self, grid: WeightedGrid, weight_fn: WeightFunction) -> None:
        rows, cols = grid.frequency.shape
        self.weight_fn = weight_fn
        self.full = GridRegion(0, rows - 1, 0, cols - 1)
        self._freq_prefix = np.zeros((rows + 1, cols + 1))
        self._freq_prefix[1:, 1:] = np.cumsum(np.cumsum(grid.frequency, axis=0), axis=1)
        self._row_prefix = np.concatenate([[0.0], np.cumsum(grid.row_input)])
        self._col_prefix = np.concatenate([[0.0], np.cumsum(grid.col_input)])
        self._cand_prefix = np.zeros((rows + 1, cols + 1), dtype=np.int64)
        self._cand_prefix[1:, 1:] = np.cumsum(
            np.cumsum(grid.candidate, axis=0, dtype=np.int64), axis=1
        )
        self._row_cand_lo = np.full(rows, -1, dtype=np.int64)
        self._row_cand_hi = np.full(rows, -1, dtype=np.int64)
        any_cand = grid.candidate.any(axis=1)
        if any_cand.any():
            self._row_cand_lo[any_cand] = np.argmax(grid.candidate[any_cand], axis=1)
            reversed_cand = grid.candidate[:, ::-1]
            self._row_cand_hi[any_cand] = (
                cols - 1 - np.argmax(reversed_cand[any_cand], axis=1)
            )
        self._minimal_rect_cache: dict = {}

    def region_output(self, region: GridRegion) -> float:
        p = self._freq_prefix
        return float(
            p[region.row_hi + 1, region.col_hi + 1]
            - p[region.row_lo, region.col_hi + 1]
            - p[region.row_hi + 1, region.col_lo]
            + p[region.row_lo, region.col_lo]
        )

    def candidate_count(self, region: GridRegion) -> int:
        p = self._cand_prefix
        return int(
            p[region.row_hi + 1, region.col_hi + 1]
            - p[region.row_lo, region.col_hi + 1]
            - p[region.row_hi + 1, region.col_lo]
            + p[region.row_lo, region.col_lo]
        )

    def region_input(self, region: GridRegion) -> float:
        rows = self._row_prefix[region.row_hi + 1] - self._row_prefix[region.row_lo]
        cols = self._col_prefix[region.col_hi + 1] - self._col_prefix[region.col_lo]
        return float(rows + cols)

    def weight(self, region: GridRegion) -> float:
        return self.weight_fn.weight(
            self.region_input(region), self.region_output(region)
        )

    def minimal(self, region: GridRegion) -> GridRegion | None:
        key = (region.row_lo, region.row_hi, region.col_lo, region.col_hi)
        if key in self._minimal_rect_cache:
            return self._minimal_rect_cache[key]
        lo = self._row_cand_lo[region.row_lo : region.row_hi + 1]
        hi = self._row_cand_hi[region.row_lo : region.row_hi + 1]
        clipped_lo = np.maximum(lo, region.col_lo)
        clipped_hi = np.minimum(hi, region.col_hi)
        valid = (lo >= 0) & (clipped_lo <= clipped_hi)
        if not valid.any():
            self._minimal_rect_cache[key] = None
            return None
        valid_idx = np.flatnonzero(valid)
        result = GridRegion(
            row_lo=region.row_lo + int(valid_idx[0]),
            row_hi=region.row_lo + int(valid_idx[-1]),
            col_lo=int(clipped_lo[valid].min()),
            col_hi=int(clipped_hi[valid].max()),
        )
        self._minimal_rect_cache[key] = result
        return result


# ----------------------------------------------------------------------
# MonotonicBSP: recursive DP memoised on GridRegion
# ----------------------------------------------------------------------
def reference_monotonic_bsp(
    grid: WeightedGrid, weight_fn: WeightFunction, delta: float
) -> BSPResult:
    """The lazy top-down DP over minimal candidate rectangles."""
    prims = _Primitives(grid, weight_fn)
    memo: dict[GridRegion, tuple[int, object]] = {}

    def solve_half_pair(first: GridRegion, second: GridRegion):
        """Shrink both halves of a split and solve them."""
        first_min = prims.minimal(first)
        second_min = prims.minimal(second)
        count = 0
        if first_min is not None:
            count += solve(first_min)[0]
        if second_min is not None:
            count += solve(second_min)[0]
        return count, (first_min, second_min)

    def solve(region: GridRegion) -> tuple[int, object]:
        cached = memo.get(region)
        if cached is not None:
            return cached
        weight = prims.weight(region)
        if weight <= delta or (region.num_rows == 1 and region.num_cols == 1):
            result: tuple[int, object] = (1, None)
            memo[region] = result
            return result
        best_count = None
        best_plan = None
        for after_row in range(region.row_lo, region.row_hi):
            top, bottom = region.split_horizontal(after_row)
            count, plan = solve_half_pair(top, bottom)
            if best_count is None or count < best_count:
                best_count, best_plan = count, plan
                if best_count == 2:
                    break
        if best_count != 2:
            for after_col in range(region.col_lo, region.col_hi):
                left, right = region.split_vertical(after_col)
                count, plan = solve_half_pair(left, right)
                if best_count is None or count < best_count:
                    best_count, best_plan = count, plan
                    if best_count == 2:
                        break
        result = (best_count, best_plan)
        memo[region] = result
        return result

    root = prims.minimal(prims.full)
    if root is None:
        return BSPResult(regions=[], max_region_weight=0.0, rectangles_evaluated=0)
    solve(root)

    regions: list[GridRegion] = []
    stack = [root]
    while stack:
        region = stack.pop()
        _, plan = memo[region]
        if plan is None:
            regions.append(region)
            continue
        first_min, second_min = plan
        if first_min is not None:
            stack.append(first_min)
        if second_min is not None:
            stack.append(second_min)

    max_weight = max((prims.weight(r) for r in regions), default=0.0)
    return BSPResult(
        regions=regions,
        max_region_weight=float(max_weight),
        rectangles_evaluated=len(memo),
    )


# ----------------------------------------------------------------------
# MonotonicBSP over lazily filled tiling tables: the Python DP the kernel's
# ``tile`` replaced, and the child lists its ``closure`` replaced
# ----------------------------------------------------------------------
class LazyTilingTables:
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


def lazy_monotonic_bsp_tiling(tables: LazyTilingTables, delta: float) -> BSPResult:
    """The DP over tables shared between thresholds, one list lookup per step."""
    root = tables.root
    if root < 0:
        return BSPResult(regions=[], max_region_weight=0.0, rectangles_evaluated=0)
    leaf_thresholds = tables.leaf_thresholds
    children = tables.children
    num_rows, num_cols = tables.shape
    unsplit = num_rows * num_cols + 1  # more regions than any split costs

    # One frame per rectangle being split: [id, child list, next offset, best
    # count so far, offset of the pair that achieved it].
    stack: list[list] = []
    if not leaf_thresholds[root] <= delta:
        stack.append([root, children(root), 0, unsplit, 0])
    # Indexed by rectangle id: the fewest regions covering it (0: unsolved)
    # and, for a split rectangle, the offset of its best child pair.  Both
    # grow when a child list brings rectangles the tables had not met.
    counts = [0] * len(leaf_thresholds)
    splits = [0] * len(leaf_thresholds)
    if not stack:
        counts[root] = 1
    while stack:
        frame = stack[-1]
        rect, pairs, offset, best, best_offset = frame
        unsolved = -1
        end = len(pairs)
        while offset < end:
            first, second = pairs[offset], pairs[offset + 1]
            first_count = counts[first]
            if not first_count:
                if not leaf_thresholds[first] <= delta:
                    unsolved = first
                    break
                counts[first] = first_count = 1
            second_count = counts[second]
            if not second_count:
                if not leaf_thresholds[second] <= delta:
                    unsolved = second
                    break
                counts[second] = second_count = 1
            total = first_count + second_count
            if total < best:
                best, best_offset = total, offset
                # Both halves of a split hold candidates, so no split costs
                # fewer than two regions -- stop at the first that does.
                if best == 2:
                    break
            offset += 2
        if unsolved >= 0:
            # Solve the half first, then resume this rectangle at this pair.
            frame[2:] = offset, best, best_offset
            stack.append([unsolved, children(unsolved), 0, unsplit, 0])
            if len(counts) < len(leaf_thresholds):
                grown = [0] * (len(leaf_thresholds) - len(counts))
                counts += grown
                splits += grown
            continue
        counts[rect] = best
        splits[rect] = best_offset
        stack.pop()

    leaves: list[int] = []
    pending = [root]
    while pending:
        rect = pending.pop()
        if counts[rect] == 1:
            leaves.append(rect)
        else:
            best_offset = splits[rect]
            pending.extend(children(rect)[best_offset : best_offset + 2])
    return BSPResult(
        regions=[GridRegion(*tables.rects[leaf]) for leaf in leaves],
        max_region_weight=float(max(tables.weights[leaf] for leaf in leaves)),
        rectangles_evaluated=len(counts) - counts.count(0),
    )


# ----------------------------------------------------------------------
# Baseline BSP: bottom-up DP over all rectangles
# ----------------------------------------------------------------------
def reference_bsp(
    grid: WeightedGrid, weight_fn: WeightFunction, delta: float
) -> BSPResult:
    """The paper's Algorithm 1 over every rectangle of the grid."""
    prims = _Primitives(grid, weight_fn)
    rows, cols = grid.shape
    counts: dict[tuple[int, int, int, int], int] = {}
    plans: dict[tuple[int, int, int, int], object] = {}

    def key(region: GridRegion) -> tuple[int, int, int, int]:
        return (region.row_lo, region.row_hi, region.col_lo, region.col_hi)

    rectangles: list[GridRegion] = [
        GridRegion(r1, r2, c1, c2)
        for r1 in range(rows)
        for r2 in range(r1, rows)
        for c1 in range(cols)
        for c2 in range(c1, cols)
    ]
    rectangles.sort(key=lambda r: (r.semi_perimeter, r.num_rows))

    for rect in rectangles:
        minimal = prims.minimal(rect)
        if minimal is None:
            counts[key(rect)] = 0
            plans[key(rect)] = None
            continue
        if minimal != rect:
            counts[key(rect)] = counts[key(minimal)]
            plans[key(rect)] = ("shrink", minimal)
            continue
        weight = prims.weight(rect)
        if weight <= delta or (rect.num_rows == 1 and rect.num_cols == 1):
            counts[key(rect)] = 1
            plans[key(rect)] = None
            continue
        best_count = None
        best_plan = None
        for after_row in range(rect.row_lo, rect.row_hi):
            top, bottom = rect.split_horizontal(after_row)
            total = counts[key(top)] + counts[key(bottom)]
            if best_count is None or total < best_count:
                best_count, best_plan = total, ("split", top, bottom)
        for after_col in range(rect.col_lo, rect.col_hi):
            left, right = rect.split_vertical(after_col)
            total = counts[key(left)] + counts[key(right)]
            if best_count is None or total < best_count:
                best_count, best_plan = total, ("split", left, right)
        counts[key(rect)] = best_count
        plans[key(rect)] = best_plan

    root = prims.minimal(prims.full)
    if root is None:
        return BSPResult(
            regions=[], max_region_weight=0.0, rectangles_evaluated=len(rectangles)
        )

    regions: list[GridRegion] = []
    stack = [root]
    while stack:
        rect = stack.pop()
        plan = plans[key(rect)]
        if plan is None:
            minimal = prims.minimal(rect)
            if minimal is not None:
                regions.append(minimal)
            continue
        if plan[0] == "shrink":
            stack.append(plan[1])
        else:
            stack.append(plan[1])
            stack.append(plan[2])
    max_weight = max((prims.weight(r) for r in regions), default=0.0)
    return BSPResult(
        regions=regions,
        max_region_weight=float(max_weight),
        rectangles_evaluated=len(rectangles),
    )


# ----------------------------------------------------------------------
# Regionalization: the binary search over delta, one fresh tiling per step
# ----------------------------------------------------------------------
def reference_regionalize(
    grid: WeightedGrid,
    num_machines: int,
    weight_fn: WeightFunction,
    tolerance: float = 0.01,
    max_search_steps: int = 30,
) -> RegionalizationResult:
    """The binary search, re-running a from-scratch tiling at every step."""
    tiling = reference_monotonic_bsp
    if not grid.candidate.any():
        return RegionalizationResult(
            regions=[], delta=0.0, max_region_weight=0.0, search_steps=0
        )

    total_weight = weight_fn.weight(grid.total_input, grid.total_output)
    lower = max(
        grid.max_cell_weight(weight_fn, candidates_only=True),
        total_weight / num_machines,
    )
    prims = _Primitives(grid, weight_fn)
    upper = prims.weight(prims.minimal(prims.full))
    upper = max(upper, lower)

    steps = 0
    result = tiling(grid, weight_fn, lower)
    steps += 1
    if result.num_regions <= num_machines:
        return RegionalizationResult(
            regions=result.regions,
            delta=lower,
            max_region_weight=result.max_region_weight,
            search_steps=steps,
        )

    best = tiling(grid, weight_fn, upper)
    steps += 1
    best_delta = upper
    while steps < max_search_steps and upper - lower > tolerance * max(upper, 1.0):
        mid = (lower + upper) / 2.0
        candidate = tiling(grid, weight_fn, mid)
        steps += 1
        if candidate.num_regions <= num_machines:
            upper = mid
            best = candidate
            best_delta = mid
        else:
            lower = mid

    return RegionalizationResult(
        regions=best.regions,
        delta=best_delta,
        max_region_weight=best.max_region_weight,
        search_steps=steps,
    )


# ----------------------------------------------------------------------
# Coarsening: one Python iteration per sample row
# ----------------------------------------------------------------------
def reference_sweep_rows(
    freq_by_group: np.ndarray,
    cand_by_group: np.ndarray,
    row_input: np.ndarray,
    col_input_by_group: np.ndarray,
    weight_fn: WeightFunction,
    threshold: float,
    max_groups: int,
) -> np.ndarray | None:
    """Greedy sweep: group consecutive rows so every candidate block stays under
    ``threshold``.  Returns the boundary array or ``None`` when more than
    ``max_groups`` groups would be needed."""
    num_rows = len(row_input)
    boundaries = [0]
    acc_freq = np.zeros(freq_by_group.shape[1])
    acc_cand = np.zeros(freq_by_group.shape[1])
    acc_row_input = 0.0
    for row in range(num_rows):
        cand_after = acc_cand + cand_by_group[row]
        freq_after = acc_freq + freq_by_group[row]
        row_input_after = acc_row_input + row_input[row]
        weights = (
            weight_fn.input_cost * (row_input_after + col_input_by_group)
            + weight_fn.output_cost * freq_after
        )
        # Only blocks containing candidate cells count (MonotonicCoarsening:
        # non-candidate cells weigh zero).
        max_weight = float(weights[cand_after > 0].max()) if (cand_after > 0).any() else 0.0
        is_first_row_of_group = acc_row_input == 0.0 and not acc_cand.any()
        if max_weight <= threshold or is_first_row_of_group:
            acc_freq = freq_after
            acc_cand = cand_after
            acc_row_input = row_input_after
            continue
        # Close the current group before this row and start a new one.
        boundaries.append(row)
        if len(boundaries) > max_groups:
            return None
        acc_freq = freq_by_group[row].copy()
        acc_cand = cand_by_group[row].copy()
        acc_row_input = float(row_input[row])
    boundaries.append(num_rows)
    if len(boundaries) - 1 > max_groups:
        return None
    return np.asarray(boundaries, dtype=np.int64)


def numpy_sweep_rows(
    freq_by_group: np.ndarray,
    cand_by_group: np.ndarray,
    row_input: np.ndarray,
    col_input_by_group: np.ndarray,
    weight_fn: WeightFunction,
    threshold: float,
    max_groups: int,
) -> np.ndarray | None:
    """Greedy sweep: group consecutive rows so every candidate block stays under
    ``threshold``.  Returns the boundary array or ``None`` when more than
    ``max_groups`` groups would be needed.

    A group takes rows while its heaviest candidate block stays within
    ``threshold``; a row met with an all-zero accumulator (no input, no
    candidates yet -- above all the row that opens a group) is always taken.
    Each group's end is found on whole look-ahead windows of rows at once.  Block
    weights are running sums *from the group's first row*, added in row order
    (``np.cumsum``), so they are the floats a row-by-row loop would compare
    with ``threshold`` -- differences of one global prefix sum round
    differently and would move boundaries.  Candidate counts are integers, so
    for them prefix differences are exact.

    The numpy sweep as it ran before the compiled kernel
    (:func:`repro.joins.native.sweep_rows`), which runs the same sweep row
    by row in one call and is held to it boundary for boundary.
    """
    num_rows = len(row_input)
    # Twice the mean group length: most groups close inside their first window.
    window = max(8, 2 * -(-num_rows // max_groups))
    cand_prefix = np.zeros((num_rows + 1, cand_by_group.shape[1]))
    np.cumsum(cand_by_group, axis=0, out=cand_prefix[1:])
    boundaries = [0]
    start = 0
    while True:
        # Find the first row that would overfill the group opened at ``start``.
        # ``*_before`` are the group's sums ahead of the window: zero ahead of
        # the first, carried over when a window does not hold the whole group.
        closing_row = None
        freq_before = np.zeros(freq_by_group.shape[1])
        input_before = 0.0
        for lo in range(start, num_rows, window):
            freq_after = np.cumsum(
                np.concatenate([freq_before[None, :], freq_by_group[lo : lo + window]]),
                axis=0,
            )[1:]
            input_after = np.cumsum(
                np.concatenate([[input_before], row_input[lo : lo + window]])
            )[1:]
            # Only blocks containing candidate cells count (MonotonicCoarsening:
            # non-candidate cells weigh zero).
            has_candidates = cand_prefix[lo + 1 : lo + 1 + len(input_after)] > cand_prefix[start]
            weights = (
                weight_fn.input_cost * (input_after[:, None] + col_input_by_group)
                + weight_fn.output_cost * freq_after
            )
            heaviest = np.where(has_candidates, weights, -np.inf).max(axis=1)
            for offset in np.flatnonzero(heaviest > threshold).tolist():
                row = lo + offset
                # A row met with an all-zero accumulator is taken whatever it
                # weighs; the row that opens the group is the usual case.
                input_so_far = input_after[offset - 1] if offset else input_before
                if input_so_far == 0.0 and not (cand_prefix[row] > cand_prefix[start]).any():
                    continue
                closing_row = row
                break
            if closing_row is not None:
                break
            freq_before, input_before = freq_after[-1], input_after[-1]
        if closing_row is None:
            break
        # Close the current group before this row and start a new one.
        boundaries.append(closing_row)
        if len(boundaries) > max_groups:
            return None
        start = closing_row
    boundaries.append(num_rows)
    if len(boundaries) - 1 > max_groups:
        return None
    return np.asarray(boundaries, dtype=np.int64)


# ----------------------------------------------------------------------
# Coarsening: the per-axis threshold search and the alternating passes
# ----------------------------------------------------------------------
def reference_optimize_axis(
    grid: WeightedGrid,
    col_bounds: np.ndarray,
    weight_fn: WeightFunction,
    max_groups: int,
    low: float,
    tolerance: float,
    max_search_steps: int,
) -> np.ndarray:
    """Choose row boundaries minimising the max candidate-block weight for fixed columns."""
    freq_by_group, cand_by_group, col_input_by_group = _aggregate_columns(
        grid, col_bounds
    )

    def feasible(threshold: float) -> np.ndarray | None:
        return numpy_sweep_rows(
            freq_by_group, cand_by_group, grid.row_input, col_input_by_group,
            weight_fn, threshold, max_groups,
        )

    high = weight_fn.weight(grid.total_input, grid.total_output)
    high = max(high, low)
    best = feasible(high)
    if best is None:
        # A single group per row always fits max_groups >= 1 at an infinite
        # threshold; reaching here means max_groups < 1, which is invalid.
        raise RuntimeError("coarsening sweep failed at the trivial threshold")
    result = feasible(low)
    if result is not None:
        return result
    for _ in range(max_search_steps):
        if high - low <= tolerance * max(high, 1.0):
            break
        mid = (low + high) / 2.0
        candidate_bounds = feasible(mid)
        if candidate_bounds is None:
            low = mid
        else:
            high = mid
            best = candidate_bounds
    return best


def reference_coarsen(
    grid: WeightedGrid,
    num_row_groups: int,
    num_col_groups: int | None = None,
    weight_fn: WeightFunction | None = None,
    max_iterations: int = 4,
    tolerance: float = 0.01,
    max_search_steps: int = 25,
) -> CoarseningResult:
    """Coarsen a weighted grid into ``num_row_groups x num_col_groups`` blocks."""
    weight_fn = weight_fn or WeightFunction()
    num_col_groups = num_col_groups or num_row_groups
    num_row_groups = max(1, min(num_row_groups, grid.num_rows))
    num_col_groups = max(1, min(num_col_groups, grid.num_cols))

    row_bounds = _even_boundaries(grid.num_rows, num_row_groups)
    col_bounds = _even_boundaries(grid.num_cols, num_col_groups)

    best_grid = _build_coarse_grid(grid, row_bounds, col_bounds)
    best_weight = best_grid.max_cell_weight(weight_fn, candidates_only=True)
    best_bounds = (row_bounds, col_bounds)
    iterations_run = 0

    transposed = WeightedGrid(
        frequency=grid.frequency.T,
        row_input=grid.col_input,
        col_input=grid.row_input,
        candidate=grid.candidate.T,
    )

    heaviest_cell = grid.max_cell_weight(weight_fn, candidates_only=True)

    for iteration in range(max_iterations):
        iterations_run = iteration + 1
        row_bounds = reference_optimize_axis(
            grid, col_bounds, weight_fn, num_row_groups, heaviest_cell,
            tolerance, max_search_steps,
        )
        col_bounds = reference_optimize_axis(
            transposed, row_bounds, weight_fn, num_col_groups, heaviest_cell,
            tolerance, max_search_steps,
        )
        coarse = _build_coarse_grid(grid, row_bounds, col_bounds)
        weight = coarse.max_cell_weight(weight_fn, candidates_only=True)
        if weight < best_weight - 1e-12:
            best_weight = weight
            best_grid = coarse
            best_bounds = (row_bounds, col_bounds)
        else:
            break

    return CoarseningResult(
        grid=best_grid,
        row_groups=np.asarray(best_bounds[0], dtype=np.int64),
        col_groups=np.asarray(best_bounds[1], dtype=np.int64),
        max_cell_weight=float(best_weight),
        iterations=iterations_run,
    )


# ----------------------------------------------------------------------
# M-Bucket: the M-Bucket-I sweep and its region-weight threshold search
# ----------------------------------------------------------------------
def _row_candidate_spans(candidate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first/last candidate column (-1 when the row has none)."""
    rows, cols = candidate.shape
    lo = np.full(rows, -1, dtype=np.int64)
    hi = np.full(rows, -1, dtype=np.int64)
    has_any = candidate.any(axis=1)
    if has_any.any():
        lo[has_any] = np.argmax(candidate[has_any], axis=1)
        hi[has_any] = cols - 1 - np.argmax(candidate[has_any, ::-1], axis=1)
    return lo, hi


def _cover_band(
    row_lo: int,
    row_hi: int,
    col_lo: int,
    col_hi: int,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    threshold: float,
) -> list[GridRegion] | None:
    """Cover columns ``[col_lo..col_hi]`` of a row band with side-by-side regions."""
    rows = row_hi - row_lo + 1
    row_cost = weight_fn.input_cost * rows * bucket_size1
    col_unit = weight_fn.input_cost * bucket_size2
    budget = threshold - row_cost
    if col_unit <= 0:
        return [GridRegion(row_lo, row_hi, col_lo, col_hi)]
    max_width = int(budget // col_unit)
    if max_width < 1:
        return None
    regions = []
    col = col_lo
    while col <= col_hi:
        end = min(col_hi, col + max_width - 1)
        regions.append(GridRegion(row_lo, row_hi, col, end))
        col = end + 1
    return regions


def _cover(
    span_lo: np.ndarray,
    span_hi: np.ndarray,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    threshold: float,
    max_band_rows: int | None,
) -> list[GridRegion] | None:
    """Cover all candidate cells with regions under ``threshold`` (M-Bucket-I sweep)."""
    num_rows = len(span_lo)
    regions: list[GridRegion] = []
    row = 0
    while row < num_rows:
        if span_lo[row] < 0:
            row += 1
            continue
        best_score = -1.0
        best_end = None
        best_regions: list[GridRegion] | None = None
        band_col_lo = None
        band_col_hi = None
        limit = num_rows if max_band_rows is None else min(num_rows, row + max_band_rows)
        for end in range(row, limit):
            if span_lo[end] >= 0:
                if band_col_lo is None:
                    band_col_lo, band_col_hi = int(span_lo[end]), int(span_hi[end])
                else:
                    band_col_lo = min(band_col_lo, int(span_lo[end]))
                    band_col_hi = max(band_col_hi, int(span_hi[end]))
            if band_col_lo is None:
                continue
            band_regions = _cover_band(
                row, end, band_col_lo, band_col_hi,
                bucket_size1, bucket_size2, weight_fn, threshold,
            )
            if band_regions is None:
                break
            score = (end - row + 1) / max(len(band_regions), 1)
            if score > best_score + 1e-12:
                best_score = score
                best_end = end
                best_regions = band_regions
        if best_regions is None:
            return None
        regions.extend(best_regions)
        row = best_end + 1
    return regions


def reference_m_bucket_regions(
    candidate: np.ndarray,
    bucket_size1: float,
    bucket_size2: float,
    weight_fn: WeightFunction,
    num_machines: int,
    max_band_rows: int | None = None,
    max_search_steps: int = 25,
) -> list[GridRegion]:
    """M-Bucket's regions over a candidate mask: the search as it was written
    inside ``build_m_bucket_partitioning``, with ``hist1.num_buckets`` /
    ``hist2.num_buckets`` read off the mask's shape."""
    num_buckets1, num_buckets2 = candidate.shape
    span_lo, span_hi = _row_candidate_spans(candidate)

    # Binary search the smallest input-weight threshold coverable with <= J regions.
    lower = weight_fn.input_cost * (bucket_size1 + bucket_size2)
    upper = weight_fn.input_cost * (
        num_buckets1 * bucket_size1 + num_buckets2 * bucket_size2
    )
    upper = max(upper, lower)

    def feasible(threshold: float) -> list[GridRegion] | None:
        regions = _cover(
            span_lo, span_hi, bucket_size1, bucket_size2, weight_fn, threshold,
            max_band_rows,
        )
        if regions is None or len(regions) > num_machines:
            return None
        return regions

    best = feasible(upper)
    if best is None:
        # Even a single full-matrix region is a valid cover; fall back to it.
        best = [GridRegion(0, num_buckets1 - 1, 0, num_buckets2 - 1)]
    low_result = feasible(lower)
    if low_result is not None:
        best = low_result
    else:
        for _ in range(max_search_steps):
            if upper - lower <= 0.01 * max(upper, 1.0):
                break
            mid = (lower + upper) / 2.0
            result = feasible(mid)
            if result is None:
                lower = mid
            else:
                upper = mid
                best = result
    return best
