"""Correctness validation of partitioning schemes.

A partitioning is *correct* when the union of its regions produces every join
output pair exactly once: no pair may be lost (a candidate cell not covered
by any region) and no pair may be produced twice (a candidate cell covered by
two regions).  The paper states this as the problem definition in section II:
every 1-cell of the join matrix is covered by exactly one region and every
0-cell by at most one.

Two validators are provided at different granularities:

* :func:`validate_grid_regions` checks the cell-coverage property directly on
  a :class:`~repro.core.grid.WeightedGrid` and a list of grid regions -- this
  is what the tiling algorithms must guarantee;
* :func:`validate_partitioning` checks the end-to-end routing of a
  :class:`~repro.partitioning.base.Partitioning` against the exact join: it
  executes the partitioned join at pair granularity and compares the multiset
  of produced pairs against the reference join.  It is exact but materialises
  output pairs, so it is meant for test- and example-scale inputs.

Test-only: no code under ``src/`` validates a plan against the exact join,
so the validators live beside the other references.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.grid import WeightedGrid
from repro.core.region import GridRegion
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output, join_output_pairs
from repro.partitioning.base import Partitioning

__all__ = [
    "GridCoverage",
    "PartitioningValidation",
    "validate_grid_regions",
    "validate_partitioning",
]


@dataclass
class GridCoverage:
    """Result of checking region coverage over a weighted grid.

    Attributes
    ----------
    uncovered_candidates:
        Candidate cells not covered by any region.
    multiply_covered:
        Cells (candidate or not) covered by more than one region.
    out_of_bounds:
        Regions whose coordinates exceed the grid.
    """

    uncovered_candidates: list[tuple[int, int]] = field(default_factory=list)
    multiply_covered: list[tuple[int, int]] = field(default_factory=list)
    out_of_bounds: list[GridRegion] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        """Whether the regions form a valid cover of the candidate cells."""
        return (
            not self.uncovered_candidates
            and not self.multiply_covered
            and not self.out_of_bounds
        )

    def summary(self) -> str:
        """One-line human readable summary."""
        if self.is_valid:
            return "valid cover"
        return (
            f"{len(self.uncovered_candidates)} uncovered candidate cell(s), "
            f"{len(self.multiply_covered)} multiply covered cell(s), "
            f"{len(self.out_of_bounds)} out-of-bounds region(s)"
        )


def validate_grid_regions(
    grid: WeightedGrid, regions: list[GridRegion]
) -> GridCoverage:
    """Check that ``regions`` cover every candidate cell of ``grid`` exactly once.

    Non-candidate cells may be covered at most once (rectangular regions
    inevitably cover some of them) and never more.
    """
    coverage = np.zeros(grid.shape, dtype=np.int64)
    result = GridCoverage()
    for region in regions:
        if region.row_hi >= grid.num_rows or region.col_hi >= grid.num_cols:
            result.out_of_bounds.append(region)
            continue
        coverage[
            region.row_lo : region.row_hi + 1, region.col_lo : region.col_hi + 1
        ] += 1

    uncovered = grid.candidate & (coverage == 0)
    multiple = coverage > 1
    result.uncovered_candidates = [
        (int(r), int(c)) for r, c in zip(*np.nonzero(uncovered))
    ]
    result.multiply_covered = [
        (int(r), int(c)) for r, c in zip(*np.nonzero(multiple))
    ]
    return result


@dataclass
class PartitioningValidation:
    """Result of validating a partitioning's routing against the exact join.

    Attributes
    ----------
    expected_output:
        Exact join output size computed on the full inputs.
    produced_output:
        Total output produced across all regions.
    missing_pairs:
        Output pairs of the reference join no region produced.
    duplicate_pairs:
        Output pairs produced by more than one region (with multiplicities
        above their reference count).
    per_region_output:
        Output tuples produced by each region.
    """

    expected_output: int
    produced_output: int
    missing_pairs: list[tuple[float, float]] = field(default_factory=list)
    duplicate_pairs: list[tuple[float, float]] = field(default_factory=list)
    per_region_output: list[int] = field(default_factory=list)

    @property
    def is_complete(self) -> bool:
        """Whether every reference output pair was produced at least once."""
        return not self.missing_pairs

    @property
    def is_duplicate_free(self) -> bool:
        """Whether no output pair was produced more often than in the reference."""
        return not self.duplicate_pairs

    @property
    def is_correct(self) -> bool:
        """Complete and duplicate-free."""
        return self.is_complete and self.is_duplicate_free


#: Refuse exact pair-level validation above this output size.
_MAX_VALIDATED_OUTPUT = 5_000_000


def validate_partitioning(
    partitioning: Partitioning,
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    rng: np.random.Generator | None = None,
) -> PartitioningValidation:
    """Validate a partitioning's routing by comparing pair multisets.

    Every region's local join is materialised and the multiset union of the
    per-region outputs is compared against the reference join of the full
    inputs.  Intended for test/example scale: the function refuses reference
    outputs above a few million pairs.
    """
    rng = rng or np.random.default_rng(0)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)

    expected_count = count_join_output(keys1, keys2, condition)
    if expected_count > _MAX_VALIDATED_OUTPUT:
        raise ValueError(
            f"exact validation refuses joins with more than "
            f"{_MAX_VALIDATED_OUTPUT} output pairs (got {expected_count}); "
            "use the simulator's count-based correctness check instead"
        )
    reference = Counter(join_output_pairs(keys1, keys2, condition))

    assignments1 = partitioning.assign_r1(keys1, rng)
    assignments2 = partitioning.assign_r2(keys2, rng)

    produced: Counter = Counter()
    per_region_output: list[int] = []
    for idx1, idx2 in zip(assignments1, assignments2):
        if len(idx1) == 0 or len(idx2) == 0:
            per_region_output.append(0)
            continue
        pairs = join_output_pairs(keys1[idx1], keys2[idx2], condition)
        per_region_output.append(len(pairs))
        produced.update(pairs)

    missing = sorted((reference - produced).elements())
    duplicates = sorted((produced - reference).elements())
    return PartitioningValidation(
        expected_output=expected_count,
        produced_output=sum(produced.values()),
        missing_pairs=list(missing),
        duplicate_pairs=list(duplicates),
        per_region_output=per_region_output,
    )
