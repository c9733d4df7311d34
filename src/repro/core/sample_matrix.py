"""Stage 1 of the histogram algorithm: building the sample matrix MS.

MS is an ``n_s x n_s`` grid over the original join matrix whose purpose is to
preserve *region weights*: any rectangular region of MS has, with high
probability, almost the same weight as the corresponding region of the
original matrix.  Two ingredients achieve that:

* the **input distribution** is preserved by approximate equi-depth
  histograms with ``n_s`` buckets on each relation -- every grid row/column
  holds close to ``n / n_s`` tuples, so a region's input is (number of rows
  and columns on its semi-perimeter) x (expected bucket size);
* the **output distribution** is preserved by a uniform random sample of the
  join output (Stream-Sample): each sampled pair increments its cell, and a
  cell's output estimate is its share of the sample scaled by the exact
  output size ``m``.

``n_s = sqrt(2 n J)`` (Lemma 3.1) guarantees the maximum cell weight is at
most half the optimum maximum region weight, so coarsening and
regionalization never get stuck with an over-weight indivisible cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import WeightedGrid
from repro.joins.conditions import JoinCondition
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index, open_ends
from repro.sampling.stream_sample import JoinOutputSample

__all__ = [
    "SampleMatrix",
    "build_sample_matrix",
    "candidate_cell_count",
    "candidate_mask",
]


def candidate_mask(
    row_boundaries: np.ndarray,
    col_boundaries: np.ndarray,
    condition: JoinCondition,
) -> np.ndarray:
    """Candidate mask of the grid defined by the two boundary arrays.

    The outermost boundaries are treated as extending to +-infinity
    (:func:`~repro.sampling.equidepth.open_ends`) so that join keys beyond the
    sampled key range (which routing clamps into the first/last bucket) can
    never land in a cell wrongly marked non-candidate.
    """
    rows, cols = open_ends(row_boundaries), open_ends(col_boundaries)
    return condition.candidate_grid(rows[:-1], rows[1:], cols[:-1], cols[1:])


def candidate_cell_count(
    histogram1: EquiDepthHistogram,
    histogram2: EquiDepthHistogram,
    condition: JoinCondition,
) -> int:
    """Number of candidate cells of the MS grid implied by the two histograms.

    The output sample size is a small multiple of this count (paper,
    Appendix A1), so it is computed right after the input samples are
    collected and before any output sampling happens.
    """
    mask = candidate_mask(
        histogram1.boundaries, histogram2.boundaries, condition
    )
    return int(mask.sum())


@dataclass
class SampleMatrix:
    """The sample matrix MS plus everything needed to map it back to key space.

    Attributes
    ----------
    grid:
        The weighted grid (input per row/column, estimated output per cell,
        candidate mask).
    row_boundaries, col_boundaries:
        Key boundaries of the grid rows (R1) and columns (R2); arrays of
        length ``n_s + 1``.
    num_r1, num_r2:
        Sizes of the two input relations.
    total_output:
        The exact join output size ``m`` obtained from Stream-Sample.
    output_sample_size:
        Number of output pairs the frequencies were estimated from.
    """

    grid: WeightedGrid
    row_boundaries: np.ndarray
    col_boundaries: np.ndarray
    num_r1: int
    num_r2: int
    total_output: int
    output_sample_size: int

    @property
    def size(self) -> tuple[int, int]:
        """Grid dimensions ``(rows, cols)``."""
        return self.grid.shape


def build_sample_matrix(
    histogram1: EquiDepthHistogram,
    histogram2: EquiDepthHistogram,
    output_sample: JoinOutputSample,
    condition: JoinCondition,
) -> SampleMatrix:
    """Build MS from the per-relation histograms and the join-output sample.

    Parameters
    ----------
    histogram1, histogram2:
        Approximate equi-depth histograms with ``n_s`` buckets over R1 and R2
        join keys.
    output_sample:
        A uniform random sample of the join output together with the exact
        output size ``m`` (from Stream-Sample).
    condition:
        The monotonic join condition, used for the candidate mask.
    """
    row_boundaries = histogram1.boundaries
    col_boundaries = histogram2.boundaries
    num_rows = histogram1.num_buckets
    num_cols = histogram2.num_buckets

    candidate = candidate_mask(row_boundaries, col_boundaries, condition)

    frequency = np.zeros((num_rows, num_cols))
    sample_size = output_sample.size
    if sample_size > 0 and output_sample.total_output > 0:
        rows = bucket_index(row_boundaries, output_sample.r1_keys)
        cols = bucket_index(col_boundaries, output_sample.r2_keys)
        np.add.at(frequency, (rows, cols), 1.0)
        frequency *= output_sample.total_output / sample_size
        # Sampled pairs always satisfy the join, so their cells are genuine
        # candidates; make the mask consistent in the face of floating-point
        # boundary ties.
        candidate |= frequency > 0

    grid = WeightedGrid(
        frequency=frequency,
        row_input=np.full(num_rows, histogram1.expected_bucket_size),
        col_input=np.full(num_cols, histogram2.expected_bucket_size),
        candidate=candidate,
    )
    return SampleMatrix(
        grid=grid,
        row_boundaries=row_boundaries,
        col_boundaries=col_boundaries,
        num_r1=histogram1.num_tuples,
        num_r2=histogram2.num_tuples,
        total_output=output_sample.total_output,
        output_sample_size=sample_size,
    )
