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

MS is held as its candidate band (:class:`~repro.core.grid.BandGrid`): a
monotone condition's candidate cells form one run per row, found by the
condition's exact span search
(:meth:`~repro.joins.conditions.JoinCondition.candidate_spans`), and the
sampled pairs are binned into entries sorted by row and column.  A sampled
cell the run misses (a floating-point boundary tie) becomes a run of its
own, so the band holds exactly the cells a dense mask with ``candidate |=
frequency > 0`` held.  Nothing is ``n_s x n_s``: the band is O(n_s + s_o).
The spans are computed once per histogram pair; the candidate count that
sizes the output sample and the matrix share them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.grid import BandGrid
from repro.joins.conditions import JoinCondition
from repro.sampling.equidepth import EquiDepthHistogram, bucket_index, open_ends
from repro.sampling.stream_sample import JoinOutputSample

__all__ = [
    "SampleMatrix",
    "build_sample_matrix",
    "candidate_cell_count",
    "histogram_spans",
]

#: Each MS row's candidate columns ``[first, stop)``.
Spans = tuple[np.ndarray, np.ndarray]


def histogram_spans(
    histogram1: EquiDepthHistogram,
    histogram2: EquiDepthHistogram,
    condition: JoinCondition,
) -> Spans:
    """Each row's candidate columns ``[first, stop)`` of the grid of two histograms.

    The outermost boundaries are treated as extending to +-infinity
    (:func:`~repro.sampling.equidepth.open_ends`) so that join keys beyond the
    sampled key range (which routing clamps into the first/last bucket) can
    never land in a cell wrongly marked non-candidate.
    """
    rows, cols = open_ends(histogram1.boundaries), open_ends(histogram2.boundaries)
    return condition.candidate_spans(rows[:-1], rows[1:], cols[:-1], cols[1:])


def candidate_cell_count(
    histogram1: EquiDepthHistogram,
    histogram2: EquiDepthHistogram,
    condition: JoinCondition,
    spans: Spans | None = None,
) -> int:
    """Number of candidate cells of the MS grid implied by the two histograms.

    The output sample size is a small multiple of this count (paper,
    Appendix A1), so it is computed right after the input samples are
    collected and before any output sampling happens.  ``spans`` are the
    pair's :func:`histogram_spans` when the caller has them.
    """
    first, stop = spans if spans is not None else histogram_spans(
        histogram1, histogram2, condition
    )
    return int((stop - first).sum())


@dataclass
class SampleMatrix:
    """The sample matrix MS plus everything needed to map it back to key space.

    Attributes
    ----------
    grid:
        The band grid (input per row/column, candidate runs, estimated
        output of the sampled cells).
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
    spans: Spans | None = None,
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
        The monotonic join condition, used for the candidate runs.
    spans:
        The histograms' :func:`histogram_spans`, when the caller has them.
    """
    row_boundaries = histogram1.boundaries
    col_boundaries = histogram2.boundaries
    num_rows = histogram1.num_buckets
    num_cols = histogram2.num_buckets
    first, stop = spans if spans is not None else histogram_spans(
        histogram1, histogram2, condition
    )

    cells = np.empty(0, dtype=np.int64)
    entry_value = np.empty(0)
    sample_size = output_sample.size
    if sample_size > 0 and output_sample.total_output > 0:
        rows = bucket_index(row_boundaries, output_sample.r1_keys)
        cols = bucket_index(col_boundaries, output_sample.r2_keys)
        cells, counts = np.unique(rows * num_cols + cols, return_counts=True)
        # A cell's sampled pairs, each worth m / s_o: the dense matrix's
        # count times that share, the same float.
        entry_value = counts.astype(np.float64) * (output_sample.total_output / sample_size)
    entry_rows, entry_col = np.divmod(cells, num_cols)

    # Sampled pairs always satisfy the join, so their cells are genuine
    # candidates: one the run misses through a floating-point boundary tie
    # becomes a run of its own.
    run_rows = np.flatnonzero(stop > first)
    run_lo, run_hi = first[run_rows], stop[run_rows]
    missed = (entry_col < first[entry_rows]) | (entry_col >= stop[entry_rows])
    if missed.any():
        run_rows = np.concatenate([run_rows, entry_rows[missed]])
        order = np.lexsort((np.concatenate([run_lo, entry_col[missed]]), run_rows))
        run_rows = run_rows[order]
        run_lo = np.concatenate([run_lo, entry_col[missed]])[order]
        run_hi = np.concatenate([run_hi, entry_col[missed] + 1])[order]

    boundaries = np.arange(num_rows + 1)
    grid = BandGrid(
        row_input=np.full(num_rows, histogram1.expected_bucket_size),
        col_input=np.full(num_cols, histogram2.expected_bucket_size),
        run_ptr=np.searchsorted(run_rows, boundaries),
        run_lo=run_lo,
        run_hi=run_hi,
        entry_ptr=np.searchsorted(entry_rows, boundaries),
        entry_col=entry_col,
        entry_value=entry_value,
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
