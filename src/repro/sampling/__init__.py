"""Input and output sampling substrates.

The equi-weight histogram needs two kinds of statistics (paper, section IV):

* the *input* distribution of each relation, captured by approximate
  equi-depth histograms built from small Bernoulli samples
  (:mod:`repro.sampling.equidepth`, :mod:`repro.sampling.bernoulli`), and
* a uniform random sample of the *join output*, which cannot be obtained by
  joining input samples (Chaudhuri et al.); instead the Stream-Sample
  algorithm is used, extended to band/inequality joins and parallelised.
  Its kernels (the ``d2equi`` index, joinable-set sizes, the R2-key draw)
  live in :mod:`repro.sampling.stream_sample`; the one driver is
  :func:`~repro.sampling.parallel_stream_sample.parallel_stream_sample`,
  the paper's three jobs over ``J`` machines, with ``num_workers=1`` as the
  one-machine case.  Weighted reservoir sampling (Efraimidis--Spirakis)
  underpins the parallel weighted sample (:mod:`repro.sampling.reservoir`).

:mod:`repro.sampling.sizes` centralises the sample-size formulas of the
paper (s_i = Theta(n_s log n), s_o = Theta(n_s), n_s = sqrt(2 n J)).
"""

from repro.sampling.bernoulli import bernoulli_sample
from repro.sampling.equidepth import EquiDepthHistogram, build_equidepth_histogram
from repro.sampling.parallel_stream_sample import parallel_stream_sample
from repro.sampling.reservoir import (
    WeightedReservoir,
    merge_reservoirs,
    weighted_sample_wor,
    wor_to_wr,
)
from repro.sampling.sizes import (
    input_sample_size,
    output_sample_size,
    sample_matrix_size,
)
from repro.sampling.stream_sample import (
    JoinOutputSample,
    compute_joinable_set_sizes,
)

__all__ = [
    "bernoulli_sample",
    "EquiDepthHistogram",
    "build_equidepth_histogram",
    "WeightedReservoir",
    "weighted_sample_wor",
    "wor_to_wr",
    "merge_reservoirs",
    "JoinOutputSample",
    "compute_joinable_set_sizes",
    "parallel_stream_sample",
    "sample_matrix_size",
    "input_sample_size",
    "output_sample_size",
]
