"""Input and output sampling substrates.

The equi-weight histogram needs two kinds of statistics (paper, section IV):

* the *input* distribution of each relation, captured by approximate
  equi-depth histograms built from small uniform samples
  (:mod:`repro.sampling.equidepth`), and
* a uniform random sample of the *join output*, which cannot be obtained by
  joining input samples (Chaudhuri et al.); instead the Stream-Sample
  algorithm is used, extended to band/inequality joins and parallelised.
  Its structures (the ``d2equi`` index, the output sample) live in
  :mod:`repro.sampling.stream_sample`; the one driver, draws included, is
  :func:`~repro.sampling.parallel_stream_sample.parallel_stream_sample`,
  the paper's three jobs over ``J`` machines, with ``num_workers=1`` as the
  one-machine case.  Weighted reservoir sampling (Efraimidis--Spirakis)
  underpins the parallel weighted sample and the stream histogram's
  decayed one (:mod:`repro.sampling.reservoir`).

:mod:`repro.sampling.sizes` centralises the sample-size formulas of the
paper (s_i = Theta(n_s log n), s_o = Theta(n_s), n_s = sqrt(2 n J)).
"""

from repro import lazy_exports

# The driver shares its submodule's name.  Importing a submodule binds it on
# the package, which would shadow a lazily resolved driver, so this one export
# is bound eagerly, after its submodule; every run that samples loads it anyway.
from repro.sampling.parallel_stream_sample import parallel_stream_sample

_EXPORTS = {
    "EquiDepthHistogram": "repro.sampling.equidepth",
    "build_equidepth_histogram": "repro.sampling.equidepth",
    "WeightedReservoir": "repro.sampling.reservoir",
    "weighted_samples_wor": "repro.sampling.reservoir",
    "wor_to_wr": "repro.sampling.reservoir",
    "merge_reservoirs": "repro.sampling.reservoir",
    "JoinOutputSample": "repro.sampling.stream_sample",
    "parallel_stream_sample": "repro.sampling.parallel_stream_sample",
    "sample_matrix_size": "repro.sampling.sizes",
    "input_sample_size": "repro.sampling.sizes",
    "output_sample_size": "repro.sampling.sizes",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
