"""Stream-Sample: uniform random sampling of the join output.

Chaudhuri, Motwani and Narasayya show that joining uniform samples of the
inputs does *not* yield a uniform sample of the join output, and give the
Stream-Sample algorithm for equi-joins.  The paper extends it to band and
inequality joins by generalising the *joinable set* of an R1 tuple to every
R2 tuple whose key lies inside the joinable interval of the condition.

The algorithm, whose ``d2equi`` index and output sample live here (the
one driver, which builds the index from R2 sorted and makes the draws, is
:func:`repro.sampling.parallel_stream_sample.parallel_stream_sample`, the
paper's three jobs over ``J`` machines; ``num_workers=1`` is one machine):

1. Build ``d2equi``: the distinct R2 join keys with their multiplicities.
2. For every R1 tuple ``t1`` compute ``d2(t1) = |joinable set of t1|`` with
   two binary searches over the sorted distinct keys and a prefix sum of the
   multiplicities.  The exact join output size is ``m = sum_t1 d2(t1)``.
3. Draw a with-replacement sample S1 of R1 keys weighted by ``d2``.
4. For each sampled key, pick a joinable R2 key with probability proportional
   to its multiplicity; the pair of keys is one output-sample tuple.

Every output pair is produced with probability ``d2(t1)/m * 1/d2(t1) = 1/m``,
i.e. uniformly over the join output, without ever executing the join.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.joins import native

__all__ = ["D2Index", "JoinOutputSample"]


@dataclass(frozen=True)
class D2Index:
    """The ``d2equi`` structure: distinct R2 keys, multiplicities and prefix sums.

    ``prefix[i]`` is the number of R2 tuples whose key is among the first
    ``i`` distinct keys, so the number of R2 tuples with keys in the interval
    ``[lo, hi]`` is ``prefix[right] - prefix[left]`` for the binary-search
    positions of ``lo`` and ``hi``.
    """

    keys: np.ndarray
    multiplicities: np.ndarray
    prefix: np.ndarray

    def window(self, lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each closed interval ``[lows[i], highs[i]]``'s distinct keys: ``keys[left:right]``.

        ``left`` / ``right`` are ``searchsorted``'s "left" of the lows and
        "right" of the highs, by :func:`repro.joins.native.search`: the
        bounds are float64 and C-contiguous, as the keys are.
        """
        return native.search(self.keys, lows, False), native.search(self.keys, highs, True)


@dataclass(frozen=True)
class JoinOutputSample:
    """A uniform random sample of join-output key pairs.

    Attributes
    ----------
    pairs:
        Array of shape ``(s_o, 2)``; column 0 holds R1 join keys, column 1
        holds R2 join keys.  The pairs contain only keys (the sample feeds
        the sample matrix, never the downstream plan).
    total_output:
        The exact join output size ``m`` computed as a by-product.
    """

    pairs: np.ndarray
    total_output: int

    @property
    def size(self) -> int:
        """Number of sampled output tuples."""
        return len(self.pairs)

    @property
    def r1_keys(self) -> np.ndarray:
        """R1-side keys of the sampled pairs."""
        return self.pairs[:, 0]

    @property
    def r2_keys(self) -> np.ndarray:
        """R2-side keys of the sampled pairs."""
        return self.pairs[:, 1]
