"""Reference predicates: every condition's scalar test and grid, stated directly.

Test-only.  Production conditions state each predicate once, as joinable
bounds plus a candidate grid, and derive ``matches`` from the bounds -- so
``matches`` is no longer independent of the count kernel.  These are the
``matches``, ``cell_is_candidate`` and ``candidate_grid`` bodies each class
had before that, kept verbatim as the independent oracle
(``tests/test_condition_properties.py``): a band's interval test, an
inequality's comparison, and a transposed band that swaps the arguments of
its base (``CompositeEquiBandCondition`` carried the band's copies, so it
maps to :class:`Band`).  The inequality's float ``joinable_bounds`` is kept
too, to pin production's bounds of finite float keys bit for bit.

:func:`reference_count` is the brute-force count over Python scalars
(``tolist``), whose int/int and int/float comparisons are exact.
:func:`candidate_mask` is the dense mask of a histogram grid as the sample
matrix and M-Bucket built it before they read the conditions' spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.joins.conditions import (
    InequalityJoinCondition,
    InequalityOp,
    JoinCondition,
    _band_lower_inverse,
    _band_upper_inverse,
    _TransposedBandCondition,
)
from repro.sampling.equidepth import open_ends


@dataclass(frozen=True)
class Band:
    """Band, equi and composite (on encoded keys): ``|k1 - k2| <= beta``."""

    beta: float

    def matches(self, k1: float, k2: float) -> bool:
        # Phrased as the interval test (not abs(k1 - k2) <= beta) so that
        # matches() and joinable_interval() agree bit-for-bit under floating
        # point rounding.
        return k1 - self.beta <= k2 <= k1 + self.beta

    def cell_is_candidate(
        self, lo1: float, hi1: float, lo2: float, hi2: float
    ) -> bool:
        # The ranges can produce a match unless they are separated by more
        # than beta on either side.
        return not (lo2 - hi1 > self.beta or lo1 - hi2 > self.beta)

    def candidate_grid(
        self,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        col_lo: np.ndarray,
        col_hi: np.ndarray,
    ) -> np.ndarray:
        row_lo = np.asarray(row_lo, dtype=np.float64)
        row_hi = np.asarray(row_hi, dtype=np.float64)
        col_lo = np.asarray(col_lo, dtype=np.float64)
        col_hi = np.asarray(col_hi, dtype=np.float64)
        too_high = col_lo[None, :] - row_hi[:, None] > self.beta
        too_low = row_lo[:, None] - col_hi[None, :] > self.beta
        return ~(too_high | too_low)

    def joinable_bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys1 = np.asarray(keys1, dtype=np.float64)
        return keys1 - self.beta, keys1 + self.beta


@dataclass(frozen=True)
class Inequality:
    """``k1 <op> k2``."""

    op: InequalityOp

    def matches(self, k1: float, k2: float) -> bool:
        if self.op is InequalityOp.LT:
            return k1 < k2
        if self.op is InequalityOp.LE:
            return k1 <= k2
        if self.op is InequalityOp.GT:
            return k1 > k2
        return k1 >= k2

    def cell_is_candidate(
        self, lo1: float, hi1: float, lo2: float, hi2: float
    ) -> bool:
        if self.op in (InequalityOp.LT, InequalityOp.LE):
            strict = self.op is InequalityOp.LT
            return lo1 < hi2 if strict else lo1 <= hi2
        strict = self.op is InequalityOp.GT
        return hi1 > lo2 if strict else hi1 >= lo2

    def candidate_grid(
        self,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        col_lo: np.ndarray,
        col_hi: np.ndarray,
    ) -> np.ndarray:
        row_lo = np.asarray(row_lo, dtype=np.float64)
        row_hi = np.asarray(row_hi, dtype=np.float64)
        col_lo = np.asarray(col_lo, dtype=np.float64)
        col_hi = np.asarray(col_hi, dtype=np.float64)
        if self.op is InequalityOp.LT:
            return row_lo[:, None] < col_hi[None, :]
        if self.op is InequalityOp.LE:
            return row_lo[:, None] <= col_hi[None, :]
        if self.op is InequalityOp.GT:
            return row_hi[:, None] > col_lo[None, :]
        return row_hi[:, None] >= col_lo[None, :]

    def joinable_bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys1 = np.asarray(keys1, dtype=np.float64)  # repro: ignore[KEY001]  # inequality predicates are float-ordered by definition
        inf = np.full(len(keys1), np.inf)
        if self.op is InequalityOp.LT:
            return np.nextafter(keys1, np.inf), inf
        if self.op is InequalityOp.LE:
            return keys1, inf
        if self.op is InequalityOp.GT:
            return -inf, np.nextafter(keys1, -np.inf)
        return -inf, keys1


@dataclass(frozen=True)
class Transposed:
    """A band seen from the R2 side: the base's test with the sides swapped."""

    base: Band

    def matches(self, k1: float, k2: float) -> bool:
        """Swapped-argument match: this object's R1 side is the base's R2."""
        return self.base.matches(k2, k1)

    def cell_is_candidate(
        self, lo1: float, hi1: float, lo2: float, hi2: float
    ) -> bool:
        """Delegate to the base condition with the ranges swapped."""
        return self.base.cell_is_candidate(lo2, hi2, lo1, hi1)

    def candidate_grid(
        self,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        col_lo: np.ndarray,
        col_hi: np.ndarray,
    ) -> np.ndarray:
        row_lo = np.asarray(row_lo, dtype=np.float64)
        row_hi = np.asarray(row_hi, dtype=np.float64)
        col_lo = np.asarray(col_lo, dtype=np.float64)
        col_hi = np.asarray(col_hi, dtype=np.float64)
        mask = np.zeros((len(row_lo), len(col_lo)), dtype=bool)
        for i in range(len(row_lo)):
            for j in range(len(col_lo)):
                mask[i, j] = self.cell_is_candidate(
                    float(row_lo[i]), float(row_hi[i]),
                    float(col_lo[j]), float(col_hi[j]),
                )
        return mask

    def joinable_bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys1 = np.asarray(keys1, dtype=np.float64)
        beta = self.base.beta
        return _band_lower_inverse(keys1, beta), _band_upper_inverse(keys1, beta)


def reference(condition: JoinCondition) -> "Band | Inequality | Transposed":
    """The directly stated twin of a production condition.

    An integral band width is held as a Python int: ``k1 - 1`` is then
    exact on Python-int keys above 2**53 (``k1 - 1.0`` rounds), and on
    float keys it is the same float as ``k1 - 1.0``.
    """
    if isinstance(condition, _TransposedBandCondition):
        return Transposed(reference(condition.base))
    if isinstance(condition, InequalityJoinCondition):
        return Inequality(condition.op)
    beta = condition.beta
    return Band(int(beta) if float(beta).is_integer() else beta)


def reference_count(condition: JoinCondition, keys1, keys2) -> int:
    """Brute-force output size: the reference test on every pair of scalars."""
    twin = reference(condition)
    return sum(
        twin.matches(k1, k2)
        for k1 in np.asarray(keys1).tolist()
        for k2 in np.asarray(keys2).tolist()
    )


def candidate_mask(row_boundaries, col_boundaries, condition: JoinCondition) -> np.ndarray:
    """The reference candidate mask of the grid two boundary arrays define.

    The outermost boundaries extend to +-infinity
    (:func:`~repro.sampling.equidepth.open_ends`), as the sample matrix's.
    """
    rows, cols = open_ends(row_boundaries), open_ends(col_boundaries)
    return reference(condition).candidate_grid(rows[:-1], rows[1:], cols[:-1], cols[1:])
