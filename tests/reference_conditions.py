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
too, to pin production's bounds of finite float keys bit for bit, and so is
the transposed band's: :func:`_band_lower_inverse` /
:func:`_band_upper_inverse` are the numpy inverses (a few ``nextafter``
nudges, then a memoised float-ordinal bisection) production computed before
the compiled kernel's ``repro.joins.native.band_inverse``.

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
    _TransposedBandCondition,
)
from repro.sampling.equidepth import open_ends

_INT64_MIN = np.int64(np.iinfo(np.int64).min)


def _to_ordinal(x: np.ndarray) -> np.ndarray:
    """Map float64s to int64 ordinals that preserve the numeric order.

    Positive floats already sort by their bit patterns; negative floats
    sort in reverse, so their bits are reflected (the classic
    total-ordering trick).  The map is an involution with
    :func:`_from_ordinal` (up to ``-0.0 == 0.0``).
    """
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.int64)
    return np.where(bits >= 0, bits, _INT64_MIN - bits)


def _from_ordinal(ordinal: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_to_ordinal`."""
    bits = np.where(ordinal >= 0, ordinal, _INT64_MIN - ordinal)
    return bits.view(np.float64)


def _ordinal_midpoint(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Overflow-safe elementwise int64 midpoint with ``lo <= mid <= hi``."""
    return (lo >> 1) + (hi >> 1) + (lo & hi & 1)


#: Memoised bisection results, keyed by (beta, key, is_lower).  Bisected
#: keys are the rare scale-mismatch cases (e.g. ``k2 - beta`` near zero),
#: and streams revisit the same hot key values batch after batch, so the
#: cache turns the 66-iteration bisection into a dict hit from the second
#: occurrence on.  Bounded; per process (workers build their own).
_INVERSE_CACHE: dict[tuple[float, float, bool], float] = {}
_INVERSE_CACHE_LIMIT = 65536


def _bisect_inverse(pending: np.ndarray, beta: float, lower: bool) -> np.ndarray:
    """Exact inverse band bounds by bisecting float *ordinals*.

    For ``lower=True``: minimal ``x`` with ``fl(x + beta) >= k2``, bracket
    ``(-inf`` unsatisfied, ``k2`` satisfied] -- rounding a real ``>= k2``
    cannot fall below the representable ``k2``.  For ``lower=False``:
    maximal ``x`` with ``fl(x - beta) <= k2``, bracket ``[k2`` satisfied,
    ``+inf`` unsatisfied).  The whole float range spans fewer than 2**65
    ordinals, so 66 halvings always reach a gap of one.
    """
    if lower:
        lo = _to_ordinal(np.full_like(pending, -np.inf))
        hi = _to_ordinal(pending)
    else:
        lo = _to_ordinal(pending)
        hi = _to_ordinal(np.full_like(pending, np.inf))
    for _ in range(66):
        mid = _ordinal_midpoint(lo, hi)
        x = _from_ordinal(mid)
        # A probe near the largest double may round past it to +-inf: that
        # is the sum the band test rounds to (see _band_lower_inverse).
        with np.errstate(over="ignore"):
            satisfied = (x + beta) >= pending if lower else (x - beta) <= pending
        if lower:
            hi = np.where(satisfied, mid, hi)
            lo = np.where(satisfied, lo, mid)
        else:
            lo = np.where(satisfied, mid, lo)
            hi = np.where(satisfied, hi, mid)
    return _from_ordinal(hi if lower else lo)


def _bisect_cached(keys: np.ndarray, beta: float, lower: bool) -> np.ndarray:
    """Deduplicated, memoised wrapper around :func:`_bisect_inverse`."""
    unique, inverse = np.unique(keys, return_inverse=True)
    out = np.empty(len(unique), dtype=np.float64)
    misses = []
    for position, key in enumerate(unique):
        hit = _INVERSE_CACHE.get((beta, float(key), lower))  # repro: ignore[KEY001]  # cache is keyed by the float ordinal being bisected
        if hit is None:
            misses.append(position)
        else:
            out[position] = hit
    if misses:
        solved = _bisect_inverse(unique[misses], beta, lower)
        for position, value in zip(misses, solved):
            out[position] = value
            if len(_INVERSE_CACHE) < _INVERSE_CACHE_LIMIT:
                _INVERSE_CACHE[(beta, float(unique[position]), lower)] = float(
                    value
                )
    return out[inverse]


def _band_lower_inverse(keys2: np.ndarray, beta: float) -> np.ndarray:
    """Smallest ``x`` per key with ``fl(x + beta) >= k2`` (exact inverse).

    The band test from the R1 side is ``k2 <= fl(k1 + beta)``; seen from the
    R2 side that is ``k1 >= L(k2)`` with ``L`` this inverse.  ``fl(k2 -
    beta)`` is within a couple of ulps *of the sum's scale*, so a few
    :func:`numpy.nextafter` nudges settle the common same-scale case; keys
    whose own ulp is far smaller than the sum's (e.g. ``x`` near zero with a
    large ``beta``) would need astronomically many single-ulp steps, so any
    lane not settled falls back to a memoised float-ordinal bisection
    (:func:`_bisect_cached`), guaranteed to terminate.
    """
    keys2 = np.asarray(keys2, dtype=np.float64)  # repro: ignore[KEY001]  # band inverse works in the keys' float64 image
    # A nudge past the largest double, or a sum beyond it, is +-inf by IEEE
    # rounding, and that is the step the nudges mean to take: the overflow
    # is the answer, not an error.
    with np.errstate(over="ignore"):
        x = keys2 - beta
        for _ in range(4):
            unsatisfied = (x + beta) < keys2
            if unsatisfied.any():
                x = np.where(unsatisfied, np.nextafter(x, np.inf), x)
                continue
            predecessor = np.nextafter(x, -np.inf)
            movable = (predecessor + beta) >= keys2
            if not movable.any():
                return x
            x = np.where(movable, predecessor, x)
        settled = ((x + beta) >= keys2) & ((np.nextafter(x, -np.inf) + beta) < keys2)
    if not settled.all():
        x = x.copy()
        pending = ~settled
        x[pending] = _bisect_cached(keys2[pending], beta, lower=True)
    return x


def _band_upper_inverse(keys2: np.ndarray, beta: float) -> np.ndarray:
    """Largest ``x`` per key with ``fl(x - beta) <= k2`` (exact inverse).

    Mirror of :func:`_band_lower_inverse` for the ``fl(k1 - beta) <= k2``
    half of the band test, with the same nudge-then-bisect structure.
    """
    keys2 = np.asarray(keys2, dtype=np.float64)  # repro: ignore[KEY001]  # band inverse works in the keys' float64 image
    # As in _band_lower_inverse: overflowing to +-inf is the step meant.
    with np.errstate(over="ignore"):
        x = keys2 + beta
        for _ in range(4):
            unsatisfied = (x - beta) > keys2
            if unsatisfied.any():
                x = np.where(unsatisfied, np.nextafter(x, -np.inf), x)
                continue
            successor = np.nextafter(x, np.inf)
            movable = (successor - beta) <= keys2
            if not movable.any():
                return x
            x = np.where(movable, successor, x)
        settled = ((x - beta) <= keys2) & ((np.nextafter(x, np.inf) - beta) > keys2)
    if not settled.all():
        x = x.copy()
        pending = ~settled
        x[pending] = _bisect_cached(keys2[pending], beta, lower=False)
    return x


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
        # Two ends at the same infinity (an open outer bucket) subtract to
        # NaN, which is not > beta: such a pair never separates a cell, and
        # the cell stays a candidate.  Finite ends further apart than the
        # largest double subtract to inf, which is > beta, as the exact
        # difference is.
        with np.errstate(invalid="ignore", over="ignore"):
            too_high = col_lo[None, :] - row_hi[:, None] > self.beta
            too_low = row_lo[:, None] - col_hi[None, :] > self.beta
        return ~(too_high | too_low)

    def joinable_bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys1 = np.asarray(keys1, dtype=np.float64)
        # Past the largest double the rounded bound is +-inf, as in matches().
        with np.errstate(over="ignore"):
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
        # The strict bound of the largest double is +-inf (only an infinite
        # key lies strictly beyond it): nextafter overflows to it on purpose.
        with np.errstate(over="ignore"):
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
