"""Reference predicates: every condition's scalar test, grid and bounds, stated directly.

Test-only.  Production conditions state each predicate once, as the rule
the compiled kernel evaluates (``JoinCondition.rule``), and derive
``matches``, the joinable bounds and the candidate grid from it -- so none
of them is independent of the kernel.  These are the ``matches``,
``cell_is_candidate`` and ``candidate_grid`` bodies each class had before
that, kept verbatim as the independent oracle
(``tests/test_condition_properties.py``): a band's interval test, an
inequality's comparison, and a transposed band that swaps the arguments of
its base (``CompositeEquiBandCondition`` carried the band's copies, so it
maps to :class:`Band`).  Their ``joinable_bounds`` are the numpy bounds
production computed before ``repro.joins.native.bounds`` took them all,
kept whole: the joins-nothing rule (:class:`_Bounds`: a NaN key, or a
strict inequality's key at the far end of its domain, gets the empty
interval), a band's float ``k -+ beta`` and its exact saturating int64
bounds under an integral width, an inequality's float and int64 bounds,
and the transposed band's: :func:`_band_lower_inverse` /
:func:`_band_upper_inverse` are the numpy inverses (a few ``nextafter``
nudges, then a memoised float-ordinal bisection), and integer keys under
an integral width take the base's int64 bounds.
``tests/test_bound_identity.py`` holds the kernel's bounds to them bit for
bit, and ``tests/reference_counting.py`` bounds its needles with them, so
the kernel is never its own oracle.

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
    normalise_keys,
)
from repro.sampling.equidepth import open_ends

_INT64_MIN = np.int64(np.iinfo(np.int64).min)
_INT64_MAX = np.int64(np.iinfo(np.int64).max)


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


def _empty_interval(shape, dtype: np.dtype) -> "tuple[np.ndarray, np.ndarray]":
    """Bounds of keys that join nothing: ``(top, just below top)`` each.

    ``top`` sorts last in ``dtype`` -- NaN for floats, the int64 maximum for
    integers -- so no key lies in the interval, and on a sorted run of the
    same dtype both bounds search to the same index.
    """
    top, below = (np.nan, np.inf) if dtype.kind == "f" else (_INT64_MAX, _INT64_MAX - 1)
    return np.full(shape, top, dtype), np.full(shape, below, dtype)


class _Bounds:
    """The joins-nothing rule, once for every twin's ``joinable_bounds``.

    Keys are normalised (``normalise_keys``); the keys
    :meth:`_joins_nothing` marks get the empty interval and the others
    the twin's ``_bounds``, in their dtype and shape.
    """

    def _joins_nothing(self, keys1: np.ndarray) -> np.ndarray:
        """A NaN key joins nothing."""
        return np.isnan(keys1) if keys1.dtype.kind == "f" else np.zeros(keys1.shape, bool)

    def joinable_bounds(self, keys1) -> "tuple[np.ndarray, np.ndarray]":
        keys1 = normalise_keys(keys1)
        joins = ~self._joins_nothing(keys1)
        some_lows, some_highs = self._bounds(keys1[joins])
        lows, highs = _empty_interval(keys1.shape, some_lows.dtype)
        lows[joins], highs[joins] = some_lows, some_highs
        return lows, highs


@dataclass(frozen=True)
class Band(_Bounds):
    """Band, equi and composite (on encoded keys): ``|k1 - k2| <= beta``."""

    beta: float

    def exact_beta(self) -> "np.int64 | None":
        """The width as an int64 when it is an int below 2**62, else ``None``."""
        if isinstance(self.beta, int) and abs(self.beta) < 2**62:
            return np.int64(self.beta)
        return None

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

    def _bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[k - beta, k + beta]``: in int64 for integer keys under an exact
        width, saturating at the int64 extremes (the wrapped sum would turn
        the interval inside out), else in float64."""
        beta = self.exact_beta()
        if beta is None or keys1.dtype.kind == "f":
            keys1 = keys1.astype(np.float64)
            # Past the largest double the rounded bound is +-inf, as in matches().
            with np.errstate(over="ignore"):
                return keys1 - float(self.beta), keys1 + float(self.beta)
        lows, highs = keys1 - beta, keys1 + beta
        lows[keys1 < _INT64_MIN + beta] = _INT64_MIN
        highs[keys1 > _INT64_MAX - beta] = _INT64_MAX
        return lows, highs


@dataclass(frozen=True)
class Inequality(_Bounds):
    """``k1 <op> k2``."""

    op: InequalityOp

    @property
    def above(self) -> bool:
        """Whether ``k1`` joins the keys above it (``<``, ``<=``)."""
        return self.op in (InequalityOp.LT, InequalityOp.LE)

    @property
    def strict(self) -> bool:
        """Whether ``k1`` itself is excluded (``<``, ``>``)."""
        return self.op in (InequalityOp.LT, InequalityOp.GT)

    def _far(self, keys1: np.ndarray):
        """The end of the keys' domain ``k1`` looks towards: +-inf, or an int64 extreme."""
        ends = (-np.inf, np.inf) if keys1.dtype.kind == "f" else (_INT64_MIN, _INT64_MAX)
        return ends[self.above]

    def _joins_nothing(self, keys1: np.ndarray) -> np.ndarray:
        """NaN keys, and a strict operator's keys at the far end: nothing lies beyond it."""
        nothing = super()._joins_nothing(keys1)
        return nothing | (keys1 == self._far(keys1)) if self.strict else nothing

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

    def _bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``[k1 (+ step), far]`` above ``k1`` or ``[far, k1 (- step)]`` below:
        integer keys step by 1, float keys by one ulp (``nextafter``)."""
        far = self._far(keys1)
        near = keys1
        if self.strict:
            if keys1.dtype.kind == "f":
                # The strict bound of the largest double is +-inf (only an
                # infinite key lies strictly beyond it): nextafter overflows
                # to it on purpose.
                with np.errstate(over="ignore"):
                    near = np.nextafter(keys1, far)
            else:
                near = keys1 + (1 if self.above else -1)
        ends = np.full_like(keys1, far)
        return (near, ends) if self.above else (ends, near)


@dataclass(frozen=True)
class Transposed(_Bounds):
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

    def _bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The exact inverses of the base's float bounds; integer keys under
        an exact width take the base's int64 bounds, their own inverse."""
        if keys1.dtype.kind == "i" and self.base.exact_beta() is not None:
            return self.base._bounds(keys1)
        keys1 = keys1.astype(np.float64)
        beta = float(self.base.beta)
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
