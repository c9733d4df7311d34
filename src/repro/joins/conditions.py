"""Monotonic join conditions.

The paper targets the class of *monotonic* joins: joins whose candidate-cell
structure in the join matrix is monotonic, i.e. the candidate cells of every
row (and column) form one contiguous run.  Equi-joins, band-joins and
inequality joins (``<``, ``<=``, ``>``, ``>=``) all belong to this class, as
do conjunctions of an equality condition with a band condition when keys are
encoded lexicographically (the BE_OCD join of the paper).

Every concrete condition states its predicate once, as a rule the compiled
kernel evaluates, plus its :attr:`~JoinCondition.transposed`.  The rule
(:meth:`~JoinCondition.rule`) is ``(name, beta)``: ``"band"`` with the band
family's width (band, equi and composite), ``"band_inverse"`` with the
width of the band it transposes, or an inequality's own symbol with width
0.  The kernel reads it two ways:

joinable bounds (``joinable_bounds(keys1)``, :func:`repro.joins.native.bounds`)
    For each R1 key, the closed interval ``[lo, hi]`` of R2 keys it joins:
    a band's ``[k - beta, k + beta]``, the transposed band's exact inverses
    of those rounded bounds, an inequality's ``[k, far]`` or ``[far, k]``,
    a strict one a step from ``k``.  Stream-Sample reads its joinable-set
    sizes d2 from them, and the count kernel (:func:`repro.joins.native.fold`)
    bounds its needles with the same loops.

candidate spans (``candidate_spans``, :func:`repro.joins.native.spans`)
    For a cell of key ranges ``[row_lo, row_hi] x [col_lo, col_hi]``, does
    it lie left or right of every pair its row can join?  A cell that does
    neither is a *candidate*: some pair in it may join.  Non-candidate cells
    are never assigned to a machine by the content-sensitive schemes.  The
    band family's test is ``fl(row_lo - col_hi) > beta`` / ``fl(col_lo -
    row_hi) > beta`` (the transposed band's too), an inequality's its
    operator.

:class:`JoinCondition` derives every other view from those two, once:
``matches`` and ``matches_many`` test ``lo <= k2 <= hi``,
``joinable_interval`` is one key's bounds, ``candidate_grid`` is the mask
of the spans' runs, ``cell_is_candidate`` a 1x1 grid and
``count_matches_per_key`` two searches.  The kernel, the samplers, the
planner and the scalar test therefore cannot disagree about a pair.

A monotone condition's candidate cells form one run per row.  The rule is
the rounded test the dense mask used to evaluate cell by cell (``fl(col_lo
- row_hi) > beta`` for a band), and rounding is monotone, so on ascending
edges each half of it holds on a prefix (left) or a suffix (right) of the
columns.  ``candidate_spans`` finds both ends exactly in one kernel call,
two bisections per row on the rule itself.  Searching shifted boundaries
(``searchsorted(col_hi, row_lo - beta)``) rounds differently from the
test and is not exact.

A key that joins nothing gets the empty interval (``(nan, +inf)`` for
floats, ``(int64 max, int64 max - 1)`` for integers), so every count path
counts zero for it: a NaN key under every condition, and a strict
inequality's key at the far end of its domain (``+-inf``, or the int64
extremes), since nothing lies beyond it.

Bounds are in the keys' normalised dtype (:func:`normalise_keys`) -- int64
when the keys are integers and the width an int, float64 otherwise -- to
be searched in a side of the same dtype: ``matches_many``,
``count_matches_per_key`` and the count kernel bring both sides to their
common dtype first, so integer keys meet a float side as floats (``5 <
5.5``, though the integer step ``5 + 1`` is not ``<= 5.5``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.joins import native

__all__ = [
    "JoinCondition",
    "EquiJoinCondition",
    "BandJoinCondition",
    "InequalityJoinCondition",
    "InequalityOp",
    "CompositeEquiBandCondition",
    "CONDITION_KINDS",
    "make_condition",
    "exact_integer_keys",
    "normalise_keys",
    "transposed_of",
]

#: The condition kinds :func:`make_condition` constructs, in catalogue
#: order.  The query compiler validates against this tuple so its error
#: messages can name every choice.
CONDITION_KINDS = ("equi", "band", "inequality", "composite")


def exact_integer_keys(keys) -> "np.ndarray | None":
    """The array's values as exact int64, or ``None`` when that's impossible.

    This is the one shared definition of "integer keys that must not round
    through float64": signed-integer arrays widen to int64 (copy-free when
    already int64); unsigned arrays qualify when every value fits in int64
    (converting avoids both uint underflow in ``k - beta`` and lossy float
    promotion in mixed comparisons).  Float and other dtypes -- and the
    pathological uint64 beyond int64 range -- return ``None``: callers
    needing a total function fall back to ``float64`` themselves.  Used by
    the exact-count paths here, by
    :func:`~repro.joins.local.count_join_output` and by the streaming
    sources, so the edge rules can never silently diverge.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind == "i":
        return keys.astype(np.int64, copy=False)
    if keys.dtype.kind == "u":
        if keys.size == 0 or keys.max() <= np.iinfo(np.int64).max:
            return keys.astype(np.int64)
    return None


def normalise_keys(keys) -> np.ndarray:
    """Normalise a join-key array: exact int64 image, else ``float64``.

    The total-function companion of :func:`exact_integer_keys`, shared by
    the counting kernel and the streaming sources so their fallback rule
    cannot drift.
    """
    exact = exact_integer_keys(keys)
    if exact is not None:
        return exact
    return np.asarray(keys, dtype=np.float64)


def transposed_of(condition: "JoinCondition") -> "JoinCondition":
    """``condition.transposed``, or a ``ValueError`` naming a condition without one."""
    try:
        return condition.transposed
    except NotImplementedError as error:
        raise ValueError(
            f"condition {condition!r} does not define .transposed, which "
            "the incremental count needs to search the sorted R1 state"
        ) from error


def _common_keys(keys1, keys2) -> "tuple[np.ndarray, np.ndarray]":
    """Both sides normalised into their common dtype (float if either is)."""
    keys1, keys2 = normalise_keys(keys1), normalise_keys(keys2)
    dtype = np.promote_types(keys1.dtype, keys2.dtype)
    return keys1.astype(dtype, copy=False), keys2.astype(dtype, copy=False)


def _edges(*edges) -> "list[np.ndarray]":
    """Cell edges of a candidate grid as C-contiguous float64 arrays."""
    return [np.require(edge, np.float64, "CA") for edge in edges]


class JoinCondition:
    """Abstract base class for monotonic join conditions.

    A subclass states its predicate once, as :meth:`rule`, plus
    :attr:`transposed`.  Everything else is derived here, once.
    """

    #: Human-readable name used in reports and benchmark output.
    name: str = "join"

    def rule(self) -> "tuple[str, int | float]":
        """The condition's rule, as the compiled kernel evaluates it: ``(name, beta)``.

        ``"band"`` bounds a key by ``[k - beta, k + beta]`` and excludes a
        cell lying left of every pair its row joins (``fl(row_lo - col_hi)
        > beta``: even its highest key is too low) or right of them
        (``fl(col_lo - row_hi) > beta``); ``"band_inverse"`` bounds a key by
        the transposed band's exact inverses and excludes the band's cells;
        ``"<"`` / ``"<="`` bound by ``[k, far]`` and exclude the cells left
        of ``row_lo``, ``">"`` / ``">="`` bound by ``[far, k]`` and exclude
        those right of ``row_hi``, by the operator's comparison.  ``beta``
        is an int when the width is integral (int64 keys are then bounded
        in exact int64 arithmetic, a width above 2**53 included) and a float
        otherwise, which bounds integer keys as float64; the inequalities'
        is 0.
        """
        raise NotImplementedError

    def candidate_spans(
        self,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        col_lo: np.ndarray,
        col_hi: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each grid row's candidate columns ``[first, stop)`` (``stop >= first``).

        Rows are R1 key ranges ``[row_lo[i], row_hi[i]]``, columns R2 key
        ranges, each edge array ascending as a grid's are.  The left half
        of :meth:`rule` holds on a prefix of a row's columns and the right
        half on a suffix, so ``first`` is where the left stops holding and
        ``stop`` where the right starts: one kernel call
        (:func:`repro.joins.native.spans`) bisects both per row.  The rule
        is the one the dense mask evaluated, rounded as numpy rounds it, so
        the spans are its runs cell for cell.
        """
        return native.spans(*_edges(row_lo, row_hi, col_lo, col_hi), *self.rule())

    def candidate_grid(
        self,
        row_lo: np.ndarray,
        row_hi: np.ndarray,
        col_lo: np.ndarray,
        col_hi: np.ndarray,
    ) -> np.ndarray:
        """Candidate mask of a grid: rows are R1 key ranges, columns R2 key ranges.

        The mask of :meth:`candidate_spans`' runs, for edges ascending as a
        grid's are.
        """
        first, stop = self.candidate_spans(row_lo, row_hi, col_lo, col_hi)
        columns = np.arange(np.size(col_lo))
        return (columns >= first[:, None]) & (columns < stop[:, None])

    @property
    def transposed(self) -> "JoinCondition":
        """The same predicate with the join sides swapped.

        ``transposed.matches(k2, k1) == matches(k1, k2)`` for all keys, so
        ``transposed.joinable_interval(k2)`` is the interval of *R1* keys
        joinable with ``k2``.  The streaming engine's incremental counting
        uses this to count (retained R1 state) x (new R2 arrivals) pairs by
        binary-searching the sorted state side.  Inequality joins flip the
        operator; band-like conditions return a wrapper whose interval
        bounds are the exact floating-point inverses of the original
        ``[k1 - beta, k1 + beta]`` test, so both orientations agree
        bit-for-bit on every float input -- including keys exactly at a
        rounded band boundary.
        """
        raise NotImplementedError(
            f"{self.__class__.__name__} does not define a transposed condition"
        )

    def joinable_bounds(self, keys1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-key closed bounds ``[lo, hi]`` of the R2 keys each R1 key joins.

        Keys are normalised (:func:`normalise_keys`), of any shape, and
        bounded by :meth:`rule` in one kernel call
        (:func:`repro.joins.native.bounds`): int64 bounds for integer keys
        under an int width, float64 otherwise, in the keys' shape.
        """
        keys1 = np.require(normalise_keys(keys1), requirements="CA")
        return native.bounds(keys1, *self.rule())

    def joinable_interval(self, k1: float) -> tuple[float, float]:
        """Return the closed interval ``[lo, hi]`` of R2 keys joinable with ``k1``."""
        lows, highs = self.joinable_bounds(np.array([k1]))
        return lows[0].item(), highs[0].item()

    def matches_many(self, keys1: np.ndarray, keys2: np.ndarray) -> np.ndarray:
        """Broadcast match: ``keys2`` inside the joinable bounds of ``keys1``.

        ``matches_many(k1[:, None], k2[None, :])`` is the whole join matrix.
        Keys are compared in their common normalised dtype.
        """
        keys1, keys2 = _common_keys(keys1, keys2)
        lows, highs = self.joinable_bounds(keys1)
        return (keys2 >= lows) & (keys2 <= highs)

    def matches(self, k1: float, k2: float) -> bool:
        """Return ``True`` iff keys ``k1`` (from R1) and ``k2`` (from R2) join."""
        return bool(self.matches_many(np.array([k1]), np.array([k2]))[0])

    def cell_is_candidate(
        self, lo1: float, hi1: float, lo2: float, hi2: float
    ) -> bool:
        """Return ``True`` iff the key ranges ``[lo1, hi1] x [lo2, hi2]`` may join."""
        return bool(self.candidate_grid([lo1], [hi1], [lo2], [hi2])[0, 0])

    def count_matches_per_key(
        self, keys1: np.ndarray, sorted_keys2: np.ndarray
    ) -> np.ndarray:
        """For each key in ``keys1``, count joinable tuples in ``sorted_keys2``.

        ``sorted_keys2`` must be sorted ascending.  This is the joinable-set
        size d2(k1) used by Stream-Sample, computed with binary search.
        Both sides are searched in their common normalised dtype: two
        integer sides stay integers, so a condition with an exact integer
        path counts int64 keys above 2**53 exactly.
        """
        keys1, sorted_keys2 = _common_keys(keys1, sorted_keys2)
        lows, highs = self.joinable_bounds(keys1)
        # The difference of two intp index arrays is already a fresh int64.
        return sorted_keys2.searchsorted(highs, "right") - sorted_keys2.searchsorted(
            lows, "left"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{self.__class__.__name__}()"


@dataclass(frozen=True, repr=False)
class BandJoinCondition(JoinCondition):
    """Band join ``|R1.key - R2.key| <= beta``.

    ``beta = 0`` degenerates to an equi-join on numeric keys.
    """

    beta: float

    def __post_init__(self) -> None:
        if not self.beta >= 0:  # NaN too: it bounds nothing
            raise ValueError(f"band width must be non-negative, got {self.beta}")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"band(beta={self.beta:g})"

    @property
    def transposed(self) -> "JoinCondition":
        # A band is symmetric mathematically, but the interval test
        # [fl(k1-beta), fl(k1+beta)] is evaluated from the R1 side; the
        # wrapper inverts those rounded bounds exactly (see
        # _TransposedBandCondition) so both orientations agree bit-for-bit.
        return _TransposedBandCondition(self)

    def rule(self) -> "tuple[str, int | float]":
        """``("band", beta)``, beta an int when integral.

        Integer keys with an integral band width are bounded in exact int64
        arithmetic (unsigned arrays via their exact int64 image): casting
        integer keys above 2**53 to float64 rounds them, which can move a
        key across the band boundary and change the join output.  ``k +-
        beta`` past the int64 range saturates at its extremes -- no int64
        key lies beyond them.  Float keys, or a fractional width, bound in
        float64.  Cell edges may be infinite (a histogram's open ends):
        IEEE 754 makes the difference of two infinities of one sign NaN and
        ``NaN > beta`` false, so such a cell is never excluded -- rightly:
        both ranges reach the same infinite key, and ``inf`` joins ``inf``.
        A width given as a Python int converts directly -- routing it
        through ``float`` first would round widths above 2**53, silently
        changing which keys fall inside the band.
        """
        if abs(self.beta) < 2**62 and float(self.beta).is_integer():
            return "band", int(self.beta)
        return "band", float(self.beta)

    def __repr__(self) -> str:
        return f"BandJoinCondition(beta={self.beta!r})"


@dataclass(frozen=True, repr=False)
class EquiJoinCondition(BandJoinCondition):
    """Equality join ``R1.key = R2.key`` (a band join of width zero)."""

    beta: float = 0.0

    @property
    def name(self) -> str:  # type: ignore[override]
        return "equi"

    def __repr__(self) -> str:
        return "EquiJoinCondition()"


class InequalityOp(enum.Enum):
    """Comparison operator of an inequality join ``R1.key <op> R2.key``."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


#: Swaps ``<`` and ``>`` in an operator's symbol: the operator seen from R2.
_FLIP = str.maketrans("<>", "><")


@dataclass(frozen=True, repr=False)
class InequalityJoinCondition(JoinCondition):
    """Inequality join ``R1.key <op> R2.key`` for ``op`` in ``<, <=, >, >=``.

    One rule with two parts.  Direction: ``<`` and ``<=`` join the R2 keys
    above ``k1``, ``>`` and ``>=`` the keys below.  Strictness: the strict
    operators start one step away from ``k1``.
    """

    op: InequalityOp

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"inequality({self.op.value})"

    @property
    def transposed(self) -> "InequalityJoinCondition":
        # k1 < k2 seen from the R2 side is k2 > k1: flip the operator.
        return InequalityJoinCondition(InequalityOp(self.op.value.translate(_FLIP)))

    def rule(self) -> "tuple[str, int | float]":
        """The operator's own symbol, with no width.

        Above ``k1`` the bounds are ``[k1 (+ step), far]`` and the cells too
        far left are excluded (``row_lo`` against ``col_hi``), below it
        ``[far, k1 (- step)]`` and those too far right (``col_lo`` against
        ``row_hi``).  Integer keys step by 1 and end at the int64 extremes,
        float keys step by one ulp (``nextafter``) and end at ``+-inf``.
        """
        return self.op.value, 0

    def __repr__(self) -> str:
        return f"InequalityJoinCondition(op=InequalityOp.{self.op.name})"


@dataclass(frozen=True, repr=False)
class CompositeEquiBandCondition(BandJoinCondition):
    """Conjunction of an equality and a band condition (the BE_OCD join).

    The paper's BE_OCD join requires ``O1.custkey = O2.custkey`` *and*
    ``|O1.ship_priority - O2.ship_priority| <= beta``.  Such a join is
    monotonic under a lexicographic encoding of the composite key: we map the
    pair ``(equi_key, band_key)`` to the scalar ``equi_key * scale +
    band_key`` where ``scale`` strictly exceeds the band key's span plus the
    band width.  Under that encoding the composite join is exactly a band
    join of width ``beta`` on encoded keys, so every algorithm in the library
    (candidate checks, Stream-Sample, tiling) applies unchanged: this class
    *is* a :class:`BandJoinCondition` on encoded keys.

    Parameters
    ----------
    beta:
        Width of the band on the band attribute.
    scale:
        Encoding multiplier for the equality attribute.  Must satisfy
        ``scale > band_key_max - band_key_min + beta``.
    band_key_min, band_key_max:
        Inclusive domain of the band attribute, used to validate ``scale``
        and by :meth:`encode`.
    """

    scale: float
    band_key_min: float = 0.0
    band_key_max: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        span = self.band_key_max - self.band_key_min
        if span < 0:
            raise ValueError("band_key_max must be >= band_key_min")
        if self.scale <= span + self.beta:
            raise ValueError(
                "scale must exceed the band attribute span plus the band width "
                f"(need > {span + self.beta}, got {self.scale})"
            )

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"equi+band(beta={self.beta:g})"

    def encode(self, equi_key, band_key):
        """Encode composite ``(equi_key, band_key)`` into a scalar join key.

        Accepts scalars or numpy arrays.
        """
        return np.asarray(equi_key, dtype=np.float64) * self.scale + np.asarray(  # repro: ignore[KEY001]  # composite scalar encoding is float64 arithmetic by design
            band_key, dtype=np.float64
        )

    def decode(self, encoded):
        """Inverse of :meth:`encode`; returns ``(equi_key, band_key)`` arrays."""
        encoded = np.asarray(encoded, dtype=np.float64)
        equi = np.floor((encoded - self.band_key_min) / self.scale)
        band = encoded - equi * self.scale
        return equi, band

    def matches_composite(self, equi1, band1, equi2, band2) -> bool:
        """Match directly on un-encoded composite keys (reference semantics)."""
        return equi1 == equi2 and abs(band1 - band2) <= self.beta

    def __repr__(self) -> str:
        return (
            f"CompositeEquiBandCondition(beta={self.beta!r}, scale={self.scale!r}, "
            f"band_key_min={self.band_key_min!r}, band_key_max={self.band_key_max!r})"
        )


@dataclass(frozen=True, repr=False)
class _TransposedBandCondition(JoinCondition):
    """A band-like condition evaluated from the R2 side, float-exactly.

    The original predicate is the interval test ``fl(k1 - beta) <= k2 <=
    fl(k1 + beta)``, evaluated per R1 key.  Counting from the R2 side needs
    the set of R1 keys matching a given ``k2`` -- and because the bounds are
    *rounded* functions of ``k1``, that set is ``[L(k2), U(k2)]`` for the
    exact inverses the compiled kernel computes under the ``"band_inverse"``
    rule (:func:`repro.joins.native.bounds`), not the naively mirrored
    ``[fl(k2 - beta), fl(k2 + beta)]`` (which can disagree by one ulp
    exactly at a band boundary).  With this wrapper both orientations agree bit-for-bit on
    every float input, which the streaming engine's incremental counting
    relies on.
    """

    base: BandJoinCondition

    @property
    def name(self) -> str:  # type: ignore[override]
        """Reporting name, derived from the wrapped condition."""
        return f"transposed({self.base.name})"

    @property
    def transposed(self) -> JoinCondition:
        """Transposing twice restores the original orientation."""
        return self.base

    def rule(self) -> "tuple[str, int | float]":
        """``("band_inverse", beta)``, the base's width.

        Float keys are bounded by the exact inverses, bisected where a few
        one-ulp nudges do not settle them.  Integer keys with an integral
        width take the base's exact int64 bounds: the integer band test
        rounds nothing in ``k +- beta``, so it is its own inverse.  Cells
        are excluded by the base's test: the base grid with the sides
        swapped and transposed tests ``fl(row_lo - col_hi) > beta`` and
        ``fl(col_lo - row_hi) > beta`` on each cell, the base's two halves,
        each on the other side.
        """
        return "band_inverse", self.base.rule()[1]

    def __repr__(self) -> str:
        return f"_TransposedBandCondition({self.base!r})"


def make_condition(
    kind: str,
    *,
    beta: "float | int" = 0,
    op: "InequalityOp | str | None" = None,
    scale: "float | None" = None,
    band_key_min: float = 0.0,
    band_key_max: float = 0.0,
) -> JoinCondition:
    """Construct a :class:`JoinCondition` from spec-level vocabulary.

    The factory face of the condition hierarchy, mirroring
    :func:`repro.streaming.window.make_window` and
    :func:`repro.streaming.pipeline.make_backpressure`: callers that hold
    a parsed query (the :mod:`repro.query` compiler) or a config file name
    a *kind* and keyword parameters instead of importing concrete classes.

    Parameters
    ----------
    kind:
        One of :data:`CONDITION_KINDS`: ``"equi"`` (``beta`` must stay 0),
        ``"band"`` (requires ``beta``), ``"inequality"`` (requires ``op``,
        an :class:`InequalityOp` or its symbol, e.g. ``"<="``) or
        ``"composite"`` (requires ``scale``; band attribute domain via
        ``band_key_min``/``band_key_max``).
    beta:
        Band width.  An integral width passed as a Python int is preserved
        exactly through the int64 band path -- never routed through float
        (the ``exact_integer_keys`` discipline).

    Raises
    ------
    ValueError
        On an unknown kind or parameters that do not fit the kind.
    """
    if kind == "equi":
        if beta != 0:
            raise ValueError(
                f"an equi condition has no band width (got beta={beta!r}); "
                "use kind='band'"
            )
        if op is not None:
            raise ValueError("an equi condition takes no comparison operator")
        return EquiJoinCondition()
    if kind == "band":
        if op is not None:
            raise ValueError("a band condition takes no comparison operator")
        return BandJoinCondition(beta=beta)
    if kind == "inequality":
        if op is None:
            raise ValueError(
                "an inequality condition requires op (one of "
                f"{[member.value for member in InequalityOp]})"
            )
        if not isinstance(op, InequalityOp):
            try:
                op = InequalityOp(op)
            except ValueError:
                raise ValueError(
                    f"unknown inequality operator {op!r}; choose from "
                    f"{[member.value for member in InequalityOp]}"
                ) from None
        if beta != 0:
            raise ValueError("an inequality condition has no band width")
        return InequalityJoinCondition(op=op)
    if kind == "composite":
        if scale is None:
            raise ValueError(
                "a composite condition requires scale "
                "(> band attribute span + beta)"
            )
        return CompositeEquiBandCondition(
            beta=beta,
            scale=scale,
            band_key_min=band_key_min,
            band_key_max=band_key_max,
        )
    raise ValueError(
        f"unknown condition kind {kind!r}; choose from {CONDITION_KINDS}"
    )
