"""Tests for the monotonic join conditions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.conditions import (
    BandJoinCondition,
    CompositeEquiBandCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)

finite_keys = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestBandJoinCondition:
    def test_matches_inside_band(self):
        cond = BandJoinCondition(beta=2.0)
        assert cond.matches(10, 12)
        assert cond.matches(10, 8)
        assert cond.matches(10, 10)

    def test_rejects_outside_band(self):
        cond = BandJoinCondition(beta=2.0)
        assert not cond.matches(10, 13)
        assert not cond.matches(10, 7.5)

    def test_negative_beta_rejected(self):
        # A NaN width bounds nothing either: refused with the negatives.
        for beta in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="band width must be non-negative"):
                BandJoinCondition(beta=beta)

    def test_joinable_interval(self):
        cond = BandJoinCondition(beta=3.0)
        assert cond.joinable_interval(5.0) == (2.0, 8.0)

    def test_cell_candidate_overlapping_ranges(self):
        cond = BandJoinCondition(beta=1.0)
        assert cond.cell_is_candidate(0, 10, 5, 20)

    def test_cell_candidate_near_ranges(self):
        cond = BandJoinCondition(beta=1.0)
        # gap of exactly beta is still a candidate
        assert cond.cell_is_candidate(0, 10, 11, 20)

    def test_cell_not_candidate_far_ranges(self):
        cond = BandJoinCondition(beta=1.0)
        assert not cond.cell_is_candidate(0, 10, 12, 20)
        assert not cond.cell_is_candidate(12, 20, 0, 10)

    def test_matches_many_vectorised(self):
        cond = BandJoinCondition(beta=2.0)
        k1 = np.array([1.0, 5.0, 9.0])
        k2 = np.array([2.0, 9.0, 9.0])
        np.testing.assert_array_equal(
            cond.matches_many(k1, k2), np.array([True, False, True])
        )

    def test_count_matches_per_key(self):
        cond = BandJoinCondition(beta=1.0)
        sorted_keys2 = np.array([1.0, 2.0, 3.0, 10.0])
        counts = cond.count_matches_per_key(np.array([2.0, 10.0, 100.0]), sorted_keys2)
        np.testing.assert_array_equal(counts, np.array([3, 1, 0]))

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint64])
    def test_count_matches_per_key_is_int64_for_every_key_dtype(self, dtype):
        # The result is the difference of two searchsorted index arrays --
        # already a fresh int64, handed out with no further copy.
        cond = BandJoinCondition(beta=1.0)
        sorted_keys2 = np.array([1, 2, 3, 3, 10, 11], dtype=dtype)
        keys1 = np.array([2, 10, 100, 0, 3], dtype=dtype)
        counts = cond.count_matches_per_key(keys1, sorted_keys2)
        assert isinstance(counts, np.ndarray) and counts.dtype == np.int64
        np.testing.assert_array_equal(counts, np.array([4, 2, 0, 1, 3]))
        lows, highs = cond.joinable_bounds(keys1)
        np.testing.assert_array_equal(
            counts,
            (
                np.searchsorted(sorted_keys2, highs, side="right")
                - np.searchsorted(sorted_keys2, lows, side="left")
            ).astype(np.int64),
        )

    def test_candidate_grid_matches_scalar_check(self):
        cond = BandJoinCondition(beta=2.5)
        row_lo = np.array([0.0, 5.0, 10.0])
        row_hi = np.array([4.0, 9.0, 20.0])
        col_lo = np.array([0.0, 8.0])
        col_hi = np.array([7.0, 30.0])
        grid = cond.candidate_grid(row_lo, row_hi, col_lo, col_hi)
        for i in range(3):
            for j in range(2):
                expected = cond.cell_is_candidate(
                    row_lo[i], row_hi[i], col_lo[j], col_hi[j]
                )
                assert grid[i, j] == expected

    @given(k1=finite_keys, k2=finite_keys, beta=st.floats(0, 100))
    @settings(max_examples=200)
    def test_matches_iff_interval_contains(self, k1, k2, beta):
        cond = BandJoinCondition(beta=beta)
        lo, hi = cond.joinable_interval(k1)
        assert cond.matches(k1, k2) == (lo <= k2 <= hi)

    @given(
        k1=st.integers(-10**6, 10**6),
        k2=st.integers(-10**6, 10**6),
        beta=st.integers(0, 100),
    )
    @settings(max_examples=200)
    def test_band_join_is_symmetric(self, k1, k2, beta):
        # matches() is phrased as the interval test so it agrees exactly with
        # joinable_interval(); symmetry is then guaranteed only when the
        # arithmetic is exact, hence integer-valued keys here.
        cond = BandJoinCondition(beta=float(beta))
        assert cond.matches(float(k1), float(k2)) == cond.matches(float(k2), float(k1))


class TestEquiJoinCondition:
    def test_is_band_of_width_zero(self):
        cond = EquiJoinCondition()
        assert cond.beta == 0.0
        assert cond.matches(4, 4)
        assert not cond.matches(4, 5)

    def test_name(self):
        assert EquiJoinCondition().name == "equi"


class TestInequalityJoinCondition:
    @pytest.mark.parametrize(
        "op,k1,k2,expected",
        [
            (InequalityOp.LT, 1, 2, True),
            (InequalityOp.LT, 2, 2, False),
            (InequalityOp.LE, 2, 2, True),
            (InequalityOp.LE, 3, 2, False),
            (InequalityOp.GT, 3, 2, True),
            (InequalityOp.GT, 2, 2, False),
            (InequalityOp.GE, 2, 2, True),
            (InequalityOp.GE, 1, 2, False),
        ],
    )
    def test_matches(self, op, k1, k2, expected):
        assert InequalityJoinCondition(op).matches(k1, k2) is expected

    @pytest.mark.parametrize("op", list(InequalityOp))
    def test_matches_iff_interval_contains(self, op):
        cond = InequalityJoinCondition(op)
        for k1 in (-3.0, 0.0, 7.5):
            lo, hi = cond.joinable_interval(k1)
            for k2 in (-10.0, -3.0, 0.0, 7.5, 20.0):
                assert cond.matches(k1, k2) == (lo <= k2 <= hi)

    @pytest.mark.parametrize("op", list(InequalityOp))
    def test_candidate_grid_matches_scalar(self, op):
        cond = InequalityJoinCondition(op)
        row_lo = np.array([0.0, 10.0])
        row_hi = np.array([5.0, 20.0])
        col_lo = np.array([3.0, 30.0])
        col_hi = np.array([8.0, 40.0])
        grid = cond.candidate_grid(row_lo, row_hi, col_lo, col_hi)
        for i in range(2):
            for j in range(2):
                assert grid[i, j] == cond.cell_is_candidate(
                    row_lo[i], row_hi[i], col_lo[j], col_hi[j]
                )

    def test_count_matches_per_key(self):
        cond = InequalityJoinCondition(InequalityOp.LE)
        sorted2 = np.array([1.0, 2.0, 3.0])
        counts = cond.count_matches_per_key(np.array([0.0, 2.0, 5.0]), sorted2)
        np.testing.assert_array_equal(counts, np.array([3, 2, 0]))


class TestCompositeEquiBandCondition:
    def make(self, beta=2.0, levels=8):
        return CompositeEquiBandCondition(
            beta=beta, scale=levels + beta + 1, band_key_min=0, band_key_max=levels - 1
        )

    def test_encode_decode_roundtrip(self):
        cond = self.make()
        equi = np.array([3, 17, 250])
        band = np.array([0, 5, 7])
        encoded = cond.encode(equi, band)
        back_equi, back_band = cond.decode(encoded)
        np.testing.assert_allclose(back_equi, equi)
        np.testing.assert_allclose(back_band, band)

    def test_encoded_match_equals_composite_semantics(self, rng=np.random.default_rng(0)):
        cond = self.make(beta=2.0, levels=8)
        for _ in range(500):
            e1, e2 = rng.integers(0, 50, size=2)
            b1, b2 = rng.integers(0, 8, size=2)
            expected = cond.matches_composite(e1, b1, e2, b2)
            got = cond.matches(
                float(cond.encode(e1, b1)), float(cond.encode(e2, b2))
            )
            assert got == expected, (e1, b1, e2, b2)

    def test_scale_too_small_rejected(self):
        with pytest.raises(ValueError):
            CompositeEquiBandCondition(beta=2.0, scale=5.0, band_key_min=0, band_key_max=7)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            CompositeEquiBandCondition(beta=-1.0, scale=100.0)

    def test_cell_candidate(self):
        cond = self.make()
        assert cond.cell_is_candidate(0, 10, 5, 20)
        assert not cond.cell_is_candidate(0, 10, 100, 200)


class TestJoinableBounds:
    def test_band_bounds_vectorised(self):
        cond = BandJoinCondition(beta=1.5)
        lows, highs = cond.joinable_bounds(np.array([0.0, 10.0]))
        np.testing.assert_allclose(lows, [-1.5, 8.5])
        np.testing.assert_allclose(highs, [1.5, 11.5])

    def test_inequality_bounds_le(self):
        cond = InequalityJoinCondition(InequalityOp.LE)
        lows, highs = cond.joinable_bounds(np.array([3.0]))
        assert lows[0] == 3.0
        assert math.isinf(highs[0])


class TestTransposedConditions:
    """The transposed condition must agree with the original bit-for-bit."""

    def test_band_transposed_roundtrip(self):
        cond = BandJoinCondition(beta=1.0)
        assert cond.transposed.transposed is cond
        assert "transposed" in cond.transposed.name

    def test_inequality_transposed_flips_operator(self):
        flips = {
            InequalityOp.LT: InequalityOp.GT,
            InequalityOp.LE: InequalityOp.GE,
            InequalityOp.GT: InequalityOp.LT,
            InequalityOp.GE: InequalityOp.LE,
        }
        for op, expected in flips.items():
            cond = InequalityJoinCondition(op)
            assert cond.transposed.op is expected
            assert cond.transposed.matches(2.0, 1.0) == cond.matches(1.0, 2.0)

    def test_band_boundary_ulp_exactness(self):
        # 0.1 + 0.2 rounds up: the R2 key fl(0.30000000000000004) matches
        # k1=0.1 under the original interval test, but the naively mirrored
        # [fl(k2-beta), fl(k2+beta)] interval would exclude it.  The exact
        # inverse bounds must include it.
        cond = BandJoinCondition(beta=0.2)
        k1, k2 = 0.1, 0.1 + 0.2
        assert cond.matches(k1, k2)
        counted = cond.transposed.count_matches_per_key(
            np.array([k2]), np.array([k1])
        )
        assert counted[0] == 1

    @settings(max_examples=200, deadline=None)
    @given(
        k1=finite_keys,
        k2=finite_keys,
        beta=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        nudges=st.integers(min_value=-2, max_value=2),
    )
    def test_band_transposed_counts_match_original(self, k1, k2, beta, nudges):
        """Counting from either side gives the same answer for any floats.

        ``k2`` is additionally nudged to within a few ulps of the rounded
        band boundary ``fl(k1 + beta)`` -- exactly where a naive mirrored
        interval disagrees with the original test.
        """
        cond = BandJoinCondition(beta=beta)
        boundary = k1 + beta
        for _ in range(abs(nudges)):
            boundary = math.nextafter(
                boundary, math.inf if nudges > 0 else -math.inf
            )
        for key2 in (k2, boundary):
            keys2 = np.array([key2])
            original = cond.count_matches_per_key(
                np.array([k1]), np.sort(keys2)
            )[0]
            transposed = cond.transposed.count_matches_per_key(
                keys2, np.array([k1])
            )[0]
            assert original == transposed == int(cond.matches(k1, float(key2)))
