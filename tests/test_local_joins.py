"""Tests for the local join algorithms (the per-machine reducers)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_joins import nested_loop_join
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.joins.local import count_join_output, join_output_pairs

small_key_arrays = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=40
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestJoinOutputPairs:
    def test_simple_band_join(self):
        cond = BandJoinCondition(beta=1.0)
        pairs = join_output_pairs([1, 5], [2, 7, 5], cond)
        assert pairs == [(1.0, 2.0), (5.0, 5.0)]

    def test_empty_inputs(self):
        cond = BandJoinCondition(beta=1.0)
        assert join_output_pairs([], [1, 2], cond) == []
        assert join_output_pairs([1, 2], [], cond) == []

    def test_equi_pairs_keep_the_first_sides_order(self):
        pairs = join_output_pairs([3, 2, 1, 2], [2, 2, 4, 1], EquiJoinCondition())
        assert pairs == [(2.0, 2.0)] * 2 + [(1.0, 1.0)] + [(2.0, 2.0)] * 2

    def test_a_band_join_sorts_the_first_side(self):
        pairs = join_output_pairs([5, 1], [2, 5], BandJoinCondition(beta=1.0))
        assert pairs == [(1.0, 2.0), (5.0, 5.0)]

    @given(keys1=small_key_arrays, keys2=small_key_arrays,
           beta=st.floats(0, 10))
    @settings(max_examples=100)
    def test_matches_nested_loop(self, keys1, keys2, beta):
        cond = BandJoinCondition(beta=beta)
        expected = sorted(nested_loop_join(keys1, keys2, cond))
        got = sorted(join_output_pairs(keys1, keys2, cond))
        assert got == expected

    @given(keys1=small_key_arrays, keys2=small_key_arrays)
    @settings(max_examples=80)
    def test_equi_matches_nested_loop(self, keys1, keys2):
        cond = EquiJoinCondition()
        expected = sorted(nested_loop_join(keys1, keys2, cond))
        got = sorted(join_output_pairs(keys1, keys2, cond))
        assert got == expected

    @given(keys1=small_key_arrays, keys2=small_key_arrays)
    @settings(max_examples=60)
    def test_inequality_matches_nested_loop(self, keys1, keys2):
        cond = InequalityJoinCondition(InequalityOp.LE)
        expected = len(nested_loop_join(keys1, keys2, cond))
        got = len(join_output_pairs(keys1, keys2, cond))
        assert got == expected

    @given(keys1=small_key_arrays, keys2=small_key_arrays,
           op=st.sampled_from(list(InequalityOp)))
    @settings(max_examples=80)
    def test_every_inequality_pairs_as_nested_loop(self, keys1, keys2, op):
        cond = InequalityJoinCondition(op)
        expected = sorted(nested_loop_join(keys1, keys2, cond))
        got = sorted(join_output_pairs(keys1, keys2, cond))
        assert got == expected


class TestCountJoinOutput:
    def test_counts_match_materialised_pairs(self, rng):
        keys1 = rng.integers(0, 100, size=200).astype(float)
        keys2 = rng.integers(0, 100, size=300).astype(float)
        cond = BandJoinCondition(beta=3.0)
        assert count_join_output(keys1, keys2, cond) == len(
            join_output_pairs(keys1, keys2, cond)
        )

    def test_empty_inputs_count_zero(self):
        cond = BandJoinCondition(beta=1.0)
        assert count_join_output([], [1, 2], cond) == 0
        assert count_join_output([1, 2], [], cond) == 0

    def test_a_presorted_second_side_counts_the_same(self, rng):
        keys1 = rng.integers(0, 50, size=100).astype(float)
        keys2 = rng.integers(0, 50, size=100).astype(float)
        cond = BandJoinCondition(beta=2.0)
        assert count_join_output(keys1, np.sort(keys2), cond) == (
            count_join_output(keys1, keys2, cond)
        )

    @given(keys1=small_key_arrays, keys2=small_key_arrays,
           beta=st.floats(0, 5))
    @settings(max_examples=100)
    def test_count_equals_nested_loop(self, keys1, keys2, beta):
        cond = BandJoinCondition(beta=beta)
        assert count_join_output(keys1, keys2, cond) == len(
            nested_loop_join(keys1, keys2, cond)
        )

    def test_cartesian_product_upper_bound(self, rng):
        keys1 = rng.integers(0, 10, size=50).astype(float)
        keys2 = rng.integers(0, 10, size=60).astype(float)
        cond = BandJoinCondition(beta=100.0)
        assert count_join_output(keys1, keys2, cond) == 50 * 60
