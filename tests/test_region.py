"""Tests for grid/key regions (repro.core.region)."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.region import GridRegion, KeyRegion

coords = st.integers(min_value=0, max_value=50)


def region_strategy():
    """Random valid grid regions."""
    return st.builds(
        lambda r1, r2, c1, c2: GridRegion(min(r1, r2), max(r1, r2), min(c1, c2), max(c1, c2)),
        coords, coords, coords, coords,
    )


class TestGridRegion:
    def test_shape_properties(self):
        region = GridRegion(1, 3, 2, 6)
        assert region.num_rows == 3
        assert region.num_cols == 5
        assert region.area == 15
        assert region.semi_perimeter == 8

    def test_single_cell(self):
        region = GridRegion(4, 4, 7, 7)
        assert region.area == 1
        assert region.semi_perimeter == 2

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            GridRegion(3, 2, 0, 0)
        with pytest.raises(ValueError):
            GridRegion(0, 0, 5, 4)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(ValueError):
            GridRegion(-1, 0, 0, 0)
        with pytest.raises(ValueError):
            GridRegion(0, 0, -2, 0)

    def test_contains_cell(self):
        region = GridRegion(1, 3, 2, 4)
        assert region.contains_cell(1, 2)
        assert region.contains_cell(3, 4)
        assert region.contains_cell(2, 3)
        assert not region.contains_cell(0, 3)
        assert not region.contains_cell(2, 5)

    def test_intersects(self):
        a = GridRegion(0, 2, 0, 2)
        b = GridRegion(2, 4, 2, 4)
        c = GridRegion(3, 5, 3, 5)
        assert a.intersects(b)
        assert b.intersects(a)
        assert not a.intersects(c)
        assert b.intersects(c)

    def test_split_horizontal(self):
        region = GridRegion(0, 3, 0, 2)
        top, bottom = region.split_horizontal(1)
        assert top == GridRegion(0, 1, 0, 2)
        assert bottom == GridRegion(2, 3, 0, 2)

    def test_split_vertical(self):
        region = GridRegion(0, 3, 0, 2)
        left, right = region.split_vertical(0)
        assert left == GridRegion(0, 3, 0, 0)
        assert right == GridRegion(0, 3, 1, 2)

    def test_split_out_of_range_rejected(self):
        region = GridRegion(0, 3, 0, 2)
        with pytest.raises(ValueError):
            region.split_horizontal(3)
        with pytest.raises(ValueError):
            region.split_vertical(2)
        single_row = GridRegion(2, 2, 0, 4)
        with pytest.raises(ValueError):
            single_row.split_horizontal(2)

    def test_hashable_and_ordered(self):
        a = GridRegion(0, 1, 0, 1)
        b = GridRegion(0, 1, 0, 1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert sorted([GridRegion(1, 2, 0, 0), a])[0] == a

    @given(region=region_strategy())
    @settings(max_examples=100)
    def test_horizontal_splits_partition_the_area(self, region):
        if region.num_rows < 2:
            return
        for after_row in range(region.row_lo, region.row_hi):
            top, bottom = region.split_horizontal(after_row)
            assert top.area + bottom.area == region.area
            assert top.num_cols == bottom.num_cols == region.num_cols
            assert not top.intersects(bottom)

    @given(region=region_strategy())
    @settings(max_examples=100)
    def test_vertical_splits_partition_the_area(self, region):
        if region.num_cols < 2:
            return
        for after_col in range(region.col_lo, region.col_hi):
            left, right = region.split_vertical(after_col)
            assert left.area + right.area == region.area
            assert left.num_rows == right.num_rows == region.num_rows
            assert not left.intersects(right)


class TestKeyRegion:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            KeyRegion(r1_lo=5.0, r1_hi=1.0, r2_lo=0.0, r2_hi=1.0)
        with pytest.raises(ValueError):
            KeyRegion(r1_lo=0.0, r1_hi=1.0, r2_lo=4.0, r2_hi=2.0)

    def test_region_id_default(self):
        assert KeyRegion(0, 1, 0, 1).region_id == 0
        assert KeyRegion(0, 1, 0, 1, region_id=7).region_id == 7
