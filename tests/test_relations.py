"""Tests for the column-oriented Relation container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.joins.relations import Relation


def make_relation(n=10):
    return Relation(
        name="r",
        columns={
            "key": np.arange(n, dtype=np.int64),
            "value": np.arange(n, dtype=np.float64) * 2.0,
        },
        key_column="key",
    )


class TestConstruction:
    def test_basic_properties(self):
        rel = make_relation(5)
        assert len(rel) == 5
        assert rel.num_tuples == 5
        assert set(rel.column_names) == {"key", "value"}
        assert rel.key_column == "key"

    def test_keys_are_float(self):
        rel = make_relation()
        assert rel.keys.dtype == np.float64

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            Relation("r", {"a": np.arange(3), "b": np.arange(4)}, key_column="a")

    def test_missing_key_column_rejected(self):
        with pytest.raises(KeyError):
            Relation("r", {"a": np.arange(3)}, key_column="missing")

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Relation("r", {}, key_column="a")

    def test_from_keys(self):
        rel = Relation.from_keys("r", np.array([3, 1, 2]))
        assert len(rel) == 3
        assert rel.key_column == "key"


class TestDerivation:
    def test_filter_keeps_matching_rows(self):
        rel = make_relation(10)
        filtered = rel.filter(lambda cols: cols["key"] >= 5)
        assert len(filtered) == 5
        assert filtered.keys.min() == 5

    def test_filter_requires_full_length_mask(self):
        rel = make_relation(10)
        with pytest.raises(ValueError):
            rel.filter(lambda cols: np.array([True, False]))

    def test_select_by_indexes(self):
        rel = make_relation(10)
        selected = rel.select(np.array([0, 2, 4]))
        np.testing.assert_array_equal(selected.keys, [0, 2, 4])

    def test_sample_without_replacement(self, rng):
        rel = make_relation(100)
        sampled = rel.sample(10, rng)
        assert len(sampled) == 10
        assert len(np.unique(sampled.keys)) == 10

    def test_sample_larger_than_relation_clamps(self, rng):
        rel = make_relation(5)
        sampled = rel.sample(50, rng)
        assert len(sampled) == 5

    def test_sample_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            make_relation().sample(-1, rng)
