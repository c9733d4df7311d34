"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition

# Fault-injection factory fixtures (CrashingBackend / FlakyBackend wrappers
# with teardown-owned cleanup) and the autouse shared-memory leak check,
# shared with the benchmark suite.
from streaming_harness import (  # noqa: F401
    arena_tokens,
    crashing_backend,
    flaky_backend,
    no_leaked_shm_segments,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def band_condition() -> BandJoinCondition:
    """A band join of width 2, the most common condition in the tests."""
    return BandJoinCondition(beta=2.0)


@pytest.fixture
def unit_weights() -> WeightFunction:
    """The unit cost model w = input + output."""
    return WeightFunction(input_cost=1.0, output_cost=1.0)


@pytest.fixture
def paper_band_weights() -> WeightFunction:
    """The paper's regressed cost model for band joins (w_i=1, w_o=0.2)."""
    return WeightFunction(input_cost=1.0, output_cost=0.2)


@pytest.fixture
def small_skewed_keys(rng) -> tuple[np.ndarray, np.ndarray]:
    """Two small key arrays with a skewed hot range, handy for joint tests."""
    hot1 = rng.integers(0, 50, size=400)
    cold1 = rng.integers(1000, 10000, size=1600)
    hot2 = rng.integers(0, 50, size=400)
    cold2 = rng.integers(1000, 10000, size=1600)
    keys1 = np.concatenate([hot1, cold1]).astype(np.float64)
    keys2 = np.concatenate([hot2, cold2]).astype(np.float64)
    rng.shuffle(keys1)
    rng.shuffle(keys2)
    return keys1, keys2
