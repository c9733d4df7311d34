"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.weights import WeightFunction
from repro.joins.conditions import BandJoinCondition
from repro.streaming.shm import SEGMENT_PREFIX

# Fault-injection factory fixtures (CrashingBackend / FlakyBackend wrappers
# with teardown-owned cleanup), shared with the benchmark suite.
from streaming_harness import (  # noqa: F401
    crashing_backend,
    flaky_backend,
)


@pytest.fixture(autouse=True)
def no_leaked_shm_segments():
    """Fail any test that leaves one of our shared-memory segments behind.

    Every segment the sticky backend's arena creates is named
    ``rshm-...`` (:data:`repro.streaming.shm.SEGMENT_PREFIX`), and
    ``StickyWorkerBackend.close()`` / ``ShmArena.close()`` must unlink it
    -- a leftover in ``/dev/shm`` outlives the process and leaks host
    memory.  Skips silently on platforms without a ``/dev/shm`` (POSIX shm
    is mounted elsewhere); the check still runs everywhere Linux CI runs.
    """
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        yield
        return
    before = {path.name for path in shm_dir.glob(f"{SEGMENT_PREFIX}-*")}
    yield
    after = {path.name for path in shm_dir.glob(f"{SEGMENT_PREFIX}-*")}
    leaked = after - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


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
