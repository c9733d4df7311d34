"""Plan fingerprints: the planner's kernels may change, its plans may not.

Three jobs shaped like the wall-clock benchmark's (generated inline with
numpy, fixed seeds) pin a SHA-256 of everything that defines the plan a
build hands to the router: the key regions in order, the threshold the
binary search settled on and its step count, and the coarsening boundaries.
The CSIO digests were recorded before the tiling and coarsening kernels were
rewritten, and the CSI (M-Bucket) ones before the three threshold searches
became one, so a failure here means a plan moved -- a float summed in another
order, a tie broken differently -- not that timing changed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.histogram import build_equi_weight_histogram
from repro.core.weights import BAND_JOIN_WEIGHTS
from repro.joins.conditions import BandJoinCondition
from repro.partitioning.m_bucket import build_m_bucket_partitioning


def sparse_keys(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Distinct keys spread over four times their number (input-dominated)."""
    domain = np.arange(4 * size)
    return [rng.choice(domain, size=size, replace=False) for _ in range(2)]


def hot_segment_keys(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """A fifth of each side packed into a narrow segment that makes most output."""
    hot, cold = size // 5, size - size // 5
    sides = []
    for _ in range(2):
        keys = np.concatenate([
            rng.integers(0, hot // 6 + 1, size=hot),
            rng.integers(2 * cold, 6 * cold + 1, size=cold),
        ])
        rng.shuffle(keys)
        sides.append(keys)
    return sides


def zipf_keys(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Zipf(0.5) over size/4 neighbouring values (output-dominated)."""
    num_values = size // 4
    weights = 1.0 / np.arange(1, num_values + 1) ** 0.5
    weights /= weights.sum()
    return [rng.choice(num_values, size=size, p=weights) for _ in range(2)]


def key_regions_text(key_regions) -> str:
    """The key regions in order, floats rendered exactly."""
    return ";".join(
        ",".join(
            [float(bound).hex() for bound in
             (region.r1_lo, region.r1_hi, region.r2_lo, region.r2_hi)]
            + [str(region.region_id)]
        )
        for region in key_regions
    )


def plan_fingerprint(histogram) -> str:
    """SHA-256 over the plan-defining fields, floats rendered exactly."""
    regionalization = histogram.regionalization
    parts = [
        key_regions_text(histogram.key_regions),
        float(regionalization.delta).hex(),
        str(regionalization.search_steps),
        ",".join(map(str, histogram.coarsening.row_groups.tolist())),
        ",".join(map(str, histogram.coarsening.col_groups.tolist())),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


JOBS = {
    "sparse": (sparse_keys, 20_000, 2.0, 12, 181,
               "858796d97252fe3986ecd97efe9b9ef15c331b42b45627cc92b6ef3fe349fed5"),
    "hot_segment": (hot_segment_keys, 20_000, 3.0, 8, 182,
                    "be7a95d7b6694f37c6cd98100cf39dac2e5072c09c2741e15c95cc78d2b3d553"),
    "zipf": (zipf_keys, 8_000, 1.0, 16, 183,
             "daa91810d1d30534841da63241ca88f51b04eb964fdea3298e9f5a0a40ad00af"),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_plan_fingerprint_is_pinned(name):
    make_keys, size, beta, machines, seed, expected = JOBS[name]
    keys1, keys2 = make_keys(np.random.default_rng(seed), size)
    histogram = build_equi_weight_histogram(
        keys1.astype(np.float64), keys2.astype(np.float64),
        BandJoinCondition(beta=beta), machines, BAND_JOIN_WEIGHTS,
        rng=np.random.default_rng(seed),
    )
    assert 1 <= histogram.num_regions <= machines
    assert plan_fingerprint(histogram) == expected


#: CSI digests of the same jobs: key regions in order, grid regions, and the
#: candidate-cell count of the M-Bucket grid.
M_BUCKET_DIGESTS = {
    "sparse": "003eb10a11fae6153df71f28da027a2889aae1af6c41e461dc93fa541ffca489",
    "hot_segment": "e70ac9ca98bf101c7209b3bc2d7d84f2752c57a46830175a49608f9b5342c376",
    "zipf": "fae2b74434a518bb449eb5b9742801b5f556f73754ceb911a162885b8240a613",
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_m_bucket_plan_fingerprint_is_pinned(name):
    make_keys, size, beta, machines, seed, _ = JOBS[name]
    keys1, keys2 = make_keys(np.random.default_rng(seed), size)
    partitioning = build_m_bucket_partitioning(
        keys1.astype(np.float64), keys2.astype(np.float64),
        BandJoinCondition(beta=beta), machines, BAND_JOIN_WEIGHTS,
        rng=np.random.default_rng(seed),
    )
    assert 1 <= partitioning.num_regions <= machines
    parts = [
        key_regions_text(partitioning.key_regions()),
        ";".join(
            f"{r.row_lo},{r.row_hi},{r.col_lo},{r.col_hi}" for r in partitioning.regions
        ),
        str(partitioning.num_candidate_cells),
    ]
    digest = hashlib.sha256("|".join(parts).encode()).hexdigest()
    assert digest == M_BUCKET_DIGESTS[name]
