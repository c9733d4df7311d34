"""Tests for the sampling substrates: sizes, equi-depth, reservoir,
and the Stream-Sample driver's statistical contract on one machine and several."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.sampling.equidepth import (
    EquiDepthHistogram,
    bucket_index,
    build_equidepth_histogram,
    open_ends,
)
from repro.sampling.parallel_stream_sample import parallel_stream_sample
from repro.sampling.reservoir import (
    WeightedReservoir,
    merge_reservoirs,
    weighted_samples_wor,
    wor_to_wr,
)
from repro.sampling.sizes import (
    KOLMOGOROV_MIN_SAMPLE,
    input_sample_size,
    output_sample_size,
    sample_matrix_size,
)
from repro.streaming.incremental import DecayedReservoir


class TestSampleSizes:
    def test_sample_matrix_size_formula(self):
        # sqrt(2 * 10000 * 32) = 800
        assert sample_matrix_size(10_000, 32) == 800

    def test_output_ratio_shrinks_ns(self):
        base = sample_matrix_size(10_000, 32)
        shrunk = sample_matrix_size(10_000, 32, output_input_ratio=4.0)
        assert shrunk == base // 2

    def test_low_output_ratio_grows_ns(self):
        base = sample_matrix_size(10_000, 32)
        grown = sample_matrix_size(10_000, 32, output_input_ratio=0.25)
        assert grown == 2 * base

    def test_ns_never_exceeds_n(self):
        assert sample_matrix_size(100, 64) <= 100

    def test_min_size_clamp(self):
        assert sample_matrix_size(10, 1, min_size=4) >= 4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_matrix_size(0, 4)
        with pytest.raises(ValueError):
            sample_matrix_size(10, 0)
        with pytest.raises(ValueError):
            sample_matrix_size(10, 4, output_input_ratio=0)

    def test_input_sample_size_theta_ns_log_n(self):
        si = input_sample_size(ns=100, num_tuples=100_000)
        assert si == min(int(np.ceil(4 * 100 * np.log(100_000))), 100_000)

    def test_input_sample_size_capped_by_n(self):
        assert input_sample_size(ns=50, num_tuples=60) == 60

    def test_output_sample_size_floor(self):
        assert output_sample_size(10) == KOLMOGOROV_MIN_SAMPLE

    def test_output_sample_size_multiple_of_candidates(self):
        assert output_sample_size(10_000, multiple=2.0) == 20_000

    @given(n=st.integers(1, 10**7), j=st.integers(1, 256))
    @settings(max_examples=100)
    def test_lemma31_cell_bound_property(self, n, j):
        """n_s = sqrt(2nJ) implies a single cell's area (n/ns)^2 <= n/(2J)."""
        ns = sample_matrix_size(n, j, min_size=1)
        cell_side = n / ns
        assert cell_side**2 <= n / (2 * j) * 1.05 + 1  # small slack for ceiling


class TestEquiDepthHistogram:
    def test_buckets_are_roughly_equal_depth(self, rng):
        keys = rng.normal(0, 100, size=50_000)
        hist = build_equidepth_histogram(keys, num_buckets=20, num_tuples=50_000)
        buckets = bucket_index(hist.boundaries, keys)
        counts = np.bincount(buckets, minlength=20)
        assert counts.max() < 2.0 * counts.mean()

    def test_boundaries_sorted_and_cover_sample(self, rng):
        keys = rng.integers(0, 1000, size=5000).astype(float)
        hist = build_equidepth_histogram(keys, 16, 5000)
        assert np.all(np.diff(hist.boundaries) >= 0)
        assert hist.boundaries[0] == keys.min()
        assert hist.boundaries[-1] == keys.max()

    def test_bucket_of_clamps_out_of_range(self, rng):
        keys = rng.integers(10, 20, size=100).astype(float)
        hist = build_equidepth_histogram(keys, 4, 100)
        assert bucket_index(hist.boundaries, -100) == 0
        assert bucket_index(hist.boundaries, 1000) == hist.num_buckets - 1

    def test_buckets_of_matches_scalar(self, rng):
        keys = rng.integers(0, 50, size=500).astype(float)
        hist = build_equidepth_histogram(keys, 8, 500)
        probes = rng.integers(-10, 60, size=50)
        vectorised = bucket_index(hist.boundaries, probes)
        for probe, bucket in zip(probes, vectorised):
            assert bucket_index(hist.boundaries, probe) == bucket
            # Bucket i holds [boundaries[i], boundaries[i+1]) inside the domain.
            if hist.boundaries[0] <= probe < hist.boundaries[-1]:
                assert hist.boundaries[bucket] <= probe < hist.boundaries[bucket + 1]

    def test_bucket_range_and_overlap(self, rng):
        keys = np.arange(100, dtype=float)
        hist = build_equidepth_histogram(keys, 10, 100)
        first, last = bucket_index(hist.boundaries, np.array([5.0, 95.0]))
        assert first <= last
        assert hist.boundaries[first] <= 5 and 95 <= hist.boundaries[last + 1]
        opened = open_ends(hist.boundaries)
        assert opened[0] == -np.inf and opened[-1] == np.inf
        np.testing.assert_array_equal(opened[1:-1], hist.boundaries[1:-1])

    def test_expected_bucket_size(self):
        hist = build_equidepth_histogram(np.arange(100.0), 10, 100_000)
        assert hist.expected_bucket_size == 10_000

    def test_heavy_hitter_duplicate_boundaries(self):
        # A single repeated key must not break the histogram.
        keys = np.full(1000, 7.0)
        hist = build_equidepth_histogram(keys, 8, 1000)
        assert bucket_index(hist.boundaries, 7.0) >= 0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            build_equidepth_histogram(np.array([]), 4, 10)

    def test_more_buckets_than_sample_clamped(self):
        hist = build_equidepth_histogram(np.array([1.0, 2.0, 3.0]), 10, 3)
        assert hist.num_buckets <= 3

    def test_a_nan_is_refused_by_name(self):
        """A NaN has no place in the key order: the build used to return
        boundaries ``[1, nan, nan]`` for this sample, which ``bucket_index``
        then misrouted keys by."""
        with pytest.raises(ValueError, match="sample holding NaN"):
            build_equidepth_histogram(np.array([1.0, np.nan, 3.0]), 2, 3)
        with pytest.raises(ValueError, match="boundaries must not be NaN"):
            EquiDepthHistogram(np.array([1.0, np.nan, 3.0]), 3)


class TestWeightedReservoir:
    def test_capacity_respected(self, rng):
        reservoir = WeightedReservoir(capacity=5)
        for i in range(100):
            reservoir.offer(rng.random(1), np.array([float(i)]))
        assert len(reservoir) == 5

    def test_zero_weight_items_never_sampled(self, rng):
        (reservoir,) = weighted_samples_wor(np.zeros(20), 10, rng, [20])
        assert len(reservoir) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            WeightedReservoir(capacity=0)

    def test_heavier_items_more_likely(self, rng):
        """Efraimidis-Spirakis property: inclusion probability grows with weight."""
        heavy_count = 0
        trials = 400
        for trial in range(trials):
            local = np.random.default_rng(trial)
            weights = np.ones(20)
            weights[0] = 50.0
            (reservoir,) = weighted_samples_wor(weights, 5, local, [20])
            if 0 in reservoir.payloads():
                heavy_count += 1
        assert heavy_count > 0.9 * trials

    @pytest.mark.parametrize(
        "lengths", [[2], [-1, 6], [4, 4]], ids=["dropping-3", "negative", "past-the-end"]
    )
    def test_weighted_samples_wor_refuses_lengths_that_do_not_cover_the_items(
        self, rng, lengths
    ):
        """Parts are the next ``lengths[i]`` weights: non-negative lengths
        summing to the 5 weights, or a ``ValueError`` naming them (they used
        to drop items, shift them between parts, or raise an ``IndexError``)."""
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^lengths \["):
            weighted_samples_wor(np.ones(5), 2, rng, lengths)
        assert rng.bit_generator.state == before

    def test_merge_reservoirs_keeps_top_priorities(self, rng):
        r1 = WeightedReservoir(capacity=3)
        r2 = WeightedReservoir(capacity=3)
        r1.offer(np.array([0.9, 0.1]), np.array([0.0, 1.0]))
        r2.offer(np.array([0.8, 0.2]), np.array([2.0, 3.0]))
        merged = merge_reservoirs([r1, r2], capacity=2)
        assert set(merged.payloads()) == {0.0, 2.0}

    def test_merge_empty_list_rejected(self):
        with pytest.raises(ValueError):
            merge_reservoirs([])

    def test_wor_to_wr_size_and_membership(self, rng):
        weights = np.ones(10)
        (reservoir,) = weighted_samples_wor(weights, 5, rng, [10])
        wr = wor_to_wr(reservoir, weights, 20, rng)
        assert len(wr) == 20
        assert set(wr) <= set(reservoir.payloads())

    def test_wor_to_wr_empty(self, rng):
        assert wor_to_wr(WeightedReservoir(capacity=3), np.ones(3), 5, rng).tolist() == []

    def test_wor_to_wr_refuses_an_infinite_weight_by_name(self, rng):
        weights = np.array([1.0, np.inf, 2.0])
        (reservoir,) = weighted_samples_wor(weights, 3, rng, [3])
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="infinite weight: heap entry [0-2] .* weight inf"):
            wor_to_wr(reservoir, weights, 5, rng)
        assert rng.bit_generator.state == before


# ----------------------------------------------------------------------
# Stream-Sample: what the driver promises, statistically, on one machine
# (W = 1, "sequential") and on three (W = 3, "parallel").  These pin the
# contract ("a uniform sample of the join output, and its exact size"),
# not one implementation's draw, so they are also the oracle for any later
# change that is allowed to redraw the sample.
# ----------------------------------------------------------------------
def _skewed_keys(size: int, domain: int, seed: int) -> np.ndarray:
    """Zipf(0.9)-skewed integer-valued float keys over ``range(domain)``."""
    local = np.random.default_rng(seed)
    mass = 1.0 / np.arange(1, domain + 1) ** 0.9
    return local.choice(domain, size=size, p=mass / mass.sum()).astype(np.float64)


def _draw(workers: int, keys1, keys2, condition, size, seed):
    """One seeded sample over ``workers`` machines; returns ``(sample, stats)``."""
    local = np.random.default_rng(seed)
    return parallel_stream_sample(keys1, keys2, condition, size, workers, local)


def _output_cells(keys1, keys2, condition) -> dict:
    """Exact join-output multiplicity of every joinable ``(k1, k2)`` key pair."""
    values1, counts1 = np.unique(keys1, return_counts=True)
    values2, counts2 = np.unique(keys2, return_counts=True)
    return {
        (float(k1), float(k2)): int(c1) * int(c2)
        for k1, c1 in zip(values1, counts1)
        for k2, c2 in zip(values2, counts2)
        if condition.matches(k1, k2)
    }


def _cell_counts(pairs: np.ndarray, cells: dict) -> np.ndarray:
    """Sampled pairs histogrammed over ``cells`` (a ``KeyError`` = unjoinable pair)."""
    position = {cell: i for i, cell in enumerate(cells)}
    observed = np.zeros(len(cells))
    for k1, k2 in pairs:
        observed[position[(float(k1), float(k2))]] += 1
    return observed


def _chi_square_fits(observed: np.ndarray, expected: np.ndarray) -> bool:
    """Pearson's chi-square goodness of fit at the 1% level.

    The critical value is the Wilson-Hilferty approximation of the 0.99
    quantile with ``len(observed) - 1`` degrees of freedom (within 0.3% of
    the exact quantile from 5 degrees up), so the test needs numpy only.
    """
    statistic = float(((observed - expected) ** 2 / expected).sum())
    dof = len(observed) - 1
    spread = 2.0 / (9.0 * dof)
    critical = dof * (1.0 - spread + 2.3263478740408408 * math.sqrt(spread)) ** 3
    return statistic < critical


WORKERS = pytest.mark.parametrize(
    "workers", [pytest.param(1, id="sequential"), pytest.param(3, id="parallel")]
)
CONDITIONS = pytest.mark.parametrize(
    "condition",
    [
        BandJoinCondition(beta=1.0),
        BandJoinCondition(beta=3.0),
        EquiJoinCondition(),
        InequalityJoinCondition(op=InequalityOp.LE),
    ],
    ids=repr,
)


class TestStreamSampleContract:
    @WORKERS
    @CONDITIONS
    def test_total_output_is_the_exact_join_size(self, workers, condition):
        keys1, keys2 = _skewed_keys(300, 40, 1), _skewed_keys(250, 40, 2)
        brute = int(condition.matches_many(keys1[:, None], keys2[None, :]).sum())
        sample, _ = _draw(workers, keys1, keys2, condition, 64, seed=3)
        assert brute > 0
        assert sample.total_output == brute

    @WORKERS
    @CONDITIONS
    def test_every_sampled_pair_is_joinable(self, workers, condition):
        keys1, keys2 = _skewed_keys(300, 40, 4), _skewed_keys(250, 40, 5)
        sample, _ = _draw(workers, keys1, keys2, condition, 200, seed=6)
        assert sample.size == 200
        assert condition.matches_many(sample.r1_keys, sample.r2_keys).all()
        assert np.isin(sample.r1_keys, keys1).all()
        assert np.isin(sample.r2_keys, keys2).all()

    def test_parallel_scan_counts_sum_to_the_input_sizes(self):
        keys1, keys2 = _skewed_keys(301, 40, 7), _skewed_keys(199, 40, 8)
        local = np.random.default_rng(9)
        sample, scan = parallel_stream_sample(
            keys1, keys2, BandJoinCondition(beta=1.0), 50, 4, local
        )
        assert len(scan.r1_tuples_scanned) == len(scan.r2_tuples_scanned) == 4
        assert sum(scan.r1_tuples_scanned) == len(keys1)
        assert sum(scan.r2_tuples_scanned) == len(keys2)
        assert scan.total_tuples_scanned == len(keys1) + len(keys2)
        assert sum(scan.sample_pairs_produced) == sample.size == 50
        assert len(scan.d2equi_entries_shipped) == 4

    @WORKERS
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_pairs_follow_the_join_output_distribution(self, workers, seed):
        """Chi-square over key-pair cells of a small skewed band join.

        The sample size is at least ``|R1|``, so the reservoir holds every
        joinable R1 tuple and each of the 4,000 pairs is an independent
        draw with probability exactly ``1/m`` per output tuple.
        """
        condition = BandJoinCondition(beta=1.0)
        keys1, keys2 = _skewed_keys(60, 10, 1), _skewed_keys(50, 10, 2)
        cells = _output_cells(keys1, keys2, condition)
        total = sum(cells.values())
        sample, _ = _draw(workers, keys1, keys2, condition, 4000, seed)
        assert sample.total_output == total
        observed = _cell_counts(sample.pairs, cells)
        expected = np.array(list(cells.values())) * (sample.size / total)
        assert expected.min() >= 5  # the chi-square approximation holds
        assert _chi_square_fits(observed, expected)

    @WORKERS
    def test_a_truncated_reservoir_stays_close_to_uniform(self, workers):
        """With ``s_o < |R1|`` the WOR -> WR conversion is only approximately
        uniform (and one run's pairs share a reservoir): pooled over 300
        seeds the cell frequencies stay within a total-variation bound
        (0.09 - 0.10 measured, about 0.03 of it sampling noise)."""
        condition = BandJoinCondition(beta=1.0)
        keys1, keys2 = _skewed_keys(60, 10, 1), _skewed_keys(50, 10, 2)
        cells = _output_cells(keys1, keys2, condition)
        pooled = np.concatenate([
            _draw(workers, keys1, keys2, condition, 15, seed)[0].pairs
            for seed in range(300)
        ])
        observed = _cell_counts(pooled, cells)
        exact = np.array(list(cells.values())) / sum(cells.values())
        assert 0.5 * np.abs(observed / observed.sum() - exact).sum() < 0.15

    def test_no_sample_draws_nothing(self, rng):
        """An empty S1 yields an empty float64 sample and leaves the generator alone."""
        before = rng.bit_generator.state
        sample, _ = parallel_stream_sample(
            np.array([1.0, 2.0]), np.array([1.0, 2.0, 2.0]), BandJoinCondition(beta=1.0),
            0, 3, rng,
        )
        assert sample.pairs.shape == (0, 2) and sample.pairs.dtype == np.float64
        assert sample.total_output == 6
        assert rng.bit_generator.state == before


class TestDecayedReservoirRetention:
    @pytest.mark.parametrize("capacity", [1, 4])
    def test_retention_is_proportional_to_decay_to_the_age(self, capacity):
        """A key offered ``a`` batches ago is retained with probability
        proportional to ``decay ** a``: exactly so for a one-slot reservoir,
        to first order while the capacity is small against the stream (4 of
        120).  600 seeded trials, keys labelled by their batch."""
        decay, batches, per_batch = 0.6, 6, 20
        retained = np.zeros(batches)
        for seed in range(600):
            local = np.random.default_rng(seed)
            reservoir = DecayedReservoir(capacity, decay)
            for batch in range(batches):
                reservoir.add_batch(np.full(per_batch, float(batch)), batch, local)
            assert len(reservoir) == capacity
            assert reservoir.tuples_seen == batches * per_batch
            retained += np.bincount(
                reservoir.payloads().astype(np.int64), minlength=batches
            )
        share = decay ** (batches - 1 - np.arange(batches))
        expected = share / share.sum() * retained.sum()
        assert _chi_square_fits(retained, expected)
