"""Differential tests: the sampling kernels against their per-tuple originals.

``tests/reference_sampling.py`` holds the loops ``_sample_joinable_keys``,
``weighted_sample_wor`` and ``merge_reservoirs`` shipped before their
per-tuple interpreter work was removed, and the stream histogram's
reservoir as a ``heapq`` list of tuples (``TupleReservoir``), which the
production ``DecayedReservoir`` now holds as three arrays offered to by the
compiled kernel.  The rewrite must be invisible: equal outputs, equal heap
*arrays* entry by entry (heap order feeds ``wor_to_wr``'s ``rng.choice`` and
``DecayedReservoir.keys()``), equal counters, and the generator left in the
same state -- so every sample, plan and checkpoint downstream is unchanged.
The reservoir is held to it on the kernel path and on the ``offer_entries``
fallback, and ``tests/test_numpy_count_path.py`` collects its tests again
with the kernel swapped out.  The first test pins the numpy fact the
vectorised draw stands on.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
import reference_sampling as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from streaming_harness import interpreter_calls

import repro.core.histogram as histogram_module
from repro.core.weights import WeightFunction
from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.sampling.equidepth import build_equidepth_histogram
from repro.sampling.parallel_stream_sample import parallel_stream_sample
from repro.sampling.reservoir import (
    WeightedReservoir,
    merge_reservoirs,
    weighted_sample_wor,
)
from repro.sampling.stream_sample import (
    _sample_joinable_keys,
    build_d2_index,
    compute_joinable_set_sizes,
)
from repro.streaming.incremental import DecayedReservoir, IncrementalHistogram
from repro.streaming.source import MicroBatch

needs_kernel = pytest.mark.skipif(native.KERNEL is None, reason=native.COUNT_PATH)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
conditions = st.sampled_from(
    [
        BandJoinCondition(beta=0.0),
        BandJoinCondition(beta=2.0),
        BandJoinCondition(beta=7.5),
        EquiJoinCondition(),
        InequalityJoinCondition(op=InequalityOp.LT),
        InequalityJoinCondition(op=InequalityOp.GE),
    ]
)
key_arrays = st.lists(
    st.integers(min_value=-20, max_value=40), min_size=1, max_size=60
).map(lambda values: np.array(values, dtype=np.float64))


def _twin_generators(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(rng_a, rng_b) -> bool:
    return rng_a.bit_generator.state == rng_b.bit_generator.state


# ----------------------------------------------------------------------
# The numpy fact
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    highs=st.lists(
        st.one_of(
            st.just(1),
            st.integers(min_value=1, max_value=1000),
            st.integers(min_value=2**32 - 2, max_value=2**32 + 2),
            st.integers(min_value=2**32, max_value=2**63 - 1),
        ),
        min_size=0,
        max_size=40,
    ),
)
def test_integers_over_an_array_of_highs_draws_the_scalar_stream(seed, highs):
    """``rng.integers(0, highs)`` is ``[rng.integers(0, h) for h in highs]``.

    Same values *and* the same generator state afterwards (the buffered
    32-bit half included), for int64 highs of 1, below, around and above
    2**32 in any mix.  ``_sample_joinable_keys`` stands on this: if a numpy
    release changes it, this test says so, not a plan fingerprint three
    layers up.
    """
    highs = np.array(highs, dtype=np.int64)
    vectorised, scalar = _twin_generators(seed)
    drawn = vectorised.integers(0, highs)
    one_by_one = [scalar.integers(0, high) for high in highs]
    assert drawn.dtype == np.int64
    assert drawn.tolist() == [int(value) for value in one_by_one]
    assert _same_state(vectorised, scalar)


# ----------------------------------------------------------------------
# Stream-Sample's draw
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(seed=seeds, keys1=key_arrays, keys2=key_arrays, condition=conditions)
def test_sample_joinable_keys_equals_the_scalar_loop(seed, keys1, keys2, condition):
    index = build_d2_index(keys2)
    sampled = keys1[compute_joinable_set_sizes(keys1, index, condition) > 0]
    rng, reference_rng = _twin_generators(seed)
    picked = _sample_joinable_keys(sampled, index, condition, rng)
    expected = reference.sample_joinable_keys(sampled, index, condition, reference_rng)
    assert picked.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(picked, expected)
    assert _same_state(rng, reference_rng)


# ----------------------------------------------------------------------
# The heaps
# ----------------------------------------------------------------------
def _assert_same_reservoir(reservoir, expected) -> None:
    assert reservoir.capacity == expected.capacity
    assert reservoir._counter == expected._counter
    assert reservoir._heap == expected._heap  # the heap array, entry by entry


weight_arrays = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=50.0)),
    min_size=0,
    max_size=80,
).map(lambda values: np.array(values, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, weights=weight_arrays, size=st.integers(1, 30))
def test_weighted_sample_wor_equals_the_per_tuple_pass(seed, weights, size):
    items = np.arange(len(weights), dtype=np.float64) * 0.5
    rng, reference_rng = _twin_generators(seed)
    reservoir = weighted_sample_wor(items, weights, size, rng)
    expected = reference.weighted_sample_wor(items, weights, size, reference_rng)
    _assert_same_reservoir(reservoir, expected)
    assert _same_state(rng, reference_rng)
    np.testing.assert_array_equal(reservoir.weights(), expected.weights())
    assert reservoir.items() == expected.items()
    # ``==`` cannot tell ``np.float64(1.0)`` from ``1.0``: the one intended
    # difference from the reference is that items went through ``tolist()``.
    for entry in reservoir._heap:
        assert tuple(map(type, entry)) == (float, int, float, float)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    parts=st.lists(weight_arrays, min_size=1, max_size=5),
    size=st.integers(1, 20),
    capacity=st.one_of(st.none(), st.integers(1, 25)),
)
def test_merge_reservoirs_equals_the_per_entry_merge(seed, parts, size, capacity):
    rng = np.random.default_rng(seed)
    reservoirs = [
        weighted_sample_wor(np.arange(len(weights)) + 100.0 * i, weights, size, rng)
        for i, weights in enumerate(parts)
    ]
    merged = merge_reservoirs(reservoirs, capacity)
    expected = reference.merge_reservoirs(reservoirs, capacity)
    _assert_same_reservoir(merged, expected)


def test_add_with_priority_is_the_one_entry_form():
    reservoir, expected = WeightedReservoir(capacity=3), WeightedReservoir(capacity=3)
    offers = [("a", 1.0, 0.5), ("b", 2.0, 0.9), ("c", 1.0, 0.1), ("d", 1.0, 0.1),
              ("e", 3.0, 0.7), ("f", 1.0, 0.05)]
    for item, weight, priority in offers:
        reservoir.add_with_priority(item, weight, priority)
        reference.add_with_priority(expected, item, weight, priority)
        _assert_same_reservoir(reservoir, expected)
    assert sorted(reservoir.items()) == ["a", "b", "e"]


# ----------------------------------------------------------------------
# The stream histogram's reservoir: kernel or fallback, against the tuples
# ----------------------------------------------------------------------
@contextmanager
def _numpy_path():
    """The reservoir offers through ``offer_entries``, the kernel swapped out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "KERNEL", None)
        yield


def _bits(values) -> "list[int]":
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _entries(reservoir) -> tuple:
    """A production reservoir's heap array -- priority bits, counter, key
    bits per entry -- its next counter and tuples seen, as pickled."""
    state = reservoir.__getstate__()
    heap = list(
        zip(_bits(state["_priorities"]), state["_counters"].tolist(), _bits(state["_keys"]))
    )
    assert len(heap) == len(reservoir) == state["_size"]
    return heap, state["_counter"], state["tuples_seen"]


def _reference_entries(reservoir: "reference.TupleReservoir") -> tuple:
    """:func:`_entries` of the reference's list of tuples."""
    heap = [
        (_bits([priority])[0], counter, _bits([key])[0])
        for priority, counter, key in reservoir.heap
    ]
    return heap, reservoir.counter, reservoir.tuples_seen


def _assert_offers_equal(make_rng, capacity, decay, batches) -> DecayedReservoir:
    """Offer ``batches`` to a production reservoir on the path loaded, one
    on the fallback path and the reference; compare after every batch.  A
    second fallback reservoir is read only at the end, so its heap stays a
    list of tuples from batch to batch."""
    rngs = [make_rng() for _ in range(4)]
    reservoirs = [DecayedReservoir(capacity, decay) for _ in range(3)]
    expected = reference.TupleReservoir(capacity, decay)
    for batch_index, keys in enumerate(batches):
        reservoirs[0].add_batch(keys, batch_index, rngs[0])
        with _numpy_path():
            reservoirs[1].add_batch(keys, batch_index, rngs[1])
            reservoirs[2].add_batch(keys, batch_index, rngs[2])
        expected.add_batch(keys, batch_index, rngs[3])
        for reservoir, rng in zip(reservoirs[:2], rngs):
            assert _entries(reservoir) == _reference_entries(expected)
            assert _same_state(rng, rngs[3])
            assert _bits(reservoir.keys()) == _bits(expected.keys())
    assert _same_state(rngs[2], rngs[3])
    assert _bits(reservoirs[2].keys()) == _bits(expected.keys())
    # A checkpoint pickles the same bytes whichever path filled the heap.
    assert pickle.dumps(reservoirs[0]) == pickle.dumps(reservoirs[1])
    assert pickle.dumps(reservoirs[2]) == pickle.dumps(reservoirs[1])
    return reservoirs[0]


reservoir_keys = st.lists(
    st.one_of(
        st.integers(0, 50).map(float),
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0]),
    ),
    max_size=90,
).map(lambda values: np.array(values, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    capacity=st.one_of(st.just(1), st.integers(1, 40)),
    decay=st.sampled_from([1.0, 0.8, 0.5]),
    batches=st.lists(reservoir_keys, min_size=1, max_size=8),
)
@example(seed=0, capacity=1, decay=1.0, batches=[np.arange(5.0), np.arange(3.0)])
@example(seed=1, capacity=3, decay=0.8, batches=[np.array([np.nan, -0.0, np.inf] * 20)])
def test_decayed_reservoir_add_batch_equals_the_per_key_loop(
    seed, capacity, decay, batches
):
    """Heap arrays (priority and key bits), counters, tuples seen and the
    generator equal the reference's after every batch, on both paths."""
    _assert_offers_equal(lambda: np.random.default_rng(seed), capacity, decay, batches)


class _RepeatingGenerator:
    """A generator stub whose ``random(n)`` cycles through a few values, so
    priorities tie and the counter breaks the ties (0.0 gives ``-inf``)."""

    values = np.array([0.5, 0.25, 0.5, 0.75, 0.0, 0.25, 0.5])

    def __init__(self) -> None:
        self.bit_generator = SimpleNamespace(state={"drawn": 0})

    def random(self, size: int) -> np.ndarray:
        drawn = self.bit_generator.state["drawn"]
        self.bit_generator.state = {"drawn": drawn + size}
        return self.values[(drawn + np.arange(size)) % self.values.size]


@pytest.mark.parametrize("decay", [1.0, 0.5])
@pytest.mark.parametrize("capacity", [1, 3, 8, 40])
def test_tied_priorities_break_by_counter(capacity, decay):
    data = np.random.default_rng(capacity)
    batches = [data.integers(0, 50, size).astype(np.float64) for size in (10, 0, 25, 7, 60, 3)]
    reservoir = _assert_offers_equal(_RepeatingGenerator, capacity, decay, batches)
    if capacity > 1:
        priorities = reservoir.__getstate__()["_priorities"]
        assert np.unique(priorities).size < priorities.size  # ties were held


@needs_kernel
def test_observe_makes_the_same_calls_at_any_batch_size():
    """One kernel call per side: ``IncrementalHistogram.observe`` makes as
    many interpreter calls at 8,000 keys per side as at 1,000 (both
    reservoirs full).  ``-s`` prints them, and the growing count of the
    ``offer_entries`` fallback."""
    calls = {}
    for path in ("kernel", "fallback"):
        for per_side in (1_000, 8_000):
            histogram = IncrementalHistogram(12, WeightFunction(1.0, 0.2))
            rng, data = np.random.default_rng(0), np.random.default_rng(1)
            batches = [
                MicroBatch(index, *data.integers(0, 2_000, (2, per_side)).astype(np.float64))
                for index in range(4)
            ]
            for batch in batches[:3]:
                histogram.observe(batch, rng)
            with _numpy_path() if path == "fallback" else nullcontext():
                _, calls[path, per_side] = interpreter_calls(
                    histogram.observe, batches[3], rng
                )
    print(
        "observe: "
        + ", ".join(f"{per:,} keys/side {calls[path, per]} calls ({path})"
                    for path, per in calls)
    )
    assert calls["kernel", 1_000] == calls["kernel", 8_000]


# ----------------------------------------------------------------------
# The driver end to end, on one machine and on four
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workers", [pytest.param(1, id="sequential"), pytest.param(4, id="parallel")]
)
@pytest.mark.parametrize("seed", range(4))
def test_drivers_draw_the_same_sample_as_with_the_reference_kernels(
    workers, seed, monkeypatch
):
    data = np.random.default_rng(seed)
    keys1 = data.integers(0, 300, size=2000).astype(np.float64)
    keys2 = data.integers(0, 300, size=1500).astype(np.float64)
    condition = BandJoinCondition(beta=2.0)

    def draw():
        # Resolved where the histogram build resolves it, so ``install``
        # swaps in the per-worker driver and its per-tuple kernels.
        rng = np.random.default_rng(seed + 10)
        sample, _ = histogram_module.parallel_stream_sample(
            keys1, keys2, condition, 120, workers, rng
        )
        return sample, rng

    sample, rng = draw()
    reference.install(monkeypatch)
    expected, reference_rng = draw()
    assert sample.total_output == expected.total_output
    np.testing.assert_array_equal(sample.pairs, expected.pairs)
    assert _same_state(rng, reference_rng)


# ----------------------------------------------------------------------
# The one-pass driver against the per-worker loop it replaced
# ----------------------------------------------------------------------
side_keys = st.lists(st.integers(min_value=-20, max_value=40), max_size=80).map(
    lambda values: np.array(values, dtype=np.float64)
)


@settings(max_examples=300, deadline=None)
@given(
    seed=seeds,
    workers=st.sampled_from([1, 2, 3, 8, 12, 17]),
    keys1=side_keys,
    keys2=side_keys,
    condition=conditions,
    size=st.sampled_from(["zero", "small", "larger than n"]),
    buckets=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
def test_the_driver_is_the_per_worker_driver(
    seed, workers, keys1, keys2, condition, size, buckets
):
    """Same pairs, ``m``, four stats lists and generator state, bit for bit.

    Duplicate keys (a small domain), empty sides, and more workers than
    buckets -- the default histograms clamp to the keys at hand, and an
    explicit one may have as few as one bucket.
    """
    sample_size = {"zero": 0, "small": max(len(keys1) // 4, 1)}.get(
        size, 2 * len(keys1) + 5
    )
    histograms = {}
    if buckets is not None and len(keys1) and len(keys2):
        histograms = {
            "histogram1": build_equidepth_histogram(keys1, buckets, len(keys1)),
            "histogram2": build_equidepth_histogram(keys2, buckets, len(keys2)),
        }
    rng, reference_rng = _twin_generators(seed)
    arguments = (keys1, keys2, condition, sample_size, workers)
    sample, stats = parallel_stream_sample(*arguments, rng, **histograms)
    expected, expected_stats = reference.parallel_stream_sample(
        *arguments, reference_rng, **histograms
    )
    assert sample.total_output == expected.total_output
    np.testing.assert_array_equal(sample.pairs, expected.pairs)
    assert sample.pairs.shape == expected.pairs.shape
    assert sample.pairs.dtype == expected.pairs.dtype
    assert stats == expected_stats
    assert _same_state(rng, reference_rng)


@pytest.mark.parametrize("workers", [1, 3])
def test_a_nan_r1_key_hides_no_other_key(workers):
    """A NaN joins nothing, and takes its worker's other keys down with it no more.

    Each worker used to search its d2equi slice from ``min`` of its low
    bounds -- NaN for a worker holding a NaN key, so the slice was empty
    and every key there counted zero.
    """
    keys1 = np.append(np.arange(100.0), np.nan)
    # Workers 0..32, 33..65 and 66..99 plus the NaN (clamped into the last).
    histogram = build_equidepth_histogram(np.arange(100.0), workers, 100)
    rng = np.random.default_rng(3)
    sample, stats = parallel_stream_sample(
        keys1, np.arange(100.0), BandJoinCondition(beta=1.0), 50, workers, rng,
        histogram1=histogram, histogram2=histogram,
    )
    assert sample.total_output == 298  # 100 + 2 * 99 pairs within beta = 1
    assert sample.size == 50 and not np.isnan(sample.pairs).any()
    # Each worker ships the d2equi entries its joining keys' bounds span
    # (neighbours share the two keys either side of a cut); the NaN's empty
    # interval widens nothing.
    assert sum(stats.d2equi_entries_shipped) == 100 + 2 * (workers - 1)
    assert sum(stats.r1_tuples_scanned) == 101


def _calls_per_extra_worker(driver) -> float:
    """Interpreter-level calls a driver adds per worker, J = 12 against J = 24.

    The same 2,048 Zipf(0.9) keys per side, band 2, and an output sample
    larger than R1, as a streaming rebuild draws it: every positive-weight
    tuple enters its worker's reservoir whatever J is, so only per-worker
    work differs between the two runs.
    """
    data = np.random.default_rng(8)
    mass = 1.0 / np.arange(1, 2_001) ** 0.9
    values = data.permutation(2_000).astype(np.float64)
    keys1, keys2 = (
        values[data.choice(2_000, size=2_048, p=mass / mass.sum())] for _ in range(2)
    )
    calls = {}
    for workers in (12, 24):
        _, calls[workers] = interpreter_calls(
            driver, keys1, keys2, BandJoinCondition(beta=2.0), 2_300, workers,
            np.random.default_rng(0),
        )
    return (calls[24] - calls[12]) / 12


def test_stream_sample_calls_per_extra_worker_stay_few():
    """A simulated worker is a slice of one pass, plus its own E-S reservoir.

    Measured: 6 calls per extra worker (its reservoir and that reservoir's
    offer), bound 12.  The per-worker loop this replaced cost 175.6 at the
    same inputs; with the per-tuple reference kernels it costs about 168.
    """
    production = _calls_per_extra_worker(parallel_stream_sample)
    reference_calls = _calls_per_extra_worker(reference.parallel_stream_sample)
    print(
        f"Stream-Sample: {production:.1f} calls per extra worker, "
        f"{reference_calls:.1f} with the per-worker reference driver"
    )
    assert production <= 12, production


# ----------------------------------------------------------------------
# One driver: W = 1 against the sequential body that used to ship beside it
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(48))
def test_one_worker_is_the_sequential_driver(seed):
    """``parallel_stream_sample(num_workers=1)`` *is* sequential Stream-Sample.

    Same pairs, same exact ``m``, generator left in the same state -- over
    skewed and uniform keys, every condition family, and sample sizes on
    both sides of ``|R1|`` (below it the reservoir truncates; above it the
    reservoir holds every joinable R1 tuple).
    """
    data = np.random.default_rng(1000 + seed)
    size1, size2 = int(data.integers(1, 400)), int(data.integers(1, 300))
    domain = int(data.integers(2, 120))
    if seed % 2:
        mass = 1.0 / np.arange(1, domain + 1) ** 0.9
        keys1 = data.choice(domain, size=size1, p=mass / mass.sum()).astype(np.float64)
    else:
        keys1 = data.integers(0, domain, size=size1).astype(np.float64)
    keys2 = data.integers(0, domain, size=size2).astype(np.float64)
    condition = [
        BandJoinCondition(beta=0.0),
        BandJoinCondition(beta=2.0),
        EquiJoinCondition(),
        InequalityJoinCondition(op=InequalityOp.LT),
    ][seed % 4]
    sample_size = [max(size1 // 8, 1), size1, 3 * size1][seed % 3]
    rng, reference_rng = _twin_generators(seed)
    sample, stats = parallel_stream_sample(keys1, keys2, condition, sample_size, 1, rng)
    expected = reference.stream_sample(
        keys1, keys2, condition, sample_size, reference_rng
    )
    assert sample.total_output == expected.total_output
    np.testing.assert_array_equal(sample.pairs, expected.pairs)
    assert sample.pairs.shape == expected.pairs.shape
    assert _same_state(rng, reference_rng)
    assert stats.r1_tuples_scanned == [size1] and stats.r2_tuples_scanned == [size2]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize(
    "keys1, keys2, exact",
    [
        (np.arange(10.0), np.arange(10.0), 28),  # 10 + 2 * 9 pairs within beta = 1
        (np.arange(10.0), np.arange(100.0, 110.0), 0),  # nothing joins
        (np.arange(10.0), np.empty(0), 0),
        (np.empty(0), np.arange(10.0), 0),
    ],
    ids=["joining", "disjoint", "empty-r2", "empty-r1"],
)
def test_degenerate_sample_sizes(workers, keys1, keys2, exact):
    """``sample_size=0`` still reports the exact ``m``; a negative size is refused.

    The deleted sequential driver answered both this way; an empty sample
    draws nothing, so the generator is left alone.
    """
    condition = BandJoinCondition(beta=1.0)
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    sample, stats = parallel_stream_sample(keys1, keys2, condition, 0, workers, rng)
    assert sample.total_output == exact
    assert sample.total_output == reference.stream_sample(
        keys1, keys2, condition, 0, np.random.default_rng(5)
    ).total_output
    assert sample.pairs.shape == (0, 2)
    assert rng.bit_generator.state == before
    if len(keys1) and len(keys2):  # jobs 1 and 2 ran: every tuple was scanned
        assert stats.total_tuples_scanned == len(keys1) + len(keys2)
    with pytest.raises(ValueError, match="sample_size must be non-negative"):
        parallel_stream_sample(keys1, keys2, condition, -1, workers, rng)


def test_the_sequential_driver_is_gone_from_the_package():
    """``repro.sampling.stream_sample`` names the kernel module, not a function."""
    import repro.sampling

    assert "stream_sample" not in repro.sampling.__all__
    assert not callable(repro.sampling.stream_sample)
    with pytest.raises(ImportError):
        from repro.sampling.stream_sample import stream_sample  # noqa: F401
