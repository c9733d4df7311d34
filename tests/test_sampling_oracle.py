"""Differential tests: the sampling kernels against their per-tuple originals.

``tests/reference_sampling.py`` holds the loops ``sample_joinable_keys``,
``weighted_sample_wor``, ``merge_reservoirs`` and ``wor_to_wr`` shipped
before their per-tuple interpreter work was removed, and both reservoirs as
``heapq`` lists of tuples (``TupleWeightedReservoir`` for Stream-Sample,
``TupleReservoir`` for the stream histogram), which the production
``WeightedReservoir`` and ``DecayedReservoir`` now hold as three arrays
offered to by the compiled kernel.  The rewrite must be invisible: equal outputs, equal heap
*arrays* entry by entry (heap order feeds ``wor_to_wr``'s draw and
``DecayedReservoir.keys()``), equal counters, and the generator left in the
same state -- so every sample, plan and checkpoint downstream is unchanged.
The first test pins the numpy fact the vectorised draw stands on; another,
that ``wor_to_wr``'s draw, written as ``rng.choice``'s own steps over
``native.search``, is ``rng.choice``'s.  The
numpy forms the key-order passes replaced -- ``np.quantile``'s equi-depth
boundaries, the per-tuple worker search ``by_worker`` and the per-tuple
window search ``numpy_sample_joinable_keys`` -- are references here too,
and so is ``np.unique``, which Stream-Sample skips when a plan build hands
it the relations its stage 1 has sorted.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

import numpy as np
import pytest
import reference_sampling as reference
from hypothesis import example, given, settings
from hypothesis import strategies as st
from streaming_harness import interpreter_calls

import repro.core.histogram as histogram_module
from repro.core.histogram import EWHConfig
from repro.core.weights import WeightFunction
from repro.joins import native
from repro.joins.conditions import (
    BandJoinCondition,
    EquiJoinCondition,
    InequalityJoinCondition,
    InequalityOp,
)
from repro.sampling.equidepth import build_equidepth_histogram
from repro.sampling.parallel_stream_sample import _distinct_sorted, parallel_stream_sample
from repro.sampling.reservoir import (
    WeightedReservoir,
    merge_reservoirs,
    weighted_sample_wor,
    weighted_samples_wor,
    wor_to_wr,
)
from repro.sampling.stream_sample import build_d2_index, compute_joinable_set_sizes
from repro.streaming.incremental import DecayedReservoir, IncrementalHistogram
from repro.streaming.source import MicroBatch

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
    2**32 in any mix.  Job 3's draw stands on this: if a numpy
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
# The equi-depth boundaries: read by index against np.quantile
# ----------------------------------------------------------------------
#: Keys no index read may mistake: the float ends, both zeros, the extremes.
SPECIAL_KEYS = np.array([-np.inf, np.inf, -0.0, 0.0, 1e300, -1e300, 5e-324])


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds,
    size=st.one_of(st.integers(1, 64), st.integers(1, 30_000)),
    domain=st.sampled_from([1, 3, 100, 10**9]),
    specials=st.sampled_from([0.0, 0.3, 1.0]),
    data=st.data(),
)
@example(seed=0, size=1, domain=1, specials=0.0, data=None)  # one key: one bucket
@example(seed=1, size=30_000, domain=100, specials=0.3, data=None)  # every key a boundary
def test_the_index_read_is_np_quantiles_inverted_cdf(seed, size, domain, specials, data):
    """``build_equidepth_histogram``'s boundaries equal the ``np.quantile``
    build's, over sizes 1 to 30,000, one bucket to ``n`` buckets and more
    than ``n`` (clamped to ``n``), duplicate-heavy or distinct keys, +-inf,
    both zeros and the extremes.

    Compared as values: the sign of a zero boundary is whichever of the
    equal keys a sort or partition placed at that rank -- ``np.quantile``'s
    partition and the build's sort may place them differently, and every
    reader of a boundary only compares it.  Every other boundary is
    bit-identical.
    """
    if data is None:  # an explicit example: every key a boundary, and more
        buckets = 2 * size + 1
    else:
        up_to_n, more = st.integers(1, size), st.integers(size + 1, 2 * size)
        buckets = data.draw(st.one_of(st.integers(1, 64), up_to_n, more), label="buckets")
    rng = np.random.default_rng(seed)
    keys = rng.integers(-domain, domain + 1, size) * (1e300 / 10**9 if domain > 100 else 0.5)
    keys = np.where(rng.random(size) < specials, rng.choice(SPECIAL_KEYS, size), keys)
    histogram = build_equidepth_histogram(keys, buckets, size + 7)
    expected = reference.quantile_histogram(keys, buckets, size + 7)
    assert histogram.num_buckets == expected.num_buckets == min(buckets, size)
    assert histogram.num_tuples == expected.num_tuples
    np.testing.assert_array_equal(histogram.boundaries, expected.boundaries)
    nonzero = histogram.boundaries != 0
    assert _bits(histogram.boundaries[nonzero]) == _bits(expected.boundaries[nonzero])


def test_an_equidepth_build_makes_the_same_calls_at_any_size():
    """The index read leaves no per-key or per-bucket interpreter work:
    ``build_equidepth_histogram`` makes as many interpreter calls at 20,000
    keys as at 1,000, and at 4,096 buckets as at 64.  ``-s`` prints them."""
    calls = {}
    for size in (1_000, 20_000):
        keys = np.random.default_rng(size).integers(0, size // 2, size).astype(np.float64)
        for buckets in (64, 4_096):
            build_equidepth_histogram(keys, buckets, size)  # numpy's caches warm
            _, calls[size, buckets] = interpreter_calls(
                build_equidepth_histogram, keys, buckets, size
            )
    print("equi-depth build: " + ", ".join(
        f"{size:,} keys x {buckets:,} buckets {count} calls"
        for (size, buckets), count in calls.items()
    ))
    assert len(set(calls.values())) == 1, calls


# ----------------------------------------------------------------------
# Stream-Sample's draw
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(seed=seeds, keys1=key_arrays, keys2=key_arrays, condition=conditions)
def test_sample_joinable_keys_equals_the_scalar_loop(seed, keys1, keys2, condition):
    index = build_d2_index(keys2)
    sampled = keys1[compute_joinable_set_sizes(keys1, index, condition) > 0]
    rng, reference_rng = _twin_generators(seed)
    picked = reference.numpy_sample_joinable_keys(sampled, index, condition, rng)
    expected = reference.sample_joinable_keys(sampled, index, condition, reference_rng)
    assert picked.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(picked, expected)
    assert _same_state(rng, reference_rng)


# ----------------------------------------------------------------------
# Stream-Sample's reservoirs: the kernel against the tuples
# ----------------------------------------------------------------------
def _bits(values) -> "list[int]":
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _heap(reservoir) -> tuple:
    """A production ``WeightedReservoir``'s heap array -- priority bits,
    counter, item, weight bits per entry, items and weights gathered by
    position -- and its next counter."""
    size = reservoir._size
    held = reservoir._positions[:size].astype(np.int64)
    assert (held == reservoir._positions[:size]).all()  # whole positions
    heap = list(
        zip(
            _bits(reservoir._priorities[:size]),
            reservoir._counters[:size].tolist(),
            reservoir._items[held].tolist(),
            _bits(reservoir._weights[held]),
        )
    )
    assert len(heap) == len(reservoir)
    return heap, reservoir._counter


def _reference_heap(expected: "reference.TupleWeightedReservoir") -> tuple:
    """:func:`_heap` of the reference's list of tuples."""
    priorities, counters, items, weights = zip(*expected.heap) if expected.heap else [()] * 4
    heap = list(zip(_bits(priorities), counters, _plain(items), _bits(weights)))
    return heap, expected.counter


def _plain(items) -> list:
    """Items as ``tolist()`` gives them (the reference holds numpy scalars and rows)."""
    return [np.asarray(item).tolist() for item in items]


def _assert_same_reservoir(reservoir, expected) -> None:
    assert reservoir.capacity == expected.capacity
    assert _heap(reservoir) == _reference_heap(expected)  # the heap array, entry by entry


weight_arrays = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=50.0)),
    min_size=0,
    max_size=80,
).map(lambda values: np.array(values, dtype=np.float64))

#: Weights no positive-weight path may mistake: zero, negative and NaN ones
#: are never offered; ``inf`` and the smallest subnormal give priorities of
#: exactly 1.0 and 0.0, so several of either tie and counters break the ties.
edge_weights = st.lists(
    st.one_of(
        st.floats(min_value=0.01, max_value=50.0),
        st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, 5e-324]),
    ),
    max_size=40,
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
    # difference from the reference is that items go through ``tolist()``.
    assert all(type(item) is float for item in reservoir.items())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weights", [[5e-324], [5e-324, 1.0, 5e-324, 2.5], [1e-310, 3.0, 0.5]])
def test_a_subnormal_weight_draws_priority_zero_without_a_warning(weights):
    """A weight so small that its exponent ``1 / w`` overflows to inf draws
    priority ``u ** inf == 0.0``, and nothing warns, even with every
    ``RuntimeWarning`` an error.  The flag changes no value: every held
    priority is the plain draw's, bit for bit, and the generator is where
    one ``rng.random`` leaves it."""
    weights = np.array(weights)
    rng, twin = _twin_generators(7)
    reservoir = weighted_samples_wor(
        np.arange(weights.size), weights, weights.size, rng, [weights.size]
    )[0]
    with np.errstate(over="ignore"):
        expected = twin.random(weights.size) ** (1.0 / weights)
    assert (expected[weights < 1e-308] == 0.0).all()
    held = reservoir._held()
    assert reservoir._priorities[: len(reservoir)].tobytes() == expected[held].tobytes()
    assert _same_state(rng, twin)


@settings(max_examples=100, deadline=None)
@given(
    seed=seeds,
    parts=st.lists(weight_arrays, min_size=1, max_size=5),
    size=st.integers(1, 20),
    capacity=st.one_of(st.none(), st.integers(1, 25)),
)
def test_merge_reservoirs_equals_the_per_entry_merge(seed, parts, size, capacity):
    rng, reference_rng = _twin_generators(seed)
    reservoirs, expected = [], []
    for i, weights in enumerate(parts):
        items = np.arange(len(weights)) + 100.0 * i
        reservoirs.append(weighted_sample_wor(items, weights, size, rng))
        expected.append(reference.weighted_sample_wor(items, weights, size, reference_rng))
    _assert_same_reservoir(
        merge_reservoirs(reservoirs, capacity), reference.merge_reservoirs(expected, capacity)
    )


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # 1 / 5e-324
@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    parts=st.lists(edge_weights, min_size=1, max_size=6),
    size=st.one_of(st.integers(1, 12), st.just(300)),
    capacity=st.one_of(st.none(), st.integers(1, 30), st.just(300)),
    columns=st.sampled_from([None, 2]),
    draws=st.integers(0, 40),
)
@example(  # every priority 1.0: the counters alone order the heaps
    seed=0, parts=[np.full(9, np.inf), np.full(5, np.inf)], size=4, capacity=None,
    columns=None, draws=10,
)
@example(  # empty parts, and a part of zero weights only
    seed=1, parts=[np.empty(0), np.zeros(4), np.ones(3), np.empty(0)], size=2, capacity=3,
    columns=2, draws=5,
)
def test_parts_merge_and_draw_equal_the_per_tuple_passes(
    seed, parts, size, capacity, columns, draws
):
    """``weighted_samples_wor`` over consecutive parts, their merge and the
    WR draw: heap arrays entry by entry, counters, the sample and the
    generator equal the reference's per-part passes, per-entry merge and
    list draw (an ``inf`` weight held makes both draws refuse: production
    by name, before the divide; the reference as numpy does).  ``size``
    300 holds every entry (capacity >= n); 2-D items are carried as rows."""
    weights = np.concatenate(parts)
    items = np.arange(weights.size, dtype=np.float64) * 0.25
    if columns:
        items = np.column_stack([items, -items])
    lengths = [part.size for part in parts]
    rng, reference_rng = _twin_generators(seed)
    reservoirs = weighted_samples_wor(items, weights, size, rng, lengths)
    expected, start = [], 0
    for length in lengths:
        expected.append(reference.weighted_sample_wor(
            items[start:start + length], weights[start:start + length], size, reference_rng
        ))
        start += length
    for reservoir, reference_reservoir in zip(reservoirs, expected, strict=True):
        _assert_same_reservoir(reservoir, reference_reservoir)
    assert _same_state(rng, reference_rng)
    merged = merge_reservoirs(reservoirs, capacity)
    reference_merged = reference.merge_reservoirs(expected, capacity)
    _assert_same_reservoir(merged, reference_merged)
    if np.isinf(merged.weights()).any():  # no proportional draw: both refuse it
        with pytest.raises(ValueError, match="infinite weight: heap entry .* weight inf"):
            wor_to_wr(merged, draws, rng)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="NaN"):
            reference.wor_to_wr(reference_merged, draws, reference_rng)
    else:
        sample = wor_to_wr(merged, draws, rng)
        assert isinstance(sample, np.ndarray)
        assert sample.tolist() == _plain(reference.wor_to_wr(reference_merged, draws, reference_rng))
    assert _same_state(rng, reference_rng)


@settings(max_examples=150, deadline=None)
@given(
    seed=seeds,
    offers=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", 7, 2.5]),
            st.one_of(st.floats(0.01, 10.0), st.sampled_from([0.0, -2.0, np.inf])),
            st.one_of(st.none(), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        ),
        max_size=30,
    ),
    capacity=st.integers(1, 6),
)
def test_add_drives_the_kernel_as_the_per_entry_loop(seed, offers, capacity):
    """``add`` (a drawn priority) and ``add_with_priority`` (a given one,
    tied ones too) offer one entry per kernel call: the heap array, the
    counters -- a lone entry a full heap drops still uses one -- and the
    generator equal the ``heapq`` loop's after every offer."""
    rng, reference_rng = _twin_generators(seed)
    reservoir = WeightedReservoir(capacity=capacity)
    expected = reference.TupleWeightedReservoir(capacity=capacity)
    for item, weight, priority in offers:
        if priority is None:
            reservoir.add(item, weight, rng)
            expected.add(item, weight, reference_rng)
        elif weight > 0:
            reservoir.add_with_priority(item, weight, priority)
            expected.add_with_priority(item, weight, priority)
        _assert_same_reservoir(reservoir, expected)
        assert _same_state(rng, reference_rng)
    assert reservoir.items() == expected.items()


def test_add_with_priority_is_the_one_entry_form():
    reservoir = WeightedReservoir(capacity=3)
    expected = reference.TupleWeightedReservoir(capacity=3)
    offers = [("a", 1.0, 0.5), ("b", 2.0, 0.9), ("c", 1.0, 0.1), ("d", 1.0, 0.1),
              ("e", 3.0, 0.7), ("f", 1.0, 0.05)]
    for item, weight, priority in offers:
        reservoir.add_with_priority(item, weight, priority)
        expected.add_with_priority(item, weight, priority)
        _assert_same_reservoir(reservoir, expected)
    assert sorted(reservoir.items()) == ["a", "b", "e"]
    assert reservoir._counter == len(offers)


# ----------------------------------------------------------------------
# The stream histogram's reservoir: the kernel against the tuples
# ----------------------------------------------------------------------
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
    """Offer ``batches`` to a production reservoir and to the reference;
    compare after every batch."""
    rng, reference_rng = make_rng(), make_rng()
    reservoir = DecayedReservoir(capacity, decay)
    expected = reference.TupleReservoir(capacity, decay)
    for batch_index, keys in enumerate(batches):
        reservoir.add_batch(keys, batch_index, rng)
        expected.add_batch(keys, batch_index, reference_rng)
        assert _entries(reservoir) == _reference_entries(expected)
        assert _same_state(rng, reference_rng)
        assert _bits(reservoir.keys()) == _bits(expected.keys())
    return reservoir


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
    generator equal the reference's after every batch."""
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


def test_observe_makes_the_same_calls_at_any_batch_size():
    """One kernel call per side: ``IncrementalHistogram.observe`` makes as
    many interpreter calls at 8,000 keys per side as at 1,000 (both
    reservoirs full).  ``-s`` prints them."""
    calls = {}
    for per_side in (1_000, 8_000):
        histogram = IncrementalHistogram(12, WeightFunction(1.0, 0.2))
        rng, data = np.random.default_rng(0), np.random.default_rng(1)
        batches = [
            MicroBatch(index, *data.integers(0, 2_000, (2, per_side)).astype(np.float64))
            for index in range(4)
        ]
        for batch in batches[:3]:
            histogram.observe(batch, rng)
        _, calls[per_side] = interpreter_calls(histogram.observe, batches[3], rng)
    print("observe: " + ", ".join(f"{per:,} keys/side {calls[per]} calls" for per in calls))
    assert calls[1_000] == calls[8_000]


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
side_keys = st.lists(
    st.one_of(
        st.integers(min_value=-20, max_value=40).map(float),
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e300]),
    ),
    max_size=80,
).map(lambda values: np.array(values, dtype=np.float64))


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
@example(  # a NaN hid its worker's other keys from the per-worker driver's hull
    seed=0, workers=1, keys1=np.array([0.0, np.nan]), keys2=np.array([0.0]),
    condition=BandJoinCondition(beta=0.0), size="small", buckets=None,
)
@example(  # so did a key a strict inequality joins nothing to
    seed=0, workers=1, keys1=np.array([0.0, np.inf]), keys2=np.array([1.0]),
    condition=InequalityJoinCondition(op=InequalityOp.LT), size="small", buckets=1,
)
def test_the_driver_is_the_per_worker_driver(
    seed, workers, keys1, keys2, condition, size, buckets
):
    """Same pairs, ``m``, four stats lists and generator state, bit for bit.

    Duplicate keys (a small domain), NaN, +-inf, -0.0 and 1e300, empty
    sides, and more workers than buckets -- the default histograms clamp to
    the keys at hand, and an explicit one (built, as a histogram must be,
    from the non-NaN keys) may have as few as one bucket.
    """
    sample_size = {"zero": 0, "small": max(len(keys1) // 4, 1)}.get(
        size, 2 * len(keys1) + 5
    )
    histograms = {}
    joining1, joining2 = keys1[~np.isnan(keys1)], keys2[~np.isnan(keys2)]
    if buckets is not None and len(joining1) and len(joining2):
        histograms = {
            "histogram1": build_equidepth_histogram(joining1, buckets, len(keys1)),
            "histogram2": build_equidepth_histogram(joining2, buckets, len(keys2)),
        }
    rng, reference_rng = _twin_generators(seed)
    arguments = (keys1, keys2, condition, sample_size, workers)
    sample, stats = parallel_stream_sample(*arguments, rng, **histograms)
    expected, expected_stats = reference.parallel_stream_sample(
        *arguments, reference_rng, **histograms
    )
    assert sample.total_output == expected.total_output
    np.testing.assert_array_equal(sample.pairs, expected.pairs)
    # An R1 key is a sampled tuple's own, -0.0 or 0.0; an R2 key is d2equi's
    # representative of its equal keys, whichever np.unique met first.
    assert _bits(sample.r1_keys) == _bits(expected.r1_keys)
    assert sample.pairs.shape == expected.pairs.shape
    assert sample.pairs.dtype == expected.pairs.dtype
    assert stats == expected_stats
    assert _same_state(rng, reference_rng)


draw_weights = st.one_of(
    st.lists(st.floats(5e-324, 1e-300), min_size=1, max_size=40),  # tiny, subnormal too
    st.lists(st.floats(1e300, 1.7e308), min_size=1, max_size=40),  # huge: totals overflow
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40),
    st.builds(lambda weight, count: [weight] * count,  # all equal
              st.floats(1e-300, 1e300), st.integers(1, 40)),
    st.floats(5e-324, 1.7e308).map(lambda weight: [weight]),  # one entry
)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, weights=draw_weights, draws=st.integers(0, 300))
def test_the_draw_is_rng_choice_step_for_step(seed, weights, draws):
    """``wor_to_wr`` writes ``rng.choice(n, size, replace=True, p=weights /
    total)`` as the steps it takes: the same indexes, and the generator left
    in the same state.  A total that overflows is refused by name, where
    ``rng.choice`` would refuse probabilities that do not sum to 1."""
    weights = np.array(weights)
    reservoir = WeightedReservoir(capacity=weights.size)
    for item, weight in enumerate(weights):  # given priorities: 1 / 5e-324 overflows
        reservoir.add_with_priority(item, weight, (item + 1) / (weights.size + 1))
    held = reservoir._held()
    rng, choice_rng = _twin_generators(seed + 1)
    with np.errstate(over="ignore"):
        overflows = np.isinf(weights.sum())
    if overflows:
        with pytest.raises(ValueError, match="weights whose total is inf: .* overflow float64"):
            wor_to_wr(reservoir, draws, rng)
        return
    drawn = wor_to_wr(reservoir, draws, rng)
    held_weights = weights[held]
    chosen = choice_rng.choice(
        held.size, size=draws, replace=True, p=held_weights / held_weights.sum()
    )
    np.testing.assert_array_equal(drawn, held[chosen])
    assert _same_state(rng, choice_rng)


@pytest.mark.parametrize("workers", [1, 8, 16])
@pytest.mark.parametrize("sample_size", [400, 5_000])
def test_the_driver_is_the_per_worker_driver_on_skewed_keys(workers, sample_size):
    """The same, on 3,000 Zipf(0.9) keys per side: a sample of 400 fills
    every worker's reservoir and truncates the merge, one of 5,000 holds
    every joinable R1 tuple."""
    data = np.random.default_rng(workers)
    mass = 1.0 / np.arange(1, 501) ** 0.9
    keys1, keys2 = (
        data.choice(500, size=3_000, p=mass / mass.sum()).astype(np.float64) for _ in range(2)
    )
    rng, reference_rng = _twin_generators(workers + sample_size)
    arguments = (keys1, keys2, BandJoinCondition(beta=2.0), sample_size, workers)
    sample, stats = parallel_stream_sample(*arguments, rng)
    expected, expected_stats = reference.parallel_stream_sample(*arguments, reference_rng)
    assert sample.total_output == expected.total_output
    np.testing.assert_array_equal(sample.pairs, expected.pairs)
    assert stats == expected_stats
    assert _same_state(rng, reference_rng)


@pytest.mark.parametrize("workers", [1, 5, 16])
@pytest.mark.parametrize(
    "condition",
    [BandJoinCondition(beta=2.0), InequalityJoinCondition(op=InequalityOp.GE)],
    ids=["band", "inequality"],
)
def test_job_3_gathers_what_the_searches_found(workers, condition, monkeypatch):
    """Job 3 reads a sampled tuple's worker and joinable window by its
    position in the worker-ordered R1; the numpy form searched for both.

    From the positions ``wor_to_wr`` drew and the generator as it left
    it, ``by_worker`` (R1, then the sample: one search per tuple) and
    ``numpy_sample_joinable_keys`` (one window search per sampled key)
    give the same R1 keys bit for bit (-0.0 and 0.0 both held), the same
    R2 keys, the same per-worker counts and the same generator state.
    """
    data = np.random.default_rng(workers)
    keys1, keys2 = (data.integers(-100, 100, 2_000).astype(np.float64) for _ in range(2))
    keys1[data.choice(2_000, 60, replace=False)] = [-0.0, 0.0, np.nan] * 20
    histogram1 = build_equidepth_histogram(keys1[~np.isnan(keys1)], 3 * workers, 2_000)
    drawn = {}

    def recording_wor_to_wr(reservoir, size, rng):
        drawn["positions"] = wor_to_wr(reservoir, size, rng)
        drawn["state"] = rng.bit_generator.state
        return drawn["positions"]

    monkeypatch.setattr(
        importlib.import_module("repro.sampling.parallel_stream_sample"),
        "wor_to_wr", recording_wor_to_wr,
    )
    rng = np.random.default_rng(workers + 40)
    sample, stats = parallel_stream_sample(
        keys1, keys2, condition, 700, workers, rng, histogram1=histogram1
    )
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = drawn["state"]
    worker_ordered, _ = reference.by_worker(keys1, histogram1, workers)
    sampled_keys1, produced = reference.by_worker(
        worker_ordered[drawn["positions"]], histogram1, workers
    )
    sampled_keys2 = reference.numpy_sample_joinable_keys(
        sampled_keys1, build_d2_index(keys2), condition, reference_rng
    )
    assert sample.size == 700
    assert _bits(sample.r1_keys) == _bits(sampled_keys1)
    assert (sample.r1_keys == 0).any()
    np.testing.assert_array_equal(sample.r2_keys, sampled_keys2)
    assert stats.sample_pairs_produced == produced.tolist()
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

    Measured: 8.8 calls per extra worker (its reservoir, that reservoir's
    kernel offer, and the gather of what it holds in the merge), bound 12.
    The per-worker loop this replaced cost 175.6 at the same inputs; with
    the per-tuple reference kernels it costs about 158.
    """
    production = _calls_per_extra_worker(parallel_stream_sample)
    reference_calls = _calls_per_extra_worker(reference.parallel_stream_sample)
    print(
        f"Stream-Sample: {production:.1f} calls per extra worker, "
        f"{reference_calls:.1f} with the per-worker reference driver"
    )
    assert production <= 12, production


def test_stream_sample_makes_the_same_calls_at_any_input_size():
    """No per-tuple interpreter work is left in Stream-Sample: one
    ``parallel_stream_sample`` makes as many interpreter calls at 20,000
    keys per side as at 1,000 (J = 8, band 2, a 500-tuple output sample,
    so every worker's reservoir fills): 481 and 481, with the jobs in key
    order (586 while job 3 searched).  The ``heapq`` reservoirs made one
    push or replace per offered tuple: 2,393 and 12,603 calls.  ``-s``
    prints them."""
    calls = {}
    for per_side in (1_000, 20_000):
        data = np.random.default_rng(4)
        keys1, keys2 = (
            data.integers(0, per_side, per_side).astype(np.float64) for _ in range(2)
        )
        arguments = (keys1, keys2, BandJoinCondition(beta=2.0), 500, 8)
        parallel_stream_sample(*arguments, np.random.default_rng(0))  # numpy's caches warm
        _, calls[per_side] = interpreter_calls(
            parallel_stream_sample, *arguments, np.random.default_rng(0)
        )
    print("Stream-Sample: " + ", ".join(f"{per:,} keys/side {calls[per]} calls" for per in calls))
    assert calls[1_000] == calls[20_000]


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


# ----------------------------------------------------------------------
# One sort per relation: Stream-Sample fed stage 1's sorted relations
# ----------------------------------------------------------------------
#: Keys the sorted path must read as ``np.unique`` does: a small integer
#: domain (many duplicates), zeros of both signs, the infinities and a
#: huge key.  No NaN: a relation holding one is never sampled whole.
sorted_path_keys = st.lists(
    st.one_of(
        st.integers(min_value=-6, max_value=12).map(float),
        st.sampled_from([-0.0, 0.0, np.inf, -np.inf, 1e300, 0.5]),
    ),
    max_size=80,
).map(lambda values: np.array(values, dtype=np.float64))


def _stage_one_sort(keys: np.ndarray, seed: int) -> np.ndarray:
    """``keys`` as stage 1 sorts them: a permutation (the whole-relation
    draw), sorted in place -- equal keys, and so the two zeros, in the
    order that sort leaves them."""
    sample = np.random.default_rng(seed).permutation(keys)
    sample.sort()
    return sample


def _same_but_zero_signs(ours: np.ndarray, expected: np.ndarray) -> None:
    """Equal as values, and bit for bit wherever the value is not zero."""
    np.testing.assert_array_equal(ours, expected)
    differ = ours.view(np.int64) != expected.view(np.int64)
    assert (ours[differ] == 0).all()


@settings(max_examples=300, deadline=None)
@given(seed=seeds, keys=sorted_path_keys.filter(len))
def test_a_sorted_relation_gives_np_uniques_distinct_keys_and_inverse(seed, keys):
    """One compare of neighbours in the sorted relation gives ``np.unique``'s
    distinct keys (a zero's sign aside) and, as the d2equi prefix, the
    running sum of its counts bit for bit; a left search of every key among
    them is its inverse."""
    distinct, prefix = _distinct_sorted(_stage_one_sort(keys, seed))
    expected, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    _same_but_zero_signs(distinct, expected)
    assert prefix.dtype == np.int64
    assert prefix.tobytes() == np.concatenate([[0], np.cumsum(counts)]).tobytes()
    assert np.diff(prefix).tobytes() == counts.tobytes()
    searched = native.search(distinct, keys, False)
    assert searched.tobytes() == inverse.astype(np.int64).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=seeds,
    workers=st.sampled_from([1, 2, 5, 12]),
    keys1=sorted_path_keys,
    keys2=sorted_path_keys,
    condition=conditions,
    size=st.sampled_from([0, 3, 40]),
)
@example(  # zeros of both signs on both sides: the one difference the path may make
    seed=1, workers=2, keys1=np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
    keys2=np.array([-0.0, 0.0, 0.0, 2.0, -0.0]), condition=EquiJoinCondition(), size=40,
)
def test_stream_sample_fed_sorted_relations_is_the_np_unique_path(
    seed, workers, keys1, keys2, condition, size
):
    """Stage 1's sorted relations in, the ``np.unique`` path's answer out:
    ``m``, the four stats lists and the generator state bit for bit, and the
    output pairs as values -- an R2 key of a pair is a distinct key, so a
    zero may come out with the other sign."""
    histograms = {}
    if len(keys1) and len(keys2):
        histograms = {
            "histogram1": build_equidepth_histogram(np.sort(keys1), 4, len(keys1)),
            "histogram2": build_equidepth_histogram(np.sort(keys2), 4, len(keys2)),
        }
    arguments = (keys1, keys2, condition, size, workers)
    rng, reference_rng = _twin_generators(seed)
    sample, stats = parallel_stream_sample(
        *arguments, rng, **histograms,
        sorted1=_stage_one_sort(keys1, seed), sorted2=_stage_one_sort(keys2, seed + 1),
    )
    expected, expected_stats = parallel_stream_sample(*arguments, reference_rng, **histograms)
    assert sample.total_output == expected.total_output
    assert stats == expected_stats
    assert _same_state(rng, reference_rng)
    assert sample.pairs.shape == expected.pairs.shape
    _same_but_zero_signs(sample.pairs, expected.pairs)


def _recorded_builds(monkeypatch, keys1, keys2, config=None, rewrite=None):
    """Build a histogram, recording what the build hands Stream-Sample.

    ``rewrite(sorted1, sorted2)`` may replace the sorted relations first.
    Returns the histogram, the generator after it, the sorted arguments and
    the output sample.
    """
    seen = {}
    driver = histogram_module.parallel_stream_sample

    def recorded(*args, sorted1=None, sorted2=None, **kwargs):
        if rewrite is not None:
            sorted1, sorted2 = rewrite(sorted1, sorted2)
        seen["sorted"] = (sorted1, sorted2)
        seen["sample"], stats = driver(*args, sorted1=sorted1, sorted2=sorted2, **kwargs)
        return seen["sample"], stats

    monkeypatch.setattr(histogram_module, "parallel_stream_sample", recorded)
    rng = np.random.default_rng(11)
    histogram = histogram_module.build_equi_weight_histogram(
        keys1, keys2, BandJoinCondition(beta=1.0), 4, WeightFunction(1.0, 0.2),
        config=config, rng=rng,
    )
    monkeypatch.undo()
    return histogram, rng, seen["sorted"], seen["sample"]


def test_a_build_hands_stream_sample_its_sample_only_when_it_is_the_relation(monkeypatch):
    """A whole NaN-free relation's sample is that relation sorted, and goes
    in; a relation with a NaN (never drawn, so sampled short) or one larger
    than the sample takes the ``np.unique`` path."""
    data = np.random.default_rng(2)
    keys1, keys2 = (data.integers(0, 500, 2_000).astype(np.float64) for _ in range(2))
    _, _, (sorted1, sorted2), _ = _recorded_builds(monkeypatch, keys1, keys2)
    assert sorted1.tobytes() == np.sort(keys1).tobytes()
    assert sorted2.tobytes() == np.sort(keys2).tobytes()

    with_nan = keys1.copy()
    with_nan[7] = np.nan
    _, _, (sorted1, sorted2), _ = _recorded_builds(monkeypatch, with_nan, keys2)
    assert sorted1 is None and sorted2.tobytes() == np.sort(keys2).tobytes()

    # n_s = 8 draws 4 n_s ln n ~ 243 keys of each 2,000.
    small = EWHConfig(sample_matrix_size=8)
    _, _, (sorted1, sorted2), _ = _recorded_builds(monkeypatch, keys1, keys2, small)
    assert sorted1 is None and sorted2 is None


def test_a_zeros_sign_in_the_sorted_sample_reaches_no_plan(monkeypatch):
    """Keys are only compared, never read as bits, so the sign a distinct
    zero keeps cannot move a plan: the ``np.unique`` path, the sorted path
    and the sorted path with every zero's sign flipped build the same
    boundaries, sample matrix, regions and estimate and leave the generator
    in the same state -- while the flipped run's output pairs do differ in
    their zeros' bits."""

    def flipped(*relations):
        flips = []
        for keys in relations:
            keys = keys.copy()
            zero = keys == 0
            keys[zero] = -keys[zero]
            flips.append(keys)
        return flips

    data = np.random.default_rng(6)
    keys1, keys2 = (data.integers(-4, 5, 1_500).astype(np.float64) for _ in range(2))
    for keys in (keys1, keys2):
        keys[::3] *= -1.0  # a third of the zeros become -0.0
    builds = [
        _recorded_builds(monkeypatch, keys1, keys2, rewrite=lambda *_: (None, None)),
        _recorded_builds(monkeypatch, keys1, keys2),
        _recorded_builds(monkeypatch, keys1, keys2, rewrite=flipped),
    ]
    plans = []
    for histogram, rng, _, _ in builds:
        grid = histogram.sample_matrix.grid
        plans.append((
            [array.tobytes() for array in (
                histogram.mc_row_boundaries, histogram.mc_col_boundaries,
                histogram.sample_matrix.row_boundaries, histogram.sample_matrix.col_boundaries,
                grid.entry_ptr, grid.entry_col, grid.entry_value, grid.run_lo, grid.run_hi,
            )],
            histogram.grid_regions, float(histogram.estimated_max_weight).hex(),
            histogram.total_output, histogram.sampling_stats, rng.bit_generator.state,
        ))
    assert plans[0] == plans[1] == plans[2]
    assert builds[1][2][0] is not None  # the sorted runs took the sorted path
    sorted_pairs, flipped_pairs = builds[1][3].pairs, builds[2][3].pairs
    _same_but_zero_signs(flipped_pairs, sorted_pairs)
    assert flipped_pairs.tobytes() != sorted_pairs.tobytes()
