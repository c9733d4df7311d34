"""Property: a SQL-compiled plan is the hand-constructed plan.

The ISSUE's acceptance bar for the compiler: for any generated join spec,
compiling the SQL text and hand-constructing the same plan out of
``make_condition`` / ``make_window`` must drive the streaming engine to
*bit-identical* output — same per-batch counts, same final state, same
assignment history.  Hypothesis generates the spec space (condition kind,
band width, window, key streams); :func:`assert_equivalent_runs` is the
bit-identity oracle the engine's own property tests use.

A dedicated non-hypothesis case pins the exact-integer path: a band width
of ``2**53 + 1`` (not representable as float) must survive SQL text →
literal → condition with the odd last bit intact.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightFunction
from repro.joins.conditions import make_condition
from repro.query import compile_sql
from repro.streaming.engine import StreamingJoinEngine
from repro.streaming.source import ArrayStreamSource
from streaming_harness import assert_equivalent_runs
from repro.streaming.window import make_window

UNIT = WeightFunction(1.0, 1.0)

keys = st.lists(
    st.integers(min_value=0, max_value=40), min_size=8, max_size=40
)
window_specs = st.sampled_from(
    [None, "batches:2", "batches:5", "tuples:16", "count:30"]
)


def run_engine(condition, window, keys1, keys2, num_batches):
    """One deterministic engine run over the given key streams."""
    engine = StreamingJoinEngine(
        2,
        condition,
        UNIT,
        window=window,
        sample_capacity=256,
        seed=0,
    )
    source = ArrayStreamSource(
        np.asarray(keys1, dtype=np.int64),
        np.asarray(keys2, dtype=np.int64),
        num_batches,
    )
    return engine.run(source)


def assert_roundtrip(sql, kind, keys1, keys2, num_batches, window_spec, **kwargs):
    """Compile ``sql`` and compare against the hand-constructed plan."""
    plan = compile_sql(sql)
    condition = make_condition(kind, **kwargs)
    window = make_window(window_spec) if window_spec else None
    assert plan.condition == condition
    compiled = run_engine(plan.condition, plan.window, keys1, keys2, num_batches)
    handmade = run_engine(condition, window, keys1, keys2, num_batches)
    assert_equivalent_runs(compiled, handmade)


@settings(max_examples=20, deadline=None)
@given(keys1=keys, keys2=keys, num_batches=st.integers(2, 4), spec=window_specs)
def test_equi_roundtrip(keys1, keys2, num_batches, spec):
    sql = "SELECT COUNT(*) FROM r1 JOIN r2 ON r1.key = r2.key"
    if spec:
        sql += f" WINDOW '{spec}'"
    assert_roundtrip(sql, "equi", keys1, keys2, num_batches, spec)


@settings(max_examples=20, deadline=None)
@given(
    keys1=keys,
    keys2=keys,
    num_batches=st.integers(2, 4),
    spec=window_specs,
    beta=st.integers(0, 6),
)
def test_band_roundtrip(keys1, keys2, num_batches, spec, beta):
    sql = f"SELECT COUNT(*) FROM r1 JOIN r2 ON ABS(r1.key - r2.key) <= {beta}"
    if spec:
        sql += f" WINDOW '{spec}'"
    assert_roundtrip(sql, "band", keys1, keys2, num_batches, spec, beta=beta)


@settings(max_examples=15, deadline=None)
@given(
    keys1=keys,
    keys2=keys,
    num_batches=st.integers(2, 4),
    op=st.sampled_from(["<", "<=", ">", ">="]),
)
def test_inequality_roundtrip(keys1, keys2, num_batches, op):
    # A bounded window keeps the spec admissible (QRY002).
    sql = f"SELECT COUNT(*) FROM r1 JOIN r2 ON r1.key {op} r2.key WINDOW 'batches:3'"
    assert_roundtrip(
        sql, "inequality", keys1, keys2, num_batches, "batches:3", op=op
    )


def test_band_width_beyond_float_precision_roundtrips_exactly():
    beta = 2**53 + 1
    base = 2**60
    # keys straddle the band edge: base vs base + beta (inside, exactly)
    # and base + beta + 1 (outside by one) — float rounding of beta would
    # merge these cases.
    keys1 = [base, base, base]
    keys2 = [base + beta, base + beta + 1, base - beta]
    sql = f"SELECT COUNT(*) FROM r1 JOIN r2 ON ABS(r1.key - r2.key) <= {beta}"
    assert_roundtrip(sql, "band", keys1, keys2, 1, None, beta=beta)
    plan = compile_sql(sql)
    inside = plan.condition.count_matches_per_key(
        np.asarray(keys1, dtype=np.int64),
        np.sort(np.asarray(keys2, dtype=np.int64)),
    )
    assert inside.tolist() == [2, 2, 2]


def test_composite_roundtrip():
    sql = (
        "SELECT COUNT(*) FROM a JOIN b ON a.ck = b.ck "
        "AND ABS(a.p - b.p) <= 1 WINDOW 'batches:3' SCALE 64 DOMAIN 0 TO 8"
    )
    rng = np.random.default_rng(3)
    # composite packs key = ck * scale + priority; synthesise packed keys
    keys1 = (rng.integers(0, 5, 24) * 64 + rng.integers(0, 8, 24)).tolist()
    keys2 = (rng.integers(0, 5, 24) * 64 + rng.integers(0, 8, 24)).tolist()
    assert_roundtrip(
        sql,
        "composite",
        keys1,
        keys2,
        3,
        "batches:3",
        beta=1,
        scale=64.0,
        band_key_min=0.0,
        band_key_max=8.0,
    )
