"""Static plan estimation: pricing an admitted query before it runs.

An admission decision is binary; capacity planning needs numbers.  Given a
:class:`~repro.query.compiler.CompiledPlan`, :func:`estimate_plan` prices
the query under stated assumptions (batch size, horizon, key domain) using
the engine's *own* machinery rather than a parallel cost model:

* the **resident-state bound** comes from driving the plan's real
  :class:`~repro.streaming.window.WindowPolicy` — ``evictions`` over a
  synthetic arrival schedule gives the steady-state live-set size, and
  ``trim_point`` gives how much arrival history the engine may compact;
* the **match probability** comes from the plan's real
  :class:`~repro.joins.conditions.JoinCondition` —
  ``count_matches_per_key`` over a seeded uniform key sample (the same
  searchsorted joinable-set machinery Stream-Sample and the EWH histogram
  build on);
* the **per-batch probe cost** prices the incremental counting path:
  ``O(new · log(state))`` searchsorted probes per side.

The result is a :class:`PlanReport` — what a capacity dashboard or the
future ``repro.service`` front door shows next to an admitted query.
Everything is deterministic: one seed, one report.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from repro.query.compiler import CompiledPlan
from repro.streaming.arrivals import ArrivalLog

__all__ = [
    "PlanReport",
    "estimate_plan",
    "format_plan_report",
    "plan_report_to_json",
]


@dataclass(frozen=True)
class PlanReport:
    """The static price of one compiled query, under stated assumptions.

    Attributes
    ----------
    condition, window, policy:
        Reporting names of the plan's engine objects.
    key_dtype:
        The spec's declared key dtype.
    batch_size, horizon_batches, key_domain_size:
        The assumptions the estimate was priced under.
    state_bound_tuples:
        Peak live tuples per side over the horizon — the resident-state
        bound a worker must provision for.  Equals
        ``batch_size * horizon_batches`` when nothing expires.
    state_growth:
        ``"O(window)"`` when the window bounds state, ``"O(stream)"``
        when it grows with the horizon.
    safe_trim_point:
        Arrival-index prefix compacted at the horizon
        (:meth:`~repro.streaming.window.WindowPolicy.trim_point`):
        history the engine does not even store.
    match_probability:
        Estimated probability that a random key pair satisfies the
        condition (seeded uniform sample over the key domain).
    expected_output_per_batch:
        Expected join-output tuples per processed batch: new arrivals on
        each side against the other side's resident state, plus the
        batch-vs-batch term.
    probe_cost_per_batch:
        Binary-search comparisons per batch on the incremental counting
        path, ``2 · batch_size · log2(state_bound)``.
    """

    condition: str
    window: str
    policy: str
    key_dtype: str
    batch_size: int
    horizon_batches: int
    key_domain_size: int
    state_bound_tuples: int
    state_growth: str
    safe_trim_point: int
    match_probability: float
    expected_output_per_batch: float
    probe_cost_per_batch: float


def _steady_state(
    plan: CompiledPlan,
    batch_size: int,
    horizon_batches: int,
    seed: int,
) -> "tuple[int, int]":
    """Drive the plan's window policy; return (peak live, trim point).

    One side is simulated (the policies treat sides independently and
    identically) on the engine's own bookkeeping, an
    :class:`~repro.streaming.arrivals.ArrivalLog`: ``batch_size`` arrivals
    land per batch, the live count is read before the window expires the
    batch's share (:meth:`~repro.streaming.arrivals.ArrivalLog.expire`, a
    seeded generator for a decay window's draws), and the log trims after
    each batch as the engine's does, so its base at the horizon is the trim
    point.  Under an unbounded window nothing is live-tracked or trimmed:
    every arrival is resident and the trim point is 0.
    """
    window = plan.window
    rng = np.random.default_rng(seed)
    log = ArrivalLog(windowed=not window.is_unbounded)
    arrivals = np.zeros(batch_size)
    peak = 0
    for _ in range(horizon_batches):
        log.append(arrivals)
        if log.windowed:
            peak = max(peak, log.live_entries)
            log.expire(window, rng)
            log.trim(window)
    return (peak if log.windowed else log.retained), log.base


def _match_probability(
    plan: CompiledPlan,
    key_domain_size: int,
    sample_size: int,
    seed: int,
) -> float:
    """Estimate P(random key pair joins) via the condition's own counter.

    Two *independent* seeded uniform int64 samples stand in for the two
    sides (independent so a key never pairs with itself — self-matches
    would bias sparse equi/band estimates upward);
    ``count_matches_per_key`` (searchsorted over the sorted sample — the
    joinable-set-size primitive) gives each probe key's joinable count,
    and the mean over the sample size is the pairwise match probability.
    """
    rng = np.random.default_rng(seed)
    probes = rng.integers(0, key_domain_size, size=sample_size, dtype=np.int64)
    state = rng.integers(0, key_domain_size, size=sample_size, dtype=np.int64)
    state.sort()
    counts = plan.condition.count_matches_per_key(probes, state)
    return float(counts.mean() / sample_size)


def estimate_plan(
    plan: CompiledPlan,
    *,
    batch_size: int = 512,
    horizon_batches: int = 64,
    key_domain_size: int = 100_000,
    sample_size: int = 2048,
    seed: int = 0,
) -> PlanReport:
    """Price a compiled plan; deterministic for a given seed.

    Parameters
    ----------
    plan:
        The compiled query.
    batch_size:
        Assumed arrivals per side per micro-batch.
    horizon_batches:
        Batches to simulate the window over (the steady-state horizon).
    key_domain_size:
        Assumed uniform key domain ``[0, key_domain_size)``.
    sample_size:
        Keys sampled for the selectivity estimate.
    seed:
        Seed for the window simulation and the key sample.
    """
    if batch_size < 1 or horizon_batches < 1:
        raise ValueError("batch_size and horizon_batches must be >= 1")
    peak, trim = _steady_state(plan, batch_size, horizon_batches, seed)
    probability = _match_probability(plan, key_domain_size, sample_size, seed)
    bounded = not plan.window.is_unbounded
    # New arrivals of each side probe the other side's resident state,
    # plus the two fresh batches against each other.
    expected_output = probability * (
        2.0 * batch_size * peak + batch_size * batch_size
    )
    probe_cost = 2.0 * batch_size * math.log2(max(peak, 2))
    return PlanReport(
        condition=plan.condition.name,
        window=plan.window.name,
        policy=plan.policy.name,
        key_dtype=plan.spec.key_dtype,
        batch_size=batch_size,
        horizon_batches=horizon_batches,
        key_domain_size=key_domain_size,
        state_bound_tuples=peak,
        state_growth="O(window)" if bounded else "O(stream)",
        safe_trim_point=trim,
        match_probability=probability,
        expected_output_per_batch=expected_output,
        probe_cost_per_batch=probe_cost,
    )


def format_plan_report(report: PlanReport) -> str:
    """Render a plan report for humans, one fact per line."""
    rows = [
        f"condition:        {report.condition}",
        f"window:           {report.window}",
        f"policy:           {report.policy}",
        f"key dtype:        {report.key_dtype}",
        (
            f"assumptions:      {report.batch_size} tuples/side/batch, "
            f"{report.horizon_batches} batches, uniform keys in "
            f"[0, {report.key_domain_size})"
        ),
        (
            f"resident state:   <= {report.state_bound_tuples} tuples/side "
            f"({report.state_growth})"
        ),
        f"safe trim point:  {report.safe_trim_point} arrivals compacted",
        f"match prob.:      {report.match_probability:.3e}",
        f"est. output:      {report.expected_output_per_batch:.1f} tuples/batch",
        f"probe cost:       {report.probe_cost_per_batch:.0f} comparisons/batch",
    ]
    return "\n".join(rows)


def plan_report_to_json(report: PlanReport) -> str:
    """Render a plan report as deterministic JSON (a CI artifact shape)."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"
