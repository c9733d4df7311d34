"""The four benchmark workloads: what they are and how their inputs are made.

Inputs are generated here with numpy alone; the program under test receives
key arrays and micro-batches, never a seed.  All keys are integer-valued
float64 so :mod:`reference` can count outputs exactly.

``passes`` (the K of the measuring protocol) is a constant per workload.  It
is never derived from elapsed time or from a command-line option, so fast
code gets no more samples than slow code and any two runs of a workload use
the same estimator.

What ``--seed`` does: every workload draws its key *shapes* from the constant
``DATA_SEED`` and ``--seed`` translates the whole key domain by an integer
offset.  A band join, the planner's sample and every plan built from it are
translation-invariant, so two seeds give different arrays, the same amount of
work and exactly the same plan: ``load_imbalance`` and ``model_cost`` repeat
to the last digit across seeds, and what differs between two runs is the box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "WORKLOADS",
    "DATA_SEED",
    "ENGINE_SEED",
    "WEIGHTS",
    "BatchSpec",
    "StreamSpec",
    "warm_up_only",
    "quick",
    "key_offset",
    "generate_batch_inputs",
    "generate_stream_inputs",
]

#: Seed of the key shapes (see the module docstring).
DATA_SEED = 14

#: Seed of the program's own generators (operator sampling, engine routing).
#: A constant: identical inputs then do identical work in every pass.
ENGINE_SEED = 14

#: The paper's regression for pure band joins: w_i = 1, w_o = 0.2.
WEIGHTS = (1.0, 0.2)


@dataclass(frozen=True)
class BatchSpec:
    """CSIO batch jobs; one op = one ``CSIOOperator(machines).run``.

    ``jobs`` lists ``(shape, machines)``; two jobs of the same shape and
    machine count get independent draws of the shape.
    """

    name: str
    passes: int
    jobs: "tuple[tuple[str, int], ...]"
    scale: float = 1.0
    kind: str = "batch"


@dataclass(frozen=True)
class StreamSpec:
    """A micro-batched stream through one engine; one op = one batch.

    Keys are Zipf(``skew``) over ``num_values`` values; the rank -> value
    permutation is redrawn every ``redraw_every`` batches (never if ``None``).
    """

    name: str
    passes: int
    num_batches: int
    per_side: int
    skew: float
    num_values: int
    machines: int
    window_batches: "int | None"
    adaptive: bool = False
    redraw_every: "int | None" = None
    beta: int = 1
    warmup_batches: int = 16
    kind: str = "stream"


#: Tuples per side of each batch shape, and its band width.
BATCH_SHAPES = {
    "sparse": (20_000, 2),
    "xband": (20_000, 3),
    "zipf": (8_000, 1),
}

WORKLOADS = {
    "batch_plan": BatchSpec(
        name="batch_plan",
        passes=4,
        jobs=(
            ("sparse", 8), ("sparse", 12),
            ("xband", 8), ("xband", 12),
            ("zipf", 8), ("zipf", 12),
            ("zipf", 16), ("zipf", 16),
        ),
    ),
    "stream_steady": StreamSpec(
        name="stream_steady",
        passes=6,
        num_batches=640,
        per_side=1_000,
        skew=0.8,
        num_values=2_000,
        machines=8,
        window_batches=16,
    ),
    "stream_drift": StreamSpec(
        name="stream_drift",
        passes=4,
        num_batches=640,
        per_side=1_000,
        skew=0.9,
        num_values=2_000,
        machines=12,
        window_batches=16,
        adaptive=True,
        redraw_every=80,
    ),
    "stream_growth": StreamSpec(
        name="stream_growth",
        passes=5,
        num_batches=384,
        per_side=2_000,
        skew=0.5,
        num_values=20_000,
        machines=8,
        window_batches=None,
    ),
}


def warm_up_only(spec):
    """The part of a workload a cold start touches; its inputs are a prefix of the full ones."""
    if spec.kind == "batch":
        return spec
    return replace(spec, num_batches=spec.warmup_batches)


def quick(spec):
    """The same workload at about 1/8 size with K=2 (smoke runs only).

    A plan's time follows its machine count, not its input, so the batch jobs
    also run on half their machines.
    """
    if spec.kind == "batch":
        jobs = tuple((shape, machines // 2) for shape, machines in spec.jobs)
        return replace(spec, passes=2, scale=0.125, jobs=jobs)
    timed = spec.num_batches - spec.warmup_batches
    return replace(
        spec,
        passes=2,
        num_batches=spec.warmup_batches + timed // 8,
        redraw_every=spec.redraw_every and spec.redraw_every // 4,
    )


# ----------------------------------------------------------------------
# Input generation (numpy only)
# ----------------------------------------------------------------------
def key_offset(seed: int) -> float:
    """The integer by which ``--seed`` translates a workload's key domain."""
    return float(np.random.default_rng(seed).integers(0, 1 << 20))


def _zipf_ranks(rng, skew: float, num_values: int, size: int) -> np.ndarray:
    """``size`` ranks in ``[0, num_values)`` with P(rank r) ~ 1 / (r + 1)^skew."""
    weights = 1.0 / np.arange(1, num_values + 1) ** skew
    return rng.choice(num_values, size=size, p=weights / weights.sum())


def _batch_keys(rng, shape: str, size: int) -> "tuple[np.ndarray, np.ndarray]":
    """The two key arrays of one batch dataset."""
    if shape == "sparse":
        # Input-dominated: distinct keys spread over 4x their number, so a
        # band of 2 finds about one partner per tuple.
        domain = np.arange(4 * size)
        sides = [rng.choice(domain, size=size, replace=False) for _ in range(2)]
    elif shape == "xband":
        # Cost-balanced, X-dataset-like: 20% of each side is packed into a
        # narrow hot segment that produces most of the output.
        hot, cold = size // 5, size - size // 5
        sides = []
        for _ in range(2):
            keys = np.concatenate([
                rng.integers(0, hot // 6 + 1, size=hot),
                rng.integers(2 * cold, 6 * cold + 1, size=cold),
            ])
            rng.shuffle(keys)
            sides.append(keys)
    elif shape == "zipf":
        # Output-dominated: Zipf(0.5) over size/4 values, rank = value, so a
        # tuple finds about 12 partners and the heavy values are neighbours.
        sides = [_zipf_ranks(rng, 0.5, max(8, size // 4), size) for _ in range(2)]
    else:
        raise ValueError(f"unknown batch shape {shape!r}")
    return sides[0].astype(np.float64), sides[1].astype(np.float64)


def generate_batch_inputs(spec: BatchSpec, seed: int) -> "list[dict]":
    """One dict per job: ``label``, ``keys1``, ``keys2``, ``beta``, ``machines``."""
    offset = key_offset(seed)
    jobs = []
    for job_id, (shape, machines) in enumerate(spec.jobs):
        size, beta = BATCH_SHAPES[shape]
        rng = np.random.default_rng([DATA_SEED, job_id])
        keys1, keys2 = _batch_keys(rng, shape, max(64, int(size * spec.scale)))
        jobs.append({
            "label": f"{shape}/J{machines}#{job_id}",
            "keys1": keys1 + offset,
            "keys2": keys2 + offset,
            "beta": beta,
            "machines": machines,
        })
    return jobs


def generate_stream_inputs(
    spec: StreamSpec, seed: int
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """``(keys1, keys2)`` per micro-batch, in arrival order."""
    offset = key_offset(seed)
    rng = np.random.default_rng([DATA_SEED, 1])
    values = rng.permutation(spec.num_values)
    batches = []
    for position in range(spec.num_batches):
        if position and spec.redraw_every and position % spec.redraw_every == 0:
            values = rng.permutation(spec.num_values)
        batches.append(tuple(
            values[_zipf_ranks(rng, spec.skew, spec.num_values, spec.per_side)]
            .astype(np.float64) + offset
            for _ in range(2)
        ))
    return batches
