"""Cost-model calibration: fitting ``w_i`` and ``w_o`` by linear regression.

The paper determines the per-tuple input and output costs by regressing the
measured per-machine processing time against the number of input and output
tuples each machine handled over several benchmark runs (their cluster yields
``w_i = 1, w_o = 0.2`` for band joins and ``w_o = 0.3`` for equi/band joins).
This module reproduces that procedure: collect ``(input, output, seconds)``
samples -- e.g. from the per-machine seconds of
:func:`repro.engine.executor.run_join_multiprocess` (each machine's count on
its sticky worker process) or from single-machine timed joins -- and solve
the least-squares problem with a non-negativity constraint.  Coefficients
are conventionally normalised so that ``w_i = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.weights import WeightFunction
from repro.joins.conditions import JoinCondition
from repro.joins.local import count_join_output
from repro.obs.clock import perf_counter

__all__ = ["CalibrationSample", "calibrate_cost_weights", "collect_calibration_samples"]


@dataclass(frozen=True)
class CalibrationSample:
    """One observation for the regression: a machine's work and its duration."""

    input_tuples: float
    output_tuples: float
    seconds: float


def calibrate_cost_weights(
    samples: list[CalibrationSample], normalise: bool = True
) -> WeightFunction:
    """Fit ``w_i`` and ``w_o`` to the samples by non-negative least squares.

    Parameters
    ----------
    samples:
        At least two observations with non-identical (input, output) pairs.
    normalise:
        When true (the default, matching the paper's convention) the fitted
        coefficients are rescaled so ``w_i = 1``.
    """
    if len(samples) < 2:
        raise ValueError("calibration needs at least two samples")
    design = np.array(
        [[s.input_tuples, s.output_tuples] for s in samples], dtype=np.float64
    )
    target = np.array([s.seconds for s in samples], dtype=np.float64)
    coefficients, *_ = np.linalg.lstsq(design, target, rcond=None)
    # The physical costs cannot be negative; clip and fall back to a tiny
    # positive epsilon so the weight function stays valid.
    input_cost = max(float(coefficients[0]), 0.0)
    output_cost = max(float(coefficients[1]), 0.0)
    if input_cost == 0.0 and output_cost == 0.0:
        raise ValueError("regression produced a degenerate (all-zero) cost model")
    if normalise and input_cost > 0:
        output_cost /= input_cost
        input_cost = 1.0
    return WeightFunction(input_cost=input_cost, output_cost=output_cost)


def collect_calibration_samples(
    keys1: np.ndarray,
    keys2: np.ndarray,
    condition: JoinCondition,
    fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    rng: np.random.Generator | None = None,
) -> list[CalibrationSample]:
    """Time single-machine joins on growing subsets to produce regression samples.

    Each fraction of the inputs is joined once on the local machine; the
    measured seconds together with the subset's input and output sizes form
    one :class:`CalibrationSample`.
    """
    rng = rng or np.random.default_rng(0)
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    samples: list[CalibrationSample] = []
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError("fractions must lie in (0, 1]")
        take1 = max(1, int(len(keys1) * fraction))
        take2 = max(1, int(len(keys2) * fraction))
        subset1 = rng.choice(keys1, size=take1, replace=False)
        subset2 = rng.choice(keys2, size=take2, replace=False)
        start = perf_counter()
        output = count_join_output(subset1, subset2, condition)
        seconds = perf_counter() - start
        samples.append(
            CalibrationSample(
                input_tuples=take1 + take2,
                output_tuples=output,
                seconds=seconds,
            )
        )
    return samples
