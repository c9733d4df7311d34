"""Reference join: every pair tested, the ground truth for materialised pairs.

Test-only.  :func:`nested_loop_join` is the quadratic join
``repro.joins.local`` shipped as its reference implementation; the tests
hold :func:`repro.joins.local.join_output_pairs` and the exact join-matrix
model (``tests/reference_matrix.py``) to it.
"""

from __future__ import annotations

import numpy as np

from repro.joins.conditions import JoinCondition


def nested_loop_join(
    keys1: np.ndarray, keys2: np.ndarray, condition: JoinCondition
) -> list[tuple[float, float]]:
    """Join two key arrays by testing every pair, in row-major order.

    Quadratic (one broadcast ``matches_many`` over the whole join matrix);
    only suitable for small inputs.
    """
    keys1 = np.asarray(keys1, dtype=np.float64)
    keys2 = np.asarray(keys2, dtype=np.float64)
    rows, cols = np.nonzero(condition.matches_many(keys1[:, None], keys2[None, :]))
    return list(zip(keys1[rows].tolist(), keys2[cols].tolist()))
