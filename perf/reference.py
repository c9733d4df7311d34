"""The harness's own exact counters.

Everything the benchmark checks is checked against these, and they share no
code with the program under test: nothing here imports ``repro`` (in
particular not ``repro.joins.local``).  All benchmark keys are
integer-valued float64, so a band join ``|a - b| <= beta`` can be counted
exactly from value histograms and prefix sums, without enumerating pairs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["band_join_count", "stream_batch_deltas", "nearest_rank"]


def band_join_count(keys1: np.ndarray, keys2: np.ndarray, beta: float) -> int:
    """Exact ``|{(a, b) : |a - b| <= beta}|`` over two key arrays.

    For every distinct R1 value the matching R2 multiplicity is a difference
    of two prefix sums over R2's value histogram.
    """
    values1, counts1 = np.unique(keys1, return_counts=True)
    values2, counts2 = np.unique(keys2, return_counts=True)
    prefix2 = np.concatenate([[0], np.cumsum(counts2)])
    lo = np.searchsorted(values2, values1 - beta, side="left")
    hi = np.searchsorted(values2, values1 + beta, side="right")
    return int(np.dot(counts1, prefix2[hi] - prefix2[lo]))


def _band_sums(hist: np.ndarray, beta: int) -> np.ndarray:
    """``out[v] = sum(hist[u] for |u - v| <= beta)`` via one prefix sum."""
    size = len(hist)
    prefix = np.concatenate([[0], np.cumsum(hist)])
    values = np.arange(size)
    hi = np.minimum(values + beta + 1, size)
    lo = np.maximum(values - beta, 0)
    return prefix[hi] - prefix[lo]


def stream_batch_deltas(
    batches: "list[tuple[np.ndarray, np.ndarray]]",
    beta: int,
    window_batches: "int | None",
) -> "list[int]":
    """The output each micro-batch adds to a (windowed) streaming band join.

    ``batches[t]`` is ``(keys1, keys2)`` of batch ``t``; keys are integers of
    one bounded domain.  A pair exists iff the later tuple arrives while the
    earlier one is live.  Under ``batches:w`` eviction runs after a batch is
    counted and keeps the last ``w`` batches, so the tuples of batch ``b``
    meet the arrivals of batches ``b .. b + w``; ``None`` never evicts, and
    the deltas then sum to the full-history join size.

    Batch ``t`` adds its R1 arrivals against every live R2 tuple (its own
    batch included) plus its R2 arrivals against the *older* live R1 tuples,
    so no pair is counted twice.
    """
    lowest = min(min(keys1.min(), keys2.min()) for keys1, keys2 in batches)
    highest = max(max(keys1.max(), keys2.max()) for keys1, keys2 in batches)
    num_values = int(highest - lowest) + 1
    live1 = np.zeros(num_values, dtype=np.int64)
    live2 = np.zeros(num_values, dtype=np.int64)
    hists: "list[tuple[np.ndarray, np.ndarray]]" = []
    deltas: "list[int]" = []
    for position, (keys1, keys2) in enumerate(batches):
        new1 = np.bincount((keys1 - lowest).astype(np.int64), minlength=num_values)
        new2 = np.bincount((keys2 - lowest).astype(np.int64), minlength=num_values)
        delta = np.dot(new1, _band_sums(live2 + new2, beta))
        delta += np.dot(new2, _band_sums(live1, beta))
        deltas.append(int(delta))
        live1 += new1
        live2 += new2
        if window_batches is not None:
            hists.append((new1, new2))
            expired = position - window_batches
            if expired >= 0:
                old1, old2 = hists[expired]
                live1 -= old1
                live2 -= old2
                hists[expired] = (None, None)
    return deltas


def nearest_rank(sorted_values: np.ndarray, percent: float) -> float:
    """Nearest-rank percentile: the smallest value with >= percent% at or below."""
    rank = int(np.ceil(percent / 100.0 * len(sorted_values)))
    return float(sorted_values[max(rank, 1) - 1])
