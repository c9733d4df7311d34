"""The calibration probe: how slow is this box *right now*?

This box runs 1.2x to 3x slower for minutes at a time and flips between slow
and fast within a second (see README, "The noise that forced the protocol").
A kernel is a fixed piece of work that belongs to the harness and never
changes.  There are three, because contention does not slow all code alike
(in one slow phase the interpreter kernel ran 1.4x slower and the memory
kernel 2.7x), and the program is a mixture of all three kinds of work:

* ``interpreter`` -- a memoised recursion over tuple keys, like the planner's
  tiling search;
* ``numpy`` -- ``searchsorted`` / ``insert`` / ``isin`` on a sorted array that
  fits the cache, like the streaming state layer under a window;
* ``memory`` -- the same on an array that does not fit it, like unbounded
  state and like the planner's memo tables.

One *probe* runs each kernel once; its value is the mean of the three
``seconds / reference seconds`` ratios, the box's *slowdown* at that moment.
Every pass takes a probe at regular slots between ops, and every time the
benchmark reports is divided by the mean of the probes on either side of it,
so the numbers read as if taken on a box that always runs the kernels in
their reference time: reference seconds (``ref_s``), not wall-clock seconds.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_SECONDS", "probe", "local_slowdown"]

#: Kernel times on the reference box (taken on this box in its usual phase:
#: medians of 25 probes in each of 10 fresh processes).  They are constants of
#: the benchmark, never re-measured: they define the units ``ref_s`` and
#: ``ref_ms`` every calibrated time is reported in, and a kernel weighs in the
#: mixture by seconds / reference seconds.
REFERENCE_SECONDS = {"interpreter": 0.0062, "numpy": 0.0065, "memory": 0.0097}

_SMALL = np.sort(np.random.default_rng(0).random(20_000))
_LARGE = np.sort(np.random.default_rng(1).random(400_000))
_NEW = np.random.default_rng(2).random(2_000)


def _interpreter() -> int:
    memo: dict = {}

    def solve(lo: int, hi: int) -> int:
        key = (lo, hi)
        known = memo.get(key)
        if known is not None:
            return known
        if hi - lo < 2:
            memo[key] = 1
            return 1
        best = 1 << 60
        for mid in range(lo + 1, hi, max(1, (hi - lo) // 6)):
            cost = solve(lo, mid) + solve(mid, hi)
            if cost < best:
                best = cost
        memo[key] = best
        return best

    return solve(0, 72)


def _insert_and_evict(state: np.ndarray, new: np.ndarray, rounds: int) -> np.ndarray:
    """Merge ``new`` into sorted ``state`` and drop it again, ``rounds`` times."""
    positions = np.arange(len(state) + len(new))
    size = len(state)
    for _ in range(rounds):
        where = np.searchsorted(state, new)
        merged = np.insert(state, where, new)
        state = merged[~np.isin(positions, where)][:size]
    return state


def _numpy() -> np.ndarray:
    return _insert_and_evict(_SMALL, _NEW[:250], 28)


def _memory() -> np.ndarray:
    return _insert_and_evict(_LARGE, _NEW, 1)


_KERNELS = {"interpreter": _interpreter, "numpy": _numpy, "memory": _memory}


def probe(rounds: int = 1) -> float:
    """Run every kernel ``rounds`` times; return the box's slowdown right now."""
    ratios = []
    for _ in range(rounds):
        for name, work in _KERNELS.items():
            start = perf_counter()
            work()
            ratios.append((perf_counter() - start) / REFERENCE_SECONDS[name])
    return sum(ratios) / len(ratios)


def local_slowdown(probes: "list[float]", num_ops: int, every: int) -> np.ndarray:
    """Per op, the mean of the probes taken before and after its block of ops.

    ``probes[s]`` was taken before op ``s * every``; the last one after the
    last op.
    """
    taken = np.asarray(probes)
    block = np.arange(num_ops) // every
    return (taken[block] + taken[block + 1]) / 2.0
