"""The compiled kernel as a CPython extension module: references and the GIL.

``repro.joins.native``'s entry points take numpy arrays as Python objects
and check them in C, so the classic C-API faults are theirs to avoid: a
reference kept on an exit -- above all on an error exit, which the
differential tests only reach once each -- keeps an array alive for
ever, and a loop run with the GIL held stalls every other thread for as
long as it runs.  Here every refusal of a ``fold`` runs many times under
``tracemalloc``, and a thread keeps time while a large merge runs.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.joins import native

#: Keys per run: large enough that a leaked array shows in the trace.
SIZE = 1_000


def _half(keys, readers=None, cut="whole", cascade=None, starts=None, stops=None, needles=None,
          rule=("band", 1)):
    """A half of two machines over ``keys``: four needles, the group read whole or sliced."""
    needles = np.arange(4.0) if needles is None else needles
    starts = np.array([0, 2], dtype=np.int64) if starts is None else starts
    stops = np.array([3, 4], dtype=np.int64) if stops is None else stops
    readers = np.arange(2, dtype=np.int64) if readers is None else readers
    if cut == "whole":
        cut = None
    elif cut is None:
        cut = (np.array([2.5, 4.5]), np.array([2, 0], dtype=np.int64),
               np.array([1, 3], dtype=np.int64))
    runs = [] if keys is None else [(keys, None)]
    return (needles, rule, starts, stops, [(runs, readers, cut, cascade)])


def _folds():
    """One fold per case, its arrays made fresh: the calls it accepts and every refusal."""
    keys = np.arange(float(SIZE))
    ints = np.arange(SIZE, dtype=np.int64)
    out = np.zeros(2, dtype=np.int64)
    frozen = out.copy()
    frozen.flags.writeable = False
    cancelled = ([(keys, None), (keys, -np.arange(SIZE + 1, dtype=np.int64))], None)
    merge = ([(keys, None), (keys + 0.5, None)], keys[: SIZE // 2])
    append = ([(keys, None)], keys[:4] + 0.25)  # 1,000 keys stay a run of their own
    return [
        # Accepted: a cascade and a count, a sliced count, an append, everything cancelled.
        (None, [merge], [_half(keys, cascade=0)], out),
        (None, [], [_half(keys, cut=None)], out),
        (None, [append], [_half(None, cascade=0, rule=("band_inverse", 0.5))], out),
        (None, [cancelled], [], out),
        # Refused: the output.
        (TypeError, [], [_half(keys)], out.astype(np.int32)),
        (ValueError, [], [_half(keys)], frozen),
        (TypeError, [], [], [0, 0]),
        # Refused: a cascade.
        (TypeError, [([(keys.astype(np.float32), None)], None)], [], out),
        (TypeError, [([(keys, None), (ints, None)], None)], [], out),
        (TypeError, [([(keys, None)], ints)], [], out),
        (ValueError, [([(keys, None), (keys, np.arange(SIZE))], None)], [], out),
        (ValueError, [([(keys, None), (keys[::2], None)], None)], [], out),
        (ValueError, [([], None)], [], out),
        (ValueError, [([(keys,)], None)], [], out),
        (ValueError, [[(keys, None)]], [], out),
        (TypeError, [([(list(keys), None)], None)], [], out),
        (TypeError, 7, [], out),
        # Refused: a half, after a cascade that is fine.
        (TypeError, [merge], [_half(keys, needles=np.arange(4, dtype=np.float32))], out),
        (ValueError, [merge], [_half(keys, rule=("=", 0))], out),
        (ValueError, [merge], [_half(keys, rule=("band", np.nan))], out),
        (ValueError, [merge], [_half(keys, rule=("band", -1))], out),
        (ValueError, [merge], [_half(keys, needles=ints[:4], rule=("band", 0.5))], out),
        (TypeError, [merge], [_half(keys, rule=("band", None))], out),
        (TypeError, [merge], [_half(keys, starts=np.array([0, 2], dtype=np.int32))], out),
        (ValueError, [merge], [_half(keys, stops=np.array([4], dtype=np.int64))], out),
        (ValueError, [merge], [_half(keys, stops=np.array([3, 5], dtype=np.int64))], out),
        (TypeError, [merge], [_half(keys, readers=np.arange(2, dtype=np.int32))], out),
        (ValueError, [merge], [_half(keys, readers=np.array([0, 2], dtype=np.int64))], out),
        (ValueError, [merge], [_half(keys, cascade=1)], out),
        (ValueError, [merge], [_half(keys[::2])], out),
        (ValueError, [merge], [_half(keys, cut=(np.ones(2), np.array([5, 0]), np.array([1, 3])))], out),
        (TypeError, [merge], [_half(keys, cut=(np.ones(2), np.ones(2), np.ones(2)))], out),
        (ValueError, [merge], [_half(keys, cut=(np.ones(2), np.zeros(1, np.int64), np.zeros(1, np.int64)))], out),
        (ValueError, [merge], [(keys,)], out),
    ]


def test_folds_and_their_refusals_hold_no_memory():
    """``tracemalloc`` stays flat over 2,000 folds, every refusal path among them."""

    def run(calls: int) -> None:
        done = 0
        while done < calls:
            for error, cascades, halves, out in _folds():
                if error is None:
                    native.fold(cascades, halves, out)
                else:
                    with pytest.raises(error):
                        native.fold(cascades, halves, out)
                done += 1

    tracemalloc.start()
    try:
        run(200)  # warm every cache a first call fills
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(2_000)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # A leaked run of SIZE float64 keys is 8 KB; one case leaking once per
    # round would leave about 70 of them.
    assert grown < 64 * 1024, f"{grown} bytes still held after 2,000 folds"


def test_a_large_merge_releases_the_gil():
    """A Python thread keeps running while one large ``fold`` merge runs.

    The thread stamps the clock between short sleeps.  Had the kernel held
    the GIL, it could stamp only before the call or after it; it stamps in
    the middle half of the call.
    """
    keys = np.arange(1_500_000, dtype=np.float64)
    runs = [(keys, None), (keys + 0.5, None)]  # tens of milliseconds, no scratch
    stamps: "list[float]" = []
    stop = threading.Event()

    def stamp() -> None:
        while not stop.is_set():
            stamps.append(time.perf_counter())
            time.sleep(0.0005)

    thread = threading.Thread(target=stamp)
    thread.start()
    try:
        while not stamps:
            time.sleep(0.001)
        started = time.perf_counter()
        ((merged,),) = native.fold([(runs, None)], [], np.zeros(0, dtype=np.int64))
        ended = time.perf_counter()
    finally:
        stop.set()
        thread.join()
    assert merged[0].size == 2 * keys.size
    quarter = (ended - started) / 4
    inside = [t for t in stamps if started + quarter < t < ended - quarter]
    assert inside, f"no stamp in the middle of a {1e3 * (ended - started):.1f} ms merge"
