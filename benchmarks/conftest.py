"""Shared fixtures of the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation
section (section VI).  The regenerated rows/series are printed and also
written to ``benchmarks/results/<name>.txt`` so they survive pytest's output
capturing; EXPERIMENTS.md records the paper-vs-measured comparison based on
those files.

Scale knobs (environment variables):

``REPRO_BENCH_SCALE``
    Multiplier on the default laptop-scale workload sizes (default ``1.0``).
``REPRO_BENCH_MACHINES``
    The number of machines ``J`` used by the single-J experiments
    (default ``16``; the paper uses 32 on a physical cluster).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from bench_utils import bench_machines

# Fault-injection factory fixtures, shared with the unit-test suite: the
# recovery benchmark kills a backend mid-stream through the same wrappers.
# The autouse leak check fails a benchmark that leaves one of its arenas'
# shared-memory segments behind, as it fails a unit test.
from streaming_harness import (  # noqa: F401
    arena_tokens,
    crashing_backend,
    flaky_backend,
    no_leaked_shm_segments,
)

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def machines() -> int:
    """``J`` for the single-J experiments."""
    return bench_machines()


@pytest.fixture(scope="session")
def report():
    """Persist a regenerated table to ``benchmarks/results`` and echo it.

    ``live`` is the same table with its measured seconds filled in: it is
    echoed instead of ``body`` and never written, so the committed file is
    byte-stable (``measured_seconds(..., golden=True)`` renders ``-``)
    while the exact timings stay readable in the benchmark output.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, title: str, body: str, live: "str | None" = None) -> None:
        header = f"{title}\n{'=' * len(title)}\n"
        (RESULTS_DIR / f"{name}.txt").write_text(f"{header}{body}\n")
        print(f"\n{header}{live if live is not None else body}\n")

    return _write
