"""Tests of the public API surface: exports resolve and the quickstart runs."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


PACKAGES = [
    "repro",
    "repro.core",
    "repro.joins",
    "repro.sampling",
    "repro.data",
    "repro.partitioning",
    "repro.engine",
    "repro.workloads",
    "repro.bench",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_no_duplicate_exports():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exports = list(package.__all__)
        assert len(exports) == len(set(exports)), f"duplicates in {package_name}.__all__"


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def test_import_repro_leaves_the_process_machinery_unimported():
    """``import repro`` is most of a short run's set-up time: the worker and
    pool machinery is imported by the constructors that need it, not before."""
    source = Path(repro.__file__).resolve().parents[1]
    probe = (
        "import sys, repro; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_readme_quickstart_flow():
    """The README quickstart (scaled down) runs end to end."""
    workload = repro.make_bcb(beta=3, small_segment_size=600, seed=11)
    totals = {}
    for operator_cls in (repro.CIOperator, repro.CSIOperator, repro.CSIOOperator):
        result = operator_cls(num_machines=4).run(
            workload.keys1, workload.keys2, workload.condition, workload.weight_fn,
            rng=np.random.default_rng(0),
        )
        assert result.output_correct
        totals[result.scheme] = result.total_cost
    assert set(totals) == {"CI", "CSI", "CSIO"}
    assert totals["CSIO"] <= 1.2 * min(totals.values())


def test_top_level_convenience_reexports():
    assert repro.BandJoinCondition(beta=1.0).matches(1.0, 2.0)
    assert repro.WeightFunction(1.0, 0.2).weight(10, 10) == pytest.approx(12.0)
    assert repro.BAND_JOIN_WEIGHTS.output_cost == pytest.approx(0.2)
