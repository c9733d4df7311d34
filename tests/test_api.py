"""Tests of the public API surface: exports resolve and the quickstart runs."""

from __future__ import annotations

import ast
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
    "repro.streaming",
    "repro.obs",
    "repro.bench",
    "repro.query",
    "repro.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error_naming_the_package(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=f"'{package_name}' has no attribute 'no_such_name'"):
        getattr(package, "no_such_name")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["StreamingJoinEngine"] is repro.streaming.StreamingJoinEngine


LAZY_PACKAGES = [
    name for name in PACKAGES if name not in ("repro.bench", "repro.query", "repro.analysis")
]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_an_export_is_the_object_its_module_defines(package_name):
    """Every export is its defining module's object, even after every
    defining module has been imported (and so bound on its package)."""
    package = importlib.import_module(package_name)
    exports = package._EXPORTS
    modules = {name: importlib.import_module(module) for name, module in exports.items()}
    for name, module in modules.items():
        assert getattr(package, name) is getattr(module, name), f"{package_name}.{name}"


def test_a_top_level_export_is_its_subpackages_export():
    assert repro.StreamingJoinEngine is repro.streaming.StreamingJoinEngine
    assert repro.streaming.RegionJoinResult is repro.engine.RegionJoinResult
    assert repro.sampling.parallel_stream_sample is repro.core.histogram.parallel_stream_sample


def test_no_duplicate_exports():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exports = list(package.__all__)
        assert len(exports) == len(set(exports)), f"duplicates in {package_name}.__all__"


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def _loaded_by(statement: str) -> "set[str]":
    """The modules a fresh interpreter holds after running ``statement``."""
    source = Path(repro.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(source)},
        capture_output=True, text=True, check=True,
    )
    return set(result.stdout.split())


def _within(loaded: "set[str]", *names: str) -> "set[str]":
    """The loaded modules that are one of ``names`` or inside one of them."""
    return {m for m in loaded if any(m == n or m.startswith(n + ".") for n in names)}


def test_import_repro_leaves_the_process_machinery_unimported():
    """``import repro`` loads no submodule and no process machinery.

    Eager package imports compiled 64 modules (14,445 source lines) on every
    entry point: ~120 ms of ``-X importtime`` after numpy on a 2-core Xeon
    with no bytecode cache, most of a short run's set-up time.  With lazy
    exports ``import repro`` takes ~1 ms, the CSIO batch path loads 32
    modules (5,183 lines) and the stream engine 44 (10,842); the worker and
    pool machinery is imported by the constructors that need it."""
    loaded = _loaded_by("import repro")
    assert not _within(loaded, "multiprocessing", "concurrent.futures")
    assert _within(loaded, "repro") == {"repro"}


def test_the_batch_operator_loads_no_streaming_module():
    """Neither importing nor running batch execution loads ``repro.streaming``.

    A CSIO join and a 1-Bucket ``run_partitioned_join`` run in the child,
    so an import made inside the batch route or count is caught too.
    """
    loaded = _loaded_by(
        "import numpy as np\n"
        "from repro import BandJoinCondition, CSIOOperator, WeightFunction\n"
        "from repro import build_one_bucket_partitioning, run_partitioned_join\n"
        "rng = np.random.default_rng(0)\n"
        "keys1, keys2 = rng.integers(0, 50, 200), rng.integers(0, 50, 200)\n"
        "condition = BandJoinCondition(beta=1.0)\n"
        "result = CSIOOperator(num_machines=4).run(\n"
        "    keys1, keys2, condition, WeightFunction(1.0, 0.2), rng=rng\n"
        ")\n"
        "assert result.output_correct\n"
        "batch = run_partitioned_join(build_one_bucket_partitioning(4), keys1, keys2, condition)\n"
        "assert batch.total_output > 0"
    )
    assert {"repro.engine.cluster", "repro.partitioning.one_bucket"} <= loaded
    assert not _within(loaded, "repro.streaming")


def test_a_plan_build_loads_no_numpy_ma():
    """A bare ``np.unique`` imports ``numpy.ma`` on first use (numpy 2.4's
    ``_unique1d`` asks ``np.ma.is_masked``), ~13.5 ms of a cold start.  No
    plan build calls one: neither a ``CSIOOperator.run`` (one whose stage 1
    samples each relation whole and one that samples it short) nor a
    ``stream_steady``-shaped warm-up (J = 8, a 16-batch window, 1,000 Zipf
    keys per side and batch, the initial build inside) loads it."""
    batch = _loaded_by(
        "import numpy as np\n"
        "from repro import BandJoinCondition, CSIOOperator, EWHConfig, WeightFunction\n"
        "rng = np.random.default_rng(0)\n"
        "keys1, keys2 = rng.integers(0, 500, 3_000), rng.integers(0, 500, 3_000)\n"
        "for config in (None, EWHConfig(sample_matrix_size=16)):\n"
        "    result = CSIOOperator(num_machines=4, config=config).run(\n"
        "        keys1, keys2, BandJoinCondition(beta=1.0), WeightFunction(1.0, 0.2), rng=rng\n"
        "    )\n"
        "    assert result.output_correct"
    )
    assert "repro.core.histogram" in batch
    assert "numpy.ma" not in batch
    stream = _loaded_by(
        "import numpy as np\n"
        "from repro import BandJoinCondition, MicroBatch, StaticEWHPolicy, StreamingJoinEngine\n"
        "from repro import WeightFunction\n"
        "rng = np.random.default_rng(0)\n"
        "mass = 1.0 / np.arange(1, 2_001) ** 0.8\n"
        "engine = StreamingJoinEngine(8, BandJoinCondition(beta=1.0), WeightFunction(1.0, 0.2),\n"
        "                             policy=StaticEWHPolicy(), window='batches:16', seed=0)\n"
        "engine.start()\n"
        "for index in range(20):\n"
        "    keys1, keys2 = (rng.choice(2_000, 1_000, p=mass / mass.sum()).astype(float)\n"
        "                    for _ in range(2))\n"
        "    engine.process_batch(MicroBatch(index, keys1, keys2))\n"
        "engine.close()"
    )
    assert "repro.core.histogram" in stream
    assert "numpy.ma" not in stream


def test_neither_a_plan_build_nor_the_engine_loads_the_baseline_bsp():
    """The baseline BSP (Table III, the ablation) takes no part in a plan:
    a CSIO build runs MonotonicBSP, where the tiling result type lives, and
    neither it nor the stream engine's import loads ``repro.core.bsp``."""
    build = _loaded_by(
        "import numpy as np\n"
        "from repro import BandJoinCondition, CSIOOperator, WeightFunction\n"
        "rng = np.random.default_rng(0)\n"
        "keys1, keys2 = rng.integers(0, 500, 3_000), rng.integers(0, 500, 3_000)\n"
        "result = CSIOOperator(num_machines=4).run(\n"
        "    keys1, keys2, BandJoinCondition(beta=1.0), WeightFunction(1.0, 0.2), rng=rng\n"
        ")\n"
        "assert result.output_correct"
    )
    assert "repro.core.monotonic_bsp" in build
    assert "repro.core.bsp" not in build
    assert "repro.core.bsp" not in _loaded_by("from repro import StreamingJoinEngine")


def test_the_stream_engine_loads_only_what_it_runs():
    loaded = _loaded_by("from repro import StreamingJoinEngine")
    assert not _within(
        loaded,
        "repro.engine.operators", "repro.joins.multiway", "repro.workloads",
        "repro.data", "repro.partitioning.one_bucket", "repro.partitioning.ewh",
        "repro.streaming.pipeline", "repro.streaming.shm", "secrets", "hmac",
    )


def test_one_class_holds_the_efraimidis_spirakis_heap():
    """The package's one E-S heap: exactly one expression in ``src/repro``
    reads ``native.offer``, a call inside ``WeightedReservoir``; only its
    module writes the heap's arrays; the stream histogram's reservoir is
    one, and the single-offer API is gone."""
    from repro.sampling import reservoir
    from repro.streaming.incremental import DecayedReservoir

    root = Path(repro.__file__).parent
    reads, writers = [], set()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {
            id(inner): node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for inner in ast.walk(node)
        }
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Store) and node.attr in reservoir.WeightedReservoir._HEAP:
                writers.add(name)
            if node.attr == "offer" and getattr(node.value, "id", None) == "native":
                reads.append((name, owners.get(id(node)), id(node) in calls))
    assert reads == [("sampling/reservoir.py", "WeightedReservoir", True)]
    assert writers == {"sampling/reservoir.py"}
    assert issubclass(DecayedReservoir, reservoir.WeightedReservoir)
    gone = ("add", "add_with_priority", "items", "weights", "keys", "__setstate__")
    assert not [name for name in gone if hasattr(reservoir.WeightedReservoir, name)]
    assert not [name for name in gone if name in vars(DecayedReservoir)]
    assert not hasattr(reservoir, "weighted_sample_wor")


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
