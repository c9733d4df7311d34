"""repro -- Load Balancing and Skew Resilience for Parallel Joins (ICDE 2016).

A reproduction of the equi-weight histogram (EWH / CSIO) partitioning scheme
of Vitorovic, Elseidy and Koch, together with every substrate it needs: the
1-Bucket and M-Bucket baselines, the parallel Stream-Sample output sampler,
the sampling/coarsening/MonotonicBSP histogram pipeline, a shared-nothing
execution engine, the evaluation datasets and workloads, and a benchmark
harness that regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro import CIOperator, CSIOperator, CSIOOperator, make_bcb

    workload = make_bcb(beta=3, small_segment_size=4000)
    for operator_cls in (CIOperator, CSIOperator, CSIOOperator):
        result = operator_cls(num_machines=16).run(
            workload.keys1, workload.keys2, workload.condition,
            workload.weight_fn,
        )
        print(result.scheme, f"total cost {result.total_cost:,.0f}")

Every package exports lazily (:func:`lazy_exports`): ``import repro`` loads
no submodule, and a name's defining module is imported on first access, so a
run compiles only the code it executes.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: "dict[str, str]"
) -> "tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]":
    """A package's ``__all__`` and its PEP 562 ``__getattr__`` / ``__dir__``.

    ``exports`` is the package's one export table: each public name, mapped
    to the module that defines it, in ``__all__`` order.  ``__getattr__``
    imports a name's module on first access and binds the name on the
    package, so later reads are plain attribute reads; any other name
    resolves to the package's submodule of that name
    (``repro.sampling.stream_sample``), or raises ``AttributeError`` naming
    the package.  Call it as the last statement of the package's
    ``__init__``::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in exports:
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> "list[str]":
        return sorted({*namespace, *exports})

    return list(exports), __getattr__, __dir__


__version__ = "1.0.0"

_EXPORTS = {
    "__version__": __name__,
    # Join conditions and relations.
    "BandJoinCondition": "repro.joins.conditions",
    "EquiJoinCondition": "repro.joins.conditions",
    "InequalityJoinCondition": "repro.joins.conditions",
    "InequalityOp": "repro.joins.conditions",
    "CompositeEquiBandCondition": "repro.joins.conditions",
    "Relation": "repro.joins.relations",
    # Cost model.
    "WeightFunction": "repro.core.weights",
    "BAND_JOIN_WEIGHTS": "repro.core.weights",
    "EQUI_BAND_JOIN_WEIGHTS": "repro.core.weights",
    # The equi-weight histogram.
    "EWHConfig": "repro.core.histogram",
    "EquiWeightHistogram": "repro.core.histogram",
    "build_equi_weight_histogram": "repro.core.histogram",
    # Partitioning schemes.
    "build_one_bucket_partitioning": "repro.partitioning.one_bucket",
    "build_m_bucket_partitioning": "repro.partitioning.m_bucket",
    "MBucketConfig": "repro.partitioning.m_bucket",
    "build_ewh_partitioning": "repro.partitioning.ewh",
    # Engine.
    "run_partitioned_join": "repro.engine.cluster",
    "run_join_multiprocess": "repro.engine.executor",
    "CIOperator": "repro.engine.operators",
    "CSIOperator": "repro.engine.operators",
    "CSIOOperator": "repro.engine.operators",
    "AdaptiveOperator": "repro.engine.adaptive",
    "run_heterogeneous_join": "repro.engine.heterogeneous",
    "MultiwayJoinStep": "repro.joins.multiway",
    "run_multiway_join": "repro.joins.multiway",
    # Streaming subsystem.
    "MicroBatch": "repro.streaming.source",
    "StreamSource": "repro.streaming.source",
    "ArrayStreamSource": "repro.streaming.source",
    "DriftingZipfSource": "repro.streaming.source",
    "IncrementalHistogram": "repro.streaming.incremental",
    "DriftDetector": "repro.streaming.drift",
    "BatchMetrics": "repro.streaming.metrics",
    "StreamRunResult": "repro.streaming.metrics",
    "StaticOneBucketPolicy": "repro.streaming.policies",
    "StaticEWHPolicy": "repro.streaming.policies",
    "DriftAdaptiveEWHPolicy": "repro.streaming.policies",
    "WindowPolicy": "repro.streaming.window",
    "UnboundedWindow": "repro.streaming.window",
    "SlidingWindow": "repro.streaming.window",
    "ExponentialDecayWindow": "repro.streaming.window",
    "make_window": "repro.streaming.window",
    "StreamingJoinEngine": "repro.streaming.engine",
    "compare_streaming_schemes": "repro.streaming.engine",
    # Workloads.
    "make_bicd": "repro.workloads.definitions",
    "make_bcb": "repro.workloads.definitions",
    "make_beocd": "repro.workloads.definitions",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
