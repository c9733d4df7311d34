"""Dataset generators used by the paper's evaluation.

* :mod:`repro.data.zipf` -- generic Zipf-skewed and uniform key generators.
  The TPC-H skew generator of Chaudhuri & Narasayya draws attribute values
  with Zipf(z) multiplicities; the ``z`` knob here matches the paper's
  ``z = 0.25`` setting.
* :mod:`repro.data.tpch` -- a scaled-down TPC-H-like ORDERS table containing
  exactly the columns the evaluation joins touch.
* :mod:`repro.data.xdataset` -- the synthetic X dataset (two segments in
  80/20 proportion whose small segments produce most of the output).
"""

from repro import lazy_exports

_EXPORTS = {
    "zipf_keys": "repro.data.zipf",
    "zipf_multiplicities": "repro.data.zipf",
    "uniform_keys": "repro.data.zipf",
    "TPCHConfig": "repro.data.tpch",
    "generate_orders": "repro.data.tpch",
    "XDatasetConfig": "repro.data.xdataset",
    "generate_x_dataset": "repro.data.xdataset",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
