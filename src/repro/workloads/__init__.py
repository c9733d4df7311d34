"""The evaluation workloads of the paper (Table IV).

* ``B_ICD`` -- an input-cost dominated band join over TPC-H ORDERS:
  ``|O1.orderkey - 10 * O2.custkey| <= 2``.
* ``B_CB(beta)`` -- a cost-balanced band join over the synthetic X dataset,
  with band widths 1, 2, 3, 4, 8 and 16.
* ``BE_OCD`` -- an output-cost dominated combination of an equality and a
  band condition over TPC-H ORDERS, with selection predicates on order
  priority and total price.

Each factory returns a :class:`~repro.workloads.definitions.JoinWorkload`
holding the two key arrays, the join condition, the cost model the paper's
regression associates with that join class, and lazily computed exact
input/output sizes (the Table IV columns).
"""

from repro import lazy_exports

_EXPORTS = {
    "JoinWorkload": "repro.workloads.definitions",
    "make_bicd": "repro.workloads.definitions",
    "make_bcb": "repro.workloads.definitions",
    "make_beocd": "repro.workloads.definitions",
    "table_iv_workloads": "repro.workloads.definitions",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
