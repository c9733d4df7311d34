"""Partitioning schemes: 1-Bucket (CI), M-Bucket (CSI) and EWH (CSIO).

Every scheme produces a :class:`~repro.partitioning.base.Partitioning`,
which answers one question for the execution engine: *given the tuples of R1
and R2, which region(s) does each tuple go to?*  The schemes differ in what
they know and therefore how well the resulting regions balance work:

* :mod:`repro.partitioning.one_bucket` -- content-insensitive (CI); regions
  tile the whole join matrix, tuples pick a random row/column.  Output is
  balanced by construction but every tuple is replicated to a full row or
  column of the region grid.
* :mod:`repro.partitioning.m_bucket` -- content-sensitive on input only
  (CSI); an equi-depth grid identifies candidate cells and regions balance
  the *input*, ignoring how much output each candidate cell produces.
* :mod:`repro.partitioning.ewh` -- content-sensitive on input and output
  (CSIO, the paper's contribution); regions come from the equi-weight
  histogram and balance the total work.
"""

from repro import lazy_exports

_EXPORTS = {
    "Partitioning": "repro.partitioning.base",
    "GridRoutedPartitioning": "repro.partitioning.grid_routed",
    "HashRepartitioning": "repro.partitioning.hash_repartition",
    "build_hash_repartitioning": "repro.partitioning.hash_repartition",
    "OneBucketPartitioning": "repro.partitioning.one_bucket",
    "build_one_bucket_partitioning": "repro.partitioning.one_bucket",
    "machine_grid_shape": "repro.partitioning.one_bucket",
    "MBucketConfig": "repro.partitioning.m_bucket",
    "MBucketPartitioning": "repro.partitioning.m_bucket",
    "build_m_bucket_partitioning": "repro.partitioning.m_bucket",
    "EWHPartitioning": "repro.partitioning.ewh",
    "build_ewh_partitioning": "repro.partitioning.ewh",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
