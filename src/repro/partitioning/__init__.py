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

from repro.partitioning.base import Partitioning
from repro.partitioning.ewh import EWHPartitioning, build_ewh_partitioning
from repro.partitioning.grid_routed import GridRoutedPartitioning
from repro.partitioning.hash_repartition import (
    HashRepartitioning,
    build_hash_repartitioning,
)
from repro.partitioning.m_bucket import (
    MBucketConfig,
    MBucketPartitioning,
    build_m_bucket_partitioning,
)
from repro.partitioning.one_bucket import (
    OneBucketPartitioning,
    build_one_bucket_partitioning,
    machine_grid_shape,
)

__all__ = [
    "Partitioning",
    "GridRoutedPartitioning",
    "HashRepartitioning",
    "build_hash_repartitioning",
    "OneBucketPartitioning",
    "build_one_bucket_partitioning",
    "machine_grid_shape",
    "MBucketConfig",
    "MBucketPartitioning",
    "build_m_bucket_partitioning",
    "EWHPartitioning",
    "build_ewh_partitioning",
]
