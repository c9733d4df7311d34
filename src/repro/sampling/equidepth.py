"""Approximate equi-depth histograms built from random samples.

Following Chaudhuri, Motwani and Narasayya ("Random sampling for histogram
construction: how much is enough?"), an approximate equi-depth histogram with
``b`` buckets over a relation of ``n`` tuples is built by sorting a uniform
sample of size ``Theta(b log n)`` and placing bucket boundaries at the sample
quantiles.  The histogram's bucket boundaries over both relations form the
grid that defines the sample matrix MS, and the same structure (with many
more buckets) is the whole of the statistics used by the M-Bucket (CSI)
baseline.

The quantiles are the inverted-CDF ones (``np.quantile``'s
``method="inverted_cdf"``), read by index from the one sorted sample: the
sample already holds every boundary, so no partition or interpolation runs.
A NaN key joins nothing and has no place in the key order, so a histogram
refuses NaN by name -- in the sample it is built from and in its boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.joins import native

__all__ = [
    "EquiDepthHistogram",
    "bucket_index",
    "build_equidepth_histogram",
    "open_ends",
    "sample_joining_keys",
]


@dataclass(frozen=True)
class EquiDepthHistogram:
    """An equi-depth histogram over a single join-key attribute.

    Attributes
    ----------
    boundaries:
        Array of ``num_buckets + 1`` ascending key values.  Bucket ``i``
        covers the half-open key range ``[boundaries[i], boundaries[i+1])``,
        except the last bucket which is closed on both sides.
    num_tuples:
        Size of the relation the histogram describes (not of the sample).
    """

    boundaries: np.ndarray
    num_tuples: int

    def __post_init__(self) -> None:
        b = np.asarray(self.boundaries, dtype=np.float64)
        if b.ndim != 1 or len(b) < 2:
            raise ValueError("boundaries must be a 1-D array of length >= 2")
        if np.isnan(b).any():
            at = int(np.flatnonzero(np.isnan(b))[0])
            raise ValueError(f"boundaries must not be NaN: boundary {at} of {len(b)} is")
        if np.any(b[1:] < b[:-1]):  # compared, not subtracted: -inf / inf ends are fine
            raise ValueError("boundaries must be non-decreasing")
        object.__setattr__(self, "boundaries", b)

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return len(self.boundaries) - 1

    @property
    def expected_bucket_size(self) -> float:
        """Expected number of tuples per bucket (``n / num_buckets``)."""
        return self.num_tuples / self.num_buckets


def bucket_index(boundaries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The bucket (grid row or column) of each key over ascending ``boundaries``.

    Key ``k`` lands in bucket ``i`` when ``boundaries[i] <= k <
    boundaries[i + 1]``, clamped into ``0 .. len(boundaries) - 2``: keys below
    the first boundary fall in the first bucket, and keys at or above the last
    one (and NaN) in the last.  Keys are compared as float64.  The sample
    matrix, Stream-Sample's per-bucket counts and grid routing all place keys
    by this one rule, one :func:`repro.joins.native.search` each (a strided
    key column, such as an output sample's, is copied first).
    """
    boundaries = np.require(boundaries, np.float64, "CA")
    index = native.search(boundaries, np.require(keys, np.float64, "CA"), True) - 1
    return np.clip(index, 0, len(boundaries) - 2)


def open_ends(boundaries: np.ndarray) -> np.ndarray:
    """A float64 copy of ``boundaries`` with the outermost two opened to -inf / +inf.

    :func:`bucket_index` clamps keys outside the sampled range into the first
    or last bucket, so those buckets' key ranges extend to infinity -- in the
    candidate mask and in the routed plan.
    """
    opened = np.asarray(boundaries, dtype=np.float64).copy()
    opened[0], opened[-1] = -np.inf, np.inf
    return opened


def sample_joining_keys(
    keys: np.ndarray, size: int, rng: np.random.Generator
) -> np.ndarray:
    """A uniform sample, without replacement, of ``min(size, n)`` of the ``n`` non-NaN keys.

    A NaN joins nothing, so it is never sampled: no histogram built from the
    sample can get a NaN boundary.  A NaN-free array costs one reduction
    and is sampled as it stands -- no copy, the same draws.  The sample is
    a new array, which a caller may sort in place.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if len(keys) and np.isnan(keys.min()):
        keys = keys[~np.isnan(keys)]
    return rng.choice(keys, size=min(size, len(keys)), replace=False)


def build_equidepth_histogram(
    sample_keys: np.ndarray, num_buckets: int, num_tuples: int
) -> EquiDepthHistogram:
    """Build an approximate equi-depth histogram from a uniform key sample.

    Parameters
    ----------
    sample_keys:
        Uniform random sample of the relation's join keys.  A sorted one
        is read as it stands (a plan build sorts each draw once, in place,
        and may build from it twice); any other is sorted first.
    num_buckets:
        Number of buckets; clamped to the number of distinct quantile points
        the sample can support.
    num_tuples:
        Size of the full relation (used for the expected bucket size).
    """
    sample_keys = np.asarray(sample_keys, dtype=np.float64)
    if not (sample_keys[1:] >= sample_keys[:-1]).all():  # NaN compares false: sorted last
        sample_keys = np.sort(sample_keys)
    if len(sample_keys) == 0:
        raise ValueError("cannot build a histogram from an empty sample")
    if num_buckets <= 0:
        raise ValueError("num_buckets must be positive")
    if num_tuples <= 0:
        raise ValueError("num_tuples must be positive")
    if np.isnan(sample_keys[-1]):  # NaN sorts last
        raise ValueError(
            "cannot build a histogram from a sample holding NaN: a NaN key "
            "joins nothing, so sample the non-NaN keys (sample_joining_keys)"
        )
    num_buckets = min(num_buckets, len(sample_keys))
    boundaries = sample_keys[_inverted_cdf_indexes(len(sample_keys), num_buckets)]
    return EquiDepthHistogram(boundaries=boundaries, num_tuples=num_tuples)


def _inverted_cdf_indexes(n: int, num_buckets: int) -> np.ndarray:
    """Indexes of the ``num_buckets + 1`` even inverted-CDF quantiles in a sorted sample.

    Of ``n`` sorted keys, quantile ``q`` is the ``ceil(n q)``-th smallest:
    index ``n q - 1``, rounded up unless it is whole, and clipped into the
    sample -- what ``np.quantile(sorted_sample, q, method="inverted_cdf")``
    selects, in its float arithmetic, without the partition.  The indexes
    never descend, so the boundaries read at them ascend; ``q = 0`` and
    ``q = 1`` read the smallest and largest key, so the histogram spans the
    sampled key range.
    """
    index = n * np.linspace(0.0, 1.0, num_buckets + 1) - 1
    previous = np.floor(index)
    index = np.where(index == previous, previous, previous + 1).astype(np.intp)
    return np.clip(index, 0, n - 1)
