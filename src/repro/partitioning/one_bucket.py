"""1-Bucket (CI): the content-insensitive partitioning scheme.

1-Bucket (Okcan & Riedewald) tiles the *entire* join matrix with a
``rows x cols`` grid of regions, one per machine, regardless of the join
condition.  An incoming R1 tuple picks a random region-grid row and is
shipped to every region in that row (``cols`` copies); an R2 tuple picks a
random column and is shipped to every region in it (``rows`` copies).  Every
output pair is therefore produced by exactly one region -- the intersection
of the chosen row and column -- and, because the choices are random, regions
receive near-identical input and output *in expectation*.

The choice is a counter-based random draw: the ``i``-th output of a
SplitMix64 stream (Steele, Lea & Flood, 2014) seeded by the plan's ``key``
and the side, ``i`` being the tuple's global arrival index.  It reads no
generator state, so routing the same tuples again -- the streaming engine
re-derives each machine's state from its arrival log that way -- makes the
same choices.

The scheme needs no statistics at all (zero stats time), is immune to any
skew, and is output-optimal; its weakness is the heavy input replication,
which the near-square factorisation of J below minimises but cannot avoid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.partitioning.base import Partitioning

__all__ = [
    "machine_grid_shape",
    "OneBucketPartitioning",
    "build_one_bucket_partitioning",
]

#: SplitMix64's increment (the golden ratio in 64-bit fixed point).
_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _splitmix(state: "np.ndarray | int") -> "np.ndarray | int":
    """SplitMix64's output function; uint64 arrays wrap, Python ints are masked."""
    masked = isinstance(state, int)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        state = (state ^ (state >> shift)) * multiplier
        if masked:
            state &= _MASK
    return state ^ (state >> 31)


def machine_grid_shape(num_machines: int) -> tuple[int, int]:
    """Factor ``J`` into the region-grid shape ``rows x cols`` minimising replication.

    Replication is ``cols`` copies per R1 tuple plus ``rows`` copies per R2
    tuple, so (for comparable relation sizes) the best factorisation
    minimises ``rows + cols`` -- the factor pair closest to ``sqrt(J)``.
    For J = 32 this gives the paper's 4 x 8 grid.
    """
    if num_machines <= 0:
        raise ValueError("num_machines must be positive")
    best_rows = 1
    for rows in range(1, int(math.isqrt(num_machines)) + 1):
        if num_machines % rows == 0:
            best_rows = rows
    return best_rows, num_machines // best_rows


class OneBucketPartitioning(Partitioning):
    """The randomised 1-Bucket partitioning over a ``rows x cols`` region grid.

    ``key`` seeds the plan's row and column draws (module docstring); two
    plans with the same grid and key route every tuple alike.
    """

    scheme_name = "CI"

    def __init__(self, grid_rows: int, grid_cols: int, key: int = 0) -> None:
        if grid_rows <= 0 or grid_cols <= 0:
            raise ValueError("grid dimensions must be positive")
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        self.key = int(key)

    @property
    def num_regions(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def replication_r1(self) -> int:
        """Copies made of every R1 tuple (one per region-grid column)."""
        return self.grid_cols

    @property
    def replication_r2(self) -> int:
        """Copies made of every R2 tuple (one per region-grid row)."""
        return self.grid_rows

    def _shares(self, side: int, indices: np.ndarray) -> "list[np.ndarray]":
        """Per region, the positions of ``indices`` whose draw picks it.

        An R1 tuple draws one of ``rows`` grid rows and joins every region
        of it; an R2 tuple draws one of ``cols`` columns likewise.
        """
        choices = self.grid_rows if side == 1 else self.grid_cols
        stream = _splitmix((self.key + side * _GAMMA) & _MASK)
        counters = np.asarray(indices).astype(np.uint64) + np.uint64(1)
        drawn = _splitmix(counters * np.uint64(_GAMMA) + np.uint64(stream)) % np.uint64(choices)
        picked = [np.flatnonzero(drawn == choice) for choice in range(choices)]
        if side == 1:
            return [picked[region // self.grid_cols] for region in range(self.num_regions)]
        return [picked[region % self.grid_cols] for region in range(self.num_regions)]

    def assign_r1(self, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        """Route R1 tuples by position: tuple ``i`` has arrival index ``i``."""
        return self._shares(1, np.arange(len(keys)))

    def assign_r2(self, keys: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        """Route R2 tuples by position: tuple ``i`` has arrival index ``i``."""
        return self._shares(2, np.arange(len(keys)))

    sorted_arrivals = Partitioning._sort_then_cut

    def share_groups(self, side: int) -> np.ndarray:
        """A region's grid row (R1) or column (R2): the draw its share is."""
        regions = np.arange(self.num_regions)
        return regions // self.grid_cols if side == 1 else regions % self.grid_cols

    def cut_sorted(self, side, keys, indices, rng):
        """Draw each tuple's row or column from its own arrival index.

        A region's share is a subsequence of the sorted tuples, so it stays
        sorted.
        """
        return [(indices[local], keys[local]) for local in self._shares(side, indices)]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"OneBucketPartitioning(grid={self.grid_rows}x{self.grid_cols})"


def build_one_bucket_partitioning(num_machines: int, key: int = 0) -> OneBucketPartitioning:
    """Build the 1-Bucket partitioning for ``num_machines`` machines.

    ``key`` seeds its draws; a caller holding a generator draws one per
    plan (``rng.integers(2**63)``), so runs under different seeds route
    differently.
    """
    rows, cols = machine_grid_shape(num_machines)
    return OneBucketPartitioning(grid_rows=rows, grid_cols=cols, key=key)
