"""The synthetic X dataset of the paper's evaluation (section VI-A).

Each of the two relations R1 and R2 has two independently generated segments
whose sizes are in 20/80 proportion:

* the *first* (small) segment has ``x`` tuples with keys uniform in
  ``[0, x/6]``;
* the *second* (large) segment has ``y = 4x`` tuples with keys uniform in
  ``[2y, 6y]``.

Because both small segments live in a narrow low-key range while the large
segments are spread over a wide high-key range, joining the small segments
produces the majority of the output: a textbook case of join product skew
with only moderate redistribution skew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.zipf import uniform_keys
from repro.joins.relations import Relation

__all__ = ["XDatasetConfig", "generate_x_dataset"]


@dataclass(frozen=True)
class XDatasetConfig:
    """Configuration of the X dataset generator.

    Parameters
    ----------
    small_segment_size:
        The paper's ``x``: number of tuples in the first (small) segment of
        each relation.  The second segment has ``4 * x`` tuples, so each
        relation has ``5 * x`` tuples in total.
    seed:
        Seed of the deterministic random generator.
    """

    small_segment_size: int
    seed: int = 11

    def __post_init__(self) -> None:
        if self.small_segment_size < 6:
            raise ValueError("small_segment_size must be at least 6")

    @property
    def large_segment_size(self) -> int:
        """Tuples in the second segment (``4 * x``)."""
        return 4 * self.small_segment_size


def _generate_relation(name: str, config: XDatasetConfig,
                       rng: np.random.Generator) -> Relation:
    x = config.small_segment_size
    y = config.large_segment_size
    small = uniform_keys(x, 0, x // 6, rng)
    large = uniform_keys(y, 2 * y, 6 * y, rng)
    keys = np.concatenate([small, large])
    rng.shuffle(keys)
    return Relation.from_keys(name, keys)


def generate_x_dataset(config: XDatasetConfig) -> tuple[Relation, Relation]:
    """Generate the two independently generated relations (R1, R2)."""
    rng = np.random.default_rng(config.seed)
    r1 = _generate_relation("x_r1", config, rng)
    r2 = _generate_relation("x_r2", config, rng)
    return r1, r2
