"""A small column-oriented relation container.

The library does not need a full storage engine: every experiment in the
paper touches a handful of numeric or categorical columns.  :class:`Relation`
stores columns as numpy arrays, supports predicate filtering (the selection
predicates of the BE_OCD join), join-key projection and uniform sampling.
Tuples never materialise as Python objects on the hot paths.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

__all__ = ["Relation"]


class Relation:
    """An in-memory relation stored column-wise.

    Parameters
    ----------
    name:
        Relation name used in reports.
    columns:
        Mapping from column name to a 1-D numpy array.  All columns must
        have identical length.
    key_column:
        Name of the column that acts as the join key.  Schemes and the
        execution engine read keys through :attr:`keys`, so a relation with a
        derived (e.g. composite-encoded) key simply stores it as an extra
        column and names it here.
    """

    def __init__(
        self,
        name: str,
        columns: Mapping[str, np.ndarray],
        key_column: str,
    ) -> None:
        if not columns:
            raise ValueError("a relation needs at least one column")
        lengths = {len(np.asarray(v)) for v in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"columns of {name!r} have differing lengths: {lengths}")
        if key_column not in columns:
            raise KeyError(f"key column {key_column!r} not among {sorted(columns)}")
        self.name = name
        self._columns = {k: np.asarray(v) for k, v in columns.items()}
        self.key_column = key_column

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns[self.key_column])

    @property
    def num_tuples(self) -> int:
        """Number of tuples in the relation."""
        return len(self)

    @property
    def column_names(self) -> list[str]:
        """Names of all columns."""
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return the column array for ``name``."""
        return self._columns[name]

    @property
    def keys(self) -> np.ndarray:
        """The join-key column as a float64 array."""
        return np.asarray(self._columns[self.key_column], dtype=np.float64)  # repro: ignore[KEY001]  # Relation feeds the float-domain partitioning simulators

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[dict[str, np.ndarray]], np.ndarray],
               name: str | None = None) -> "Relation":
        """Return a new relation keeping rows where ``predicate`` is true.

        ``predicate`` receives the column mapping and must return a boolean
        mask of the relation's length, which keeps filtering vectorised.
        """
        mask = np.asarray(predicate(self._columns), dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(
                f"predicate must return a mask of length {len(self)}, "
                f"got shape {mask.shape}"
            )
        new_cols = {k: v[mask] for k, v in self._columns.items()}
        return Relation(name or f"{self.name}_filtered", new_cols, self.key_column)

    def select(self, mask: np.ndarray, name: str | None = None) -> "Relation":
        """Return a new relation keeping rows selected by a boolean mask or index array."""
        mask = np.asarray(mask)
        new_cols = {k: v[mask] for k, v in self._columns.items()}
        return Relation(name or self.name, new_cols, self.key_column)

    def sample(self, size: int, rng: np.random.Generator,
               replace: bool = False) -> "Relation":
        """Uniform random sample of ``size`` tuples."""
        if size < 0:
            raise ValueError("sample size must be non-negative")
        size = min(size, len(self)) if not replace else size
        idx = rng.choice(len(self), size=size, replace=replace)
        return self.select(idx, name=f"{self.name}_sample")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(cls, name: str, keys: np.ndarray,
                  key_column: str = "key") -> "Relation":
        """Build a single-column relation directly from an array of join keys."""
        return cls(name, {key_column: np.asarray(keys)}, key_column)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Relation(name={self.name!r}, tuples={len(self)}, "
            f"columns={self.column_names}, key={self.key_column!r})"
        )
