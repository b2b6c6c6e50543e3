"""Immutable column-oriented dataset with a designated outcome and family."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError


class Family(enum.Enum):
    """Outcome family; the link is fixed (identity for Gaussian, logit for Binomial)."""

    GAUSSIAN = "gaussian"
    BINOMIAL = "binomial"


def _as_readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise DataError("dataset columns must be one-dimensional")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Read-only table of numeric columns. Safe to share across concurrent runs.

    Invariants enforced on construction: all columns have the same length
    n >= 1, contain only finite values, and a Binomial outcome is 0/1.
    """

    column_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...] = field(repr=False)
    outcome_index: int
    family: Family

    def __post_init__(self):
        names = tuple(str(n) for n in self.column_names)
        cols = tuple(_as_readonly(c) for c in self.columns)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "columns", cols)
        if len(names) != len(cols):
            raise DataError("column_names and columns have different lengths")
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
        if not cols:
            raise DataError("dataset has no columns")
        n = cols[0].shape[0]
        if n < 1:
            raise DataError("dataset has no rows")
        for name, col in zip(names, cols):
            if col.shape[0] != n:
                raise DataError(f"column {name!r} has length {col.shape[0]}, expected {n}")
            if not np.all(np.isfinite(col)):
                raise DataError(f"column {name!r} contains non-finite values")
        if not 0 <= self.outcome_index < len(cols):
            raise DataError(f"outcome_index {self.outcome_index} out of range")
        if self.family is Family.BINOMIAL:
            y = cols[self.outcome_index]
            if not np.all((y == 0.0) | (y == 1.0)):
                raise DataError("Binomial outcome must contain only 0 and 1")

    @classmethod
    def from_columns(cls, data: Mapping[str, Sequence[float]], outcome: str,
                     family: Family = Family.GAUSSIAN) -> "Dataset":
        names = tuple(data.keys())
        if outcome not in names:
            raise DataError(f"outcome column {outcome!r} not found")
        return cls(
            column_names=names,
            columns=tuple(data[name] for name in names),
            outcome_index=names.index(outcome),
            family=family,
        )

    @property
    def n(self) -> int:
        return self.columns[0].shape[0]

    @property
    def outcome_name(self) -> str:
        return self.column_names[self.outcome_index]

    @property
    def outcome(self) -> np.ndarray:
        return self.columns[self.outcome_index]

    @property
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.column_names) if i != self.outcome_index)

    def index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise DataError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.columns[self.index(name)]

    def take_rows(self, indices) -> "Dataset":
        """New dataset restricted to the given row indices (resampling support);
        its rows passed this one's checks, so only the index is checked."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or not idx.size:
            raise DataError("dataset has no rows" if idx.ndim == 1 else "row index is not 1-D")
        subset = object.__new__(Dataset)
        subset.__dict__.update(self.__dict__, columns=tuple(col[idx] for col in self.columns))
        for col in subset.columns:
            col.setflags(write=False)
        return subset
