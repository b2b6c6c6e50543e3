"""Model terms, specs, and design matrix construction."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .data import Dataset
from .errors import DomainError
from .fp import FpPowers, PreTransform, _basis, _candidate_blocks, fp_basis_labels, format_power


@dataclass(frozen=True)
class Linear:
    """Untransformed covariate."""

    def columns(self, x: np.ndarray) -> list[np.ndarray]:
        return [np.asarray(x, dtype=float)]

    def labels(self, variable: str) -> list[str]:
        return [variable]


@dataclass(frozen=True)
class Fp:
    """Fractional polynomial of a covariate after its fixed pre-transformation:
    its block of `fp._basis` of the transformed covariate.

    When `center_at` is set, the basis is shifted so that every column is zero
    at that point of the transformed scale; spike-at-zero models use this so
    fitted values at the spike do not depend on the curve.
    """

    powers: FpPowers
    shift: float = 0.0
    scale: float = 1.0
    center_at: float | None = None

    def __post_init__(self):
        if not isinstance(self.powers, FpPowers):
            object.__setattr__(self, "powers", FpPowers(tuple(np.atleast_1d(self.powers))))

    @property
    def pre(self) -> PreTransform:
        return PreTransform(self.shift, self.scale)

    def columns(self, x: np.ndarray) -> list[np.ndarray]:
        basis = _basis(self.pre.apply(x), self.center_at)
        return [basis[:, j] for j in _candidate_blocks(0)[self.powers]]

    def labels(self, variable: str) -> list[str]:
        return list(fp_basis_labels(variable, self.powers))


@dataclass(frozen=True)
class Indicator:
    """Binary column: 1 where the covariate exceeds the threshold."""

    threshold: float = 0.0

    def columns(self, x: np.ndarray) -> list[np.ndarray]:
        return [(np.asarray(x, dtype=float) > self.threshold).astype(float)]

    def labels(self, variable: str) -> list[str]:
        return [f"I({variable}>{format_power(self.threshold)})"]


@dataclass(frozen=True)
class Dummy:
    """Dummy coding with the given reference group index."""

    reference: int = 0


@dataclass(frozen=True)
class OrdinalScores:
    """Single trend column assigning a score to each group."""

    scores: tuple[float, ...]


@dataclass(frozen=True)
class Categorical:
    """Grouping by strictly increasing cutpoints, with a coding scheme.

    k cutpoints define k+1 groups; group g holds values in
    (cut[g-1], cut[g]] with open ends.
    """

    cutpoints: tuple[float, ...]
    coding: Union[Dummy, OrdinalScores] = Dummy()

    def __post_init__(self):
        cuts = tuple(float(c) for c in self.cutpoints)
        if len(cuts) < 1:
            raise DomainError("categorical term needs at least one cutpoint")
        if any(b <= a for a, b in zip(cuts, cuts[1:])):
            raise DomainError("cutpoints must be strictly increasing")
        object.__setattr__(self, "cutpoints", cuts)
        if isinstance(self.coding, OrdinalScores) and len(self.coding.scores) != len(cuts) + 1:
            raise DomainError("scores length must equal the number of groups")

    @property
    def n_groups(self) -> int:
        return len(self.cutpoints) + 1

    def group_index(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.cutpoints), np.asarray(x, dtype=float), side="left")

    def columns(self, x: np.ndarray) -> list[np.ndarray]:
        groups = self.group_index(x)
        if isinstance(self.coding, OrdinalScores):
            scores = np.asarray(self.coding.scores, dtype=float)
            return [scores[groups]]
        ref = self.coding.reference
        if not 0 <= ref < self.n_groups:
            raise DomainError(f"reference group {ref} out of range")
        return [(groups == g).astype(float) for g in range(self.n_groups) if g != ref]

    def labels(self, variable: str) -> list[str]:
        if isinstance(self.coding, OrdinalScores):
            return [f"score({variable})"]
        ref = self.coding.reference
        return [f"{variable}[g{g}]" for g in range(self.n_groups) if g != ref]


Transform = Union[Linear, Fp, Indicator, Categorical]


@dataclass(frozen=True)
class Term:
    """A (variable, transformation) pair generating one block of design columns."""

    variable: str
    transform: Transform = Linear()

    @staticmethod
    def linear(variable: str) -> "Term":
        return Term(variable, Linear())

    @staticmethod
    def fp(variable: str, powers, pre: PreTransform | None = None,
           center_at: float | None = None) -> "Term":
        pre = pre or PreTransform()
        return Term(variable, Fp(powers, pre.shift, pre.scale, center_at))

    @staticmethod
    def indicator(variable: str, threshold: float = 0.0) -> "Term":
        return Term(variable, Indicator(threshold))

    @staticmethod
    def categorical(variable: str, cutpoints, coding=None) -> "Term":
        return Term(variable, Categorical(tuple(cutpoints), coding or Dummy()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt without the cached hash and labels: string hashes are per process.
        return Term, (self.variable, self.transform)

    @cached_property
    def _hash(self) -> int:
        # Hashed once per term: searches look terms up on every candidate.
        return hash((self.variable, self.transform))

    @cached_property
    def _labels(self) -> tuple[str, ...]:
        # Built once per term: every ModelSpec checks its labels.
        return tuple(self.transform.labels(self.variable))

    def labels(self) -> list[str]:
        return list(self._labels)


@dataclass(frozen=True)
class ModelSpec:
    """Ordered list of terms plus an intercept flag."""

    terms: tuple[Term, ...] = ()
    intercept: bool = True
    # False only for the pool of alternatives a search chooses among, which
    # is never fitted as one model.
    check_labels: InitVar[bool] = True

    def __post_init__(self, check_labels: bool):
        terms = tuple(self.terms)
        object.__setattr__(self, "terms", terms)
        # Fits and shrinkage find coefficients by label, so labels are unique;
        # this also rejects a repeated (variable, transformation) pair.
        labels = self.column_labels
        if check_labels and len(set(labels)) != len(labels):
            repeated = sorted({lab for lab in labels if labels.count(lab) > 1})
            raise DomainError(f"duplicate design-column labels in model spec: {', '.join(repeated)}")

    @property
    def variables(self) -> tuple[str, ...]:
        seen: list[str] = []
        for t in self.terms:
            if t.variable not in seen:
                seen.append(t.variable)
        return tuple(seen)

    @property
    def column_labels(self) -> tuple[str, ...]:
        return ("(intercept)",) * self.intercept + tuple(lab for t in self.terms for lab in t._labels)

    def admits(self, term: Term) -> bool:
        """Whether adding `term` keeps the design-column labels distinct."""
        return set(self.column_labels).isdisjoint(term._labels)

    def has_variable(self, variable: str) -> bool:
        return any(t.variable == variable for t in self.terms)

    def with_term(self, term: Term) -> "ModelSpec":
        return ModelSpec(self.terms + (term,), self.intercept)

    def without_term(self, term: Term) -> "ModelSpec":
        return ModelSpec(tuple(t for t in self.terms if t != term), self.intercept)


def design_matrix(dataset: Dataset, spec: ModelSpec):
    """Build the design matrix for a spec.

    Returns (X, labels, term_columns) where `term_columns` maps each term to
    the list of its column indices in X. The intercept, if present, is the
    first column and belongs to no term.
    """
    cols: list[np.ndarray] = []
    labels: list[str] = []
    term_columns: dict[Term, list[int]] = {}
    if spec.intercept:
        cols.append(np.ones(dataset.n))
        labels.append("(intercept)")
    for term in spec.terms:
        x = dataset.column(term.variable)
        built = term.transform.columns(x)
        idx = list(range(len(cols), len(cols) + len(built)))
        term_columns[term] = idx
        cols.extend(built)
        labels.extend(term.labels())
    if not cols:
        raise DomainError("model spec generates no design columns")
    return np.column_stack(cols), tuple(labels), term_columns
