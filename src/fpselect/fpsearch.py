"""Exhaustive best-fit search over the fractional polynomial family.

`FpSearch` builds the adjustment's `glm.Design` once; a candidate's design is
that design plus the candidate's FP basis. Every candidate is scored by the
deviance from `glm.score_design`, the arithmetic of `fit_design` without the
covariance or the `FitResult`: for the Gaussian family one Householder QR and
the residual sum of squares, for the binomial family the IRLS loop. Only the
model a caller returns is fitted: `best_fp` fits one degree's winner, and the
closed test (`fsp.fsp_select`) reads several degrees from one search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .errors import DomainError, ModelBuildError
from .fp import (FpPowers, PreTransform, _power_column, enumerate_fp, fp_basis,
                 fp_basis_labels, pretransform)
from .glm import Design, FitResult, fit_design, score_design
from .model import Fp, Linear, ModelSpec, Term


def check_adjustment(adjustment: ModelSpec, variable: str) -> None:
    """The adjustment may contain indicator/categorical terms of the target
    variable (spike-at-zero models do) but not another curve for it."""
    for term in adjustment.terms:
        if term.variable == variable and isinstance(term.transform, (Fp, Linear)):
            raise DomainError(f"adjustment spec already contains a curve for {variable!r}")


@dataclass(frozen=True)
class FpSearchResult:
    """Outcome of an exhaustive search over one FP degree for one variable.

    `deviance_table` holds the deviance for every candidate power vector
    (+inf where the candidate fit failed); its values are raw fit deviances,
    unadjusted for the implicit search over powers. `best_powers` attains the
    minimum, with ties broken by canonical enumeration order.
    """

    variable: str
    degree: int
    best_powers: FpPowers
    fit: FitResult
    deviance_table: dict[FpPowers, float]
    pre: PreTransform


class FpSearch:
    """FP candidates of one variable on a fixed adjustment, scored on demand.

    Holds the adjustment's `Design`, builds each power column once and
    memoises each degree's scores."""

    def __init__(self, dataset: Dataset, variable: str, adjustment: ModelSpec | None = None,
                 pre: PreTransform | None = None, center_at: float | None = None):
        self.adjustment = adjustment or ModelSpec()
        check_adjustment(self.adjustment, variable)
        x = dataset.column(variable)
        self.pre = pretransform(x) if pre is None else pre
        self.design = Design(dataset, self.adjustment)
        self.z = self.pre.apply(x)
        if np.any(self.z <= 0.0):
            raise DomainError("power columns require strictly positive values")
        self.dataset, self.variable, self.center_at = dataset, variable, center_at
        self._columns: dict[float, np.ndarray] = {}
        self._scores: dict[int, dict[FpPowers, tuple[float, int]]] = {}

    def _column(self, p: float) -> np.ndarray:
        col = self._columns.get(p)
        if col is None:
            col = self._columns[p] = _power_column(self.z, p)
        return col

    def _design_of(self, powers: FpPowers) -> np.ndarray:
        if powers.degree == 1:
            cols = self._column(powers.values[0])[:, None]
        else:
            p1, p2 = powers.values
            first = self._column(p1)
            second = first * self._column(0.0) if powers.repeated else self._column(p2)
            cols = np.column_stack([first, second])
        if self.center_at is not None:
            cols = cols - fp_basis(np.array([self.center_at]), powers)
        return np.hstack([self.design.X, cols])

    def scores(self, degree: int) -> dict[FpPowers, tuple[float, int]]:
        """(deviance, model df) of every candidate of the degree, in canonical
        order; a candidate whose fit fails scores (+inf, 0)."""
        scores = self._scores.get(degree)
        if scores is None:
            scores = self._scores[degree] = {}
            for powers in enumerate_fp(degree):
                X = self._design_of(powers)
                try:
                    deviance, df = score_design(X, self.dataset.outcome, self.dataset.family)
                except ModelBuildError:
                    deviance, df = math.inf, 0
                scores[powers] = (deviance if math.isfinite(deviance) else math.inf, df)
        return scores

    def best(self, degree: int) -> FpPowers:
        """The candidate of least deviance; ties go to canonical order."""
        scores = self.scores(degree)
        best = min(scores, key=lambda powers: scores[powers][0])
        if math.isinf(scores[best][0]):
            raise ModelBuildError(
                f"every FP candidate fit failed for {self.variable!r} (degree {degree})")
        return best

    def fit(self, powers: FpPowers) -> FitResult:
        """Fit of the adjustment plus the FP term with the given powers."""
        labels = self.design.labels + fp_basis_labels(self.variable, powers)
        result = fit_design(self._design_of(powers), self.dataset.outcome,
                            self.dataset.family, labels)
        term = Term.fp(self.variable, powers, self.pre, self.center_at)
        return replace(result, spec=self.adjustment.with_term(term))

    def result(self, degree: int) -> FpSearchResult:
        best = self.best(degree)
        table = {powers: deviance for powers, (deviance, _) in self.scores(degree).items()}
        return FpSearchResult(self.variable, degree, best, self.fit(best), table, self.pre)


def best_fp(dataset: Dataset, variable: str, degree: int,
            adjustment: ModelSpec | None = None,
            pre: PreTransform | None = None,
            center_at: float | None = None) -> FpSearchResult:
    """Score every FP candidate of the given degree and fit the best one.

    The adjustment spec (which must not contain the target variable) is held
    fixed across candidates. Every candidate is scored by its deviance
    without a full fit, and only the winner is fitted. A candidate whose fit
    fails scores +inf in the deviance table instead of aborting the search.
    Ties are broken by the canonical enumeration order.
    """
    return FpSearch(dataset, variable, adjustment, pre, center_at).result(degree)
