"""Exhaustive best-fit search over the fractional polynomial family.

`FpSearch` builds the adjustment's `glm.Design` once; a candidate's design is
that design plus the candidate's FP basis. A candidate is scored exactly by
the deviance from `glm.score_design`, the arithmetic of `fit_design` without
the covariance or the `FitResult`: for the Gaussian family one Householder QR
and the residual sum of squares, for the binomial family the IRLS loop. Only
the model a caller returns is fitted: `best_fp` fits one degree's winner, and
the closed test (`fsp.fsp_select`) reads several degrees from one search.

`FpSearch.best` bounds every Gaussian candidate from one update of the
adjustment's QR (`glm.Design.addition_bounds`; the 44 bases use 16 distinct
columns) and scores only those that can still win; `best_fp` then scores the
rest for its table. Binomial candidates of a degree are scored together, in
lock step (`glm.score_designs`). The winner of each degree is fitted from the
factorisation its score made.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .data import Dataset, Family
from .errors import DomainError, ModelBuildError
from .fp import (FP_POWER_SET, FpPowers, PreTransform, _power_column, enumerate_fp,
                 fp_basis, fp_basis_labels, pretransform)
from .glm import (Design, FitResult, _factorise, contenders, fit_design, score_design,
                  score_designs)
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


@functools.cache
def _candidate_blocks() -> tuple[tuple[FpPowers, ...], tuple[tuple[int, ...], ...]]:
    """Every candidate of both degrees and the indices of its basis among the
    columns z^p (0-7) and z^p log z (8-15), p in `FP_POWER_SET` order."""
    column = {p: i for i, p in enumerate(FP_POWER_SET)}
    candidates = enumerate_fp(1) + enumerate_fp(2)
    return candidates, tuple(tuple(column[p] + 8 * (j and powers.repeated)
                                   for j, p in enumerate(powers)) for powers in candidates)


class FpSearch:
    """FP candidates of one variable on a fixed adjustment, scored on demand.

    Holds the adjustment's `Design`, builds each power column once and
    memoises each candidate's exact score and every candidate's bounds."""

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
        self._scores: dict[FpPowers, tuple[float, int, tuple | None]] = {}

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

    @functools.cached_property
    def _bounds(self) -> dict[FpPowers, tuple[float, float] | None]:
        """`Design.addition_bounds` of every candidate of both degrees. Every
        basis is built from the 16 distinct columns z^p and z^p log z."""
        first = [self._column(p) for p in FP_POWER_SET]
        with np.errstate(all="ignore"):  # an overflowed column gets no bounds
            columns = np.column_stack(first + [col * self._column(0.0) for col in first])
            if self.center_at is not None:
                center = np.array([self.center_at])
                columns = columns - np.concatenate(
                    [fp_basis(center, FpPowers((p, p))) for p in FP_POWER_SET]).T.ravel()
        candidates, blocks = _candidate_blocks()
        return dict(zip(candidates, self.design.addition_bounds(self.adjustment.terms,
                                                                columns, blocks)))

    def _store(self, powers: FpPowers, scored) -> None:
        """Keep a candidate's deviance, model df and `_factorise` result (for
        `fit`) from a `score_designs` item; a failed fit scores (+inf, 0)."""
        if isinstance(scored, ModelBuildError):
            self._scores[powers] = (math.inf, 0, None)
        else:
            deviance, _, factors = scored
            self._scores[powers] = (deviance if math.isfinite(deviance) else math.inf,
                                    len(factors[0]), factors)

    def score(self, powers: FpPowers) -> tuple[float, int]:
        """(deviance, model df) of a candidate; a candidate whose fit fails
        scores (+inf, 0)."""
        if powers not in self._scores:
            X, y = self._design_of(powers), self.dataset.outcome
            try:
                factors = _factorise(X, y)
                scored = (score_design(X, y, self.dataset.family, factors)[0], None, factors)
            except ModelBuildError as exc:
                scored = exc
            self._store(powers, scored)
        return self._scores[powers][:2]

    def best(self, degree: int) -> FpPowers:
        """The candidate of least deviance, ties to canonical order. Only the
        candidates with no bounds or whose bounds reach the degree's least
        upper bound are scored: the winner and its ties are among them."""
        candidates = enumerate_fp(degree)
        keep = contenders([self._bounds[powers] for powers in candidates])
        if self.dataset.family is Family.BINOMIAL:
            todo = [powers for powers in compress(candidates, keep) if powers not in self._scores]
            designs = ((self._design_of(powers), self.dataset.outcome) for powers in todo)
            for powers, scored in zip(todo, score_designs(designs, self.dataset.family)):
                self._store(powers, scored)
        best = min(compress(candidates, keep), key=lambda powers: self.score(powers)[0])
        if math.isinf(self.score(best)[0]):
            raise ModelBuildError(
                f"every FP candidate fit failed for {self.variable!r} (degree {degree})")
        return best

    def fit(self, powers: FpPowers) -> FitResult:
        """Fit of the adjustment plus the FP term with the given powers."""
        labels = self.design.labels + fp_basis_labels(self.variable, powers)
        term = Term.fp(self.variable, powers, self.pre, self.center_at)
        return fit_design(self._design_of(powers), self.dataset.outcome, self.dataset.family,
                          labels, factors=self._scores.get(powers, (None,) * 3)[2],
                          spec=self.adjustment.with_term(term))

    def result(self, degree: int) -> FpSearchResult:
        """Every candidate of the degree scored, and the best one fitted."""
        best = self.best(degree)
        table = {powers: self.score(powers)[0] for powers in enumerate_fp(degree)}
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
