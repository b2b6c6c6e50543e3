"""Exhaustive best-fit search over the fractional polynomial family.

An `FpSearch` runs on a `glm.Design` that holds the adjustment's columns and
its variable's 16 basis columns (z^p and z^p log z, `Design.bases`), so each
of the 44 candidates is a column subset of it; it builds nothing. `mfp`
builds one design per analysis, so each variable's basis and screen
preparation are built once; `best_fp` and `fsp.fsp_select` build one of a
single basis. The design scores candidates as many at a time as a request
names, binomial ones in lock step; its memo of fit records is the search's
only store of scores (a failed fit is not held, so a second request fits it
again), and it builds a `FitResult`, from its record, of only the model a
caller returns (`best_fp` one degree's winner; the closed test reads several).

`FpSearch.best` bounds every Gaussian candidate from one update of the
adjustment's QR (`glm.Design.addition_bounds`) and scores only those that
can still win; `best_fp` then scores the rest for its table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress

from .data import Dataset
from .errors import DomainError, ModelBuildError
from .fp import FpPowers, PreTransform, enumerate_fp
from .glm import Design, FitResult, contenders
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
    """FP candidates of one variable on a fixed adjustment, column subsets of
    a `design` that holds both (`Design.bases`), scored on demand from the
    design's memo of fit records; keeps every candidate's bounds."""

    def __init__(self, design: Design, variable: str, adjustment: ModelSpec):
        self.design, self.variable, self.adjustment = design, variable, adjustment
        self.basis = design.bases[variable]
        self._adjusted = design.columns(adjustment.terms)

    def _columns(self, powers: FpPowers) -> tuple[int, ...]:
        """The columns of a candidate's design: the adjustment's and its basis."""
        return self._adjusted + self.basis.blocks[powers]

    @functools.cached_property
    def _bounds(self) -> dict[FpPowers, tuple[float, float] | None]:
        """`Design.addition_bounds` of every candidate of both degrees."""
        return dict(zip(self.basis.blocks,
                        self.design.addition_bounds(self.adjustment.terms, self.basis)))

    def scores(self, candidates) -> list[tuple[float, int]]:
        """(deviance, model df) of each candidate's `glm.Fit`, (+inf, 0) where
        its fit fails: `Design.batch_scores` of their column subsets, together."""
        return [(math.inf, 0) if isinstance(scored, ModelBuildError)
                or not math.isfinite(scored.deviance) else scored[:2]
                for scored in Design.batch_scores(
                    [(self.design, self._columns(powers)) for powers in candidates])]

    def score(self, powers: FpPowers) -> tuple[float, int]:
        """(deviance, model df) of a candidate, as `scores` gives it."""
        return self.scores([powers])[0]

    def best(self, degree: int) -> FpPowers:
        """The candidate of least deviance, ties to canonical order. Only the
        candidates with no bounds or whose bounds reach the degree's least
        upper bound are scored: the winner and its ties are among them."""
        candidates = enumerate_fp(degree)
        kept = list(compress(candidates, contenders([self._bounds[powers]
                                                     for powers in candidates])))
        deviance, best = min(zip((d for d, _ in self.scores(kept)), kept),
                             key=lambda scored: scored[0])
        if math.isinf(deviance):
            raise ModelBuildError(
                f"every FP candidate fit failed for {self.variable!r} (degree {degree})")
        return best

    def fit(self, powers: FpPowers) -> FitResult:
        """Fit of the adjustment plus the FP term with the given powers."""
        term = Term.fp(self.variable, powers, self.basis.pre, self.basis.center_at)
        return self.design.fit(self.adjustment.with_term(term))

    def result(self, degree: int) -> FpSearchResult:
        """Every candidate of the degree scored, and the best one fitted."""
        best = self.best(degree)
        candidates = enumerate_fp(degree)
        table = {powers: d for powers, (d, _) in zip(candidates, self.scores(candidates))}
        return FpSearchResult(self.variable, degree, best, self.fit(best), table, self.basis.pre)


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
    adjustment = adjustment or ModelSpec()
    check_adjustment(adjustment, variable)
    design = Design(dataset, adjustment, bases=[(variable, pre, center_at)])
    return FpSearch(design, variable, adjustment).result(degree)
