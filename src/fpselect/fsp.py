"""Function selection procedure: a closed test deciding, for one variable,
among exclusion, linearity, and first- or second-degree fractional polynomials.

With degree 2 allowed the procedure runs up to three nested likelihood-ratio
tests, all against the best-fitting FP2 model: (1) against the null model on
4 d.f. (overall association; stop with Excluded if not significant), (2)
against a straight line on 3 d.f. (evidence for nonlinearity; stop with
Linear), (3) against the best FP1 on 2 d.f. (FP1 if not significant, FP2
otherwise). With degree 1 the analogous two steps use 2 and 1 d.f. Because
the tests are closed, the familywise type-I error stays near the nominal
level, and a linear function is the default unless nonlinearity is strongly
supported.

`closed_test` runs on a `glm.Design` that holds the adjustment's terms and
the variable's FP basis: `fsp_select` builds one for its variable, `mfp` one
per analysis for every visit (see `fpsearch`). One `fpsearch.FpSearch` on it
scores the null model, the straight line (FP1's power 1) and each degree's
winner (`FpSearch.best`, which scores only Gaussian candidates that can
still win); only the model of the verdict is fitted.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DomainError, TooFewDistinctValuesError
from .fp import FpPowers, PreTransform
from .fpsearch import FpSearch, check_adjustment
from .glm import Design, FitResult
from .model import ModelSpec, Term


class FunctionForm(enum.Enum):
    EXCLUDED = "excluded"
    LINEAR = "linear"
    FP1 = "fp1"
    FP2 = "fp2"


_COMPLEXITY = {
    FunctionForm.EXCLUDED: 0,
    FunctionForm.LINEAR: 1,
    FunctionForm.FP1: 2,
    FunctionForm.FP2: 3,
}


def fsp_degrees_of_freedom(max_degree: int) -> tuple[int, ...]:
    """Per-step test degrees of freedom: (4, 3, 2) for degree 2, (2, 1) for degree 1."""
    if max_degree == 2:
        return (4, 3, 2)
    if max_degree == 1:
        return (2, 1)
    raise DomainError(f"max_degree must be 1 or 2, got {max_degree}")


@dataclass(frozen=True)
class FunctionDecision:
    """Verdict of the function selection procedure for one variable.

    `step_pvalues` records the tests actually performed, in order, so the
    verdict can be re-derived from the record. `term` is the realized model
    term (None when excluded). `degraded_to_linear` marks variables with too
    few distinct values for the FP search, which get a linear-vs-null test
    only.
    """

    variable: str
    verdict: FunctionForm
    powers: FpPowers | None
    step_pvalues: tuple[float, ...]
    alpha: float
    alpha_nonlinear: float
    max_degree: int
    pretransform: PreTransform | None
    term: Term | None
    fit: FitResult | None = None
    degraded_to_linear: bool = False
    forced_in: bool = False

    @property
    def included(self) -> bool:
        return self.verdict is not FunctionForm.EXCLUDED

    def complexity(self) -> int:
        return _COMPLEXITY[self.verdict]


def _searchable(dataset: Dataset, variable: str) -> bool:
    """Whether the variable has the 5 distinct values an FP search needs."""
    return np.unique(dataset.column(variable)).size >= 5


def _linear_only_decision(design: Design, variable: str, alpha: float,
                          adjustment: ModelSpec, forced: bool,
                          term: Term | None = None,
                          degraded: bool = False) -> FunctionDecision:
    """Test the variable's straight line, or `term`, against the adjustment,
    both column subsets of `design`."""
    term = term or Term.linear(variable)
    spec = adjustment.with_term(term)
    pvalues: tuple[float, ...] = ()
    if not forced:
        full, null = design.scores([spec.terms, adjustment.terms])  # full's errors first
        p1, _ = design.p_value(null, full, len(design.term_columns[term]))
        pvalues = (p1,)
        if p1 > alpha:
            return FunctionDecision(variable, FunctionForm.EXCLUDED, None, pvalues,
                                    alpha, alpha, 1, None, None, None,
                                    degraded_to_linear=degraded, forced_in=forced)
    return FunctionDecision(variable, FunctionForm.LINEAR, None, pvalues,
                            alpha, alpha, 1, None, term, design.fit(spec),
                            degraded_to_linear=degraded, forced_in=forced)


def fsp_select(dataset: Dataset, variable: str, alpha: float,
               max_degree: int = 2,
               adjustment: ModelSpec | None = None,
               alpha_nonlinear: float | None = None,
               force_in: bool = False,
               pre: PreTransform | None = None,
               center_at: float | None = None) -> FunctionDecision:
    """Run the closed function selection test for one variable.

    `alpha` governs the overall inclusion test (step 1) and, unless
    `alpha_nonlinear` is given, the later steps as well. `force_in` skips the
    inclusion test, so the weakest possible verdict is Linear. Variables with
    fewer than 5 distinct values cannot support the FP search and fall back to
    a linear-vs-null test. The adjustment spec must not contain the variable.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    alpha_nl = alpha if alpha_nonlinear is None else alpha_nonlinear
    if not 0.0 < alpha_nl <= 1.0:
        raise DomainError(f"alpha_nonlinear must be in (0, 1], got {alpha_nl}")
    adjustment = adjustment or ModelSpec()
    check_adjustment(adjustment, variable)
    if _searchable(dataset, variable):
        design = Design(dataset, adjustment, bases=[(variable, pre, center_at)])
    else:
        design = Design(dataset, adjustment, (Term.linear(variable),))
    return closed_test(design, variable, alpha, max_degree, adjustment, alpha_nl, force_in)


def closed_test(design: Design, variable: str, alpha: float, max_degree: int,
                adjustment: ModelSpec, alpha_nl: float, force_in: bool) -> FunctionDecision:
    """`fsp_select`'s test at levels the caller has checked, on a design that
    holds the adjustment's terms and the variable's basis (`Design.bases`),
    or, when the variable has fewer than 5 distinct values, its straight line."""
    dfs = fsp_degrees_of_freedom(max_degree)
    if variable not in design.bases:
        if np.unique(design.dataset.column(variable)).size < 2:
            raise TooFewDistinctValuesError(f"{variable!r} is constant")
        return _linear_only_decision(design, variable, alpha, adjustment, force_in,
                                     degraded=True)

    search = FpSearch(design, variable, adjustment)
    linear = FpPowers((1.0,))
    # A straight line that cannot be scored is fitted first, so that its fit error is
    # raised before the FP1 search's; a scored one's FitResult is built from its record.
    fit_linear = search.fit(linear) if math.isinf(search.score(linear)[0]) else None
    linear_score = (search.score(linear) if fit_linear is None
                    else (fit_linear.deviance, fit_linear.model_df))
    fp1 = search.best(1)
    best = search.best(2) if max_degree == 2 else fp1
    best_score = search.score(best)

    pvalues: list[float] = []
    if not force_in:
        p1, _ = design.p_value(design.scores([adjustment.terms])[0], best_score, dfs[0])
        pvalues.append(p1)
        if p1 > alpha:
            return FunctionDecision(variable, FunctionForm.EXCLUDED, None,
                                    tuple(pvalues), alpha, alpha_nl, max_degree,
                                    search.basis.pre, None, None)

    p2, _ = design.p_value(linear_score, best_score, dfs[1])
    pvalues.append(p2)
    if p2 > alpha_nl:
        fit_linear = fit_linear or search.fit(linear)
        return FunctionDecision(variable, FunctionForm.LINEAR, None,
                                tuple(pvalues), alpha, alpha_nl, max_degree,
                                search.basis.pre, fit_linear.spec.terms[-1], fit_linear,
                                forced_in=force_in)

    chosen, verdict = fp1, FunctionForm.FP1
    if max_degree == 2:
        p3, _ = design.p_value(search.score(fp1), best_score, dfs[2])
        pvalues.append(p3)
        if p3 <= alpha_nl:
            chosen, verdict = best, FunctionForm.FP2
    chosen_fit = search.fit(chosen)
    return FunctionDecision(variable, verdict, chosen, tuple(pvalues), alpha, alpha_nl,
                            max_degree, search.basis.pre, chosen_fit.spec.terms[-1], chosen_fit,
                            forced_in=force_in)
