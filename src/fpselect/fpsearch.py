"""Exhaustive best-fit search over the fractional polynomial family.

The search scores every candidate, then fits only the winner. For the
Gaussian family the score is the residual sum of squares, computed from one
QR of the adjustment design that each candidate extends by its own 1-2 FP
columns; for the binomial family every candidate is fitted by IRLS and scored
by its deviance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data import Dataset, Family
from .errors import DomainError, ModelBuildError
from .fp import FpPowers, PreTransform, enumerate_fp, fp_basis_labels, pretransform
from .glm import FitResult, _factors, _least_squares, _mgs_append, fit_design
from .model import Fp, Linear, ModelSpec, Term, design_matrix


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


# Maps a candidate's design and column labels to (deviance, fit or None).
Scorer = Callable[[np.ndarray, tuple[str, ...]], tuple[float, FitResult | None]]


class PowerColumnCache:
    """Cached power columns of the transformed variable, one per exponent."""

    def __init__(self, z: np.ndarray):
        if np.any(z <= 0.0):
            raise DomainError("power columns require strictly positive values")
        self.z = z
        self.log_z = np.log(z)
        self._cols: dict[float, np.ndarray] = {}

    def column(self, p: float) -> np.ndarray:
        col = self._cols.get(p)
        if col is None:
            with np.errstate(over="ignore"):
                col = self.log_z if p == 0.0 else self.z ** p
            self._cols[p] = col
        return col

    def basis(self, powers: FpPowers, center_at: float | None = None) -> np.ndarray:
        if powers.degree == 1:
            cols = self.column(powers.values[0])[:, None]
        else:
            p1, p2 = powers.values
            first = self.column(p1)
            second = first * self.log_z if powers.repeated else self.column(p2)
            cols = np.column_stack([first, second])
        if center_at is not None:
            from .fp import fp_basis

            cols = cols - fp_basis(np.array([center_at]), powers)
        return cols


def _gaussian_scorer(base_X: np.ndarray, y: np.ndarray, degree: int) -> Scorer:
    """Score candidates by their residual sum of squares without fitting them.

    The adjustment design is factorised once; each candidate continues that
    modified Gram-Schmidt over its own FP columns, with the aliasing rule of
    `fit_design`, and is scored by the same least squares arithmetic, so its
    deviance equals that of a full fit bit for bit.
    """
    n, p_base = base_X.shape
    width = p_base + degree
    Q = np.empty((n, width))
    R = np.zeros((width, width))
    base_kept: list[int] = []
    usable = bool(np.all(np.isfinite(base_X)) and np.all(np.isfinite(y)))
    if usable:
        _mgs_append(Q, R, base_kept, base_X)

    def score(X: np.ndarray, labels: tuple[str, ...]) -> tuple[float, None]:
        cols = X[:, p_base:]
        if not (usable and np.all(np.isfinite(cols))):
            return math.inf, None
        kept = list(base_kept)
        _mgs_append(Q, R, kept, cols, first=p_base)
        k = len(kept)
        if not 0 < k < n:
            return math.inf, None
        _, rss = _least_squares(X, y, *_factors(Q, R, k), kept)
        return rss, None

    return score


def _fitting_scorer(y: np.ndarray, family: Family) -> Scorer:
    """Score candidates by the deviance of a full fit, and keep the fit."""

    def score(X: np.ndarray, labels: tuple[str, ...]) -> tuple[float, FitResult | None]:
        try:
            candidate = fit_design(X, y, family, labels)
        except ModelBuildError:
            return math.inf, None
        return candidate.deviance, candidate

    return score


def best_fp(dataset: Dataset, variable: str, degree: int,
            adjustment: ModelSpec | None = None,
            pre: PreTransform | None = None,
            center_at: float | None = None) -> FpSearchResult:
    """Score every FP candidate of the given degree and fit the best one.

    The adjustment spec (which must not contain the target variable) is held
    fixed across candidates. Gaussian candidates are scored from one
    factorisation of the adjustment design and only the winner is fitted;
    binomial candidates are each fitted by IRLS. A candidate whose fit fails
    scores +inf in the deviance table instead of aborting the search. Ties are
    broken by the canonical enumeration order.
    """
    adjustment = adjustment or ModelSpec()
    check_adjustment(adjustment, variable)
    if pre is None:
        pre = pretransform(dataset.column(variable))

    base_X, base_labels, _ = design_matrix(dataset, adjustment)
    y = dataset.outcome
    cache = PowerColumnCache(pre.apply(dataset.column(variable)))
    if dataset.family is Family.GAUSSIAN:
        score = _gaussian_scorer(base_X, y, degree)
    else:
        score = _fitting_scorer(y, dataset.family)

    table: dict[FpPowers, float] = {}
    best = None
    best_deviance = math.inf
    for powers in enumerate_fp(degree):
        labels = base_labels + fp_basis_labels(variable, powers)
        X = np.hstack([base_X, cache.basis(powers, center_at)])
        deviance, candidate = score(X, labels)
        if not math.isfinite(deviance):
            deviance = math.inf
        table[powers] = deviance
        if deviance < best_deviance:
            best, best_deviance = (powers, X, labels, candidate), deviance
    if best is None:
        raise ModelBuildError(
            f"every FP candidate fit failed for {variable!r} (degree {degree})"
        )
    best_powers, X, labels, best_fit = best
    if best_fit is None:
        best_fit = fit_design(X, y, dataset.family, labels)
    spec = adjustment.with_term(Term.fp(variable, best_powers, pre, center_at))
    return FpSearchResult(
        variable=variable,
        degree=degree,
        best_powers=best_powers,
        fit=replace(best_fit, spec=spec),
        deviance_table=table,
        pre=pre,
    )
