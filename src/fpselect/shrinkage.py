"""Post-selection shrinkage factors via cross-validated calibration.

Each mode names groups of design columns: one group of every column (global),
one group per column (parameterwise), one group per term or per given set of
terms (joint). One calibration then sums each group's out-of-fold
contributions into a regressor and regresses the outcome on them (in the model
family, with a free intercept); the fitted slopes are the shrinkage factors,
so the three modes coincide exactly when their groupings coincide. Components
are mean-centered before calibration so the intercept absorbs location.
Global shrinkage with `reselect` re-selects the model inside every training
fold and calibrates on the folds' own out-of-fold predictors. Otherwise the
folds refit one design through `glm.score_designs`, the scorer of every
search, binomial folds of equal size in lock step, bit for bit as one at a
time, and keep only coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import (CollinearComponentsError, DomainError, FoldFitFailureError,
                     ModelBuildError)
from .glm import FitResult, fit, fit_design, score_designs
from .model import ModelSpec, Term, design_matrix


@dataclass(frozen=True)
class LeaveOneOut:
    def folds(self, n: int):
        idx = np.arange(n)
        return [(np.delete(idx, i), idx[i:i + 1]) for i in range(n)]

    def describe(self) -> str:
        return "leave-one-out"


@dataclass(frozen=True)
class KFold:
    k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"k must be >= 2, got {self.k}")

    def folds(self, n: int):
        if self.k > n:
            raise DomainError(f"cannot split {n} rows into {self.k} folds")
        perm = np.random.default_rng(self.seed).permutation(n)
        parts = np.array_split(perm, self.k)
        return [(np.setdiff1d(perm, part), np.sort(part)) for part in parts]

    def describe(self) -> str:
        return f"{self.k}-fold (seed {self.seed})"


CvScheme = LeaveOneOut | KFold


def default_cv_scheme(n: int, seed: int = 0) -> CvScheme:
    """Leave-one-out up to n = 200, ten-fold beyond (cost cutoff)."""
    return LeaveOneOut() if n <= 200 else KFold(10, seed)


@dataclass(frozen=True)
class ShrinkageFactors:
    """Calibration slopes by group, with the mapping from groups to columns."""

    mode: str  # "global" | "parameterwise" | "joint"
    factors: dict[str, float]
    groups: dict[str, tuple[str, ...]]
    cv_description: str
    calibration_intercept: float

    def factor_for_column(self, label: str) -> float:
        for group, columns in self.groups.items():
            if label in columns:
                return self.factors[group]
        raise DomainError(f"no shrinkage group contains column {label!r}")

    def apply(self, fitted: FitResult, dataset: Dataset) -> np.ndarray:
        """Shrunken coefficient vector: slopes scaled by their group factor,
        intercept adjusted so the mean linear predictor is preserved."""
        if fitted.spec is None:
            raise DomainError("fit carries no model spec")
        X, labels, _ = design_matrix(dataset, fitted.spec)
        coefs = fitted.coefficients.copy()
        shiftsum = 0.0
        for j, label in enumerate(labels):
            if label == "(intercept)":
                continue
            c = self.factor_for_column(label)
            shiftsum += (1.0 - c) * coefs[j] * float(X[:, j].mean())
            coefs[j] *= c
        if fitted.spec.intercept:
            coefs[labels.index("(intercept)")] += shiftsum
        return coefs


def _out_of_fold_components(dataset: Dataset, spec: ModelSpec, cv: CvScheme):
    """Matrix of out-of-fold per-column contributions beta_j * x_ij
    (non-intercept columns only), plus the column labels."""
    X_full, labels, _ = design_matrix(dataset, spec)
    keep = [j for j, lab in enumerate(labels) if lab != "(intercept)"]
    if not keep:
        raise DomainError("model spec has no non-intercept terms to shrink")
    # Every transform acts row by row, so the rows of the full design are the
    # design of the training rows.
    C = np.zeros((dataset.n, len(keep)))
    folds = cv.folds(dataset.n)
    designs = ((X_full[train], dataset.outcome[train], None) for train, _ in folds)
    for fold_id, ((_, test), fitted) in enumerate(zip(folds, score_designs(
            designs, dataset.family, labels))):
        if isinstance(fitted, ModelBuildError):
            raise FoldFitFailureError(fold_id, fitted) from fitted
        C[test, :] = X_full[np.ix_(test, keep)] * fitted.coefficients[keep]
    return C, tuple(labels[j] for j in keep)


def _calibrate(dataset: Dataset, regressors: np.ndarray, group_labels: Sequence[str],
               mode: str, groups: dict[str, tuple[str, ...]],
               cv: CvScheme) -> ShrinkageFactors:
    centered = regressors - regressors.mean(axis=0, keepdims=True)
    design = np.column_stack([np.ones(dataset.n), centered])
    cal_labels = ("(intercept)",) + tuple(group_labels)
    result = fit_design(design, dataset.outcome, dataset.family, cal_labels)
    if result.dropped_columns:
        raise CollinearComponentsError(
            f"calibration components are collinear: {', '.join(result.dropped_columns)}"
        )
    factors = {lab: float(result.coefficients[i + 1]) for i, lab in enumerate(group_labels)}
    return ShrinkageFactors(
        mode=mode,
        factors=factors,
        groups=groups,
        cv_description=cv.describe(),
        calibration_intercept=float(result.coefficients[0]),
    )


def _grouped(dataset: Dataset, spec: ModelSpec, cv: CvScheme, mode: str,
             groups: dict[str, tuple[str, ...]]) -> ShrinkageFactors:
    """One calibration slope per group of design columns; a group's regressor
    is the sum of its columns' out-of-fold contributions."""
    C, labels = _out_of_fold_components(dataset, spec, cv)
    # `take` keeps each row contiguous, so a group of every column sums as C.sum(axis=1)
    R = np.column_stack([C.take([labels.index(lab) for lab in columns], axis=1).sum(axis=1)
                         for columns in groups.values()])
    return _calibrate(dataset, R, tuple(groups), mode, groups, cv)


def global_shrinkage(dataset: Dataset, spec: ModelSpec,
                     cv: CvScheme | None = None,
                     reselect: Callable[[Dataset], ModelSpec] | None = None) -> ShrinkageFactors:
    """Single calibration slope on the out-of-fold linear predictor.

    With `reselect`, the model is re-selected inside every training fold and
    the held-out predictor comes from the fold's own model; this prices in
    selection uncertainty and is the honest (and costly) variant.
    """
    cv = cv or default_cv_scheme(dataset.n)
    groups = {"global": tuple(lab for t in spec.terms for lab in t.labels())}
    if reselect is None:
        return _grouped(dataset, spec, cv, "global", groups)
    eta = np.zeros(dataset.n)
    for fold_id, (train, test) in enumerate(cv.folds(dataset.n)):
        train_data = dataset.take_rows(train)
        try:
            fold_spec = reselect(train_data)
            fold_fit = fit(train_data, fold_spec)
        except ModelBuildError as exc:
            raise FoldFitFailureError(fold_id, exc) from exc
        X_test, fold_labels, _ = design_matrix(dataset.take_rows(test), fold_spec)
        keep = [j for j, lab in enumerate(fold_labels) if lab != "(intercept)"]
        if keep:
            eta[test] = X_test[:, keep] @ fold_fit.coefficients[keep]
    return _calibrate(dataset, eta[:, None], ("global",), "global", groups, cv)


def parameterwise_shrinkage(dataset: Dataset, spec: ModelSpec,
                            cv: CvScheme | None = None) -> ShrinkageFactors:
    """One calibration slope per design column."""
    cv = cv or default_cv_scheme(dataset.n)
    groups = {lab: (lab,) for t in spec.terms for lab in t.labels()}
    return _grouped(dataset, spec, cv, "parameterwise", groups)


def joint_shrinkage(dataset: Dataset, spec: ModelSpec,
                    groups: Sequence[Sequence[Term]] | None = None,
                    cv: CvScheme | None = None) -> ShrinkageFactors:
    """One calibration slope per term group.

    By default every term is its own group, which keeps semantically related
    columns (both columns of a second-degree FP, a whole dummy block)
    under a single factor. Custom `groups` must partition the spec's terms.
    """
    cv = cv or default_cv_scheme(dataset.n)
    if groups is None:
        term_groups = [[t] for t in spec.terms]
    else:
        term_groups = [list(g) for g in groups]
        flat = [t for g in term_groups for t in g]
        if sorted(flat, key=spec.terms.index) != list(spec.terms) or len(set(flat)) != len(flat):
            raise DomainError("groups must partition the spec's terms")
    columns = [tuple(lab for t in terms for lab in t.labels()) for terms in term_groups]
    return _grouped(dataset, spec, cv, "joint", {"+".join(cols): cols for cols in columns})
