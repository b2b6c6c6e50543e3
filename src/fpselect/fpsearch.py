"""Exhaustive best-fit search over the fractional polynomial family.

The search scores every candidate, then fits only the winner. The score is
the deviance from `glm.score_design`, the arithmetic of `fit_design` without
the covariance or the `FitResult`: for the Gaussian family one Householder QR
and the residual sum of squares, for the binomial family the IRLS loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, Family
from .errors import DomainError, ModelBuildError
from .fp import (FpPowers, PreTransform, _power_column, enumerate_fp, fp_basis,
                 fp_basis_labels, pretransform)
from .glm import FitResult, fit_design, score_design
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


class PowerColumnCache:
    """Cached power columns of the transformed variable, one per exponent."""

    def __init__(self, z: np.ndarray):
        if np.any(z <= 0.0):
            raise DomainError("power columns require strictly positive values")
        self.z = z
        self._cols: dict[float, np.ndarray] = {}

    def column(self, p: float) -> np.ndarray:
        col = self._cols.get(p)
        if col is None:
            col = self._cols[p] = _power_column(self.z, p)
        return col

    def basis(self, powers: FpPowers, center_at: float | None = None) -> np.ndarray:
        if powers.degree == 1:
            cols = self.column(powers.values[0])[:, None]
        else:
            p1, p2 = powers.values
            first = self.column(p1)
            second = first * self.column(0.0) if powers.repeated else self.column(p2)
            cols = np.column_stack([first, second])
        if center_at is not None:
            cols = cols - fp_basis(np.array([center_at]), powers)
        return cols


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
    if pre is None:
        pre = pretransform(dataset.column(variable))

    base_X, base_labels, _ = design_matrix(dataset, adjustment)
    y = dataset.outcome
    cache = PowerColumnCache(pre.apply(dataset.column(variable)))
    table: dict[FpPowers, float] = {}
    best = None
    best_deviance = math.inf
    for powers in enumerate_fp(degree):
        X = np.hstack([base_X, cache.basis(powers, center_at)])
        try:
            deviance, _ = score_design(X, y, dataset.family)
        except ModelBuildError:
            deviance = math.inf
        if not math.isfinite(deviance):
            deviance = math.inf
        table[powers] = deviance
        if deviance < best_deviance:
            best, best_deviance = (powers, X), deviance
    if best is None:
        raise ModelBuildError(
            f"every FP candidate fit failed for {variable!r} (degree {degree})"
        )
    best_powers, X = best
    labels = base_labels + fp_basis_labels(variable, best_powers)
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
