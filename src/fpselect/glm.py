"""Generalized linear model fitting by iteratively reweighted least squares.

Supports Gaussian-identity and binomial-logit models. Linear solves go
through a rank-revealing orthogonal decomposition (modified Gram-Schmidt
with reorthogonalization); exactly collinear design columns are dropped
left-to-right with a warning instead of aborting, which keeps exhaustive
transformation searches alive when a candidate basis degenerates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import fdtrc

from .chi2 import chi2_sf
from .data import Dataset, Family
from .errors import DomainError, NotNestedError, RankDeficientError
from .model import ModelSpec, design_matrix

MAX_ITER = 50
DEVIANCE_RTOL = 1e-8
PIVOT_TOL = 1e-10
SEPARATION_COEF = 15.0
_MU_EPS = 1e-10


@dataclass(frozen=True)
class FitResult:
    """Maximum-likelihood fit of a model spec.

    `coefficients` and `covariance` are indexed by `column_labels` (intercept
    first when present); columns dropped as aliased get coefficient 0 and zero
    covariance rows, and are listed in `dropped_columns`. For the Gaussian
    family the deviance is the residual sum of squares.
    """

    coefficients: np.ndarray
    covariance: np.ndarray
    deviance: float
    log_likelihood: float
    model_df: int
    n: int
    converged: bool
    iterations: int
    family: Family
    column_labels: tuple[str, ...]
    spec: ModelSpec | None = None
    separation: bool = False
    dropped_columns: tuple[str, ...] = ()

    def coefficient(self, label: str) -> float:
        return float(self.coefficients[self.column_labels.index(label)])

    def standard_error(self, label: str) -> float:
        i = self.column_labels.index(label)
        return float(math.sqrt(max(self.covariance[i, i], 0.0)))

    def wald_z(self, label: str) -> float:
        se = self.standard_error(label)
        return self.coefficient(label) / se if se > 0 else math.inf

    def linear_predictor(self, dataset: Dataset) -> np.ndarray:
        if self.spec is None:
            raise DomainError("fit carries no model spec; cannot predict")
        X, _, _ = design_matrix(dataset, self.spec)
        return X @ self.coefficients

    def fitted_values(self, dataset: Dataset) -> np.ndarray:
        eta = self.linear_predictor(dataset)
        if self.family is Family.BINOMIAL:
            return _expit(eta)
        return eta


def _expit(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _mgs_append(Q: np.ndarray, R: np.ndarray, kept: list[int], A: np.ndarray,
                first: int = 0, tol: float = PIVOT_TOL) -> None:
    """Continue a left-to-right modified Gram-Schmidt factorisation with
    reorthogonalization over the columns of A.

    Q (n, p) and R (p, p) are work buffers whose first len(kept) columns hold
    the factorisation so far; `kept` lists the design indices of those
    columns. Column j of A is design column first + j. Each column is
    orthogonalized against the kept ones and appended to Q, R and `kept`,
    unless its residual norm falls below tol * its original norm, in which
    case it is dropped as aliased."""
    for j in range(A.shape[1]):
        k = len(kept)
        v = A[:, j].astype(float, copy=True)
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        if k:
            Qk = Q[:, :k]
            r1 = Qk.T @ v
            v -= Qk @ r1
            r2 = Qk.T @ v
            v -= Qk @ r2
            R[:k, k] = r1 + r2
        norm_v = np.linalg.norm(v)
        if norm_v <= tol * norm0:
            R[:, k] = 0.0
            continue
        Q[:, k] = v / norm_v
        R[k, k] = norm_v
        kept.append(first + j)


def _qr_keep(A: np.ndarray, tol: float = PIVOT_TOL):
    """Column-pivot-free rank-revealing QR: greedy left-to-right MGS with
    reorthogonalization. Returns (Q, R, kept) where columns whose residual
    norm falls below tol * original norm are dropped as aliased."""
    n, p = A.shape
    Q = np.empty((n, p))
    R = np.zeros((p, p))
    kept: list[int] = []
    _mgs_append(Q, R, kept, A, tol=tol)
    Q, R = _factors(Q, R, len(kept))
    return Q, R, kept


def _factors(Q: np.ndarray, R: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first k columns of the MGS work buffers. Q is returned contiguous,
    so that products with it do not depend on how wide the buffer was."""
    return np.ascontiguousarray(Q[:, :k]), R[:k, :k]


def _wls(X: np.ndarray, z: np.ndarray, w: np.ndarray | None, kept: list[int]):
    """Weighted least squares restricted to kept columns; returns (beta, R)."""
    A = X[:, kept]
    b = z
    if w is not None:
        sw = np.sqrt(w)
        A = A * sw[:, None]
        b = z * sw
    Q, R, kept2 = _qr_keep(A)
    if len(kept2) != len(kept):
        # Weighting can only lose rank in degenerate all-zero-weight cases.
        raise RankDeficientError("design lost rank under the working weights")
    beta = solve_triangular(R, Q.T @ b)
    return beta, R


def _least_squares(X: np.ndarray, y: np.ndarray, Q: np.ndarray, R: np.ndarray,
                  kept: list[int]) -> tuple[np.ndarray, float]:
    """Least squares coefficients of y on the kept columns of X, and the
    residual sum of squares, from the (Q, R, kept) factorisation of X."""
    beta_k = solve_triangular(R, Q.T @ y)
    resid = y - X[:, kept] @ beta_k
    return beta_k, float(resid @ resid)


def _embed(values: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    out = np.zeros(p)
    out[kept] = values
    return out


def _embed_cov(cov_kept: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    cov = np.zeros((p, p))
    cov[np.ix_(kept, kept)] = cov_kept
    return cov


def _cov_from_r(R: np.ndarray) -> np.ndarray:
    rinv = solve_triangular(R, np.eye(R.shape[0]))
    cov = rinv @ rinv.T
    return (cov + cov.T) / 2.0


def gaussian_log_likelihood(rss: float, n: int) -> float:
    if rss <= 0.0:
        return math.inf
    return -0.5 * n * (math.log(2.0 * math.pi * rss / n) + 1.0)


def fit_design(X: np.ndarray, y: np.ndarray, family: Family,
               column_labels: tuple[str, ...],
               max_iter: int = MAX_ITER, tol: float = DEVIANCE_RTOL) -> FitResult:
    """Fit a prebuilt design matrix. Core engine behind `fit` and the searches."""
    n, p = X.shape
    if not np.all(np.isfinite(X)):
        raise DomainError("design matrix contains non-finite values")
    if not np.all(np.isfinite(y)):
        raise DomainError("outcome contains non-finite values")
    Q, R, kept = _qr_keep(X)
    dropped = tuple(column_labels[j] for j in range(p) if j not in kept)
    if dropped:
        warnings.warn(f"dropping aliased design columns: {', '.join(dropped)}", stacklevel=3)
    if not kept:
        raise RankDeficientError("no usable design columns")
    if n <= len(kept):
        raise RankDeficientError(
            f"{n} observations cannot identify {len(kept)} coefficients"
        )

    if family is Family.GAUSSIAN:
        beta_k, rss = _least_squares(X, y, Q, R, kept)
        sigma2 = rss / (n - len(kept))
        cov_kept = _cov_from_r(R) * sigma2
        return FitResult(
            coefficients=_embed(beta_k, kept, p),
            covariance=_embed_cov(cov_kept, kept, p),
            deviance=rss,
            log_likelihood=gaussian_log_likelihood(rss, n),
            model_df=len(kept),
            n=n,
            converged=True,
            iterations=1,
            family=family,
            column_labels=column_labels,
            dropped_columns=dropped,
        )

    # Binomial-logit IRLS.
    mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    beta_k = np.zeros(len(kept))
    R = np.eye(len(kept))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = np.maximum(mu * (1.0 - mu), _MU_EPS)
        z = eta + (y - mu) / w
        beta_k, R = _wls(X, z, w, kept)
        eta = X[:, kept] @ beta_k
        mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
        new_deviance = _binomial_deviance(y, mu)
        if abs(new_deviance - deviance) <= tol * (abs(new_deviance) + 0.1):
            deviance = new_deviance
            converged = True
            break
        deviance = new_deviance
    separation = bool(np.max(np.abs(beta_k)) > SEPARATION_COEF)
    cov_kept = _cov_from_r(R)
    return FitResult(
        coefficients=_embed(beta_k, kept, p),
        covariance=_embed_cov(cov_kept, kept, p),
        deviance=deviance,
        log_likelihood=-deviance / 2.0,
        model_df=len(kept),
        n=n,
        converged=converged,
        iterations=iterations,
        family=family,
        column_labels=column_labels,
        separation=separation,
        dropped_columns=dropped,
    )


def _binomial_deviance(y: np.ndarray, mu: np.ndarray) -> float:
    return float(-2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def fit(dataset: Dataset, spec: ModelSpec, max_iter: int = MAX_ITER,
        tol: float = DEVIANCE_RTOL) -> FitResult:
    """Fit a model spec to a dataset by maximum likelihood.

    Gaussian fits solve the least squares problem in one step; binomial fits
    iterate reweighted least squares until the relative deviance change falls
    below `tol`. Non-convergence is reported through the `converged` flag, and
    suspected separation (huge logit coefficients) through `separation`.
    """
    X, labels, _ = design_matrix(dataset, spec)
    result = fit_design(X, dataset.outcome, dataset.family, labels, max_iter, tol)
    return replace(result, spec=spec)


def lr_statistic(fit_reduced: FitResult, fit_full: FitResult) -> float:
    """Likelihood-ratio statistic -2 (ll_reduced - ll_full).

    For the binomial family this is exactly the deviance difference. For the
    Gaussian family, where the deviance is the scale-dependent residual sum of
    squares, the statistic is the profile-likelihood form n*log(rss_r/rss_f),
    which is invariant to affine rescaling of the outcome.
    """
    if fit_reduced.n != fit_full.n:
        raise NotNestedError("fits are on different numbers of observations")
    if fit_reduced.family is not fit_full.family:
        raise NotNestedError("fits are from different families")
    if fit_reduced.family is Family.GAUSSIAN:
        rss_r, rss_f = fit_reduced.deviance, fit_full.deviance
        if rss_f <= 0.0:
            return 0.0 if rss_r <= 1e-12 else math.inf
        return fit_full.n * math.log(rss_r / rss_f)
    return fit_reduced.deviance - fit_full.deviance


def deviance_test(fit_reduced: FitResult, fit_full: FitResult, df: int,
                  gaussian_f: bool = False) -> float:
    """P-value of the likelihood-ratio test of a reduced against a full model.

    The reduced model must be nested in the full one. The default reference
    distribution is chi-square with `df` degrees of freedom for both families;
    `gaussian_f=True` switches Gaussian comparisons to the exact F test.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    stat = lr_statistic(fit_reduced, fit_full)
    if stat < 0.0:
        if stat < -1e-6:
            raise NotNestedError(
                f"reduced model fits better than full (statistic {stat:.3g}); models not nested"
            )
        stat = 0.0
    if gaussian_f and fit_full.family is Family.GAUSSIAN:
        rss_r, rss_f = fit_reduced.deviance, fit_full.deviance
        df2 = fit_full.n - fit_full.model_df
        if df2 < 1:
            raise DomainError("no residual degrees of freedom for the F test")
        if rss_f <= 0.0:
            return 0.0 if rss_r > rss_f else 1.0
        stat_f = ((rss_r - rss_f) / df) / (rss_f / df2)
        return float(min(1.0, max(0.0, fdtrc(df, df2, max(stat_f, 0.0)))))
    return chi2_sf(stat, df)
