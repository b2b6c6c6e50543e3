"""Generalized linear model fitting by iteratively reweighted least squares.

Supports Gaussian-identity and binomial-logit models. Every least squares
solve (a Gaussian fit, an IRLS step) is one LAPACK Householder QR of the
design; exactly collinear design columns are dropped left-to-right with a
warning instead of aborting, which keeps exhaustive transformation searches
alive when a candidate basis degenerates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtri, dtrtrs
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


def _check_info(routine: str, info: int) -> None:
    """Raise on a nonzero LAPACK `info`."""
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise RankDeficientError(f"{routine}: triangular factor is singular at column {info}")


def _householder(A: np.ndarray, tol: float = PIVOT_TOL):
    """Householder QR (LAPACK dgeqrf) of the columns of A that the aliasing
    rule keeps.

    Column j is aliased when |R_jj| <= tol * ||a_j||, with R_jj taken from the
    kept columns to its left. Zero columns are dropped up front; then the
    first aliased column is dropped and the remaining columns are factorised
    again, so a full-rank design takes one call. Columns beyond the n-th kept
    one are aliased. Each column is divided by a power of two near its largest
    magnitude, which is exact and keeps squared norms from overflowing.
    Returns (kept, qr, tau, scale), the factorisation of A[:, kept] / scale."""
    n = A.shape[0]
    A = np.asfortranarray(A)
    peak = np.abs(A).max(axis=0)
    scale = np.ldexp(0.5, np.frexp(peak)[1])
    candidates = peak.nonzero()[0]
    while True:
        kept = candidates[:n]
        As = A[:, kept] / scale[kept]
        norms = np.sqrt(np.einsum("ij,ij->j", As, As))
        qr, tau, _, info = dgeqrf(As, overwrite_a=True)
        _check_info("dgeqrf", info)
        aliased = (np.abs(qr.diagonal()) <= tol * norms).nonzero()[0]
        if not aliased.size:
            return kept.tolist(), qr, tau, scale[kept]
        candidates = np.delete(candidates, aliased[0])


def _solve(qr: np.ndarray, tau: np.ndarray, scale: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares coefficients of b from a `_householder` factorisation."""
    k = qr.shape[1]
    qtb, _, info = dormqr("L", "T", qr, tau, b[:, None], 1)
    _check_info("dormqr", info)
    beta, info = dtrtrs(qr, qtb[:k])
    _check_info("dtrtrs", info)
    return beta[:, 0] / scale


def _r_factor(qr: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The triangular factor R of the unscaled kept columns, in the upper
    triangle; as in LAPACK, the strict lower triangle is not part of it."""
    return qr[:qr.shape[1]] * scale


def _rss(X: np.ndarray, y: np.ndarray, kept: list[int], beta_k: np.ndarray) -> float:
    resid = y - X[:, kept] @ beta_k
    return float(resid @ resid)


def _wls(X: np.ndarray, z: np.ndarray, w: np.ndarray | None, kept: list[int]):
    """Weighted least squares restricted to kept columns; returns (beta, R)."""
    A = X[:, kept]
    b = z
    if w is not None:
        sw = np.sqrt(w)
        A = A * sw[:, None]
        b = z * sw
    kept2, qr, tau, scale = _householder(A)
    if len(kept2) != len(kept):
        # Weighting can only lose rank in degenerate all-zero-weight cases.
        raise RankDeficientError("design lost rank under the working weights")
    return _solve(qr, tau, scale, b), _r_factor(qr, scale)


def _embed(values: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    out = np.zeros(p)
    out[kept] = values
    return out


def _embed_cov(cov_kept: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    cov = np.zeros((p, p))
    cov[np.ix_(kept, kept)] = cov_kept
    return cov


def _cov_from_r(R: np.ndarray) -> np.ndarray:
    """(R^T R)^-1 from the upper triangle of R."""
    rinv, info = dtrtri(R)
    _check_info("dtrtri", info)
    rinv = np.triu(rinv)
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
    kept, qr, tau, scale = _householder(X)
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
        beta_k = _solve(qr, tau, scale, y)
        rss = _rss(X, y, kept, beta_k)
        sigma2 = rss / (n - len(kept))
        cov_kept = _cov_from_r(_r_factor(qr, scale)) * sigma2
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
