"""Generalized linear model fitting by iteratively reweighted least squares.

Supports Gaussian-identity and binomial-logit models. Every least squares
solve (a Gaussian fit, an IRLS step) is one LAPACK Householder QR of the
design; exactly collinear design columns are dropped left-to-right with a
warning instead of aborting, which keeps exhaustive transformation searches
alive when a candidate basis degenerates.

Every search scores its candidate models with one scorer, `score_designs`,
whose deviance is that of the fit bit for bit, and fits only the model it
returns. Nested models are compared through `Design`, built once: each is a
column subset of it (an FP candidate or term too, from its variable's basis
columns, which follow the terms'), scored by one entry, `Design.batch_scores`
of (design, column subset) pairs of one design or several, with a score or an
error per pair (`Design.scores` raises the first, `first_error`), tested
(`Design.p_value`) and fitted, and one memo keyed by the subset keeps every
factorisation (for one visit, in `mfp`).

The scorer fits its designs `_LOCKSTEP_FITS` at a time, binomial ones (folds,
FP candidates, an elimination step's removals) in lock step (`_irls`): the
clip, `_expit`, weights, working responses, sqrt(w) and column scaling,
aliasing test (`_scaled_qrs`, shared with `_householder`) and deviances of a
stack take one numpy call per step, while each fit keeps its own QR, solve,
X @ beta, first-step reuse and convergence test. Each fit equals its fit
alone bit for bit by three rules: X @ beta multiplies an F-ordered (n, k)
view, as X[:, kept] is (a C-ordered one takes another dgemv summation
order); only fits of equal shape are stacked (padding would change numpy's
pairwise row sums); and a stack holds at most `_LOCKSTEP_FITS` fits, as
`score_designs` reads no more at a time (200 folds in one stack raised the
peak RSS of 20 `shrink_loo` analyses from 65.7 to 81.2 MB, 16 by 0.0 MB).

Gaussian searches need not score every candidate. A QR update of the
current fit gives each candidate's residual sum of squares, which `Design`
turns into bounds, times 1 -/+ `SCREEN_RTOL`, on its deviance. An FP search
compares those; a selection step turns them into bounds on its p-value
(`p_value_bounds`, one pass for removals and additions alike). Only
candidates whose bounds admit the best value are scored, so a search picks
what scoring every candidate would; a selection step left with one, its
p-value bounds on one side of the threshold, scores none.
Dropping a block B of columns raises the sum by b_B' V_BB^-1 b_B,
V = covariance / sigma^2 (`removal_bounds`); adding a block C lowers it by
r' C+ (C+' C+)^-1 C+' r, C+ being C orthogonalised against the design and r
the residual (`addition_bounds`; Miller 2002, *Subset Selection in
Regression*, ch. 2; Efroymson 1960). There one `dormqr` applies the design's
reflectors to the blocks' columns and to y, the rows below the design's
are reduced to their own R, and a batched Householder QR of each block then
r gives its sum; no Gram matrix, which squares the condition, is formed.
The bounds must contain the deviance that `score_designs` computes. All come
from backward-stable Householder QRs, so their relative errors are of order
u c, where u = 2^-53 and c = (1 + 2 kappa) ||y|| / ||r|| is the condition
number of the larger model's residual r (Golub & Van Loan, *Matrix
Computations*, thm. 5.3.1); kappa^2 <= p ||R^-1||_F^2 = p sum_j VIF_j, R
being the triangular factor of its p columns scaled to unit norm. One guard
(`_well_conditioned`) gives bounds only when this bound on c is at most
`SCREEN_MAX_CONDITION` = 1e6, so u c <= 1.1e-10 and `SCREEN_RTOL` = 1e-6
leaves a factor of 1e4 for the constants. A removal reads
VIF_j = ||x_j||^2 V_jj from the fit. An m-column addition has
R = [[R_A, S], [0, R_C]] with ||S||_2 <= sqrt(m), so sum VIF <=
V_A + V_C (1 + m V_A) with V_A = ||R_A^-1||_F^2 and the orthogonalised
block's V_C = ||R_C^-1||_F^2 <= 2.5e11: its exact fit, which drops a column
only beyond a VIF of PIVOT_TOL^-2 = 1e20, keeps every column, and an aliased
block (a tiny orthogonalised norm) is scored. Measured relative errors:
removals, at most 0.85 u c on 3,000 random designs (c up to 1e15) and
9.5e-16 on 464 `stability_be` elimination steps; additions, at most
1.71 u c on 198,000 candidates of 4,500 random FP searches (collinear,
offset and rescaled adjustments, c up to 1e15) and 6.7e-14 on the 16,764 of
24 `mfp_gauss` datasets, 94% of them bounded, where a degree's best two came
within 1.2e-9 (FP1) and 1.7e-9 (FP2) and were scored. A binomial fit, a
model with dropped or no columns or fewer residual rows than candidate
columns, a zero deviance and over- or underflow give no bounds.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg.lapack import dgeqrf, dormqr, dtrtri, dtrtrs
from scipy.special import chdtrc

from .chi2 import chi2_sf
from .data import Dataset, Family
from .errors import DomainError, ModelBuildError, NotNestedError, RankDeficientError
from .fp import (FpPowers, PreTransform, _basis, _basis_labels, _candidate_blocks,
                 pretransform)
from .model import ModelSpec, Term, design_matrix

MAX_ITER = 50
DEVIANCE_RTOL = 1e-8
PIVOT_TOL = 1e-10
SEPARATION_COEF = 15.0
_MU_EPS = 1e-10
SCREEN_RTOL = 1e-6
SCREEN_MAX_CONDITION = 1e6
NESTED_TOL = 1e-6
_TINY = np.finfo(float).tiny
_LOCKSTEP_FITS = 16  # fits per lock-step stack: 128 KB at n = 200, k = 5


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
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_info(routine: str, info: int) -> None:
    """Raise on a nonzero LAPACK `info`."""
    if info < 0:
        raise ValueError(f"{routine}: illegal value in argument {-info}")
    if info > 0:
        raise RankDeficientError(f"{routine}: triangular factor is singular at column {info}")


def _scaled_qrs(At: np.ndarray, peak: np.ndarray):
    """Householder QRs (LAPACK dgeqrf) of the design At.T, or of each design
    At[j].T of a stack, At being C-ordered (k, n) or (fits, k, n), k <= n,
    with the column magnitudes `peak`. Each column is divided by a power of
    two near its peak, which is exact and keeps squared norms from
    overflowing, and is aliased when |R_ii| <= PIVOT_TOL * ||a_i||. Returns the
    scales, each design's (qr, tau) and the aliased mask."""
    scales = np.ldexp(0.5, np.frexp(peak)[1])
    As = At / scales[..., None]
    norms = np.sqrt(np.einsum("...ij,...ij->...i", As, As))
    qrs = []
    for A in (As,) if As.ndim == 2 else As:  # dgeqrf works in place on the F-ordered A.T
        qr, tau, _, info = dgeqrf(A.T, overwrite_a=True)
        _check_info("dgeqrf", info)
        qrs.append((qr, tau))
    return scales, qrs, np.abs(As.diagonal(axis1=-2, axis2=-1)) <= PIVOT_TOL * norms


def _householder(A: np.ndarray):
    """Householder QR (`_scaled_qrs`) of the columns of A that the aliasing
    rule keeps.

    Zero columns are dropped up front; then the first aliased column is
    dropped and the remaining columns are factorised again, so a full-rank
    design takes one call, with no fancy-index copy. Columns beyond the n-th
    kept one are aliased. Returns (kept, qr, tau, scale), the factorisation of
    A[:, kept] / scale."""
    n, p = A.shape
    At = np.asfortranarray(A).T  # C-ordered; At[j] is column j
    peak = np.abs(At).max(axis=1)
    candidates = peak.nonzero()[0]
    while True:
        kept = candidates[:n]
        full = len(kept) == p
        scale, ((qr, tau),), aliased = _scaled_qrs(At if full else At[kept],
                                                   peak if full else peak[kept])
        first = aliased.nonzero()[0]
        if not first.size:
            return kept.tolist(), qr, tau, scale
        candidates = np.delete(candidates, first[0])


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


def _embed(values: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    if len(kept) == p:
        return values
    out = np.zeros(p)
    out[kept] = values
    return out


def _embed_cov(cov_kept: np.ndarray, kept: list[int], p: int) -> np.ndarray:
    if len(kept) == p:
        return cov_kept
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


def _factorise(X: np.ndarray, y: np.ndarray):
    """Check the inputs of a fit and factorise its design (`_householder`)."""
    if not X.shape[0]:
        raise RankDeficientError("no observations to fit")
    if not X.shape[1]:
        raise DomainError("model spec generates no design columns")
    if not np.isfinite(X).all():
        raise DomainError("design matrix contains non-finite values")
    if not np.isfinite(y).all():
        raise DomainError("outcome contains non-finite values")
    return _householder(X)


def _check_rank(kept: list[int], n: int) -> None:
    if not kept:
        raise RankDeficientError("no usable design columns")
    if n <= len(kept):
        raise RankDeficientError(
            f"{n} observations cannot identify {len(kept)} coefficients"
        )


def _irls(fits, max_iter: int = MAX_ITER) -> list:
    """Binomial-logit IRLS of independent fits in lock step (see the module
    docstring), one stack per shape. Fit i is (X, y, factors): a design, its
    0/1 outcome and the `_factorise` result (kept, qr, tau, scale) of X.

    Every starting weight is equal, so a fit's first step is the unweighted
    least squares problem and reuses `factors`; later steps factorise the
    weighted design. Returns, per fit, (beta, R, deviance, converged,
    iterations), R being the triangular factor of the last weighted design,
    or the RankDeficientError of a design that lost rank under the weights."""
    out: list = [None] * len(fits)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (X, _, (kept, *_)) in enumerate(fits):
        shapes.setdefault((len(X), len(kept)), []).append(i)
    for ids in shapes.values():
        Xt = np.stack([fits[i][0][:, fits[i][2][0]].T for i in ids])  # Xt[j].T is X[:, kept]
        y = np.stack([fits[i][1] for i in ids])
        mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
        eta = np.log(mu / (1.0 - mu))
        deviance = _binomial_deviance(y, mu)
        for i, dev in zip(ids, deviance.tolist()):  # the result when max_iter < 1
            out[i] = (np.zeros(Xt.shape[1]), np.eye(Xt.shape[1]), dev, False, 0)
        for iterations in range(1, max_iter + 1):
            w = np.maximum(mu * (1.0 - mu), _MU_EPS)
            z = eta + (y - mu) / w
            reuse = (w == w[:, :1]).all(axis=1) & (iterations == 1)
            if not reuse.all():  # a weighted design with an aliased column lost rank
                sw = np.sqrt(w)
                A = Xt * sw[:, None, :]
                scales, qrs, aliased = _scaled_qrs(A, np.abs(A).max(axis=2))
                lost, b = aliased.any(axis=1), z * sw
            for j, i in enumerate(ids):
                if reuse[j]:
                    (_, qr, tau, scale), rhs, rw = fits[i][2], z[j], math.sqrt(w[j, 0])
                elif lost[j]:
                    out[i] = RankDeficientError("design lost rank under the working weights")
                    continue
                else:
                    (qr, tau), scale, rhs, rw = qrs[j], scales[j], b[j], None
                out[i] = _solve(qr, tau, scale, rhs), qr, scale, rw
                eta[j] = Xt[j].T @ out[i][0]
            mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
            new_deviance = _binomial_deviance(y, mu)
            change = np.abs(new_deviance - deviance)
            done = (change <= DEVIANCE_RTOL * (np.abs(new_deviance) + 0.1)).tolist()
            deviance, stay = new_deviance, []
            for j, (i, dev) in enumerate(zip(ids, deviance.tolist())):
                if isinstance(out[i], ModelBuildError):
                    continue
                if done[j] or iterations == max_iter:
                    beta, qr, scale, rw = out[i]
                    R = _r_factor(qr, scale) if rw is None else _r_factor(qr, scale) * rw
                    out[i] = (beta, R, dev, done[j], iterations)
                else:
                    stay.append(j)
            if not stay:
                break
            if len(stay) < len(ids):
                ids = [ids[j] for j in stay]
                Xt, y, eta, mu, deviance = Xt[stay], y[stay], eta[stay], mu[stay], deviance[stay]
    return out


def _fit_chunk(fits, family: Family, max_iter: int = MAX_ITER) -> list:
    """(beta, R, deviance, converged, iterations) of the fit of the kept
    columns of each (X, y, factors) of `fits`, `factors` being the
    `_factorise` result of X, or the ModelBuildError it raises. Binomial fits
    run together (`_irls`); a Gaussian fit's R, that of `factors`, is None."""
    if family is Family.BINOMIAL:
        return _irls(fits, max_iter)
    out = []
    for X, y, (kept, qr, tau, scale) in fits:
        beta = _solve(qr, tau, scale, y)
        # X[:, kept] is an F-ordered copy; an F-ordered X that keeps every
        # column is the same operand, so it gives the same product
        Xk = X if len(kept) == X.shape[1] and X.flags.f_contiguous else X[:, kept]
        resid = y - Xk @ beta
        out.append((beta, None, float(resid @ resid), True, 1))
    return out


def score_designs(designs: Iterable[tuple[np.ndarray, np.ndarray, tuple | None]],
                  family: Family, column_labels: tuple[str, ...] | None = None):
    """Yield, for each (X, y, factors) of `designs`, the deviance of its fit
    (that of `fit_design`, bit for bit), its coefficients and its `_factorise`
    result, or the ModelBuildError that fitting it raises. `factors` is that
    of X and y when the caller has it, else None. Designs are read
    `_LOCKSTEP_FITS` at a time and fitted together (`_fit_chunk`); with
    `column_labels`, dropped columns warn as in `fit_design`."""
    designs = iter(designs)
    while chunk := list(itertools.islice(designs, _LOCKSTEP_FITS)):
        checked = []
        for X, y, factors in chunk:
            try:
                factors = _factorise(X, y) if factors is None else factors
                _check_rank(factors[0], len(y))
                checked.append((X, y, factors, None))
            except ModelBuildError as exc:
                checked.append((X, y, factors, exc))
        results = iter(_fit_chunk([fit[:3] for fit in checked if fit[3] is None], family))
        for X, _, factors, error in checked:
            if factors is not None and column_labels is not None:
                _dropped(column_labels, factors[0])  # in order, as a fit of each would
            result = error or next(results)
            if not isinstance(result, ModelBuildError):
                result = (result[2], _embed(result[0], factors[0], X.shape[1]), factors)
            yield result


def _dropped(column_labels: tuple[str, ...], kept: list[int]) -> tuple[str, ...]:
    """The labels of the columns not kept, warned of at the caller's caller."""
    dropped = tuple(label for j, label in enumerate(column_labels) if j not in kept)
    if dropped:
        warnings.warn(f"dropping aliased design columns: {', '.join(dropped)}", stacklevel=4)
    return dropped


def fit_design(X: np.ndarray, y: np.ndarray, family: Family, column_labels: tuple[str, ...],
               max_iter: int = MAX_ITER, factors=None, spec: ModelSpec | None = None) -> FitResult:
    """Fit a prebuilt design matrix. Core engine behind `fit` and the searches.

    `factors` is the `_factorise` result of this X and y when the caller
    already has it; `spec`, the model spec X was built from, is recorded in
    the result."""
    n, p = X.shape
    factors = _factorise(X, y) if factors is None else factors
    kept = factors[0]
    dropped = _dropped(column_labels, kept)
    _check_rank(kept, n)

    (result,) = _fit_chunk([(X, y, factors)], family, max_iter)
    if isinstance(result, ModelBuildError):
        raise result
    beta_k, R, deviance, converged, iterations = result
    if family is Family.GAUSSIAN:
        cov_kept = _cov_from_r(_r_factor(factors[1], factors[3])) * (deviance / (n - len(kept)))
        log_likelihood, separation = gaussian_log_likelihood(deviance, n), False
    else:
        separation = bool(np.max(np.abs(beta_k)) > SEPARATION_COEF)
        cov_kept = _cov_from_r(R)
        log_likelihood = -deviance / 2.0
    return FitResult(
        coefficients=_embed(beta_k, kept, p),
        covariance=_embed_cov(cov_kept, kept, p),
        deviance=deviance,
        log_likelihood=log_likelihood,
        model_df=len(kept),
        n=n,
        converged=converged,
        iterations=iterations,
        family=family,
        column_labels=column_labels,
        spec=spec,
        separation=separation,
        dropped_columns=dropped,
    )


def _binomial_deviance(y: np.ndarray, mu: np.ndarray):
    """Deviance of each row of the outcome y at the means mu."""
    return -2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu), axis=-1)


def fit(dataset: Dataset, spec: ModelSpec, max_iter: int = MAX_ITER) -> FitResult:
    """Fit a model spec to a dataset by maximum likelihood.

    Gaussian fits solve the least squares problem in one step; binomial fits
    iterate reweighted least squares until the relative deviance change falls
    below `DEVIANCE_RTOL`. Non-convergence is reported through the `converged` flag, and
    suspected separation (huge logit coefficients) through `separation`.
    """
    X, labels, _ = design_matrix(dataset, spec)
    return fit_design(X, dataset.outcome, dataset.family, labels, max_iter, spec=spec)


def _well_conditioned(p, vif_sum, yy, rss):
    """Whether the residual condition estimate (1 + 2 kappa) ||y|| / ||r||,
    kappa^2 <= p * vif_sum, is at most `SCREEN_MAX_CONDITION` and the
    residual sum of squares finite; elementwise, and NaN fails."""
    with np.errstate(all="ignore"):
        return (((1.0 + 2.0 * np.sqrt(p * vif_sum)) * np.sqrt(yy / rss) <= SCREEN_MAX_CONDITION)
                & np.isfinite(rss))


def _residual_updates(W: np.ndarray, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Householder QR R of each block of rows of the finite W (m
    indices into W) followed by its last row r. Returns the residual sum of
    squares of r on each block, R_mm^2, and ||R_b^-1||_F^2 of R_b = R[:m, :m]
    from its singular values (inf when R_b is singular)."""
    m = blocks.shape[1]
    rows = np.column_stack([blocks, np.full(len(blocks), len(W) - 1)])
    R = np.linalg.qr(W[rows].transpose(0, 2, 1), mode="r")
    return R[:, m, m] ** 2, (np.linalg.svd(R[:, :m, :m], compute_uv=False) ** -2.0).sum(axis=1)


def contenders(bounds: Sequence[tuple[float, float] | None]) -> list[bool]:
    """Whether each value, bounded by (low, high) or unbounded (None), may be
    the least: its low bound reaches the least high bound, or it has none."""
    cut = min((b[1] for b in bounds if b is not None), default=math.inf)
    return [b is None or b[0] <= cut for b in bounds]


def p_value_bounds(rows: Sequence[tuple]) -> list[tuple[float, float] | None]:
    """(low, high) bounds on the Gaussian `Design.p_value` of each row (n,
    reduced, full, df), `reduced` and `full` being deviance bounds, on n
    observations and df degrees of freedom, in one vectorised pass: the tails
    at the bounds of n log(reduced / full), in whose last bit np.log and
    math.log may differ; None where `full` is, or where the statistic may
    fall below -`NESTED_TOL` and `p_value` raises."""
    if not rows:
        return []
    n, reduced, full, df = zip(*rows)
    k = len(df)
    reduced = np.array(reduced)
    full = np.array([b or (math.nan, math.nan) for b in full])
    with np.errstate(all="ignore"):
        stats = np.array(n * 2, dtype=float) * np.log(np.concatenate([reduced[:, 1] / full[:, 0],
                                                                      reduced[:, 0] / full[:, 1]]))
    tails = np.minimum(np.maximum(chdtrc(np.array(df * 2, dtype=float),
                                         np.maximum(stats, 0.0)), 0.0), 1.0)
    nested = (stats[k:] >= -NESTED_TOL).tolist()
    return [(low, high) if ok else None
            for low, high, ok in zip(tails[:k].tolist(), tails[k:].tolist(), nested)]


def first_error(results: list) -> list:
    """A batch's `results`, one per item, unless one is a ModelBuildError:
    then the first such is raised."""
    for result in results:
        if isinstance(result, ModelBuildError):
            raise result
    return results


@dataclass(eq=False)
class Basis:
    """A variable's 16 basis columns in a `Design` (`fp._basis`): their
    pre-transformation and centre, each FP candidate's columns, and their
    screen once `addition_bounds` has prepared it."""

    pre: PreTransform
    center_at: float | None
    blocks: dict[FpPowers, tuple[int, ...]]
    screen: tuple | None = None


class Design:
    """The design of every term a search can use, built once. The design of
    terms from it (with the spec's intercept) is a column subset equal to
    `design_matrix` of the spec with those terms, in the given order. The 16
    basis columns (`Basis`) of each (variable, pre or None for
    `pretransform`, center_at) of `bases` follow, so each FP candidate, and
    each FP term of that pre-transformation and centre, is a subset too:
    `mfp` builds one design per analysis, a standalone search one of its
    adjustment and variable. One memo keeps the factorisation of every subset
    scored, fitted or bounded, keyed by the subset; gathered designs are not
    kept. `mfp` empties it at each visit (`forget`): searches seldom share a
    subset, and a memo kept for a whole analysis raised its peak memory 1.24x
    to save 4.4 of ~103 factorisations."""

    def __init__(self, dataset: Dataset, spec: ModelSpec, extra: Sequence[Term] = (),
                 bases: Sequence[tuple[str, PreTransform | None, float | None]] = ()):
        union = ModelSpec(tuple(dict.fromkeys(spec.terms + tuple(extra))), spec.intercept,
                          check_labels=False)
        self.dataset = dataset
        self.intercept = spec.intercept
        self.X, self.labels, self.term_columns = design_matrix(dataset, union)
        self.bases: dict[str, Basis] = {}
        columns = [self.X]
        for variable, pre, center_at in bases:
            x = dataset.column(variable)
            pre = pretransform(x) if pre is None else pre
            columns.append(_basis(pre.apply(x), center_at))
            self.bases[variable] = Basis(pre, center_at, _candidate_blocks(len(self.labels)))
            self.labels += _basis_labels(variable)
        if bases:
            self.X = np.hstack(columns)
        self._factorisations: dict[tuple[int, ...], tuple] = {}

    def forget(self) -> None:
        """Empty the factorisation memo."""
        self._factorisations.clear()

    @cached_property
    def _sq_norms(self) -> list[float]:
        return np.einsum("ij,ij->j", self.X, self.X).tolist()

    @cached_property
    def _yy(self) -> float:
        return float(np.einsum("i,i", self.dataset.outcome, self.dataset.outcome))

    def columns(self, terms: Sequence[Term]) -> tuple[int, ...]:
        """The column subset of the design of `terms`, with the intercept."""
        cols = [0] if self.intercept else []
        for term in terms:
            block = self.term_columns.get(term)
            if block is None:  # an FP term of a basis, of its pre and centre
                basis, fp = self.bases.get(term.variable), term.transform
                if basis is None or getattr(fp, "pre", None) != basis.pre or (
                        fp.center_at != basis.center_at):
                    raise KeyError(term)
                block = self.term_columns[term] = basis.blocks[fp.powers]
            cols.extend(block)
        return tuple(cols)

    def _factors(self, cols: tuple[int, ...]):
        """The `_factorise` result of a column subset's design, memoised."""
        if cols not in self._factorisations:
            self._factorisations[cols] = _factorise(self.X[:, cols], self.dataset.outcome)
        return self._factorisations[cols]

    def scores(self, models: Sequence[Sequence[Term]]) -> list[tuple[float, int]]:
        """`batch_scores` of each model's terms, raising the first failing model's error."""
        return first_error(Design.batch_scores([(self, self.columns(model)) for model in models]))

    @staticmethod
    def batch_scores(subsets: Sequence[tuple[Design, tuple[int, ...]]]) -> list:
        """(deviance, model df) of the fit of each (design, column subset), of
        one family, or the ModelBuildError that fitting it raises, scored
        together by `score_designs` as it gathers them; a subset is a tuple,
        as `columns` gives, keying its design's memo."""
        family = subsets[0][0].dataset.family if subsets else None
        out = []
        for (design, cols), scored in zip(subsets, score_designs(
                ((design.X[:, cols], design.dataset.outcome, design._factorisations.get(cols))
                 for design, cols in subsets), family)):
            if not isinstance(scored, ModelBuildError):
                design._factorisations[cols] = scored[2]
                scored = scored[0], len(scored[2][0])
            out.append(scored)
        return out

    def fit(self, spec: ModelSpec) -> FitResult:
        """Fit of `spec` from the column subset of its terms."""
        cols = self.columns(spec.terms)
        return fit_design(self.X[:, cols], self.dataset.outcome, self.dataset.family,
                          tuple(self.labels[c] for c in cols), factors=self._factors(cols),
                          spec=spec)

    def removal_bounds(self, spec: ModelSpec,
                       current: FitResult) -> list[tuple[float, float]] | None:
        """(low, high) bounds on the deviance of dropping each term of `spec`,
        in spec order, from the Gaussian fit `current` of `spec` by the Wald
        update (see the module docstring); None when the bounds are not
        guaranteed. Scalars are Python floats, which overflow to inf without
        a warning."""
        dev, p, n = current.deviance, current.model_df, self.dataset.n
        if (self.dataset.family is not Family.GAUSSIAN or current.dropped_columns
                or not dev > 0.0 or not (self.intercept or len(spec.terms) > 1)):
            return None
        blocks = [self.term_columns[term] for term in spec.terms]
        cols = [0] * self.intercept + [c for block in blocks for c in block]
        norms = [self._sq_norms[c] for c in cols]
        var = current.covariance.diagonal().tolist()
        if min(norms + var) < _TINY:
            return None
        sigma2 = dev / (n - p)
        if not _well_conditioned(p, sum(map(operator.mul, norms, var)) / sigma2, self._yy, dev):
            return None
        beta = current.coefficients.tolist()
        reduced = []
        end = self.intercept
        for block in blocks:
            start, end = end, end + len(block)
            if len(block) == 1:
                delta = beta[start] * beta[start] / var[start]
            else:
                b = current.coefficients[start:end]
                with np.errstate(all="ignore"):
                    delta = float(b @ np.linalg.solve(current.covariance[start:end, start:end], b))
            approx = dev + delta * sigma2
            if not math.isfinite(approx):
                return None
            reduced.append((max(approx * (1.0 - SCREEN_RTOL), dev), approx * (1.0 + SCREEN_RTOL)))
        return reduced

    def addition_bounds(self, terms: Sequence[Term],
                        blocks: Sequence[Sequence[int]] | Basis) -> list[tuple[float, float] | None]:
        """(low, high) bounds on the deviance of the Gaussian fit of `terms`
        plus each block of the design's columns, by the residual update (see
        the module docstring); None where they are not guaranteed. A `Basis`
        of the design stands for its candidates' blocks and keeps their
        preparation, which does not depend on `terms`. Only the columns the
        blocks name are transformed. A bounded block keeps all its columns in
        its fit."""
        basis = blocks if isinstance(blocks, Basis) else None
        blocks = list(basis.blocks.values()) if basis else blocks
        bounds: list[tuple[float, float] | None] = [None] * len(blocks)
        if self.dataset.family is not Family.GAUSSIAN or not blocks:
            return bounds
        try:
            cols = self.columns(terms)
            kept, qr, tau, _ = self._factors(cols)
        except ModelBuildError:
            return bounds
        screen = basis and basis.screen
        if not screen:  # the named columns scaled, then y; per block size, rows among them
            named = sorted({c for block in blocks for c in block})
            columns = self.X.take(named, axis=1)
            sizes = np.array([len(block) for block in blocks])
            with np.errstate(all="ignore"):
                C = columns / np.ldexp(0.5, np.frexp(np.abs(columns).max(axis=0))[1])
                M = np.empty((len(columns), len(named) + 1), order="F")
                M[:, :-1] = C / np.sqrt(np.einsum("ij,ij->j", C, C))
            M[:, -1] = self.dataset.outcome
            M[:, ~np.isfinite(M).all(axis=0)] = 0.0  # a zero column has no bounds
            screen = M, sizes, [(group, np.searchsorted(named, [blocks[i] for i in group]))
                                for group in map(np.flatnonzero, sizes == np.unique(sizes)[:, None])]
            if basis:
                basis.screen = screen
        M, sizes, groups = screen
        (n, k), q = qr.shape, M.shape[1] - 1
        if len(kept) != len(cols) or n - k <= q:
            return bounds
        rss, vif_block = np.empty(len(blocks)), np.empty(len(blocks))
        with np.errstate(all="ignore"):
            r_base = np.triu(qr[:k])
            vif_base = float((np.linalg.svd(r_base / np.sqrt(np.einsum("ij,ij->j", r_base, r_base)),
                                            compute_uv=False) ** -2.0).sum())
            # Q'[C | y] below the design's rows, reduced to its own R
            qtm, _, info = dormqr("L", "T", qr, tau, M, 32 * (q + 1))
            _check_info("dormqr", info)
            tail, _, _, info = dgeqrf(qtm[k:], overwrite_a=True)
            _check_info("dgeqrf", info)
            W = np.triu(tail[:q + 1]).T
            for group, rows in groups:  # rows of W by position
                rss[group], vif_block[group] = _residual_updates(W, rows)
            vif_sum = vif_base + vif_block * (1.0 + sizes * vif_base)
        ok = (_well_conditioned(k + sizes, vif_sum, self._yy, rss) & (k + sizes < n)).tolist()
        return [(d * (1.0 - SCREEN_RTOL), d * (1.0 + SCREEN_RTOL)) if good else None
                for d, good in zip(rss.tolist(), ok)]

    def p_value(self, reduced: tuple[float, int], full: tuple[float, int],
                df: int | None = None) -> tuple[float, int]:
        """Likelihood-ratio p-value and df of nested (deviance, model df)
        scores; df defaults to the difference of the model dfs, at least 1."""
        if df is None:
            df = max(full[1] - reduced[1], 1)
        return deviance_p_value(self.dataset.family, self.dataset.n, reduced[0], full[0], df), df


def deviance_p_value(family: Family, n: int, deviance_reduced: float,
                     deviance_full: float, df: int) -> float:
    """P-value of the likelihood-ratio test of a reduced against a full model
    on the same n observations, from their deviances: the tail of chi-square
    with `df` degrees of freedom at the statistic -2 (ll_reduced - ll_full).

    The reduced model must be nested in the full one. For the binomial family
    the statistic is the deviance difference. For the Gaussian family, where
    the deviance is the scale-dependent residual sum of squares, it is the
    profile-likelihood form n log(rss_r / rss_f), which is invariant to affine
    rescaling of the outcome.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if family is not Family.GAUSSIAN:
        stat = deviance_reduced - deviance_full
    elif deviance_full > 0.0:
        stat = n * math.log(deviance_reduced / deviance_full)
    else:
        stat = 0.0 if deviance_reduced <= 1e-12 else math.inf
    if stat < -NESTED_TOL:
        raise NotNestedError(
            f"reduced model fits better than full (statistic {stat:.3g}); models not nested"
        )
    return chi2_sf(max(stat, 0.0), df)


def deviance_test(fit_reduced: FitResult, fit_full: FitResult, df: int) -> float:
    """`deviance_p_value` of two fits."""
    if fit_reduced.n != fit_full.n:
        raise NotNestedError("fits are on different numbers of observations")
    if fit_reduced.family is not fit_full.family:
        raise NotNestedError("fits are from different families")
    return deviance_p_value(fit_full.family, fit_full.n, fit_reduced.deviance,
                            fit_full.deviance, df)
