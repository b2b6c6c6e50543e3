"""Generalized linear model fitting by iteratively reweighted least squares.

Supports Gaussian-identity and binomial-logit models. Every least squares
solve (a Gaussian fit, an IRLS step) is one LAPACK Householder QR of the
design; exactly collinear design columns are dropped left-to-right with a
warning instead of aborting, which keeps exhaustive transformation searches
alive when a candidate basis degenerates.

Every search scores its candidate models with one scorer, `score_designs`,
whose record of a fit (`Fit`: deviance, model df, coefficients, binomial R,
convergence, iterations and factorisation) has the deviance of `fit_design`
bit for bit, and fits only the model it returns. Nested models are compared
through `Design`, built once: each is a column subset of it (an FP candidate
or term too, from its variable's basis columns, which follow the terms'),
scored by one entry, `Design.batch_scores` of (design, column subset) pairs
of one design or several, with a `Fit` or an error per pair (`Design.scores`
raises the first, `first_error`), tested (`Design.p_value`) and fitted, and
one memo keyed by the subset holds every `Fit` (for one visit, in `mfp`): a
later score of the model, a selection step to it (`Design.steps`) and its
`FitResult` (`Design.fit`) read it instead of fitting the model again.

The scorer fits its designs `_LOCKSTEP_FITS` at a time, binomial ones (folds,
FP candidates, an elimination step's removals) in lock step (`_irls`): the
clip, `_expit`, weights, working responses, sqrt(w) and column scaling,
aliasing test (`_scaled_qrs`, shared with `_householder`), unscaling of the
coefficients, X @ beta and deviances of a stack take one numpy call per step,
while each fit keeps its own QR, `dormqr` and `dtrtrs`, first-step reuse and
convergence test. Each fit equals its fit alone bit for bit by three rules:
X @ beta is one np.matmul of F-ordered (n, k) views, as X[:, kept] is (a
C-ordered one takes another dgemv summation order); only fits of equal shape
are stacked (padding would change numpy's pairwise row sums); and a stack
holds at most `_LOCKSTEP_FITS` fits, as `score_designs` reads no more at a
time (200 folds in one stack raised the peak RSS of 20 `shrink_loo` analyses
from 65.7 to 81.2 MB, 16 by 0.0 MB).
`_stacked_factors` factorises designs of one shape in one `_scaled_qrs` call,
and an aliased one goes on from there (`_householder`): `Design.steps` uses
it, `score_designs` for binomial chunks only (stacked Gaussian chunks made
`mfp_gauss` analyses 4-8% slower).

Gaussian searches need not score every candidate. A QR update of the
current fit gives each candidate's residual sum of squares, which `Design`
turns into bounds, times 1 -/+ `SCREEN_RTOL`, on its deviance. An FP search
compares those; a selection step turns them into bounds on its p-value
(`p_value_bounds`, one pass for removals and additions alike). Only
candidates whose bounds admit the best value are scored, so a search picks
what scoring every candidate would; a selection step left with one, its
p-value bounds on one side of the threshold, scores none.
Dropping a block B of columns raises the sum by b_B' V_BB^-1 b_B,
V = (R'R)^-1 = covariance / sigma^2, from the R of the current model's
`Fit` factorisation (`removal_bounds`); adding a block C lowers it by
r' C+ (C+' C+)^-1 C+' r, C+ being C orthogonalised against the design and r
the residual (`addition_bounds`; Miller 2002, *Subset Selection in
Regression*, ch. 2; Efroymson 1960). There one `dormqr` applies the design's
reflectors to the blocks' columns and to y, the rows below the design's
are reduced to their own R, and a batched Householder QR of each block then
r gives its sum; no Gram matrix, which squares the condition, is formed.
The bounds must contain the deviance that `score_designs` computes. All come
from backward-stable Householder QRs (Higham 2002, *Accuracy and Stability of
Numerical Algorithms*, thms 19.4 and 20.3), so a computed residual r has a
relative error of order u c, u = 2^-53, c = (1 + 2 kappa) ||y|| / ||r|| (Golub
& Van Loan, *Matrix Computations*, thm. 5.3.1), kappa being the condition of
the larger model's p columns scaled to unit norm: kappa^2 <= p ||R^-1||_F^2 =
p sum_j VIF_j. A first guard (`_well_conditioned`) bounds when this c is at
most `SCREEN_MAX_CONDITION` = 1e6, so u c <= 1.1e-10. A removal reads VIF_j =
||x_j||^2 V_jj from the `Fit`, ||x_j||^2 from R. An m-column addition has R =
[[R_A, S], [0, R_C]] with ||S||_2 <= sqrt(m), so sum VIF <= V_A + V_C (1 + m
V_A), V_A = ||R_A^-1||_F^2 and V_C = ||R_C^-1||_F^2 of the orthogonalised
block. The deviance ||r||^2 is better conditioned than r: as A'r = 0, (dA, dy)
move it by 2 r'(dy - dA beta) to first order, so its relative error is of
order u c1 + (u kappa)^2, c1 = (||y|| + sum_j |beta_j| ||a_j||) / ||r|| <= c,
for the update and the exact scorer alike. An addition that fails the first
guard, as every one does once the adjustment holds an ill-conditioned FP2
term, gets a second (`_deviance_conditioned`) from the update's own factor:
beta_C from R_C^-1 and the last column of the block's R,
beta_A = R_A^-1 (Q_A'y - S beta_C) from one triangular solve per call. It is
bounded when u c1 + u^2 kappa^2 <= `SCREEN_RTOL` / 20 and each diagonal of
R_C, a unit column's distance from the ones before it, exceeds 1e4
`PIVOT_TOL`, so that the exact fit, which drops a column at `PIVOT_TOL`, keeps
every column the update does. The first guard implies the second (its kappa^2
<= 2.5e11 puts R_C's diagonals above 2e-6), so a call whose blocks all pass it
computes no c1. The removal guard failed 0 of 4,620 times in 20 `stability_be`
analyses and has no second.
Measured relative errors: removals, with V from the `Fit`'s R, at most
0.077 u c on 3,000 random designs (c up to 3e16; a V from the fit's covariance
gave the same) and 1.3e-15 on 11,328 removals of `stability_be` steps;
additions, at most 1.71 u c on 198,000 candidates of 4,500 random FP searches
(collinear, offset and rescaled adjustments, c up to 1e15) and 6.7e-14 on the
16,764 of 24 `mfp_gauss` datasets, 94% of them bounded, where a degree's best
two came within 1.2e-9 (FP1) and 1.7e-9 (FP2) and were scored. Of the 26,246
candidates of the 900 stored `mfp_gauss` benchmark references (seeds 1 and
8191) that fail the first guard, the second bounds 17,246, every one holding,
with errors of at most 2.9e-8 (`SCREEN_RTOL` / 34); the 16,129 within
`SCREEN_RTOL` / 100 erred by at most 1.57 u c1. A model with dropped or no
columns or fewer residual rows than candidate columns, a zero deviance and
over- or underflow give no bounds.

Binomial removals are bounded by duality (Boyd & Vandenberghe 2004, *Convex
Optimization*, sec. 5; Koh, Kim & Boyd 2007, *JMLR* 8): by Fenchel-Young,
log(1 + e^eta) - y eta >= (alpha - y) eta + H(alpha) for alpha in [0, 1], H
the binary entropy, so an alpha with X'alpha = X'y bounds the least deviance
on X below by 2 sum H(alpha); the deviance at any beta bounds it above. From
the current coefficients, the term's zeroed, `_dual_bounds` takes a Newton
step d at the current weights W: alpha = mu + W X d meets X'alpha = X'y by
the step's normal equations, whatever W, and beta + d gives the high bound (a
second step where alpha leaves (0, 1)). The computed X'(alpha - y) = r moves
the low bound by 2 r'beta, so it needs 2 sum_j (|r_j| + n u sum_i |x_ij|)
|beta_j| <= `SCREEN_RTOL` / 10 of it. The margin is the Gaussian one, the low
bound at least the current deviance; an unconverged fit, dropped columns or a
coefficient beyond `SEPARATION_COEF` give none. The high bound presumes an
exact fit at the optimum, so `selection` checks each scored removal against
its bounds. Of the 29,551 removals of the 1,000 stored `shrink_loo`
references (seeds 1 and 8191), 0.04% had no bounds and every bound held its
scored deviance; without the margin, no low bound lay above it (the closest
1.8e-13 relative below) and high bounds fell short by at most 4.3e-12.

Work counts. `WORK`, a `collections.Counter`, counts work where it is done. A
reader copies it and subtracts afterwards, exact when one thread does the work:
- "designs factorised": by `_scaled_qrs`, a stack counting its depth, aliasing
  retries and IRLS steps included;
- "models fitted": by `_fit_chunk`, each a least squares solve or an IRLS run,
  so a model fitted again counts again;
- "IRLS runs" and "IRLS iterations": `_irls` calls, each advancing its fits in
  lock step, and the iterations of the fits they return (none for a fit that
  lost rank), of which "in elimination" inside `selection._eliminate`;
- "bound steps": systems `_dual_bounds` solves, one per removal per Newton step.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

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
WORK: Counter[str] = Counter(dict.fromkeys(("designs factorised", "models fitted", "IRLS runs",
                                            "IRLS iterations", "in elimination", "bound steps"), 0))


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


class Fit(NamedTuple):
    """The fit of a design's kept columns (`_fit_chunk`), all `fit_design` needs for
    its `FitResult`: its score (deviance, model df) first, β over every column (0 where
    dropped), a binomial fit's last weighted R (None for a Gaussian fit, whose R is
    `_r_factor` of `factors`), convergence, iterations and the `_factorise` result."""

    deviance: float
    model_df: int
    coefficients: np.ndarray
    r: np.ndarray | None
    converged: bool
    iterations: int
    factors: tuple


def _expit(eta: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


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
    WORK["designs factorised"] += 1 if At.ndim == 2 else len(At)
    scales = np.ldexp(0.5, np.frexp(peak)[1])
    As = At / scales[..., None]
    norms = np.sqrt(np.einsum("...ij,...ij->...i", As, As))
    qrs = []
    for A in (As,) if As.ndim == 2 else As:  # dgeqrf works in place on the F-ordered A.T
        qr, tau, _, info = dgeqrf(A.T, overwrite_a=True)
        if info:
            _check_info("dgeqrf", info)
        qrs.append((qr, tau))
    return scales, qrs, np.abs(As.diagonal(axis1=-2, axis2=-1)) <= PIVOT_TOL * norms


def _householder(A: np.ndarray, attempt=None):
    """Householder QR (`_scaled_qrs`) of the columns of A that the aliasing
    rule keeps.

    Zero columns are dropped up front; then the first aliased column is
    dropped and the remaining columns are factorised again, so a full-rank
    design takes one call, with no fancy-index copy. Columns beyond the n-th
    kept one are aliased; `attempt`, the `_scaled_qrs` result of A when no
    column is zero and p <= n, stands for the first call. Returns (kept, qr,
    tau, scale), the factorisation of A[:, kept] / scale."""
    n, p = A.shape
    At = np.asfortranarray(A).T  # C-ordered; At[j] is column j
    peak = np.abs(At).max(axis=1)
    candidates = peak.nonzero()[0]
    while True:
        kept = candidates[:n]
        full = len(kept) == p
        scale, ((qr, tau),), aliased = attempt or _scaled_qrs(At if full else At[kept],
                                                              peak if full else peak[kept])
        first, attempt = aliased.nonzero()[0], None
        if not first.size:
            return kept.tolist(), qr, tau, scale
        candidates = np.delete(candidates, first[0])


def _stacked_factors(designs) -> list:
    """The `_factorise` result of each (X, y) of `designs` whose (n, k) shape,
    k <= n, others share, with finite nonzero columns and y, else None: they
    share one `_scaled_qrs` call for their first attempt."""
    out, shapes = [None] * len(designs), {}
    for i, (X, _) in enumerate(designs):
        if 0 < X.shape[1] <= X.shape[0]:
            shapes.setdefault(X.shape, []).append(i)
    for ids in (ids for ids in shapes.values() if len(ids) > 1):
        At = np.empty((len(ids), *designs[ids[0]][0].shape[::-1]))
        for j, i in enumerate(ids):  # C-ordered, unlike an np.stack of the transposes
            At[j] = designs[i][0].T  # At[j, c] is column c of design i
        peak = np.abs(At).max(axis=2)
        usable = (((peak > 0.0) & np.isfinite(peak)).all(axis=1)  # NaN fails
                  & np.isfinite([designs[i][1] for i in ids]).all(axis=1))
        if not usable.all():  # the others are left to `_factorise`
            At, peak, ids = At[usable], peak[usable], [i for i, u in zip(ids, usable) if u]
        scales, qrs, aliased = _scaled_qrs(At, peak)
        for j, (i, lost) in enumerate(zip(ids, aliased.any(axis=1).tolist())):
            out[i] = (_householder(designs[i][0], (scales[j], qrs[j:j + 1], aliased[j])) if lost
                      else (list(range(At.shape[1])), *qrs[j], scales[j]))
    return out


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
    """A vector, or a matrix, over the kept of p columns, zero elsewhere."""
    if len(kept) == p:
        return values
    out = np.zeros((p,) * values.ndim)
    out[np.ix_(*[kept] * values.ndim)] = values
    return out


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
    outcome and the `_factorise` result (kept, qr, tau, scale) of X.

    Every starting weight is equal, so a fit's first step is the unweighted
    least squares problem and reuses `factors`; later steps factorise the
    weighted design. Returns, per fit, (beta, R, deviance, converged,
    iterations), R being the triangular factor of the last weighted design,
    or the ModelBuildError of the fit: a DomainError for an outcome not all 0
    or 1, a RankDeficientError for a design that lost rank under the weights."""
    out: list = [None] * len(fits)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, (X, _, (kept, *_)) in enumerate(fits):
        shapes.setdefault((len(X), len(kept)), []).append(i)
    for shape, ids in shapes.items():
        y = np.stack([fits[i][1] for i in ids])
        binary = ((y == 0.0) | (y == 1.0)).all(axis=1)
        if not binary.all():
            for i in np.array(ids)[~binary].tolist():
                out[i] = DomainError("binomial outcome must contain only 0 and 1")
            ids, y = [i for i, b in zip(ids, binary) if b], y[binary]
            if not ids:
                continue
        Xt = np.empty((len(ids), *shape[::-1]))
        for j, (X, _, (kept, *_)) in enumerate(fits[i] for i in ids):  # C-ordered
            Xt[j] = X.T if len(kept) == X.shape[1] else X[:, kept].T  # Xt[j].T is X[:, kept]
        mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
        eta = np.log(mu / (1.0 - mu))
        deviance = _binomial_deviance(y, mu)
        for iterations in range(1, max_iter + 1):
            w = np.maximum(mu * (1.0 - mu), _MU_EPS)
            z = eta + (y - mu) / w
            reuse = ((w == w[:, :1]).all(axis=1).tolist() if iterations == 1
                     else [False] * len(ids))
            if not all(reuse):  # a weighted design with an aliased column lost rank
                sw = np.sqrt(w)
                A = Xt * sw[:, None, :]
                scales, qrs, aliased = _scaled_qrs(A, np.abs(A).max(axis=2))
                lost, b = aliased.any(axis=1).tolist(), z * sw
            betas, scaling = np.zeros((len(ids), Xt.shape[1])), np.ones((len(ids), Xt.shape[1]))
            for j, i in enumerate(ids):
                if reuse[j]:
                    (_, qr, tau, scaling[j]), rhs, rw = fits[i][2], z[j], math.sqrt(w[j, 0])
                elif lost[j]:
                    out[i] = RankDeficientError("design lost rank under the working weights")
                    continue
                else:
                    (qr, tau), scaling[j], rhs, rw = qrs[j], scales[j], b[j], None
                qtb, _, info = dormqr("L", "T", qr, tau, rhs[:, None], 1)
                raw, triangular = dtrtrs(qr, qtb[:qr.shape[1]])
                if info or triangular:
                    _check_info("dormqr", info) or _check_info("dtrtrs", triangular)
                betas[j], out[i] = raw[:, 0], (betas[j], qr, scaling[j], rw)  # a view of the row
            betas /= scaling  # each out[i][0] is a row of betas
            eta = np.matmul(Xt.transpose(0, 2, 1), betas[:, :, None])[:, :, 0]
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
    WORK.update({"IRLS runs": 1,
                 "IRLS iterations": sum(fit[4] for fit in out if isinstance(fit, tuple))})
    return out


def _fit_chunk(fits, family: Family, max_iter: int = MAX_ITER) -> list:
    """The `Fit` of the kept columns of each (X, y, factors) of `fits`,
    `factors` being the `_factorise` result of X, or the ModelBuildError it
    raises. Binomial fits run together (`_irls`)."""
    WORK["models fitted"] += len(fits)
    if family is Family.BINOMIAL:
        return [result if isinstance(result, ModelBuildError) else Fit(
            result[2], len(factors[0]), _embed(result[0], factors[0], X.shape[1]), result[1],
            *result[3:], factors) for (X, _, factors), result in zip(fits, _irls(fits, max_iter))]
    out = []
    for X, y, factors in fits:
        kept, qr, tau, scale = factors
        beta = _solve(qr, tau, scale, y)
        # X[:, kept] is an F-ordered copy; an F-ordered X that keeps every
        # column is the same operand, so it gives the same product
        Xk = X if len(kept) == X.shape[1] and X.flags.f_contiguous else X[:, kept]
        resid = y - Xk @ beta
        out.append(Fit(float(resid @ resid), len(kept), _embed(beta, kept, X.shape[1]), None,
                       True, 1, factors))
    return out


def score_designs(designs: Iterable[tuple[np.ndarray, np.ndarray]], family: Family,
                  column_labels: tuple[str, ...] | None = None):
    """Yield, for each (X, y) of `designs`, the `Fit` of its kept columns (its
    deviance that of `fit_design`, bit for bit), or the ModelBuildError that
    fitting it raises. Designs are read `_LOCKSTEP_FITS` at a time,
    factorised together when binomial (`_stacked_factors`) and fitted
    together (`_fit_chunk`); with `column_labels`, dropped columns warn as in
    `fit_design`."""
    designs = iter(designs)
    while chunk := list(itertools.islice(designs, _LOCKSTEP_FITS)):
        stacked = (_stacked_factors(chunk) if family is Family.BINOMIAL
                   else [None] * len(chunk))
        checked = []
        for (X, y), factors in zip(chunk, stacked):
            try:
                factors = factors or _factorise(X, y)
                _check_rank(factors[0], len(y))
                checked.append((X, y, factors, None))
            except ModelBuildError as exc:
                checked.append((X, y, factors, exc))
        results = iter(_fit_chunk([fit[:3] for fit in checked if fit[3] is None], family))
        for _, _, factors, error in checked:
            if factors is not None and column_labels is not None:
                _dropped(column_labels, factors[0])  # in order, as a fit of each would
            yield error or next(results)


def _dropped(column_labels: tuple[str, ...], kept: list[int], warn=True) -> tuple[str, ...]:
    """The labels of the columns not kept, warned of at the caller's caller."""
    dropped = tuple(label for j, label in enumerate(column_labels) if j not in kept)
    if dropped and warn:
        warnings.warn(f"dropping aliased design columns: {', '.join(dropped)}", stacklevel=4)
    return dropped


def fit_design(X: np.ndarray, y: np.ndarray, family: Family, column_labels: tuple[str, ...],
               max_iter: int = MAX_ITER, record: Fit | None = None,
               spec: ModelSpec | None = None, warn: bool = True) -> FitResult:
    """Fit a prebuilt design matrix. Core engine behind `fit` and the searches.

    `record` is the `Fit` of this X and y when the caller holds it, which is
    not fitted again; `spec`, the model spec X was built from, is recorded in
    the result. `warn=False` leaves dropped columns unwarned."""
    if max_iter < 1:
        raise DomainError(f"max_iter must be >= 1, got {max_iter}")
    n, p = X.shape
    kept, qr, _, scale = factors = _factorise(X, y) if record is None else record.factors
    dropped = _dropped(column_labels, kept, warn)
    _check_rank(kept, n)

    result = record or first_error(_fit_chunk([(X, y, factors)], family, max_iter))[0]
    if family is Family.GAUSSIAN:
        cov_kept = _cov_from_r(_r_factor(qr, scale)) * (result.deviance / (n - len(kept)))
        log_likelihood, separation = gaussian_log_likelihood(result.deviance, n), False
    else:
        separation = bool(np.max(np.abs(result.coefficients)) > SEPARATION_COEF)
        cov_kept = _cov_from_r(result.r)
        log_likelihood = -result.deviance / 2.0
    return FitResult(
        coefficients=result.coefficients,
        covariance=_embed(cov_kept, kept, p),
        deviance=result.deviance,
        log_likelihood=log_likelihood,
        model_df=result.model_df,
        n=n,
        converged=result.converged,
        iterations=result.iterations,
        family=family,
        column_labels=column_labels,
        spec=spec,
        separation=separation,
        dropped_columns=dropped,
    )


def _binomial_deviance(y: np.ndarray, mu: np.ndarray):
    """Deviance of each row of the outcome y, all 0 or 1, at the means mu in
    (0, 1), one log per value: the bits of y log(mu) + (1 - y) log(1 - mu)."""
    return -2.0 * np.sum(np.log(np.where(y == 1.0, mu, 1.0 - mu)), axis=-1)


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


def _triangular_inverses(R: np.ndarray) -> np.ndarray:
    """The inverse of each upper triangular R (m, m) of a stack, by back-substitution."""
    m = R.shape[1]
    inv, d = np.zeros(R.shape), 1.0 / R.diagonal(axis1=1, axis2=2)
    inv[:, range(m), range(m)] = d
    for i in reversed(range(m - 1)):  # row i from the rows below it
        inv[:, i, i + 1:] = -np.einsum("bj,bjc->bc", R[:, i, i + 1:], inv[:, i + 1:, i + 1:]
                                       ) * d[:, i, None]
    return inv


def _residual_updates(W: np.ndarray, blocks: np.ndarray):
    """Batched Householder QR R of each block of rows of the finite W (m
    indices into W) followed by its last row r. Returns the residual sum of
    squares of r on each block, R_mm^2, ||R_b^-1||_F^2 of R_b = R[:m, :m]
    from its inverse (inf when R_b is singular), and the (m + 1) x
    (m + 1) factors R, whose last columns above R_mm give the block's
    coefficients (`_deviance_conditioned`)."""
    m = blocks.shape[1]
    rows = np.column_stack([blocks, np.full(len(blocks), len(W) - 1)])
    R = np.linalg.qr(W[rows].transpose(0, 2, 1), mode="r")
    inv = _triangular_inverses(R[:, :m, :m])
    vif = np.einsum("bij,bij->b", inv, inv)
    vif[np.isnan(vif)] = np.inf  # inf times 0 in a singular block's inverse
    return R[:, m, m] ** 2, vif, R


def _deviance_conditioned(R, coef, blocks, norms, yy, rss, kappa2) -> np.ndarray:
    """Whether the residual sum of squares `rss` of each block, m indices
    into the columns of coef, is well conditioned (see the module docstring):
    every diagonal of R_C = R[:m, :m], R being its `_residual_updates` factor,
    above 1e4 `PIVOT_TOL`, and u c1 + u^2 kappa2 <= `SCREEN_RTOL` / 20. The
    block's unit columns take the coefficients beta_C = R_C^-1 R[:m, m], the
    design's columns, of norms `norms`, coef[:, -1] - coef[:, block] beta_C;
    coef is R_A^-1 Q_A' of the blocks' columns and y, and yy is ||y||^2."""
    m = R.shape[1] - 1
    beta = np.einsum("bij,bj->bi", _triangular_inverses(R[:, :m, :m]), R[:, :m, m])
    beta_a = coef[:, -1:] - np.einsum("kbj,bj->kb", coef[:, blocks], beta)
    c1 = (math.sqrt(yy) + norms @ np.abs(beta_a) + np.abs(beta).sum(axis=1)) / np.sqrt(rss)
    u = 2.0 ** -53
    return ((np.abs(R.diagonal(axis1=1, axis2=2)[:, :m]).min(axis=1) > 1e4 * PIVOT_TOL)
            & (u * c1 + u * u * kappa2 <= SCREEN_RTOL / 20.0) & np.isfinite(rss))


def _dual_bounds(X: np.ndarray, y: np.ndarray, beta: np.ndarray, free: np.ndarray,
                 w: np.ndarray):
    """(low, high) bounds, without the margin and NaN where not bounded, on the
    least binomial deviance of y on the columns of X (n, k) that each row of `free`
    marks, by Newton steps at the weights w from that row of `beta` (see the module
    docstring); a step solves every row's scaled normal equations in one call."""
    low, high, todo = np.full(len(beta), np.nan), np.full(len(beta), np.nan), np.arange(len(beta))
    with np.errstate(all="ignore"):  # a non-finite value gives no bound
        gram = (X.T * w) @ X
        scale = 1.0 / np.sqrt(gram.diagonal())
        system = np.where(free[:, :, None] & free[:, None, :], gram * scale[:, None] * scale,
                          np.eye(len(scale)))
        rounding = 2.0 ** -53 * len(y) * np.abs(X).sum(axis=0)  # of X'(alpha - y); |alpha - y| < 1
        beta, eta = beta.copy(), beta @ X.T
        mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
        for _ in range(2):
            WORK["bound steps"] += len(todo)
            try:
                d = scale * np.linalg.solve(system[todo], ((y - mu) @ X * free[todo] * scale)[
                    :, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular system
                break
            step = d @ X.T
            alpha = mu + w * step  # X' alpha = X' y on the free columns
            beta[todo] += d
            eta = eta + step
            # NaN where alpha leaves (0, 1)
            entropy = -2.0 * (alpha * np.log(alpha) + (1.0 - alpha) * np.log1p(-alpha)).sum(axis=1)
            residual = np.abs((alpha - y) @ X) + rounding
            deviance = 2.0 * (np.logaddexp(0.0, eta).sum(axis=1) - eta @ y)
            violation = 2.0 * (residual * np.abs(beta[todo])).sum(axis=1)
            ok = (violation <= SCREEN_RTOL / 10.0 * entropy) & np.isfinite(deviance)
            low[todo[ok]], high[todo[ok]] = entropy[ok], deviance[ok]
            retry = ~np.isfinite(entropy) & np.isfinite(d).all(axis=1)
            if not retry.any():
                break
            todo, eta = todo[retry], eta[retry]
            mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
    return low, high


def contenders(bounds: Sequence[tuple[float, float] | None]) -> list[bool]:
    """Whether each value, bounded by (low, high) or unbounded (None), may be
    the least: its low bound reaches the least high bound, or it has none."""
    cut = min((b[1] for b in bounds if b is not None), default=math.inf)
    return [b is None or b[0] <= cut for b in bounds]


def p_value_bounds(n, reduced: np.ndarray, full: np.ndarray, df, binomial=False) -> np.ndarray:
    """(low, high) bounds, (m, 2), on the `Design.p_value` of nested models on n
    observations and df degrees of freedom, from (m, 2) bounds or (m, 1) values of the
    reduced and full deviances, all broadcast: the tails at the bounds of the statistic,
    n log(reduced / full), or reduced - full where `binomial`, from one chdtrc call
    (np.log and math.log may differ in the last bit); NaN where a bound is, or where
    the statistic may fall below -`NESTED_TOL` and `p_value` raises."""
    with np.errstate(all="ignore"):
        stats = np.where(np.asarray(binomial)[..., None], reduced[:, ::-1] - full,
                         np.asarray(n, dtype=float)[..., None] * np.log(reduced[:, ::-1] / full))
    tails = np.clip(chdtrc(np.asarray(df, dtype=float)[..., None], np.maximum(stats, 0.0)),
                    0.0, 1.0)
    tails[~(stats[:, 1] >= -NESTED_TOL)] = np.nan
    return tails


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
    adjustment and variable. One memo keeps the `Fit` of every subset scored,
    stepped to or bounded from, keyed by the subset; gathered designs are not
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
        self._records: dict[tuple[int, ...], Fit] = {}

    def forget(self) -> None:
        """Empty the memo of fit records."""
        self._records.clear()

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

    def scores(self, models: Sequence[Sequence[Term]]) -> list[Fit]:
        """`batch_scores` of each model's terms, raising the first failing model's error."""
        return first_error(Design.batch_scores([(self, self.columns(model)) for model in models]))

    @staticmethod
    def batch_scores(subsets: Sequence[tuple[Design, tuple[int, ...]]]) -> list:
        """The `Fit` of each (design, column subset), of one family, or the
        ModelBuildError that fitting it raises: the record its design holds,
        else scored with the others by `score_designs` as it gathers them and
        then held; a subset is a tuple, as `columns` gives, keying the memo."""
        family = subsets[0][0].dataset.family if subsets else None
        out = [design._records.get(cols) for design, cols in subsets]
        todo = [(i, *subsets[i]) for i, record in enumerate(out) if record is None]
        for (i, design, cols), scored in zip(todo, score_designs(
                ((design.X[:, cols], design.dataset.outcome) for _, design, cols in todo),
                family)):
            if not isinstance(scored, ModelBuildError):
                design._records[cols] = scored
            out[i] = scored
        return out

    def fit(self, spec: ModelSpec, warn: bool = True) -> FitResult:
        """Fit of `spec` from its terms' column subset (`fit_design`), of its record if held."""
        cols = self.columns(spec.terms)
        return fit_design(self.X[:, cols], self.dataset.outcome, self.dataset.family,
                          tuple(self.labels[c] for c in cols), record=self._records.get(cols),
                          spec=spec, warn=warn)

    @staticmethod
    def steps(models: Sequence[tuple[Design, ModelSpec]]) -> list:
        """The `Fit` of each (design, spec), or the ModelBuildError of its fit:
        the record its design holds, which is the step, or a fit of its own,
        then held. Only the models not held are gathered, factorised together
        (`_stacked_factors`) and fitted. Dropped columns warn."""
        subsets = [(design, design.columns(spec.terms)) for design, spec in models]
        held = [design._records.get(cols) for design, cols in subsets]
        fits = [(design.X[:, cols], design.dataset.outcome)
                for (design, cols), record in zip(subsets, held) if record is None]
        gathered, out = iter(zip(fits, _stacked_factors(fits))), []
        for (design, cols), record in zip(subsets, held):
            try:
                (X, y), factors = (next(gathered) if record is None
                                   else ((None, None), record.factors))
                factors = factors or _factorise(X, y)
                _dropped(tuple(design.labels[c] for c in cols), factors[0])
                _check_rank(factors[0], design.dataset.n)
                if record is None:
                    record = design._records[cols] = first_error(
                        _fit_chunk([(X, y, factors)], design.dataset.family))[0]
                out.append(record)
            except ModelBuildError as error:
                out.append(error)
        return out

    @staticmethod
    def removal_bounds(models: Sequence[tuple]) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) bounds on the deviance of dropping each term of each (design,
        spec, step) from its `Fit` `step` (see the module docstring), NaN where not
        guaranteed, and each term's column count: (m, 2) and (m,) arrays over the models'
        terms in turn. A Gaussian fit gives them by the Wald update, models of one
        column layout sharing V = R^-1 R^-T, one guard and b_j^2 / V_jj, or a solve per
        larger term size; a binomial one by Newton steps (`_dual_bounds`) from its
        coefficients, the term's zeroed, at its weights, its removals together."""
        sizes = [[len(t._labels) for t in spec.terms] for _, spec, _ in models]
        bounds, layouts, row = np.full((sum(map(len, sizes)), 2), np.nan), {}, 0
        for (design, spec, step), size in zip(models, sizes):
            # a fit of every column, and a column left after each removal
            usable = step.model_df == len(step.coefficients) and (design.intercept or len(size) > 1)
            if usable and design.dataset.family is Family.GAUSSIAN and step.deviance > 0.0:
                layouts.setdefault((design.intercept, *size), []).append((row, design._yy, step))
            elif usable and size and design.dataset.family is Family.BINOMIAL and (
                    step.converged and np.abs(step.coefficients).max() <= SEPARATION_COEF):
                start = np.cumsum([int(design.intercept), *size])
                column = np.arange(start[-1])
                free = (column < start[:-1, None]) | (column >= start[1:, None])  # a row per term
                X = design.X[:, design.columns(spec.terms)]
                mu = np.clip(_expit(X @ step.coefficients), _MU_EPS, 1.0 - _MU_EPS)
                low, high = _dual_bounds(X, design.dataset.outcome, step.coefficients * free,
                                         free, np.maximum(mu * (1.0 - mu), _MU_EPS))
                bounds[row:row + len(size)] = np.column_stack([np.maximum(
                    low * (1.0 - SCREEN_RTOL), step.deviance), high * (1.0 + SCREEN_RTOL)])
            row += len(size)
        for (intercept, *size), group in layouts.items():
            rows, yy, steps = zip(*group)
            dev = np.array([step.deviance for step in steps])
            beta = np.array([step.coefficients for step in steps])
            r = np.triu([_r_factor(step.factors[1], step.factors[3]) for step in steps])
            rinv = np.array([dtrtri(x)[0] for x in r])  # R is full rank; V = R^-1 R^-T
            var, norms = np.einsum("gij,gij->gi", rinv, rinv), np.einsum("gij,gij->gj", r, r)
            start = list(itertools.accumulate(size, initial=int(intercept)))[:-1]  # first columns
            with np.errstate(all="ignore"):
                ok = (np.minimum(norms, var).min(axis=1) >= _TINY) & _well_conditioned(
                    len(var[0]), (norms * var).sum(axis=1), np.array(yy), dev)
                delta = (beta * beta / var)[:, start]  # that of a one-column term
                for s in set(size) - {1}:  # b' V_bb^-1 b of the larger ones
                    at = [j for j, width in enumerate(size) if width == s]
                    cols = np.array(start)[at, None] + np.arange(s)  # (blocks, s)
                    b, w = beta[ok][:, cols, None], rinv[ok][:, cols]  # V_bb = w w'
                    x = np.linalg.solve(w @ w.swapaxes(-1, -2), b)
                    delta[np.ix_(ok, at)] = (b * x).sum(axis=(2, 3))
                approx = delta + dev[:, None]
                ok &= np.isfinite(approx).all(axis=1)
            where = np.add.outer(rows, np.arange(len(size)))[ok]
            bounds[where, 0] = np.maximum(approx[ok] * (1.0 - SCREEN_RTOL), dev[ok, None])
            bounds[where, 1] = approx[ok] * (1.0 + SCREEN_RTOL)
        return bounds, np.array([c for size in sizes for c in size], dtype=int)

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
        cols = self.columns(terms)
        record = self._records.get(cols) or Design.batch_scores([(self, cols)])[0]
        if isinstance(record, ModelBuildError):
            return bounds
        kept, qr, tau, _ = record.factors
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
            norms = np.sqrt(np.einsum("ij,ij->j", r_base, r_base))
            rinv, singular = dtrtri(r_base / norms)
            vif_base = math.inf if singular else float(np.einsum("ij,ij", rinv, rinv))
            # Q'[C | y] below the design's rows, reduced to its own R
            qtm, _, info = dormqr("L", "T", qr, tau, M, 32 * (q + 1))
            _check_info("dormqr", info)
            tail, _, _, info = dgeqrf(qtm[k:], overwrite_a=True)
            _check_info("dgeqrf", info)
            W, updates = np.triu(tail[:q + 1]).T, []
            for group, rows in groups:  # rows of W by position
                rss[group], vif_block[group], R = _residual_updates(W, rows)
                updates.append((group, rows, R))
            vif_sum = vif_base + vif_block * (1.0 + sizes * vif_base)
        ok = (_well_conditioned(k + sizes, vif_sum, self._yy, rss) & (k + sizes < n)).tolist()
        if not all(ok):  # a second stage for the blocks that failed: the deviance's condition
            failed = ~np.array(ok)
            with np.errstate(all="ignore"):
                coef = dtrtrs(r_base, qtm[:k])[0]  # R_A^-1 Q_A' [C | y]
                for group, rows, R in updates:
                    if (at := failed[group]).any():
                        ids = group[at]
                        admit = _deviance_conditioned(R[at], coef, rows[at], norms, self._yy,
                                                      rss[ids], (k + sizes[ids]) * vif_sum[ids])
                        for i in ids[admit].tolist():
                            ok[i] = True
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
