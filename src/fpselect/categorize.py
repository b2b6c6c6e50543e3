"""Categorization utilities and the data-driven cutpoint hazard.

Quantile-based cut schemes support descriptive grouping. The minimum-p-value
cutpoint search is implemented to demonstrate why it should not be used for
model building: scanning every cutpoint and keeping the smallest two-group
p-value is implicit multiple testing, inflates the type-I error far above the
nominal level, strongly overestimates the resulting group difference, and the
selected cutpoint itself is unstable under resampling.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Family
from .errors import DomainError, RangeEmptyError, TooFewDistinctValuesError
from .glm import deviance_p_value
from .model import Categorical as CutScheme

MIN_P_NOTE = ("cutpoint chosen by minimizing the p-value: the group difference is "
              "strongly overestimated and the reported p-value ignores the implicit "
              "multiple testing over candidate cutpoints")

MIN_PER_SIDE = 10


def cut_by_quantiles(x, k: int) -> CutScheme:
    """Cut scheme with groups at the j/k empirical quantiles, j = 1..k-1.

    Duplicated quantiles (heavily tied data) collapse to fewer groups with a
    warning. Groups are (cut[g-1], cut[g]], so a cut may sit at a tied
    minimum: the lowest group then holds exactly the tied values. A cut at or
    above the maximum would leave the top group empty and is dropped.
    """
    x = np.asarray(x, dtype=float)
    if k < 2:
        raise DomainError(f"need at least 2 groups, got {k}")
    if np.unique(x).size < k:
        raise TooFewDistinctValuesError(
            f"cannot form {k} groups from {np.unique(x).size} distinct values")
    qs = np.quantile(x, [j / k for j in range(1, k)])
    cuts = tuple(sorted(set(float(q) for q in qs)))
    cuts = tuple(c for c in cuts if c < x.max())
    if len(cuts) < k - 1:
        warnings.warn(f"duplicated quantiles collapsed {k} groups to {len(cuts) + 1}")
    if not cuts:
        raise TooFewDistinctValuesError("all quantiles coincide; cannot cut")
    return CutScheme(cuts)


def _two_group_lr_pvalues(y: np.ndarray, x: np.ndarray, cutpoints: np.ndarray,
                          family: Family) -> np.ndarray:
    """Vectorized 1-d.f. likelihood-ratio p-values (`deviance_p_value`) for
    dichotomizing x at each cutpoint (group = x > c), which leaves rows on
    both sides, against the intercept-only model. A Gaussian outcome is
    centred first, so its sums keep their precision under any offset."""
    n = y.size
    if family is Family.GAUSSIAN:
        y = y - y.mean()
    order = np.argsort(x, kind="stable")
    y_sorted = y[order]
    x_sorted = x[order]
    csum = np.cumsum(y_sorted)
    total = csum[-1]
    if family is Family.GAUSSIAN:  # residual sums of squares
        null = float(np.dot(y, y)) - total ** 2 / n
    else:
        null = _binomial_deviance(total, n)
    # Rows with x <= c form the low group.
    n_low = np.searchsorted(x_sorted, cutpoints, side="right")
    pvalues = np.empty(cutpoints.size)
    for i, m in enumerate(n_low):
        sum_low = csum[m - 1]
        sum_high = total - sum_low
        if family is Family.GAUSSIAN:  # less the nonnegative between-group sum of squares
            split = null - m * (n - m) / n * (sum_low / m - sum_high / (n - m)) ** 2
        else:
            split = _binomial_deviance(sum_low, m) + _binomial_deviance(sum_high, n - m)
        pvalues[i] = deviance_p_value(family, n, null, split, 1)
    return pvalues


def _binomial_deviance(k: float, n: int) -> float:
    """Deviance of k events in n Bernoulli trials fitted by their mean."""
    if k <= 0 or k >= n:
        return 0.0
    p = k / n
    return -2.0 * (k * math.log(p) + (n - k) * math.log(1 - p))


@dataclass(frozen=True)
class CutpointResult:
    cutpoint: float
    naive_p: float
    n_candidates: int
    search_range: tuple[float, float]
    note: str = MIN_P_NOTE


def min_p_cutpoint(dataset: Dataset, variable: str,
                   search_range: tuple[float, float] = (0.10, 0.90)) -> CutpointResult:
    """Cutpoint minimizing the two-group test p-value over the search range.

    Candidates are the midpoints between successive distinct values whose
    quantile position lies inside `search_range` and which leave at least 10
    observations on each side. A midpoint c is inside the range when
    np.quantile(x, lo) <= c <= np.quantile(x, hi) (linear interpolation,
    closed bounds); a degenerate range (lo == hi) evaluates the
    single cutpoint at that quantile. The returned p-value is the raw minimum,
    uncorrected for the search, and the result carries a warning note saying
    so.
    """
    lo, hi = search_range
    if not 0.0 <= lo <= hi <= 1.0:
        raise DomainError(f"search_range must satisfy 0 <= lo <= hi <= 1, got {search_range}")
    x = dataset.column(variable)
    y = dataset.outcome
    if lo == hi:
        candidates = np.array([float(np.quantile(x, lo))])
    else:
        distinct = np.unique(x)
        mids = (distinct[:-1] + distinct[1:]) / 2.0
        q_lo, q_hi = np.quantile(x, [lo, hi])
        candidates = mids[(mids >= q_lo) & (mids <= q_hi)]
    if candidates.size:
        n_low = np.searchsorted(np.sort(x), candidates, side="right")
        enough = (n_low >= MIN_PER_SIDE) & (dataset.n - n_low >= MIN_PER_SIDE)
        candidates = candidates[enough]
    if candidates.size == 0:
        raise RangeEmptyError(f"no admissible cutpoint for {variable!r} in {search_range}")
    pvalues = _two_group_lr_pvalues(y, x, candidates, dataset.family)
    best = int(np.argmin(pvalues))
    return CutpointResult(
        cutpoint=float(candidates[best]),
        naive_p=float(pvalues[best]),
        n_candidates=int(candidates.size),
        search_range=(float(lo), float(hi)),
    )


@dataclass(frozen=True)
class Type1SimulationResult:
    rejection_rate: float
    monte_carlo_error: float
    replications: int
    nominal_alpha: float
    search_range: tuple[float, float]

    def __str__(self) -> str:
        return (f"empirical type-I error {self.rejection_rate:.3f} "
                f"(+/- {self.monte_carlo_error:.3f}) at nominal level "
                f"{self.nominal_alpha:g}, cutpoints searched over quantiles "
                f"[{self.search_range[0]:g}, {self.search_range[1]:g}]")


def type1_simulation(n: int, replications: int, nominal_alpha: float = 0.05,
                     search_range: tuple[float, float] = (0.10, 0.90),
                     seed: int = 0, family: Family = Family.GAUSSIAN) -> Type1SimulationResult:
    """Empirical rejection rate of the minimum-p cutpoint under the null.

    Generates independent x and outcome, runs the cutpoint search per
    replication, and reports the fraction of naive p-values below
    `nominal_alpha` together with its binomial Monte-Carlo error. A collapsed
    search range reproduces the nominal level; widening the range inflates it.
    """
    if replications < 100:
        raise DomainError(f"need at least 100 replications, got {replications}")
    rng = np.random.default_rng(seed)
    rejections = 0
    for _ in range(replications):
        x = rng.standard_normal(n)
        if family is Family.GAUSSIAN:
            y = rng.standard_normal(n)
        else:
            y = rng.integers(0, 2, size=n).astype(float)
        data = Dataset.from_columns({"x": x, "y": y}, outcome="y", family=family)
        result = min_p_cutpoint(data, "x", search_range)
        if result.naive_p < nominal_alpha:
            rejections += 1
    rate = rejections / replications
    return Type1SimulationResult(
        rejection_rate=rate,
        monte_carlo_error=math.sqrt(rate * (1.0 - rate) / replications),
        replications=replications,
        nominal_alpha=nominal_alpha,
        search_range=(float(search_range[0]), float(search_range[1])),
    )
