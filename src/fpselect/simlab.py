"""Scenario generator and scoring harness for selection procedures.

Datasets with known truth are generated from a Gaussian copula over arbitrary
marginals, optionally with spike-at-zero mass. A procedure, `resample`'s one
protocol (`be_procedure`, `mfp_procedure`), maps a chunk of replications'
datasets (`resample.run_chunk`) to the fit of the model selected on each, or
the error selecting raised, and each fit's spec and coefficients are scored
on correct inclusion/exclusion, the shape distance between fitted and true
per-variable curves, and coefficient error, all with Monte-Carlo standard
errors. Every number is a deterministic function of (scenario, replications,
procedure configuration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .data import Dataset, Family
from .errors import DomainError, InvalidCorrelationError, ModelBuildError
from .glm import _LOCKSTEP_FITS, FitResult
from .model import Fp, Linear, ModelSpec, Term
from .mfp import MfpConfig, mfp
from .resample import Procedure, run_chunk
from .selection import Criterion, backward_eliminate_batch


# ---------------------------------------------------------------------------
# Marginal distributions (inverse-CDF interface for the copula)
# ---------------------------------------------------------------------------

def _check_marginal(name: str, values: tuple[float, ...], ok: bool, needs: str) -> None:
    if not (ok and all(math.isfinite(v) for v in values)):
        got = ", ".join(map(str, values))
        raise DomainError(f"{name} marginal needs finite {needs}, got {got}")


@dataclass(frozen=True)
class Uniform:
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        _check_marginal("uniform", (self.lo, self.hi), self.lo < self.hi, "lo < hi")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * u

    @property
    def strictly_positive(self) -> bool:
        return self.lo >= 0.0


@dataclass(frozen=True)
class Normal:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_marginal("normal", (self.mu, self.sigma), self.sigma > 0.0, "mu and sigma > 0")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return self.mu + self.sigma * ndtri(u)

    @property
    def strictly_positive(self) -> bool:
        return False


@dataclass(frozen=True)
class LogNormal:
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _check_marginal("lognormal", (self.mu, self.sigma), self.sigma > 0.0, "mu and sigma > 0")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return np.exp(self.mu + self.sigma * ndtri(u))

    @property
    def strictly_positive(self) -> bool:
        return True


@dataclass(frozen=True)
class Exponential:
    rate: float = 1.0

    def __post_init__(self):
        _check_marginal("exponential", (self.rate,), self.rate > 0.0, "rate > 0")

    def ppf(self, u: np.ndarray) -> np.ndarray:
        return -np.log1p(-u) / self.rate

    @property
    def strictly_positive(self) -> bool:
        return True


Marginal = Union[Uniform, Normal, LogNormal, Exponential]


# ---------------------------------------------------------------------------
# True effects
# ---------------------------------------------------------------------------

TRUE_FORMS = ("null", "linear", "log", "power", "step")


@dataclass(frozen=True)
class Effect:
    """True contribution of one covariate to the linear predictor."""

    variable: str
    form: str = "linear"
    coefficient: float = 0.0
    param: float = 0.0  # exponent for "power", threshold for "step"

    def __post_init__(self):
        if self.form not in TRUE_FORMS:
            raise DomainError(f"unknown true form {self.form!r}")
        if not all(map(math.isfinite, (self.coefficient, self.param))):
            raise DomainError(f"{self.variable!r} effect needs a finite coefficient and parameter")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.form == "null" or self.coefficient == 0.0:
            return np.zeros_like(x)
        if self.form == "linear":
            base = x
        elif self.form == "log":
            base = np.log(x)
        elif self.form == "power":
            base = x ** self.param
        else:
            base = (x > self.param).astype(float)
        return self.coefficient * base


@dataclass(frozen=True)
class Covariate:
    name: str
    marginal: Marginal = Normal()
    spike_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.spike_prob < 1.0:
            raise DomainError(f"spike probability must be in [0, 1), got {self.spike_prob}")
        if self.spike_prob > 0.0 and not self.marginal.strictly_positive:
            raise DomainError(
                f"spike-at-zero covariate {self.name!r} needs a nonnegative marginal")


@dataclass(frozen=True)
class Scenario:
    """Complete recipe for one synthetic dataset family."""

    n: int
    covariates: tuple[Covariate, ...]
    effects: tuple[Effect, ...] = ()
    correlation: np.ndarray | None = None
    family: Family = Family.GAUSSIAN
    noise_sd: float = 1.0
    intercept: float = 0.0
    outcome_name: str = "y"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        object.__setattr__(self, "effects", tuple(self.effects))
        if self.n < 2:
            raise DomainError("scenario needs n >= 2")
        if not (math.isfinite(self.intercept) and 0.0 <= self.noise_sd < math.inf):
            raise DomainError("scenario needs a finite intercept and noise_sd >= 0, got "
                              f"{self.intercept}, {self.noise_sd}")
        names = [c.name for c in self.covariates]
        if len(set(names)) != len(names):
            raise DomainError("duplicate covariate names")
        for e in self.effects:
            if e.variable not in names:
                raise DomainError(f"effect references unknown covariate {e.variable!r}")
        if self.correlation is not None:
            R = np.asarray(self.correlation, dtype=float)
            if R.shape != (len(names), len(names)):
                raise DomainError("correlation matrix shape does not match covariates")
            if not np.allclose(R, R.T):
                raise InvalidCorrelationError("correlation matrix is not symmetric")
            if not np.allclose(np.diag(R), 1.0):
                raise InvalidCorrelationError("correlation matrix diagonal is not all 1")
            object.__setattr__(self, "correlation", R)

    @property
    def covariate_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.covariates)

    def true_effect(self, variable: str) -> Effect:
        for e in self.effects:
            if e.variable == variable:
                return e
        return Effect(variable, "null", 0.0)


def generate(scenario: Scenario, replication: int = 0) -> Dataset:
    """Deterministic dataset for (scenario.seed, replication).

    Correlated covariates come from a Gaussian copula: correlated standard
    normals are pushed through the normal CDF and then each marginal's inverse
    CDF. A spike covariate is set to zero where its copula uniform falls below
    the spike probability, and otherwise drawn from the upper remainder of its
    marginal, preserving the dependence ordering.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=scenario.seed, spawn_key=(replication,)))
    p = len(scenario.covariates)
    z = rng.standard_normal((scenario.n, p))
    if scenario.correlation is not None:
        try:
            chol = np.linalg.cholesky(scenario.correlation)
        except np.linalg.LinAlgError:
            raise InvalidCorrelationError(
                "correlation matrix is not positive definite") from None
        z = z @ chol.T
    u = np.clip(ndtr(z), 1e-12, 1.0 - 1e-12)

    columns: dict[str, np.ndarray] = {}
    eta = np.full(scenario.n, scenario.intercept)
    for j, cov in enumerate(scenario.covariates):
        uj = u[:, j]
        if cov.spike_prob > 0.0:
            at_zero = uj < cov.spike_prob
            u_rest = (uj - cov.spike_prob) / (1.0 - cov.spike_prob)
            x = np.where(at_zero, 0.0,
                         cov.marginal.ppf(np.clip(u_rest, 1e-12, 1.0 - 1e-12)))
        else:
            x = cov.marginal.ppf(uj)
        columns[cov.name] = x
        effect = scenario.true_effect(cov.name)
        if effect.form != "null":
            if effect.form in ("log", "power") and np.any(x <= 0.0) and cov.spike_prob == 0.0:
                raise DomainError(
                    f"true form {effect.form!r} needs positive {cov.name!r} values")
            if cov.spike_prob > 0.0 and effect.form in ("log", "power"):
                contrib = np.zeros(scenario.n)
                pos = x > 0.0
                contrib[pos] = effect.evaluate(x[pos])
                eta += contrib
            else:
                eta += effect.evaluate(x)

    if scenario.family is Family.GAUSSIAN:
        y = eta + scenario.noise_sd * rng.standard_normal(scenario.n)
    else:
        prob = 1.0 / (1.0 + np.exp(-eta))
        y = (rng.random(scenario.n) < prob).astype(float)
    columns[scenario.outcome_name] = y
    return Dataset.from_columns(columns, outcome=scenario.outcome_name,
                                family=scenario.family)


# ---------------------------------------------------------------------------
# Procedures
# ---------------------------------------------------------------------------

def be_procedure(criterion: Criterion,
                 candidates: Sequence[str] | None = None) -> Procedure:
    """Backward elimination from the all-linear full model, the datasets,
    which share their columns, in lock step."""

    def run(datasets: list[Dataset]) -> list:
        names = candidates if candidates is not None else datasets and datasets[0].candidate_names
        start = ModelSpec(tuple(Term.linear(v) for v in names))
        return [trace if isinstance(trace, ModelBuildError) else trace.final_fit
                for trace in backward_eliminate_batch(datasets, start, criterion)]

    return run


def mfp_procedure(config: MfpConfig | None = None,
                  candidates: Sequence[str] | None = None) -> Procedure:
    """Combined variable and function selection, one dataset at a time."""

    def one(dataset: Dataset) -> FitResult | ModelBuildError:
        names = tuple(candidates) if candidates is not None else dataset.candidate_names
        try:
            return mfp(dataset, names, config).fit
        except ModelBuildError as error:
            return error

    return lambda datasets: [one(dataset) for dataset in datasets]


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

SHAPE_GRID_POINTS = 41
SHAPE_QUANTILES = (0.01, 0.99)


def _shape_distance(x: np.ndarray, true_effect: Effect,
                    fitted_curve: Callable[[np.ndarray], np.ndarray] | None) -> float:
    """Mean squared difference between fitted and true curves on the central
    quantile grid of x, both vertically aligned at the covariate mean.

    A log or power curve is defined on positive values only; for such an
    effect the grid spans the quantiles of the positive values of x, so a
    spike at zero does not put log 0 on the grid."""
    if true_effect.form in ("log", "power"):
        x = x[x > 0.0]
    if not x.size:
        return 0.0
    lo, hi = np.quantile(x, SHAPE_QUANTILES)
    if not hi > lo:
        return 0.0
    grid = np.linspace(lo, hi, SHAPE_GRID_POINTS)
    anchor = np.array([float(x.mean())])
    truth = true_effect.evaluate(grid) - true_effect.evaluate(anchor)
    if fitted_curve is None:
        fhat = np.zeros_like(grid)
    else:
        fhat = fitted_curve(grid) - fitted_curve(anchor)
    return float(np.mean((fhat - truth) ** 2))


def _fitted_curve(fitted: FitResult, variable: str) -> Callable[[np.ndarray], np.ndarray]:
    """The variable's fitted contribution to the linear predictor: each term's
    columns times their coefficients, added term by term (a spike variable
    has two terms)."""
    terms = [(t, [fitted.coefficient(lab) for lab in t.labels()])
             for t in fitted.spec.terms if t.variable == variable]

    def curve(x: np.ndarray) -> np.ndarray:
        first, *rest = [sum(c * col for c, col in zip(coefs, term.transform.columns(x)))
                        for term, coefs in terms]
        return sum(rest, first)

    return curve


def _linear_slope(fitted: FitResult, variable: str) -> float:
    """The variable's fitted slope on its original scale when it enters as a
    straight line, else 0."""
    slope = 0.0
    for term in fitted.spec.terms:
        if term.variable != variable:
            continue
        transform = term.transform
        if isinstance(transform, Linear):
            slope = fitted.coefficient(term.labels()[0])
        elif isinstance(transform, Fp) and transform.powers.values == (1.0,):
            # FP1 with power 1 is a straight line on the pre-transformed
            # scale z = (x + shift) / scale; its slope in x is beta / scale.
            slope = fitted.coefficient(term.labels()[0]) / transform.scale
    return slope


@dataclass(frozen=True)
class VariableScore:
    variable: str
    true_form: str
    inclusion_rate: float
    inclusion_mc_error: float
    correct_rate: float
    shape_distance_mean: float
    shape_distance_mc_error: float


@dataclass(frozen=True)
class EvaluationReport:
    replications: int
    n_failed: int
    per_variable: tuple[VariableScore, ...]
    coefficient_rmse: float | None

    def score(self, variable: str) -> VariableScore:
        for s in self.per_variable:
            if s.variable == variable:
                return s
        raise DomainError(f"no score for variable {variable!r}")


def evaluate(procedure: Procedure, scenario: Scenario,
             replications: int) -> EvaluationReport:
    """Run generate + procedure per replication (`resample.run_chunk`) and aggregate the scores.

    Failed replications (model-building errors) are counted and excluded from
    the denominators. Rates carry binomial Monte-Carlo errors; shape distances
    carry the standard error of their mean.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    names = scenario.covariate_names
    included = {v: [] for v in names}
    correct = {v: [] for v in names}
    shape = {v: [] for v in names}
    sq_errors: list[float] = []
    n_failed = 0
    for dataset, fitted in (pair for first in range(0, replications, _LOCKSTEP_FITS)
                            for pair in run_chunk(procedure, lambda r: generate(scenario, r),
                                                  first, replications)):
        if isinstance(fitted, ModelBuildError):
            n_failed += 1
            continue
        for v in names:
            effect = scenario.true_effect(v)
            truly_in = effect.form != "null" and effect.coefficient != 0.0
            is_in = fitted.spec.has_variable(v)
            included[v].append(1.0 if is_in else 0.0)
            correct[v].append(1.0 if is_in == truly_in else 0.0)
            curve = _fitted_curve(fitted, v) if is_in else None
            shape[v].append(_shape_distance(dataset.column(v), effect, curve))
            if effect.form == "linear":
                sq_errors.append((_linear_slope(fitted, v) - effect.coefficient) ** 2)
    n_ok = replications - n_failed
    if n_ok == 0:
        raise ModelBuildError("every replication failed")
    scores = []
    for v in names:
        inc = np.asarray(included[v])
        dist = np.asarray(shape[v])
        rate = float(inc.mean())
        scores.append(VariableScore(
            variable=v,
            true_form=scenario.true_effect(v).form,
            inclusion_rate=rate,
            inclusion_mc_error=math.sqrt(rate * (1.0 - rate) / n_ok),
            correct_rate=float(np.asarray(correct[v]).mean()),
            shape_distance_mean=float(dist.mean()),
            shape_distance_mc_error=float(dist.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0,
        ))
    rmse = math.sqrt(sum(sq_errors) / len(sq_errors)) if sq_errors else None
    return EvaluationReport(
        replications=replications,
        n_failed=n_failed,
        per_variable=tuple(scores),
        coefficient_rmse=rmse,
    )

