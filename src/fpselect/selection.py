"""Classical variable selection on fixed functional forms.

Backward elimination, forward selection, stepwise, univariable screening, and
augmented backward elimination with a change-in-estimate safeguard. Stopping
rules are expressed as p-value thresholds; information criteria translate
exactly into such thresholds for nested comparisons (a k-d.f. block passes the
AIC comparison iff its likelihood-ratio statistic exceeds 2k, i.e. iff its
p-value is below chi2_sf(2k, k), and analogously with penalty log(n) for BIC),
so selection under AIC/BIC is implemented through that equivalence.

Each run builds the design of every term it can use once (`glm.Design`) and
scores the candidate models of a step, its removals or its additions,
together from column subsets of it (`glm.Design.scores`; binomial ones in
lock step): deviance and kept columns, without a covariance or a
`FitResult`. Only the start model and the models a run moves to are fitted,
so the trace equals fitting every candidate. One elimination loop and one
addition scan serve every procedure.

The elimination loop (backward elimination and stepwise's re-checks) screens
before it scores. `glm.Design.removal_bounds` bounds the deviance of every
removal from the current Gaussian fit by the Wald update, within a relative
`glm.SCREEN_RTOL` = 1e-6, when the fit's residual condition estimate is at
most `glm.SCREEN_MAX_CONDITION` = 1e6, and turns them into bounds on its
p-value. Only the removals whose largest possible p-value reaches the
largest of the smallest possible ones are scored, and the loop
picks among them as if it had scored all. The removal with the largest exact
p-value always passes the screen, so the trace is that of scoring every
removal, bit for bit. Binomial fits, fits with dropped columns and
ill-conditioned fits get no bounds, and every removal is scored.

The addition scan (forward selection and stepwise) screens alike, by
`glm.Design.addition_bounds`: only additions whose smallest possible p-value
reaches the least of the largest possible ones, or without bounds, are
scored. Augmented backward elimination, which needs every removal's p-value,
scores every candidate. An addition whose design-column labels the model
already has (another form of a variable it holds) is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence, Union

from .chi2 import chi2_sf
from .data import Dataset
from .errors import CycleDetectedError, DomainError, ExposureMissingError
from .glm import Design, FitResult, contenders
from .model import ModelSpec, Term


@dataclass(frozen=True)
class Criterion:
    """Stopping rule: a fixed significance level, or AIC/BIC."""

    kind: str  # "pvalue" | "aic" | "bic"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("pvalue", "aic", "bic"):
            raise DomainError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "pvalue":
            if self.alpha is None or not 0.0 < self.alpha <= 1.0:
                raise DomainError(f"p-value criterion needs alpha in (0, 1], got {self.alpha}")
        elif self.alpha is not None:
            raise DomainError(f"{self.kind} criterion takes no alpha")

    @staticmethod
    def p_value(alpha: float) -> "Criterion":
        return Criterion("pvalue", alpha)

    @staticmethod
    def aic() -> "Criterion":
        return Criterion("aic")

    @staticmethod
    def bic() -> "Criterion":
        return Criterion("bic")

    def __str__(self) -> str:
        return f"pvalue({self.alpha:g})" if self.kind == "pvalue" else self.kind


def criterion_threshold(criterion: Criterion, n: int, df: int = 1) -> float:
    """Significance level equivalent to the criterion for a df-parameter step.

    AIC corresponds to chi2_sf(2*df, df) (0.157 at one degree of freedom); BIC
    to chi2_sf(df*log(n), df), which shrinks as the sample grows.
    """
    if df < 1:
        raise DomainError(f"df must be >= 1, got {df}")
    if criterion.kind == "pvalue":
        return float(criterion.alpha)
    if criterion.kind == "aic":
        return chi2_sf(2.0 * df, df)
    if n < 2:
        raise DomainError(f"BIC threshold needs n >= 2, got {n}")
    return chi2_sf(df * math.log(n), df)


@dataclass(frozen=True)
class SelectionStep:
    action: str  # "add" | "drop" | "keep-confounder"
    variable: str
    term: Term
    p_value: float
    deviance_after: float


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of a selection run; replaying `steps` from the start model
    reproduces `final_spec`."""

    start_spec: ModelSpec
    steps: tuple[SelectionStep, ...]
    final_spec: ModelSpec
    final_fit: FitResult
    criterion: Criterion

    @property
    def selected_variables(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(t.variable for t in self.final_spec.terms))


def _removals(design: Design, current: FitResult, spec: ModelSpec,
              terms: Sequence[Term]) -> list[tuple[float, int, Term]]:
    """(p-value, df, term) of dropping each of `terms` from the current model."""
    full = (current.deviance, current.model_df)
    scores = design.scores([[t for t in spec.terms if t is not term] for term in terms])
    return [(*design.p_value(score, full), term) for score, term in zip(scores, terms)]


def _screen(design: Design, current: FitResult, spec: ModelSpec,
            protected: Sequence[Term]) -> list[Term]:
    """The unprotected terms, in spec order, whose removal may have the
    largest p-value, judged by `Design.removal_bounds`; every unprotected
    term when it gives no bounds."""
    bounds = design.removal_bounds(spec, current) or [None] * len(spec.terms)
    candidates = [(t, b) for t, b in zip(spec.terms, bounds) if t not in protected]
    # The largest p-value is the least of the negated ones.
    keep = contenders([b and (-b[1], -b[0]) for _, b in candidates])
    return [t for (t, _), k in zip(candidates, keep) if k]


def _eliminate(design: Design, spec: ModelSpec, current: FitResult, criterion: Criterion,
               steps: list[SelectionStep], protected: Sequence[Term] = ()):
    """Drop the least significant unprotected term while it fails the
    criterion; returns the final (spec, fit) and appends each drop to `steps`.
    Only removals that pass `_screen` are scored."""
    while True:
        terms = _screen(design, current, spec, protected)
        worst = max(_removals(design, current, spec, terms), key=lambda r: r[0], default=None)
        if worst is None or worst[0] <= criterion_threshold(criterion, design.dataset.n, worst[1]):
            return spec, current
        p, _, term = worst
        spec = spec.without_term(term)
        current = design.fit(spec)
        steps.append(SelectionStep("drop", term.variable, term, p, current.deviance))


def _add(design: Design, spec: ModelSpec, current: FitResult, candidates: Sequence[Term],
         criterion: Criterion, steps: list[SelectionStep]):
    """Add the most significant candidate if it passes the criterion; returns
    the (spec, fit) after the step and appends an addition to `steps`.
    Candidates whose column labels the model already has are skipped, and
    only those whose `Design.addition_bounds` admit the least p-value, or
    that have none, are scored."""
    now = (current.deviance, current.model_df)
    admitted = [term for term in candidates if spec.admits(term)]
    blocks = [design.term_columns[term] for term in admitted]
    bounds = design.p_value_bounds([(now[0], now[0])] * len(blocks),
                                   design.addition_bounds(spec.terms, blocks),
                                   [len(block) for block in blocks])
    chosen = list(compress(admitted, contenders(bounds)))
    scores = design.scores([spec.with_term(term).terms for term in chosen])
    best = min([(*design.p_value(now, score), term) for score, term in zip(scores, chosen)],
               key=lambda r: r[0], default=None)
    if best is None or best[0] > criterion_threshold(criterion, design.dataset.n, best[1]):
        return spec, current
    p, _, term = best
    spec = spec.with_term(term)
    current = design.fit(spec)
    steps.append(SelectionStep("add", term.variable, term, p, current.deviance))
    return spec, current


def backward_eliminate(dataset: Dataset, start_spec: ModelSpec,
                       criterion: Criterion,
                       protected: Sequence[Term] = ()) -> SelectionTrace:
    """Drop the least significant term while it fails the criterion.

    Terms generating several design columns (dummy blocks, second-degree FP
    pairs) are tested and dropped jointly. `protected` terms are never
    candidates for removal.
    """
    design = Design(dataset, start_spec)
    steps: list[SelectionStep] = []
    spec, current = _eliminate(design, start_spec, design.fit(start_spec), criterion, steps,
                               tuple(protected))
    return SelectionTrace(start_spec, tuple(steps), spec, current, criterion)


def _as_terms(candidates: Sequence[Union[str, Term]]) -> tuple[Term, ...]:
    return tuple(dict.fromkeys(c if isinstance(c, Term) else Term.linear(c)
                               for c in candidates))


def forward_select(dataset: Dataset, candidates: Sequence[Union[str, Term]],
                   criterion: Criterion,
                   start_spec: ModelSpec | None = None) -> SelectionTrace:
    """Starting from the intercept-only model, repeatedly add the most
    significant remaining candidate while it passes the criterion."""
    initial = start_spec or ModelSpec()
    terms = _as_terms(candidates)
    design = Design(dataset, initial, terms)
    spec, current = initial, design.fit(initial)
    remaining = [t for t in terms if t not in spec.terms]
    steps: list[SelectionStep] = []
    while remaining:
        taken = len(steps)
        spec, current = _add(design, spec, current, remaining, criterion, steps)
        if len(steps) == taken:
            break
        remaining.remove(steps[-1].term)
    return SelectionTrace(initial, tuple(steps), spec, current, criterion)


def stepwise(dataset: Dataset, candidates: Sequence[Union[str, Term]],
             criterion_in: Criterion, criterion_out: Criterion | None = None,
             max_iterations: int = 100) -> SelectionTrace:
    """Forward selection with backward re-checks after every addition.

    The entry threshold must not exceed the exit threshold, otherwise the
    procedure can oscillate; that configuration raises CycleDetected up front.
    """
    criterion_out = criterion_out or criterion_in
    thr_in = criterion_threshold(criterion_in, dataset.n, 1)
    thr_out = criterion_threshold(criterion_out, dataset.n, 1)
    if thr_in > thr_out + 1e-12:
        raise CycleDetectedError(
            f"entry threshold {thr_in:.4g} exceeds exit threshold {thr_out:.4g}"
        )
    all_terms = _as_terms(candidates)
    spec = ModelSpec()
    design = Design(dataset, spec, all_terms)
    current = design.fit(spec)
    steps: list[SelectionStep] = []
    for _ in range(max_iterations):
        taken = len(steps)
        absent = [t for t in all_terms if t not in spec.terms]
        spec, current = _add(design, spec, current, absent, criterion_in, steps)
        # Backward re-checks until every retained term passes.
        spec, current = _eliminate(design, spec, current, criterion_out, steps)
        if len(steps) == taken:
            return SelectionTrace(ModelSpec(), tuple(steps), spec, current, criterion_in)
    raise CycleDetectedError(f"stepwise did not settle within {max_iterations} iterations")


def _max_exposure_change(fit_with: FitResult, fit_without: FitResult,
                         exposure_labels: Sequence[str], mode: str) -> float:
    change = 0.0
    for label in exposure_labels:
        b_with = fit_with.coefficient(label)
        b_without = fit_without.coefficient(label)
        if mode == "standardized":
            se = fit_with.standard_error(label)
            change = max(change, abs(b_with - b_without) / se if se > 0 else math.inf)
        else:
            denom = abs(b_with)
            change = max(change, abs(b_with - b_without) / denom if denom > 0 else math.inf)
    return change


def augmented_backward_eliminate(dataset: Dataset, start_spec: ModelSpec,
                                 alpha: float, exposure: Union[str, Term],
                                 cie_threshold: float = 0.05,
                                 mode: str = "standardized") -> SelectionTrace:
    """Backward elimination that keeps passive confounders of an exposure.

    The exposure term itself is never dropped. A non-significant term is still
    retained (recorded as "keep-confounder") when removing it would change the
    exposure coefficient by more than `cie_threshold`, measured per exposure
    column as |change|/SE in "standardized" mode or |change|/|coefficient| in
    "relative" mode (the maximum over columns for multi-column exposures).
    """
    if mode not in ("standardized", "relative"):
        raise DomainError(f"mode must be 'standardized' or 'relative', got {mode!r}")
    if isinstance(exposure, Term):
        exposure_term = exposure
    else:
        matches = [t for t in start_spec.terms if t.variable == exposure]
        if not matches:
            raise ExposureMissingError(f"exposure {exposure!r} not in the starting model")
        exposure_term = matches[0]
    if exposure_term not in start_spec.terms:
        raise ExposureMissingError(f"exposure term for {exposure_term.variable!r} not in the starting model")
    exposure_labels = exposure_term.labels()

    design = Design(dataset, start_spec)
    spec = start_spec
    current = design.fit(spec)
    steps: list[SelectionStep] = []
    kept_as_confounder: set[Term] = set()
    while True:
        skip = kept_as_confounder | {exposure_term}
        ranked = [(p, term) for p, _, term in
                  _removals(design, current, spec, [t for t in spec.terms if t not in skip])
                  if p > alpha]
        ranked.sort(key=lambda item: -item[0])
        dropped = False
        # Only the change-in-estimate check needs a reduced fit: fit lazily.
        for p, term in ranked:
            reduced_fit = design.fit(spec.without_term(term))
            change = _max_exposure_change(current, reduced_fit, exposure_labels, mode)
            if change > cie_threshold:
                kept_as_confounder.add(term)
                steps.append(SelectionStep("keep-confounder", term.variable, term,
                                           p, current.deviance))
                continue
            spec = spec.without_term(term)
            current = reduced_fit
            steps.append(SelectionStep("drop", term.variable, term, p, current.deviance))
            # A drop changes every removal test; confounder verdicts are reassessed.
            kept_as_confounder.clear()
            dropped = True
            break
        if not dropped:
            break
    return SelectionTrace(start_spec, tuple(steps), spec, current, Criterion.p_value(alpha))


SCREENING_NOTE = ("univariable screening is discouraged: adjusted and unadjusted "
                  "effects can differ in either direction, so this filter may be misleading")


@dataclass(frozen=True)
class ScreenResult:
    selected: tuple[str, ...]
    p_values: dict[str, float]
    note: str = SCREENING_NOTE


def univariable_screen(dataset: Dataset, candidates: Sequence[Union[str, Term]],
                       alpha: float) -> ScreenResult:
    """Variables whose single-variable model beats the intercept at `alpha`.

    Provided for comparison purposes only; the result carries a warning note.
    """
    terms = _as_terms(candidates)
    design = Design(dataset, ModelSpec(), terms)
    null, *scores = design.scores([()] + [(term,) for term in terms])
    pvals: dict[str, float] = {}
    selected: list[str] = []
    for term, score in zip(terms, scores):
        p, _ = design.p_value(null, score)
        pvals[term.variable] = p
        if p < alpha:
            selected.append(term.variable)
    return ScreenResult(tuple(selected), pvals)
