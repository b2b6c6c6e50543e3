"""Classical variable selection on fixed functional forms.

Backward elimination, forward selection, stepwise, univariable screening, and
augmented backward elimination with a change-in-estimate safeguard. Stopping
rules are expressed as p-value thresholds; information criteria translate
exactly into such thresholds for nested comparisons (a k-d.f. block passes the
AIC comparison iff its likelihood-ratio statistic exceeds 2k, i.e. iff its
p-value is below chi2_sf(2k, k), and analogously with penalty log(n) for BIC),
so selection under AIC/BIC is implemented through that equivalence.

Each run builds the design of every term it can use once (`glm.Design`) and
scores the candidate models of a step, its removals or its additions, together
from column subsets of it (`glm.Design.scores`; binomial ones in lock step):
each a `glm.Fit` (deviance, model df, β, convergence and factorisation),
without a covariance or a `FitResult`. The design holds each record: the start
model and each model a run moves to (`glm.Design.steps`) are fitted only when
unscored, and a run's final `FitResult` is built from its last step's record
(`glm.Design.fit`), with no refit or second warning of dropped columns. Every
deviance is that of the fit, so the trace equals fitting every candidate. Every
procedure keeps its state in one run record (`_Run`), which one elimination
loop and one addition scan (`_add`) advance in place. Forward selection and
stepwise share one forward loop (`_forward`), and stepwise re-checks its model
only after an addition.

The one elimination loop (`_eliminate`) advances a batch of runs, one per
dataset, in lock step: `backward_eliminate_batch` (a chunk of stability
replications), and `backward_eliminate` and stepwise's re-checks as batches
of one. A lock step records every run's new model in one `glm.Design.steps`
call (one factorisation stack per shape), screens every run's removals in
one array pass (`_screen`), scores those screened in one
`glm.Design.batch_scores` call, and lets each run test and fail on its own;
a ModelBuildError ends only its run. Each run's models meet the scorer, its
memo and its first-error rule (`glm.first_error`) as when alone, so each
trace is that of its run alone, bit for bit.

The loop screens before it scores. `glm.Design.removal_bounds` bounds the
deviance of every removal of every run where `glm` can, by the Wald update
(Gaussian) or Newton steps to a dual point (binomial); the removals of a
model it cannot bound (see `glm`) are all scored. Of a run's removals of one
size the least deviance has the largest p-value, so only those whose bounds
admit it get p-value bounds (one `glm.p_value_bounds` call), and only those
whose largest possible p-value reaches the run's largest least one are
scored. The removal of largest exact p-value is
among them, so the trace is that of scoring every removal, bit for bit. A
step of one contender, whose p-value bounds contain the step's largest
p-value, is decided unscored (`_decided`) when they lie wholly on one side
of its threshold: a stop costs no factorisation, and a Gaussian drop records
the p-value of its model's fit, the score's bit for bit. Other steps, and a
binomial drop, are scored; a run whose scored removal fails or lies outside
its bounds (a binomial high bound presumes a converged fit) scores them all.

The addition scan (forward selection and stepwise) screens and decides alike,
by `glm.Design.addition_bounds`: only additions whose least possible p-value
reaches the least of the largest possible ones, or unbounded, are scored.
Augmented backward elimination advances a run record too, from the same
bounds scoring every removal whose p-value may exceed its level, as it ranks
them all; its change-in-estimate check reads the coefficients of `FitResult`s,
built from held records, of its model and of the removals it ranks.
An addition whose design-column labels the model already has (another form
of a variable it holds) is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, islice
from typing import Sequence, Union

import numpy as np

from .chi2 import chi2_sf
from .data import Dataset, Family
from .errors import CycleDetectedError, DomainError, ExposureMissingError, ModelBuildError
from .glm import WORK, Design, Fit, FitResult, first_error, p_value_bounds
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


def _removals(design: Design, current: Fit, terms: Sequence[Term],
              scores: Sequence[Fit]) -> list[tuple[float, int, Term]]:
    """(p-value, df, term) of dropping each of `terms` from the current
    model, the models without them having scored `scores`."""
    full = (current.deviance, current.model_df)
    return [(*design.p_value(score, full), term) for score, term in zip(scores, terms)]


def _least(low: np.ndarray, high: np.ndarray, group: np.ndarray, groups: int) -> np.ndarray:
    """Whether each value, bounded by (low, high) or not (NaN), may be its group's least
    (`glm.contenders` of one group of tuples, for arrays of several groups)."""
    cut = np.full(groups, np.inf)
    np.fmin.at(cut, group, high)  # fmin skips NaN
    return ~(low > cut[group])


def _screen(runs: Sequence[_Run], protected: Sequence[Term]) -> list[list[tuple]]:
    """Each run's (term, its (low, high) p-value bounds or NaN) of the unprotected
    terms whose removal may have its largest p-value; all runs in one pass."""
    reduced, df = Design.removal_bounds([(run.design, run.spec, run.current) for run in runs])
    terms = [(i, term) for i, run in enumerate(runs) for term in run.spec.terms]
    if protected:  # no bounds, so in no cut
        reduced[[term in protected for _, term in terms]] = np.nan
    kept, tails = range(len(terms)), reduced
    if not np.isnan(reduced).all():  # the least deviances per run and size, then p-values
        owner, sizes = np.array([i for i, _ in terms]), int(df.max()) + 1
        kept = np.flatnonzero(_least(*reduced.T, owner * sizes + df, len(runs) * sizes))
        n, dev, binomial = np.array([(run.design.dataset.n, run.current.deviance,
                                      run.design.dataset.family is Family.BINOMIAL)
                                     for run in runs]).T
        tails = p_value_bounds(n[owner[kept]], reduced[kept], dev[owner[kept], None], df[kept],
                               binomial[owner[kept]] == 1.0)
        keep = _least(-tails[:, 1], -tails[:, 0], owner[kept], len(runs))
        kept, tails = kept[keep].tolist(), tails[keep]
    screens = [[] for _ in runs]
    for i, bounds in zip(kept, tails.tolist()):
        if terms[i][1] not in protected:
            screens[terms[i][0]].append((terms[i][1], bounds))
    return screens


def _decided(design: Design, criterion: Criterion,
             screened: Sequence[tuple[Term, tuple[float, float] | None]]) -> bool | None:
    """Whether the p-value of a step's one screened (term, bounds), which they
    contain, exceeds the criterion's threshold (df: the term's columns), as scoring
    would find, when they lie wholly on one side of it (NaN: on neither); else None."""
    if len(screened) != 1 or screened[0][1] is None:
        return None
    term, (low, high) = screened[0]
    threshold = criterion_threshold(criterion, design.dataset.n, len(design.term_columns[term]))
    return True if low > threshold else False if high <= threshold else None


@dataclass
class _Run:
    """One selection run on one dataset, as `_eliminate`, `_add` and augmented
    backward elimination advance it: the design of every term it can use, its
    model's spec and `glm.Fit` record (None until `_eliminate` records it), its
    steps, and the ModelBuildError that ended it."""

    design: Design | None
    spec: ModelSpec
    current: Fit | None
    steps: list[SelectionStep]
    error: ModelBuildError | None = None


def _eliminate(runs: Sequence[_Run], criterion: Criterion,
               protected: Sequence[Term] = ()) -> None:
    """Advance the runs in lock step (see the module docstring), each
    dropping its least significant unprotected term while that fails the
    criterion; a step that `_decided` settles scores nothing. A run leaves
    when it stops or when its step raises. Its IRLS iterations count in
    `glm.WORK` "in elimination" too."""
    before = WORK["IRLS iterations"]
    moves = [(run, None) for run in runs if run.current is None]  # (run, term dropped)
    runs = [run for run in runs if run.current is not None]
    while True:
        for (run, term), step in zip(moves, Design.steps(
                [(run.design, run.spec) for run, _ in moves]) if moves else ()):
            if isinstance(step, ModelBuildError):
                run.error = step
                continue
            if term is not None:
                p, _ = run.design.p_value(step, run.current)
                run.steps.append(SelectionStep("drop", term.variable, term, p, step.deviance))
            run.current = step
            runs.append(run)
        if not runs:
            break
        screens = _screen(runs, protected)
        drops = [_decided(run.design, criterion, screened) for run, screened in zip(runs, screens)]
        drops = [None if drop and run.design.dataset.family is Family.BINOMIAL else drop
                 for run, drop in zip(runs, drops)]  # a binomial drop is scored
        removals = _score_removals(runs, [[t for t, _ in screened] if drop is None else []
                                          for screened, drop in zip(screens, drops)])
        # a run whose scored removal fails or lies outside its bounds scores every removal
        missed = [isinstance(scored, ModelBuildError) or any(
            p < low or p > high for (p, _, _), (_, (low, high)) in zip(scored, screened))
            for scored, screened in zip(removals, screens)]
        if any(missed):
            again = list(compress(runs, missed))
            rescored = iter(_score_removals(
                again, [[t for t in run.spec.terms if t not in protected] for run in again]))
            removals = [next(rescored) if miss else scored
                        for scored, miss in zip(removals, missed)]
        moves = []
        for run, screened, drop, scored in zip(runs, screens, drops, removals):
            if isinstance(scored, ModelBuildError):
                run.error = scored
                continue
            worst = max(scored, key=lambda r: r[0], default=None)
            move = screened[0][0] if drop else None
            if worst is not None and worst[0] > criterion_threshold(
                    criterion, run.design.dataset.n, worst[1]):
                move = worst[2]
            if move is not None:
                run.spec = run.spec.without_term(move)
                moves.append((run, move))
        runs = []
    WORK["in elimination"] += WORK["IRLS iterations"] - before


def _score_removals(runs: Sequence[_Run], terms: Sequence[Sequence[Term]]) -> list:
    """Each run's (p-value, df, term) of dropping each of its `terms`, or the first
    ModelBuildError of those, all scored in one `glm.Design.batch_scores` call."""
    scores = iter(Design.batch_scores([
        (run.design, run.design.columns([t for t in run.spec.terms if t is not term]))
        for run, ts in zip(runs, terms) for term in ts]) if any(terms) else ())
    out = []
    for run, ts in zip(runs, terms):
        try:
            out.append(_removals(run.design, run.current, ts,
                                 first_error(list(islice(scores, len(ts))))))
        except ModelBuildError as error:
            out.append(error)
    return out


def _add(run: _Run, candidates: Sequence[Term], criterion: Criterion) -> None:
    """Advance the run by adding its most significant candidate if that passes
    the criterion. Candidates whose column labels the model already has are
    skipped, and only those whose `Design.addition_bounds` admit the least
    p-value, or that have none, are scored, unless `_decided` settles the step."""
    design, spec, current = run.design, run.spec, run.current
    admitted = [term for term in candidates if spec.admits(term)]
    blocks = [design.term_columns[term] for term in admitted]
    added = design.addition_bounds(spec.terms, blocks)
    tails = p_value_bounds(design.dataset.n, np.array([[current.deviance]]),
                           np.array([b or (math.nan,) * 2 for b in added]).reshape(-1, 2),
                           [len(block) for block in blocks])
    screened = list(compress(zip(admitted, tails.tolist()),
                             _least(*tails.T, np.zeros(len(blocks), dtype=int), 1)))
    exceeds = _decided(design, criterion, screened)
    chosen = [t for t, _ in screened] if exceeds is None else []  # the additions to score
    scores = design.scores([spec.with_term(t).terms for t in chosen])
    best = min([(*design.p_value(current, score), t) for score, t in zip(scores, chosen)],
               key=lambda r: r[0], default=None)
    move = screened[0][0] if exceeds is False else None
    if best is not None and best[0] <= criterion_threshold(criterion, design.dataset.n, best[1]):
        move = best[2]
    if move is None:
        return
    run.spec = spec.with_term(move)
    run.current = first_error(Design.steps([(design, run.spec)]))[0]
    p, _ = design.p_value(current, run.current)
    run.steps.append(SelectionStep("add", move.variable, move, p, run.current.deviance))


def backward_eliminate_batch(datasets: Sequence[Dataset], start_spec: ModelSpec,
                             criterion: Criterion, protected: Sequence[Term] = ()) -> list:
    """`backward_eliminate` of each dataset, the eliminations advancing in
    lock step (`_eliminate`): per dataset, its SelectionTrace, or the
    ModelBuildError that `backward_eliminate` raises on it."""
    runs = []
    for dataset in datasets:
        try:
            runs.append(_Run(Design(dataset, start_spec), start_spec, None, []))
        except ModelBuildError as error:  # a run that cannot start
            runs.append(_Run(None, start_spec, None, [], error))
    _eliminate([run for run in runs if not run.error], criterion, tuple(protected))
    return [run.error or SelectionTrace(start_spec, tuple(run.steps), run.spec,
                                        run.design.fit(run.spec, warn=False), criterion)
            for run in runs]


def backward_eliminate(dataset: Dataset, start_spec: ModelSpec,
                       criterion: Criterion,
                       protected: Sequence[Term] = ()) -> SelectionTrace:
    """Drop the least significant term while it fails the criterion.

    Terms generating several design columns (dummy blocks, second-degree FP
    pairs) are tested and dropped jointly. `protected` terms are never
    candidates for removal. This is `backward_eliminate_batch` of one
    dataset.
    """
    return first_error(backward_eliminate_batch([dataset], start_spec, criterion, protected))[0]


def _as_terms(candidates: Sequence[Union[str, Term]]) -> tuple[Term, ...]:
    return tuple(dict.fromkeys(c if isinstance(c, Term) else Term.linear(c)
                               for c in candidates))


def _forward(dataset: Dataset, start: ModelSpec, candidates: Sequence[Union[str, Term]],
             criterion_in: Criterion, criterion_out: Criterion | None,
             max_iterations: int) -> SelectionTrace:
    """Add the most significant absent candidate while it passes `criterion_in`;
    with `criterion_out` (stepwise), each addition is followed by a re-check of
    the model by backward elimination (`_eliminate`). Ends when `_add` takes no
    step: the model is then the start model or one a re-check ran to a stop."""
    terms = _as_terms(candidates)
    design = Design(dataset, start, terms)
    run = _Run(design, start, first_error(Design.steps([(design, start)]))[0], [])
    for _ in range(max_iterations):
        taken = len(run.steps)
        _add(run, [t for t in terms if t not in run.spec.terms], criterion_in)
        if len(run.steps) == taken:
            return SelectionTrace(start, tuple(run.steps), run.spec,
                                  design.fit(run.spec, warn=False), criterion_in)
        if criterion_out is not None:
            _eliminate([run], criterion_out)
            if run.error:
                raise run.error
    raise CycleDetectedError(f"stepwise did not settle within {max_iterations} iterations")


def forward_select(dataset: Dataset, candidates: Sequence[Union[str, Term]],
                   criterion: Criterion,
                   start_spec: ModelSpec | None = None) -> SelectionTrace:
    """Starting from the intercept-only model, repeatedly add the most
    significant remaining candidate while it passes the criterion."""
    return _forward(dataset, start_spec or ModelSpec(), candidates, criterion, None,
                    len(candidates) + 1)  # one addition per candidate, at most


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
    return _forward(dataset, ModelSpec(), candidates, criterion_in, criterion_out,
                    max_iterations)


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
    criterion = Criterion.p_value(alpha)
    if math.isnan(cie_threshold):
        raise DomainError("cie_threshold must not be NaN")
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
    run = _Run(design, start_spec, first_error(Design.steps([(design, start_spec)]))[0], [])
    final_fit = design.fit(start_spec, warn=False)  # the model's, for the exposure's change
    while True:  # a drop changes every removal's test and change: each pass ranks them all
        bounds, df = Design.removal_bounds([(design, run.spec, run.current)])
        tails = p_value_bounds(dataset.n, bounds, np.array([[run.current.deviance]]), df,
                               dataset.family is Family.BINOMIAL)
        terms = [t for t, (_, high) in zip(run.spec.terms, tails.tolist())  # p may exceed alpha
                 if t != exposure_term and not high <= alpha]
        scores = design.scores([[t for t in run.spec.terms if t is not term] for term in terms])
        ranked = sorted([(p, term, score) for (p, _, term), score
                         in zip(_removals(design, run.current, terms, scores), scores)
                         if p > alpha], key=lambda item: -item[0])
        # Only the change-in-estimate check needs a reduced FitResult: built lazily.
        for p, term, score in ranked:
            reduced_fit = design.fit(run.spec.without_term(term))
            if _max_exposure_change(final_fit, reduced_fit, exposure_labels, mode) > cie_threshold:
                run.steps.append(SelectionStep("keep-confounder", term.variable, term,
                                               p, run.current.deviance))
                continue
            run.spec, run.current, final_fit = run.spec.without_term(term), score, reduced_fit
            run.steps.append(SelectionStep("drop", term.variable, term, p, score.deviance))
            break
        else:
            return SelectionTrace(start_spec, tuple(run.steps), run.spec, final_fit, criterion)


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
