"""Multivariable model building that combines backward-elimination-style
variable selection with per-variable function selection.

Candidates are visited in order of their importance in the full linear model.
Each visit re-runs the function selection test for that variable with every
other variable held at its current function; cycles repeat until two
successive cycles give identical decisions or the cycle cap is reached.
Two significance levels tune the result: `alpha_select` governs inclusion
(step 1 of the closed test) and `alpha_fp` the nonlinearity steps. A very
small `alpha_fp` makes the procedure collapse to plain backward elimination
on linear terms; `alpha_select` near 1 keeps every variable in.

One `glm.Design` per analysis holds every candidate's base term and the FP
basis of each that can be searched; the removal order, each visit's closed
test and the final fit are column subsets of it, and its memo of fit
records lasts one visit (see `glm.Design`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import DomainError, TooFewDistinctValuesError
from .fsp import (FunctionDecision, FunctionForm, _linear_only_decision, _searchable,
                  closed_test)
from .glm import Design, FitResult
from .model import Dummy, ModelSpec, Term


@dataclass(frozen=True)
class MfpConfig:
    """Tuning knobs for a multivariable run.

    `max_degree` may be a single int or a per-variable mapping. Variables in
    `categorical` enter as a jointly tested dummy block over their distinct
    values.
    `force_in` variables skip the inclusion test entirely and so are always
    retained.
    """

    alpha_select: float = 0.05
    alpha_fp: float = 0.05
    max_degree: int | Mapping[str, int] = 2
    force_in: frozenset[str] = frozenset()
    categorical: frozenset[str] = frozenset()
    max_cycles: int = 5

    def __post_init__(self):
        for name, level in (("alpha_select", self.alpha_select), ("alpha_fp", self.alpha_fp)):
            if not 0.0 < level <= 1.0:
                raise DomainError(f"{name} must be in (0, 1], got {level}")
        if self.max_cycles < 1:
            raise DomainError("max_cycles must be >= 1")
        object.__setattr__(self, "force_in", frozenset(self.force_in))
        object.__setattr__(self, "categorical", frozenset(self.categorical))

    def degree_for(self, variable: str) -> int:
        if isinstance(self.max_degree, Mapping):
            return int(self.max_degree.get(variable, 2))
        return int(self.max_degree)


@dataclass(frozen=True)
class MfpResult:
    final_spec: ModelSpec
    decisions: dict[str, FunctionDecision]
    cycle_trace: tuple[dict[str, FunctionForm], ...]
    converged: bool
    fit: FitResult
    visit_order: tuple[str, ...] = field(default=())

    @property
    def selected_variables(self) -> tuple[str, ...]:
        return tuple(v for v in self.visit_order if self.decisions[v].included)


def _base_term(dataset: Dataset, variable: str, config: MfpConfig) -> Term:
    """Starting-model term for a candidate: linear, or a dummy block for
    variables marked categorical."""
    if variable in config.categorical:
        values = np.unique(dataset.column(variable))
        if values.size < 2:
            raise DomainError(f"categorical variable {variable!r} is constant")
        cutpoints = (values[:-1] + values[1:]) / 2.0
        return Term.categorical(variable, tuple(cutpoints), Dummy(reference=0))
    return Term.linear(variable)


def removal_order(dataset: Dataset, candidates: Sequence[str],
                  config: MfpConfig | None = None) -> tuple[str, ...]:
    """Candidates sorted by ascending p-value of removing each one from the
    model containing all of them (linear terms, dummy blocks for categorical
    variables). Ties keep the original candidate order."""
    candidates = tuple(candidates)
    if not candidates:
        return ()
    config = config or MfpConfig()
    full_spec = ModelSpec(tuple(_base_term(dataset, v, config) for v in candidates))
    return _removal_order(Design(dataset, full_spec), candidates, full_spec)


def _removal_order(design: Design, candidates: tuple[str, ...],
                   full_spec: ModelSpec) -> tuple[str, ...]:
    """`removal_order` from a design of the candidates' base terms, `full_spec`."""
    full, *reduced = design.scores([full_spec.terms] + [full_spec.without_term(term).terms
                                                        for term in full_spec.terms])
    pvalues = [design.p_value(score, full)[0] for score in reduced]
    order = sorted(range(len(candidates)), key=pvalues.__getitem__)  # stable: ties keep order
    return tuple(candidates[i] for i in order)


def _decide(design: Design, variable: str, adjustment: ModelSpec,
            config: MfpConfig, base: Term) -> FunctionDecision:
    forced = variable in config.force_in
    if variable in config.categorical:
        return _linear_only_decision(design, variable, config.alpha_select,
                                     adjustment, forced, term=base)
    return closed_test(design, variable, config.alpha_select, config.degree_for(variable),
                       adjustment, config.alpha_fp, forced)


def mfp(dataset: Dataset, candidates: Sequence[str],
        config: MfpConfig | None = None) -> MfpResult:
    """Cycle the function selection test over the candidates until stable.

    Every candidate starts linear. Excluded variables stay eligible and are
    re-tested each cycle. Returns the converged decisions (or the full trace
    with `converged=False` when the cycle cap is hit) plus the fit of the
    final spec: that of a decision that fitted it, else a fit of its own.
    """
    candidates = tuple(dict.fromkeys(candidates))
    if not candidates:
        raise DomainError("candidate set is empty")
    for v in candidates:
        dataset.index(v)
    config = config or MfpConfig()

    base = {v: _base_term(dataset, v, config) for v in candidates}
    for v in candidates:  # `closed_test` would raise this only at the variable's visit
        if v not in config.categorical and np.unique(dataset.column(v)).size < 2:
            raise TooFewDistinctValuesError(f"{v!r} is constant")
    full_spec = ModelSpec(tuple(base.values()))
    design = Design(dataset, full_spec, bases=[
        (v, None, None) for v in candidates
        if v not in config.categorical and _searchable(dataset, v)])
    order = _removal_order(design, candidates, full_spec)
    current_terms: dict[str, Term | None] = dict(base)
    decisions: dict[str, FunctionDecision] = {}
    trace: list[dict[str, FunctionForm]] = []
    converged = False
    previous_state = None
    # A variable met again with the same adjustment gets the same decision.
    memo: dict[tuple[str, ModelSpec], FunctionDecision] = {}
    for _cycle in range(config.max_cycles):
        for v in order:
            design.forget()  # fit records are kept for one visit
            adjustment = ModelSpec(tuple(
                term for other, term in current_terms.items()
                if other != v and term is not None
            ))
            decision = memo.get((v, adjustment))
            if decision is None:
                decision = memo[v, adjustment] = _decide(design, v, adjustment, config, base[v])
            decisions[v] = decision
            current_terms[v] = decision.term
        trace.append({v: decisions[v].verdict for v in order})
        state = {v: current_terms[v] for v in order}
        if state == previous_state:
            converged = True
            break
        previous_state = state
    final_spec = ModelSpec(tuple(
        current_terms[v] for v in order if current_terms[v] is not None
    ))
    # a decision's fit that dropped columns is not reused: the final fit warns of them
    fitted = next((d.fit for d in decisions.values() if d.fit is not None
                   and d.fit.spec == final_spec and not d.fit.dropped_columns), None)
    return MfpResult(
        final_spec=final_spec,
        decisions=decisions,
        cycle_trace=tuple(trace),
        converged=converged,
        fit=fitted or design.fit(final_spec),
        visit_order=order,
    )
