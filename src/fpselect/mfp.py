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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import Dataset
from .errors import DomainError
from .fsp import FunctionDecision, FunctionForm, fsp_select, _linear_only_decision
from .glm import FitResult, deviance_test, fit
from .model import Dummy, ModelSpec, Term


@dataclass(frozen=True)
class MfpConfig:
    """Tuning knobs for a multivariable run.

    `max_degree` may be a single int or a per-variable mapping. Variables in
    `binary` get a plain 1-d.f. inclusion test; variables in `categorical`
    enter as a jointly tested dummy block over their distinct values.
    `force_in` variables skip the inclusion test entirely and so are always
    retained.
    """

    alpha_select: float = 0.05
    alpha_fp: float = 0.05
    max_degree: int | Mapping[str, int] = 2
    force_in: frozenset[str] = frozenset()
    binary: frozenset[str] = frozenset()
    categorical: frozenset[str] = frozenset()
    max_cycles: int = 5

    def __post_init__(self):
        for name, level in (("alpha_select", self.alpha_select), ("alpha_fp", self.alpha_fp)):
            if not 0.0 < level <= 1.0:
                raise DomainError(f"{name} must be in (0, 1], got {level}")
        if self.max_cycles < 1:
            raise DomainError("max_cycles must be >= 1")
        object.__setattr__(self, "force_in", frozenset(self.force_in))
        object.__setattr__(self, "binary", frozenset(self.binary))
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
    terms = {v: _base_term(dataset, v, config) for v in candidates}
    full_spec = ModelSpec(tuple(terms[v] for v in candidates))
    full_fit = fit(dataset, full_spec)
    pvalues = []
    for position, v in enumerate(candidates):
        reduced = full_spec.without_term(terms[v])
        reduced_fit = fit(dataset, reduced)
        df = max(full_fit.model_df - reduced_fit.model_df, 1)
        pvalues.append((deviance_test(reduced_fit, full_fit, df), position, v))
    pvalues.sort(key=lambda item: (item[0], item[1]))
    return tuple(v for _, _, v in pvalues)


def _decide(dataset: Dataset, variable: str, adjustment: ModelSpec,
            config: MfpConfig) -> FunctionDecision:
    forced = variable in config.force_in
    if variable in config.categorical or variable in config.binary:
        return _linear_only_decision(dataset, variable, config.alpha_select,
                                     adjustment, forced,
                                     term=_base_term(dataset, variable, config))
    return fsp_select(dataset, variable, config.alpha_select,
                      max_degree=config.degree_for(variable),
                      adjustment=adjustment,
                      alpha_nonlinear=config.alpha_fp,
                      force_in=forced)


def mfp(dataset: Dataset, candidates: Sequence[str],
        config: MfpConfig | None = None) -> MfpResult:
    """Cycle the function selection test over the candidates until stable.

    Every candidate starts linear. Excluded variables stay eligible and are
    re-tested each cycle. Returns the converged decisions (or the full trace
    with `converged=False` when the cycle cap is hit) plus a fresh fit of the
    final spec.
    """
    candidates = tuple(dict.fromkeys(candidates))
    if not candidates:
        raise DomainError("candidate set is empty")
    for v in candidates:
        dataset.index(v)
    config = config or MfpConfig()

    order = removal_order(dataset, candidates, config)
    current_terms: dict[str, Term | None] = {
        v: _base_term(dataset, v, config) for v in candidates
    }
    decisions: dict[str, FunctionDecision] = {}
    trace: list[dict[str, FunctionForm]] = []
    converged = False
    previous_state = None
    # A variable met again with the same adjustment gets the same decision.
    memo: dict[tuple[str, ModelSpec], FunctionDecision] = {}
    for _cycle in range(config.max_cycles):
        for v in order:
            adjustment = ModelSpec(tuple(
                term for other, term in current_terms.items()
                if other != v and term is not None
            ))
            decision = memo.get((v, adjustment))
            if decision is None:
                decision = memo[v, adjustment] = _decide(dataset, v, adjustment, config)
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
    final_fit = fit(dataset, final_spec)
    return MfpResult(
        final_spec=final_spec,
        decisions=decisions,
        cycle_trace=tuple(trace),
        converged=converged,
        fit=final_fit,
        visit_order=order,
    )
