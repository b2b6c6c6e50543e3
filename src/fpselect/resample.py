"""Resampling-based model stability: inclusion frequencies, pairwise
co-inclusion, and selected-model frequencies around any selection procedure.

Replication r draws its row indices from an RNG stream derived only from
(master_seed, r), so reports are bit-identical regardless of execution order,
chunking or worker count. The default scheme is subsampling without
replacement at rate 0.632; the nonparametric bootstrap is available.

A procedure, the one protocol of `stability` and `simlab.evaluate`, maps a
list of datasets to the fit of the model it selected on each, or the
ModelBuildError that selecting raised; `run_chunk` hands it chunks of
`glm._LOCKSTEP_FITS` replications (`simlab.be_procedure` eliminates them in
lock step). `stability` keeps the keyword `selector` that callers use.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .data import Dataset
from .errors import DomainError, ModelBuildError
from .glm import _LOCKSTEP_FITS, FitResult

Procedure = Callable[[list[Dataset]], Sequence[Union[FitResult, ModelBuildError]]]


def run_chunk(procedure: Procedure, make: Callable[[int], Dataset], first: int,
              replications: int) -> list[tuple[Dataset, FitResult | ModelBuildError]]:
    """The datasets `make` builds for `glm._LOCKSTEP_FITS` replications from
    `first` (fewer at `replications`), each with the procedure's result, one
    FitResult with a spec or ModelBuildError per dataset, else DomainError."""
    datasets = [make(r) for r in range(first, min(first + _LOCKSTEP_FITS, replications))]
    results = list(procedure(datasets))
    if len(results) != len(datasets):
        raise DomainError(f"procedure returned {len(results)} results for {len(datasets)} datasets")
    for r in results:
        if not (isinstance(r, ModelBuildError) or isinstance(r, FitResult) and r.spec is not None):
            raise DomainError(f"procedure returned a {type(r).__name__}, not a fit with a spec")
    return list(zip(datasets, results))


DEFAULT_SUBSAMPLE_RATE = 0.632


@dataclass(frozen=True)
class ResamplePlan:
    """How to resample: scheme ("subsample" or "bootstrap"), replication count,
    and the master seed all replication streams derive from."""

    replications: int
    master_seed: int
    scheme: str = "subsample"
    rate: float = DEFAULT_SUBSAMPLE_RATE

    def __post_init__(self):
        if self.scheme not in ("subsample", "bootstrap"):
            raise DomainError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "subsample" and not 0.0 < self.rate < 1.0:
            raise DomainError(f"subsample rate must be in (0, 1), got {self.rate}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")

    def draw_indices(self, n: int, replication: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=(replication,)))
        if self.scheme == "bootstrap":
            return rng.integers(0, n, size=n)
        m = int(round(self.rate * n))
        m = min(max(m, 1), n)
        return rng.choice(n, size=m, replace=False)

    def describe(self) -> str:
        if self.scheme == "bootstrap":
            return "bootstrap with replacement"
        return f"subsample without replacement, rate {self.rate:g}"


@dataclass(frozen=True)
class StabilityReport:
    """Aggregated inclusion behaviour over resampling replications.

    `co_inclusion[i, j]` is the fraction of replications selecting both
    variables i and j (diagonal equals the inclusion frequency). `model_freq`
    maps each distinct selected set to its fraction; fractions are over the
    successful replications only, with failures counted separately.
    """

    variables: tuple[str, ...]
    bif: dict[str, float]
    co_inclusion: np.ndarray
    model_freq: dict[tuple[str, ...], float]
    replications: int
    n_failed: int
    scheme: str

    def union_frequency(self, a: str, b: str) -> float:
        i, j = self.variables.index(a), self.variables.index(b)
        return self.bif[a] + self.bif[b] - float(self.co_inclusion[i, j])


def stability(dataset: Dataset, selector: Procedure, plan: ResamplePlan,
              candidates: Sequence[str] | None = None,
              workers: int = 1) -> StabilityReport:
    """Run the selector procedure on every resampled dataset and aggregate inclusions.

    The selector gets the datasets, each drawn with its own seed, in chunks
    (`run_chunk`), each reduced to its selected variables as it ends.
    Replications whose result is a model-building error are counted as
    failed and excluded from every denominator. Workers > 1 runs the chunks
    in a thread pool; results are identical to the sequential run.
    """
    variables = tuple(candidates) if candidates is not None else dataset.candidate_names
    if not variables:
        raise DomainError("no candidate variables to track")
    indices = {v: i for i, v in enumerate(variables)}

    def chunk_variables(first: int) -> list:  # the selected variables of each success
        chunk = run_chunk(selector, lambda r: dataset.take_rows(plan.draw_indices(dataset.n, r)),
                          first, plan.replications)
        return [fitted.spec.variables for _, fitted in chunk
                if not isinstance(fitted, ModelBuildError)]

    firsts = range(0, plan.replications, _LOCKSTEP_FITS)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(chunk_variables, firsts))
    else:
        chunks = [chunk_variables(first) for first in firsts]

    p = len(variables)
    joint = np.zeros((p, p))
    model_counter: Counter[tuple[str, ...]] = Counter()
    n_ok = 0
    for selected in (frozenset(names) for chunk in chunks for names in chunk):
        unknown = selected.difference(variables)
        if unknown:
            raise DomainError(f"selector returned untracked variables: {sorted(unknown)}")
        n_ok += 1
        idx = sorted(indices[v] for v in selected)
        joint[np.ix_(idx, idx)] += 1.0
        model_counter[tuple(sorted(selected))] += 1
    if n_ok == 0:
        raise DomainError("every replication failed; nothing to aggregate")
    joint /= n_ok
    return StabilityReport(
        variables=variables,
        bif={v: float(joint[i, i]) for v, i in indices.items()},
        co_inclusion=joint,
        model_freq={model: count / n_ok for model, count in sorted(model_counter.items())},
        replications=plan.replications,
        n_failed=plan.replications - n_ok,
        scheme=plan.describe(),
    )


@dataclass(frozen=True)
class BifSelection:
    threshold: float
    selected: tuple[str, ...]
    warnings: tuple[str, ...]


def bif_select(report: StabilityReport, threshold: float) -> BifSelection:
    """Variables whose inclusion frequency reaches the threshold.

    Pairs that are both individually below the threshold but whose union
    inclusion frequency exceeds it are flagged: either-or selection of
    correlated variables depresses both individual frequencies, so dropping
    both on frequency alone can discard a real signal.
    """
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must be in [0, 1], got {threshold}")
    selected = tuple(v for v in report.variables if report.bif[v] >= threshold)
    excluded = [v for v in report.variables if report.bif[v] < threshold]
    notes = []
    for i, a in enumerate(excluded):
        for b in excluded[i + 1:]:
            union = report.union_frequency(a, b)
            if union > threshold:
                notes.append(
                    f"{a} and {b} are each below the threshold "
                    f"({report.bif[a]:.2f}, {report.bif[b]:.2f}) but at least one of them "
                    f"is selected in {union:.2f} of replications; their inclusions are "
                    "dependent and excluding both may lose a real effect"
                )
    return BifSelection(threshold=threshold, selected=selected, warnings=tuple(notes))
