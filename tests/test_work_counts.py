"""Pinned work counts: small fixed analyses of each procedure, their work
counted by `glm.WORK` (see "Work counts" in the `glm` module docstring) and
compared with the totals stored here.

A change that alters the work of these analyses updates `PINNED` in the same
diff and gives the reason in CHANGES.md: what now does more or less work, and
why the outputs stay the same."""

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, Family, LeaveOneOut, ModelSpec, ResamplePlan, Term,
                      backward_eliminate, be_procedure, glm, mfp, parameterwise_shrinkage,
                      stability)

CANDIDATES = ("x1", "x2", "x3", "x4", "x5")


def _dataset(family, n, seed):
    """A log-shaped x1, linear x2 and x3, and noise x4 and x5."""
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.3, 6.0, n)
    x2, x3, x4, x5 = rng.standard_normal((4, n))
    eta = np.log(x1) + 0.5 * x2 - 0.3 * x3
    y = (eta + rng.standard_normal(n) if family is Family.GAUSSIAN
         else (rng.random(n) < 1.0 / (1.0 + np.exp(0.5 - eta))).astype(float))
    return Dataset.from_columns({"x1": x1, "x2": x2, "x3": x3, "x4": x4, "x5": x5, "y": y},
                                outcome="y", family=family)


def _shrink_loo(seed):
    """Parameterwise shrinkage, by leave-one-out, of the model AIC elimination keeps."""
    ds = _dataset(Family.BINOMIAL, 80, seed)
    trace = backward_eliminate(ds, ModelSpec(tuple(Term.linear(v) for v in CANDIDATES)),
                               Criterion.aic())
    return parameterwise_shrinkage(ds, trace.final_spec, LeaveOneOut())


ANALYSES = {  # each a function of a dataset seed
    "mfp_gauss": lambda seed: mfp(_dataset(Family.GAUSSIAN, 200, seed), CANDIDATES),
    "mfp_binom": lambda seed: mfp(_dataset(Family.BINOMIAL, 200, seed), CANDIDATES),
    "stability_be": lambda seed: stability(_dataset(Family.GAUSSIAN, 100, seed),
                                           be_procedure(Criterion.p_value(0.157)),
                                           ResamplePlan(replications=20, master_seed=seed)),
    "shrink_loo": _shrink_loo,
}
SEEDS = (1, 2)
KEYS = ("designs factorised", "models fitted", "IRLS runs", "IRLS iterations",
        "in elimination", "bound steps")
PINNED = {  # (analysis, seed): the counts of KEYS
    ("mfp_gauss", 1): (49, 47, 0, 0, 0, 0),
    ("mfp_gauss", 2): (49, 49, 0, 0, 0, 0),
    ("mfp_binom", 1): (3446, 411, 55, 3444, 0, 0),
    ("mfp_binom", 2): (3196, 411, 55, 3196, 0, 0),
    ("stability_be", 1): (67, 67, 0, 0, 0, 0),
    ("stability_be", 2): (59, 59, 0, 0, 0, 0),
    ("shrink_loo", 1): (412, 82, 7, 412, 5, 6),
    ("shrink_loo", 2): (342, 86, 10, 342, 18, 12),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ANALYSES)
def test_work_is_pinned(name, seed):
    before = glm.WORK.copy()
    ANALYSES[name](seed)
    assert {key: glm.WORK[key] - before[key] for key in glm.WORK} == dict(
        zip(KEYS, PINNED[name, seed]))
