"""Semi-continuous covariates with positive mass at exactly zero.

Such a variable is decomposed into a binary exposure indicator Z (1 where
x > 0) and a fractional polynomial on the positive part. The FP basis is
centered at the transformed origin, so fitted values for unexposed rows do
not depend on the curve and the Z coefficient is exactly the jump at zero;
this separates the qualitative exposed/unexposed contrast from the
quantitative dose-response within the exposed. The curve is chosen by steps
2-3 of the closed function selection test (`fsp.closed_test` with the
variable forced in and Z in the adjustment), so spike-at-zero and plain FP
analyses share one implementation of that test. It and the null,
indicator-only and curve-only models run on one `glm.Design` of the
adjustment, Z and the spike basis; only the model returned is fitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import AllZeroError, DomainError, NoSpikeError
from .fp import FpPowers, PreTransform, pretransform
from .fsp import FunctionForm, _linear_only_decision, closed_test, fsp_degrees_of_freedom
from .glm import Design, FitResult
from .model import ModelSpec, Term


@dataclass(frozen=True)
class SpikeDecomposition:
    """Indicator plus transformed positive part for a spike-at-zero variable."""

    variable: str
    indicator: np.ndarray
    positive_part: np.ndarray
    zero_fraction: float
    pre: PreTransform
    origin: float  # transformed value assigned to x == 0
    n_distinct_positive: int

    def merge_back(self) -> np.ndarray:
        """Reconstruct the original column (exact inverse of the decomposition)."""
        x = self.positive_part * self.pre.scale - self.pre.shift
        return np.where(self.indicator > 0.0, x, 0.0)


def spike_decompose(x, variable: str = "x") -> SpikeDecomposition:
    """Split a nonnegative column with zeros into indicator and positive part.

    The pre-transformation is computed on the full column, so zero maps to a
    strictly positive transformed origin; positive-part values for unexposed
    rows are set to that origin, completing the design for all rows.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("spike-at-zero variable must be nonnegative")
    zeros = x == 0.0
    if not zeros.any():
        raise NoSpikeError("no zeros present; use a plain FP analysis")
    if zeros.all():
        raise AllZeroError("variable is identically zero")
    pre = pretransform(x)
    z = pre.apply(x)
    origin = float(pre.apply(np.zeros(1))[0])
    return SpikeDecomposition(
        variable=variable,
        indicator=(~zeros).astype(float),
        positive_part=np.where(zeros, origin, z),
        zero_fraction=float(zeros.mean()),
        pre=pre,
        origin=origin,
        n_distinct_positive=int(np.unique(x[~zeros]).size),
    )


class SpikeVerdict(enum.Enum):
    NONE = "none"
    Z_ONLY = "z-only"
    FP_ONLY = "fp-only"
    Z_AND_FP = "z-and-fp"


@dataclass(frozen=True)
class SpikeDecision:
    """Outcome of the component selection for one spike-at-zero variable.

    Records the joint inclusion p-value and, when reached, the removal
    p-values of each component, so the verdict can be re-derived.
    """

    variable: str
    verdict: SpikeVerdict
    fp_form: FunctionForm | None
    powers: FpPowers | None
    joint_pvalue: float
    drop_z_pvalue: float | None
    drop_fp_pvalue: float | None
    alpha: float
    decomposition: SpikeDecomposition
    terms: tuple[Term, ...]
    fit: FitResult | None


def spike_fsp(dataset: Dataset, variable: str, alpha: float,
              max_degree: int = 2,
              adjustment: ModelSpec | None = None) -> SpikeDecision:
    """Select among no effect, indicator only, curve only, or both.

    The curve for the positive part is chosen by steps 2-3 of the closed
    function selection test, run through `fsp.closed_test` (forced in) with
    Z in the adjustment and the basis centred at the transformed origin:
    straight line unless the best FP beats it, then FP1 unless the best FP2
    beats that. Its d.f. follow the function-selection convention (linear 1,
    FP1 2, FP2 4). The joint model {Z, curve} is then tested against the
    null at `alpha` (1 + curve d.f.); failure means no effect. Otherwise the
    removal of each component from the joint model is tested (1 d.f. for Z,
    the curve's d.f. for the curve), and the components whose removal is
    rejected are kept; if neither removal is rejected, the single component
    with the smaller removal p-value is kept. A degenerate positive part
    (fewer than 5 distinct values) falls back to an indicator-vs-null test.
    `max_degree` must be 1 or 2, as for `fsp_select`.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    fsp_degrees_of_freedom(max_degree)
    adjustment = adjustment or ModelSpec()
    if adjustment.has_variable(variable):
        raise DomainError(f"adjustment spec already contains {variable!r}")
    decomp = spike_decompose(dataset.column(variable), variable)
    z_term = Term.indicator(variable, 0.0)

    if decomp.n_distinct_positive < 5:
        z_only = _linear_only_decision(Design(dataset, adjustment, (z_term,)), variable, alpha,
                                       adjustment, False, term=z_term)
        verdict = SpikeVerdict.Z_ONLY if z_only.included else SpikeVerdict.NONE
        terms = (z_term,) if z_only.included else ()
        return SpikeDecision(variable, verdict, None, None, z_only.step_pvalues[0],
                             None, None, alpha, decomp, terms, z_only.fit)

    z_only = adjustment.with_term(z_term)
    design = Design(dataset, adjustment, (z_term,), [(variable, decomp.pre, decomp.origin)])
    curve = closed_test(design, variable, alpha, max_degree, z_only, alpha, True)
    fp_term, powers = curve.term, curve.powers
    fp_df = 2 * powers.degree if powers else 1

    joint = (curve.fit.deviance, curve.fit.model_df)
    p_joint, _ = design.p_value(design.scores([adjustment.terms])[0], joint, 1 + fp_df)
    if p_joint > alpha:
        return SpikeDecision(variable, SpikeVerdict.NONE, curve.verdict, powers, p_joint,
                             None, None, alpha, decomp, (), None)

    fp_only = adjustment.with_term(fp_term)
    without_z, without_fp = design.scores([fp_only.terms, z_only.terms])
    p_drop_z, _ = design.p_value(without_z, joint, 1)
    p_drop_fp, _ = design.p_value(without_fp, joint, fp_df)

    keep_z = p_drop_z <= alpha
    keep_fp = p_drop_fp <= alpha
    if keep_z and keep_fp:
        verdict, terms, final = SpikeVerdict.Z_AND_FP, (z_term, fp_term), curve.fit
    elif keep_z or (not keep_fp and p_drop_z < p_drop_fp):
        verdict, terms, final = SpikeVerdict.Z_ONLY, (z_term,), design.fit(z_only)
    else:
        verdict, terms, final = SpikeVerdict.FP_ONLY, (fp_term,), design.fit(fp_only)
    fp_kept = verdict is not SpikeVerdict.Z_ONLY
    return SpikeDecision(variable, verdict, curve.verdict if fp_kept else None,
                         powers if fp_kept else None, p_joint,
                         p_drop_z, p_drop_fp, alpha, decomp, terms, final)
