"""Multivariable model building for continuous and mixed covariates.

Combines variable selection (backward elimination and variants) with
functional-form selection via fractional polynomials, spike-at-zero handling,
post-selection shrinkage, and resampling-based stability analysis.
"""

from .categorize import (CutpointResult, CutScheme, Type1SimulationResult,
                         cut_by_quantiles, min_p_cutpoint, type1_simulation)
from .chi2 import chi2_sf
from .data import Dataset, Family
from .errors import (AllZeroError, CollinearComponentsError, ConfigError,
                     CycleDetectedError, DataError, DegenerateVariableError,
                     DomainError, ExposureMissingError, FoldFitFailureError,
                     InvalidCorrelationError, ModelBuildError, NoSpikeError,
                     NotNestedError, RangeEmptyError, RankDeficientError,
                     TooFewDistinctValuesError)
from .fp import (FP_POWER_SET, FpPowers, PreTransform, enumerate_fp, fp_basis,
                 pretransform)
from .fpsearch import FpSearchResult, best_fp
from .fsp import FunctionDecision, FunctionForm, fsp_degrees_of_freedom, fsp_select
from .glm import FitResult, deviance_test, fit
from .mfp import MfpConfig, MfpResult, mfp, removal_order
from .model import (Categorical, Dummy, Fp, Indicator, Linear, ModelSpec,
                    OrdinalScores, Term, design_matrix)
from .resample import (BifSelection, ResamplePlan, StabilityReport, bif_select,
                       stability)
from .selection import (Criterion, ScreenResult, SelectionStep, SelectionTrace,
                        augmented_backward_eliminate, backward_eliminate,
                        backward_eliminate_batch, criterion_threshold, forward_select, stepwise,
                        univariable_screen)
from .shrinkage import (KFold, LeaveOneOut, ShrinkageFactors, default_cv_scheme,
                        global_shrinkage, joint_shrinkage,
                        parameterwise_shrinkage)
from .simlab import (Covariate, Effect, EvaluationReport, Exponential, LogNormal,
                     Normal, Scenario, Uniform, be_procedure, evaluate, generate,
                     mfp_procedure)
from .spike import (SpikeDecision, SpikeDecomposition, SpikeVerdict,
                    spike_decompose, spike_fsp)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
