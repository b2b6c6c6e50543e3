"""Command-line front end.

Subcommands
-----------
fit            fit the all-candidates model and report coefficients
select         backward / forward / stepwise selection on linear terms
mfp            combined variable and function selection
stability      resampling inclusion-frequency analysis around a selector
shrink         selection followed by post-selection shrinkage factors
cutpoint-demo  empirical type-I error of the minimum-p-value cutpoint
simulate       scenario-based scoring of a selection procedure

Configuration is a flat ``key = value`` file with an optional ``[variables]``
table; every value can be overridden on the command line where a flag exists.
Reports are written both as JSON (machine readable, stable key order) and as
text rendered from exactly that JSON, so the two always agree.

Config keys (defaults in parentheses):
  data             path to a CSV file (required for data-driven subcommands)
  outcome          outcome column name
  family           gaussian | binomial (gaussian)
  alpha_select     inclusion level for selection steps (0.05)
  alpha_fp         level for nonlinearity steps (0.05)
  criterion        pvalue:<a> | aic | bic (pvalue:0.05)
  method           backward | forward | stepwise (backward)   [select, shrink]
  selector         be | mfp (be)                               [stability]
  scheme           subsample:<rate> | bootstrap (subsample:0.632)
  replications     resampling / simulation replication count (200)
  bif_threshold    inclusion-frequency cutoff (0.5)            [stability]
  shrinkage        global | parameterwise | joint (global)     [shrink]
  cv               auto | loo | kfold:<k> (auto)               [shrink]
  seed             master seed; required for stochastic subcommands
  out              output directory (.)
  max_cycles       cycle cap for mfp (5)
  n                sample size                                 [cutpoint-demo, simulate]
  alpha            nominal level (0.05)                        [cutpoint-demo]
  range_lo/range_hi  cutpoint search quantiles (0.10 / 0.90)   [cutpoint-demo]
  noise_sd         outcome noise (1.0)                         [simulate]
  correlation      none | exchangeable:<rho> (none)            [simulate]
  procedure        be | mfp (be)                               [simulate]

The ``[variables]`` table has one row of whitespace-separated columns per
variable; trailing columns may be left out and take their defaults, and a row
whose first column is ``name`` is a header. Each subcommand reads its own
schema:

  fit, select, mfp, stability, shrink:
    name [degree [force_in [spike [categorical]]]]
    degree 1 | 2 (2); force_in, spike, categorical yes | no (no)
    mfp reads every column, stability with selector = mfp all but spike,
    and the others only name; a column a subcommand does not read must
    keep its default
  simulate:
    name [marginal [spike_prob [effect]]]
    marginal   normal[:mu:sigma] | uniform:lo:hi | lognormal[:mu:sigma]
               | exponential[:rate] (normal)
    spike_prob probability of an exact zero, in [0, 1) (0)
    effect     null | linear:coef | log:coef | power:p:coef
               | step:threshold:coef (null)

A row with another token or more columns is a config error naming its line.
Lines starting with ``#`` are comments. When the table is omitted, every
non-outcome column is a degree-2 continuous candidate.

Exit codes:
  0  success; the text report is printed
  2  config error: unreadable config, malformed line or value, a setting out
     of its range, a missing seed; raised before any analysis runs
  3  data error: unreadable or malformed CSV, missing column; missing and
     non-finite cells drop their row, but any other non-numeric used cell or
     a row of the wrong length is an error naming the first one in file order
  4  numerical error: a model cannot be built or fitted on the data
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import simlab
from .categorize import type1_simulation
from .data import Dataset, Family
from .errors import (ConfigError, DataError, DomainError, InvalidCorrelationError,
                     ModelBuildError)
from .fsp import FunctionDecision
from .glm import FitResult, fit
from .mfp import MfpConfig, mfp
from .model import ModelSpec, Term
from .resample import Procedure, ResamplePlan, bif_select, stability
from .selection import Criterion, SelectionTrace, backward_eliminate, forward_select, stepwise
from .shrinkage import (KFold, LeaveOneOut, default_cv_scheme, global_shrinkage,
                        joint_shrinkage, parameterwise_shrinkage)
from .spike import spike_fsp

SCHEMA_VERSION = 1
MISSING_MARKERS = ("", "NA")

CUTPOINT_WARNING = (
    "WARNING: data-driven 'optimal' cutpoints come from an implicit scan over many "
    "candidate splits. The minimized p-value ignores that multiplicity, the type-I "
    "error is inflated far above the nominal level, the estimated group difference "
    "is strongly overestimated, and the chosen cutpoint is not reproducible. Do not "
    "use such cutpoints to build a final model."
)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Values written kind[:number...]: config key -> kind -> (fewest, most) numbers.
_KINDS = {
    "criterion": {"pvalue": (1, 1), "aic": (0, 0), "bic": (0, 0)},
    "scheme": {"subsample": (0, 1), "bootstrap": (0, 0)},
    "cv": {"auto": (0, 0), "loo": (0, 0), "kfold": (0, 1)},
    "correlation": {"none": (0, 0), "exchangeable": (1, 1)},
    "marginal": {"normal": (0, 2), "uniform": (2, 2), "lognormal": (0, 2),
                 "exponential": (0, 1)},
    "effect": {"null": (0, 0), "linear": (1, 1), "log": (1, 1), "power": (2, 2),
               "step": (2, 2)},
}
_MARGINALS = {"normal": simlab.Normal, "uniform": simlab.Uniform,
              "lognormal": simlab.LogNormal, "exponential": simlab.Exponential}


def _number(raw: str, what: str, convert=float):
    """`raw` converted by `convert` (float or int); a malformed value is a config error."""
    try:
        return convert(raw)
    except ValueError:
        expected = "an integer" if convert is int else "a number"
        raise ConfigError(f"{what} must be {expected}, got {raw!r}") from None


def _parse_kind(key: str, raw: str) -> tuple[str, list[float]]:
    """Split a ``kind[:number...]`` value of `key` into its kind and numbers."""
    kind, *parts = raw.lower().split(":")
    if kind not in _KINDS[key]:
        raise ConfigError(f"unknown {key} {raw!r}")
    lo, hi = _KINDS[key][kind]
    if not lo <= len(parts) <= hi:
        count = lo if lo == hi else f"{lo} to {hi}"
        raise ConfigError(f"bad {key} {raw!r}: {kind} takes {count} numbers")
    return kind, [_number(part, f"an argument of {key} {raw!r}") for part in parts]


def _configured(build, *args, **kwargs):
    """Call `build` on values read from the config. The argument checks of a
    library object raise DomainError (InvalidCorrelationError for a simulated
    correlation); here they mean the config is wrong."""
    try:
        return build(*args, **kwargs)
    except (DomainError, InvalidCorrelationError) as exc:
        raise ConfigError(str(exc)) from None


@dataclass
class VariableConfig:
    name: str
    max_degree: int = 2
    force_in: bool = False
    spike: bool = False
    categorical: bool = False


@dataclass
class AnalysisConfig:
    values: dict[str, str] = field(default_factory=dict)
    # [variables] rows as (line number, tokens); each subcommand reads its schema
    rows: list[tuple[int, list[str]]] = field(default_factory=list)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        return default if raw is None else _number(raw, f"config key {key!r}")

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        return default if raw is None else _number(raw, f"config key {key!r}", int)

    @property
    def family(self) -> Family:
        raw = self.get("family", "gaussian")
        try:
            return Family(raw.lower())
        except ValueError:
            raise ConfigError(f"unknown family {raw!r}") from None

    def criterion(self) -> Criterion:
        kind, args = _parse_kind("criterion", self.get("criterion", "pvalue:0.05"))
        return _configured(Criterion, kind, *args)

    def resample_plan(self) -> ResamplePlan:
        kind, args = _parse_kind("scheme", self.get("scheme", "subsample:0.632"))
        return _configured(ResamplePlan, self.get_int("replications", 200),
                           _required_seed(self, "resampling"), kind, *args)

    def cv_scheme(self, n: int):
        raw = self.get("cv", "auto")
        kind, args = _parse_kind("cv", raw)
        if kind == "loo" or (kind == "auto" and isinstance(default_cv_scheme(n), LeaveOneOut)):
            return LeaveOneOut()
        # kfold without a count, and auto above the leave-one-out cutoff, are ten-fold
        if not all(k.is_integer() for k in args):
            raise ConfigError(f"bad cv {raw!r}: the fold count must be a whole number")
        seed = _required_seed(self, "k-fold shrinkage")
        scheme = _configured(KFold, *map(int, args), seed=seed)
        if scheme.k > n:
            raise ConfigError(f"bad cv {raw!r}: cannot split {n} rows into {scheme.k} folds")
        return scheme


def _required_seed(config: AnalysisConfig, what: str) -> int:
    seed = config.get_int("seed")
    if seed is None:
        raise ConfigError(f"{what} needs an explicit seed (config key 'seed' or flag --seed)")
    if seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    return seed


_FLAG_VALUES = {"yes": True, "no": False, "true": True, "false": False, "y": True, "n": False}


def _parse_flag(token: str) -> bool:
    try:
        return _FLAG_VALUES[token.lower()]
    except KeyError:
        raise ConfigError(f"expected yes/no, got {token!r}") from None


_DATA_ROW = "name [degree [force_in [spike [categorical]]]]"
_SIMULATED_ROW = "name [marginal [spike_prob [effect]]]"


def _data_variable(name: str, degree: str = "2", force_in: str = "no", spike: str = "no",
                   categorical: str = "no") -> VariableConfig:
    if degree not in ("1", "2"):
        raise ConfigError(f"degree must be 1 or 2, got {degree!r}")
    return VariableConfig(name, int(degree),
                          *(_parse_flag(t) for t in (force_in, spike, categorical)))


def _simulated_variable(name: str, marginal: str = "normal", spike_prob: str = "0",
                        effect: str = "null") -> tuple[simlab.Covariate, simlab.Effect]:
    kind, args = _parse_kind("marginal", marginal)
    prob = _number(spike_prob, "spike probability")
    covariate = _configured(simlab.Covariate, name, _configured(_MARGINALS[kind], *args), prob)
    kind, args = _parse_kind("effect", effect)
    # power and step are written kind:p:coef; Effect takes (coefficient, param)
    return covariate, _configured(simlab.Effect, name, kind, *reversed(args))


def _read_rows(config: AnalysisConfig, schema: str, read_row) -> list:
    """Read each [variables] row with `read_row`, whose parameters are the
    columns of `schema`; a row that does not fit is a config error naming
    its line."""
    out = []
    for line_no, tokens in config.rows:
        try:
            if len(tokens) > len(schema.split()):
                raise ConfigError(f"expected '{schema}', got {' '.join(tokens)!r}")
            out.append(read_row(*tokens))
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    return out


def parse_config(path: str) -> AnalysisConfig:
    """Parse the flat key/value + per-variable table config format."""
    config = AnalysisConfig()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    in_table = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower() == "[variables]":
            in_table = True
            continue
        if not in_table:
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().lower(), value.strip()
            if not value:
                raise ConfigError(f"line {line_no}: empty value for key {key!r}")
            config.values[key] = value
        elif line.split()[0].lower() != "name":  # skip the optional header row
            config.rows.append((line_no, line.split()))
    return config


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_dataset(path: str, outcome: str, family: Family,
                 used_columns: Sequence[str] | None = None):
    """Load a CSV file (header row required, UTF-8) into a Dataset.

    Cells equal to "" or "NA" are missing; rows with a missing or non-finite
    value in any used column are dropped and counted. Any other non-numeric
    used cell, or a row of the wrong length, is a DataError naming the first
    one in file order, wherever it sits in its row.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read data file {path!r}: {exc}") from None
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    if outcome not in header:
        raise DataError(f"{path}: outcome column {outcome!r} not found "
                        f"(columns: {', '.join(header)})")
    used = list(used_columns) if used_columns is not None else header
    for name in used:
        if name not in header:
            raise DataError(f"{path}: column {name!r} not found")
    if outcome not in used:
        used = [outcome] + used
    col_idx = {name: header.index(name) for name in used}

    try:  # the used cells in one conversion, which parses as float() does
        if any(len(row) != len(header) for row in rows):
            raise ValueError
        cells = [["nan" if (cell := row[i].strip()) in MISSING_MARKERS else cell
                  for i in col_idx.values()] for row in rows]
        values = np.array(cells, float).reshape(-1, len(col_idx))
        keep = np.isfinite(values).all(axis=1)
        parsed, n_dropped = dict(zip(col_idx, values[keep].T)), len(rows) - int(keep.sum())
    except ValueError:  # name the first bad row or cell in file order
        for row_no, row in enumerate(rows, start=2):  # header is line 1
            if len(row) != len(header):
                raise DataError(f"{path}: line {row_no} has {len(row)} fields, "
                                f"expected {len(header)}") from None
            for name, i in col_idx.items():
                if (cell := row[i].strip()) not in MISSING_MARKERS:
                    try:
                        float(cell)
                    except ValueError:
                        raise DataError(f"{path}: line {row_no}, column {name!r}: "
                                        f"non-numeric value {cell!r}") from None
        raise  # numpy rejected a cell that float() accepts
    if not len(parsed[outcome]):
        raise DataError(f"{path}: no complete rows after dropping {n_dropped}")
    if n_dropped:
        warnings.warn(f"{path}: dropped {n_dropped} rows with missing or "
                      f"non-finite values in used columns")
    try:
        dataset = Dataset.from_columns(parsed, outcome=outcome, family=family)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return dataset, n_dropped


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def render_text(report: dict) -> str:
    """Human-readable report rendered from the JSON-parsed structure.

    Every scalar is formatted through the JSON encoder, so rendering the
    re-parsed JSON report reproduces this text byte for byte.
    """
    lines: list[str] = []
    title = f"{report.get('subcommand', 'analysis')} report"
    lines.append(title)
    lines.append("=" * len(title))

    def emit(key, value, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            for k in value:
                emit(k, value[k], indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for i, item in enumerate(value):
                emit(f"[{i}]", item, indent + 1)
        else:
            lines.append(f"{pad}{key} = {json.dumps(value, sort_keys=True)}")

    for key in report:
        if key == "subcommand":
            continue
        emit(key, report[key], 0)
    return "\n".join(lines) + "\n"


def _report_paths(out_dir: str, subcommand: str) -> tuple[str, str]:
    stem = os.path.join(out_dir, f"{subcommand.replace('-', '_')}_report")
    return stem + ".json", stem + ".txt"


def write_reports(report: dict, out_dir: str, subcommand: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    json_text = json.dumps(report, sort_keys=True, indent=2)
    json_path, text_path = _report_paths(out_dir, subcommand)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(json_text + "\n")
    text = render_text(json.loads(json_text))
    with open(text_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return json_path, text_path


def _fit_block(result: FitResult) -> dict:
    return {
        "coefficients": {lab: float(c) for lab, c in
                         zip(result.column_labels, result.coefficients)},
        "standard_errors": {lab: result.standard_error(lab) for lab in result.column_labels},
        "deviance": float(result.deviance),
        "log_likelihood": float(result.log_likelihood),
        "model_df": result.model_df,
        "n": result.n,
        "converged": result.converged,
        "iterations": result.iterations,
        "separation": result.separation,
        "dropped_columns": list(result.dropped_columns),
    }


def _decision_block(decision: FunctionDecision) -> dict:
    block = {
        "verdict": decision.verdict.value,
        "powers": list(decision.powers.values) if decision.powers else None,
        "step_pvalues": [float(p) for p in decision.step_pvalues],
        "alpha": decision.alpha,
        "alpha_nonlinear": decision.alpha_nonlinear,
        "forced_in": decision.forced_in,
    }
    if decision.pretransform is not None:
        block["pretransform"] = {"shift": decision.pretransform.shift,
                                 "scale": decision.pretransform.scale}
    if decision.degraded_to_linear:
        block["note"] = "too few distinct values for curve search; tested linear vs null"
    return block


def _trace_block(trace: SelectionTrace) -> list[dict]:
    return [
        {"action": s.action, "variable": s.variable, "p_value": float(s.p_value),
         "deviance_after": float(s.deviance_after)}
        for s in trace.steps
    ]


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def _data_and_variables(config: AnalysisConfig, honoured: Sequence[str] = ()):
    """Load the configured CSV; returns the dataset, the candidate variables
    and the report's data block. A [variables] column after `name` that is
    not `honoured` must keep its default."""
    path = config.require("data")
    outcome = config.require("outcome")
    variables = _read_rows(config, _DATA_ROW, _data_variable)
    columns = zip((c.strip("[]") for c in _DATA_ROW.split()[1:]), fields(VariableConfig)[1:])
    ignored = [(column, f) for column, f in columns if column not in honoured]
    seen = {outcome}
    for (line_no, _), variable in zip(config.rows, variables):
        if variable.name in seen:
            what = "is the outcome" if variable.name == outcome else "is listed twice"
            raise ConfigError(f"line {line_no}: variable {variable.name!r} {what}")
        seen.add(variable.name)
        for column, f in ignored:
            if getattr(variable, f.name) != f.default:
                raise ConfigError(f"line {line_no}: this analysis does not use column "
                                  f"{column!r}; leave it at its default")
    used = [outcome] + [v.name for v in variables] if variables else None
    dataset, n_dropped = load_dataset(path, outcome, config.family, used)
    if not variables:
        variables = [VariableConfig(name=v) for v in dataset.candidate_names]
    data = {
        "path": path,
        "outcome": dataset.outcome_name,
        "family": dataset.family.value,
        "n": dataset.n,
        "n_dropped_rows": n_dropped,
    }
    return dataset, variables, data


def run_fit(config: AnalysisConfig) -> dict:
    dataset, variables, data = _data_and_variables(config)
    spec = ModelSpec(tuple(Term.linear(v.name) for v in variables))
    return {"data": data, "fit": _fit_block(fit(dataset, spec))}


def _select_linear(config: AnalysisConfig, dataset: Dataset, names: list[str],
                   criterion: Criterion) -> tuple[str, SelectionTrace]:
    """Run the configured selection method (`method`, default backward) on
    linear terms of the named variables; returns (method, trace)."""
    method = config.get("method", "backward").lower()
    if method == "backward":
        trace = backward_eliminate(dataset, ModelSpec(tuple(Term.linear(v) for v in names)),
                                   criterion)
    elif method == "forward":
        trace = forward_select(dataset, names, criterion)
    elif method == "stepwise":
        trace = stepwise(dataset, names, criterion)
    else:
        raise ConfigError(f"unknown selection method {method!r}")
    return method, trace


def run_select(config: AnalysisConfig) -> dict:
    dataset, variables, data = _data_and_variables(config)
    criterion = config.criterion()
    method, trace = _select_linear(config, dataset, [v.name for v in variables], criterion)
    return {
        "data": data,
        "method": method,
        "criterion": str(criterion),
        "steps": _trace_block(trace),
        "selected": list(trace.selected_variables),
        "fit": _fit_block(trace.final_fit),
    }


def _mfp_config(config: AnalysisConfig, variables: list[VariableConfig]) -> MfpConfig:
    return _configured(
        MfpConfig,
        alpha_select=config.get_float("alpha_select", 0.05),
        alpha_fp=config.get_float("alpha_fp", 0.05),
        max_degree={v.name: v.max_degree for v in variables},
        force_in=frozenset(v.name for v in variables if v.force_in),
        categorical=frozenset(v.name for v in variables if v.categorical),
        max_cycles=config.get_int("max_cycles", 5),
    )


def _procedure(config: AnalysisConfig, key: str,
               variables: list[VariableConfig]) -> tuple[str, Procedure]:
    """The selection procedure (be | mfp) named by config key `key`, over
    `variables`; returns (kind, procedure)."""
    kind = config.get(key, "be").lower()
    names = [v.name for v in variables]
    if kind == "be":
        return kind, simlab.be_procedure(config.criterion(), names)
    if kind == "mfp":
        return kind, simlab.mfp_procedure(_mfp_config(config, variables), names)
    raise ConfigError(f"unknown {key} {kind!r}")


def run_mfp(config: AnalysisConfig) -> dict:
    dataset, variables, data = _data_and_variables(
        config, ("degree", "force_in", "spike", "categorical"))
    spike_vars = [v for v in variables if v.spike]
    plain_vars = [v for v in variables if not v.spike]
    if not plain_vars:
        raise ConfigError("mfp needs at least one non-spike candidate")
    mfp_config = _mfp_config(config, plain_vars)
    result = mfp(dataset, [v.name for v in plain_vars], mfp_config)

    # Spike-at-zero candidates are tested after the cycle, adjusting for the
    # selected model, and their retained components are appended to it.
    spike_blocks = {}
    final_spec = result.final_spec
    for v in spike_vars:
        decision = spike_fsp(dataset, v.name, mfp_config.alpha_select,
                             max_degree=v.max_degree, adjustment=final_spec)
        for term in decision.terms:
            final_spec = final_spec.with_term(term)
        spike_blocks[v.name] = {
            "verdict": decision.verdict.value,
            "powers": list(decision.powers.values) if decision.powers else None,
            "joint_pvalue": float(decision.joint_pvalue),
            "drop_indicator_pvalue": (None if decision.drop_z_pvalue is None
                                      else float(decision.drop_z_pvalue)),
            "drop_curve_pvalue": (None if decision.drop_fp_pvalue is None
                                  else float(decision.drop_fp_pvalue)),
            "zero_fraction": decision.decomposition.zero_fraction,
        }
    final_fit = fit(dataset, final_spec) if spike_vars else result.fit

    report = {
        "data": data,
        "alpha_select": mfp_config.alpha_select,
        "alpha_fp": mfp_config.alpha_fp,
        "visit_order": list(result.visit_order),
        "cycles": len(result.cycle_trace),
        "converged": result.converged,
        "cycle_trace": [
            {v: verdict.value for v, verdict in cycle.items()}
            for cycle in result.cycle_trace
        ],
        "decisions": {v: _decision_block(d) for v, d in result.decisions.items()},
        "fit": _fit_block(final_fit),
    }
    if spike_blocks:
        report["spike_decisions"] = spike_blocks
    return report


def run_stability(config: AnalysisConfig) -> dict:
    mfp_selector = config.get("selector", "be").lower() == "mfp"
    dataset, variables, data = _data_and_variables(
        config, ("degree", "force_in", "categorical") if mfp_selector else ())
    plan = config.resample_plan()
    selector_kind, procedure = _procedure(config, "selector", variables)
    threshold = config.get_float("bif_threshold", 0.5)
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"bif_threshold must be in [0, 1], got {threshold}")
    names = [v.name for v in variables]
    report_obj = stability(dataset, procedure, plan, candidates=names)
    picked = bif_select(report_obj, threshold)
    return {
        "data": data,
        "selector": selector_kind,
        "plan": {"scheme": report_obj.scheme, "replications": plan.replications,
                 "master_seed": plan.master_seed},
        "inclusion_frequencies": {v: report_obj.bif[v] for v in names},
        "co_inclusion": [[float(x) for x in row] for row in report_obj.co_inclusion],
        "model_frequencies": {" ".join(model) if model else "(none)": freq
                              for model, freq in report_obj.model_freq.items()},
        "n_failed": report_obj.n_failed,
        "bif_threshold": threshold,
        "bif_selected": list(picked.selected),
        "dependency_warnings": list(picked.warnings),
    }


def run_shrink(config: AnalysisConfig) -> dict:
    dataset, variables, data = _data_and_variables(config)
    criterion = config.criterion()
    cv = config.cv_scheme(dataset.n)
    mode = config.get("shrinkage", "global").lower()
    shrink = {"global": global_shrinkage, "parameterwise": parameterwise_shrinkage,
              "joint": joint_shrinkage}.get(mode)
    if shrink is None:
        raise ConfigError(f"unknown shrinkage mode {mode!r}")
    method, trace = _select_linear(config, dataset, [v.name for v in variables], criterion)
    spec = trace.final_spec
    if not spec.terms:
        raise ModelBuildError("selection removed every candidate; nothing to shrink")
    factors = shrink(dataset, spec, cv=cv)
    shrunken = factors.apply(trace.final_fit, dataset)
    return {
        "data": data,
        "method": method,
        "criterion": str(criterion),
        "selection_steps": _trace_block(trace),
        "selected": list(trace.selected_variables),
        "fit": _fit_block(trace.final_fit),
        "shrinkage": {
            "mode": factors.mode,
            "cv": factors.cv_description,
            "factors": {k: float(v) for k, v in factors.factors.items()},
            "shrunken_coefficients": {
                lab: float(c) for lab, c in
                zip(trace.final_fit.column_labels, shrunken)
            },
        },
    }


def run_cutpoint_demo(config: AnalysisConfig) -> dict:
    seed = _required_seed(config, "cutpoint-demo")
    n = config.get_int("n", 100)
    reps = config.get_int("replications", 1000)
    alpha = config.get_float("alpha", 0.05)
    lo = config.get_float("range_lo", 0.10)
    hi = config.get_float("range_hi", 0.90)
    # The demo reads no data, so each DomainError it raises comes from the
    # config; the replication count and range are checked before any search.
    result = _configured(type1_simulation, n, reps, alpha, (lo, hi), seed, config.family)
    control = _configured(type1_simulation, n, reps, alpha, (0.5, 0.5), seed + 1,
                          config.family)
    return {
        "n": n,
        "replications": reps,
        "nominal_alpha": alpha,
        "search_range": [lo, hi],
        "minimum_p_search": {
            "empirical_type1_rate": result.rejection_rate,
            "monte_carlo_error": result.monte_carlo_error,
        },
        "fixed_median_cutpoint_control": {
            "empirical_type1_rate": control.rejection_rate,
            "monte_carlo_error": control.monte_carlo_error,
        },
        "warning": CUTPOINT_WARNING,
    }


def build_scenario(config: AnalysisConfig) -> simlab.Scenario:
    seed = _required_seed(config, "simulate")
    variables = _read_rows(config, _SIMULATED_ROW, _simulated_variable)
    if not variables:
        raise ConfigError("simulate needs a [variables] table")
    covariates, effects = zip(*variables)
    kind, args = _parse_kind("correlation", config.get("correlation", "none"))
    correlation = None
    if kind == "exchangeable":
        correlation = np.full((len(covariates), len(covariates)), args[0])
        np.fill_diagonal(correlation, 1.0)
    return _configured(
        simlab.Scenario,
        n=config.get_int("n", 250),
        covariates=covariates,
        effects=effects,
        correlation=correlation,
        family=config.family,
        noise_sd=config.get_float("noise_sd", 1.0),
        seed=seed,
    )


def run_simulate(config: AnalysisConfig) -> dict:
    scenario = build_scenario(config)
    reps = config.get_int("replications", 200)
    kind, procedure = _procedure(config, "procedure",
                                 [VariableConfig(name) for name in scenario.covariate_names])
    # simulate reads no data, so a DomainError of the scenario (such as a log
    # effect on a covariate with nonpositive values) comes from the config.
    report = _configured(simlab.evaluate, procedure, scenario, reps)
    return {
        "procedure": kind,
        "n": scenario.n,
        "replications": reps,
        "n_failed": report.n_failed,
        "per_variable": [asdict(score) for score in report.per_variable],
        "coefficient_rmse": report.coefficient_rmse,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

RUNNERS = {
    "fit": run_fit,
    "select": run_select,
    "mfp": run_mfp,
    "stability": run_stability,
    "shrink": run_shrink,
    "cutpoint-demo": run_cutpoint_demo,
    "simulate": run_simulate,
}

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_NUMERICAL_ERROR = 4


def run(subcommand: str, config: AnalysisConfig, out_dir: str = ".") -> dict:
    """Execute one subcommand and write its reports; returns the report dict."""
    if subcommand not in RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    report = {"subcommand": subcommand, "schema_version": SCHEMA_VERSION,
              **RUNNERS[subcommand](config)}
    write_reports(report, out_dir, subcommand)
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpselect",
        description="Multivariable model building with fractional polynomials.",
    )
    parser.add_argument("subcommand", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="path to the analysis config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--alpha-select", type=float, help="override alpha_select")
    parser.add_argument("--alpha-fp", type=float, help="override alpha_fp")
    parser.add_argument("--criterion", help="override criterion (pvalue:<a> | aic | bic)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed is not None:
            config.values["seed"] = str(args.seed)
        if args.alpha_select is not None:
            config.values["alpha_select"] = str(args.alpha_select)
        if args.alpha_fp is not None:
            config.values["alpha_fp"] = str(args.alpha_fp)
        if args.criterion is not None:
            config.values["criterion"] = args.criterion
        out_dir = args.out or config.get("out", ".")
        run(args.subcommand, config, out_dir=out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (ModelBuildError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    # Print the text report as written, which is rendered from the sorted JSON.
    with open(_report_paths(out_dir, args.subcommand)[1], encoding="utf-8") as handle:
        sys.stdout.write(handle.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
