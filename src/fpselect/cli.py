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

The ``[variables]`` table has whitespace-separated columns. For data-driven
subcommands: ``name degree force_in spike categorical`` (degree 1|2, flags
yes|no). For simulate: ``name marginal spike_prob effect`` with marginals
``normal[:mu:sigma] | uniform:lo:hi | lognormal[:mu:sigma] | exponential[:rate]``
and effects ``null | linear:coef | log:coef | power:p:coef | step:threshold:coef``.
Lines starting with ``#`` are comments. When the table is omitted, every
non-outcome column is a degree-2 continuous candidate.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import simlab
from .categorize import type1_simulation
from .data import Dataset, Family
from .errors import ConfigError, DataError, ModelBuildError
from .fsp import FunctionDecision
from .glm import FitResult, fit
from .mfp import MfpConfig, mfp
from .model import ModelSpec, Term
from .resample import ResamplePlan, bif_select, stability
from .selection import (Criterion, SelectionTrace, backward_eliminate,
                        forward_select, stepwise)
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

@dataclass
class VariableConfig:
    name: str
    max_degree: int = 2
    force_in: bool = False
    spike: bool = False
    categorical: bool = False
    # simulate-only attributes
    marginal: str = "normal"
    spike_prob: float = 0.0
    effect: str = "null"


@dataclass
class AnalysisConfig:
    values: dict[str, str] = field(default_factory=dict)
    variables: list[VariableConfig] = field(default_factory=list)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]

    def get_float(self, key: str, default: float) -> float:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be a number, got {raw!r}") from None

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config key {key!r} must be an integer, got {raw!r}") from None

    @property
    def family(self) -> Family:
        raw = self.get("family", "gaussian")
        try:
            return Family(raw.lower())
        except ValueError:
            raise ConfigError(f"unknown family {raw!r}") from None

    def criterion(self) -> Criterion:
        raw = self.get("criterion", "pvalue:0.05").lower()
        if raw == "aic":
            return Criterion.aic()
        if raw == "bic":
            return Criterion.bic()
        if raw.startswith("pvalue:"):
            try:
                return Criterion.p_value(float(raw.split(":", 1)[1]))
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"bad criterion {raw!r}: {exc}") from None
        raise ConfigError(f"unknown criterion {raw!r}")

    def resample_plan(self) -> ResamplePlan:
        seed = self.get_int("seed")
        if seed is None:
            raise ConfigError("stochastic subcommand needs an explicit seed "
                              "(config key 'seed' or flag --seed)")
        raw = self.get("scheme", "subsample:0.632").lower()
        reps = self.get_int("replications", 200)
        if raw == "bootstrap":
            return ResamplePlan(replications=reps, master_seed=seed, scheme="bootstrap")
        if raw.startswith("subsample"):
            rate = 0.632
            if ":" in raw:
                try:
                    rate = float(raw.split(":", 1)[1])
                except ValueError:
                    raise ConfigError(f"bad subsample rate in {raw!r}") from None
            return ResamplePlan(replications=reps, master_seed=seed,
                                scheme="subsample", rate=rate)
        raise ConfigError(f"unknown scheme {raw!r}")

    def cv_scheme(self, n: int):
        raw = self.get("cv", "auto").lower()
        seed = self.get_int("seed", 0)
        if raw == "auto":
            scheme = default_cv_scheme(n, seed or 0)
        elif raw == "loo":
            scheme = LeaveOneOut()
        elif raw.startswith("kfold"):
            k = 10
            if ":" in raw:
                try:
                    k = int(raw.split(":", 1)[1])
                except ValueError:
                    raise ConfigError(f"bad fold count in {raw!r}") from None
            scheme = KFold(k, seed or 0)
        else:
            raise ConfigError(f"unknown cv scheme {raw!r}")
        if isinstance(scheme, KFold) and self.get_int("seed") is None:
            raise ConfigError("k-fold shrinkage needs an explicit seed")
        return scheme


_FLAG_VALUES = {"yes": True, "no": False, "true": True, "false": False, "y": True, "n": False}


def _parse_flag(token: str, line_no: int) -> bool:
    try:
        return _FLAG_VALUES[token.lower()]
    except KeyError:
        raise ConfigError(f"line {line_no}: expected yes/no, got {token!r}") from None


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
        else:
            tokens = line.split()
            if tokens[0].lower() == "name":
                continue  # optional header row
            var = VariableConfig(name=tokens[0])
            if len(tokens) > 1 and tokens[1] not in ("-",):
                if tokens[1] in ("1", "2"):
                    var.max_degree = int(tokens[1])
                else:
                    var.marginal = tokens[1]
            if len(tokens) > 2:
                if tokens[2].lower() in _FLAG_VALUES:
                    var.force_in = _parse_flag(tokens[2], line_no)
                else:
                    try:
                        var.spike_prob = float(tokens[2])
                    except ValueError:
                        raise ConfigError(
                            f"line {line_no}: expected yes/no or a spike probability, "
                            f"got {tokens[2]!r}") from None
            if len(tokens) > 3:
                if tokens[3].lower() in _FLAG_VALUES:
                    var.spike = _parse_flag(tokens[3], line_no)
                else:
                    var.effect = tokens[3]
            if len(tokens) > 4:
                var.categorical = _parse_flag(tokens[4], line_no)
            config.variables.append(var)
    return config


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def load_dataset(path: str, outcome: str, family: Family,
                 used_columns: Sequence[str] | None = None):
    """Load a CSV file (header row required, UTF-8) into a Dataset.

    Cells equal to "" or "NA" are missing; rows with a missing or non-finite
    value in any used column are dropped and counted. Non-numeric cells raise
    DataError with the offending location.
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

    parsed: dict[str, list[float]] = {name: [] for name in used}
    n_dropped = 0
    for row_no, row in enumerate(rows, start=2):  # header is line 1
        if len(row) != len(header):
            raise DataError(f"{path}: line {row_no} has {len(row)} fields, "
                            f"expected {len(header)}")
        values = {}
        missing = False
        for name in used:
            cell = row[col_idx[name]].strip()
            if cell in MISSING_MARKERS:
                missing = True
                break
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {row_no}, column {name!r}: "
                                f"non-numeric value {cell!r}") from None
            if not np.isfinite(value):
                missing = True
                break
            values[name] = value
        if missing:
            n_dropped += 1
            continue
        for name in used:
            parsed[name].append(values[name])
    if not parsed[outcome]:
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


def write_reports(report: dict, out_dir: str, subcommand: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    json_text = json.dumps(report, sort_keys=True, indent=2)
    json_path = os.path.join(out_dir, f"{subcommand.replace('-', '_')}_report.json")
    text_path = os.path.join(out_dir, f"{subcommand.replace('-', '_')}_report.txt")
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
        "standard_errors": {lab: float(np.sqrt(max(result.covariance[i, i], 0.0)))
                            for i, lab in enumerate(result.column_labels)},
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

def _data_and_variables(config: AnalysisConfig):
    path = config.require("data")
    outcome = config.require("outcome")
    family = config.family
    if config.variables:
        names = [v.name for v in config.variables]
    else:
        names = None
    used = None if names is None else [outcome] + names
    dataset, n_dropped = load_dataset(path, outcome, family, used)
    if names is None:
        variables = [VariableConfig(name=v) for v in dataset.candidate_names]
    else:
        variables = config.variables
        for v in variables:
            dataset.index(v.name)
    return dataset, variables, n_dropped


def _data_block(config: AnalysisConfig, dataset: Dataset, n_dropped: int) -> dict:
    return {
        "path": config.require("data"),
        "outcome": dataset.outcome_name,
        "family": dataset.family.value,
        "n": dataset.n,
        "n_dropped_rows": n_dropped,
    }


def run_fit(config: AnalysisConfig) -> dict:
    dataset, variables, n_dropped = _data_and_variables(config)
    spec = ModelSpec(tuple(Term.linear(v.name) for v in variables))
    result = fit(dataset, spec)
    return {
        "subcommand": "fit",
        "schema_version": SCHEMA_VERSION,
        "data": _data_block(config, dataset, n_dropped),
        "fit": _fit_block(result),
    }


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
    dataset, variables, n_dropped = _data_and_variables(config)
    criterion = config.criterion()
    method, trace = _select_linear(config, dataset, [v.name for v in variables], criterion)
    return {
        "subcommand": "select",
        "schema_version": SCHEMA_VERSION,
        "data": _data_block(config, dataset, n_dropped),
        "method": method,
        "criterion": str(criterion),
        "steps": _trace_block(trace),
        "selected": list(trace.selected_variables),
        "fit": _fit_block(trace.final_fit),
    }


def _mfp_config(config: AnalysisConfig, variables: list[VariableConfig]) -> MfpConfig:
    return MfpConfig(
        alpha_select=config.get_float("alpha_select", 0.05),
        alpha_fp=config.get_float("alpha_fp", 0.05),
        max_degree={v.name: v.max_degree for v in variables},
        force_in=frozenset(v.name for v in variables if v.force_in),
        categorical=frozenset(v.name for v in variables if v.categorical),
        max_cycles=config.get_int("max_cycles", 5),
    )


def run_mfp(config: AnalysisConfig) -> dict:
    dataset, variables, n_dropped = _data_and_variables(config)
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
        "subcommand": "mfp",
        "schema_version": SCHEMA_VERSION,
        "data": _data_block(config, dataset, n_dropped),
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


def run_stability(config: AnalysisConfig, workers: int = 1) -> dict:
    dataset, variables, n_dropped = _data_and_variables(config)
    plan = config.resample_plan()
    names = [v.name for v in variables]
    selector_kind = config.get("selector", "be").lower()
    if selector_kind == "be":
        procedure = simlab.be_procedure(config.criterion(), names)
    elif selector_kind == "mfp":
        procedure = simlab.mfp_procedure(_mfp_config(config, variables), names)
    else:
        raise ConfigError(f"unknown selector {selector_kind!r}")
    report_obj = stability(dataset, lambda d: procedure(d).selected, plan,
                           candidates=names, workers=workers)
    threshold = config.get_float("bif_threshold", 0.5)
    picked = bif_select(report_obj, threshold)
    return {
        "subcommand": "stability",
        "schema_version": SCHEMA_VERSION,
        "data": _data_block(config, dataset, n_dropped),
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
    dataset, variables, n_dropped = _data_and_variables(config)
    criterion = config.criterion()
    method, trace = _select_linear(config, dataset, [v.name for v in variables], criterion)
    spec = trace.final_spec
    if not spec.terms:
        raise ModelBuildError("selection removed every candidate; nothing to shrink")
    cv = config.cv_scheme(dataset.n)
    mode = config.get("shrinkage", "global").lower()
    if mode == "global":
        factors = global_shrinkage(dataset, spec, cv)
    elif mode == "parameterwise":
        factors = parameterwise_shrinkage(dataset, spec, cv)
    elif mode == "joint":
        factors = joint_shrinkage(dataset, spec, cv=cv)
    else:
        raise ConfigError(f"unknown shrinkage mode {mode!r}")
    shrunken = factors.apply(trace.final_fit, dataset)
    return {
        "subcommand": "shrink",
        "schema_version": SCHEMA_VERSION,
        "data": _data_block(config, dataset, n_dropped),
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
    seed = config.get_int("seed")
    if seed is None:
        raise ConfigError("cutpoint-demo needs an explicit seed")
    n = config.get_int("n", 100)
    reps = config.get_int("replications", 1000)
    alpha = config.get_float("alpha", 0.05)
    lo = config.get_float("range_lo", 0.10)
    hi = config.get_float("range_hi", 0.90)
    result = type1_simulation(n, reps, alpha, (lo, hi), seed, config.family)
    control = type1_simulation(n, reps, alpha, (0.5, 0.5), seed + 1, config.family)
    return {
        "subcommand": "cutpoint-demo",
        "schema_version": SCHEMA_VERSION,
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


def _parse_marginal(text: str) -> simlab.Uniform | simlab.Normal | simlab.LogNormal | simlab.Exponential:
    parts = text.lower().split(":")
    kind, args = parts[0], [float(x) for x in parts[1:]]
    if kind == "normal":
        return simlab.Normal(*args) if args else simlab.Normal()
    if kind == "uniform":
        if len(args) != 2:
            raise ConfigError(f"uniform marginal needs lo:hi, got {text!r}")
        return simlab.Uniform(*args)
    if kind == "lognormal":
        return simlab.LogNormal(*args) if args else simlab.LogNormal()
    if kind == "exponential":
        return simlab.Exponential(*args) if args else simlab.Exponential()
    raise ConfigError(f"unknown marginal {text!r}")


def _parse_effect(name: str, text: str) -> simlab.Effect:
    parts = text.lower().split(":")
    kind = parts[0]
    try:
        if kind == "null":
            return simlab.Effect(name, "null")
        if kind in ("linear", "log"):
            return simlab.Effect(name, kind, float(parts[1]))
        if kind in ("power", "step"):
            return simlab.Effect(name, kind, float(parts[2]), param=float(parts[1]))
    except (IndexError, ValueError):
        raise ConfigError(f"bad effect spec {text!r} for variable {name!r}") from None
    raise ConfigError(f"unknown effect {text!r}")


def build_scenario(config: AnalysisConfig) -> simlab.Scenario:
    seed = config.get_int("seed")
    if seed is None:
        raise ConfigError("simulate needs an explicit seed")
    if not config.variables:
        raise ConfigError("simulate needs a [variables] table")
    covariates = []
    effects = []
    for v in config.variables:
        covariates.append(simlab.Covariate(v.name, _parse_marginal(v.marginal),
                                           spike_prob=v.spike_prob))
        effect = _parse_effect(v.name, v.effect)
        if effect.form != "null":
            effects.append(effect)
    correlation = None
    raw_corr = config.get("correlation", "none").lower()
    if raw_corr.startswith("exchangeable"):
        try:
            rho = float(raw_corr.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ConfigError(f"bad correlation spec {raw_corr!r}") from None
        p = len(covariates)
        correlation = np.full((p, p), rho)
        np.fill_diagonal(correlation, 1.0)
    elif raw_corr != "none":
        raise ConfigError(f"unknown correlation spec {raw_corr!r}")
    return simlab.Scenario(
        n=config.get_int("n", 250),
        covariates=tuple(covariates),
        effects=tuple(effects),
        correlation=correlation,
        family=config.family,
        noise_sd=config.get_float("noise_sd", 1.0),
        seed=seed,
    )


def run_simulate(config: AnalysisConfig) -> dict:
    scenario = build_scenario(config)
    reps = config.get_int("replications", 200)
    kind = config.get("procedure", "be").lower()
    names = scenario.covariate_names
    if kind == "be":
        procedure = simlab.be_procedure(config.criterion(), names)
    elif kind == "mfp":
        procedure = simlab.mfp_procedure(_mfp_config(config, config.variables), names)
    else:
        raise ConfigError(f"unknown procedure {kind!r}")
    report = simlab.evaluate(procedure, scenario, reps)
    return {
        "subcommand": "simulate",
        "schema_version": SCHEMA_VERSION,
        "procedure": kind,
        "n": scenario.n,
        "replications": reps,
        "n_failed": report.n_failed,
        "per_variable": [
            {
                "variable": s.variable,
                "true_form": s.true_form,
                "inclusion_rate": s.inclusion_rate,
                "inclusion_mc_error": s.inclusion_mc_error,
                "correct_rate": s.correct_rate,
                "shape_distance_mean": s.shape_distance_mean,
                "shape_distance_mc_error": s.shape_distance_mc_error,
            }
            for s in report.per_variable
        ],
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


def run(subcommand: str, config: AnalysisConfig, out_dir: str = ".",
        workers: int = 1) -> dict:
    """Execute one subcommand and write its reports; returns the report dict."""
    if subcommand not in RUNNERS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    if subcommand == "stability":
        report = run_stability(config, workers=workers)
    else:
        report = RUNNERS[subcommand](config)
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
    parser.add_argument("--workers", type=int, default=1,
                        help="max concurrent replications (stability)")
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
        report = run(args.subcommand, config, out_dir=out_dir, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (ModelBuildError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    print(render_text(report), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
