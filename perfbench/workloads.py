"""The benchmark's four analyses of fpselect, their inputs and their gate.

Every input comes from `simlab.generate` on one 8-covariate scenario, seeded
from the command line. Each workload turns dataset `index` of a seed into one
analysis: `prepare` builds the input (not timed), `analyse` runs the analysis
(timed), `summarize` reduces the result to the JSON-able output that the
reference gate compares.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "fpselect" / "__init__.py").is_file():
    raise ImportError(f"fpselect sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import fpselect  # noqa: E402
from fpselect import simlab  # noqa: E402
from fpselect.data import Family  # noqa: E402

if Path(fpselect.__file__).resolve().parent != SRC / "fpselect":
    raise ImportError(f"imported fpselect from {fpselect.__file__}, not from {SRC}")

# Program functions are looked up on their modules at call time, so that a
# traced run reaches them through the tracer's wrappers.
MFP_MODULE = importlib.import_module("fpselect.mfp")
CLI = importlib.import_module("fpselect.cli")

# References exist for these seeds. Dataset 0 of DEFAULT_SEED is the anchor:
# every run analyses it first, untimed, and checks it against its reference.
# Keep HELD_OUT_SEED out of tuning, so that a claim can be re-checked on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 8191
REFERENCE_DIR = Path(__file__).resolve().parent / "references"
WORK_DIR = ROOT / ".bench_work"

P = 8
RHO = 0.3


def scenario(seed: int, n: int, family: Family) -> simlab.Scenario:
    """x1 LogNormal with a log effect, x2 Uniform(0.5, 3) with a power -1
    effect, x3 Normal and x4 Exponential with linear effects, x5-x8 null;
    exchangeable correlation 0.3, no spike covariates."""
    covariates = (
        simlab.Covariate("x1", simlab.LogNormal()),
        simlab.Covariate("x2", simlab.Uniform(0.5, 3.0)),
        simlab.Covariate("x3", simlab.Normal()),
        simlab.Covariate("x4", simlab.Exponential()),
    ) + tuple(simlab.Covariate(f"x{j}", simlab.Normal()) for j in range(5, P + 1))
    effects = (
        simlab.Effect("x1", "log", 1.0),
        simlab.Effect("x2", "power", 1.0, param=-1.0),
        simlab.Effect("x3", "linear", 0.5),
        simlab.Effect("x4", "linear", 0.5),
    )
    correlation = np.full((P, P), RHO)
    np.fill_diagonal(correlation, 1.0)
    return simlab.Scenario(n=n, covariates=covariates, effects=effects,
                           correlation=correlation, family=family, seed=seed)


def generate(seed: int, index: int, n: int, family: Family):
    return simlab.generate(scenario(seed, n, family), replication=index)


def _json_normal(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _relative_error(value: float, reference: float) -> float:
    if value == reference:
        return 0.0
    return abs(value - reference) / max(abs(reference), np.finfo(float).tiny)


@dataclass(frozen=True)
class MfpWorkload:
    """`mfp()` in-process on a simulated dataset."""

    name: str
    family: Family
    n: int
    deviance_rtol: float
    trace_analyses: int
    reference_datasets: int
    replications: int = 0

    def prepare(self, seed: int, index: int):
        return generate(seed, index, self.n, self.family)

    def analyse(self, dataset):
        return MFP_MODULE.mfp(dataset, dataset.candidate_names)

    def summarize(self, result) -> tuple[dict, int]:
        decisions = result.decisions
        output = {
            "selected": list(result.selected_variables),
            "verdicts": {v: d.verdict.value for v, d in decisions.items()},
            "powers": {v: list(d.powers.values) if d.powers else None
                       for v, d in decisions.items()},
            "deviance": float(result.fit.deviance),
            "converged": bool(result.converged),
            "cycles": len(result.cycle_trace),
        }
        return _json_normal(output), 0

    def compare(self, output: dict, reference: dict) -> list[str]:
        problems = [f"{key}: {output[key]!r} differs from reference {reference[key]!r}"
                    for key in ("selected", "verdicts", "powers", "converged", "cycles")
                    if output[key] != reference[key]]
        error = _relative_error(output["deviance"], reference["deviance"])
        if not error <= self.deviance_rtol:
            problems.append(f"deviance {output['deviance']!r} differs from reference "
                            f"{reference['deviance']!r} by {error:.3g} relative "
                            f"(limit {self.deviance_rtol:g})")
        return problems

    def check(self, output: dict) -> list[str]:
        problems = []
        if not math.isfinite(output["deviance"]) or output["deviance"] < 0.0:
            problems.append(f"final deviance {output['deviance']!r} is not a finite >= 0 value")
        if set(output["verdicts"]) != {f"x{j}" for j in range(1, P + 1)}:
            problems.append("decisions do not cover every candidate")
        for v in output["selected"]:
            if output["verdicts"].get(v) in (None, "excluded"):
                problems.append(f"{v} is selected but its verdict is {output['verdicts'].get(v)!r}")
        if not 1 <= output["cycles"] <= 5:
            problems.append(f"cycle count {output['cycles']} outside 1..5")
        return problems


@dataclass(frozen=True)
class CliWorkload:
    """One `fpselect.cli.main` call on a CSV written from a simulated dataset,
    with its printed report captured."""

    name: str
    subcommand: str
    family: Family
    n: int
    settings: tuple[str, ...]
    trace_analyses: int
    reference_datasets: int
    replications: int = 0

    @property
    def directory(self) -> Path:
        return WORK_DIR / self.name

    def prepare(self, seed: int, index: int) -> list[str]:
        dataset = generate(seed, index, self.n, self.family)
        self.directory.mkdir(parents=True, exist_ok=True)
        data_path = self.directory / "data.csv"
        with open(data_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(dataset.column_names)
            writer.writerows([repr(float(v)) for v in row]
                             for row in zip(*dataset.columns))
        config_path = self.directory / "analysis.cfg"
        lines = [f"data = {data_path.relative_to(ROOT).as_posix()}", "outcome = y",
                 f"family = {self.family.value}", *self.settings]
        config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [self.subcommand, "--config", config_path.relative_to(ROOT).as_posix(),
                "--out", (self.directory / "out").relative_to(ROOT).as_posix()]
        if self.replications:
            argv += ["--seed", str(_resample_seed(seed, index))]
        return argv

    def analyse(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            code = CLI.main(argv)
        if code != 0:
            raise RuntimeError(f"fpselect {' '.join(argv)} exited with code {code}")
        return code

    def summarize(self, _result) -> tuple[dict, int]:
        path = self.directory / "out" / f"{self.subcommand}_report.json"
        report = json.loads(path.read_text(encoding="utf-8"))
        if self.subcommand == "stability":
            return report, int(report["n_failed"])
        return _json_normal({"selected": sorted(report["selected"]),
                             "factors": report["shrinkage"]["factors"],
                             "cv": report["shrinkage"]["cv"]}), 0

    def compare(self, output: dict, reference: dict) -> list[str]:
        if self.subcommand == "stability":
            if output == reference:
                return []
            keys = sorted(k for k in set(output) | set(reference)
                          if output.get(k) != reference.get(k))
            return [f"stability report differs from reference in {', '.join(keys)}"]
        problems = [f"{key}: {output[key]!r} differs from reference {reference[key]!r}"
                    for key in ("selected", "cv") if output[key] != reference[key]]
        if set(output["factors"]) != set(reference["factors"]):
            problems.append(f"shrinkage groups {sorted(output['factors'])} differ from "
                            f"reference {sorted(reference['factors'])}")
        else:
            for group, value in output["factors"].items():
                error = _relative_error(value, reference["factors"][group])
                if not error <= 1e-10:
                    problems.append(f"factor {group} = {value!r} differs from reference "
                                    f"{reference['factors'][group]!r} by {error:.3g} relative")
        return problems

    def check(self, output: dict) -> list[str]:
        problems = []
        if self.subcommand == "stability":
            if output["plan"]["replications"] != self.replications:
                problems.append("replication count differs from the configured one")
            for v, freq in output["inclusion_frequencies"].items():
                if not 0.0 <= freq <= 1.0:
                    problems.append(f"inclusion frequency of {v} is {freq!r}")
            total = sum(output["model_frequencies"].values())
            if abs(total - 1.0) > 1e-9:
                problems.append(f"model frequencies sum to {total!r}")
        else:
            if not output["selected"]:
                problems.append("no variable selected")
            for group, value in output["factors"].items():
                if not math.isfinite(value):
                    problems.append(f"shrinkage factor {group} is {value!r}")
        return problems


def _resample_seed(seed: int, index: int) -> int:
    """Master seed of the stability resampling for dataset `index`."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(index, 1)).generate_state(1)
    return int(state[0])


# trace_analyses: datasets in a traced run. reference_datasets: datasets per
# reference seed with a stored output, five times what one 30 s run analyses
# on a 2-vCPU host, so that a run of a 5x faster program on a reference seed
# still has a reference for every dataset it analyses.
WORKLOADS = {
    w.name: w for w in (
        MfpWorkload("mfp_gauss", Family.GAUSSIAN, n=500, deviance_rtol=1e-10,
                    trace_analyses=8, reference_datasets=450),
        MfpWorkload("mfp_binom", Family.BINOMIAL, n=300, deviance_rtol=1e-7,
                    trace_analyses=3, reference_datasets=80),
        CliWorkload("stability_be", "stability", Family.GAUSSIAN, n=500,
                    settings=("selector = be", "replications = 50"),
                    trace_analyses=5, reference_datasets=160, replications=50),
        CliWorkload("shrink_loo", "shrink", Family.BINOMIAL, n=200,
                    settings=("criterion = aic", "shrinkage = parameterwise",
                              "cv = auto"),
                    trace_analyses=10, reference_datasets=500),
    )
}


def reference_path(workload_name: str) -> Path:
    return REFERENCE_DIR / f"{workload_name}.json"


def load_references(workload_name: str) -> dict[int, list[dict]]:
    """Stored outputs by seed; entry i is the output for dataset i."""
    path = reference_path(workload_name)
    if not path.is_file():
        return {}
    stored = json.loads(path.read_text(encoding="utf-8"))
    return {int(seed): outputs for seed, outputs in stored["seeds"].items()}
