"""Golden reports of the command-line front end, one or more per subcommand.

Each case writes a config next to two small CSV files generated with
``simlab.generate`` (a Gaussian and a binomial scenario), runs
``fpselect.cli.main`` in-process from that directory, and compares the JSON
report with ``tests/golden/<case>.json``: keys, strings, ints, bools and
nulls exactly, floats to 1e-12 relative.

The stored reports were written by running this file as a script from the
repository root (``PYTHONPATH=src python tests/test_cli_golden.py``), which
rewrites every file under ``tests/golden/``. A golden pins what a config
produces, so regenerate only for a change meant to alter a report, and give
the reason in CHANGES.md.
"""

import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from fpselect import simlab
from fpselect.cli import RUNNERS, main
from fpselect.data import Family

GOLDEN = Path(__file__).resolve().parent / "golden"

GAUSSIAN = simlab.Scenario(
    n=120,
    covariates=(
        simlab.Covariate("x1", simlab.LogNormal()),
        simlab.Covariate("x2", simlab.Uniform(0.5, 3.0)),
        simlab.Covariate("x3"),
        simlab.Covariate("x4"),
        simlab.Covariate("s", simlab.Exponential(), spike_prob=0.3),
    ),
    effects=(
        simlab.Effect("x1", "log", 1.0),
        simlab.Effect("x2", "power", 0.8, param=-1.0),
        simlab.Effect("x3", "linear", 0.5),
        simlab.Effect("s", "log", 0.6),
    ),
    noise_sd=0.7,
    seed=1907,
)

BINOMIAL = simlab.Scenario(
    n=90,
    covariates=tuple(simlab.Covariate(f"x{j}") for j in range(1, 5)),
    effects=(simlab.Effect("x1", "linear", 1.0), simlab.Effect("x2", "linear", -0.7)),
    family=Family.BINOMIAL,
    seed=786,
)

SIMULATED_VARIABLES = [
    "[variables]",
    "name marginal spike_prob effect",
    "x1 normal:0:1 0 linear:0.8",
    "x2 uniform:0.5:3 0 power:-1:1.0",
    "x3 lognormal 0.3 log:0.7",
    "x4 exponential:2 0 step:0.5:1",
    "x5 lognormal:0:0.5 0 null",
    "x6",
]

# case name: (subcommand, config lines)
CASES = {
    "fit": ("fit", ["data = binomial.csv", "family = binomial"]),
    "select": ("select", ["data = binomial.csv", "family = binomial",
                          "criterion = bic", "method = stepwise"]),
    "mfp_spike": ("mfp", ["data = gaussian.csv", "alpha_select = 0.1", "max_cycles = 4",
                          "[variables]", "x1 2 no no", "x2 2", "x3 1 yes", "x4",
                          "s 2 no yes", "g 1 no no yes"]),
    "stability_be": ("stability", ["data = gaussian.csv", "selector = be",
                                   "criterion = pvalue:0.1", "scheme = subsample:0.5",
                                   "replications = 20", "seed = 7", "bif_threshold = 0.6"]),
    "stability_mfp": ("stability", ["data = gaussian.csv", "selector = mfp",
                                    "replications = 3", "seed = 3",
                                    "[variables]", "x1", "x2 1", "x3 1 no"]),
    "stability_bootstrap": ("stability", ["data = binomial.csv", "family = binomial",
                                          "selector = be", "criterion = aic",
                                          "scheme = bootstrap", "replications = 15",
                                          "seed = 11"]),
    "shrink_loo": ("shrink", ["data = binomial.csv", "family = binomial", "criterion = aic",
                              "shrinkage = parameterwise", "cv = loo"]),
    "shrink_kfold": ("shrink", ["data = gaussian.csv", "method = forward", "shrinkage = joint",
                                "cv = kfold:5", "seed = 5"]),
    "cutpoint_demo": ("cutpoint-demo", ["n = 40", "replications = 100", "seed = 9",
                                        "range_lo = 0.2", "range_hi = 0.8"]),
    "simulate_be": ("simulate", ["n = 80", "replications = 6", "seed = 13",
                                 "correlation = exchangeable:0.2", "noise_sd = 0.8",
                                 "criterion = pvalue:0.157", *SIMULATED_VARIABLES]),
    "simulate_mfp": ("simulate", ["n = 60", "replications = 2", "seed = 17",
                                  "family = binomial", "procedure = mfp",
                                  *SIMULATED_VARIABLES]),
}


def write_csv(path: Path, scenario: simlab.Scenario, grouped: str | None = None) -> None:
    """Replication 0 of the scenario; `grouped` adds a three-level column `g`
    cut from that covariate at -0.5 and 0.5."""
    dataset = simlab.generate(scenario)
    names = list(dataset.column_names)
    columns = [dataset.column(name) for name in names]
    if grouped is not None:
        x = dataset.column(grouped)
        names.append("g")
        columns.append((x > -0.5).astype(float) + (x > 0.5))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))


def run_case(directory: Path, case: str) -> tuple[int, dict | None]:
    """Run one case with `directory` as the working directory."""
    subcommand, lines = CASES[case]
    write_csv(directory / "gaussian.csv", GAUSSIAN, grouped="x4")
    write_csv(directory / "binomial.csv", BINOMIAL)
    (directory / f"{case}.cfg").write_text(
        "\n".join(["outcome = y", *lines]) + "\n", encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        code = main([subcommand, "--config", f"{case}.cfg", "--out", case])
    finally:
        os.chdir(cwd)
    report_path = directory / case / f"{subcommand.replace('-', '_')}_report.json"
    return code, json.loads(report_path.read_text(encoding="utf-8")) if code == 0 else None


def assert_matches(actual, expected, where="report"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), where
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(actual, float), where
        assert math.isclose(actual, expected, rel_tol=1e-12), f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(tmp_path, case, capsys):
    code, report = run_case(tmp_path, case)
    capsys.readouterr()
    assert code == 0
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert_matches(report, expected)


def test_every_subcommand_has_a_golden():
    assert {subcommand for subcommand, _ in CASES.values()} == set(RUNNERS)


def test_gaussian_data_has_a_spike_and_a_grouped_column(tmp_path):
    write_csv(tmp_path / "gaussian.csv", GAUSSIAN, grouped="x4")
    with open(tmp_path / "gaussian.csv", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    s = np.array([float(r["s"]) for r in rows])
    assert 0.1 < np.mean(s == 0.0) < 0.5
    assert sorted({r["g"] for r in rows}) == ["0.0", "1.0", "2.0"]


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            status, produced = run_case(Path(scratch), name)
        if status != 0:
            sys.exit(f"{name}: exit code {status}")
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(produced, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
