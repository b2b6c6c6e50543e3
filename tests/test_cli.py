"""Command-line front end: configuration, dispatch and import cost."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpselect import Family, MfpConfig, mfp, spike_fsp
from fpselect.cli import EXIT_CONFIG_ERROR, build_parser, load_dataset, main, render_text

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_stats():
    code = "import sys, fpselect.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert out.stdout.strip() == "False"


def test_workers_default_to_one():
    # The stability thread pool is slower than the sequential path.
    args = build_parser().parse_args(["stability", "--config", "analysis.cfg"])
    assert args.workers == 1


def write_binary_data(path, seed=5, n=200):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4))
    eta = 0.9 * x[:, 0] - 0.7 * x[:, 1]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "a", "b", "c", "d"])
        for row_y, row_x in zip(y, x):
            writer.writerow([row_y] + [f"{v:.6f}" for v in row_x])


def run_cli(tmp_path, subcommand, settings):
    data = tmp_path / "data.csv"
    if not data.exists():
        write_binary_data(data)
    config = tmp_path / "analysis.cfg"
    lines = [f"data = {data}", "outcome = y", "family = binomial", "criterion = aic"]
    config.write_text("\n".join(lines + list(settings)) + "\n", encoding="utf-8")
    out = tmp_path / subcommand
    code = main([subcommand, "--config", str(config), "--out", str(out)])
    report_path = out / f"{subcommand}_report.json"
    report = json.loads(report_path.read_text()) if code == 0 else None
    return code, report


class TestSelectionMethod:
    @pytest.mark.parametrize("subcommand", ["select", "shrink"])
    def test_unknown_method_is_a_config_error(self, tmp_path, subcommand, capsys):
        code, _ = run_cli(tmp_path, subcommand, ["method = bogus"])
        assert code == EXIT_CONFIG_ERROR
        assert "unknown selection method 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["backward", "forward", "stepwise"])
    def test_shrink_uses_the_selection_of_select(self, tmp_path, method, capsys):
        code, selected = run_cli(tmp_path, "select", [f"method = {method}"])
        assert code == 0
        code, shrunk = run_cli(tmp_path, "shrink", [f"method = {method}"])
        assert code == 0
        capsys.readouterr()
        assert shrunk["method"] == selected["method"] == method
        assert shrunk["selected"] == selected["selected"]
        assert shrunk["selection_steps"] == selected["steps"]
        assert shrunk["fit"] == selected["fit"]

    def test_shrink_defaults_to_backward(self, tmp_path, capsys):
        code, report = run_cli(tmp_path, "shrink", [])
        assert code == 0
        capsys.readouterr()
        assert report["method"] == "backward"


class TestPrintedReport:
    @pytest.mark.parametrize("subcommand", ["fit", "select", "mfp"])
    def test_stdout_is_the_text_report_rendered_from_the_json(self, tmp_path, subcommand,
                                                              capsys):
        code, report = run_cli(tmp_path, subcommand, [])
        assert code == 0
        printed = capsys.readouterr().out
        out = tmp_path / subcommand
        assert printed == (out / f"{subcommand}_report.txt").read_text(encoding="utf-8")
        assert printed == render_text(report)


def write_spike_data(path, seed=11, n=300):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 4.0, n)
    b = rng.standard_normal(n)
    s = np.where(rng.random(n) < 0.35, 0.0, rng.uniform(0.2, 6.0, n))
    exposed = s > 0
    y = (np.log(a) + 0.4 * b + 0.9 * exposed
         + np.where(exposed, 1.2 * np.log(np.where(exposed, s, 1.0)), 0.0)
         + rng.normal(scale=0.5, size=n))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "a", "b", "s"])
        writer.writerows([repr(float(v)) for v in row] for row in zip(y, a, b, s))


def test_mfp_spike_decision_adjusts_for_the_final_mfp_model(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_spike_data(data)
    config = tmp_path / "analysis.cfg"
    config.write_text("\n".join([
        f"data = {data}", "outcome = y", "family = gaussian", "[variables]",
        "a 2 no no", "b 1 no no", "s 2 no yes"]) + "\n", encoding="utf-8")
    assert main(["mfp", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "mfp_report.json").read_text(encoding="utf-8"))

    dataset, _ = load_dataset(str(data), "y", Family.GAUSSIAN, ["y", "a", "b", "s"])
    result = mfp(dataset, ["a", "b"], MfpConfig(max_degree={"a": 2, "b": 1}))
    assert report["visit_order"] == list(result.visit_order)
    decision = spike_fsp(dataset, "s", 0.05, max_degree=2, adjustment=result.final_spec)
    assert decision.verdict.value == "z-and-fp" and decision.powers is not None
    assert report["spike_decisions"] == {"s": {
        "verdict": decision.verdict.value,
        "powers": list(decision.powers.values),
        "joint_pvalue": decision.joint_pvalue,
        "drop_indicator_pvalue": decision.drop_z_pvalue,
        "drop_curve_pvalue": decision.drop_fp_pvalue,
        "zero_fraction": decision.decomposition.zero_fraction,
    }}
