"""Command-line front end: configuration, dispatch and import cost."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fpselect.cli import EXIT_CONFIG_ERROR, main

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_stats():
    code = "import sys, fpselect.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert out.stdout.strip() == "False"


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
