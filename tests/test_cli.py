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
from fpselect import cli
from fpselect import DataError
from fpselect.cli import (EXIT_CONFIG_ERROR, EXIT_DATA_ERROR, EXIT_NUMERICAL_ERROR,
                          load_dataset, main, render_text)

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


def run_cli(tmp_path, subcommand, settings, flags=()):
    data = tmp_path / "data.csv"
    if not data.exists():
        write_binary_data(data)
    config = tmp_path / "analysis.cfg"
    lines = [f"data = {data}", "outcome = y", "family = binomial", "criterion = aic"]
    config.write_text("\n".join(lines + list(settings)) + "\n", encoding="utf-8")
    out = tmp_path / subcommand
    code = main([subcommand, "--config", str(config), "--out", str(out), *flags])
    report_path = out / f"{subcommand.replace('-', '_')}_report.json"
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


# Each flag overrides its config key; `other` is the config's own value.
OVERRIDES = [
    pytest.param("stability", ["replications = 5"], "seed", "--seed", "7", "1", id="seed"),
    pytest.param("mfp", [], "alpha_select", "--alpha-select", "0.5", "0.05",
                 id="alpha-select"),
    pytest.param("mfp", [], "alpha_fp", "--alpha-fp", "0.9", "0.05", id="alpha-fp"),
    pytest.param("select", [], "criterion", "--criterion", "pvalue:0.5", "bic",
                 id="criterion"),
]


@pytest.mark.parametrize("subcommand, settings, key, flag, value, other", OVERRIDES)
def test_override_flag_gives_the_report_of_its_config_key(tmp_path, subcommand, settings, key,
                                                           flag, value, other, capsys):
    code, keyed = run_cli(tmp_path, subcommand, settings + [f"{key} = {value}"])
    assert code == 0
    code, flagged = run_cli(tmp_path, subcommand, settings + [f"{key} = {other}"], [flag, value])
    assert code == 0
    code, unflagged = run_cli(tmp_path, subcommand, settings + [f"{key} = {other}"])
    assert code == 0
    capsys.readouterr()
    assert flagged == keyed
    assert unflagged != keyed  # the flag changes what the analysis does


class TestFailureExitCodes:
    """A data error exits 3 and a model that cannot be built exits 4; in
    both cases with one line on stderr and no report written."""

    def test_non_numeric_cell_exits_3(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("y,a\n1,0.5\n0,1.5\n1,abc\n", encoding="utf-8")
        code, _ = run_cli(tmp_path, "fit", [])
        assert code == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert "line 4, column 'a': non-numeric value 'abc'" in err
        assert not (tmp_path / "fit").exists()

    def test_short_row_exits_3(self, tmp_path, capsys):
        (tmp_path / "data.csv").write_text("y,a\n1,0.5\n0\n1,2.5\n", encoding="utf-8")
        code, _ = run_cli(tmp_path, "fit", [])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err.endswith(": line 3 has 1 fields, expected 2\n")
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("line3, line5, message", [
        ("1,abc", "0", "line 3, column 'a': non-numeric value 'abc'"),
        ("0", "1,abc", "line 3 has 1 fields, expected 2"),
    ])
    def test_the_first_bad_row_or_cell_in_file_order_is_named(self, tmp_path, capsys,
                                                               line3, line5, message):
        (tmp_path / "data.csv").write_text(f"y,a\n1,0.5\n{line3}\n0,1.5\n{line5}\n",
                                           encoding="utf-8")
        code, _ = run_cli(tmp_path, "fit", [])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err.endswith(f": {message}\n")

    def test_unfittable_model_exits_4(self, tmp_path, capsys):
        rows = [f"{i % 2},{i},5" for i in range(1, 21)]
        (tmp_path / "data.csv").write_text("\n".join(["y,a,c"] + rows) + "\n",
                                           encoding="utf-8")
        code, _ = run_cli(tmp_path, "mfp", [])
        assert code == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().err == "numerical error: 'c' is constant\n"
        assert not (tmp_path / "mfp").exists()


class TestPrintedReport:
    @pytest.mark.parametrize("subcommand, settings", [
        pytest.param("fit", [], id="fit"),
        pytest.param("select", [], id="select"),
        pytest.param("mfp", [], id="mfp"),
        pytest.param("stability", ["seed = 1", "replications = 5"], id="stability"),
        pytest.param("shrink", [], id="shrink"),
        pytest.param("cutpoint-demo", ["seed = 1", "n = 40", "replications = 100"],
                     id="cutpoint-demo"),
        pytest.param("simulate", ["seed = 1", "n = 60", "replications = 2", "[variables]",
                                  "a normal 0 linear:1", "b"], id="simulate"),
    ])
    def test_stdout_is_the_text_report_rendered_from_the_json(self, tmp_path, subcommand,
                                                              settings, capsys):
        code, report = run_cli(tmp_path, subcommand, settings)
        assert code == 0
        printed = capsys.readouterr().out
        out = tmp_path / subcommand
        stem = subcommand.replace("-", "_")
        assert printed == (out / f"{stem}_report.txt").read_text(encoding="utf-8")
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


def _analysis_must_not_run(*args, **kwargs):
    raise AssertionError("the analysis ran before the config was checked")


# run_cli writes four config lines, so the first setting is on line 5.
BAD_CONFIGS = {
    "criterion_alpha_above_one": ("select", ["criterion = pvalue:1.5"], "config error:"),
    "subsample_rate_above_one": ("stability", ["seed = 1", "scheme = subsample:1.5"],
                                 "config error:"),
    "negative_seed": ("stability", ["seed = -1", "replications = 5"], "config error:"),
    "zero_replications": ("stability", ["seed = 1", "replications = 0"], "config error:"),
    "bif_threshold_above_one": ("stability", ["seed = 1", "replications = 5",
                                              "bif_threshold = 2"], "config error:"),
    "zero_alpha_select": ("mfp", ["alpha_select = 0"], "config error:"),
    "zero_max_cycles": ("mfp", ["max_cycles = 0"], "config error:"),
    "one_fold": ("shrink", ["seed = 1", "cv = kfold:1"], "config error:"),
    "spike_probability_above_one": ("simulate", ["seed = 1", "[variables]",
                                                 "a lognormal 1.5"], "config error: line 7:"),
    "too_few_cutpoint_replications": ("cutpoint-demo", ["seed = 1", "replications = 10"],
                                      "config error:"),
    "reversed_cutpoint_range": ("cutpoint-demo", ["seed = 1", "range_lo = 0.8",
                                                  "range_hi = 0.2"], "config error:"),
    "marginal_argument_not_a_number": ("simulate", ["seed = 1", "[variables]", "a normal:abc"],
                                       "config error: line 7:"),
    "too_many_marginal_arguments": ("simulate", ["seed = 1", "[variables]", "a normal:1:2:3"],
                                    "config error: line 7:"),
    "zero_simulate_replications": ("simulate", ["seed = 1", "replications = 0", "[variables]",
                                                "a"], "config error:"),
    "log_effect_on_a_normal_covariate": ("simulate", ["seed = 1", "replications = 2",
                                                      "[variables]", "a normal 0 log:1"],
                                         "config error:"),
    "degree_three": ("mfp", ["[variables]", "a 3 no no"], "config error: line 6:"),
    "spike_column_not_a_flag": ("mfp", ["[variables]", "a 2 no 0.5"], "config error: line 6:"),
    "data_row_too_long": ("mfp", ["[variables]", "a", "b 2 no no no no"],
                          "config error: line 7:"),
    "simulate_row_too_long": ("simulate", ["seed = 1", "[variables]",
                                           "x1 normal 0 linear:1 yes"], "config error: line 7:"),
    "variable_listed_twice": ("select", ["[variables]", "a", "a"], "config error: line 7:"),
    "outcome_listed_as_a_variable": ("mfp", ["[variables]", "a", "y"],
                                     "config error: line 7:"),
    "more_folds_than_rows": ("shrink", ["seed = 1", "cv = kfold:500"], "config error:"),
    "uniform_lo_above_hi": ("simulate", ["seed = 1", "[variables]", "a uniform:3:1"],
                            "config error: line 7:"),
    "normal_negative_sigma": ("simulate", ["seed = 1", "[variables]", "a normal:0:-1"],
                              "config error: line 7:"),
    "lognormal_infinite_sigma": ("simulate", ["seed = 1", "[variables]", "a lognormal:0:inf"],
                                 "config error: line 7:"),
    "exponential_zero_rate": ("simulate", ["seed = 1", "[variables]", "a exponential:0"],
                              "config error: line 7:"),
    "noise_sd_nan": ("simulate", ["seed = 1", "noise_sd = nan", "[variables]", "a"],
                     "config error:"),
    "noise_sd_infinite": ("simulate", ["seed = 1", "noise_sd = inf", "[variables]", "a"],
                          "config error:"),
    "negative_noise_sd": ("simulate", ["seed = 1", "noise_sd = -1", "[variables]", "a"],
                          "config error:"),
    "effect_coefficient_nan": ("simulate", ["seed = 1", "[variables]", "a normal 0 linear:nan"],
                               "config error: line 7:"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_mistake_exits_2_before_any_analysis(tmp_path, case, capsys, monkeypatch):
    subcommand, settings, message = BAD_CONFIGS[case]
    for name in ("stability", "mfp", "backward_eliminate", "forward_select", "stepwise"):
        monkeypatch.setattr(cli, name, _analysis_must_not_run)
    code, _ = run_cli(tmp_path, subcommand, settings)
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / subcommand).exists()


# A [variables] column the subcommand does not read must keep its default:
# before, `b 2 yes` was dropped by selection although force_in was asked for.
UNUSED_COLUMNS = [
    pytest.param("fit", [], "b 1", "degree", id="fit-degree"),
    pytest.param("select", [], "b 2 yes", "force_in", id="select-force_in"),
    pytest.param("select", [], "b 2 no no yes", "categorical", id="select-categorical"),
    pytest.param("shrink", [], "b 2 yes", "force_in", id="shrink-force_in"),
    pytest.param("stability", ["seed = 1", "selector = be"], "b 2 yes", "force_in",
                 id="stability_be-force_in"),
    pytest.param("stability", ["seed = 1", "selector = be"], "b 1", "degree",
                 id="stability_be-degree"),
    pytest.param("stability", ["seed = 1", "selector = mfp"], "b 2 no yes", "spike",
                 id="stability_mfp-spike"),
]


@pytest.mark.parametrize("subcommand, settings, row, column", UNUSED_COLUMNS)
def test_unused_variable_column_is_a_config_error(tmp_path, subcommand, settings, row, column,
                                                  capsys, monkeypatch):
    for name in ("fit", "stability", "mfp", "backward_eliminate", "forward_select", "stepwise"):
        monkeypatch.setattr(cli, name, _analysis_must_not_run)
    code, _ = run_cli(tmp_path, subcommand, settings + ["[variables]", "a", row])
    assert code == EXIT_CONFIG_ERROR
    line = 7 + len(settings)
    assert capsys.readouterr().err.startswith(
        f"config error: line {line}: this analysis does not use column {column!r}")
    assert not (tmp_path / subcommand).exists()


@pytest.mark.parametrize("subcommand", ["fit", "select"])
def test_unused_variable_column_at_its_default_is_accepted(tmp_path, subcommand, capsys):
    code, bare = run_cli(tmp_path, subcommand, ["[variables]", "a", "b"])
    assert code == 0
    code, spelled = run_cli(tmp_path, subcommand, ["[variables]", "a 2 no n false", "b 2"])
    assert code == 0
    capsys.readouterr()
    assert spelled == bare


class TestLoadDatasetFiniteCells:
    """Rows with an infinite or NaN cell in a used column are dropped with
    one warning; finite cells load as the floats they spell."""

    def test_non_finite_cells_drop_their_rows(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a,b\n1.5,2,3\ninf,1,1\n2.5,-inf,0\n0.5,1,nan\n3,NaN,1\n"
                        "-1,4,7\n2,1,Infinity\n", encoding="utf-8")
        with pytest.warns(UserWarning) as record:
            dataset, dropped = load_dataset(str(path), "y", Family.GAUSSIAN, ["y", "a"])
        assert dropped == 3  # rows with inf, -inf and NaN in y or a; b is unused
        assert [str(w.message) for w in record] == [
            f"{path}: dropped 3 rows with missing or non-finite values in used columns"]
        assert dataset.outcome.tolist() == [1.5, 0.5, -1.0, 2.0]
        assert dataset.column("a").tolist() == [2.0, 1.0, 4.0, 1.0]

    def test_missing_markers_drop_rows_with_a_used_cell(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a,b\n1.5,2,NA\n,1,1\n2.5,NA,0\n0.5,1,\n3,4,1\n",
                        encoding="utf-8")
        with pytest.warns(UserWarning, match="dropped 2 rows"):
            dataset, dropped = load_dataset(str(path), "y", Family.GAUSSIAN, ["y", "a"])
        assert dropped == 2  # "" in y and "NA" in a; the markers in unused b keep their rows
        assert dataset.outcome.tolist() == [1.5, 0.5, 3.0]
        assert dataset.column("a").tolist() == [2.0, 1.0, 4.0]

    def test_no_complete_rows_is_a_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("y,a\nNA,1\n2,\n", encoding="utf-8")
        with pytest.raises(DataError, match="no complete rows after dropping 2"):
            load_dataset(str(path), "y", Family.GAUSSIAN)

    def test_finite_file_loads_byte_identically(self, tmp_path):
        rng = np.random.default_rng(809)
        values = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["y", "a", "b"])
            writer.writerows([[repr(v) for v in row] for row in values.tolist()] + [["1e-320", "0", "-0.0"]])
        expected = np.vstack([values, [1e-320, 0.0, -0.0]])
        dataset, dropped = load_dataset(str(path), "y", Family.GAUSSIAN)
        assert dropped == 0
        for j, name in enumerate(("y", "a", "b")):
            column = dataset.outcome if name == "y" else dataset.column(name)
            assert column.tobytes() == np.ascontiguousarray(expected[:, j]).tobytes()


class TestLoadDatasetOneConversion:
    """`load_dataset` parses the used cells in one numpy conversion; when
    that conversion fails, it names the first bad row or cell in file order."""

    AWKWARD = [["1_000", " 1.5 ", "x"], ["inf", "2", "x"], ["-0.0", " 3.5", "x"],
               ["١٢", "+.5", "x"], ["5.", "NA", "x"], ["4.9e-324", "1e400", "x"],
               ["0.30000000000000004441", " -Infinity", "x"], ["", "7", "x"],
               ["nan", "8", "x"], ["1e-5", "123456789012345678901234567890", "x"]]

    @staticmethod
    def _write(tmp_path, rows):
        path = tmp_path / "data.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([["y", "a", "b"]] + rows)
        return str(path)

    def test_awkward_cells_load_as_float_parses_them(self, tmp_path):
        with pytest.warns(UserWarning, match="dropped"):
            dataset, dropped = load_dataset(self._write(tmp_path, self.AWKWARD), "y",
                                            Family.GAUSSIAN, ["y", "a"])
        assert dropped == 6
        expected = [(float(y.strip()), float(a.strip())) for y, a, _ in self.AWKWARD
                    if "" not in (y.strip(), a.strip()) and "NA" not in (y, a)]
        expected = np.array([row for row in expected if np.isfinite(row).all()])
        assert dataset.outcome.tobytes() == np.ascontiguousarray(expected[:, 0]).tobytes()
        assert dataset.column("a").tobytes() == np.ascontiguousarray(expected[:, 1]).tobytes()

    @pytest.mark.parametrize("dropping_cell", ["NA", "inf"])
    def test_non_numeric_cell_is_an_error_beside_a_dropping_cell(self, tmp_path, dropping_cell):
        path = self._write(tmp_path, self.AWKWARD + [[dropping_cell, "abc", "x"]])
        with pytest.raises(DataError, match="line 12, column 'a': non-numeric value 'abc'"):
            load_dataset(path, "y", Family.GAUSSIAN, ["y", "a"])
