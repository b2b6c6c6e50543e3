"""Function selection procedure: verdicts, closed-test hierarchy, error control."""

import importlib

import numpy as np
import pytest

from fpselect import (Dataset, DomainError, FpPowers, FunctionForm, ModelSpec,
                      Term, TooFewDistinctValuesError, fsp_degrees_of_freedom,
                      fsp_select)

fsp_module = importlib.import_module("fpselect.fsp")


def gaussian_dataset(x, y, extra=None):
    cols = {"x": x, "y": y}
    if extra:
        cols.update(extra)
    return Dataset.from_columns(cols, outcome="y")


class TestDegreesOfFreedom:
    def test_degree_two(self):
        assert fsp_degrees_of_freedom(2) == (4, 3, 2)

    def test_degree_one(self):
        assert fsp_degrees_of_freedom(1) == (2, 1)

    def test_unsupported_degree(self):
        with pytest.raises(DomainError):
            fsp_degrees_of_freedom(3)


class TestVerdicts:
    def test_pure_noise_mostly_excluded(self):
        rng = np.random.default_rng(97)
        reps, excluded = 300, 0
        for _ in range(reps):
            x = rng.uniform(0.5, 3.0, 150)
            y = rng.normal(size=150)
            decision = fsp_select(gaussian_dataset(x, y), "x", 0.05)
            if decision.verdict is FunctionForm.EXCLUDED:
                excluded += 1
        rate = 1.0 - excluded / reps
        # familywise error close to the nominal 5% (wide band at 300 reps)
        assert 0.01 <= rate <= 0.10

    def test_strong_linear_effect_called_linear(self):
        rng = np.random.default_rng(101)
        reps = 120
        counts = {form: 0 for form in FunctionForm}
        for _ in range(reps):
            x = rng.uniform(0.5, 3.0, 250)
            y = 3.0 * x + rng.normal(size=250)
            counts[fsp_select(gaussian_dataset(x, y), "x", 0.05).verdict] += 1
        assert counts[FunctionForm.EXCLUDED] == 0
        assert counts[FunctionForm.LINEAR] / reps > 0.85
        # false nonlinearity near alpha
        assert (counts[FunctionForm.FP1] + counts[FunctionForm.FP2]) / reps < 0.12

    def test_quadratic_effect_called_fp1_power_two(self):
        rng = np.random.default_rng(103)
        hits = 0
        for _ in range(40):
            x = rng.uniform(0.5, 3.0, 250)
            y = x ** 2 + rng.normal(scale=0.3, size=250)
            decision = fsp_select(gaussian_dataset(x, y), "x", 0.05)
            if decision.verdict is FunctionForm.FP1 and decision.powers == FpPowers((2.0,)):
                hits += 1
        assert hits >= 32

    def test_max_degree_one_two_steps(self):
        rng = np.random.default_rng(107)
        x = rng.uniform(0.5, 4.0, 300)
        y = np.log(x) + rng.normal(scale=0.2, size=300)
        decision = fsp_select(gaussian_dataset(x, y), "x", 0.05, max_degree=1)
        assert decision.verdict is FunctionForm.FP1
        assert decision.powers == FpPowers((0.0,))
        assert len(decision.step_pvalues) == 2


class TestClosedTestStructure:
    def test_hierarchy_replayable(self):
        rng = np.random.default_rng(109)
        for _ in range(40):
            x = rng.uniform(0.5, 4.0, 120)
            kind = rng.integers(0, 3)
            signal = [np.zeros(120), 2.0 * x, 1.0 / x][kind]
            y = signal + rng.normal(size=120)
            d = fsp_select(gaussian_dataset(x, y), "x", 0.10)
            ps = d.step_pvalues
            if d.verdict is FunctionForm.EXCLUDED:
                assert ps[0] > d.alpha
            elif d.verdict is FunctionForm.LINEAR:
                assert ps[0] <= d.alpha and ps[1] > d.alpha_nonlinear
            elif d.verdict is FunctionForm.FP1:
                assert ps[0] <= d.alpha and ps[1] <= d.alpha_nonlinear
                assert ps[2] > d.alpha_nonlinear
            else:
                assert all(p <= d.alpha_nonlinear for p in ps[1:]) and ps[0] <= d.alpha

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(113)
        x = rng.uniform(0.5, 4.0, 200)
        y = 0.6 * np.log(x) + rng.normal(scale=0.5, size=200)
        ds = gaussian_dataset(x, y)
        complexities = [
            fsp_select(ds, "x", alpha).complexity()
            for alpha in (0.5, 0.2, 0.1, 0.05, 0.01, 0.001, 1e-6)
        ]
        assert complexities == sorted(complexities, reverse=True)

    def test_linear_is_default_not_nonlinear(self):
        # Mild curvature must not beat the straight line without strong support.
        rng = np.random.default_rng(127)
        x = rng.uniform(1.0, 3.0, 80)
        y = x + 0.02 * x ** 2 + rng.normal(scale=1.0, size=80)
        d = fsp_select(gaussian_dataset(x, y), "x", 0.05)
        assert d.verdict in (FunctionForm.LINEAR, FunctionForm.EXCLUDED)


class TestEdgeCases:
    def test_constant_variable_raises(self):
        ds = gaussian_dataset(np.ones(30), np.random.default_rng(0).normal(size=30))
        with pytest.raises(TooFewDistinctValuesError):
            fsp_select(ds, "x", 0.05)

    def test_few_distinct_values_degrade_to_linear_test(self):
        rng = np.random.default_rng(131)
        x = rng.choice([0.0, 1.0, 2.0], size=200)
        y = 1.5 * x + rng.normal(size=200)
        d = fsp_select(gaussian_dataset(x, y), "x", 0.05)
        assert d.degraded_to_linear
        assert d.verdict is FunctionForm.LINEAR
        assert len(d.step_pvalues) == 1

    def test_force_in_never_excluded(self):
        rng = np.random.default_rng(137)
        x = rng.uniform(0.5, 3.0, 100)
        y = rng.normal(size=100)  # no association at all
        d = fsp_select(gaussian_dataset(x, y), "x", 0.05, force_in=True)
        assert d.verdict is not FunctionForm.EXCLUDED
        assert d.forced_in

    def test_alpha_nonlinear_override(self):
        rng = np.random.default_rng(139)
        x = rng.uniform(0.3, 5.0, 400)
        y = np.log(x) + rng.normal(scale=0.3, size=400)
        ds = gaussian_dataset(x, y)
        strict = fsp_select(ds, "x", 0.05, alpha_nonlinear=1e-50)
        assert strict.verdict is FunctionForm.LINEAR
        loose = fsp_select(ds, "x", 0.05)
        assert loose.verdict in (FunctionForm.FP1, FunctionForm.FP2)

    def test_adjustment_changes_the_null(self):
        rng = np.random.default_rng(149)
        z = rng.normal(size=300)
        x = rng.uniform(0.5, 3.0, 300)
        y = 2.0 * z + rng.normal(scale=0.3, size=300)
        ds = Dataset.from_columns({"x": x, "z": z, "y": y}, outcome="y")
        unadjusted = fsp_select(ds, "z", 0.05)
        assert unadjusted.verdict is not FunctionForm.EXCLUDED
        adjusted = fsp_select(ds, "x", 0.05, adjustment=ModelSpec((Term.linear("z"),)))
        assert adjusted.verdict is FunctionForm.EXCLUDED

    def test_alpha_validation(self):
        rng = np.random.default_rng(151)
        ds = gaussian_dataset(rng.uniform(1, 2, 50), rng.normal(size=50))
        with pytest.raises(DomainError):
            fsp_select(ds, "x", 0.0)
        with pytest.raises(DomainError):
            fsp_select(ds, "x", 1.5)


class TestForceInSkipsTheNullFit:
    """The adjustment-only model is fitted only for the inclusion test, so a
    forced-in variable costs one `fit` fewer; the tests it runs are the same."""

    @staticmethod
    def _count_fits(monkeypatch, *args, **kwargs):
        calls = []
        real_fit = fsp_module.fit

        def counting_fit(dataset, spec, *a, **kw):
            calls.append(spec)
            return real_fit(dataset, spec, *a, **kw)

        monkeypatch.setattr(fsp_module, "fit", counting_fit)
        decision = fsp_select(*args, **kwargs)
        monkeypatch.setattr(fsp_module, "fit", real_fit)
        return decision, calls

    def test_curve_search(self, monkeypatch):
        rng = np.random.default_rng(157)
        x = rng.uniform(0.3, 5.0, 300)
        z = rng.normal(size=300)
        y = np.log(x) + 0.5 * z + rng.normal(scale=0.5, size=300)
        ds = Dataset.from_columns({"x": x, "z": z, "y": y}, outcome="y")
        adjustment = ModelSpec((Term.linear("z"),))
        for max_degree in (1, 2):
            tested, tested_fits = self._count_fits(
                monkeypatch, ds, "x", 0.05, max_degree, adjustment)
            forced, forced_fits = self._count_fits(
                monkeypatch, ds, "x", 0.05, max_degree, adjustment, force_in=True)
            assert adjustment in tested_fits
            assert adjustment not in forced_fits
            assert len(forced_fits) == len(tested_fits) - 1
            assert tested.verdict is forced.verdict is not FunctionForm.EXCLUDED
            assert forced.step_pvalues == tested.step_pvalues[1:]
            assert forced.powers == tested.powers
            assert forced.fit.deviance == tested.fit.deviance

    def test_degraded_linear_test(self, monkeypatch):
        rng = np.random.default_rng(163)
        x = rng.choice([1.0, 2.0, 3.0], size=200)
        ds = gaussian_dataset(x, 0.8 * x + rng.normal(size=200))
        tested, tested_fits = self._count_fits(monkeypatch, ds, "x", 0.05)
        forced, forced_fits = self._count_fits(monkeypatch, ds, "x", 0.05, force_in=True)
        assert len(tested_fits) == 2 and len(forced_fits) == 1
        assert tested.verdict is forced.verdict is FunctionForm.LINEAR
        assert forced.step_pvalues == ()
        assert forced.fit.deviance == tested.fit.deviance
