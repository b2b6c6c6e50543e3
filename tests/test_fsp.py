"""Function selection procedure: verdicts, closed-test hierarchy, error control."""

import csv
import dataclasses
import importlib
import os
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpselect import (Criterion, Dataset, DomainError, Family, FpPowers, FunctionDecision,
                      FunctionForm, ModelSpec, PreTransform, RankDeficientError, Term,
                      TooFewDistinctValuesError, backward_eliminate, best_fp, design_matrix,
                      deviance_test, fit, forward_select, fp_basis, fsp_degrees_of_freedom,
                      fsp_select, mfp, pretransform, simlab)
import fpselect
from fpselect import ModelBuildError, cli

fsp_module = importlib.import_module("fpselect.fsp")
fpsearch_module = importlib.import_module("fpselect.fpsearch")
glm_module = importlib.import_module("fpselect.glm")


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
    """The adjustment-only model is scored only for the inclusion test, so a
    forced-in variable never scores it; the tests it runs are the same."""

    @staticmethod
    def _count_scores(monkeypatch, *args, **kwargs):
        """The decision and the terms of every model that a `Design` scored."""
        scored = []
        real_scores = fsp_module.Design.scores

        def counting_scores(self, models):
            scored.extend(tuple(terms) for terms in models)
            return real_scores(self, models)

        monkeypatch.setattr(fsp_module.Design, "scores", counting_scores)
        decision = fsp_select(*args, **kwargs)
        monkeypatch.setattr(fsp_module.Design, "scores", real_scores)
        return decision, scored

    def test_curve_search(self, monkeypatch):
        rng = np.random.default_rng(157)
        x = rng.uniform(0.3, 5.0, 300)
        z = rng.normal(size=300)
        y = np.log(x) + 0.5 * z + rng.normal(scale=0.5, size=300)
        ds = Dataset.from_columns({"x": x, "z": z, "y": y}, outcome="y")
        adjustment = ModelSpec((Term.linear("z"),))
        for max_degree in (1, 2):
            tested, tested_scores = self._count_scores(
                monkeypatch, ds, "x", 0.05, max_degree, adjustment)
            forced, forced_scores = self._count_scores(
                monkeypatch, ds, "x", 0.05, max_degree, adjustment, force_in=True)
            assert tested_scores.count(adjustment.terms) == 1
            assert adjustment.terms not in forced_scores
            assert len(forced_scores) == len(tested_scores) - 1
            assert tested.verdict is forced.verdict is not FunctionForm.EXCLUDED
            assert forced.step_pvalues == tested.step_pvalues[1:]
            assert forced.powers == tested.powers
            assert forced.fit.deviance == tested.fit.deviance

    def test_degraded_linear_test(self, monkeypatch):
        rng = np.random.default_rng(163)
        x = rng.choice([1.0, 2.0, 3.0], size=200)
        ds = gaussian_dataset(x, 0.8 * x + rng.normal(size=200))
        tested, tested_scores = self._count_scores(monkeypatch, ds, "x", 0.05)
        forced, forced_scores = self._count_scores(monkeypatch, ds, "x", 0.05, force_in=True)
        # The test scores the linear and the adjustment-only model; forced in,
        # the linear model is only fitted.
        assert tested_scores == [(Term.linear("x"),), ()] and forced_scores == []
        assert tested.verdict is forced.verdict is FunctionForm.LINEAR
        assert forced.step_pvalues == ()
        assert forced.fit.deviance == tested.fit.deviance


def _former_fsp_select(dataset, variable, alpha, max_degree=2, adjustment=None,
                       alpha_nonlinear=None, force_in=False, pre=None, center_at=None):
    """fsp_select as it was: every model of the closed test fitted with `fit`
    or `best_fp`, and the fits compared with `deviance_test`."""
    alpha_nl = alpha if alpha_nonlinear is None else alpha_nonlinear
    dfs = fsp_degrees_of_freedom(max_degree)
    adjustment = adjustment or ModelSpec()
    x = dataset.column(variable)
    if np.unique(x).size < 5:
        term = Term.linear(variable)
        fit_lin = fit(dataset, adjustment.with_term(term))
        pvalues, include = (), True
        if not force_in:
            fit_null = fit(dataset, adjustment)
            df = len(fit_lin.column_labels) - len(fit_null.column_labels)
            pvalues = (deviance_test(fit_null, fit_lin, max(df, 1)),)
            include = pvalues[0] <= alpha
        if include:
            return FunctionDecision(variable, FunctionForm.LINEAR, None, pvalues, alpha, alpha,
                                    1, None, term, fit_lin, degraded_to_linear=True,
                                    forced_in=force_in)
        return FunctionDecision(variable, FunctionForm.EXCLUDED, None, pvalues, alpha, alpha,
                                1, None, None, None, degraded_to_linear=True,
                                forced_in=force_in)
    if pre is None:
        pre = pretransform(x)
    linear_term = Term.fp(variable, (1.0,), pre, center_at)
    fit_linear = fit(dataset, adjustment.with_term(linear_term))
    search1 = best_fp(dataset, variable, 1, adjustment, pre, center_at)
    search2 = (best_fp(dataset, variable, 2, adjustment, pre, center_at)
               if max_degree == 2 else None)
    best = search1 if search2 is None else search2
    pvalues = []
    if not force_in:
        pvalues.append(deviance_test(fit(dataset, adjustment), best.fit, dfs[0]))
        if pvalues[-1] > alpha:
            return FunctionDecision(variable, FunctionForm.EXCLUDED, None, tuple(pvalues),
                                    alpha, alpha_nl, max_degree, pre, None, None)
    pvalues.append(deviance_test(fit_linear, best.fit, dfs[1]))
    if pvalues[-1] > alpha_nl:
        return FunctionDecision(variable, FunctionForm.LINEAR, None, tuple(pvalues), alpha,
                                alpha_nl, max_degree, pre, linear_term, fit_linear,
                                forced_in=force_in)
    chosen, verdict = search1, FunctionForm.FP1
    if search2 is not None:
        pvalues.append(deviance_test(search1.fit, search2.fit, dfs[2]))
        if pvalues[-1] <= alpha_nl:
            chosen, verdict = search2, FunctionForm.FP2
    return FunctionDecision(variable, verdict, chosen.best_powers, tuple(pvalues), alpha,
                            alpha_nl, max_degree, pre, chosen.fit.spec.terms[-1], chosen.fit,
                            forced_in=force_in)


def _assert_same_decision(new, old, label):
    """Every field equal; floats and arrays bit for bit."""
    for field in dataclasses.fields(FunctionDecision):
        a, b = getattr(new, field.name), getattr(old, field.name)
        if field.name != "fit" or a is None or b is None:
            assert a == b, (label, field.name)
            continue
        for fit_field in dataclasses.fields(a):
            u, v = getattr(a, fit_field.name), getattr(b, fit_field.name)
            if isinstance(u, np.ndarray):
                assert u.shape == v.shape and u.tobytes() == v.tobytes(), (label, fit_field.name)
            else:
                assert u == v, (label, fit_field.name)


def _reference_cases():
    """Datasets of both families with no, linear, logarithmic and wavy
    effects; closed tests with and without an adjustment and forced in or not,
    at both maximum degrees, a user pre-transformation with centring, and
    variables with too few distinct values."""
    rng = np.random.default_rng(509)
    n = 200
    effects = {"none": lambda x: 0.0 * x, "linear": lambda x: 0.8 * x,
               "log": lambda x: 1.2 * np.log(x), "wavy": lambda x: 2.0 / x + 0.9 * x}
    for family in (Family.GAUSSIAN, Family.BINOMIAL):
        for name, effect in effects.items():
            x = rng.uniform(0.2, 4.0, n)
            w = rng.standard_normal(n)
            d = rng.choice([1.0, 2.0, 3.0], n)
            eta = effect(x) + 0.5 * w + 0.3 * d
            if family is Family.GAUSSIAN:
                y = eta + rng.normal(scale=0.5, size=n)
            else:
                y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(eta - eta.mean())))).astype(float)
            ds = Dataset.from_columns({"x": x, "w": w, "d": d, "y": y}, outcome="y",
                                      family=family)
            for adjustment in (None, ModelSpec((Term.linear("w"),))):
                for max_degree in (1, 2):
                    for force_in in (False, True):
                        label = f"{family.value} {name} {adjustment} {max_degree} {force_in}"
                        yield label, ds, "x", dict(max_degree=max_degree, adjustment=adjustment,
                                                   force_in=force_in)
                        yield label + " pre", ds, "x", dict(
                            max_degree=max_degree, adjustment=adjustment, force_in=force_in,
                            alpha_nonlinear=0.2, pre=PreTransform(1.0, 2.0), center_at=1.1)
                forced = dict(adjustment=adjustment, force_in=True)
                yield f"{family.value} {name} {adjustment} degraded", ds, "d", forced
                yield f"{family.value} {name} {adjustment} degraded tested", ds, "d", dict(
                    forced, force_in=False)


class TestMatchesFittingEveryModel:
    """fsp_select scores the null, linear, FP1 and FP2 models and fits only
    the verdict's; every field of its decision equals that of the former
    closed test, which fitted each model, bit for bit."""

    def test_every_field_identical(self):
        verdicts = set()
        for label, ds, variable, kwargs in _reference_cases():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                new = fsp_select(ds, variable, 0.05, **kwargs)
                old = _former_fsp_select(ds, variable, 0.05, **kwargs)
            _assert_same_decision(new, old, label)
            verdicts.add((new.verdict, new.degraded_to_linear))
        assert {v for v, degraded in verdicts if not degraded} == set(FunctionForm)
        assert {v for v, degraded in verdicts if degraded} == {FunctionForm.EXCLUDED,
                                                              FunctionForm.LINEAR}

    def test_one_adjustment_design_per_call(self, monkeypatch):
        built = []
        real = design_matrix

        def counting(dataset, spec):
            built.append(spec)
            return real(dataset, spec)

        for name, module in list(sys.modules.items()):
            if name.startswith("fpselect.") and getattr(module, "design_matrix", None) is real:
                monkeypatch.setattr(module, "design_matrix", counting)
        calls = 0
        for label, ds, variable, kwargs in _reference_cases():
            if variable == "d":
                continue
            built.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fsp_select(ds, variable, 0.05, **kwargs)
            assert built == [kwargs["adjustment"] or ModelSpec()], label
            calls += 1
        assert calls > 0

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=lambda f: f.value)
    @pytest.mark.parametrize("force_in", [False, True])
    def test_unfittable_line_raises_its_own_error_first(self, family, force_in):
        # Five observations and five coefficients: the straight line cannot
        # be fitted and neither can any FP1; the line's error comes first.
        y = [0.3, -1.0, 2.0, 0.5, 1.1] if family is Family.GAUSSIAN else [0, 1, 0, 1, 1]
        ds = Dataset.from_columns({"x": [1.0, 2.0, 3.0, 4.0, 5.0], "a": [1.0, 0.5, 2.0, 3.0, 0.1],
                                   "b": [0.3, 0.2, 0.9, 0.4, 0.5], "c": [2.0, 1.0, 0.0, 1.0, 5.0],
                                   "y": y}, outcome="y", family=family)
        adjustment = ModelSpec((Term.linear("a"), Term.linear("b"), Term.linear("c")))
        for select in (fsp_select, _former_fsp_select):
            with pytest.raises(RankDeficientError) as raised:
                select(ds, "x", 0.05, 2, adjustment, force_in=force_in)
            assert str(raised.value) == "5 observations cannot identify 5 coefficients"


def _exact_candidates(monkeypatch, run, record):
    """Run a search, passing `record` each (search, candidate) that it scores
    exactly: one whose fit record its design does not hold when it is asked
    for (`FpSearch.scores`), so a failed candidate asked for twice counts twice."""
    real = fpsearch_module.FpSearch.scores

    def recording(self, candidates):
        for powers in candidates:
            if self._columns(powers) not in self.design._records:
                record(self, powers)
        return real(self, candidates)

    monkeypatch.setattr(fpsearch_module.FpSearch, "scores", recording)
    result = run()
    monkeypatch.setattr(fpsearch_module.FpSearch, "scores", real)
    return result


def _exact_scores(monkeypatch, run):
    """Run a search and return the candidates it scored exactly, in order."""
    scored = []
    result = _exact_candidates(monkeypatch, run, lambda search, powers: scored.append(powers))
    return result, scored


def _scored_designs(monkeypatch, run):
    """Run a search and return the candidate designs it scored exactly."""
    designs = []
    result = _exact_candidates(monkeypatch, run, lambda search, powers: designs.append(
        search.design.X[:, search._columns(powers)]))
    return result, designs


def _designs_factorised(run):
    """What `run` returns and the designs it factorised (`glm.WORK`)."""
    before = glm_module.WORK["designs factorised"]
    result = run()
    return result, glm_module.WORK["designs factorised"] - before


class TestScreenedSearch:
    """A Gaussian closed test bounds every FP candidate's deviance from one
    update of the adjustment's QR and scores exactly only the straight line
    and the candidates that can still win; its decisions equal scoring every
    candidate, field by field."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(12, 120),
           family=st.sampled_from([Family.GAUSSIAN, Family.BINOMIAL]),
           max_degree=st.sampled_from([1, 2]),
           variant=st.sampled_from(["none", "adjusted", "pre", "aliased"]),
           effect=st.sampled_from(["none", "log", "wavy"]))
    def test_matches_fitting_every_model(self, seed, n, family, max_degree, variant, effect):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(sigma=rng.uniform(0.2, 1.5), size=n)
        w = rng.standard_normal(n)
        eta = 0.5 * w + {"none": 0.0 * x, "log": np.log(x), "wavy": 1.0 / x + 0.5 * x}[effect]
        if family is Family.GAUSSIAN:
            y = eta + rng.normal(scale=rng.uniform(0.1, 2.0), size=n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(eta - eta.mean())))).astype(float)
        ds = Dataset.from_columns({"x": x, "w": w, "w2": 2.0 * w, "y": y}, outcome="y",
                                  family=family)
        kwargs = dict(max_degree=max_degree)
        if variant != "none":
            kwargs["adjustment"] = ModelSpec((Term.linear("w"),))
        if variant == "pre":
            kwargs.update(pre=PreTransform(1.0, 2.0), center_at=float(np.median(x)))
        if variant == "aliased":
            kwargs["adjustment"] = ModelSpec((Term.linear("w"), Term.linear("w2")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                old = _former_fsp_select(ds, "x", 0.05, **kwargs)
            except (DomainError, RankDeficientError) as error:
                with pytest.raises(type(error)) as raised:
                    fsp_select(ds, "x", 0.05, **kwargs)
                assert str(raised.value) == str(error)
                return
            new = fsp_select(ds, "x", 0.05, **kwargs)
        _assert_same_decision(new, old, kwargs)

    def test_near_tie_takes_the_confirm_path(self, monkeypatch):
        # Rows come in pairs x and 1/x with equal outcomes, so the bases x^2
        # and x^-2 give residual sums of squares that are equal in exact
        # arithmetic; rounding decides, and both must be scored.
        rng = np.random.default_rng(3)
        v = rng.uniform(1.05, 20.0, 150)
        w = np.sqrt(np.log(v)) + 0.1 * rng.standard_normal(150)
        ds = gaussian_dataset(np.concatenate([v, 1.0 / v]), np.concatenate([w, w]))
        kwargs = dict(max_degree=1, pre=PreTransform())
        new, scored = _exact_scores(monkeypatch, lambda: fsp_select(ds, "x", 0.05, **kwargs))
        assert {FpPowers((-2.0,)), FpPowers((2.0,))} <= set(scored)
        assert len(scored) < 8
        assert new.powers in (FpPowers((-2.0,)), FpPowers((2.0,)))
        _assert_same_decision(new, _former_fsp_select(ds, "x", 0.05, **kwargs), "near tie")

    @staticmethod
    def _one_tiny_x(tiny):
        """One tiny x makes x^-2 and x^-2 log x nearly proportional."""
        rng = np.random.default_rng(5)
        n = 300
        x = rng.uniform(0.5, 4.0, n)
        x[0] = tiny
        a = rng.standard_normal(n)
        ds = gaussian_dataset(x, np.log(x) + 0.5 * a + rng.standard_normal(n), {"a": a})
        return x, ds, dict(adjustment=ModelSpec((Term.linear("a"),)), pre=PreTransform())

    def test_ill_conditioned_candidate_is_scored_exactly(self, monkeypatch):
        # At x = 1e-4 the orthogonalised block of (-2, -2) lies within the
        # guard's margin of the aliasing test (its exact fit keeps both
        # columns): it is too ill-conditioned for a bound.
        x, ds, kwargs = self._one_tiny_x(1e-4)
        new, designs = _scored_designs(monkeypatch, lambda: fsp_select(ds, "x", 0.05, **kwargs))
        calls = [X[:, -2:] for X in designs]
        basis = fp_basis(x, FpPowers((-2.0, -2.0)))
        assert sum(np.array_equal(cols, basis) for cols in calls) == 1
        assert len(calls) < 44
        _assert_same_decision(new, _former_fsp_select(ds, "x", 0.05, **kwargs), "(-2, -2)")

    def test_ill_conditioned_candidate_with_a_well_conditioned_deviance_is_bounded(
            self, monkeypatch):
        # At x = 1e-3 the block fails the residual's condition but not the
        # deviance's: it is bounded, and the bound holds its exact deviance.
        _, ds, kwargs = self._one_tiny_x(1e-3)
        powers = FpPowers((-2.0, -2.0))

        def search():
            design = glm_module.Design(ds, kwargs["adjustment"],
                                       bases=[("x", PreTransform(), None)])
            return fpsearch_module.FpSearch(design, "x", kwargs["adjustment"])

        with monkeypatch.context() as m:  # the residual's condition alone
            m.setattr(glm_module, "_deviance_conditioned", lambda R, *_: np.zeros(len(R), bool))
            assert search()._bounds[powers] is None
        bounded = search()
        (low, high), (exact, _) = bounded._bounds[powers], bounded.score(powers)
        assert low <= exact <= high
        new = fsp_select(ds, "x", 0.05, **kwargs)
        _assert_same_decision(new, _former_fsp_select(ds, "x", 0.05, **kwargs), "(-2, -2) 1e-3")

    def test_well_conditioned_search_scores_at_most_eight(self, monkeypatch):
        for seed in (701, 702, 703):
            rng = np.random.default_rng(seed)
            n = 300
            x, a, b = rng.uniform(0.5, 3.0, n), rng.standard_normal(n), rng.standard_normal(n)
            ds = gaussian_dataset(x, np.log(x) + 0.5 * a + rng.standard_normal(n),
                                  {"a": a, "b": b})
            adjustment = ModelSpec((Term.linear("a"), Term.linear("b")))
            for max_degree in (1, 2):
                _, designs = _scored_designs(monkeypatch,
                                             lambda: fsp_select(ds, "x", 0.05, max_degree,
                                                                adjustment))
                calls = len(designs)
                assert 1 <= calls <= 8, (seed, max_degree)

    @staticmethod
    def _benchmark_dataset(seed, replication=0):
        """The benchmark's scenario: n = 500, eight covariates, four effects."""
        covariates = (simlab.Covariate("x1", simlab.LogNormal()),
                      simlab.Covariate("x2", simlab.Uniform(0.5, 3.0)),
                      simlab.Covariate("x3", simlab.Normal()),
                      simlab.Covariate("x4", simlab.Exponential()),
                      *(simlab.Covariate(f"x{j}", simlab.Normal()) for j in range(5, 9)))
        effects = (simlab.Effect("x1", "log", 1.0), simlab.Effect("x2", "power", 1.0, param=-1.0),
                   simlab.Effect("x3", "linear", 0.5), simlab.Effect("x4", "linear", 0.5))
        correlation = np.full((8, 8), 0.3)
        np.fill_diagonal(correlation, 1.0)
        return simlab.generate(simlab.Scenario(n=500, covariates=covariates, effects=effects,
                                               correlation=correlation, seed=seed),
                               replication=replication)

    def test_mfp_factorisations_per_analysis(self):
        ds = self._benchmark_dataset(709)
        result, calls = _designs_factorised(lambda: mfp(ds, ds.candidate_names))
        assert {"x1", "x2"} <= set(result.selected_variables)
        assert calls <= 200

    def test_mfp_with_an_ill_conditioned_fp2_adjustment(self):
        # Seed 1, replication 37: once x6 takes FP2 (-2, -2), every later
        # search fails the residual's condition; the deviance's admits most
        # of its candidates (624 factorisations with the first guard alone).
        ds = self._benchmark_dataset(1, replication=37)
        result, calls = _designs_factorised(lambda: mfp(ds, ds.candidate_names))
        assert result.decisions["x6"].powers == FpPowers((-2.0, -2.0))
        assert calls <= 150


class TestDevianceConditionGuard:
    """An adjustment that holds a near-aliased FP2 (-2, -2) term fails the
    residual's condition for every candidate; the deviance's own condition
    admits bounds that hold the exact deviance, refuses near-aliased
    candidates, and the screened closed test equals scoring every model."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(40, 200),
           z_tiny=st.floats(1.5, 4.5), x_tiny=st.sampled_from([None, 2.5, 3.5, 4.5]),
           max_degree=st.sampled_from([1, 2]), centred=st.booleans(),
           log_scale=st.sampled_from([-6, 0, 6]))
    def test_bounds_hold_and_decisions_match(self, seed, n, z_tiny, x_tiny, max_degree,
                                             centred, log_scale):
        rng = np.random.default_rng(seed)
        x, z = rng.lognormal(sigma=0.6, size=n), rng.uniform(0.5, 4.0, n)
        z[0] = 10.0 ** -z_tiny
        if x_tiny is not None:
            x[1] = 10.0 ** -x_tiny
        y = 10.0 ** log_scale * (np.log(x) + 0.3 * z + rng.standard_normal(n))
        ds = gaussian_dataset(x, y, {"z": z})
        adjustment = ModelSpec((Term.fp("z", (-2.0, -2.0)),))
        center_at = float(np.median(x)) if centred else None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            design = glm_module.Design(ds, adjustment, bases=[("x", None, center_at)])
            search = fpsearch_module.FpSearch(design, "x", adjustment)
            for powers, bound in search._bounds.items():
                if bound is not None:
                    assert bound[0] <= search.score(powers)[0] <= bound[1], powers
            kwargs = dict(max_degree=max_degree, adjustment=adjustment, center_at=center_at)
            _assert_same_decision(fsp_select(ds, "x", 0.05, **kwargs),
                                  _former_fsp_select(ds, "x", 0.05, **kwargs), kwargs)


class TestFactorisationMemo:
    """A `Design` memoises the factorisation of every column subset it
    scores, so the closed test fits its verdict's model without factorising
    its design again."""

    def test_degraded_linear_test_factorises_each_model_once(self, monkeypatch):
        # The full model is scored before the adjustment, and then fitted.
        rng = np.random.default_rng(811)
        n = 300
        x, a = rng.choice([1.0, 2.0, 3.0], size=n), rng.standard_normal(n)
        ds = gaussian_dataset(x, 0.8 * x + 0.5 * a + rng.standard_normal(n), {"a": a})
        shapes = []
        real = glm_module._householder
        monkeypatch.setattr(glm_module, "_householder",
                            lambda A: shapes.append(A.shape) or real(A))
        decision = fsp_select(ds, "x", 0.05, adjustment=ModelSpec((Term.linear("a"),)))
        monkeypatch.undo()
        assert decision.degraded_to_linear and decision.verdict is FunctionForm.LINEAR
        assert shapes == [(n, 3), (n, 2)]


def _analysis_dataset(seed, family=Family.GAUSSIAN, n=120):
    """A curved x, a shifted z, a three-level g and a three-valued d."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(sigma=0.7, size=n)
    z = rng.standard_normal(n) - 2.0
    g = rng.choice([0.0, 1.0, 2.0], size=n)
    d = rng.choice([1.0, 2.0, 3.0], size=n)
    eta = np.log(x) + 0.4 * z + np.where(g == 2.0, 0.6, 0.0) + rng.uniform(-0.5, 0.5) * d
    if family is Family.GAUSSIAN:
        y = eta + rng.normal(scale=rng.uniform(0.3, 2.0), size=n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(eta - eta.mean())))).astype(float)
    return Dataset.from_columns({"x": x, "z": z, "g": g, "d": d, "y": y}, outcome="y",
                                family=family)


_GROUPS = Term.categorical("g", (0.5, 1.5))
_ALL_POWERS = st.sampled_from(fpselect.enumerate_fp(1) + fpselect.enumerate_fp(2))


class TestSharedBasisColumns:
    """An FP term's columns in a design that holds its variable's basis
    behind other terms equal `design_matrix`'s for the term, and `fp_basis`
    less its value at the centre, bit for bit, and the term resolves to them."""

    @pytest.mark.parametrize("center_at", [None, 1.3])
    def test_every_power_vector(self, center_at):
        ds = _analysis_dataset(907)
        design = glm_module.Design(ds, ModelSpec((_GROUPS, Term.linear("x"))),
                                   bases=[("z", None, center_at), ("x", None, center_at)])
        assert design.bases["z"].blocks[FpPowers((-2.0,))] == (4,)  # after 1 + 2 + 1 columns
        for variable in ("z", "x"):
            basis = design.bases[variable]
            assert basis.pre == pretransform(ds.column(variable))
            z = basis.pre.apply(ds.column(variable))
            for powers in fpselect.enumerate_fp(1) + fpselect.enumerate_fp(2):
                term = Term.fp(variable, powers, basis.pre, center_at)
                X, labels, columns = design_matrix(ds, ModelSpec((_GROUPS, term)))
                own = np.ascontiguousarray(X[:, columns[term]])
                shared = np.ascontiguousarray(design.X[:, basis.blocks[powers]])
                assert shared.tobytes() == own.tobytes(), (variable, powers)
                alone = fp_basis(z, powers)
                if center_at is not None:
                    alone = alone - fp_basis([center_at], powers)
                assert shared.tobytes() == np.ascontiguousarray(alone).tobytes(), powers
                assert design.columns([_GROUPS, term]) == (0, 1, 2, *basis.blocks[powers])
                assert [design.labels[c] for c in basis.blocks[powers]] == term.labels()

    def test_another_pre_transformation_keeps_its_own_columns(self):
        ds = _analysis_dataset(911)
        design = glm_module.Design(ds, ModelSpec(), bases=[("x", None, None)])
        for term in (Term.fp("x", (1.0,), PreTransform(1.0, 2.0)),
                     Term.fp("x", (1.0,), design.bases["x"].pre, center_at=1.0)):
            with pytest.raises(KeyError):
                design.columns([term])


class TestAnalysisDesign:
    """The closed test on one design of several bases and base terms, as
    `mfp` runs it, equals a standalone `fsp_select` field by field, floats
    and arrays bit for bit, with adjustments that hold FP terms of the
    design's bases and a categorical term, on both families and for a
    variable of fewer than 5 distinct values."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           family=st.sampled_from([Family.GAUSSIAN, Family.BINOMIAL]),
           max_degree=st.sampled_from([1, 2]), force_in=st.booleans(),
           x_powers=_ALL_POWERS, z_powers=_ALL_POWERS)
    def test_equals_standalone(self, seed, family, max_degree, force_in, x_powers, z_powers):
        ds = _analysis_dataset(seed, family)
        design = glm_module.Design(
            ds, ModelSpec((Term.linear("x"), Term.linear("z"), _GROUPS, Term.linear("d"))),
            bases=[("x", None, None), ("z", None, None)])
        x_term = Term.fp("x", x_powers, design.bases["x"].pre)
        z_term = Term.fp("z", z_powers, design.bases["z"].pre)
        cases = (("x", ModelSpec((z_term, _GROUPS, Term.linear("d")))),
                 ("z", ModelSpec((_GROUPS, x_term))),
                 ("d", ModelSpec((x_term, z_term, _GROUPS))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for variable, adjustment in cases:
                design.forget()
                try:
                    alone = fsp_select(ds, variable, 0.05, max_degree, adjustment,
                                       force_in=force_in)
                except ModelBuildError as error:
                    with pytest.raises(type(error)) as raised:
                        fsp_module.closed_test(design, variable, 0.05, max_degree, adjustment,
                                               0.05, force_in)
                    assert str(raised.value) == str(error)
                    continue
                shared = fsp_module.closed_test(design, variable, 0.05, max_degree,
                                                adjustment, 0.05, force_in)
                assert shared.degraded_to_linear == (variable == "d")
                _assert_same_decision(shared, alone, (variable, adjustment))


def _rescaling_dataset(seed, n=150):
    """A curved x, a linear z, a weak w and noise u, Gaussian."""
    rng = np.random.default_rng(seed)
    x = rng.lognormal(sigma=0.6, size=n)
    z, w, u = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
    y = np.log(x) + 0.5 * z + 0.15 * w + rng.normal(scale=rng.uniform(0.3, 2.0), size=n)
    return {"x": x, "z": z, "w": w, "u": u, "y": y}


def _cli_mfp(ds):
    """The `mfp` CLI report of the dataset, run in process on a CSV that
    holds every float in full (`repr`): the coefficient labels of its
    selected model and each decision's verdict and powers."""
    with tempfile.TemporaryDirectory() as out:  # Hypothesis rejects function-scoped fixtures
        data = os.path.join(out, "data.csv")
        with open(data, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(ds.column_names)
            writer.writerows(zip(*([repr(v) for v in ds.column(name).tolist()]
                                   for name in ds.column_names)))
        config = cli.AnalysisConfig({"data": data, "outcome": ds.outcome_name,
                                     "family": ds.family.value})
        report = cli.run("mfp", config, out)
    return (list(report["fit"]["coefficients"]),
            {v: (d["verdict"], d["powers"]) for v, d in report["decisions"].items()})


def _decisions(ds):
    """The verdict and powers of the closed test of x, the terms that
    backward elimination, forward selection and the MFP cycle select, the
    selected model and decisions of the `mfp` CLI report, and every exact
    p-value that the five compared with their level."""
    seen = []
    real = glm_module.Design.p_value

    def recording(self, *args, **kwargs):
        p = real(self, *args, **kwargs)
        seen.append(p[0])
        return p

    terms = (Term.fp("x", (0.0,)), Term.linear("z"), Term.linear("w"), Term.linear("u"))
    with mock.patch.object(glm_module.Design, "p_value", recording), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        decision = fsp_select(ds, "x", 0.05, adjustment=ModelSpec(terms[1:]))
        eliminated = backward_eliminate(ds, ModelSpec(terms), Criterion.p_value(0.05))
        forward = forward_select(ds, terms, Criterion.p_value(0.05))
        cycled = mfp(ds, ("x", "z", "w", "u"))
        reported = _cli_mfp(ds)
    return ((decision.verdict, decision.powers), eliminated.final_spec.terms,
            forward.final_spec.terms, cycled.final_spec.terms, reported), seen


class TestAffineOutcomeRescaling:
    """Gaussian likelihood-ratio statistics n log(rss_r / rss_f) of models
    with an intercept do not change when y becomes a y + b, so neither do the
    closed test's verdict and powers nor the terms that backward elimination,
    forward selection and the MFP cycle select, nor the `mfp` CLI report's
    model and decisions. A shifted y also moves the
    screen's condition estimate (1 + 2 kappa) ||y|| / ||r||, so both the
    bounded and the exact path are taken."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0),
           shift=st.floats(-1e3, 1e3))
    def test_decisions_do_not_change(self, seed, log_scale, shift):
        cols = _rescaling_dataset(seed)
        y = cols["y"]
        ds = Dataset.from_columns(cols, outcome="y")
        rescaled = Dataset.from_columns(
            {**cols, "y": 10.0 ** log_scale * y + shift * float(np.std(y))}, outcome="y")
        (before, p_before), (after, p_after) = _decisions(ds), _decisions(rescaled)
        # A p-value at its level may fall either side of it in the last bits.
        assume(all(abs(p - 0.05) > 1e-8 * 0.05 for p in p_before + p_after))
        assert after == before

    def test_a_large_shift_leaves_no_bounds(self):
        cols = _rescaling_dataset(823, n=200)
        cols["y"] = cols["y"] + 1e9 * float(np.std(cols["y"]))
        ds = Dataset.from_columns(cols, outcome="y")
        kwargs = dict(adjustment=ModelSpec((Term.linear("z"), Term.linear("w"))))
        design = glm_module.Design(ds, kwargs["adjustment"], bases=[("x", None, None)])
        search = fpsearch_module.FpSearch(design, "x", kwargs["adjustment"])
        assert all(bound is None for bound in search._bounds.values())
        _assert_same_decision(fsp_select(ds, "x", 0.05, **kwargs),
                              _former_fsp_select(ds, "x", 0.05, **kwargs), "shifted")


class TestRowOrder:
    """A model's likelihood does not depend on the order of the rows, so
    permuting them leaves the closed test's verdict and powers, the terms
    that backward elimination, forward selection and the MFP cycle select
    and the `mfp` CLI report's model and decisions unchanged, for both
    families; only the summation order, and so the last
    bits of each p-value, move."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           family=st.sampled_from([Family.GAUSSIAN, Family.BINOMIAL]))
    def test_decisions_do_not_change(self, seed, family):
        cols = _rescaling_dataset(seed)
        if family is Family.BINOMIAL:
            rng = np.random.default_rng(seed)
            eta = cols["y"] - np.mean(cols["y"])
            cols["y"] = (rng.random(len(eta)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ds = Dataset.from_columns(cols, outcome="y", family=family)
        permuted = ds.take_rows(np.random.default_rng(seed).permutation(ds.n))
        (before, p_before), (after, p_after) = _decisions(ds), _decisions(permuted)
        # A p-value at its level may fall either side of it in the last bits.
        assume(all(abs(p - 0.05) > 1e-8 * 0.05 for p in p_before + p_after))
        assert after == before
