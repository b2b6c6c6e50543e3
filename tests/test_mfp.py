"""Multivariable cycling: ordering, convergence, tuning-level semantics."""

import importlib
from collections import Counter

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, DomainError, Family, FunctionForm, MfpConfig,
                      ModelSpec, Term, TooFewDistinctValuesError, backward_eliminate,
                      deviance_test, fit, fsp_select, mfp, removal_order)

# The package exports the `mfp` function under the submodule's name.
mfp_module = importlib.import_module("fpselect.mfp")
glm_module = importlib.import_module("fpselect.glm")


def scenario_dataset(seed=301, n=400):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.3, 6.0, n)
    x2 = rng.standard_normal(n)
    x3 = rng.standard_normal(n)
    x4 = rng.standard_normal(n)
    y = np.log(x1) + 0.5 * x2 + rng.normal(scale=0.6, size=n)
    return Dataset.from_columns(
        {"x1": x1, "x2": x2, "x3": x3, "x4": x4, "y": y}, outcome="y")


class TestRemovalOrder:
    def test_strong_covariate_first(self):
        rng = np.random.default_rng(307)
        hits = 0
        for _ in range(20):
            n = 200
            strong = rng.standard_normal(n)
            weak = rng.standard_normal(n)
            ds = Dataset.from_columns(
                {"weak": weak, "strong": strong,
                 "y": 2.0 * strong + rng.standard_normal(n)}, outcome="y")
            if removal_order(ds, ["weak", "strong"])[0] == "strong":
                hits += 1
        assert hits == 20

    def test_exact_tie_preserves_column_order(self):
        n = 64
        x1 = np.tile([1.0, -1.0], n // 2) / np.sqrt(n)
        x2 = np.repeat([1.0, -1.0], n // 2) / np.sqrt(n)
        y = x1 + x2  # both removals cost exactly the same deviance
        ds = Dataset.from_columns({"x1": x1, "x2": x2, "y": y}, outcome="y")
        assert removal_order(ds, ["x1", "x2"]) == ("x1", "x2")
        assert removal_order(ds, ["x2", "x1"]) == ("x2", "x1")

    def test_empty_candidates(self):
        ds = scenario_dataset()
        assert removal_order(ds, []) == ()


def _former_removal_order(dataset, candidates, config):
    """removal_order as it was: one fit of the full model and one fit per
    removal. Returns the order and the removal p-values in candidate order."""
    terms = {v: mfp_module._base_term(dataset, v, config) for v in candidates}
    full_spec = ModelSpec(tuple(terms[v] for v in candidates))
    full_fit = fit(dataset, full_spec)
    pvalues = []
    for position, v in enumerate(candidates):
        reduced_fit = fit(dataset, full_spec.without_term(terms[v]))
        df = max(full_fit.model_df - reduced_fit.model_df, 1)
        pvalues.append((deviance_test(reduced_fit, full_fit, df), position, v))
    order = tuple(v for _, _, v in sorted(pvalues, key=lambda item: (item[0], item[1])))
    return order, [p for p, _, _ in pvalues]


class TestRemovalOrderMatchesFitLoop:
    """removal_order scores removals from one design; its order and p-values
    equal those of the former fit-per-removal loop bit for bit."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(359)
        for family in (Family.GAUSSIAN, Family.BINOMIAL):
            for n in (120, 400):
                g = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
                x = rng.standard_normal((n, 4))
                eta = 0.6 * x[:, 0] - 0.3 * x[:, 1] + np.where(g == 2.0, 0.7, 0.0)
                if family is Family.GAUSSIAN:
                    y = eta + rng.standard_normal(n)
                else:
                    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
                ds = Dataset.from_columns(
                    {"a": x[:, 0], "b": x[:, 1], "c": x[:, 2], "g": g,
                     "d": np.exp(x[:, 3]), "y": y}, outcome="y", family=family)
                for categorical in (frozenset(), frozenset({"g"})):
                    yield ds, ("d", "a", "g", "c", "b"), MfpConfig(categorical=categorical)
        yield scenario_dataset(), ("x1", "x2", "x3", "x4"), MfpConfig()

    def test_same_order_and_pvalues(self, monkeypatch):
        recorded = []

        class RecordingDesign(mfp_module.Design):
            def p_value(self, reduced, full, df=None):
                result = super().p_value(reduced, full, df)
                recorded.append(result[0])
                return result

        monkeypatch.setattr(mfp_module, "Design", RecordingDesign)
        for ds, candidates, config in self._cases():
            recorded.clear()
            order = removal_order(ds, candidates, config)
            former_order, former_pvalues = _former_removal_order(ds, candidates, config)
            assert order == former_order
            assert recorded == former_pvalues

    def test_fits_nothing(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("removal_order must not fit a model")

        monkeypatch.setattr(glm_module, "fit_design", no_fit)
        assert removal_order(scenario_dataset(), ["x1", "x2", "x3", "x4"])[0] == "x1"


class TestMfp:
    def test_recovers_structure(self):
        ds = scenario_dataset()
        result = mfp(ds, ["x1", "x2", "x3", "x4"], MfpConfig(0.05, 0.05))
        assert result.converged
        d1 = result.decisions["x1"]
        assert d1.verdict in (FunctionForm.FP1, FunctionForm.FP2)
        assert 0.0 in d1.powers
        assert result.decisions["x2"].verdict is FunctionForm.LINEAR

    def test_alpha_select_near_one_keeps_every_candidate(self):
        ds = scenario_dataset(seed=311)
        result = mfp(ds, ["x1", "x2", "x3", "x4"],
                     MfpConfig(alpha_select=0.999, alpha_fp=0.05))
        assert set(result.selected_variables) == {"x1", "x2", "x3", "x4"}
        assert all(d.included for d in result.decisions.values())

    def test_tiny_alpha_fp_collapses_to_backward_elimination(self):
        ds = scenario_dataset(seed=313)
        candidates = ["x1", "x2", "x3", "x4"]
        result = mfp(ds, candidates, MfpConfig(alpha_select=0.05, alpha_fp=1e-60))
        assert all(d.verdict in (FunctionForm.LINEAR, FunctionForm.EXCLUDED)
                   for d in result.decisions.values())
        be = backward_eliminate(
            ds, ModelSpec(tuple(Term.linear(v) for v in candidates)),
            Criterion.p_value(0.05))
        assert set(result.selected_variables) == set(be.selected_variables)

    def test_force_in_always_selected(self):
        ds = scenario_dataset(seed=317)
        result = mfp(ds, ["x1", "x2", "x3"],
                     MfpConfig(0.05, 0.05, force_in=frozenset({"x3"})))
        assert "x3" in result.selected_variables
        assert result.decisions["x3"].forced_in

    def test_final_fit_matches_fresh_fit(self):
        ds = scenario_dataset(seed=331)
        result = mfp(ds, ["x1", "x2", "x3"], MfpConfig(0.05, 0.05))
        fresh = fit(ds, result.final_spec)
        assert result.fit.deviance == pytest.approx(fresh.deviance, rel=1e-12)
        np.testing.assert_allclose(result.fit.coefficients, fresh.coefficients)

    def test_converged_state_is_fixed_point(self):
        ds = scenario_dataset(seed=337)
        config = MfpConfig(0.05, 0.05)
        result = mfp(ds, ["x1", "x2", "x3", "x4"], config)
        assert result.converged
        # re-running with a higher cycle cap changes nothing
        more = mfp(ds, ["x1", "x2", "x3", "x4"],
                   MfpConfig(0.05, 0.05, max_cycles=9))
        assert more.final_spec == result.final_spec
        assert len(result.cycle_trace) >= 2
        assert result.cycle_trace[-1] == result.cycle_trace[-2]

    def test_first_cycle_selection_monotone_in_alpha_select(self):
        ds = scenario_dataset(seed=347)
        candidates = ["x1", "x2", "x3", "x4"]
        previous = None
        for alpha in (0.5, 0.2, 0.05, 0.01):
            result = mfp(ds, candidates, MfpConfig(alpha, 0.05, max_cycles=1))
            selected = {v for v, form in result.cycle_trace[0].items()
                        if form is not FunctionForm.EXCLUDED}
            if previous is not None:
                assert selected <= previous
            previous = selected

    def test_empty_candidates_rejected(self):
        with pytest.raises(DomainError):
            mfp(scenario_dataset(), [], MfpConfig())

    def test_constant_candidate_fails_before_any_fit(self, monkeypatch, recwarn):
        # Two constant candidates: the first in candidate order is named,
        # before the analysis builds its design, so no fit warns of an
        # aliased column.
        ds = scenario_dataset()
        columns = {name: ds.column(name) for name in ("x1", "x3", "y")}
        columns.update(x2=np.full(ds.n, 2.0), x4=np.full(ds.n, -1.0))
        ds = Dataset.from_columns(columns, outcome="y")
        monkeypatch.setattr(mfp_module, "Design", None)  # building one would raise TypeError
        with pytest.raises(TooFewDistinctValuesError, match="^'x2' is constant$"):
            mfp(ds, ["x1", "x2", "x3", "x4"])
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    def test_binary_candidate_gets_single_df_test(self):
        rng = np.random.default_rng(349)
        n = 300
        b = (rng.random(n) < 0.4).astype(float)
        x = rng.uniform(0.5, 3.0, n)
        y = 1.2 * b + rng.normal(scale=0.8, size=n)
        ds = Dataset.from_columns({"b": b, "x": x, "y": y}, outcome="y")
        result = mfp(ds, ["b", "x"], MfpConfig(0.05, 0.05))
        db = result.decisions["b"]
        assert db.verdict is FunctionForm.LINEAR
        assert len(db.step_pvalues) == 1

    def test_categorical_candidate_tested_as_block(self):
        rng = np.random.default_rng(353)
        n = 450
        g = rng.choice([0.0, 1.0, 2.0], size=n)
        x = rng.standard_normal(n)
        y = np.where(g == 1.0, 0.9, 0.0) + np.where(g == 2.0, 1.8, 0.0) \
            + rng.normal(scale=0.8, size=n)
        ds = Dataset.from_columns({"g": g, "x": x, "y": y}, outcome="y")
        result = mfp(ds, ["g", "x"],
                     MfpConfig(0.05, 0.05, categorical=frozenset({"g"})))
        dg = result.decisions["g"]
        assert dg.verdict is FunctionForm.LINEAR
        assert dg.term is not None
        assert len(dg.term.labels()) == 2  # two dummies tested jointly

    def test_config_validation(self):
        with pytest.raises(DomainError):
            MfpConfig(alpha_select=0.0)
        with pytest.raises(DomainError):
            MfpConfig(max_cycles=0)


def _mfp_deciding_every_visit(dataset, candidates, config):
    """Reference: the MFP cycle with a fresh, standalone function selection
    test on every visit (no categorical candidates). Returns (final spec,
    cycle trace of verdicts)."""
    order = removal_order(dataset, candidates, config)
    terms = {v: Term.linear(v) for v in candidates}
    trace, previous = [], None
    for _ in range(config.max_cycles):
        verdicts = {}
        for v in order:
            adjustment = ModelSpec(tuple(t for other, t in terms.items()
                                         if other != v and t is not None))
            decision = fsp_select(dataset, v, config.alpha_select, config.degree_for(v),
                                  adjustment, config.alpha_fp, v in config.force_in)
            terms[v], verdicts[v] = decision.term, decision.verdict
        trace.append(verdicts)
        state = {v: terms[v] for v in order}
        if state == previous:
            break
        previous = state
    return ModelSpec(tuple(terms[v] for v in order if terms[v] is not None)), tuple(trace)


class TestDecisionMemo:
    def test_no_pair_searched_twice_and_result_unchanged(self, monkeypatch):
        ds = scenario_dataset(seed=337)
        candidates = ["x1", "x2", "x3", "x4"]
        config = MfpConfig(0.05, 0.05)
        reference_spec, reference_trace = _mfp_deciding_every_visit(ds, candidates, config)

        searched = Counter()
        real_closed_test = mfp_module.closed_test

        def counting_closed_test(design, variable, alpha, max_degree, adjustment, *args):
            searched[variable, adjustment] += 1
            return real_closed_test(design, variable, alpha, max_degree, adjustment, *args)

        monkeypatch.setattr(mfp_module, "closed_test", counting_closed_test)
        result = mfp(ds, candidates, config)
        assert max(searched.values()) == 1
        visits = len(result.visit_order) * len(result.cycle_trace)
        assert sum(searched.values()) < visits
        assert result.final_spec == reference_spec
        assert result.cycle_trace == reference_trace
        fresh = fit(ds, reference_spec)
        np.testing.assert_array_equal(result.fit.coefficients, fresh.coefficients)
        assert result.fit.deviance == fresh.deviance


class TestOneDesignPerAnalysis:
    """`mfp` builds one design per analysis: each searched variable's
    pre-transformation and basis are computed once, and no factorisation
    outlives the visit that made it."""

    @staticmethod
    def _dataset():
        rng = np.random.default_rng(373)
        ds = scenario_dataset(seed=373)
        columns = {name: ds.column(name) for name in ds.column_names}
        columns["b"] = (rng.random(ds.n) < 0.5).astype(float)  # 2 values: not searched
        columns["g"] = rng.choice([0.0, 1.0, 2.0], size=ds.n)  # categorical: not searched
        return Dataset.from_columns(columns, outcome="y")

    def test_basis_built_once_per_searched_variable(self, monkeypatch):
        calls = Counter()
        for name in ("_basis", "pretransform"):
            real = getattr(glm_module, name)
            monkeypatch.setattr(glm_module, name,
                                lambda *args, real=real, name=name:
                                calls.update([name]) or real(*args))
        result = mfp(self._dataset(), ["x1", "x2", "b", "g", "x3", "x4"],
                     MfpConfig(categorical=frozenset({"g"})))
        assert len(result.visit_order) * len(result.cycle_trace) > 4
        assert calls == {"_basis": 4, "pretransform": 4}

    def test_memo_holds_one_visit(self, monkeypatch):
        made = []
        real = mfp_module._decide

        def checking(design, *args):
            assert not design._records  # nothing left from an earlier visit
            decision = real(design, *args)
            made.append(len(design._records))
            return decision

        monkeypatch.setattr(mfp_module, "_decide", checking)
        mfp(self._dataset(), ["x1", "x2", "b", "g", "x3", "x4"],
            MfpConfig(categorical=frozenset({"g"})))
        assert len(made) > 6 and min(made) > 0


class TestFinalFit:
    """The final fit is the `FitResult` of a decision that fitted the final
    spec when one did: nothing is factorised or fitted after the last
    decision, and it equals a fit from scratch byte for byte. A final spec
    that no decision fitted is fitted."""

    @staticmethod
    def _binomial_dataset(seed=301, n=300):
        rng = np.random.default_rng(seed)
        x1 = rng.uniform(0.3, 6.0, n)
        x2, x3, x4 = rng.standard_normal((3, n))
        eta = np.log(x1) - 0.5 + 0.8 * x2
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        return Dataset.from_columns({"x1": x1, "x2": x2, "x3": x3, "x4": x4, "y": y},
                                    outcome="y", family=Family.BINOMIAL)

    @staticmethod
    def _work_after_the_last_decision(monkeypatch, ds, config=None):
        """The result of `mfp` and the work (`glm.WORK`) it did after its last `_decide`."""
        marks, real = [], mfp_module._decide

        def marking(*args):
            decision = real(*args)
            marks.append(glm_module.WORK.copy())
            return decision

        monkeypatch.setattr(mfp_module, "_decide", marking)
        result = mfp(ds, ["x1", "x2", "x3", "x4"], config)
        monkeypatch.undo()
        return result, glm_module.WORK - marks[-1]

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_a_decisions_fit_is_the_final_fit(self, family, monkeypatch):
        ds = scenario_dataset() if family is Family.GAUSSIAN else self._binomial_dataset()
        result, work = self._work_after_the_last_decision(monkeypatch, ds)
        assert any(d.fit is result.fit for d in result.decisions.values())
        assert not work  # no factorisation, solve or IRLS
        expected = fit(ds, result.final_spec)
        assert result.fit.coefficients.tobytes() == expected.coefficients.tobytes()
        assert result.fit.covariance.tobytes() == expected.covariance.tobytes()
        assert result.fit.deviance.hex() == expected.deviance.hex()
        assert result.fit.log_likelihood.hex() == expected.log_likelihood.hex()
        for field in ("iterations", "converged", "separation", "dropped_columns", "model_df",
                      "n", "family", "column_labels", "spec"):
            assert getattr(result.fit, field) == getattr(expected, field), field

    def test_a_final_spec_no_decision_fitted_is_fitted(self, monkeypatch):
        rng = np.random.default_rng(313)
        ds = Dataset.from_columns({**{f"x{j}": rng.uniform(0.5, 3.0, 200) for j in range(1, 5)},
                                   "y": rng.standard_normal(200)}, outcome="y")
        result, work = self._work_after_the_last_decision(monkeypatch, ds, MfpConfig(0.01))
        assert result.final_spec.terms == ()
        assert work["models fitted"] == 1
        assert result.fit.deviance == fit(ds, result.final_spec).deviance
