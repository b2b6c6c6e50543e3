"""Multivariable cycling: ordering, convergence, tuning-level semantics."""

import importlib
from collections import Counter

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, DomainError, FunctionForm, MfpConfig,
                      ModelSpec, Term, backward_eliminate, fit, mfp,
                      removal_order)

# The package exports the `mfp` function under the submodule's name.
mfp_module = importlib.import_module("fpselect.mfp")


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

    def test_binary_candidate_gets_single_df_test(self):
        rng = np.random.default_rng(349)
        n = 300
        b = (rng.random(n) < 0.4).astype(float)
        x = rng.uniform(0.5, 3.0, n)
        y = 1.2 * b + rng.normal(scale=0.8, size=n)
        ds = Dataset.from_columns({"b": b, "x": x, "y": y}, outcome="y")
        result = mfp(ds, ["b", "x"], MfpConfig(0.05, 0.05, binary=frozenset({"b"})))
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
    """Reference: the MFP cycle with a fresh function selection test on every
    visit. Returns (final spec, cycle trace of verdicts)."""
    order = removal_order(dataset, candidates, config)
    terms = {v: Term.linear(v) for v in candidates}
    trace, previous = [], None
    for _ in range(config.max_cycles):
        verdicts = {}
        for v in order:
            adjustment = ModelSpec(tuple(t for other, t in terms.items()
                                         if other != v and t is not None))
            decision = mfp_module._decide(dataset, v, adjustment, config)
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
        real_fsp_select = mfp_module.fsp_select

        def counting_fsp_select(dataset, variable, *args, adjustment, **kwargs):
            searched[variable, adjustment] += 1
            return real_fsp_select(dataset, variable, *args, adjustment=adjustment, **kwargs)

        monkeypatch.setattr(mfp_module, "fsp_select", counting_fsp_select)
        result = mfp(ds, candidates, config)
        assert max(searched.values()) == 1
        visits = len(result.visit_order) * len(result.cycle_trace)
        assert sum(searched.values()) < visits
        assert result.final_spec == reference_spec
        assert result.cycle_trace == reference_trace
        fresh = fit(ds, reference_spec)
        np.testing.assert_array_equal(result.fit.coefficients, fresh.coefficients)
        assert result.fit.deviance == fresh.deviance
