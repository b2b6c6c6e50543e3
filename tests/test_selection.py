"""Selection strategies: traces, thresholds, change-in-estimate, screening."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpselect import glm, selection
from fpselect import (Criterion, CycleDetectedError, Dataset, DomainError,
                      ExposureMissingError, Family, ModelSpec, RankDeficientError,
                      ResamplePlan, Term, augmented_backward_eliminate, backward_eliminate,
                      backward_eliminate_batch,
                      criterion_threshold, chi2_sf, deviance_test, fit,
                      forward_select, stepwise, univariable_screen)
from fpselect.fp import PreTransform
from fpselect.selection import SelectionStep, SelectionTrace, _decided, _max_exposure_change


def make_dataset(cols, outcome="y"):
    return Dataset.from_columns(cols, outcome=outcome)


def noise_dataset(rng, n=500, p=5):
    cols = {f"x{j}": rng.standard_normal(n) for j in range(p)}
    cols["y"] = rng.standard_normal(n)
    return make_dataset(cols)


class TestCriterionThreshold:
    def test_pvalue_passthrough(self):
        assert criterion_threshold(Criterion.p_value(0.2), 100) == 0.2

    def test_aic_is_0157(self):
        assert criterion_threshold(Criterion.aic(), 50) == pytest.approx(0.157, abs=5e-4)

    def test_bic_at_reference_sizes(self):
        assert criterion_threshold(Criterion.bic(), 100) == pytest.approx(0.032, abs=5e-4)
        assert criterion_threshold(Criterion.bic(), 400) == pytest.approx(0.014, abs=5e-4)

    def test_bic_strictly_decreasing_in_n(self):
        values = [criterion_threshold(Criterion.bic(), n) for n in (10, 30, 100, 1000, 10000)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_bic_stricter_than_aic_beyond_e_squared(self):
        for n in (8, 20, 100, 5000):
            assert criterion_threshold(Criterion.bic(), n) < criterion_threshold(Criterion.aic(), n)

    def test_multi_df_threshold_matches_ic_comparison(self):
        # A k-column block passes AIC iff its statistic exceeds 2k.
        for df in (1, 2, 4):
            thr = criterion_threshold(Criterion.aic(), 100, df)
            assert thr == pytest.approx(chi2_sf(2.0 * df, df), abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            criterion_threshold(Criterion.bic(), 1)
        with pytest.raises(DomainError):
            Criterion.p_value(0.0)
        with pytest.raises(DomainError):
            Criterion("aic", alpha=0.1)


def _oracle_be_drop_order(dataset, names, alpha):
    """Independent replay: refit and rank removal p-values at every step."""
    remaining = list(names)
    order = []
    while remaining:
        full = fit(dataset, ModelSpec(tuple(Term.linear(v) for v in remaining)))
        pvals = {}
        for v in remaining:
            reduced = fit(dataset, ModelSpec(tuple(Term.linear(u) for u in remaining if u != v)))
            pvals[v] = deviance_test(reduced, full, 1)
        worst = max(remaining, key=lambda v: pvals[v])
        if pvals[worst] <= alpha:
            break
        order.append(worst)
        remaining.remove(worst)
    return order, remaining


class TestBackwardElimination:
    def test_near_one_alpha_keeps_everything(self):
        rng = np.random.default_rng(157)
        ds = noise_dataset(rng, n=200, p=4)
        spec = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(4)))
        trace = backward_eliminate(ds, spec, Criterion.p_value(0.999))
        assert trace.final_spec == spec
        assert trace.steps == ()

    def test_matches_step_oracle_on_noise(self):
        rng = np.random.default_rng(163)
        names = [f"x{j}" for j in range(5)]
        retained_total = 0
        reps = 60
        for _ in range(reps):
            ds = noise_dataset(rng, n=500, p=5)
            spec = ModelSpec(tuple(Term.linear(v) for v in names))
            trace = backward_eliminate(ds, spec, Criterion.p_value(0.05))
            oracle_drops, oracle_final = _oracle_be_drop_order(ds, names, 0.05)
            assert [s.variable for s in trace.steps] == oracle_drops
            assert list(trace.selected_variables) == oracle_final
            retained_total += len(oracle_final)
        per_variable_rate = retained_total / (reps * 5)
        assert 0.02 <= per_variable_rate <= 0.09  # near the nominal 5%

    def test_strong_covariate_always_retained(self):
        rng = np.random.default_rng(167)
        for _ in range(30):
            n = 300
            x0 = rng.standard_normal(n)
            cols = {"x0": x0, "x1": rng.standard_normal(n),
                    "y": 1.0 * x0 + rng.standard_normal(n)}
            trace = backward_eliminate(make_dataset(cols),
                                       ModelSpec((Term.linear("x0"), Term.linear("x1"))),
                                       Criterion.p_value(0.05))
            assert "x0" in trace.selected_variables

    def test_retained_terms_pass_dropped_terms_failed(self):
        rng = np.random.default_rng(173)
        ds = noise_dataset(rng, n=400, p=5)
        trace = backward_eliminate(
            ds, ModelSpec(tuple(Term.linear(f"x{j}") for j in range(5))),
            Criterion.p_value(0.157))
        for step in trace.steps:
            assert step.p_value > 0.157
        final = trace.final_fit
        for term in trace.final_spec.terms:
            reduced = fit(ds, trace.final_spec.without_term(term))
            assert deviance_test(reduced, final, 1) <= 0.157

    def test_trace_deterministic(self):
        rng = np.random.default_rng(179)
        ds = noise_dataset(rng, n=150, p=4)
        spec = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(4)))
        t1 = backward_eliminate(ds, spec, Criterion.aic())
        t2 = backward_eliminate(ds, spec, Criterion.aic())
        assert [s.variable for s in t1.steps] == [s.variable for s in t2.steps]
        assert t1.final_spec == t2.final_spec

    def test_bic_subset_of_aic_when_drop_orders_agree(self):
        rng = np.random.default_rng(181)
        checked = 0
        for _ in range(25):
            ds = noise_dataset(rng, n=300, p=4)
            spec = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(4)))
            aic_trace = backward_eliminate(ds, spec, Criterion.aic())
            bic_trace = backward_eliminate(ds, spec, Criterion.bic())
            aic_drops = [s.variable for s in aic_trace.steps]
            bic_drops = [s.variable for s in bic_trace.steps]
            if bic_drops[:len(aic_drops)] == aic_drops:
                checked += 1
                assert set(bic_trace.selected_variables) <= set(aic_trace.selected_variables)
        assert checked > 0  # the subset claim was actually exercised


class TestForwardAndStepwise:
    def test_nothing_significant_gives_intercept_only(self):
        rng = np.random.default_rng(191)
        ds = noise_dataset(rng, n=200, p=3)
        trace = forward_select(ds, ["x0", "x1", "x2"], Criterion.p_value(0.001))
        assert trace.final_spec.terms == ()
        assert trace.final_fit.model_df == 1

    def test_dominant_covariate_added_first(self):
        rng = np.random.default_rng(193)
        for _ in range(20):
            n = 200
            x0, x1 = rng.standard_normal(n), rng.standard_normal(n)
            cols = {"x0": x0, "x1": x1, "y": 2.0 * x0 + 0.3 * x1 + rng.standard_normal(n)}
            trace = forward_select(make_dataset(cols), ["x0", "x1"], Criterion.p_value(0.05))
            assert trace.steps[0].variable == "x0"

    def test_stepwise_equals_forward_on_orthogonal_design(self):
        rng = np.random.default_rng(197)
        n = 256
        basis = np.linalg.qr(rng.standard_normal((n, 3)))[0]
        cols = {f"x{j}": basis[:, j] for j in range(3)}
        cols["y"] = 5.0 * basis[:, 0] + 3.0 * basis[:, 1] + rng.standard_normal(n) * 0.5
        ds = make_dataset(cols)
        fwd = forward_select(ds, ["x0", "x1", "x2"], Criterion.p_value(0.05))
        sw = stepwise(ds, ["x0", "x1", "x2"], Criterion.p_value(0.05))
        assert set(fwd.selected_variables) == set(sw.selected_variables)

    def test_repeated_candidate_counts_once(self):
        # Forward selection used to add `a` and then rebuild `a` as a candidate
        # from the second copy, raising a duplicate-term DomainError.
        rng = np.random.default_rng(199)
        a, b = rng.standard_normal(100), rng.standard_normal(100)
        ds = make_dataset({"a": a, "b": b, "y": 2.0 * a + rng.standard_normal(100)})
        criterion = Criterion.p_value(0.05)
        fwd = forward_select(ds, ["a", "a", "b", "a"], criterion)
        sw = stepwise(ds, ["a", "a", "b", "a"], criterion)
        assert fwd.selected_variables == sw.selected_variables == ("a",)
        once = forward_select(ds, ["a", "b"], criterion)
        assert fwd.steps == once.steps
        assert univariable_screen(ds, ["a", "a"], 0.05).selected == ("a",)

    def test_stepwise_rejects_oscillating_thresholds(self):
        rng = np.random.default_rng(199)
        ds = noise_dataset(rng, n=100, p=2)
        with pytest.raises(CycleDetectedError):
            stepwise(ds, ["x0", "x1"], Criterion.p_value(0.2), Criterion.p_value(0.05))

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=lambda f: f.value)
    def test_stepwise_rechecks_only_after_an_addition(self, family, monkeypatch):
        # The model an iteration without an addition holds is one the last
        # re-check ran to a stop: re-checking it again scores for nothing.
        rng = np.random.default_rng(211)
        n = 500
        cols = {f"x{j}": rng.standard_normal(n) for j in range(8)}
        eta = 0.6 * cols["x0"] + 0.5 * cols["x1"] + 0.4 * cols["x2"]
        cols["y"] = (eta + rng.standard_normal(n) if family is Family.GAUSSIAN
                     else (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float))
        ds = Dataset.from_columns(cols, outcome="y", family=family)
        terms = tuple(Term.linear(f"x{j}") for j in range(8))
        criterion, calls = Criterion.p_value(0.05), []
        eliminate = selection._eliminate
        monkeypatch.setattr(selection, "_eliminate",
                            lambda *args, **kwargs: calls.append(1) or eliminate(*args, **kwargs))
        trace = stepwise(ds, terms, criterion)
        monkeypatch.undo()
        adds = [step for step in trace.steps if step.action == "add"]
        assert len(adds) >= 3 and len(calls) == len(adds)
        _assert_same_trace(trace, _ref_stepwise(ds, terms, criterion))

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=lambda f: f.value)
    def test_every_candidate_taken(self, family, monkeypatch):
        # At alpha = 1 every candidate, the dummy block and the FP2 term
        # included, enters, and the last addition scan has nothing to scan.
        ds, terms = _mixed_dataset(304, family)
        criterion, scanned = Criterion.p_value(1.0), []
        add = selection._add
        monkeypatch.setattr(selection, "_add", lambda run, candidates, criterion:
                            scanned.append(list(candidates)) or add(run, candidates, criterion))
        for run, ref in ((forward_select, _ref_forward), (stepwise, _ref_stepwise)):
            scanned.clear()
            trace = run(ds, terms, criterion)
            assert set(trace.final_spec.terms) == set(terms) and scanned[-1] == []
            _assert_same_trace(trace, ref(ds, terms, criterion))


def confounding_dataset(rng, n=400, gamma=0.35, rho=0.75):
    """Exposure e, confounder c correlated with e and with the outcome; the
    confounder is individually weak but its omission shifts the e coefficient."""
    c = rng.standard_normal(n)
    e = rho * c + math.sqrt(1 - rho ** 2) * rng.standard_normal(n)
    y = 0.5 * e + gamma * c + rng.standard_normal(n)
    return make_dataset({"e": e, "c": c, "y": y})


class TestAugmentedBackwardElimination:
    def test_confounder_kept_by_change_in_estimate(self):
        # Replay oracle: retention must equal (significant) OR (omitted-variable
        # shift of the exposure coefficient beyond the threshold), both computed
        # from two independent fits.
        rng = np.random.default_rng(211)
        via_rule = 0
        reps = 40
        for _ in range(reps):
            ds = confounding_dataset(rng, gamma=0.12)
            spec = ModelSpec((Term.linear("e"), Term.linear("c")))
            full = fit(ds, spec)
            reduced = fit(ds, ModelSpec((Term.linear("e"),)))
            std_change = abs(full.coefficient("e") - reduced.coefficient("e")) \
                / full.standard_error("e")
            p_c = deviance_test(reduced, full, 1)
            trace = augmented_backward_eliminate(ds, spec, alpha=0.05, exposure="e",
                                                 cie_threshold=0.3)
            kept = "c" in trace.selected_variables
            assert kept == (p_c <= 0.05 or std_change > 0.3)
            if kept and p_c > 0.05:
                via_rule += 1
                assert any(s.action == "keep-confounder" for s in trace.steps)
        assert via_rule >= reps // 3  # the scenario regularly exercises the rule

    def test_infinite_threshold_equals_plain_be(self):
        rng = np.random.default_rng(223)
        for _ in range(10):
            n = 300
            cols = {f"x{j}": rng.standard_normal(n) for j in range(4)}
            cols["e"] = rng.standard_normal(n)
            cols["y"] = 0.8 * cols["e"] + rng.standard_normal(n)
            ds = make_dataset(cols)
            spec = ModelSpec(tuple(Term.linear(v) for v in ("e", "x0", "x1", "x2", "x3")))
            abe = augmented_backward_eliminate(ds, spec, 0.05, "e", cie_threshold=math.inf)
            be = backward_eliminate(ds, spec, Criterion.p_value(0.05),
                                    protected=(Term.linear("e"),))
            assert abe.final_spec == be.final_spec

    def test_relative_mode_keeps_15_percent_shift(self):
        rng = np.random.default_rng(227)
        # search for a replication where the shift is >10% and c is non-significant
        for _ in range(50):
            ds = confounding_dataset(rng, gamma=0.08, rho=0.8)
            full = fit(ds, ModelSpec((Term.linear("e"), Term.linear("c"))))
            reduced = fit(ds, ModelSpec((Term.linear("e"),)))
            shift = abs(full.coefficient("e") - reduced.coefficient("e")) / abs(full.coefficient("e"))
            p_c = deviance_test(reduced, full, 1)
            if shift > 0.15 and p_c > 0.05:
                trace = augmented_backward_eliminate(
                    ds, ModelSpec((Term.linear("e"), Term.linear("c"))),
                    0.05, "e", cie_threshold=0.10, mode="relative")
                assert "c" in trace.selected_variables
                assert any(s.action == "keep-confounder" for s in trace.steps)
                return
        pytest.fail("no qualifying replication found")

    def test_exposure_never_dropped(self):
        rng = np.random.default_rng(229)
        n = 200
        cols = {"e": rng.standard_normal(n), "x0": rng.standard_normal(n),
                "y": rng.standard_normal(n)}  # exposure unrelated to outcome
        trace = augmented_backward_eliminate(
            make_dataset(cols), ModelSpec((Term.linear("e"), Term.linear("x0"))),
            0.05, "e", cie_threshold=0.1)
        assert "e" in trace.selected_variables

    def test_missing_exposure_raises(self):
        rng = np.random.default_rng(233)
        ds = noise_dataset(rng, n=100, p=2)
        with pytest.raises(ExposureMissingError):
            augmented_backward_eliminate(ds, ModelSpec((Term.linear("x0"),)),
                                         0.05, "nope", 0.1)


class TestUnivariableScreen:
    def test_suppressor_missed_by_screen_kept_by_be(self):
        rng = np.random.default_rng(239)
        found = 0
        for _ in range(20):
            n = 500
            x1 = rng.standard_normal(n)
            x2 = x1 + 0.4 * rng.standard_normal(n)
            y = 2.0 * (x1 - x2) + 0.3 * rng.standard_normal(n)
            ds = make_dataset({"x1": x1, "x2": x2, "y": y})
            screen = univariable_screen(ds, ["x1", "x2"], 0.05)
            be = backward_eliminate(ds, ModelSpec((Term.linear("x1"), Term.linear("x2"))),
                                    Criterion.p_value(0.05))
            assert set(be.selected_variables) == {"x1", "x2"}
            if "x1" not in screen.selected:
                found += 1
        assert found >= 10  # the screen misses the suppressed signal regularly

    def test_strong_covariate_selected(self):
        rng = np.random.default_rng(241)
        n = 300
        x = rng.standard_normal(n)
        ds = make_dataset({"x": x, "z": rng.standard_normal(n),
                           "y": x + rng.standard_normal(n)})
        screen = univariable_screen(ds, ["x", "z"], 0.05)
        assert "x" in screen.selected

    def test_empty_candidates(self):
        rng = np.random.default_rng(251)
        ds = noise_dataset(rng, n=50, p=1)
        screen = univariable_screen(ds, [], 0.05)
        assert screen.selected == ()
        assert "misleading" in screen.note


# ---------------------------------------------------------------------------
# Reference selection: the former loops, which fit every candidate with fit()
# ---------------------------------------------------------------------------

def _ref_removal(dataset, current, spec, term):
    reduced_fit = fit(dataset, spec.without_term(term))
    df = max(current.model_df - reduced_fit.model_df, 1)
    return deviance_test(reduced_fit, current, df), reduced_fit, df


def _ref_addition(dataset, current, spec, term):
    bigger_fit = fit(dataset, spec.with_term(term))
    df = max(bigger_fit.model_df - current.model_df, 1)
    return deviance_test(current, bigger_fit, df), bigger_fit, df


def _ref_backward(dataset, start_spec, criterion, protected=()):
    spec, current, steps = start_spec, fit(dataset, start_spec), []
    while True:
        worst = None
        for term in spec.terms:
            if term in protected:
                continue
            p, reduced_fit, df = _ref_removal(dataset, current, spec, term)
            if worst is None or p > worst[0]:
                worst = (p, term, reduced_fit, df)
        if worst is None or worst[0] <= criterion_threshold(criterion, dataset.n, worst[3]):
            break
        p, term, current, _ = worst
        spec = spec.without_term(term)
        steps.append(SelectionStep("drop", term.variable, term, p, current.deviance))
    return SelectionTrace(start_spec, tuple(steps), spec, current, criterion)


def _ref_forward(dataset, terms, criterion):
    spec = ModelSpec()
    current, remaining, steps = fit(dataset, spec), list(terms), []
    while remaining:
        best = None
        for term in remaining:
            p, bigger_fit, df = _ref_addition(dataset, current, spec, term)
            if best is None or p < best[0]:
                best = (p, term, bigger_fit, df)
        if best[0] > criterion_threshold(criterion, dataset.n, best[3]):
            break
        p, term, current, _ = best
        spec = spec.with_term(term)
        remaining.remove(term)
        steps.append(SelectionStep("add", term.variable, term, p, current.deviance))
    return SelectionTrace(ModelSpec(), tuple(steps), spec, current, criterion)


def _ref_stepwise(dataset, terms, criterion):
    spec = ModelSpec()
    current, steps = fit(dataset, spec), []
    while True:
        changed = False
        best = None
        for term in terms:
            if term not in spec.terms:
                p, bigger_fit, df = _ref_addition(dataset, current, spec, term)
                if best is None or p < best[0]:
                    best = (p, term, bigger_fit, df)
        if best is not None and best[0] <= criterion_threshold(criterion, dataset.n, best[3]):
            p, term, current, _ = best
            spec = spec.with_term(term)
            steps.append(SelectionStep("add", term.variable, term, p, current.deviance))
            changed = True
        while True:
            worst = None
            for term in spec.terms:
                p, reduced_fit, df = _ref_removal(dataset, current, spec, term)
                if worst is None or p > worst[0]:
                    worst = (p, term, reduced_fit, df)
            if worst is None or worst[0] <= criterion_threshold(criterion, dataset.n, worst[3]):
                break
            p, term, current, _ = worst
            spec = spec.without_term(term)
            steps.append(SelectionStep("drop", term.variable, term, p, current.deviance))
            changed = True
        if not changed:
            return SelectionTrace(ModelSpec(), tuple(steps), spec, current, criterion)


def _ref_abe(dataset, start_spec, alpha, exposure_term, cie_threshold, mode):
    labels = exposure_term.labels()
    spec, current, steps, confounders = start_spec, fit(dataset, start_spec), [], set()
    while True:
        ranked = []
        for term in spec.terms:
            if term != exposure_term and term not in confounders:
                p, reduced_fit, _ = _ref_removal(dataset, current, spec, term)
                if p > alpha:
                    ranked.append((p, term, reduced_fit))
        ranked.sort(key=lambda item: -item[0])
        dropped = False
        for p, term, reduced_fit in ranked:
            if _max_exposure_change(current, reduced_fit, labels, mode) > cie_threshold:
                confounders.add(term)
                steps.append(SelectionStep("keep-confounder", term.variable, term, p,
                                           current.deviance))
                continue
            spec, current = spec.without_term(term), reduced_fit
            steps.append(SelectionStep("drop", term.variable, term, p, current.deviance))
            confounders.clear()
            dropped = True
            break
        if not dropped:
            return SelectionTrace(start_spec, tuple(steps), spec, current,
                                  Criterion.p_value(alpha))


def _quiet(function, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return function(*args, **kwargs)


def _assert_same_trace(trace, ref):
    assert trace.start_spec == ref.start_spec
    assert trace.criterion == ref.criterion
    assert trace.final_spec == ref.final_spec
    assert len(trace.steps) == len(ref.steps)
    for step, ref_step in zip(trace.steps, ref.steps):
        assert step == ref_step  # p-values and deviances bit for bit
    a, b = trace.final_fit, ref.final_fit
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(a.covariance, b.covariance)
    for field in ("deviance", "log_likelihood", "model_df", "n", "converged", "iterations",
                  "family", "column_labels", "spec", "separation", "dropped_columns"):
        assert getattr(a, field) == getattr(b, field), field


def _mixed_dataset(seed, family, n=240, aliased=False):
    """Linear covariates of graded strength (x2 correlated with x1), a positive z entering as an FP2
    term and g entering as a 3-group dummy block; optionally a column `a`
    that is an exact linear combination of x0 and x1."""
    rng = np.random.default_rng(seed)
    cols = {f"x{j}": rng.standard_normal(n) for j in range(4)}
    cols["x2"] = 0.7 * cols["x1"] + 0.7 * cols["x2"]  # a confounder of x1
    cols["z"] = rng.lognormal(size=n)
    cols["g"] = rng.uniform(0.0, 3.0, n)
    eta = (0.5 * cols["x0"] + 0.2 * cols["x1"] + 0.12 * cols["x2"]
           + 0.4 * np.log(cols["z"]) + 0.35 * (cols["g"] > 2.0))
    if aliased:
        cols["a"] = 2.0 * cols["x0"] - cols["x1"]
    if family is Family.GAUSSIAN:
        cols["y"] = eta + rng.standard_normal(n)
    else:
        cols["y"] = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    terms = [Term.linear(f"x{j}") for j in range(4)]
    terms += [Term.fp("z", (-0.5, 1.0)), Term.categorical("g", (1.0, 2.0))]
    if aliased:
        terms.insert(2, Term.linear("a"))
    return Dataset.from_columns(cols, outcome="y", family=family), tuple(terms)


CRITERIA = [Criterion.p_value(0.05), Criterion.aic(), Criterion.bic()]
FAMILIES = [Family.GAUSSIAN, Family.BINOMIAL]


class TestScoreThenFit:
    """Selection scores every candidate from column subsets of one design and
    fits only the models it moves to; its traces must equal those of the
    former loops, which fit every candidate with `fit()`, bit for bit.

    The reference calls today's `fit()`. For the binomial family that fit
    solves the first IRLS step on the rank-check QR, so binomial traces are
    bit-identical to the current `fit()` and agree with the former fit, which
    factorised the design again for that step, only to about 1e-11."""

    @pytest.mark.parametrize("aliased", [False, True])
    @pytest.mark.parametrize("criterion", CRITERIA, ids=str)
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_backward_forward_stepwise(self, family, criterion, aliased):
        for seed in (304, 306):
            ds, terms = _mixed_dataset(seed, family, aliased=aliased)
            start = ModelSpec(terms)
            _assert_same_trace(_quiet(backward_eliminate, ds, start, criterion),
                               _quiet(_ref_backward, ds, start, criterion))
            _assert_same_trace(_quiet(forward_select, ds, terms, criterion),
                               _quiet(_ref_forward, ds, terms, criterion))
            _assert_same_trace(_quiet(stepwise, ds, terms, criterion),
                               _quiet(_ref_stepwise, ds, terms, criterion))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_univariable_screen(self, family):
        ds, terms = _mixed_dataset(304, family, aliased=True)
        result = univariable_screen(ds, terms, 0.05)
        null = fit(ds, ModelSpec())
        for term in terms:
            single = fit(ds, ModelSpec((term,)))
            df = max(single.model_df - null.model_df, 1)
            assert result.p_values[term.variable] == deviance_test(null, single, df)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_protected_terms(self, family):
        ds, terms = _mixed_dataset(303, family)
        protected = (terms[3], terms[5])
        trace = backward_eliminate(ds, ModelSpec(terms), Criterion.p_value(0.01), protected)
        _assert_same_trace(trace, _ref_backward(ds, ModelSpec(terms),
                                                Criterion.p_value(0.01), protected))
        assert set(protected) <= set(trace.final_spec.terms)
        assert trace.steps

    @pytest.mark.parametrize("mode, threshold", [("standardized", 0.05),
                                                 ("standardized", 0.3),
                                                 ("relative", 0.1)])
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_augmented_backward_elimination(self, family, mode, threshold):
        for seed in (304, 305, 306):
            ds, terms = _mixed_dataset(seed, family)
            start = ModelSpec(terms)
            trace = augmented_backward_eliminate(ds, start, 0.2, "x1", threshold, mode)
            _assert_same_trace(trace, _ref_abe(ds, start, 0.2, terms[1], threshold, mode))

    def test_cases_cover_multi_column_drops_and_confounders(self):
        actions, dropped = set(), set()
        for family in FAMILIES:
            for seed in (304, 305, 306):
                ds, terms = _mixed_dataset(seed, family)
                trace = augmented_backward_eliminate(ds, ModelSpec(terms), 0.2, "x1", 0.05)
                actions |= {step.action for step in trace.steps}
                trace = backward_eliminate(ds, ModelSpec(terms), Criterion.bic())
                dropped |= {step.term for step in trace.steps}
        assert actions == {"drop", "keep-confounder"}
        assert {terms[4], terms[5]} <= dropped  # the FP2 term and the dummy block

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_one_fit_per_run(self, family, monkeypatch):
        # Steps keep step records (`Design.steps`); only the final model of a
        # run becomes a FitResult.
        fits = []

        def counting(*args, **kwargs):
            fits.append(args[3])
            return fit_design(*args, **kwargs)

        fit_design = glm.fit_design
        monkeypatch.setattr(glm, "fit_design", counting)
        ds, terms = _mixed_dataset(307, family)
        for run in (lambda: backward_eliminate(ds, ModelSpec(terms), Criterion.aic()),
                    lambda: forward_select(ds, terms, Criterion.aic()),
                    lambda: stepwise(ds, terms, Criterion.aic())):
            fits.clear()
            trace = run()
            assert trace.steps
            assert fits == [trace.final_fit.column_labels]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_rank_failure_raises_the_same_error(self, family):
        # Three observations: the second addition needs three coefficients.
        ds = Dataset.from_columns({"x0": [0.1, 0.7, 1.9], "x1": [1.0, -1.0, 0.5],
                                   "y": [0.0, 1.0, 1.0]}, outcome="y", family=family)
        terms = (Term.linear("x0"), Term.linear("x1"))
        for run in (forward_select, _ref_forward, stepwise, _ref_stepwise):
            with pytest.raises(RankDeficientError, match="3 observations"):
                run(ds, terms, Criterion.p_value(1.0))
        # Dropping the only term of an intercept-free model leaves no column.
        start = ModelSpec((Term.linear("x0"),), intercept=False)
        for run in (backward_eliminate, _ref_backward):
            with pytest.raises(DomainError, match="no design columns"):
                run(ds, start, Criterion.p_value(0.05))


def _exact_scores_per_step(monkeypatch, run):
    """Run a selection and return how many removals or additions it scored
    exactly between consecutive step records (`Design.steps`, of the start
    model and of each model the run moves to), one count per step after the
    start."""
    events = []
    batch_scores, steps = glm.Design.batch_scores, glm.Design.steps

    def counting_scores(subsets):  # each (design, column subset) is one model scored
        events.extend(["score"] * len(subsets))
        return batch_scores(subsets)

    def counting_steps(models):  # each model recorded is one step, or the start
        events.extend(["fit"] * len(models))
        return steps(models)

    monkeypatch.setattr(glm.Design, "batch_scores", staticmethod(counting_scores))
    monkeypatch.setattr(glm.Design, "steps", staticmethod(counting_steps))
    trace = run()
    counts, current = [], None
    for event in events:
        if event == "fit":
            if current is not None:
                counts.append(current)
            current = 0
        else:
            current += 1
    counts.append(current)
    return trace, counts


def _designs_factorised(monkeypatch) -> list[int]:
    """Hook `glm._scaled_qrs`: the returned list gets the number of designs
    each call factorises, the depth of a stack, 1 for one (k, n) design."""
    counts = []
    scaled_qrs = glm._scaled_qrs

    def counting(At, peak):
        counts.append(1 if At.ndim == 2 else len(At))
        return scaled_qrs(At, peak)

    monkeypatch.setattr(glm, "_scaled_qrs", counting)
    return counts


def _exchangeable_dataset(seed, m=150):
    """Rows come in pairs that swap x1 and x2, so dropping x1 and dropping x2
    leave residual sums of squares that are equal in exact arithmetic; x0
    carries the signal."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(m)
    y = 1.5 * c + rng.standard_normal(m)
    return make_dataset({"x0": np.concatenate([c, c]), "x1": np.concatenate([a, b]),
                         "x2": np.concatenate([b, a]), "y": np.concatenate([y, y])})


class TestRemovalScreen:
    """Gaussian elimination scores only the removals whose Wald-update bounds
    admit the largest p-value; its traces equal scoring every removal."""

    LINEAR = ModelSpec(tuple(Term.linear(v) for v in ("x0", "x1", "x2")))

    def test_near_tie_takes_the_confirm_path(self, monkeypatch):
        ds = _exchangeable_dataset(401)
        criterion = Criterion.p_value(0.05)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: backward_eliminate(ds, self.LINEAR, criterion))
        assert trace.steps and trace.steps[0].variable in ("x1", "x2")
        assert counts[0] >= 2
        monkeypatch.undo()
        _assert_same_trace(trace, _ref_backward(ds, self.LINEAR, criterion))

    @pytest.mark.parametrize("case", ["binomial", "aliased", "ill-conditioned"])
    def test_fallback_scores_every_removal(self, case, monkeypatch):
        if case == "ill-conditioned":
            rng = np.random.default_rng(419)
            x0 = rng.standard_normal(300)
            ds = make_dataset({"x0": x0, "x1": x0 + 1e-7 * rng.standard_normal(300),
                               "x2": rng.standard_normal(300),
                               "y": x0 + rng.standard_normal(300)})
            start = self.LINEAR
        else:
            family = Family.BINOMIAL if case == "binomial" else Family.GAUSSIAN
            ds, terms = _mixed_dataset(304, family, aliased=case == "aliased")
            start = ModelSpec(terms)
        criterion = Criterion.aic()
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: _quiet(backward_eliminate, ds, start, criterion))
        assert trace.steps
        every = [len(start.terms) - k for k in range(len(counts))]
        if case == "binomial":
            assert counts == every
        else:  # the first step's fit is aliased or ill-conditioned
            assert counts[0] == every[0]
        monkeypatch.undo()
        _assert_same_trace(trace, _quiet(_ref_backward, ds, start, criterion))

    def test_one_factorisation_per_step_plus_the_start(self, monkeypatch):
        # The start model and one model per step: each step's one contender
        # has bounds on one side of the threshold, so no step scores, the
        # step that stops the run factorises nothing, and the final fit
        # reuses its model's factorisation.
        calls = _designs_factorised(monkeypatch)
        rng = np.random.default_rng(421)
        n = 500
        cols = {f"x{j}": rng.standard_normal(n) for j in range(8)}
        cols["y"] = cols["x0"] + 0.5 * cols["x1"] + rng.standard_normal(n)
        spec = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(8)))
        trace = backward_eliminate(make_dataset(cols), spec, Criterion.p_value(0.05))
        assert len(trace.steps) >= 4
        assert sum(calls) == len(calls) == len(trace.steps) + 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 80),
           criterion=st.sampled_from(CRITERIA), protect=st.sets(st.integers(0, 6)),
           intercept=st.booleans())
    def test_screened_backward_equals_reference(self, seed, n, criterion, protect, intercept):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.standard_normal(n) for j in range(4)}
        cols["x3"] = cols["x2"] + rng.uniform(0.0, 1.0) * cols["x3"]
        cols["z"] = rng.lognormal(size=n)
        cols["g"] = rng.uniform(0.0, 3.0, n)
        effects = rng.uniform(-0.6, 0.6, 4) * (rng.random(4) < 0.5)
        cols["y"] = (sum(e * cols[f"x{j}"] for j, e in enumerate(effects))
                     + 0.3 * np.log(cols["z"]) + rng.standard_normal(n))
        ds = make_dataset(cols)
        terms = (*(Term.linear(f"x{j}") for j in range(4)), Term.fp("z", (-0.5, 1.0)),
                 Term.categorical("g", (1.0, 2.0)), Term.fp("x0", 2.0, pre=PreTransform(1.0 - float(np.min(cols["x0"])))))
        start = ModelSpec(terms, intercept)
        protected = tuple(terms[i] for i in sorted(protect))
        try:
            ref = _quiet(_ref_backward, ds, start, criterion, protected)
        except (DomainError, RankDeficientError) as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                _quiet(backward_eliminate, ds, start, criterion, protected)
            return
        _assert_same_trace(_quiet(backward_eliminate, ds, start, criterion, protected), ref)


class TestLockStepRemovals:
    """Binomial elimination scores each step's removals together: they reach
    `glm._irls` in ceil(removals / `glm._LOCKSTEP_FITS`) calls, not one call
    per removal, and take the IRLS iterations of fitting each model alone.
    A step records its model from its score, and the final FitResult is built
    from the last step's record, so beside the removals only the start model
    runs IRLS."""

    def test_removals_share_irls_calls(self, monkeypatch):
        ds, terms = _mixed_dataset(304, Family.BINOMIAL)
        start = ModelSpec(terms)
        calls = []
        irls = glm._irls

        def counting(fits, *args):
            results = irls(fits, *args)
            calls.append((len(fits), sum(r[4] for r in results)))
            return results

        monkeypatch.setattr(glm, "_irls", counting)
        trace = _quiet(backward_eliminate, ds, start, Criterion.aic())
        monkeypatch.undo()
        assert trace.steps
        specs = [start]
        for step in trace.steps:
            specs.append(specs[-1].without_term(step.term))
        sizes, iterations = [1], _quiet(fit, ds, start).iterations  # the start model
        for spec in specs:  # each model's removals are scored
            removals = [spec.without_term(term) for term in spec.terms]
            sizes += [min(glm._LOCKSTEP_FITS, len(removals) - s)
                      for s in range(0, len(removals), glm._LOCKSTEP_FITS)]
            iterations += sum(_quiet(fit, ds, model).iterations for model in removals)
        assert [size for size, _ in calls] == sizes
        assert sum(used for _, used in calls) == iterations


class TestStepFitReusesItsScore:
    """A `Design` holds the `glm.Fit` record of every column subset it
    scores, and a step records the removal it takes as its score, so the
    step runs no factorisation, no IRLS and no solve, whichever removal was
    scored last; the final FitResult is built from the held record, with
    none either."""

    def test_scored_gaussian_step_runs_no_solve(self, monkeypatch):
        ds, terms = _mixed_dataset(304, Family.GAUSSIAN)
        spec = ModelSpec(terms[1:])
        design = glm.Design(ds, ModelSpec(terms))
        scored, = design.scores([spec.terms])
        work = []
        for name in ("_solve", "_scaled_qrs", "_householder", "_irls"):
            real = getattr(glm, name)
            monkeypatch.setattr(glm, name,
                                lambda *args, name=name, real=real: work.append(name) or real(*args))
        step, = glm.Design.steps([(design, spec)])
        monkeypatch.undo()
        assert work == [] and step is scored
        # The record equals that of the same model fitted unscored, bounds included.
        other = glm.Design(ds, ModelSpec(terms))
        fitted, = glm.Design.steps([(other, spec)])
        assert fitted.deviance == step.deviance and fitted.model_df == step.model_df
        assert fitted.coefficients.tobytes() == step.coefficients.tobytes()
        bounds = [glm.Design.removal_bounds([(d, spec, s)])[0]
                  for d, s in ((design, step), (other, fitted))]
        assert not np.isnan(bounds[0]).all() and bounds[0].tobytes() == bounds[1].tobytes()

    def test_winner_scored_before_the_last_removal(self, monkeypatch):
        ds, terms = _mixed_dataset(304, Family.BINOMIAL)
        events = []
        scaled_qrs, householder, irls = glm._scaled_qrs, glm._householder, glm._irls
        batch_scores, steps, fit_ = glm.Design.batch_scores, glm.Design.steps, glm.Design.fit

        def counting(name, real):
            return lambda *args: events.append((name,)) or real(*args)

        def recording_scores(subsets):
            events.append(("scores", [cols for _, cols in subsets]))
            return batch_scores(subsets)

        def recording_steps(models):
            (design, spec), = models
            events.append(("step", design.columns(spec.terms)))
            result = steps(models)
            events.append(("done",))
            return result

        def recording_fit(self, spec, **kwargs):
            events.append(("fit", self.columns(spec.terms)))
            result = fit_(self, spec, **kwargs)
            events.append(("done",))
            return result

        for name, real in (("_scaled_qrs", scaled_qrs), ("_householder", householder),
                           ("_irls", irls)):
            monkeypatch.setattr(glm, name, counting(name, real))
        monkeypatch.setattr(glm.Design, "batch_scores", staticmethod(recording_scores))
        monkeypatch.setattr(glm.Design, "steps", staticmethod(recording_steps))
        monkeypatch.setattr(glm.Design, "fit", recording_fit)
        trace = _quiet(backward_eliminate, ds, ModelSpec(terms), Criterion.aic())
        monkeypatch.undo()
        assert len(trace.steps) >= 2
        last_scored, calls, inside = None, [], False  # [kind, columns, last scored, work]
        for kind, *data in events:
            if kind == "scores":
                last_scored = data[0][-1]
            elif kind in ("step", "fit"):
                calls.append([kind, data[0], last_scored, []])
                inside = True
            elif kind == "done":
                inside = False
            elif inside:
                calls[-1][3].append(kind)
        start, *taken, final = calls
        assert start[0] == "step" and {"_householder", "_irls"} <= set(start[3])
        assert [kind for kind, *_ in taken] == ["step"] * len(trace.steps)
        assert any(cols != last for _, cols, last, _ in taken)
        assert [work for *_, work in taken] == [[]] * len(taken)
        assert final[0] == "fit" and final[1] == taken[-1][1]
        assert final[3] == []


def _resampled(seed, family, size, rows=None, aliased=False):
    """`size` subsamples of one `_mixed_dataset`, as `stability` draws them,
    with its terms; a subsample of `rows` rows replaces the third."""
    ds, terms = _mixed_dataset(seed, family, aliased=aliased)
    plan = ResamplePlan(replications=size, master_seed=seed)
    datasets = [ds.take_rows(plan.draw_indices(ds.n, r)) for r in range(size)]
    if rows is not None:
        datasets[2] = ds.take_rows(np.arange(rows))
    return datasets, terms


class TestLockStepElimination:
    """`backward_eliminate_batch` advances the eliminations of a chunk of
    datasets in lock step; each result equals `backward_eliminate` of its
    dataset alone, bit for bit, a failing dataset's error included."""

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), size=st.sampled_from([1, 5, 16]),
           family=st.sampled_from(FAMILIES), criterion=st.sampled_from(CRITERIA))
    def test_each_result_equals_its_solo_run(self, seed, size, family, criterion):
        datasets, terms = _resampled(seed, family, size)
        start, protected = ModelSpec(terms), (terms[3],)  # the FP2 term and dummy block may go
        batch = _quiet(backward_eliminate_batch, datasets, start, criterion, protected)
        assert len(batch) == size
        for dataset, trace in zip(datasets, batch):
            _assert_same_trace(trace, _quiet(backward_eliminate, dataset, start, criterion,
                                             protected))
            assert terms[3] in trace.final_spec.terms

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_a_failing_dataset_gets_its_solo_error(self, family):
        datasets, terms = _resampled(311, family, 5, rows=4)  # 4 rows, 9 columns
        start, criterion = ModelSpec(terms), Criterion.aic()
        batch = _quiet(backward_eliminate_batch, datasets, start, criterion)
        assert isinstance(batch[2], RankDeficientError)
        with pytest.raises(type(batch[2]), match=f"^{re.escape(str(batch[2]))}$"):
            _quiet(backward_eliminate, datasets[2], start, criterion)
        for dataset, trace in zip(datasets[:2] + datasets[3:], batch[:2] + batch[3:]):
            _assert_same_trace(trace, _quiet(backward_eliminate, dataset, start, criterion))

    def test_a_step_error_ends_only_its_run(self):
        # Dropping the only term of an intercept-free model leaves no column.
        datasets, _ = _resampled(313, Family.GAUSSIAN, 3)
        start = ModelSpec((Term.linear("x3"),), intercept=False)
        batch = backward_eliminate_batch(datasets, start, Criterion.p_value(0.05))
        for dataset, error in zip(datasets, batch):
            assert isinstance(error, DomainError) and "no design columns" in str(error)
            with pytest.raises(DomainError, match=re.escape(str(error))):
                backward_eliminate(dataset, start, Criterion.p_value(0.05))

    def test_one_scoring_call_per_undecided_lock_step_and_the_solo_factorisations(
            self, monkeypatch):
        datasets, terms = _resampled(317, Family.GAUSSIAN, 16)
        start = ModelSpec(terms)
        # The level of the first run's last BIC drop straddles that step's
        # bounds, so that run scores it; every other step is decided.
        last = backward_eliminate(datasets[0], start, Criterion.bic()).steps[-1]
        criterion = Criterion.p_value(last.p_value)
        events = []
        score_designs, removal_bounds = glm.score_designs, glm.Design.removal_bounds

        def counting_scores(*args, **kwargs):
            events.append("score")
            return score_designs(*args, **kwargs)

        def marking_bounds(models):  # once per lock step
            events.append("step")
            return removal_bounds(models)

        monkeypatch.setattr(glm, "score_designs", counting_scores)
        factorisations = _designs_factorised(monkeypatch)
        monkeypatch.setattr(glm.Design, "removal_bounds", staticmethod(marking_bounds))
        solo, scored = [], []  # each run's trace and the steps it scored
        for dataset in datasets:
            events.clear()
            solo.append(backward_eliminate(dataset, start, criterion))
            step_starts = [i for i, event in enumerate(events) if event == "step"]
            scored.append({len([s for s in step_starts if s < i]) - 1
                           for i, event in enumerate(events) if event == "score"})
        solo_factorisations = sum(factorisations)
        events.clear()
        factorisations.clear()
        batch = backward_eliminate_batch(datasets, start, criterion)
        monkeypatch.undo()
        steps = [len(trace.steps) for trace in solo]
        assert [len(trace.steps) for trace in batch] == steps and max(steps) >= 3
        assert scored[0] == {len(solo[0].steps)} and not any(scored[1:])
        assert events.count("score") == len(set().union(*scored)) == 1
        assert sum(factorisations) == solo_factorisations


def _assert_same_bytes(trace, ref):
    """`_assert_same_trace`, with every step's deviance and p-value and the
    final fit's coefficients and covariance compared byte for byte."""
    _assert_same_trace(trace, ref)
    assert ([(s.deviance_after.hex(), s.p_value.hex()) for s in trace.steps]
            == [(s.deviance_after.hex(), s.p_value.hex()) for s in ref.steps])
    assert trace.final_fit.coefficients.tobytes() == ref.final_fit.coefficients.tobytes()
    assert trace.final_fit.covariance.tobytes() == ref.final_fit.covariance.tobytes()


class TestStepRecords:
    """Selection steps carry step records (`glm.Design.steps`), and only a
    run's final model is fitted as a FitResult; backward elimination records
    the models of a lock step together, in one factorisation stack per
    shape. Traces and final fits equal those of the references, which fit
    every candidate with `fit()`, byte for byte."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), size=st.sampled_from([1, 5, 16]),
           family=st.sampled_from(FAMILIES), criterion=st.sampled_from(CRITERIA),
           aliased=st.booleans())
    @example(seed=331, size=5, family=Family.GAUSSIAN, criterion=CRITERIA[1], aliased=True)
    @example(seed=331, size=16, family=Family.BINOMIAL, criterion=CRITERIA[0], aliased=True)
    def test_steps_and_final_fits_equal_the_references(self, seed, size, family, criterion,
                                                       aliased):
        datasets, terms = _resampled(seed, family, size, aliased=aliased)
        start = ModelSpec(terms)
        batch = _quiet(backward_eliminate_batch, datasets, start, criterion)
        for dataset, trace in zip(datasets, batch):
            _assert_same_bytes(trace, _quiet(_ref_backward, dataset, start, criterion))
        for dataset in datasets[:2]:
            _assert_same_bytes(_quiet(forward_select, dataset, terms, criterion),
                               _quiet(_ref_forward, dataset, terms, criterion))
            _assert_same_bytes(_quiet(stepwise, dataset, terms, criterion),
                               _quiet(_ref_stepwise, dataset, terms, criterion))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_dropped_columns_warn_once_per_model_a_run_holds(self, family):
        # As when every step was fitted: the start model and each model a
        # run moves to warn of their aliased column, the final fit no more.
        ds, terms = _mixed_dataset(304, family, aliased=True)  # x0, x1, a, x2, ...
        start = ModelSpec(terms)
        for run in (lambda: backward_eliminate(ds, start, Criterion.aic(), terms[:3]),
                    lambda: forward_select(ds, terms[3:], Criterion.aic(), ModelSpec(terms[:3]))):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                trace = run()
            assert trace.steps and trace.final_fit.dropped_columns == ("a",)
            assert [str(w.message) for w in record] == (
                ["dropping aliased design columns: a"] * (1 + len(trace.steps)))

    def test_one_stack_per_shape_per_lock_step(self, monkeypatch):
        datasets, terms = _resampled(317, Family.GAUSSIAN, 16)
        start, criterion = ModelSpec(terms), Criterion.aic()
        factorised = _designs_factorised(monkeypatch)
        solo = [backward_eliminate(dataset, start, criterion) for dataset in datasets]
        solo_factorised, lock_steps = sum(factorised), []
        factorised.clear()
        scaled_qrs, steps = glm._scaled_qrs, glm.Design.steps

        def recording_qrs(At, peak):  # the shapes factorised in each lock step's records
            if lock_steps and lock_steps[-1][1]:
                lock_steps[-1][0].append(At.shape)
            return scaled_qrs(At, peak)

        def recording_steps(models):
            lock_steps.append(([], True))
            result = steps(models)
            lock_steps[-1] = (lock_steps[-1][0], False)
            return result

        monkeypatch.setattr(glm, "_scaled_qrs", recording_qrs)
        monkeypatch.setattr(glm.Design, "steps", staticmethod(recording_steps))
        batch = backward_eliminate_batch(datasets, start, criterion)
        monkeypatch.undo()
        assert [trace.steps for trace in batch] == [trace.steps for trace in solo]
        assert lock_steps[0][0] == [(16, len(start.terms) + 3, datasets[0].n)]  # the starts
        for shapes, _ in lock_steps:
            stacked = [shape[1:] for shape in shapes if len(shape) == 3]
            alone = [shape for shape in shapes if len(shape) == 2]
            assert len(set(stacked)) == len(stacked) and not set(stacked) & set(alone)
        assert sum(len(shape) == 3 for shapes, _ in lock_steps for shape in shapes) >= 3
        assert sum(factorised) <= solo_factorised


def _screen_batch(seed, roles):
    """One Gaussian `_mixed_dataset` per role, of seed `seed` + its index,
    whose column `a` is 2 x0 - x1 plus noise of scale 1 ("plain"), 0
    ("aliased": its start model drops `a`, so its step has no R) or 1e-7
    ("ill": its start model fails the conditioning guard), with the terms:
    linear ones, an FP2 pair and a dummy block."""
    datasets = []
    for i, role in enumerate(roles):
        ds, terms = _mixed_dataset(seed + i, Family.GAUSSIAN, aliased=True)
        cols = dict(zip(ds.column_names, ds.columns))
        noise = np.random.default_rng([seed + i, 1]).standard_normal(ds.n)
        cols["a"] = cols["a"] + {"plain": 1.0, "aliased": 0.0, "ill": 1e-7}[role] * noise
        datasets.append(make_dataset(cols))
    return datasets, terms


class TestBatchScreen:
    """A lock step bounds every run's removals in one `Design.removal_bounds`
    call and turns them into p-value bounds in one chdtrc call. The bounds
    contain each removal's exact deviance, a run without guaranteed bounds
    has none, and each run's trace equals its run alone and the reference,
    byte for byte."""

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), size=st.sampled_from([1, 5, 16]),
           criterion=st.sampled_from(CRITERIA), protect=st.sets(st.integers(0, 6), max_size=2),
           alone=st.sampled_from(["plain", "aliased", "ill"]))
    @example(seed=7, size=5, criterion=CRITERIA[1], protect={4}, alone="plain")
    def test_bounds_contain_the_exact_deviances_and_traces_equal(self, seed, size, criterion,
                                                                  protect, alone):
        roles = [alone] if size == 1 else ["aliased", "ill"] + ["plain"] * (size - 2)
        datasets, terms = _screen_batch(seed, roles)
        start, protected = ModelSpec(terms), tuple(terms[i] for i in sorted(protect))
        calls, removal_bounds = [], glm.Design.removal_bounds

        def recording(models):
            calls.append((models, removal_bounds(models)))
            return calls[-1][1]

        with mock.patch.object(glm.Design, "removal_bounds", staticmethod(recording)):
            batch = _quiet(backward_eliminate_batch, datasets, start, criterion, protected)
        for models, (bounds, df) in calls:
            rows = iter(zip(bounds.tolist(), df.tolist()))
            for design, spec, step in models:
                for term, ((low, high), width) in zip(spec.terms, rows):
                    assert width == len(design.term_columns[term])
                    if not math.isnan(low):
                        reduced = [t for t in spec.terms if t is not term]
                        assert step.deviance <= low <= design.scores([reduced])[0][0] <= high
        _, (bounds, _) = calls[0]  # the first lock step holds every run's start model
        first = np.cumsum([0] + [len(terms)] * len(roles))
        for role, row in zip(roles, first):
            assert np.isnan(bounds[row:row + len(terms)]).all() == (role != "plain")
        for dataset, trace in zip(datasets, batch):
            _assert_same_bytes(trace, _quiet(backward_eliminate, dataset, start, criterion,
                                             protected))
            _assert_same_bytes(trace, _quiet(_ref_backward, dataset, start, criterion, protected))
            assert set(protected) <= set(trace.final_spec.terms)

    def test_runs_do_not_share_coefficients_or_v(self):
        # Run b is run a with its outcome times 1e6 and its null columns
        # times 1e3: its V of those columns is 1e-6 times a's, so a bound of
        # a with b's V or b's coefficients would show a null column as
        # significant and screen out a's true first drop.
        rng = np.random.default_rng(907)
        n = 300
        cols = {f"x{j}": rng.standard_normal(n) for j in range(6)}
        cols["y"] = cols["x0"] + 0.6 * cols["x1"] + rng.standard_normal(n)
        scaled = {k: v * (1e3 if k in ("x3", "x4", "x5") else 1.0) for k, v in cols.items()}
        scaled["y"] = 1e6 * cols["y"]
        datasets = [make_dataset(cols), make_dataset(scaled)] * 2
        start = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(6)))
        criterion = Criterion.p_value(0.05)
        solo = [backward_eliminate(dataset, start, criterion) for dataset in datasets]
        assert [step.variable for step in solo[0].steps] == ["x4", "x2", "x5", "x3"]
        for trace, ref in zip(backward_eliminate_batch(datasets, start, criterion), solo):
            _assert_same_bytes(trace, ref)

    @pytest.mark.parametrize("size", [1, 5, 16])
    def test_one_bound_call_and_one_chdtrc_call_per_lock_step(self, size, monkeypatch):
        datasets, terms = _resampled(317, Family.GAUSSIAN, size)
        start, criterion = ModelSpec(terms), Criterion.aic()
        calls = []
        removal_bounds, chdtrc = glm.Design.removal_bounds, glm.chdtrc
        monkeypatch.setattr(glm.Design, "removal_bounds",
                            staticmethod(lambda models: calls.append("bound") or removal_bounds(models)))
        monkeypatch.setattr(glm, "chdtrc", lambda *args: calls.append("chdtrc") or chdtrc(*args))
        batch = backward_eliminate_batch(datasets, start, criterion)
        monkeypatch.undo()
        lock_steps = 1 + max(len(trace.steps) for trace in batch)
        assert calls == ["bound", "chdtrc"] * lock_steps


class TestAdditionScreen:
    """Gaussian forward selection and stepwise score only the additions whose
    bounds from `Design.addition_bounds` admit the smallest p-value; their
    traces equal scoring every addition."""

    CANDIDATES = tuple(Term.linear(f"x{j}") for j in range(8))

    @staticmethod
    def _dataset(seed, n=500):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.standard_normal(n) for j in range(8)}
        cols["y"] = cols["x0"] + 0.5 * cols["x1"] + 0.3 * cols["x2"] + rng.standard_normal(n)
        return make_dataset(cols)

    def test_well_conditioned_steps_score_few_additions(self, monkeypatch):
        ds = self._dataset(433)
        criterion = Criterion.p_value(0.05)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: forward_select(ds, self.CANDIDATES, criterion))
        assert len(trace.steps) >= 3
        assert max(counts) <= 2 and sum(counts) < 2 * len(counts)
        monkeypatch.undo()
        _assert_same_trace(trace, _ref_forward(ds, self.CANDIDATES, criterion))

    def test_near_tie_takes_the_confirm_path(self, monkeypatch):
        # Rows come in pairs that swap x1 and x2, and the model after x0 is
        # the same on both rows of a pair, so adding x1 and adding x2 leave
        # residual sums of squares that are equal in exact arithmetic.
        rng = np.random.default_rng(437)
        m = 150
        a, b, c = rng.standard_normal(m), rng.standard_normal(m), rng.standard_normal(m)
        y = 1.5 * c + 0.4 * (a + b) + rng.standard_normal(m)
        cols = {"x0": np.concatenate([c, c]), "x1": np.concatenate([a, b]),
                "x2": np.concatenate([b, a]), "y": np.concatenate([y, y])}
        cols.update({f"x{j}": rng.standard_normal(2 * m) for j in range(3, 6)})
        ds = make_dataset(cols)
        terms = self.CANDIDATES[:6]
        criterion = Criterion.p_value(0.05)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: forward_select(ds, terms, criterion))
        assert [step.variable for step in trace.steps][:2] in (["x0", "x1"], ["x0", "x2"])
        assert counts[1] == 2  # x1 and x2, not the three null columns
        monkeypatch.undo()
        _assert_same_trace(trace, _ref_forward(ds, terms, criterion))

    def test_binomial_scores_every_addition(self, monkeypatch):
        ds, terms = _mixed_dataset(311, Family.BINOMIAL)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: forward_select(ds, terms, Criterion.aic()))
        assert counts == [len(terms) - k for k in range(len(counts))]
        monkeypatch.undo()
        _assert_same_trace(trace, _ref_forward(ds, terms, Criterion.aic()))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(10, 80),
           criterion=st.sampled_from(CRITERIA), procedure=st.sampled_from(["forward", "stepwise"]))
    def test_screened_additions_equal_reference(self, seed, n, criterion, procedure):
        rng = np.random.default_rng(seed)
        cols = {f"x{j}": rng.standard_normal(n) for j in range(4)}
        cols["x3"] = cols["x2"] + rng.uniform(0.0, 1.0) * cols["x3"]
        cols["z"] = rng.lognormal(size=n)
        cols["g"] = rng.uniform(0.0, 3.0, n)
        effects = rng.uniform(-0.8, 0.8, 4) * (rng.random(4) < 0.6)
        cols["y"] = (sum(e * cols[f"x{j}"] for j, e in enumerate(effects))
                     + rng.uniform(0.0, 0.6) * np.log(cols["z"])
                     + rng.uniform(0.0, 0.6) * (cols["g"] > 2.0) + rng.standard_normal(n))
        ds = make_dataset(cols)
        terms = (*(Term.linear(f"x{j}") for j in range(4)), Term.fp("z", (-0.5, 1.0)),
                 Term.categorical("g", (1.0, 2.0)))
        run, ref = ((forward_select, _ref_forward) if procedure == "forward"
                    else (stepwise, _ref_stepwise))
        try:
            expected = _quiet(ref, ds, terms, criterion)
        except (DomainError, RankDeficientError) as error:
            with pytest.raises(type(error), match=re.escape(str(error))):
                _quiet(run, ds, terms, criterion)
            return
        _assert_same_trace(_quiet(run, ds, terms, criterion), expected)


class TestStepsDecidedByBounds:
    """A Gaussian step whose screen leaves one contender, with p-value bounds
    wholly on one side of the threshold, is decided without scoring; a step
    whose bounds straddle the threshold, or that has none, is scored. Either
    way the trace equals the reference, bit for bit. Each test sets the
    level to the exact p-value of a reference step, or just below it."""

    @pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
    def test_straddling_removal_is_scored(self, below, monkeypatch):
        ds, terms = _mixed_dataset(304, Family.GAUSSIAN)
        start = ModelSpec(terms)
        before = _ref_backward(ds, start, Criterion.bic()).steps
        p = before[-1].p_value
        criterion = Criterion.p_value(math.nextafter(p, 0.0) if below else p)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: backward_eliminate(ds, start, criterion))
        monkeypatch.undo()
        j = len(before) - 1
        assert trace.steps[:j] == before[:j] and counts[:j] == [0] * j
        assert counts[j] >= 1  # at the level it stops, below it drops
        assert len(trace.steps) > j if below else len(trace.steps) == j
        _assert_same_trace(trace, _ref_backward(ds, start, criterion))

    @pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
    def test_straddling_addition_is_scored(self, below, monkeypatch):
        ds = TestAdditionScreen._dataset(433)
        terms = TestAdditionScreen.CANDIDATES
        before = _ref_forward(ds, terms, Criterion.bic()).steps
        p = before[-1].p_value
        criterion = Criterion.p_value(math.nextafter(p, 0.0) if below else p)
        trace, counts = _exact_scores_per_step(
            monkeypatch, lambda: forward_select(ds, terms, criterion))
        monkeypatch.undo()
        j = len(before) - 1
        assert trace.steps[:j] == before[:j] and counts[j] >= 1  # at the level it adds
        assert len(trace.steps) == j if below else trace.steps[j] == before[j]
        _assert_same_trace(trace, _ref_forward(ds, terms, criterion))

    def test_decided_only_by_one_bounded_contender(self):
        ds, terms = _mixed_dataset(304, Family.GAUSSIAN)
        design = glm.Design(ds, ModelSpec(terms))
        criterion, fp2 = Criterion.p_value(0.05), terms[4]
        assert _decided(design, criterion, [(fp2, (0.06, 0.07))]) is True
        assert _decided(design, criterion, [(fp2, (0.04, 0.05))]) is False
        for screened in ([(fp2, None)], [], [(fp2, (0.04, 0.06))],
                         [(fp2, (0.06, 0.07)), (terms[0], (0.06, 0.07))]):
            assert _decided(design, criterion, screened) is None
        # AIC's threshold for the FP2 term's two columns, 0.135, not one's 0.157
        assert _decided(design, Criterion.aic(), [(fp2, (0.14, 0.15))]) is True


class TestAlternativeForms:
    """Candidates may be alternative forms of one variable whose design-column
    labels repeat. Each runs on its own; a model never holds two forms whose
    labels clash."""

    FORMS = (Term.fp("x", 1), Term.fp("x", (1, 2)),
             Term.categorical("g", (1.0,)), Term.categorical("g", (2.0,)))

    @staticmethod
    def _dataset():
        rng = np.random.default_rng(431)
        n = 200
        x, g = rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 3.0, n)
        return make_dataset({"x": x, "g": g,
                             "y": np.log(x) + 0.8 * (g > 2.0) + rng.standard_normal(n)})

    def test_additions_whose_labels_clash_are_skipped(self):
        ds = self._dataset()
        for trace in (forward_select(ds, self.FORMS, Criterion.p_value(0.5)),
                      stepwise(ds, self.FORMS, Criterion.p_value(0.5))):
            labels = trace.final_fit.column_labels
            assert len(set(labels)) == len(labels)
            assert sorted(t.variable for t in trace.final_spec.terms) == ["g", "x"]
            first = trace.steps[0]
            # The first addition is the best form of all, scored alone.
            p_alone = [deviance_test(fit(ds, ModelSpec()), fit(ds, ModelSpec((t,))),
                                     len(t.labels()))
                       for t in self.FORMS]
            assert first.p_value == min(p_alone)

    def test_univariable_screen_scores_each_form_alone(self):
        ds = self._dataset()
        result = univariable_screen(ds, self.FORMS[2:], 0.05)
        expected = deviance_test(fit(ds, ModelSpec()), fit(ds, ModelSpec((self.FORMS[3],))), 1)
        assert result.p_values["g"] == expected
