"""Spike-at-zero decomposition and component selection."""

import numpy as np
import pytest

from fpselect import (AllZeroError, Dataset, DomainError, Family, FunctionForm,
                      ModelSpec, NoSpikeError, SpikeDecision, SpikeVerdict, Term,
                      best_fp, deviance_test, fit, spike_decompose, spike_fsp)


def spike_dataset(rng, n=500, zero_prob=0.3, jump=0.0, curve=None, noise=0.5,
                  lo=0.5, hi=4.0):
    x = np.where(rng.random(n) < zero_prob, 0.0, rng.uniform(lo, hi, n))
    eta = np.zeros(n)
    pos = x > 0
    eta[pos] += jump
    if curve is not None:
        eta[pos] += curve(x[pos])
    y = eta + rng.normal(scale=noise, size=n)
    return Dataset.from_columns({"x": x, "y": y}, outcome="y")


class TestDecompose:
    def test_definition(self):
        d = spike_decompose(np.array([0.0, 0.0, 1.0, 2.0, 3.0, 1.5, 2.5]))
        np.testing.assert_array_equal(d.indicator, [0, 0, 1, 1, 1, 1, 1])
        assert d.zero_fraction == pytest.approx(2 / 7)

    def test_eight_percent_zeros(self):
        rng = np.random.default_rng(401)
        n = 5000
        x = np.where(rng.random(n) < 0.08, 0.0, rng.uniform(0.5, 8.0, n))
        d = spike_decompose(x)
        assert d.zero_fraction == pytest.approx(0.08, abs=0.02)

    def test_no_zeros_raises(self):
        with pytest.raises(NoSpikeError):
            spike_decompose(np.array([1.0, 2.0, 3.0, 0.5, 1.5]))

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroError):
            spike_decompose(np.zeros(10))

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError):
            spike_decompose(np.array([-1.0, 0.0, 2.0]))

    def test_merge_back_roundtrip(self):
        rng = np.random.default_rng(409)
        x = np.where(rng.random(200) < 0.25, 0.0, rng.uniform(0.1, 9.0, 200))
        d = spike_decompose(x)
        np.testing.assert_allclose(d.merge_back(), x, rtol=0, atol=1e-12)

    def test_origin_positive(self):
        x = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        d = spike_decompose(x)
        assert d.origin > 0.0
        assert np.all(d.positive_part > 0.0)


class TestSpikeFsp:
    def test_pure_jump_gives_indicator_only(self):
        rng = np.random.default_rng(419)
        hits = 0
        for _ in range(20):
            ds = spike_dataset(rng, jump=1.2, curve=None)
            decision = spike_fsp(ds, "x", 0.05)
            if decision.verdict is SpikeVerdict.Z_ONLY:
                hits += 1
        assert hits >= 17

    def test_smooth_curve_through_baseline_gives_curve_only(self):
        rng = np.random.default_rng(421)
        hits = 0
        for _ in range(20):
            n = 500
            x = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(0.5, 5.0, n))
            # continuous through the transformed origin, no jump
            from fpselect import pretransform, fp_basis
            pre = pretransform(x)
            z = pre.apply(x)
            z0 = pre.apply(np.zeros(1))[0]
            y = 2.0 * (np.log(z) - np.log(z0)) + rng.normal(scale=0.4, size=n)
            ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
            decision = spike_fsp(ds, "x", 0.05)
            if decision.verdict is SpikeVerdict.FP_ONLY and 0.0 in decision.powers:
                hits += 1
        assert hits >= 15

    def test_unrelated_variable_mostly_none(self):
        rng = np.random.default_rng(431)
        reps, none_count = 200, 0
        for _ in range(reps):
            ds = spike_dataset(rng, n=250, jump=0.0, curve=None)
            if spike_fsp(ds, "x", 0.05).verdict is SpikeVerdict.NONE:
                none_count += 1
        rate = 1.0 - none_count / reps
        assert 0.01 <= rate <= 0.10  # near nominal 5%

    def test_jump_plus_curve_keeps_both(self):
        rng = np.random.default_rng(433)
        hits = 0
        for _ in range(20):
            ds = spike_dataset(rng, n=600, jump=2.0, curve=np.log, noise=0.4)
            decision = spike_fsp(ds, "x", 0.05)
            if decision.verdict is SpikeVerdict.Z_AND_FP:
                hits += 1
        assert hits >= 17

    def test_zero_rows_unaffected_by_curve_choice(self):
        # Fitted values at x == 0 must not depend on the FP powers.
        rng = np.random.default_rng(439)
        ds = spike_dataset(rng, jump=1.0, curve=np.sqrt)
        x = ds.column("x")
        decomp_based = []
        for powers in ((0.0,), (2.0,), (-1.0, 3.0)):
            from fpselect import pretransform
            pre = pretransform(x)
            origin = pre.apply(np.zeros(1))[0]
            spec = ModelSpec((
                Term.indicator("x", 0.0),
                Term.fp("x", powers, pre, center_at=origin),
            ))
            fitted = fit(ds, spec).fitted_values(ds)
            decomp_based.append(fitted[x == 0.0])
        np.testing.assert_allclose(decomp_based[0], decomp_based[1], atol=1e-8)
        np.testing.assert_allclose(decomp_based[0], decomp_based[2], atol=1e-8)

    def test_indicator_coefficient_is_jump_at_zero(self):
        rng = np.random.default_rng(443)
        ds = spike_dataset(rng, n=3000, jump=1.5, curve=None, noise=0.3)
        decision = spike_fsp(ds, "x", 0.05)
        fitted = fit(ds, ModelSpec(decision.terms))
        label = Term.indicator("x", 0.0).labels()[0]
        assert fitted.coefficient(label) == pytest.approx(1.5, abs=0.1)

    def test_degenerate_positive_part_falls_back_to_indicator(self):
        rng = np.random.default_rng(449)
        n = 200
        x = np.where(rng.random(n) < 0.5, 0.0, 2.0)  # single positive value
        y = 1.0 * (x > 0) + rng.normal(scale=0.5, size=n)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        decision = spike_fsp(ds, "x", 0.05)
        assert decision.verdict is SpikeVerdict.Z_ONLY

    def test_separated_effects_reported(self):
        rng = np.random.default_rng(457)
        ds = spike_dataset(rng, n=600, jump=2.0, curve=np.log, noise=0.4)
        decision = spike_fsp(ds, "x", 0.05)
        assert decision.drop_z_pvalue is not None
        assert decision.drop_fp_pvalue is not None
        assert decision.joint_pvalue <= 0.05


    @pytest.mark.parametrize("max_degree", [0, 3, 7])
    def test_unsupported_max_degree_rejected(self, max_degree):
        rng = np.random.default_rng(461)
        curve = spike_dataset(rng, jump=1.0, curve=np.log)
        n = 200
        x = np.where(rng.random(n) < 0.5, 0.0, 2.0)
        degenerate = Dataset.from_columns({"x": x, "y": rng.normal(size=n)}, outcome="y")
        for ds in (curve, degenerate):
            with pytest.raises(DomainError, match="max_degree"):
                spike_fsp(ds, "x", 0.05, max_degree=max_degree)


_FORMER_FP_DF = {FunctionForm.LINEAR: 1, FunctionForm.FP1: 2, FunctionForm.FP2: 4}


def _former_select_fp_form(dataset, variable, alpha, max_degree, base, pre, origin):
    """The curve step as spike_fsp ran it before it called fsp_select."""
    linear_term = Term.fp(variable, (1.0,), pre, origin)
    fit_linear = fit(dataset, base.with_term(linear_term))
    search1 = best_fp(dataset, variable, 1, base, pre, origin)
    if max_degree == 1:
        p_nonlin = deviance_test(fit_linear, search1.fit, 1)
        if p_nonlin > alpha:
            return FunctionForm.LINEAR, None, linear_term
        return FunctionForm.FP1, search1.best_powers, search1.fit.spec.terms[-1]
    search2 = best_fp(dataset, variable, 2, base, pre, origin)
    p_nonlin = deviance_test(fit_linear, search2.fit, 3)
    if p_nonlin > alpha:
        return FunctionForm.LINEAR, None, linear_term
    p_fp2 = deviance_test(search1.fit, search2.fit, 2)
    if p_fp2 > alpha:
        return FunctionForm.FP1, search1.best_powers, search1.fit.spec.terms[-1]
    return FunctionForm.FP2, search2.best_powers, search2.fit.spec.terms[-1]


def _former_spike_fsp(dataset, variable, alpha, max_degree=2, adjustment=None):
    """spike_fsp as it was with its own copy of the closed test's curve steps."""
    adjustment = adjustment or ModelSpec()
    decomp = spike_decompose(dataset.column(variable), variable)
    z_term = Term.indicator(variable, 0.0)
    fit_null = fit(dataset, adjustment)
    if decomp.n_distinct_positive < 5:
        fit_z = fit(dataset, adjustment.with_term(z_term))
        p_joint = deviance_test(fit_null, fit_z, 1)
        if p_joint > alpha:
            return SpikeDecision(variable, SpikeVerdict.NONE, None, None, p_joint,
                                 None, None, alpha, decomp, (), None)
        return SpikeDecision(variable, SpikeVerdict.Z_ONLY, None, None, p_joint,
                             None, None, alpha, decomp, (z_term,), fit_z)
    fp_form, powers, fp_term = _former_select_fp_form(
        dataset, variable, alpha, max_degree, adjustment.with_term(z_term),
        decomp.pre, decomp.origin)
    fp_df = _FORMER_FP_DF[fp_form]
    fit_joint = fit(dataset, adjustment.with_term(z_term).with_term(fp_term))
    p_joint = deviance_test(fit_null, fit_joint, 1 + fp_df)
    if p_joint > alpha:
        return SpikeDecision(variable, SpikeVerdict.NONE, fp_form, powers, p_joint,
                             None, None, alpha, decomp, (), None)
    fit_fp_only = fit(dataset, adjustment.with_term(fp_term))
    fit_z_only = fit(dataset, adjustment.with_term(z_term))
    p_drop_z = deviance_test(fit_fp_only, fit_joint, 1)
    p_drop_fp = deviance_test(fit_z_only, fit_joint, fp_df)
    keep_z, keep_fp = p_drop_z <= alpha, p_drop_fp <= alpha
    if keep_z and keep_fp:
        verdict, terms, final = SpikeVerdict.Z_AND_FP, (z_term, fp_term), fit_joint
    elif keep_z:
        verdict, terms, final = SpikeVerdict.Z_ONLY, (z_term,), fit_z_only
    elif keep_fp:
        verdict, terms, final = SpikeVerdict.FP_ONLY, (fp_term,), fit_fp_only
    elif p_drop_z < p_drop_fp:
        verdict, terms, final = SpikeVerdict.Z_ONLY, (z_term,), fit_z_only
    else:
        verdict, terms, final = SpikeVerdict.FP_ONLY, (fp_term,), fit_fp_only
    if verdict is not SpikeVerdict.Z_AND_FP:
        fp_kept = verdict is SpikeVerdict.FP_ONLY
        return SpikeDecision(variable, verdict, fp_form if fp_kept else None,
                             powers if fp_kept else None, p_joint,
                             p_drop_z, p_drop_fp, alpha, decomp, terms, final)
    return SpikeDecision(variable, verdict, fp_form, powers, p_joint,
                         p_drop_z, p_drop_fp, alpha, decomp, terms, final)


def _reference_cases():
    """Spike datasets of both families with and without an adjustment
    covariate, with effects ranging from none to a jump plus a curve, and
    degenerate positive parts."""
    rng = np.random.default_rng(467)
    n = 300
    effects = {
        "none": lambda x, pos: np.zeros(n),
        "jump": lambda x, pos: 1.0 * pos,
        "log": lambda x, pos: np.where(pos, 1.5 * np.log(np.where(pos, x, 1.0) / 0.4), 0.0),
        "jump+sqrt": lambda x, pos: 0.8 * pos + np.where(pos, np.sqrt(x), 0.0),
        "jump+quadratic": lambda x, pos: 0.5 * pos + np.where(pos, 0.4 * (x - 2.0) ** 2, 0.0),
        "weak": lambda x, pos: 0.15 * pos + np.where(pos, 0.1 * x, 0.0),
    }
    for family in (Family.GAUSSIAN, Family.BINOMIAL):
        for name, effect in effects.items():
            for positive in ("continuous", "degenerate"):
                if positive == "continuous":
                    x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.4, 4.0, n))
                else:
                    x = np.where(rng.random(n) < 0.4, 0.0, rng.choice([1.0, 2.0, 3.5], n))
                w = rng.standard_normal(n)
                eta = effect(x, x > 0) + 0.5 * w
                if family is Family.GAUSSIAN:
                    y = eta + rng.normal(scale=0.7, size=n)
                else:
                    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(eta - eta.mean())))).astype(float)
                ds = Dataset.from_columns({"x": x, "w": w, "y": y}, outcome="y", family=family)
                for adjustment in (None, ModelSpec((Term.linear("w"),))):
                    for max_degree in (1, 2):
                        label = (f"{family.value} {name} {positive} max_degree={max_degree} "
                                 f"adjusted={adjustment is not None}")
                        yield label, ds, max_degree, adjustment


class TestSpikeMatchesFormerCurveStep:
    """spike_fsp, whose curve step is fsp_select, reproduces every field of
    the former implementation with its own copy of that step, bit for bit."""

    def test_every_field_identical(self):
        verdicts, forms = set(), set()
        for label, ds, max_degree, adjustment in _reference_cases():
            new = spike_fsp(ds, "x", 0.05, max_degree, adjustment)
            old = _former_spike_fsp(ds, "x", 0.05, max_degree, adjustment)
            assert new.verdict is old.verdict, label
            assert new.fp_form is old.fp_form, label
            assert new.powers == old.powers, label
            for field in ("joint_pvalue", "drop_z_pvalue", "drop_fp_pvalue"):
                assert getattr(new, field) == getattr(old, field), (label, field)
            assert new.terms == old.terms, label
            assert (new.fit is None) == (old.fit is None), label
            if new.fit is not None:
                assert new.fit.deviance == old.fit.deviance, label
                assert new.fit.column_labels == old.fit.column_labels, label
                np.testing.assert_array_equal(new.fit.coefficients, old.fit.coefficients, label)
                np.testing.assert_array_equal(new.fit.covariance, old.fit.covariance, label)
            verdicts.add(new.verdict)
            forms.add(new.fp_form)
        # The cases reach every verdict and every curve form.
        assert verdicts == set(SpikeVerdict)
        assert {FunctionForm.LINEAR, FunctionForm.FP1, FunctionForm.FP2} <= forms
