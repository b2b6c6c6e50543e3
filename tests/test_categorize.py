"""Categorization and the minimum-p-value cutpoint hazard."""

import numpy as np
import pytest

from fpselect import (Dataset, DomainError, Family, ModelSpec, RangeEmptyError,
                      Term, TooFewDistinctValuesError, chi2_sf, cut_by_quantiles,
                      fit, min_p_cutpoint, type1_simulation)
from fpselect.model import Dummy, OrdinalScores


def two_group_dataset(seed=701, n=120, shift=0.0, cut=0.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = shift * (x > cut) + rng.standard_normal(n)
    return Dataset.from_columns({"x": x, "y": y}, outcome="y")


class TestCutByQuantiles:
    def test_median_split(self):
        scheme = cut_by_quantiles(np.arange(1.0, 101.0), 2)
        assert scheme.cutpoints == (50.5,)

    def test_quartiles_balanced_on_skewed_data(self):
        rng = np.random.default_rng(709)
        x = rng.lognormal(size=200)
        scheme = cut_by_quantiles(x, 4)
        groups = scheme.group_index(x)
        counts = np.bincount(groups, minlength=4)
        assert np.all(np.abs(counts - 50) <= 1)

    def test_constant_rejected(self):
        with pytest.raises(TooFewDistinctValuesError):
            cut_by_quantiles(np.full(30, 1.0), 2)

    def test_duplicate_quantiles_collapse_with_warning(self):
        x = np.concatenate([np.zeros(90), np.linspace(1, 2, 10)])
        with pytest.warns(UserWarning, match="collapsed"):
            scheme = cut_by_quantiles(x, 4)
        # every quartile is the tied minimum 0.0; groups are (cut[g-1], cut[g]],
        # so the cut there keeps the 90 ties apart from the rest
        assert scheme.cutpoints == (0.0,)
        np.testing.assert_array_equal(np.bincount(scheme.group_index(x)), [90, 10])

    def test_quantiles_at_tied_maximum_collapse_and_raise(self):
        # a cut at the maximum would leave the top group empty
        x = np.concatenate([np.linspace(0, 1, 10), np.ones(90)])
        with pytest.warns(UserWarning, match="collapsed"):
            with pytest.raises(TooFewDistinctValuesError):
                cut_by_quantiles(x, 4)

    def test_dummy_fitted_means_invariant_to_reference(self):
        rng = np.random.default_rng(719)
        x = rng.uniform(0.0, 10.0, 150)
        y = np.where(x < 3, 1.0, np.where(x < 7, 2.5, 0.5)) + rng.normal(scale=0.3, size=150)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        fitted = []
        for ref in (0, 1, 2):
            term = Term.categorical("x", (3.0, 7.0), Dummy(reference=ref))
            res = fit(ds, ModelSpec((term,)))
            fitted.append(res.fitted_values(ds))
        np.testing.assert_allclose(fitted[0], fitted[1], atol=1e-10)
        np.testing.assert_allclose(fitted[0], fitted[2], atol=1e-10)

    def test_ordinal_scores_single_trend_column(self):
        term = Term.categorical("x", (1.0, 2.0), OrdinalScores((1.0, 2.0, 4.0)))
        cols = term.transform.columns(np.array([0.5, 1.5, 2.5]))
        np.testing.assert_array_equal(cols[0], [1.0, 2.0, 4.0])


class TestMinPCutpoint:
    def test_step_outcome_recovers_threshold(self):
        rng = np.random.default_rng(727)
        n = 200
        x = rng.uniform(0.0, 10.0, n)
        y = 3.0 * (x > 6.2) + rng.normal(scale=0.2, size=n)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result = min_p_cutpoint(ds, "x", (0.05, 0.95))
        below = x[x <= 6.2].max()
        above = x[x > 6.2].min()
        assert below < result.cutpoint <= above

    def test_min_p_not_larger_than_any_fixed_cutpoint(self):
        ds = two_group_dataset(seed=733)
        result = min_p_cutpoint(ds, "x")
        x = ds.column("x")
        for q in (0.2, 0.35, 0.5, 0.65, 0.8):
            fixed = min_p_cutpoint(ds, "x", (q, q))
            assert result.naive_p <= fixed.naive_p + 1e-12

    def test_warning_note_attached(self):
        result = min_p_cutpoint(two_group_dataset(seed=739), "x")
        assert "overestimated" in result.note

    def test_cutpoint_unstable_under_resampling(self):
        rng = np.random.default_rng(743)
        n = 150
        x = rng.uniform(0.0, 10.0, n)
        y = 0.3 * x + rng.normal(size=n)  # smooth monotone truth, no real cutpoint
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        cutpoints = set()
        for r in range(25):
            idx = np.random.default_rng(1000 + r).integers(0, n, size=n)
            cutpoints.add(round(min_p_cutpoint(ds.take_rows(idx), "x").cutpoint, 3))
        assert len(cutpoints) >= 8

    def test_too_narrow_range_raises(self):
        # the only candidate, 0.5, sits at quantile position 0.8: outside
        # (0.45, 0.55) under any reading of the position
        rng = np.random.default_rng(751)
        x = np.concatenate([np.zeros(80), np.ones(20)])
        ds = Dataset.from_columns({"x": x, "y": rng.normal(size=100)}, outcome="y")
        with pytest.raises(RangeEmptyError):
            min_p_cutpoint(ds, "x", (0.45, 0.55))

    def test_narrow_range_admits_the_median_cut(self):
        # for a 50/50 binary x the midpoint 0.5 is the median, inside (0.45, 0.55)
        rng = np.random.default_rng(751)
        x = np.concatenate([np.zeros(50), np.ones(50)])
        ds = Dataset.from_columns({"x": x, "y": rng.normal(size=100)}, outcome="y")
        result = min_p_cutpoint(ds, "x", (0.45, 0.55))
        assert result.cutpoint == 0.5
        assert result.n_candidates == 1

    def test_group_test_matches_glm_oracle(self):
        # the vectorized scan must agree with an explicit 1-d.f. GLM test
        ds = two_group_dataset(seed=757, shift=0.8)
        result = min_p_cutpoint(ds, "x", (0.5, 0.5))
        from fpselect import deviance_test
        null_fit = fit(ds, ModelSpec(()))
        ind_fit = fit(ds, ModelSpec((Term.indicator("x", result.cutpoint),)))
        oracle_p = deviance_test(null_fit, ind_fit, 1)
        assert result.naive_p == pytest.approx(oracle_p, rel=1e-9)

    def test_exact_split_found_with_p_zero(self):
        x = np.arange(1.0, 41.0)
        ds = Dataset.from_columns({"x": x, "y": 3.0 * (x > 20.5)}, outcome="y")
        result = min_p_cutpoint(ds, "x")
        assert result.cutpoint == 20.5
        assert result.naive_p == 0.0

    def test_search_unchanged_by_an_outcome_offset(self):
        ds = two_group_dataset(seed=757, shift=0.8)
        x, y = ds.column("x"), ds.outcome
        result = min_p_cutpoint(ds, "x")
        shifted = min_p_cutpoint(
            Dataset.from_columns({"x": x, "y": y + 1e8}, outcome="y"), "x")
        assert shifted.cutpoint == result.cutpoint
        assert shifted.naive_p == pytest.approx(result.naive_p, rel=1e-6)

    def test_binomial_family_supported(self):
        rng = np.random.default_rng(761)
        n = 160
        x = rng.standard_normal(n)
        y = (rng.random(n) < 0.5).astype(float)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y",
                                  family=Family.BINOMIAL)
        result = min_p_cutpoint(ds, "x")
        assert 0.0 <= result.naive_p <= 1.0


class TestType1Simulation:
    def test_fixed_cutpoint_attains_nominal_level(self):
        result = type1_simulation(100, 400, 0.05, (0.5, 0.5), seed=767)
        assert 0.02 <= result.rejection_rate <= 0.09

    def test_search_inflates_type1(self):
        result = type1_simulation(100, 400, 0.05, (0.10, 0.90), seed=769)
        assert result.rejection_rate > 0.2

    def test_rate_grows_with_range(self):
        rates = [
            type1_simulation(100, 300, 0.05, rng_pair, seed=773).rejection_rate
            for rng_pair in ((0.4, 0.6), (0.25, 0.75), (0.10, 0.90))
        ]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > rates[0]

    def test_needs_enough_replications(self):
        with pytest.raises(DomainError):
            type1_simulation(100, 50, seed=1)
