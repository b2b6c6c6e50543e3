"""Fractional polynomial family: enumeration, bases, pre-transformation, search."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpselect import (Dataset, DegenerateVariableError, DomainError, Family, FpPowers,
                      FP_POWER_SET, ModelBuildError, ModelSpec, PreTransform, Term,
                      best_fp, enumerate_fp, fit, fp_basis, pretransform,
                      spike_decompose)
from fpselect.fp import fp_basis_labels
from fpselect.glm import fit_design
from fpselect.model import design_matrix


class TestEnumerate:
    def test_counts(self):
        assert len(enumerate_fp(1)) == 8
        assert len(enumerate_fp(2)) == 36

    def test_unique(self):
        for degree in (1, 2):
            entries = enumerate_fp(degree)
            assert len(set(entries)) == len(entries)

    def test_contains_repeated_and_mixed_pairs_once(self):
        table = enumerate_fp(2)
        assert table.count(FpPowers((-2.0, -2.0))) == 1
        assert table.count(FpPowers((0.0, 3.0))) == 1

    def test_degree_out_of_range(self):
        with pytest.raises(DomainError):
            enumerate_fp(3)
        with pytest.raises(DomainError):
            enumerate_fp(0)

    def test_built_once_in_canonical_order(self):
        singles = tuple(FpPowers((p,)) for p in FP_POWER_SET)
        pairs = tuple(FpPowers((p, q)) for i, p in enumerate(FP_POWER_SET)
                      for q in FP_POWER_SET[i:])
        assert enumerate_fp(1) == singles and enumerate_fp(2) == pairs
        for degree in (1, 2):
            first = enumerate_fp(degree)
            assert isinstance(first, tuple)
            assert enumerate_fp(degree) is first
        with pytest.raises(DomainError):  # an error is raised again, not cached
            enumerate_fp(3)

    def test_powers_validate_membership(self):
        with pytest.raises(DomainError):
            FpPowers((0.7,))
        with pytest.raises(DomainError):
            FpPowers((1.0, 2.0, 3.0))

    def test_powers_canonical_order(self):
        assert FpPowers((3.0, -1.0)).values == (-1.0, 3.0)


class TestBasis:
    def test_identity_power(self):
        np.testing.assert_allclose(fp_basis([1, 2, 4], (1.0,))[:, 0], [1, 2, 4])

    def test_zero_power_is_log(self):
        x = [1.0, math.e, math.e ** 2]
        np.testing.assert_allclose(fp_basis(x, (0.0,))[:, 0], [0, 1, 2], atol=1e-12)

    def test_repeated_powers(self):
        cols = fp_basis([2.0], (2.0, 2.0))
        np.testing.assert_allclose(cols[0], [4.0, 4.0 * math.log(2.0)])

    def test_mixed_pair(self):
        cols = fp_basis([4.0], (-0.5, 2.0))
        np.testing.assert_allclose(cols[0], [0.5, 16.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            fp_basis([1.0, 0.0], (1.0,))
        with pytest.raises(DomainError):
            fp_basis([-1.0], (2.0,))

    def test_finite_over_wide_range(self):
        x = np.geomspace(1e-8, 1e8, 64)
        for powers in enumerate_fp(2):
            assert np.all(np.isfinite(fp_basis(x, powers)))


class TestPretransform:
    def test_positive_unit_scale_data_untouched(self):
        pre = pretransform(np.array([0.5, 1.0, 2.0, 3.0]))
        assert pre.shift == 0.0 and pre.scale == 1.0

    def test_shift_by_smallest_gap(self):
        pre = pretransform(np.array([0.0, 1.0, 2.0, 5.0]))
        assert pre.shift == 1.0
        assert np.all(pre.apply([0.0, 1.0, 2.0, 5.0]) >= 1.0)

    def test_decimal_rescaling(self):
        x = np.array([1.1e5, 2.3e5, 0.7e5, 1.9e5])
        pre = pretransform(x)
        assert pre.scale == 1e5
        z = pre.apply(x)
        assert 0.01 <= np.median(z) <= 100.0

    def test_subnormal_minimum_stays_positive(self):
        x = np.array([7.0, 5e-324])
        pre = pretransform(x)
        assert np.all(pre.apply(x) > 0.0)

    def test_subnormal_median_keeps_maximum_finite(self):
        x = np.array([0.0, 1.0, 2.225073858507e-311])
        pre = pretransform(x)
        z = pre.apply(x)
        assert np.all(np.isfinite(z)) and np.all(z > 0.0)

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateVariableError):
            pretransform(np.full(10, 3.3))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_result_always_positive(self, values):
        x = np.asarray(values)
        if np.unique(x).size < 2:
            return
        pre = pretransform(x)
        assert np.all(pre.apply(x) > 0.0)


def _brute_force_best_power(x, y, degree):
    """Independent search: plain lstsq over every candidate basis."""
    table = {}
    for powers in enumerate_fp(degree):
        B = fp_basis(x, powers)
        X = np.column_stack([np.ones(len(x)), B])
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        table[powers] = float(np.sum((y - X @ beta) ** 2))
    return min(table, key=lambda p: (table[p], enumerate_fp(degree).index(p))), table


class TestBestFp:
    def test_recovers_log_degree_one(self):
        rng = np.random.default_rng(61)
        x = rng.uniform(0.2, 8.0, 500)
        y = np.log(x) + rng.normal(scale=0.01, size=500)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result = best_fp(ds, "x", 1, pre=PreTransform())
        oracle, _ = _brute_force_best_power(x, y, 1)
        assert result.best_powers == FpPowers((0.0,)) == oracle

    def test_exact_member_gives_zero_deviance(self):
        x = np.linspace(0.5, 4.0, 60)
        ds = Dataset.from_columns({"x": x, "y": x.copy()}, outcome="y")
        result = best_fp(ds, "x", 1, pre=PreTransform())
        assert result.best_powers == FpPowers((1.0,))
        assert result.fit.deviance < 1e-18

    def test_recovers_reciprocal_plus_linear_degree_two(self):
        rng = np.random.default_rng(67)
        x = rng.uniform(0.2, 5.0, 500)
        y = 1.0 / x + x + rng.normal(scale=0.01, size=500)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result = best_fp(ds, "x", 2, pre=PreTransform())
        oracle, oracle_table = _brute_force_best_power(x, y, 2)
        assert result.best_powers == FpPowers((-1.0, 1.0)) == oracle
        for powers, dev in oracle_table.items():
            assert result.deviance_table[powers] == pytest.approx(dev, rel=1e-7, abs=1e-9)

    def test_table_sizes(self):
        rng = np.random.default_rng(71)
        x = rng.uniform(1.0, 3.0, 80)
        y = rng.normal(size=80)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        assert len(best_fp(ds, "x", 1).deviance_table) == 8
        assert len(best_fp(ds, "x", 2).deviance_table) == 36

    def test_best_attains_table_minimum(self):
        rng = np.random.default_rng(73)
        x = rng.uniform(0.5, 6.0, 120)
        y = np.sqrt(x) + rng.normal(scale=0.1, size=120)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result = best_fp(ds, "x", 2)
        assert result.deviance_table[result.best_powers] == min(result.deviance_table.values())

    def test_overflowing_candidate_scored_infinite_not_fatal(self):
        # Tiny values make negative powers overflow; those candidates must
        # score +inf while the others stay alive.
        x = np.geomspace(1e-160, 1e-150, 150)
        rng = np.random.default_rng(79)
        y = np.log(x) + rng.normal(scale=0.05, size=150)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result = best_fp(ds, "x", 1, pre=PreTransform())
        assert result.deviance_table[FpPowers((-2.0,))] == math.inf
        assert result.best_powers == FpPowers((0.0,))

    def test_adjustment_with_curve_of_same_variable_rejected(self):
        rng = np.random.default_rng(83)
        x = rng.uniform(0.5, 2.0, 50)
        ds = Dataset.from_columns({"x": x, "y": rng.normal(size=50)}, outcome="y")
        with pytest.raises(DomainError):
            best_fp(ds, "x", 1, adjustment=ModelSpec((Term.linear("x"),)))


def _fit_every_candidate(ds, variable, degree, adjustment=None, pre=None,
                         center_at=None):
    """Reference search: a full `fit_design` of every candidate, as the search
    did before it scored candidates from one factorisation. Returns the
    deviance table, the fits (None where the fit failed) and the designs."""
    adjustment = adjustment or ModelSpec()
    pre = pre or pretransform(ds.column(variable))
    base_X, base_labels, _ = design_matrix(ds, adjustment)
    z = pre.apply(ds.column(variable))
    table, fits, designs = {}, {}, {}
    for powers in enumerate_fp(degree):
        with np.errstate(over="ignore"):
            basis = fp_basis(z, powers)
        if center_at is not None:
            basis = basis - fp_basis(np.array([center_at]), powers)
        X = np.hstack([base_X, basis])
        labels = base_labels + fp_basis_labels(variable, powers)
        designs[powers] = (X, labels)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fits[powers] = fit_design(X, ds.outcome, ds.family, labels)
        except ModelBuildError:
            fits[powers] = None
            table[powers] = math.inf
            continue
        dev = fits[powers].deviance
        table[powers] = dev if math.isfinite(dev) else math.inf
    return table, fits, designs


def _assert_same_as_fitting_every_candidate(ds, variable, degree, adjustment=None,
                                            pre=None, center_at=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = best_fp(ds, variable, degree, adjustment, pre, center_at)
    table, fits, designs = _fit_every_candidate(ds, variable, degree, adjustment,
                                                pre, center_at)
    assert list(result.deviance_table) == list(table)
    for powers, dev in table.items():
        assert result.deviance_table[powers] == dev, powers  # bit for bit
    order = list(table)
    best = min(order, key=lambda p: (table[p], order.index(p)))
    assert result.best_powers == best
    # The former search kept the winner's own candidate fit.
    winner = fits[best]
    np.testing.assert_array_equal(result.fit.coefficients, winner.coefficients)
    np.testing.assert_array_equal(result.fit.covariance, winner.covariance)
    for field in ("deviance", "dropped_columns", "model_df", "column_labels",
                  "iterations", "converged", "separation"):
        assert getattr(result.fit, field) == getattr(winner, field), field
    return result, fits


class TestScoreThenFit:
    """Candidates of both families are scored by their deviance without a fit
    and only the winner is fitted; the table and the winner's fit must equal
    fitting every candidate."""

    @staticmethod
    def _dataset(seed, n=300):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(size=n)
        a = rng.standard_normal(n) + 0.3 * np.log(x)
        b = rng.uniform(0.5, 3.0, n)
        y = np.log(x) + 0.5 * a + 1.0 / b + rng.standard_normal(n)
        return Dataset.from_columns({"x": x, "a": a, "b": b, "y": y}, outcome="y")

    @pytest.mark.parametrize("degree", [1, 2])
    def test_tables_equal_fitting_every_candidate(self, degree):
        for seed in (101, 103, 107):
            ds = self._dataset(seed)
            _assert_same_as_fitting_every_candidate(
                ds, "x", degree, ModelSpec((Term.linear("a"), Term.linear("b"))))
            _assert_same_as_fitting_every_candidate(ds, "b", degree)

    def test_aliased_fp2_candidate(self):
        # Six distinct values, one far out: some FP2 bases lose a column.
        rng = np.random.default_rng(109)
        values = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 1e6])
        x = rng.choice(values, 200)
        x[:6] = values
        y = np.log(x) + rng.standard_normal(200)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        _, fits = _assert_same_as_fitting_every_candidate(ds, "x", 2)
        assert any(f is not None and f.dropped_columns for f in fits.values())

    @pytest.mark.parametrize("degree", [1, 2])
    def test_spike_path_with_center(self, degree):
        rng = np.random.default_rng(113)
        n = 400
        x = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 4.0, n))
        y = 1.0 * (x > 0) + np.log1p(x) + rng.normal(scale=0.5, size=n)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        decomp = spike_decompose(x, "x")
        adjustment = ModelSpec((Term.indicator("x", 0.0),))
        _, fits = _assert_same_as_fitting_every_candidate(
            ds, "x", degree, adjustment, decomp.pre, decomp.origin)
        assert any(f is not None and f.dropped_columns for f in fits.values())

    @pytest.mark.parametrize("degree", [1, 2])
    def test_overflowing_candidates_score_infinite(self, degree):
        x = np.geomspace(1e-160, 1e-150, 150)
        rng = np.random.default_rng(127)
        y = np.log(x) + rng.normal(scale=0.05, size=150)
        ds = Dataset.from_columns({"x": x, "y": y}, outcome="y")
        result, fits = _assert_same_as_fitting_every_candidate(
            ds, "x", degree, pre=PreTransform())
        failed = [p for p, f in fits.items() if f is None]
        assert failed
        assert all(result.deviance_table[p] == math.inf for p in failed)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_adjustment_with_aliased_column(self, degree):
        rng = np.random.default_rng(131)
        n = 150
        x = rng.uniform(0.5, 5.0, n)
        a = rng.standard_normal(n)
        y = np.sqrt(x) + a + rng.standard_normal(n)
        ds = Dataset.from_columns({"x": x, "a": a, "a2": 2.0 * a, "y": y}, outcome="y")
        adjustment = ModelSpec((Term.linear("a"), Term.linear("a2")))
        result, _ = _assert_same_as_fitting_every_candidate(ds, "x", degree, adjustment)
        assert "a2" in result.fit.dropped_columns

    def test_only_the_winner_warns_about_aliasing(self):
        rng = np.random.default_rng(137)
        n = 150
        x = rng.uniform(0.5, 5.0, n)
        a = rng.standard_normal(n)
        ds = Dataset.from_columns({"x": x, "a": a, "a2": 2.0 * a,
                                   "y": x + a + rng.standard_normal(n)}, outcome="y")
        with pytest.warns(UserWarning, match="aliased") as record:
            best_fp(ds, "x", 2, ModelSpec((Term.linear("a"), Term.linear("a2"))))
        assert len([w for w in record if "aliased" in str(w.message)]) == 1

    @pytest.mark.parametrize("degree", [1, 2])
    def test_every_candidate_failing_raises(self, degree):
        # n observations against n coefficients: no candidate is identifiable.
        n = 1 + degree
        x = np.arange(1.0, n + 1.0)
        ds = Dataset.from_columns({"x": x, "y": np.sin(x)}, outcome="y")
        table, _, _ = _fit_every_candidate(ds, "x", degree, pre=PreTransform())
        assert all(dev == math.inf for dev in table.values())
        with pytest.raises(ModelBuildError, match="every FP candidate fit failed"):
            best_fp(ds, "x", degree, pre=PreTransform())

    @staticmethod
    def _binomial_dataset(seed, n=300):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.5, 4.0, n)
        a = rng.standard_normal(n)
        eta = np.log(x) + 0.5 * a - 0.5
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        return Dataset.from_columns({"x": x, "a": a, "a2": 2.0 * a, "y": y}, outcome="y",
                                    family=Family.BINOMIAL)

    def test_binomial_tables_equal_fitting_every_candidate(self):
        rng = np.random.default_rng(139)
        n = 300
        x = rng.uniform(0.5, 4.0, n)
        a = rng.standard_normal(n)
        eta = np.log(x) + 0.5 * a - 0.5
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ds = Dataset.from_columns({"x": x, "a": a, "y": y}, outcome="y",
                                  family=Family.BINOMIAL)
        _assert_same_as_fitting_every_candidate(ds, "x", 2, ModelSpec((Term.linear("a"),)))

    @pytest.mark.parametrize("degree", [1, 2])
    def test_binomial_winner_fit_equals_former_search(self, degree):
        for seed in (149, 157):
            ds = self._binomial_dataset(seed)
            _assert_same_as_fitting_every_candidate(ds, "x", degree,
                                                    ModelSpec((Term.linear("a"),)))
            _assert_same_as_fitting_every_candidate(ds, "x", degree)

    def test_binomial_adjustment_with_aliased_column(self):
        ds = self._binomial_dataset(151)
        adjustment = ModelSpec((Term.linear("a"), Term.linear("a2")))
        result, _ = _assert_same_as_fitting_every_candidate(ds, "x", 2, adjustment)
        assert "a2" in result.fit.dropped_columns


class TestScaleInvariance:
    def test_deviance_table_invariant_under_covariate_scaling(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            n = 60
            x = rng.uniform(0.5, 3.0, n)
            y = rng.normal(size=n) + np.log(x)
            ds1 = Dataset.from_columns({"x": x, "y": y}, outcome="y")
            ds2 = Dataset.from_columns({"x": 1e4 * x, "y": y}, outcome="y")
            r1 = best_fp(ds1, "x", 2, pre=PreTransform())
            r2 = best_fp(ds2, "x", 2, pre=PreTransform())
            for powers in r1.deviance_table:
                d1, d2 = r1.deviance_table[powers], r2.deviance_table[powers]
                assert d2 == pytest.approx(d1, rel=1e-6, abs=1e-9)

    def test_fp1_curves_monotone(self):
        grid = np.geomspace(0.05, 50.0, 200)
        for p in FP_POWER_SET:
            curve = fp_basis(grid, (p,))[:, 0]
            diffs = np.diff(curve)
            assert np.all(diffs > 0.0) or np.all(diffs < 0.0)
