"""GLM core: fits against closed-form oracles, deviance tests, diagnostics."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from scipy.linalg import solve_triangular

from fpselect import (Dataset, DomainError, Family, FitResult, ModelSpec,
                      NotNestedError, RankDeficientError, Term, deviance_test,
                      fit, lr_statistic)
from fpselect.glm import (DEVIANCE_RTOL, MAX_ITER, PIVOT_TOL, _MU_EPS, _binomial_deviance,
                          _cov_from_r, _embed, _embed_cov, _expit, _householder, _wls,
                          fit_design, gaussian_log_likelihood)


def make_dataset(columns, outcome="y", family=Family.GAUSSIAN):
    return Dataset.from_columns(columns, outcome=outcome, family=family)


def random_gaussian_problem(rng, n=50, p=3):
    X = rng.standard_normal((n, p))
    beta = rng.standard_normal(p + 1)
    y = beta[0] + X @ beta[1:] + rng.standard_normal(n)
    cols = {f"x{j}": X[:, j] for j in range(p)}
    cols["y"] = y
    return make_dataset(cols), X, y


class TestGaussianFit:
    def test_exact_linear_data(self):
        x = np.linspace(1.0, 9.0, 25)
        ds = make_dataset({"x": x, "y": 2.0 * x})
        res = fit(ds, ModelSpec((Term.linear("x"),)))
        assert res.coefficient("x") == pytest.approx(2.0, abs=1e-10)
        assert res.coefficient("(intercept)") == pytest.approx(0.0, abs=1e-9)
        assert res.deviance < 1e-12

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            ds, X, y = random_gaussian_problem(rng)
            res = fit(ds, ModelSpec(tuple(Term.linear(f"x{j}") for j in range(3))))
            design = np.column_stack([np.ones(len(y)), X])
            oracle = np.linalg.solve(design.T @ design, design.T @ y)
            assert np.max(np.abs(res.coefficients - oracle)) < 1e-8

    def test_converges_in_one_step(self):
        rng = np.random.default_rng(5)
        ds, _, _ = random_gaussian_problem(rng)
        res = fit(ds, ModelSpec((Term.linear("x0"),)))
        assert res.iterations == 1 and res.converged

    def test_covariance_matches_ols_formula(self):
        rng = np.random.default_rng(7)
        ds, X, y = random_gaussian_problem(rng)
        res = fit(ds, ModelSpec(tuple(Term.linear(f"x{j}") for j in range(3))))
        design = np.column_stack([np.ones(len(y)), X])
        resid = y - design @ res.coefficients
        sigma2 = resid @ resid / (len(y) - 4)
        oracle = sigma2 * np.linalg.inv(design.T @ design)
        assert np.allclose(res.covariance, oracle, rtol=1e-8, atol=1e-12)
        # symmetric positive semi-definite
        assert np.allclose(res.covariance, res.covariance.T)
        assert np.min(np.linalg.eigvalsh(res.covariance)) > -1e-12

    def test_deviance_is_rss_and_loglik_profile(self):
        rng = np.random.default_rng(11)
        ds, X, y = random_gaussian_problem(rng)
        res = fit(ds, ModelSpec((Term.linear("x0"),)))
        design = np.column_stack([np.ones(len(y)), X[:, 0]])
        beta = np.linalg.lstsq(design, y, rcond=None)[0]
        rss = float(np.sum((y - design @ beta) ** 2))
        assert res.deviance == pytest.approx(rss, rel=1e-12)
        assert res.log_likelihood == pytest.approx(gaussian_log_likelihood(rss, len(y)))


def _mgs_append(Q, R, kept, A, first=0, tol=PIVOT_TOL):
    """Reference: the left-to-right modified Gram-Schmidt with
    reorthogonalization that every least squares solve used before the
    Householder QR. A column is dropped as aliased when its residual norm
    falls below tol * its original norm."""
    for j in range(A.shape[1]):
        k = len(kept)
        v = A[:, j].astype(float, copy=True)
        norm0 = np.linalg.norm(v)
        if norm0 == 0.0:
            continue
        if k:
            Qk = Q[:, :k]
            r1 = Qk.T @ v
            v -= Qk @ r1
            r2 = Qk.T @ v
            v -= Qk @ r2
            R[:k, k] = r1 + r2
        norm_v = np.linalg.norm(v)
        if norm_v <= tol * norm0:
            R[:, k] = 0.0
            continue
        Q[:, k] = v / norm_v
        R[k, k] = norm_v
        kept.append(first + j)


def _qr_keep(A, tol=PIVOT_TOL):
    """Reference MGS factorisation: (Q, R, kept)."""
    n, p = A.shape
    Q = np.empty((n, p))
    R = np.zeros((p, p))
    kept = []
    _mgs_append(Q, R, kept, A, tol=tol)
    k = len(kept)
    return np.ascontiguousarray(Q[:, :k]), R[:k, :k], kept


def _mgs_solve(A, b):
    Q, R, _ = _qr_keep(A)
    return solve_triangular(R, Q.T @ b)


def _mgs_fit(X, y, family):
    """Reference: the former `fit_design`, with an MGS factorisation in every
    least squares solve. Returns (kept, coefficients over kept, deviance,
    IRLS iterations)."""
    _, _, kept = _qr_keep(X)
    A = X[:, kept]
    if family is Family.GAUSSIAN:
        beta = _mgs_solve(A, y)
        resid = y - A @ beta
        return kept, beta, float(resid @ resid), 1
    mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    for iterations in range(1, MAX_ITER + 1):
        w = np.maximum(mu * (1.0 - mu), _MU_EPS)
        z = eta + (y - mu) / w
        sw = np.sqrt(w)
        beta = _mgs_solve(A * sw[:, None], z * sw)
        eta = A @ beta
        mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
        new_deviance = _binomial_deviance(y, mu)
        if abs(new_deviance - deviance) <= DEVIANCE_RTOL * (abs(new_deviance) + 0.1):
            return kept, beta, new_deviance, iterations
        deviance = new_deviance
    return kept, beta, deviance, MAX_ITER


def _two_qr_gaussian_fit(X, y):
    """Reference: a rank-check QR over X (the former MGS) and then a second
    QR over the kept columns through `_wls`."""
    n, p = X.shape
    _, _, kept = _qr_keep(X)
    beta_k, R = _wls(X, y, None, kept)
    resid = y - X[:, kept] @ beta_k
    rss = float(resid @ resid)
    cov = _cov_from_r(R) * (rss / (n - len(kept)))
    return _embed(beta_k, kept, p), _embed_cov(cov, kept, p), rss


class TestOneQrGaussianFit:
    """Gaussian `fit_design` takes beta and R from its rank-check QR; the
    result must equal the former two-QR path bit for bit."""

    @staticmethod
    def _check(X, y):
        labels = tuple(f"c{j}" for j in range(X.shape[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = fit_design(X, y, Family.GAUSSIAN, labels)
        coef, cov, rss = _two_qr_gaussian_fit(X, y)
        np.testing.assert_array_equal(res.coefficients, coef)
        np.testing.assert_array_equal(res.covariance, cov)
        assert res.deviance == rss

    def test_full_rank_designs(self):
        rng = np.random.default_rng(151)
        for n, p in ((30, 2), (200, 6), (500, 10)):
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            y = X @ rng.standard_normal(p) + rng.standard_normal(n)
            self._check(X, y)

    def test_designs_with_aliased_columns(self):
        rng = np.random.default_rng(157)
        n = 120
        a, b = rng.standard_normal(n), rng.uniform(0.5, 3.0, n)
        y = a - b + rng.standard_normal(n)
        one = np.ones(n)
        self._check(np.column_stack([one, a, 2.0 * a, b]), y)
        self._check(np.column_stack([one, a, b, a + b, b ** -2]), y)
        self._check(np.column_stack([one, np.zeros(n), a, 3.0 * one]), y)


class TestHouseholderMatchesMgs:
    """The Householder QR keeps the columns the former MGS kept, and the fits
    agree with fits that factorise by MGS."""

    @staticmethod
    def _designs():
        rng = np.random.default_rng(163)
        n = 80
        one = np.ones(n)
        a, b = rng.standard_normal(n), rng.uniform(0.5, 3.0, n)
        yield "duplicate column", np.column_stack([one, a, b, a])
        yield "linear combination", np.column_stack([one, a, b, 2.0 * a - 0.5 * b, b ** 2])
        yield "zero column", np.column_stack([np.zeros(n), one, a, np.zeros(n), b])
        yield "constant copy of the intercept", np.column_stack([one, a, 3.0 * one, b])
        yield "wider than n", rng.standard_normal((5, 8))

    def test_same_kept_columns(self):
        for name, X in self._designs():
            kept = _householder(X)[0]
            assert kept == _qr_keep(X)[2], name
        assert _householder(np.zeros((5, 8)))[0] == []

    @staticmethod
    def _assert_close(X, y, family, rtol):
        labels = tuple(f"c{j}" for j in range(X.shape[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            res = fit_design(X, y, family, labels)
        kept, beta, deviance, iterations = _mgs_fit(X, y, family)
        assert [j for j, label in enumerate(labels) if label not in res.dropped_columns] == kept
        coef = res.coefficients[kept]
        assert np.max(np.abs(coef - beta)) <= rtol * np.max(np.abs(beta))
        assert res.deviance == pytest.approx(deviance, rel=rtol)
        assert res.iterations == iterations

    def test_well_conditioned_designs_agree(self):
        rng = np.random.default_rng(167)
        for n, p in ((40, 2), (200, 6), (500, 10)):
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            eta = X @ rng.normal(scale=0.5, size=p)
            self._assert_close(X, eta + rng.standard_normal(n), Family.GAUSSIAN, 1e-12)
            y = (rng.random(n) < _expit(eta)).astype(float)
            self._assert_close(X, y, Family.BINOMIAL, 1e-12)
        for name, X in list(self._designs())[:-1]:
            y = X @ rng.standard_normal(X.shape[1]) + rng.standard_normal(X.shape[0])
            self._assert_close(X, y, Family.GAUSSIAN, 1e-12)

    def test_fp2_repeated_minus_two_designs_agree(self):
        rng = np.random.default_rng(173)
        for _ in range(10):
            n = 300
            x = rng.uniform(0.5, 3.0, n)
            a = rng.standard_normal(n)
            X = np.column_stack([np.ones(n), a, x ** -2.0, x ** -2.0 * np.log(x)])
            eta = 1.0 / x + 0.5 * a - 1.0
            self._assert_close(X, eta + rng.standard_normal(n), Family.GAUSSIAN, 1e-10)
            y = (rng.random(n) < _expit(eta)).astype(float)
            self._assert_close(X, y, Family.BINOMIAL, 1e-10)

    def test_overflowing_column_kept(self):
        # Values of 1/x near 1e160 have squares that overflow; the column is
        # not aliased and must be kept.
        x = np.geomspace(1e-160, 1e-150, 150)
        rng = np.random.default_rng(79)
        y = np.log(x) + rng.normal(scale=0.05, size=150)
        X = np.column_stack([np.ones(150), 1.0 / x])
        res = fit_design(X, y, Family.GAUSSIAN, ("(intercept)", "x^(-1)"))
        assert res.dropped_columns == ()
        scaled = X / np.max(np.abs(X), axis=0)
        beta = np.linalg.lstsq(scaled, y, rcond=None)[0]
        rss = float(np.sum((y - scaled @ beta) ** 2))
        assert res.deviance == pytest.approx(rss, rel=1e-10)
        assert res.deviance == pytest.approx(5122.52, abs=0.01)

    def test_weights_that_lose_rank_raise(self):
        X = np.column_stack([np.ones(6), np.arange(6.0)])
        w = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(RankDeficientError, match="lost rank"):
            _wls(X, np.ones(6), w, [0, 1])


class TestBinomialFit:
    def test_recovers_known_coefficients(self):
        rng = np.random.default_rng(13)
        n = 4000
        x = rng.standard_normal(n)
        eta = -0.3 + 0.9 * x
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ds = make_dataset({"x": x, "y": y}, family=Family.BINOMIAL)
        res = fit(ds, ModelSpec((Term.linear("x"),)))
        assert res.converged
        assert res.coefficient("x") == pytest.approx(0.9, abs=0.15)
        assert res.coefficient("(intercept)") == pytest.approx(-0.3, abs=0.15)

    def test_score_equations_hold(self):
        rng = np.random.default_rng(17)
        n = 300
        x = rng.standard_normal(n)
        y = (rng.random(n) < 0.4).astype(float)
        ds = make_dataset({"x": x, "y": y}, family=Family.BINOMIAL)
        res = fit(ds, ModelSpec((Term.linear("x"),)))
        design = np.column_stack([np.ones(n), x])
        mu = 1.0 / (1.0 + np.exp(-design @ res.coefficients))
        score = design.T @ (y - mu)
        assert np.max(np.abs(score)) < 1e-6

    def test_wald_null_simulation(self):
        # Outcome independent of the covariate: |z| < 1.96 about 95% of the time.
        rng = np.random.default_rng(19)
        reps, hits = 400, 0
        for _ in range(reps):
            x = rng.standard_normal(200)
            y = (rng.random(200) < 0.5).astype(float)
            ds = make_dataset({"x": x, "y": y}, family=Family.BINOMIAL)
            res = fit(ds, ModelSpec((Term.linear("x"),)))
            if abs(res.wald_z("x")) < 1.96:
                hits += 1
        assert 0.91 <= hits / reps <= 0.985

    def test_separation_flagged(self):
        x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
        y = (x > 0).astype(float)
        ds = make_dataset({"x": x, "y": y}, family=Family.BINOMIAL)
        res = fit(ds, ModelSpec((Term.linear("x"),)))
        assert res.separation


class TestAliasingAndRank:
    def test_duplicate_column_dropped_with_warning(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(40)
        ds = make_dataset({"a": x, "b": x, "y": x + rng.standard_normal(40)})
        spec = ModelSpec((Term.linear("a"), Term.linear("b")))
        with pytest.warns(UserWarning, match="aliased"):
            res = fit(ds, spec)
        assert res.dropped_columns == ("b",)
        assert res.coefficient("b") == 0.0
        assert res.model_df == 2

    def test_rank_deficient_raises(self):
        ds = make_dataset({"a": [1.0, 2.0], "b": [0.5, 3.0], "y": [1.0, 2.0]})
        with pytest.raises(RankDeficientError):
            fit(ds, ModelSpec((Term.linear("a"), Term.linear("b"))))


class TestDevianceTest:
    def _fake(self, deviance, family=Family.BINOMIAL, n=100, ll=None):
        return FitResult(
            coefficients=np.zeros(1), covariance=np.zeros((1, 1)),
            deviance=deviance, log_likelihood=ll if ll is not None else -deviance / 2,
            model_df=1, n=n, converged=True, iterations=1, family=family,
            column_labels=("(intercept)",))

    def test_identical_fits_give_p_one(self):
        a = self._fake(10.0)
        assert deviance_test(a, self._fake(10.0), 1) == 1.0

    def test_aic_penalty_value_binomial(self):
        p = deviance_test(self._fake(12.0), self._fake(10.0), 1)
        assert p == pytest.approx(0.157, abs=5e-4)

    def test_bic_penalty_value_binomial(self):
        p = deviance_test(self._fake(10.0 + math.log(100)), self._fake(10.0), 1)
        assert p == pytest.approx(0.032, abs=5e-4)

    def test_gaussian_statistic_is_profile_lrt(self):
        red = self._fake(30.0, family=Family.GAUSSIAN, n=50, ll=gaussian_log_likelihood(30.0, 50))
        full = self._fake(20.0, family=Family.GAUSSIAN, n=50, ll=gaussian_log_likelihood(20.0, 50))
        stat = lr_statistic(red, full)
        assert stat == pytest.approx(50 * math.log(30.0 / 20.0))
        assert deviance_test(red, full, 2) == pytest.approx(scipy.stats.chi2.sf(stat, 2))

    def test_not_nested_raises(self):
        with pytest.raises(NotNestedError):
            deviance_test(self._fake(5.0), self._fake(9.0), 1)

    def test_df_must_be_positive(self):
        with pytest.raises(DomainError):
            deviance_test(self._fake(9.0), self._fake(5.0), 0)

    def test_gaussian_f_option_matches_f_distribution(self):
        rng = np.random.default_rng(29)
        n = 60
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        y = 0.5 * x1 + rng.standard_normal(n)
        ds = make_dataset({"x1": x1, "x2": x2, "y": y})
        full = fit(ds, ModelSpec((Term.linear("x1"), Term.linear("x2"))))
        red = fit(ds, ModelSpec((Term.linear("x1"),)))
        f_stat = ((red.deviance - full.deviance) / 1) / (full.deviance / (n - 3))
        expected = scipy.stats.f.sf(f_stat, 1, n - 3)
        assert deviance_test(red, full, 1, gaussian_f=True) == pytest.approx(expected, rel=1e-10)


class TestInvariants:
    def test_nested_deviance_monotone(self):
        rng = np.random.default_rng(31)
        ds, _, _ = random_gaussian_problem(rng, n=80)
        small = fit(ds, ModelSpec((Term.linear("x0"),)))
        big = fit(ds, ModelSpec((Term.linear("x0"), Term.linear("x1"))))
        assert small.deviance >= big.deviance - 1e-10

    def test_affine_outcome_invariance(self):
        rng = np.random.default_rng(37)
        n = 70
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        y = 1.0 + 0.4 * x1 + rng.standard_normal(n)
        a, b = 3.7, -2.2
        spec_full = ModelSpec((Term.linear("x1"), Term.linear("x2")))
        spec_red = ModelSpec((Term.linear("x1"),))
        ds1 = make_dataset({"x1": x1, "x2": x2, "y": y})
        ds2 = make_dataset({"x1": x1, "x2": x2, "y": a * y + b})
        f1, f2 = fit(ds1, spec_full), fit(ds2, spec_full)
        r1, r2 = fit(ds1, spec_red), fit(ds2, spec_red)
        # slopes scale by a, intercept picks up b, deviance scales by a^2
        assert f2.coefficient("x1") == pytest.approx(a * f1.coefficient("x1"), rel=1e-9)
        assert f2.coefficient("(intercept)") == pytest.approx(
            a * f1.coefficient("(intercept)") + b, rel=1e-9)
        assert f2.deviance == pytest.approx(a ** 2 * f1.deviance, rel=1e-9)
        p1 = deviance_test(r1, f1, 1)
        p2 = deviance_test(r2, f2, 1)
        assert abs(p1 - p2) < 1e-10

    def test_binomial_not_converged_flag(self):
        rng = np.random.default_rng(41)
        n = 200
        x = rng.standard_normal(n)
        y = (rng.random(n) < 0.5).astype(float)
        ds = make_dataset({"x": x, "y": y}, family=Family.BINOMIAL)
        res = fit(ds, ModelSpec((Term.linear("x"),)), max_iter=1)
        assert not res.converged
        assert res.iterations == 1
