"""GLM core: fits against closed-form oracles, deviance tests, diagnostics."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dgeqrf

from fpselect import (Dataset, DomainError, Family, FitResult, ModelBuildError, ModelSpec,
                      NotNestedError, RankDeficientError, Term, deviance_test, fit)
from fpselect import glm
from fpselect.glm import (DEVIANCE_RTOL, Design, MAX_ITER, PIVOT_TOL, _MU_EPS, _binomial_deviance,
                          _cov_from_r, _embed, _expit, _householder, _r_factor,
                          _solve, deviance_p_value, fit_design, gaussian_log_likelihood,
                          p_value_bounds, score_designs)
from fpselect.model import design_matrix


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


def _former_wls(X, z, w, kept):
    """The former weighted least squares step of IRLS, restricted to the kept
    columns; returns (beta, R)."""
    A = X[:, kept]
    b = z
    if w is not None:
        sw = np.sqrt(w)
        A = A * sw[:, None]
        b = z * sw
    kept2, qr, tau, scale = _householder(A)
    if len(kept2) != len(kept):
        raise RankDeficientError("design lost rank under the working weights")
    return _solve(qr, tau, scale, b), _r_factor(qr, scale)


def _former_deviance(y, mu):
    return float(-2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu)))


def _former_irls(X, y, kept, factors, max_iter=MAX_ITER, tol=DEVIANCE_RTOL):
    """The former one-fit IRLS loop: (beta, R, deviance, converged,
    iterations)."""
    mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
    eta = np.log(mu / (1.0 - mu))
    deviance = _former_deviance(y, mu)
    beta_k = np.zeros(len(kept))
    R = np.eye(len(kept))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = np.maximum(mu * (1.0 - mu), _MU_EPS)
        z = eta + (y - mu) / w
        if iterations == 1 and np.all(w == w[0]):
            qr, tau, scale = factors
            beta_k, R = _solve(qr, tau, scale, z), _r_factor(qr, scale) * math.sqrt(w[0])
        else:
            beta_k, R = _former_wls(X, z, w, kept)
        eta = X[:, kept] @ beta_k
        mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
        new_deviance = _former_deviance(y, mu)
        if abs(new_deviance - deviance) <= tol * (abs(new_deviance) + 0.1):
            deviance = new_deviance
            converged = True
            break
        deviance = new_deviance
    return beta_k, R, deviance, converged, iterations


def _two_qr_gaussian_fit(X, y):
    """Reference: a rank-check QR over X (the former MGS) and then a second
    QR over the kept columns through the former `_wls`."""
    n, p = X.shape
    _, _, kept = _qr_keep(X)
    beta_k, R = _former_wls(X, y, None, kept)
    resid = y - X[:, kept] @ beta_k
    rss = float(resid @ resid)
    cov = _cov_from_r(R) * (rss / (n - len(kept)))
    return _embed(beta_k, kept, p), _embed(cov, kept, p), rss


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
        # Quasi-separation drives the working weights of the rows x < 0 to
        # ~1e-10, and the last column differs from x only on those rows: the
        # weighted design loses rank although the unweighted one has full rank.
        x = np.linspace(-1.0, 1.0, 11)
        X = np.column_stack([np.ones(11), x, x + 1e-8 * (x < 0)])
        y = np.zeros(11)
        y[[6, 10]] = 1.0
        assert _householder(X)[0] == [0, 1, 2]
        with pytest.raises(RankDeficientError, match="lost rank"):
            fit_design(X, y, Family.BINOMIAL, ("a", "b", "c"))
        with pytest.raises(RankDeficientError, match="lost rank"):
            _former_irls(X, y, [0, 1, 2], _householder(X)[1:])


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
        assert deviance_test(red, full, 2) == pytest.approx(
            scipy.stats.chi2.sf(50 * math.log(30.0 / 20.0), 2))

    def test_not_nested_raises(self):
        with pytest.raises(NotNestedError):
            deviance_test(self._fake(5.0), self._fake(9.0), 1)

    def test_df_must_be_positive(self):
        with pytest.raises(DomainError):
            deviance_test(self._fake(9.0), self._fake(5.0), 0)


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

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_max_iter_below_one_is_a_domain_error(self, family):
        # Without an iteration there are no coefficients to report.
        ds, spec = _blocks_dataset(43, n=50, family=family)
        X, labels, _ = design_matrix(ds, spec)
        for max_iter in (0, -1):
            with pytest.raises(DomainError, match="max_iter"):
                fit(ds, spec, max_iter=max_iter)
            with pytest.raises(DomainError, match="max_iter"):
                fit_design(X, ds.outcome, family, labels, max_iter)
        assert fit(ds, spec, max_iter=1).iterations == 1


def _former_expit(eta):
    """The former masked form of `_expit`: two `exp` calls on the halves."""
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    e = np.exp(eta[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestExpit:
    def test_bitwise_equal_to_former_formula(self):
        rng = np.random.default_rng(181)
        tiny = np.finfo(float).tiny
        special = np.array([0.0, -0.0, 800.0, -800.0, 5e-324, -5e-324, tiny / 4, -tiny / 4,
                            tiny, -tiny, 709.0, -745.0, 1e308, -1e308, 36.7, -36.7])
        for eta in (special, rng.standard_normal(100_000) * 20.0,
                    rng.standard_normal(100_000) * 1e-300):
            new, old = _expit(eta), _former_expit(eta)
            np.testing.assert_array_equal(new.view(np.uint64), old.view(np.uint64))


def _designs_for_scoring():
    rng = np.random.default_rng(191)
    n = 150
    one = np.ones(n)
    a, b = rng.standard_normal(n), rng.uniform(0.5, 3.0, n)
    eta = 0.5 * a - 0.3 * b
    yield np.column_stack([one, a, b]), eta
    yield np.column_stack([one, a, 2.0 * a, b]), eta
    yield np.column_stack([one, a, b ** -2.0, b ** -2.0 * np.log(b)]), eta


def _scores(designs, family):
    """The `glm.Fit` of each (X, y) from `score_designs`, which scores them
    together; raises the first error it yields."""
    out = []
    for scored in score_designs([(X, y, None) for X, y in designs], family):
        if isinstance(scored, ModelBuildError):
            raise scored
        out.append(scored)
    return out


class TestScoreDesign:
    """`score_designs` returns the deviance, kept columns, coefficients,
    convergence and iterations of `fit_design` bit for bit, gives its errors
    and does not warn."""

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL])
    def test_equals_fit_design(self, family):
        rng = np.random.default_rng(193)
        designs = []
        for X, eta in list(_designs_for_scoring()) * 6:  # more than one lock-step chunk
            if family is Family.GAUSSIAN:
                y = eta + rng.standard_normal(len(eta))
            else:
                y = (rng.random(len(eta)) < _expit(eta)).astype(float)
            designs.append((X, y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = _scores(designs, family)
        for (X, y), scored in zip(designs, scores):
            labels = tuple(f"c{j}" for j in range(X.shape[1]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                res = fit_design(X, y, family, labels)
            assert scored.deviance == res.deviance
            assert scored.model_df == res.model_df
            assert scored.coefficients.tobytes() == res.coefficients.tobytes()
            assert (scored.converged, scored.iterations) == (res.converged, res.iterations)

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL])
    def test_raises_the_errors_of_fit_design(self, family):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        cases = [
            (np.column_stack([np.ones(4), [1.0, np.inf, 2.0, 3.0]]), DomainError),
            (np.zeros((4, 2)), RankDeficientError),
            (np.column_stack([np.ones(4), np.arange(4.0), np.arange(4.0) ** 2,
                              np.arange(4.0) ** 3]), RankDeficientError),
        ]
        for X, error in cases:
            labels = tuple(f"c{j}" for j in range(X.shape[1]))
            with pytest.raises(error), warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                fit_design(X, y, family, labels)
            with pytest.raises(error):
                _scores([(X, y)], family)


def _former_binomial_fit(X, y):
    """The former IRLS: every step, the first included, factorises the
    weighted design through `_former_wls`. Returns (beta, deviance, iterations)."""
    kept = _householder(X)[0]
    mu = np.clip((y + 0.5) / 2.0, _MU_EPS, 1.0 - _MU_EPS)
    eta = np.log(mu / (1.0 - mu))
    deviance = _binomial_deviance(y, mu)
    for iterations in range(1, MAX_ITER + 1):
        w = np.maximum(mu * (1.0 - mu), _MU_EPS)
        beta, _ = _former_wls(X, eta + (y - mu) / w, w, kept)
        eta = X[:, kept] @ beta
        mu = np.clip(_expit(eta), _MU_EPS, 1.0 - _MU_EPS)
        new_deviance = _binomial_deviance(y, mu)
        if abs(new_deviance - deviance) <= DEVIANCE_RTOL * (abs(new_deviance) + 0.1):
            return beta, new_deviance, iterations
        deviance = new_deviance
    return beta, deviance, MAX_ITER


class TestFirstIrlsStepReusesRankCheckQr:
    """On a 0/1 outcome the first IRLS step solves on the rank-check QR; the
    fit must agree with the former weighted first step."""

    def test_agrees_with_weighted_first_step(self):
        rng = np.random.default_rng(197)
        for X, eta in list(_designs_for_scoring()) * 4:
            y = (rng.random(len(eta)) < _expit(2.0 * eta)).astype(float)
            labels = tuple(f"c{j}" for j in range(X.shape[1]))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                res = fit_design(X, y, Family.BINOMIAL, labels)
            beta, deviance, iterations = _former_binomial_fit(X, y)
            assert res.iterations == iterations
            assert res.deviance == pytest.approx(deviance, rel=1e-12)
            kept = [j for j, label in enumerate(labels) if label not in res.dropped_columns]
            np.testing.assert_allclose(res.coefficients[kept], beta, rtol=1e-9)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _former_householder(A, tol=PIVOT_TOL):
    """The former `_householder`: it gathered the kept columns and their
    scales by fancy indexing even when every column was kept."""
    n = A.shape[0]
    A = np.asfortranarray(A)
    peak = np.abs(A).max(axis=0)
    scale = np.ldexp(0.5, np.frexp(peak)[1])
    candidates = peak.nonzero()[0]
    while True:
        kept = candidates[:n]
        As = A[:, kept] / scale[kept]
        norms = np.sqrt(np.einsum("ij,ij->j", As, As))
        qr, tau, _, _ = dgeqrf(As, overwrite_a=True)
        aliased = (np.abs(qr.diagonal()) <= tol * norms).nonzero()[0]
        if not aliased.size:
            return kept.tolist(), qr, tau, scale[kept]
        candidates = np.delete(candidates, aliased[0])


class TestHouseholderFullRankPath:
    """A design that keeps every column is divided by its scales directly,
    without the gathered copy; LAPACK receives the same values, so every
    output equals the former gather bit for bit."""

    def test_equals_former_gather(self):
        rng = np.random.default_rng(211)
        designs = [X for _, X in TestHouseholderMatchesMgs._designs()]
        for n, p in ((12, 1), (60, 4), (300, 10)):
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1)) * 1e3])
            designs += [X, np.asfortranarray(X), X[::2], 1e-200 * X]
        for X in designs:
            new, old = _householder(X), _former_householder(X)
            assert new[0] == old[0]
            for a, b in zip(new[1:], old[1:]):
                np.testing.assert_array_equal(_bits(a), _bits(b))


_LOCKSTEP_KINDS = ("plain", "aliased", "separated", "lost")


def _lockstep_fit(rng, n, k, kind):
    """(X, y) of a binomial fit on n rows with an intercept and k - 1 more
    columns. `aliased` appends a combination of two columns; `separated`
    gives an outcome that x nearly separates; `lost` adds, to such an
    outcome, a column that differs from x only in the rows x < 0, whose
    working weights the separation drives to ~1e-10, so that the weighted
    design may lose rank. The positive outcomes are drawn from the rows
    x > 0, or are the row of the largest x when there is none."""
    x = rng.standard_normal(n)
    cols = [np.ones(n), x][:k] + [rng.standard_normal(n) * rng.uniform(0.1, 10.0)
                                  for _ in range(k - 2)]
    if kind == "plain" or kind == "aliased":
        eta = sum(c * rng.uniform(-1.0, 1.0) for c in cols)
        y = (rng.random(n) < _expit(eta)).astype(float)
    else:
        y = np.zeros(n)
        positive = (x > 0).nonzero()[0] if (x > 0).any() else [np.argmax(x)]
        y[rng.choice(positive, size=max(1, len(positive) // 3), replace=False)] = 1.0
    if kind == "aliased":
        cols.append(2.0 * cols[-1] - 0.5 * cols[0])
    if kind == "lost":
        cols += [x, x + 10.0 ** rng.uniform(-9.0, -7.0) * (x < 0)]
    return np.column_stack(cols), y


def _assert_equals_former(fits, results, max_iter=MAX_ITER):
    """Each lock-step result equals the former one-fit loop bit for bit."""
    for (X, y, factors), result in zip(fits, results):
        try:
            expected = _former_irls(X, y, factors[0], factors[1:], max_iter)
        except ModelBuildError as exc:
            assert type(result) is type(exc) and str(result) == str(exc)
            continue
        assert not isinstance(result, Exception), result
        beta, R, deviance, converged, iterations = result
        np.testing.assert_array_equal(_bits(beta), _bits(expected[0]))
        np.testing.assert_array_equal(_bits(R), _bits(expected[1]))
        assert deviance.hex() == expected[2].hex()
        assert (converged, iterations) == expected[3:]


class TestLockStepIrls:
    """`_irls` advances a batch of independent binomial fits together; every
    fit's coefficients, deviance, convergence, iterations and R, or the
    error it raises, equal those of the former one-fit loop bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           groups=st.lists(st.tuples(st.integers(8, 60), st.integers(1, 5),
                                     st.lists(st.sampled_from(_LOCKSTEP_KINDS), min_size=1,
                                              max_size=20)),
                           min_size=1, max_size=3),
           max_iter=st.sampled_from([1, 2, 4, MAX_ITER]))
    @example(seed=40145, groups=[(58, 3, ["plain"]),  # an 8-row draw with no x > 0
                                 (8, 3, ["plain", "separated", "lost", "lost", "separated"])],
             max_iter=1)
    def test_every_fit_equals_the_former_loop(self, seed, groups, max_iter):
        rng = np.random.default_rng(seed)
        fits = []
        for n, k, kinds in groups:
            for kind in kinds:
                X, y = _lockstep_fit(rng, n, k, kind)
                factors = _householder(X)
                if factors[0] and n > len(factors[0]):
                    fits.append((X, y, factors))
        _assert_equals_former(fits, glm._irls(fits, max_iter), max_iter)

    def test_a_fit_that_loses_rank_leaves_the_batch(self):
        x = np.linspace(-1.0, 1.0, 11)
        X = np.column_stack([np.ones(11), x, x + 1e-8 * (x < 0)])
        lost = np.zeros(11)
        lost[[6, 10]] = 1.0
        rng = np.random.default_rng(227)
        fits = [(X, y, _householder(X)) for y in
                [(rng.random(11) < 0.5).astype(float), lost, (rng.random(11) < 0.5).astype(float)]]
        results = glm._irls(fits)
        assert isinstance(results[1], RankDeficientError)
        _assert_equals_former(fits, results)

    def test_layout_rule(self):
        # The leave-one-out fits of one design, as shrinkage runs them. Each
        # fit's X @ beta must come from the F-ordered X[:, kept], as in the
        # former loop: for these fits a C-ordered copy of X[:, kept] gives a
        # product that differs in the last bit, so a batch stored C-ordered
        # would change the coefficients.
        rng = np.random.default_rng(229)
        n = 120
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 4))])
        y = (rng.random(n) < _expit(X @ [0.2, 1.0, -0.5, 0.3, 0.0])).astype(float)
        fits = []
        for i in range(n):
            rows = np.delete(np.arange(n), i)
            fits.append((X[rows], y[rows], _householder(X[rows])))
        results = glm._irls(fits)
        _assert_equals_former(fits, results)
        differs = [not np.array_equal(np.ascontiguousarray(A) @ beta, A @ beta)
                   for A, (beta, *_) in zip((Xf[:, f[0]] for Xf, _, f in fits), results)]
        assert sum(differs) > n // 2


def _first_attempts(monkeypatch, run):
    """The depth of each `_scaled_qrs` call `run` makes before its first
    `_irls` call (a 2-D call counting 1), and what `run` returns."""
    calls = []
    scaled_qrs, irls = glm._scaled_qrs, glm._irls
    monkeypatch.setattr(glm, "_scaled_qrs", lambda At, peak: calls.append(
        1 if At.ndim == 2 else len(At)) or scaled_qrs(At, peak))
    monkeypatch.setattr(glm, "_irls", lambda *args: calls.append("irls") or irls(*args))
    result = run()
    monkeypatch.undo()
    return calls[:calls.index("irls")] if "irls" in calls else calls, result


class TestStackedFactorisations:
    """Designs of one shape share one `_scaled_qrs` call for their first
    attempt, and an aliased one goes on from it: designs factorised = fits +
    retries, none factorised twice."""

    @staticmethod
    def _folds(aliased):
        """The first 16 leave-one-out designs of (1, x, s); when `aliased`, s
        is x but in row 0, so that fold 0's design is aliased."""
        rng = np.random.default_rng(281)
        n = 40
        x = rng.standard_normal(n)
        s = x.copy() if aliased else x + 0.5 * rng.standard_normal(n)
        s[0] += 1.0
        X = np.column_stack([np.ones(n), x, s])
        y = (rng.random(n) < _expit(x)).astype(float)
        return [(np.delete(X, i, axis=0), np.delete(y, i)) for i in range(glm._LOCKSTEP_FITS)]

    @pytest.mark.parametrize("aliased", [False, True], ids=["full-rank", "aliased"])
    def test_a_chunk_of_folds_is_one_stacked_call(self, monkeypatch, aliased):
        designs = self._folds(aliased)
        assert len({X.shape for X, _ in designs}) == 1 and len(designs) == glm._LOCKSTEP_FITS
        attempts, scores = _first_attempts(monkeypatch, lambda: _scores(designs, Family.BINOMIAL))
        assert [score.model_df for score in scores].count(2) == aliased
        assert attempts == [glm._LOCKSTEP_FITS] + [1] * aliased  # fits + retries
        labels = ("c0", "c1", "c2")
        for (X, y), score in zip(designs, scores):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                res = fit_design(X, y, Family.BINOMIAL, labels)
            assert score.deviance == res.deviance
            assert score.coefficients.tobytes() == res.coefficients.tobytes()

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_steps_factorise_an_aliased_model_once(self, monkeypatch, family):
        rng = np.random.default_rng(283)
        n = 80
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        eta = 0.5 * a - 0.4 * b
        y = eta + rng.standard_normal(n) if family is Family.GAUSSIAN else (
            rng.random(n) < _expit(eta)).astype(float)
        ds = make_dataset({"a": a, "b": b, "c": 2.0 * a, "y": y}, family=family)
        terms = [Term.linear(v) for v in "abc"]
        models = [(Design(ds, ModelSpec(tuple(terms))), ModelSpec(tuple(pair)))
                  for pair in ((terms[0], terms[1]), (terms[0], terms[2]))]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            attempts, steps = _first_attempts(monkeypatch, lambda: Design.steps(models))
        assert attempts == [2, 1]  # one stack of both, then the aliased one's retry
        assert [str(w.message) for w in record] == ["dropping aliased design columns: c"]
        assert [step.model_df for step in steps] == [3, 2]
        for (design, spec), step in zip(models, steps):
            assert design._records[design.columns(spec.terms)] is step


class TestBinomialOutcomeGuard:
    """A binomial outcome that is not all 0 or 1 is a DomainError at both entry
    points, which the one-log deviance relies on."""

    def test_fit_design_and_score_designs_reject_it(self):
        rng = np.random.default_rng(287)
        n = 30
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        good = (rng.random(n) < 0.5).astype(float)
        for y in (np.where(good == 1.0, 0.7, 0.0), np.where(good == 1.0, 2.0, 0.0)):
            with pytest.raises(DomainError, match="only 0 and 1"):
                fit_design(X, y, Family.BINOMIAL, ("c0", "c1"))
            scored = list(score_designs([(X, good, None), (X, y, None), (X, good, None)],
                                        Family.BINOMIAL))
            assert isinstance(scored[1], DomainError)
            assert scored[0].deviance == scored[2].deviance == fit_design(
                X, good, Family.BINOMIAL, ("c0", "c1")).deviance
        fit_design(X, rng.standard_normal(n), Family.GAUSSIAN, ("c0", "c1"))

    def test_one_log_deviance_equals_the_two_log_sum(self):
        rng = np.random.default_rng(289)
        for _ in range(50):
            y = (rng.random((16, 199)) < 0.5).astype(float)
            mu = np.clip(rng.random((16, 199)) ** rng.uniform(0.1, 10.0), _MU_EPS, 1.0 - _MU_EPS)
            mu[:, :3] = [_MU_EPS, 1.0 - _MU_EPS, 0.5]
            two_log = -2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu), axis=-1)
            assert _binomial_deviance(y, mu).tobytes() == two_log.tobytes()


class TestDevianceFunctions:
    """The FitResult test is a thin wrapper of the deviance form."""

    def test_wrappers_equal_deviance_forms(self):
        rng = np.random.default_rng(199)
        n = 90
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        eta = 0.4 * x1 + 0.1 * x2
        for family, y in ((Family.GAUSSIAN, eta + rng.standard_normal(n)),
                          (Family.BINOMIAL, (rng.random(n) < _expit(eta)).astype(float))):
            ds = make_dataset({"x1": x1, "x2": x2, "y": y}, family=family)
            full = fit(ds, ModelSpec((Term.linear("x1"), Term.linear("x2"))))
            red = fit(ds, ModelSpec((Term.linear("x1"),)))
            assert deviance_test(red, full, 1) == deviance_p_value(
                family, n, red.deviance, full.deviance, 1)

    def test_wrappers_check_nesting(self):
        a = TestDevianceTest()._fake(10.0, n=100)
        with pytest.raises(NotNestedError, match="numbers of observations"):
            deviance_test(a, TestDevianceTest()._fake(9.0, n=99), 1)
        with pytest.raises(NotNestedError, match="families"):
            deviance_test(a, TestDevianceTest()._fake(9.0, family=Family.GAUSSIAN), 1)


def _blocks_dataset(seed, n=200, family=Family.GAUSSIAN):
    rng = np.random.default_rng(seed)
    x, z, g = rng.standard_normal(n), rng.lognormal(size=n), rng.uniform(0.0, 3.0, n)
    eta = 0.4 * x + 0.3 * np.log(z) + 0.3 * (g > 2.0)
    y = (eta + rng.standard_normal(n) if family is Family.GAUSSIAN
         else (rng.random(n) < _expit(eta)).astype(float))
    ds = make_dataset({"x": x, "w": rng.standard_normal(n), "z": z, "g": g, "y": y},
                      family=family)
    terms = (Term.linear("x"), Term.fp("z", (-0.5, 1.0)), Term.linear("w"),
             Term.categorical("g", (1.0, 2.0)))
    return ds, ModelSpec(terms)


class TestDesign:
    """`Design.fit` reuses the held record of a scored subset, and
    `Design.removal_bounds` brackets the exact deviance of every removal from
    a model's step record (`Design.steps`)."""

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL])
    def test_fit_of_the_last_scored_model_factorises_once(self, family, monkeypatch):
        ds, spec = _blocks_dataset(601, family=family)
        expected = fit(ds, spec)
        calls = []
        factorise = glm._factorise
        monkeypatch.setattr(glm, "_factorise", lambda *a: calls.append(1) or factorise(*a))
        design = Design(ds, spec)
        design.scores([spec.terms])
        result = design.fit(spec)
        assert len(calls) == 1
        for field in ("deviance", "log_likelihood", "model_df", "converged", "iterations",
                      "column_labels", "spec", "dropped_columns"):
            assert getattr(result, field) == getattr(expected, field), field
        np.testing.assert_array_equal(result.coefficients, expected.coefficients)
        np.testing.assert_array_equal(result.covariance, expected.covariance)
        design.scores([spec.terms[1:]])
        design.fit(spec)  # another subset was scored last: its record is held
        assert len(calls) == 2

    def test_scores_raise_the_first_failing_models_error(self):
        rng = np.random.default_rng(602)
        ds = make_dataset({**{f"x{j}": rng.standard_normal(4) for j in range(4)},
                           "y": rng.standard_normal(4)})
        terms = tuple(Term.linear(f"x{j}") for j in range(4))
        design = Design(ds, ModelSpec(terms, intercept=False))
        assert design.scores([terms[:1]])[0][1] == 1
        with pytest.raises(RankDeficientError, match="cannot identify"):
            design.scores([terms[:1], terms, ()])
        with pytest.raises(DomainError, match="no design columns"):
            design.scores([terms[:1], (), terms])

    def test_removal_bounds_contain_the_exact_p_values(self):
        for seed in (603, 604, 605):
            ds, spec = _blocks_dataset(seed)
            design = Design(ds, spec)
            current = Design.steps([(design, spec)])[0]
            bounds, df = Design.removal_bounds([(design, spec, current)])
            assert bounds.shape == (len(spec.terms), 2) and not np.isnan(bounds).any()
            assert df.tolist() == [len(design.term_columns[term]) for term in spec.terms]
            full = (current.deviance, current.model_df)
            tails = p_value_bounds(ds.n, bounds, np.array([[current.deviance]]), df)
            for term, (low, high), (p_low, p_high) in zip(spec.terms, bounds, tails):
                reduced = design.scores([[t for t in spec.terms if t is not term]])[0]
                assert low <= reduced[0] <= high
                assert current.deviance <= low < high <= low * (1.0 + 3.0 * glm.SCREEN_RTOL)
                exact, _ = design.p_value(reduced, full)
                assert p_low <= exact <= p_high
                assert p_low < p_high <= p_low + 0.01

    def test_no_bounds_where_they_are_not_guaranteed(self):
        rng = np.random.default_rng(607)
        n = 100
        x, w = rng.standard_normal(n), rng.standard_normal(n)
        noisy = x + rng.standard_normal(n)
        cases = [
            (_blocks_dataset(608, family=Family.BINOMIAL)[0], ("x", "w")),  # binomial
            (make_dataset({"x": x, "w": 2.0 * x, "y": noisy}), ("x", "w")),  # aliased
            (make_dataset({"x": x, "w": x + 1e-7 * w, "y": noisy}), ("x", "w")),  # ill-conditioned
            (make_dataset({"x": x, "w": w, "y": 1e7 + noisy}), ("x", "w")),  # tiny residual
            (make_dataset({"x": x, "w": w, "y": 1.0 + 2.0 * x}), ("x", "w")),  # exact fit
        ]
        for ds, names in cases:
            spec = ModelSpec(tuple(Term.linear(v) for v in names))
            design = Design(ds, spec)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                current = Design.steps([(design, spec)])[0]
            assert np.isnan(Design.removal_bounds([(design, spec, current)])[0]).all()
        # Dropping the only term of an intercept-free model leaves no column.
        ds = make_dataset({"x": x, "y": noisy})
        spec = ModelSpec((Term.linear("x"),), intercept=False)
        design = Design(ds, spec)
        bounds, _ = Design.removal_bounds([(design, spec, Design.steps([(design, spec)])[0])])
        assert bounds.shape == (1, 2) and np.isnan(bounds).all()


class TestRecordMemo:
    """A `Design` holds the `Fit` record of each column subset it scores:
    `Design.fit` of a held subset builds its FitResult from the record, with
    no factorisation, solve or IRLS, byte for byte that of fitting the
    columns from scratch, and `batch_scores` returns the held record."""

    WORK = ("_solve", "_irls", "_scaled_qrs", "_householder")

    @staticmethod
    def _case(family, aliased):
        ds, spec = _blocks_dataset(641, family=family)
        if aliased:  # a column the fit drops
            columns = {name: ds.column(name) for name in ds.column_names}
            ds = make_dataset({**columns, "a": 2.0 * columns["x"]}, family=family)
            spec = spec.with_term(Term.linear("a"))
        return ds, spec

    @pytest.mark.parametrize("family, aliased", [(Family.GAUSSIAN, False),
                                                 (Family.BINOMIAL, False),
                                                 (Family.GAUSSIAN, True)],
                             ids=["gaussian", "binomial", "aliased"])
    def test_fit_of_a_scored_model_reads_its_record(self, family, aliased, monkeypatch):
        ds, spec = self._case(family, aliased)
        design = Design(ds, spec)
        cols = design.columns(spec.terms)
        held, = design.scores([spec.terms])
        work = []
        for name in self.WORK:
            real = getattr(glm, name)
            monkeypatch.setattr(glm, name, lambda *args, name=name, real=real, **kwargs:
                                work.append(name) or real(*args, **kwargs))
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            result = design.fit(spec)
            again = Design.batch_scores([(design, cols)])
        monkeypatch.undo()
        assert work == []
        assert again[0] is held
        assert [str(w.message) for w in record] == (
            ["dropping aliased design columns: a"] if aliased else [])
        X, labels, _ = design_matrix(ds, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            expected = fit_design(X, ds.outcome, family, labels, spec=spec)
        assert result.coefficients.tobytes() == expected.coefficients.tobytes()
        assert result.covariance.tobytes() == expected.covariance.tobytes()
        assert result.deviance.hex() == expected.deviance.hex()
        assert result.log_likelihood.hex() == expected.log_likelihood.hex()
        for field in ("iterations", "converged", "separation", "dropped_columns", "model_df",
                      "n", "family", "column_labels", "spec"):
            assert getattr(result, field) == getattr(expected, field), field
        assert result.dropped_columns == (("a",) if aliased else ())


class TestPValueBounds:
    """`p_value_bounds` turns deviance bounds into bounds on the exact
    Gaussian `deviance_p_value`, for removals (reduced: a bound, full: dev)
    and additions (reduced: dev, full: a bound) of different n in one pass,
    and gives none (NaN) where the full model has no bound or where the
    statistic may fall below -NESTED_TOL."""

    def test_bounds_contain_the_exact_p_values(self):
        rng = np.random.default_rng(631)
        rows, exact = [], []
        for i in range(600):
            n, df = int(rng.integers(10, 2000)), int(rng.integers(1, 5))
            dev = float(10.0 ** rng.uniform(-3.0, 3.0))
            other = dev * math.exp((1 if i % 2 else -1) * 10.0 ** rng.uniform(-10.0, 1.5) / n)
            width = 10.0 ** rng.uniform(-9.0, -3.0)
            bound = (other * (1.0 - width * rng.uniform(0.1, 1.0)),
                     other * (1.0 + width * rng.uniform(0.1, 1.0)))
            if i % 2:  # a removal: `other` is the reduced model's deviance
                rows.append((n, bound, (dev, dev), df))
                exact.append(deviance_p_value(Family.GAUSSIAN, n, other, dev, df))
            else:  # an addition: `other` is the full model's deviance
                rows.append((n, (dev, dev), None if i % 10 == 0 else bound, df))
                exact.append(deviance_p_value(Family.GAUSSIAN, n, dev, other, df))
        n, reduced, full, df = zip(*rows)
        tails = p_value_bounds(np.array(n), np.array(reduced),
                               np.array([b or (math.nan, math.nan) for b in full]), np.array(df))
        assert tails.shape == (len(rows), 2)
        for (n, reduced, full, _), p, tail in zip(rows, exact, tails.tolist()):
            if full is None or n * math.log(reduced[0] / full[1]) < -glm.NESTED_TOL:
                assert np.isnan(tail).all()
            else:
                assert tail[0] <= p <= tail[1]
        bounded = [tail for tail in tails.tolist() if not np.isnan(tail).any()]
        assert 100 < len(bounded) < 500 and sum(low < high for low, high in bounded) > 100
        assert p_value_bounds(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 2)),
                              np.zeros(0)).shape == (0, 2)


class TestAdditionBounds:
    """`Design.addition_bounds` brackets the exact deviance of every addition
    it bounds, and bounds none where the bound is not guaranteed."""

    @staticmethod
    def _bounds(ds, base, candidates):
        design = Design(ds, ModelSpec(base), candidates)
        blocks = [design.term_columns[term] for term in candidates]
        return design, design.addition_bounds(base, blocks)

    def test_bounds_contain_the_exact_deviances(self):
        for seed in (611, 612, 613):
            ds, spec = _blocks_dataset(seed)
            for split in (0, 1, 2):
                base, candidates = spec.terms[:split], spec.terms[split:]
                design, bounds = self._bounds(ds, base, candidates)
                assert len(bounds) == len(candidates)
                for term, bound in zip(candidates, bounds):
                    exact, = design.scores([base + (term,)])
                    low, high = bound
                    assert low <= exact.deviance <= high
                    assert high <= low * (1.0 + 3.0 * glm.SCREEN_RTOL)
                    assert exact.model_df == 1 + sum(len(t.labels()) for t in base + (term,))

    def test_no_bounds_where_they_are_not_guaranteed(self):
        rng = np.random.default_rng(617)
        n = 100
        x, w = rng.standard_normal(n), rng.standard_normal(n)
        cols = {"x": x, "w": w, "x2": 2.0 * x, "near": x + 1e-7 * w, "y": x + rng.standard_normal(n)}
        ds = make_dataset(cols)
        x_, w_, x2_, near_ = (Term.linear(v) for v in ("x", "w", "x2", "near"))
        # Binomial, an aliased base and a base without columns: no block.
        binomial = _blocks_dataset(619, family=Family.BINOMIAL)[0]
        assert self._bounds(binomial, (Term.linear("x"),), (Term.linear("w"),))[1] == [None]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert self._bounds(ds, (x_, x2_), (w_,))[1] == [None]
        design = Design(ds, ModelSpec((), intercept=False), (w_,))
        assert design.addition_bounds((), [design.term_columns[w_]]) == [None]
        # An aliased or ill-conditioned candidate has none; the others keep theirs.
        _, bounds = self._bounds(ds, (x_,), (x2_, near_, w_))
        assert bounds[0] is None and bounds[1] is None and bounds[2] is not None
        # A candidate that leaves no residual degree of freedom has none.
        small = make_dataset({k: v[:3] for k, v in cols.items()})
        assert self._bounds(small, (x_,), (w_,))[1] == [None]

    @pytest.mark.parametrize("case", ["second order", "coefficients"])
    def test_the_deviance_guard(self, case):
        # A base pair a, b = a + delta v, nearly aliased, fails the residual's
        # condition for the candidate c, and with delta = 1e-8 for an unrelated
        # g too, which keeps a bound from the deviance's own condition. c has
        # none: in the first case (u kappa)^2 ~ 1e-5 rules it out (u c1 ~ 5e-16,
        # its block 1e-5 from aliasing); in the second u c1 ~ 2.5e-7, from the
        # coefficients of a and b that fitting c implies (||y|| / ||r|| and the
        # base's own fit give less than 1e-9).
        rng = np.random.default_rng(641)
        n = 100
        a, v, w, g = rng.standard_normal((4, n))
        if case == "second order":
            cols = {"a": a, "b": a + 1e-8 * v, "c": a + 1e-5 * w}
            basis = np.column_stack([np.ones(n), a, v, w])
            e = rng.standard_normal(n)
            y = 2.0 * a + e - basis @ np.linalg.lstsq(basis, e, rcond=None)[0]
        else:
            cols = {"a": a, "b": a + 1e-3 * v, "c": v + 1e-2 * w}
            y = w + 1e-4 * rng.standard_normal(n)
        ds = make_dataset({**cols, "g": g, "y": y})
        base = (Term.linear("a"), Term.linear("b"))
        candidates = (Term.linear("c"), Term.linear("g"))
        design, bounds = self._bounds(ds, base, candidates)
        assert bounds[0] is None
        exact, = design.scores([base + (candidates[1],)])
        assert bounds[1][0] <= exact.deviance <= bounds[1][1]
        with pytest.MonkeyPatch.context() as m:  # the residual's condition alone
            m.setattr(glm, "_deviance_conditioned", lambda R, *_: np.zeros(len(R), bool))
            first = self._bounds(ds, base, candidates)[1]
        assert first[0] is None and (first[1] is None) == (case == "second order")


class TestModelSpecLabels:
    def test_duplicate_column_labels_are_rejected(self):
        # Two dummy blocks of one variable used to share the label g[g1], and
        # `FitResult.coefficient` and shrinkage read only the first column.
        with pytest.raises(DomainError, match=r"g\[g1\]"):
            ModelSpec((Term.categorical("g", (1.0,)), Term.categorical("g", (2.0,))))
        with pytest.raises(DomainError, match="duplicate"):
            ModelSpec((Term.linear("a"), Term.linear("a")))
        with pytest.raises(DomainError, match=r"\(intercept\)"):
            ModelSpec((Term.linear("(intercept)"),))
        ModelSpec((Term.linear("(intercept)"),), intercept=False)
        ModelSpec((Term.categorical("g", (1.0,)), Term.linear("g")))

    def test_a_design_pools_forms_whose_labels_repeat(self):
        # A search's candidates may be alternative forms of one variable; its
        # design holds them all, and a model of any one of them fits as usual.
        rng = np.random.default_rng(611)
        n = 120
        x, g = rng.uniform(0.5, 3.0, n), rng.uniform(0.0, 3.0, n)
        ds = make_dataset({"x": x, "g": g, "y": np.log(x) + (g > 2.0) + rng.standard_normal(n)})
        forms = (Term.fp("x", 1), Term.fp("x", (1, 2)),
                 Term.categorical("g", (1.0,)), Term.categorical("g", (2.0,)))
        design = Design(ds, ModelSpec(), forms)
        assert design.labels.count("x^(1)") == 2 and design.labels.count("g[g1]") == 2
        for term in forms:
            spec = ModelSpec((term,))
            result, expected = design.fit(spec), fit(ds, spec)
            assert result.column_labels == expected.column_labels
            np.testing.assert_array_equal(result.coefficients, expected.coefficients)


class TestTermHash:
    def test_hash_is_cached_and_not_pickled(self):
        import pickle

        term = Term.fp("x", (1, 2))
        assert hash(term) == hash(("x", term.transform)) == hash(Term.fp("x", (1, 2)))
        assert "_hash" in vars(term)
        copy = pickle.loads(pickle.dumps(term))
        assert copy == term and "_hash" not in vars(copy) and hash(copy) == hash(term)
