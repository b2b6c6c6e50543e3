"""Shrinkage factors: calibration identities, overfitting detection, grouping."""

import warnings

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, DomainError, Family, FoldFitFailureError, KFold,
                      LeaveOneOut, ModelSpec, OrdinalScores, PreTransform,
                      RankDeficientError, Term, backward_eliminate, default_cv_scheme,
                      design_matrix, fit, global_shrinkage, joint_shrinkage,
                      parameterwise_shrinkage)
from fpselect import glm
from fpselect.errors import CollinearComponentsError, ModelBuildError
from fpselect.glm import _expit, fit_design
from fpselect.shrinkage import _calibrate, _out_of_fold_components


def make_dataset(cols):
    return Dataset.from_columns(cols, outcome="y")


class TestGlobal:
    def test_noiseless_data_calibrates_to_one(self):
        x = np.linspace(-3.0, 3.0, 40)
        ds = make_dataset({"x": x, "y": 1.0 + 2.0 * x})
        factors = global_shrinkage(ds, ModelSpec((Term.linear("x"),)), LeaveOneOut())
        assert factors.factors["global"] == pytest.approx(1.0, abs=1e-6)

    def test_strong_predictor_near_one(self):
        rng = np.random.default_rng(461)
        n = 1000
        x = rng.standard_normal(n)
        ds = make_dataset({"x": x, "y": 3.0 * x + rng.standard_normal(n)})
        factors = global_shrinkage(ds, ModelSpec((Term.linear("x"),)), KFold(10, 0))
        assert factors.factors["global"] == pytest.approx(1.0, abs=0.05)

    def test_noise_selection_shrinks_below_one(self):
        rng = np.random.default_rng(463)
        reps, collected = 150, []
        for _ in range(reps):
            n = 100
            cols = {f"x{j}": rng.standard_normal(n) for j in range(5)}
            cols["y"] = rng.standard_normal(n)
            ds = make_dataset(cols)
            trace = backward_eliminate(
                ds, ModelSpec(tuple(Term.linear(f"x{j}") for j in range(5))),
                Criterion.p_value(0.05))
            if not trace.final_spec.terms:
                continue
            factors = global_shrinkage(ds, trace.final_spec, LeaveOneOut())
            collected.append(factors.factors["global"])
        assert len(collected) > 20
        assert np.mean(collected) < 0.9

    def test_deterministic_given_seeded_scheme(self):
        rng = np.random.default_rng(467)
        n = 300
        cols = {"a": rng.standard_normal(n), "b": rng.standard_normal(n)}
        cols["y"] = cols["a"] + 0.5 * cols["b"] + rng.standard_normal(n)
        ds = make_dataset(cols)
        spec = ModelSpec((Term.linear("a"), Term.linear("b")))
        f1 = global_shrinkage(ds, spec, KFold(10, 42))
        f2 = global_shrinkage(ds, spec, KFold(10, 42))
        assert f1.factors == f2.factors

    def test_default_scheme_cutover(self):
        assert isinstance(default_cv_scheme(200), LeaveOneOut)
        assert isinstance(default_cv_scheme(201), KFold)


class TestParameterwise:
    def test_single_term_equals_global(self):
        rng = np.random.default_rng(479)
        n = 120
        x = rng.standard_normal(n)
        ds = make_dataset({"x": x, "y": 0.8 * x + rng.standard_normal(n)})
        spec = ModelSpec((Term.linear("x"),))
        g = global_shrinkage(ds, spec, LeaveOneOut())
        p = parameterwise_shrinkage(ds, spec, LeaveOneOut())
        assert p.factors["x"] == pytest.approx(g.factors["global"], abs=1e-8)

    def test_weak_term_shrinks_more_than_strong(self):
        rng = np.random.default_rng(487)
        diffs = []
        for _ in range(100):
            n = 150
            xs = rng.standard_normal(n)
            xw = rng.standard_normal(n)
            y = 1.5 * xs + 0.15 * xw + rng.standard_normal(n)
            ds = make_dataset({"xs": xs, "xw": xw, "y": y})
            f = parameterwise_shrinkage(
                ds, ModelSpec((Term.linear("xs"), Term.linear("xw"))), KFold(10, 7))
            diffs.append(f.factors["xs"] - f.factors["xw"])
        assert np.mean(diffs) > 0.05

    def test_orthogonal_strong_terms_near_one(self):
        rng = np.random.default_rng(491)
        n = 900
        q = np.linalg.qr(rng.standard_normal((n, 2)))[0] * np.sqrt(n)
        y = 2.0 * q[:, 0] + 2.0 * q[:, 1] + rng.standard_normal(n)
        ds = make_dataset({"a": q[:, 0], "b": q[:, 1], "y": y})
        f = parameterwise_shrinkage(ds, ModelSpec((Term.linear("a"), Term.linear("b"))),
                                    KFold(10, 3))
        assert f.factors["a"] == pytest.approx(1.0, abs=0.06)
        assert f.factors["b"] == pytest.approx(1.0, abs=0.06)

    def test_collinear_components_detected(self):
        rng = np.random.default_rng(499)
        n = 80
        x = rng.standard_normal(n)
        ds = make_dataset({"a": x, "b": 2.0 * x, "y": x + rng.standard_normal(n)})
        spec = ModelSpec((Term.linear("a"), Term.linear("b")))
        with pytest.warns(UserWarning, match="aliased"):
            with pytest.raises(CollinearComponentsError):
                parameterwise_shrinkage(ds, spec, LeaveOneOut())


class TestJoint:
    def _fp2_dataset(self):
        rng = np.random.default_rng(503)
        n = 250
        x = rng.uniform(0.5, 4.0, n)
        z = rng.standard_normal(n)
        y = 1.0 / x + x + 0.5 * z + rng.normal(scale=0.4, size=n)
        ds = make_dataset({"x": x, "z": z, "y": y})
        spec = ModelSpec((Term.fp("x", (-1.0, 1.0)), Term.linear("z")))
        return ds, spec

    def test_singleton_groups_equal_parameterwise(self):
        rng = np.random.default_rng(509)
        n = 200
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        y = a + 0.3 * b + rng.standard_normal(n)
        ds = make_dataset({"a": a, "b": b, "y": y})
        spec = ModelSpec((Term.linear("a"), Term.linear("b")))
        j = joint_shrinkage(ds, spec, cv=KFold(10, 5))
        p = parameterwise_shrinkage(ds, spec, KFold(10, 5))
        assert j.factors["a"] == pytest.approx(p.factors["a"], abs=1e-10)
        assert j.factors["b"] == pytest.approx(p.factors["b"], abs=1e-10)

    def test_all_terms_one_group_equals_global(self):
        ds, spec = self._fp2_dataset()
        j = joint_shrinkage(ds, spec, groups=[list(spec.terms)], cv=KFold(10, 5))
        g = global_shrinkage(ds, spec, KFold(10, 5))
        (jf,) = j.factors.values()
        assert jf == pytest.approx(g.factors["global"], abs=1e-10)

    def test_fp_pair_shares_one_factor_scaling_the_curve(self):
        ds, spec = self._fp2_dataset()
        fitted = fit(ds, spec)
        j = joint_shrinkage(ds, spec, cv=KFold(10, 5))
        fp_term = spec.terms[0]
        labels = fp_term.labels()
        factor = j.factors["+".join(labels)]
        shrunk = j.apply(fitted, ds)
        for lab in labels:
            i = fitted.column_labels.index(lab)
            assert shrunk[i] == pytest.approx(factor * fitted.coefficients[i], rel=1e-12)

    def test_groups_must_partition(self):
        ds, spec = self._fp2_dataset()
        with pytest.raises(DomainError):
            joint_shrinkage(ds, spec, groups=[[spec.terms[0]]], cv=KFold(10, 5))


class TestShrunkenModel:
    def test_in_sample_deviance_not_better_than_ml(self):
        rng = np.random.default_rng(521)
        n = 150
        a, b = rng.standard_normal(n), rng.standard_normal(n)
        y = 0.6 * a + 0.2 * b + rng.standard_normal(n)
        ds = make_dataset({"a": a, "b": b, "y": y})
        spec = ModelSpec((Term.linear("a"), Term.linear("b")))
        fitted = fit(ds, spec)
        factors = parameterwise_shrinkage(ds, spec, LeaveOneOut())
        shrunk = factors.apply(fitted, ds)
        from fpselect.model import design_matrix
        X, _, _ = design_matrix(ds, spec)
        rss_shrunk = float(np.sum((ds.outcome - X @ shrunk) ** 2))
        assert rss_shrunk >= fitted.deviance - 1e-10

    def test_shrunken_slope_scaled_and_mean_preserved(self):
        rng = np.random.default_rng(523)
        n = 120
        x = rng.standard_normal(n) + 1.0
        y = 0.5 * x + rng.standard_normal(n)
        ds = make_dataset({"x": x, "y": y})
        spec = ModelSpec((Term.linear("x"),))
        fitted = fit(ds, spec)
        factors = global_shrinkage(ds, spec, LeaveOneOut())
        shrunk = factors.apply(fitted, ds)
        c = factors.factors["global"]
        i = fitted.column_labels.index("x")
        assert shrunk[i] == pytest.approx(c * fitted.coefficients[i], rel=1e-12)
        from fpselect.model import design_matrix
        X, _, _ = design_matrix(ds, spec)
        assert np.mean(X @ shrunk) == pytest.approx(np.mean(X @ fitted.coefficients), rel=1e-10)


class TestReselection:
    def test_reselection_inside_folds_shrinks_harder_on_noise(self):
        rng = np.random.default_rng(541)
        deltas = []
        for _ in range(80):
            n = 120
            cols = {f"x{j}": rng.standard_normal(n) for j in range(4)}
            cols["y"] = rng.standard_normal(n)
            ds = make_dataset(cols)
            start = ModelSpec(tuple(Term.linear(f"x{j}") for j in range(4)))
            trace = backward_eliminate(ds, start, Criterion.p_value(0.05))
            if not trace.final_spec.terms:
                continue

            def reselect(train, start=start):
                return backward_eliminate(train, start, Criterion.p_value(0.05)).final_spec

            naive = global_shrinkage(ds, trace.final_spec, KFold(10, 11))
            honest = global_shrinkage(ds, trace.final_spec, KFold(10, 11),
                                      reselect=reselect)
            deltas.append(naive.factors["global"] - honest.factors["global"])
        assert len(deltas) > 5
        assert np.mean(deltas) > 0.0


class TestRowSubsetRefits:
    """Each fold refits the training rows of the full design. Every transform
    acts row by row, so these rows equal the design of the training rows, and
    the out-of-fold components equal those of the former per-fold
    `fit(dataset.take_rows(train), spec)`."""

    @staticmethod
    def _problem(family, n=60, seed=241):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(size=n)
        s = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.5, 3.0, n))
        g = rng.uniform(0.0, 3.0, n)
        eta = 0.5 * np.log(x) + 0.4 * (s > 0) + 0.2 * g - 0.5
        if family is Family.GAUSSIAN:
            y = eta + rng.standard_normal(n)
        else:
            y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        ds = Dataset.from_columns({"x": x, "s": s, "g": g, "y": y}, outcome="y",
                                  family=family)
        spec = ModelSpec((
            Term.linear("g"),
            Term.fp("x", (-0.5, 1.0), PreTransform(0.0, 2.0)),
            Term.fp("s", (0.0,), PreTransform(1.0, 1.0), center_at=1.0),
            Term.indicator("s", 0.0),
            Term.categorical("g", (1.0, 2.0)),
            Term.categorical("x", (1.0,), OrdinalScores((0.0, 2.5))),
        ))
        return ds, spec

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL])
    def test_design_rows_equal_design_of_the_rows(self, family):
        ds, spec = self._problem(family)
        X_full, labels, _ = design_matrix(ds, spec)
        for train, _ in KFold(5, seed=3).folds(ds.n):
            X_train, train_labels, _ = design_matrix(ds.take_rows(train), spec)
            assert train_labels == labels
            np.testing.assert_array_equal(X_full[train], X_train)

    @pytest.mark.parametrize("cv", [LeaveOneOut(), KFold(5, seed=3)], ids=str)
    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL])
    def test_components_equal_former_per_fold_fits(self, family, cv):
        ds, spec = self._problem(family)
        X_full, labels, _ = design_matrix(ds, spec)
        keep = [j for j, label in enumerate(labels) if label != "(intercept)"]
        expected = np.zeros((ds.n, len(keep)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for train, test in cv.folds(ds.n):
                fold_fit = fit(ds.take_rows(train), spec)
                expected[test, :] = X_full[np.ix_(test, keep)] * fold_fit.coefficients[keep]
            C, component_labels = _out_of_fold_components(ds, spec, cv)
        np.testing.assert_array_equal(C, expected)
        assert component_labels == tuple(labels[j] for j in keep)

    def test_fold_failure_is_wrapped(self):
        # Four rows, three coefficients: a leave-one-out fold has three rows.
        ds = make_dataset({"a": [0.1, 0.9, 2.0, 3.1], "b": [1.0, -1.0, 0.5, 0.0],
                           "y": [0.3, 1.2, 0.4, 2.0]})
        with pytest.raises(FoldFitFailureError) as info:
            parameterwise_shrinkage(ds, ModelSpec((Term.linear("a"), Term.linear("b"))),
                                    LeaveOneOut())
        assert info.value.fold == 0
        assert isinstance(info.value.__cause__, RankDeficientError)
        # One row: the leave-one-out fold has no training rows at all.
        single = make_dataset({"a": [0.5], "y": [1.0]})
        with pytest.raises(FoldFitFailureError):
            parameterwise_shrinkage(single, ModelSpec((Term.linear("a"),)), LeaveOneOut())


# ---------------------------------------------------------------------------
# The three modes as one grouped calibration equal their former bodies
# ---------------------------------------------------------------------------

def former_global(dataset, spec, cv, reselect=None):
    if reselect is None:
        C, labels = _out_of_fold_components(dataset, spec, cv)
        eta = C.sum(axis=1)
        groups = {"global": labels}
    else:
        eta = np.zeros(dataset.n)
        for train, test in cv.folds(dataset.n):
            train_data = dataset.take_rows(train)
            fold_spec = reselect(train_data)
            fold_fit = fit(train_data, fold_spec)
            X_test, fold_labels, _ = design_matrix(dataset.take_rows(test), fold_spec)
            keep = [j for j, lab in enumerate(fold_labels) if lab != "(intercept)"]
            if keep:
                eta[test] = X_test[:, keep] @ fold_fit.coefficients[keep]
        _, labels, _ = design_matrix(dataset, spec)
        groups = {"global": tuple(lab for lab in labels if lab != "(intercept)")}
    return _calibrate(dataset, eta[:, None], ("global",), "global", groups, cv)


def former_parameterwise(dataset, spec, cv):
    C, labels = _out_of_fold_components(dataset, spec, cv)
    return _calibrate(dataset, C, labels, "parameterwise", {lab: (lab,) for lab in labels}, cv)


def former_joint(dataset, spec, cv, groups=None):
    term_groups = [[t] for t in spec.terms] if groups is None else [list(g) for g in groups]
    C, labels = _out_of_fold_components(dataset, spec, cv)
    group_names, group_cols = [], {}
    R = np.zeros((dataset.n, len(term_groups)))
    for gi, terms in enumerate(term_groups):
        cols = [labels.index(lab) for t in terms for lab in t.labels()]
        name = "+".join(lab for t in terms for lab in t.labels())
        group_names.append(name)
        group_cols[name] = tuple(labels[c] for c in cols)
        R[:, gi] = C[:, cols].sum(axis=1)
    return _calibrate(dataset, R, tuple(group_names), "joint", group_cols, cv)


def fp2_dummy_problem(family, n=120, seed=557):
    """An FP2 term, a straight line and a three-column dummy block."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.5, 4.0, n)
    z = rng.standard_normal(n)
    g = rng.uniform(0.0, 4.0, n)
    eta = 0.8 / x + 0.5 * x + 0.6 * z + 0.4 * np.floor(g) - 1.5
    if family is Family.GAUSSIAN:
        y = eta + rng.standard_normal(n)
    else:
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    ds = Dataset.from_columns({"x": x, "z": z, "g": g, "y": y}, outcome="y", family=family)
    spec = ModelSpec((Term.fp("x", (-1.0, 1.0)), Term.linear("z"),
                      Term.categorical("g", (1.0, 2.0, 3.0))))
    return ds, spec


PROBLEMS = {
    "fp2_dummy": fp2_dummy_problem,
    "every_transform": lambda family: TestRowSubsetRefits._problem(family),
}


class TestModesMatchFormerBodies:
    @pytest.mark.parametrize("cv", [LeaveOneOut(), KFold(10, seed=1), KFold(5, seed=3)], ids=str)
    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    def test_factors_and_shrunken_coefficients_bit_identical(self, problem, family, cv):
        ds, spec = PROBLEMS[problem](family)
        fitted = fit(ds, spec)
        pairs = [
            (global_shrinkage(ds, spec, cv), former_global(ds, spec, cv)),
            (parameterwise_shrinkage(ds, spec, cv), former_parameterwise(ds, spec, cv)),
            (joint_shrinkage(ds, spec, cv=cv), former_joint(ds, spec, cv)),
        ]
        for split in (1, 2):  # custom groups of fewer than eight columns
            groups = [list(spec.terms[:split]), list(spec.terms[split:])]
            pairs.append((joint_shrinkage(ds, spec, groups, cv),
                          former_joint(ds, spec, cv, groups)))
        for new, old in pairs:
            assert repr(new) == repr(old)
            np.testing.assert_array_equal(new.apply(fitted, ds), old.apply(fitted, ds))

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_group_of_eight_columns_sums_as_global(self, family):
        """numpy sums eight or more contiguous values pairwise. The global mode
        always did; the former joint body summed a group left to right, so a
        joint group of every column now equals the global factor exactly and
        the former joint factor to the last bits."""
        ds, spec = TestRowSubsetRefits._problem(family)
        assert len(design_matrix(ds, spec)[1]) == 9  # the intercept and eight columns
        cv = KFold(5, seed=3)
        joint = joint_shrinkage(ds, spec, [list(spec.terms)], cv)
        whole = global_shrinkage(ds, spec, cv)
        (factor,) = joint.factors.values()
        assert factor == whole.factors["global"]
        assert joint.calibration_intercept == whole.calibration_intercept
        (former,) = former_joint(ds, spec, cv, [list(spec.terms)]).factors.values()
        assert factor == pytest.approx(former, rel=1e-12)

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_reselection_bit_identical(self, family):
        ds, spec = fp2_dummy_problem(family)

        def reselect(train):
            return backward_eliminate(train, spec, Criterion.p_value(0.2)).final_spec

        cv = KFold(5, seed=3)
        new = global_shrinkage(ds, spec, cv, reselect=reselect)
        assert repr(new) == repr(former_global(ds, spec, cv, reselect))


# ---------------------------------------------------------------------------
# Folds fitted in lock step equal folds fitted one at a time
# ---------------------------------------------------------------------------

def former_components(dataset, spec, cv):
    """The former fold loop: one `fit_design` per training fold, in order."""
    X_full, labels, _ = design_matrix(dataset, spec)
    keep = [j for j, label in enumerate(labels) if label != "(intercept)"]
    C = np.zeros((dataset.n, len(keep)))
    for fold_id, (train, test) in enumerate(cv.folds(dataset.n)):
        try:
            fold_fit = fit_design(X_full[train], dataset.outcome[train], dataset.family, labels)
        except ModelBuildError as exc:
            raise FoldFitFailureError(fold_id, exc) from exc
        C[test, :] = X_full[np.ix_(test, keep)] * fold_fit.coefficients[keep]
    return C


class GivenFolds:
    """A cross-validation scheme with the given (train, test) folds."""

    def __init__(self, folds):
        self._folds = folds

    def folds(self, n):
        return self._folds

    def describe(self):
        return "given folds"


def two_failing_folds(first_in_irls):
    """A binomial design of x and a column c that differs from x by 1e-8 in
    the rows x < 0 of an 11-row block, whose outcome x nearly separates, and
    ten folds. Folds 3 and 7 fail: the one that trains on the block alone
    loses rank under the working weights, the other has two training rows."""
    rng = np.random.default_rng(269)
    block = np.linspace(-1.0, 1.0, 11)
    other = rng.standard_normal(40)
    x = np.concatenate([block, other])
    c = np.concatenate([block + 1e-8 * (block < 0), other + 0.3 * rng.standard_normal(40)])
    y = np.concatenate([np.zeros(11), (rng.random(40) < 0.5).astype(float)])
    y[[6, 10]] = 1.0
    ds = Dataset.from_columns({"x": x, "c": c, "y": y}, outcome="y", family=Family.BINOMIAL)
    rows = np.arange(51)
    folds = [(np.setdiff1d(rows, test), test) for test in np.array_split(rows[11:], 10)]
    irls_fold, rank_fold = (3, 7) if first_in_irls else (7, 3)
    folds[irls_fold] = (rows[:11], folds[irls_fold][1])
    folds[rank_fold] = (rows[11:13], folds[rank_fold][1])
    return ds, ModelSpec((Term.linear("x"), Term.linear("c"))), GivenFolds(folds)


class TestLockStepFolds:
    """Binomial folds of equal training size are fitted together in lock
    step. The components, the fold a failure is reported for, its cause and
    the aliasing warnings are those of fitting the folds one at a time."""

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    def test_kfold_with_two_fold_sizes_matches_fold_by_fold(self, family):
        ds, spec = TestRowSubsetRefits._problem(family, n=203, seed=263)
        cv = KFold(10, seed=5)
        assert sorted({len(train) for train, _ in cv.folds(ds.n)}) == [182, 183]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            C, _ = _out_of_fold_components(ds, spec, cv)
            expected = former_components(ds, spec, cv)
        np.testing.assert_array_equal(C.view(np.uint64), expected.view(np.uint64))

    @staticmethod
    def _failure(components, ds, spec, cv):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            with pytest.raises(FoldFitFailureError) as info:
                components(ds, spec, cv)
        return info.value, [str(w.message) for w in record]

    @pytest.mark.parametrize("first_in_irls", [True, False], ids=["irls-first", "rank-first"])
    def test_the_first_failing_fold_is_reported(self, first_in_irls):
        ds, spec, cv = two_failing_folds(first_in_irls)
        (new, new_warnings), (old, old_warnings) = [
            self._failure(components, ds, spec, cv)
            for components in (_out_of_fold_components, former_components)]
        assert new.fold == old.fold == 3
        assert type(new.cause) is type(old.cause) is RankDeficientError
        assert str(new.cause) == str(old.cause)
        assert ("lost rank" in str(new.cause)) == first_in_irls
        # The two-row fold drops c; only a fold up to the failing one warns.
        expected = [] if first_in_irls else ["dropping aliased design columns: c"]
        assert new_warnings == old_warnings == expected
        # Without the two failing folds every fold fits.
        folds = cv.folds(ds.n)
        _out_of_fold_components(ds, spec, GivenFolds(folds[:3] + folds[4:7] + folds[8:]))

    def test_an_aliased_fold_warns_as_fold_by_fold(self):
        rng = np.random.default_rng(271)
        n = 60
        cv = KFold(5, seed=1)
        x = rng.standard_normal(n)
        s = x.copy()
        test = cv.folds(n)[2][1]
        s[test] += rng.uniform(1.0, 2.0, len(test))  # x itself in fold 2's training rows
        y = (rng.random(n) < _expit(x)).astype(float)
        ds = Dataset.from_columns({"x": x, "s": s, "y": y}, outcome="y", family=Family.BINOMIAL)
        spec = ModelSpec((Term.linear("x"), Term.linear("s")))
        caught = []
        for components in (_out_of_fold_components, former_components):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                components(ds, spec, cv)
            caught.append([(str(w.message), w.category, w.filename) for w in record])
        assert caught[0] == caught[1] == [
            ("dropping aliased design columns: s", UserWarning, __file__)]
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            parameterwise_shrinkage(ds, spec, cv)
        assert record[0].filename.endswith("shrinkage.py")

    @pytest.mark.parametrize("cv", [LeaveOneOut(), KFold(5, seed=2)], ids=str)
    def test_zero_column_and_aliased_folds_match_fold_by_fold(self, cv):
        """A dummy d whose only 1 is in one fold's held-out rows leaves that
        fold's training design a zero column (factorised alone), and a column s
        equal to x but in another fold's held-out rows leaves that fold's
        design exactly aliased (factorised in its stack, then without s); then
        a fold of two training rows fails after them."""
        rng = np.random.default_rng(277)
        n = 40
        folds = cv.folds(n)
        zero_fold, aliased_fold = 1, 3
        r0, r1 = folds[zero_fold][1][0], folds[aliased_fold][1][0]
        x = rng.standard_normal(n)
        d, s = np.zeros(n), x.copy()
        d[r0], s[r1] = 1.0, x[r1] + 1.5
        y = (rng.random(n) < _expit(x)).astype(float)
        ds = Dataset.from_columns({"x": x, "d": d, "s": s, "y": y}, outcome="y",
                                  family=Family.BINOMIAL)
        spec = ModelSpec((Term.linear("x"), Term.linear("d"), Term.linear("s")))
        caught, components = [], []
        for fold_fits in (_out_of_fold_components, former_components):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                C = fold_fits(ds, spec, cv)
            components.append((C[0] if isinstance(C, tuple) else C).view(np.uint64))
            caught.append([str(w.message) for w in record])
        np.testing.assert_array_equal(components[0], components[1])
        assert caught[0] == caught[1] == ["dropping aliased design columns: d",
                                          "dropping aliased design columns: s"]
        rows = np.setdiff1d(np.arange(n), [r0, r1])
        failing = folds[:4] + [(rows[:2], folds[4][1])] + folds[5:]
        (new, new_warnings), (old, old_warnings) = [
            self._failure(fold_fits, ds, spec, GivenFolds(failing))
            for fold_fits in (_out_of_fold_components, former_components)]
        assert new.fold == old.fold == 4
        assert type(new.cause) is type(old.cause) is RankDeficientError
        assert str(new.cause) == str(old.cause)
        assert new_warnings == old_warnings == caught[0] + [
            "dropping aliased design columns: d, s"]

    def test_work_equals_fold_by_fold(self, monkeypatch):
        ds, spec = TestRowSubsetRefits._problem(Family.BINOMIAL)
        stacks, dgeqrf, work = [], glm.dgeqrf, []

        def recording_dgeqrf(a, *args, **kwargs):  # the depth of each stack factorised
            if a.base is not None and a.base.ndim == 3:
                stacks.append(a.base.shape[0])
            return dgeqrf(a, *args, **kwargs)

        monkeypatch.setattr(glm, "dgeqrf", recording_dgeqrf)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for fold_fits in (_out_of_fold_components, former_components):
                before = glm.WORK.copy()
                fold_fits(ds, spec, LeaveOneOut())
                work.append({key: glm.WORK[key] - before[key]
                             for key in ("designs factorised", "IRLS iterations")})
        batched, counts = work
        assert batched == counts
        assert batched["IRLS iterations"] > 3 * ds.n
        assert max(stacks) == glm._LOCKSTEP_FITS  # fits are batched, within the budget
