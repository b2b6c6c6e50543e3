"""Stability analysis: determinism, frequency bounds, dependency warnings."""

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, DomainError, ModelSpec, ResamplePlan,
                      StabilityReport, Term, backward_eliminate, bif_select, fit, simlab,
                      stability)
from fpselect.glm import fit_design


def make_selector(criterion=None):
    """Batch backward elimination from the all-linear model, the final fit or
    the error of each dataset."""
    return simlab.be_procedure(criterion or Criterion.p_value(0.05))


def strong_predictor_dataset(seed=601, n=300):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    z = rng.standard_normal(n)
    y = 5.0 / np.sqrt(n) * n ** 0.5 * 0.35 * x + rng.standard_normal(n)
    return Dataset.from_columns({"x": x, "z": z, "y": y}, outcome="y")


def proxy_pair_dataset(seed=607, n=250, rho=0.9):
    """Two proxies of one latent variable that are exchangeable in the sample.

    x1 and x2 differ only in the sign of e, which is orthogonal in-sample to
    the intercept, the latent variable and y, and scaled so that
    corr(x1, x2) = rho exactly. Both proxies then have the same variance and
    the same correlation with y, so neither is favoured by the data itself;
    with independent noise one proxy is better associated with y by chance
    and wins most resamples.
    """
    rng = np.random.default_rng(seed)
    latent = rng.standard_normal(n)
    y = 0.5 * latent + rng.standard_normal(n)
    basis = np.column_stack([np.ones(n), latent, y])
    e = rng.standard_normal(n)
    e -= basis @ np.linalg.lstsq(basis, e, rcond=None)[0]
    centred = latent - latent.mean()
    e *= np.sqrt(rho * (1 - rho) / (1 + rho) * (centred @ centred) / (e @ e))
    x1 = np.sqrt(rho) * latent + e
    x2 = np.sqrt(rho) * latent - e
    return Dataset.from_columns({"x1": x1, "x2": x2, "y": y}, outcome="y")


class TestPlan:
    def test_zero_replications_rejected(self):
        with pytest.raises(DomainError):
            ResamplePlan(replications=0, master_seed=1)

    def test_subsample_rate_bounds(self):
        with pytest.raises(DomainError):
            ResamplePlan(replications=10, master_seed=1, rate=1.2)

    def test_subsample_draws_exact_distinct_count(self):
        plan = ResamplePlan(replications=5, master_seed=9)
        for r in range(5):
            idx = plan.draw_indices(100, r)
            assert len(idx) == round(0.632 * 100)
            assert len(np.unique(idx)) == len(idx)

    def test_bootstrap_draws_n_with_replacement(self):
        plan = ResamplePlan(replications=3, master_seed=9, scheme="bootstrap")
        idx = plan.draw_indices(80, 0)
        assert len(idx) == 80
        assert len(np.unique(idx)) < 80  # virtually certain

    def test_streams_depend_only_on_seed_and_index(self):
        plan = ResamplePlan(replications=3, master_seed=13)
        again = ResamplePlan(replications=3, master_seed=13)
        for r in range(3):
            np.testing.assert_array_equal(plan.draw_indices(50, r), again.draw_indices(50, r))
        assert not np.array_equal(plan.draw_indices(50, 0), plan.draw_indices(50, 1))


class TestStability:
    def test_strong_predictor_high_inclusion(self):
        ds = strong_predictor_dataset()
        plan = ResamplePlan(replications=200, master_seed=17)
        report = stability(ds, make_selector(), plan)
        assert report.bif["x"] > 0.95

    def test_identical_seeds_identical_reports(self):
        ds = strong_predictor_dataset(seed=613)
        plan = ResamplePlan(replications=60, master_seed=23)
        r1 = stability(ds, make_selector(), plan)
        r2 = stability(ds, make_selector(), plan)
        assert r1.bif == r2.bif
        np.testing.assert_array_equal(r1.co_inclusion, r2.co_inclusion)
        assert r1.model_freq == r2.model_freq

    def test_workers_do_not_change_results(self):
        ds = strong_predictor_dataset(seed=617)
        plan = ResamplePlan(replications=40, master_seed=29)
        seq = stability(ds, make_selector(), plan, workers=1)
        par = stability(ds, make_selector(), plan, workers=4)
        assert seq.bif == par.bif
        assert seq.model_freq == par.model_freq

    def test_frechet_bounds_hold(self):
        ds = proxy_pair_dataset()
        plan = ResamplePlan(replications=150, master_seed=31)
        report = stability(ds, make_selector(), plan)
        names = report.variables
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                co = report.co_inclusion[i, j]
                assert co <= min(report.bif[a], report.bif[b]) + 1e-12
                assert co >= max(0.0, report.bif[a] + report.bif[b] - 1.0) - 1e-12
        assert np.allclose(np.diag(report.co_inclusion),
                           [report.bif[v] for v in names])

    def test_model_frequencies_sum_to_one(self):
        ds = strong_predictor_dataset(seed=619)
        plan = ResamplePlan(replications=80, master_seed=37)
        report = stability(ds, make_selector(), plan)
        assert sum(report.model_freq.values()) == pytest.approx(1.0)

    def test_correlated_pair_pathology(self):
        ds = proxy_pair_dataset()
        plan = ResamplePlan(replications=250, master_seed=41)
        report = stability(ds, make_selector(), plan)
        union = report.union_frequency("x1", "x2")
        names = report.variables
        both = report.co_inclusion[names.index("x1"), names.index("x2")]
        # either proxy is almost always selected, neither dominates individually,
        # and they are selected one or the other, seldom together
        assert union > 0.9
        assert report.bif["x1"] < 0.8 and report.bif["x2"] < 0.8
        assert both < 0.1

    def test_failed_replications_counted(self):
        ds = strong_predictor_dataset(seed=641, n=60)
        x_only = fit(ds, ModelSpec((Term.linear("x"),)))
        calls = []

        def flaky(datasets):
            results = []
            for _ in datasets:
                calls.append(1)
                results.append(DomainError("synthetic failure") if len(calls) % 3 == 0
                               else x_only)
            return results

        plan = ResamplePlan(replications=30, master_seed=43)
        report = stability(ds, flaky, plan)
        assert report.n_failed == 10
        assert report.bif["x"] == 1.0  # denominators exclude the failures


class TestChunkedStability:
    """`stability` hands its selector chunks of at most `glm._LOCKSTEP_FITS`
    replications; the report equals one built from one `backward_eliminate`
    per replication, however the chunks fall and whichever worker runs them."""

    @staticmethod
    def _fails(dataset):
        return dataset.outcome[0] < -0.5  # a property of the drawn rows alone

    def _selector(self, datasets):
        traces = make_selector()(datasets)
        return [DomainError("synthetic failure") if self._fails(d) else trace
                for d, trace in zip(datasets, traces)]

    def _expected(self, ds, plan):
        start = ModelSpec(tuple(Term.linear(v) for v in ds.candidate_names))
        selections = []
        for r in range(plan.replications):
            d = ds.take_rows(plan.draw_indices(ds.n, r))
            if not self._fails(d):
                selections.append(
                    backward_eliminate(d, start, Criterion.p_value(0.05)).final_spec.variables)
        names = ds.candidate_names
        joint = np.array([[sum(a in s and b in s for s in selections) for b in names]
                          for a in names], dtype=float) / len(selections)
        models = {}
        for s in selections:
            key = tuple(sorted(s))
            models[key] = models.get(key, 0) + 1
        return joint, {k: c / len(selections) for k, c in models.items()}, \
            plan.replications - len(selections)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_chunks_equal_one_selection_per_replication(self, workers):
        ds = proxy_pair_dataset(seed=653, n=120)
        plan = ResamplePlan(replications=37, master_seed=53)  # 16 + 16 + 5
        chunks = []

        def recording(datasets):
            chunks.append(len(datasets))
            return self._selector(datasets)

        report = stability(ds, recording, plan, workers=workers)
        joint, models, failed = self._expected(ds, plan)
        assert sorted(chunks) == [5, 16, 16]
        assert 0 < failed < plan.replications
        assert report.n_failed == failed
        np.testing.assert_array_equal(report.co_inclusion, joint)
        assert report.bif == {v: float(joint[i, i]) for i, v in enumerate(report.variables)}
        assert report.model_freq == models

    def test_selector_must_answer_every_dataset(self):
        ds = strong_predictor_dataset(seed=659, n=60)
        plan = ResamplePlan(replications=5, master_seed=59)
        with pytest.raises(DomainError, match="4 results for 5 datasets"):
            stability(ds, lambda datasets: [("x",)] * (len(datasets) - 1), plan)

    def test_selector_must_answer_with_fits_or_errors(self):
        ds = strong_predictor_dataset(seed=659, n=60)
        plan = ResamplePlan(replications=5, master_seed=59)
        with pytest.raises(DomainError, match="returned a tuple, not a fit with a spec"):
            stability(ds, lambda datasets: [("x",)] * len(datasets), plan)
        X = np.column_stack([np.ones(ds.n), ds.column("x")])
        specless = fit_design(X, ds.outcome, ds.family, ("(intercept)", "x"))
        with pytest.raises(DomainError, match="returned a FitResult, not a fit with a spec"):
            stability(ds, lambda datasets: [specless] * len(datasets), plan)


class TestBifSelect:
    def _report(self):
        ds = proxy_pair_dataset(seed=643)
        plan = ResamplePlan(replications=200, master_seed=47)
        return stability(ds, make_selector(), plan)

    def test_threshold_zero_selects_all(self):
        report = self._report()
        assert set(bif_select(report, 0.0).selected) == set(report.variables)

    def test_threshold_one_selects_only_always_in(self):
        report = self._report()
        picked = bif_select(report, 1.0)
        assert all(report.bif[v] == 1.0 for v in picked.selected)

    def test_union_warning_for_excluded_pair(self):
        report = self._report()
        picked = bif_select(report, 0.8)
        assert "x1" not in picked.selected and "x2" not in picked.selected
        assert picked.warnings
        assert "x1" in picked.warnings[0] and "x2" in picked.warnings[0]

    def test_invalid_threshold(self):
        report = self._report()
        with pytest.raises(DomainError):
            bif_select(report, 1.5)
