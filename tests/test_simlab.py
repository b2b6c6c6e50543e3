"""Simulation lab: scoring of fitted procedures against known truth."""

import math

import numpy as np
import pytest

from fpselect import (Criterion, Dataset, DomainError, Family, Fp, InvalidCorrelationError,
                      Linear, ModelBuildError, ModelSpec, Term, fit, pretransform, spike_fsp)
from fpselect import simlab


def linear_scenario(seed=11):
    """x1 Normal(0, 2) with a linear effect 0.5, x2 null. The pre-transform
    of x1 has scale 10, so an unscaled slope would be off by a factor 10."""
    covariates = (simlab.Covariate("x1", simlab.Normal(0.0, 2.0)),
                  simlab.Covariate("x2", simlab.Uniform(0.5, 3.0)))
    return simlab.Scenario(n=300, covariates=covariates,
                           effects=(simlab.Effect("x1", "linear", 0.5),), seed=seed)


class TestCoefficientRmse:
    def test_mfp_linear_verdict_scored_on_original_scale(self):
        scenario = linear_scenario()
        assert pretransform(simlab.generate(scenario).column("x1")).scale == 10.0
        report = simlab.evaluate(simlab.mfp_procedure(), scenario, 10)
        assert report.score("x1").inclusion_rate == 1.0
        assert report.coefficient_rmse < 0.05

    def test_mfp_and_backward_elimination_agree_on_a_linear_effect(self):
        scenario = linear_scenario()
        mfp_report = simlab.evaluate(simlab.mfp_procedure(), scenario, 10)
        be_report = simlab.evaluate(simlab.be_procedure(Criterion.p_value(0.05)),
                                    scenario, 10)
        assert mfp_report.coefficient_rmse == pytest.approx(be_report.coefficient_rmse,
                                                            rel=1e-6)


class TestShapeDistance:
    @pytest.mark.parametrize("effect", [simlab.Effect("x", "log", 1.0),
                                        simlab.Effect("x", "power", 1.0, param=-1.0),
                                        simlab.Effect("x", "power", 1.0, param=0.5)])
    def test_spike_covariate_scored_on_its_positive_values(self, effect):
        # 50 zeros (the spike) and 150 lognormal values: the 1% quantile is 0,
        # where a log or power curve is undefined or off its support.
        rng = np.random.default_rng(5)
        x = np.concatenate([np.zeros(50), rng.lognormal(size=150)])
        positive = x[x > 0.0]
        distance = simlab._shape_distance(x, effect, None)
        assert math.isfinite(distance) and distance > 0.0
        assert distance == simlab._shape_distance(positive, effect, None)
        assert simlab._shape_distance(x, effect, effect.evaluate) == 0.0

    def test_linear_effect_keeps_the_spike_on_the_grid(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.zeros(50), rng.lognormal(size=150)])
        effect = simlab.Effect("x", "linear", 1.0)
        assert (simlab._shape_distance(x, effect, None)
                != simlab._shape_distance(x[x > 0.0], effect, None))


class TestMarginalParameters:
    @pytest.mark.parametrize("marginal, args", [
        (simlab.Uniform, (3.0, 1.0)), (simlab.Uniform, (1.0, 1.0)),
        (simlab.Uniform, (0.0, math.inf)), (simlab.Uniform, (math.nan, 1.0)),
        (simlab.Normal, (0.0, -1.0)), (simlab.Normal, (0.0, 0.0)),
        (simlab.Normal, (math.nan, 1.0)), (simlab.Normal, (0.0, math.inf)),
        (simlab.LogNormal, (0.0, -1.0)), (simlab.LogNormal, (-math.inf, 1.0)),
        (simlab.Exponential, (0.0,)), (simlab.Exponential, (-2.0,)),
        (simlab.Exponential, (math.inf,)),
    ], ids=lambda v: str(v) if isinstance(v, tuple) else v.__name__)
    def test_bad_parameters_rejected(self, marginal, args):
        with pytest.raises(DomainError, match="marginal needs finite"):
            marginal(*args)

    @pytest.mark.parametrize("marginal", [simlab.Uniform(-1.0, 2.0), simlab.Normal(3.0, 0.5),
                                          simlab.LogNormal(-1.0, 2.0), simlab.Exponential(4.0)],
                             ids=lambda m: type(m).__name__)
    def test_valid_parameters_accepted(self, marginal):
        u = np.array([0.1, 0.5, 0.9])
        assert np.all(np.diff(marginal.ppf(u)) > 0.0)


# ---------------------------------------------------------------------------
# Scoring straight from the fit equals the former per-term summary
# ---------------------------------------------------------------------------

def former_summary(fitted):
    """The former summary of a fit: selected set, per-variable curve
    closures (added term by term) and straight-line slopes on the x scale."""
    def term_curve(term):
        coefs = [fitted.coefficient(lab) for lab in term.labels()]

        def curve(x):
            cols = term.transform.columns(np.asarray(x, dtype=float))
            return sum(c * col for c, col in zip(coefs, cols))

        return curve

    curves, linear = {}, {}
    for term in fitted.spec.terms:
        prior = curves.get(term.variable)
        extra = term_curve(term)
        if prior is None:
            curves[term.variable] = extra
        else:
            curves[term.variable] = lambda x, a=prior, b=extra: a(x) + b(x)
        transform = term.transform
        if isinstance(transform, Linear):
            linear[term.variable] = fitted.coefficient(term.labels()[0])
        elif isinstance(transform, Fp) and transform.powers.values == (1.0,):
            linear[term.variable] = fitted.coefficient(term.labels()[0]) / transform.scale
    return frozenset(t.variable for t in fitted.spec.terms), curves, linear


def former_evaluate(procedure, scenario, replications):
    """The former `simlab.evaluate`, scoring each fit through its summary and
    calling the procedure on one dataset at a time."""
    names = scenario.covariate_names
    included = {v: [] for v in names}
    correct = {v: [] for v in names}
    shape = {v: [] for v in names}
    sq_errors = []
    n_failed = 0
    for r in range(replications):
        dataset = simlab.generate(scenario, replication=r)
        (fitted,) = procedure([dataset])
        if isinstance(fitted, ModelBuildError):
            n_failed += 1
            continue
        selected, curves, linear = former_summary(fitted)
        for v in names:
            effect = scenario.true_effect(v)
            truly_in = effect.form != "null" and effect.coefficient != 0.0
            is_in = v in selected
            included[v].append(1.0 if is_in else 0.0)
            correct[v].append(1.0 if is_in == truly_in else 0.0)
            curve = curves.get(v) if is_in else None
            shape[v].append(simlab._shape_distance(dataset.column(v), effect, curve))
            if effect.form == "linear":
                fitted_coef = linear.get(v, 0.0) if is_in else 0.0
                sq_errors.append((fitted_coef - effect.coefficient) ** 2)
    n_ok = replications - n_failed
    scores = []
    for v in names:
        inc = np.asarray(included[v])
        dist = np.asarray(shape[v])
        rate = float(inc.mean())
        scores.append(simlab.VariableScore(
            variable=v,
            true_form=scenario.true_effect(v).form,
            inclusion_rate=rate,
            inclusion_mc_error=math.sqrt(rate * (1.0 - rate) / n_ok),
            correct_rate=float(np.asarray(correct[v]).mean()),
            shape_distance_mean=float(dist.mean()),
            shape_distance_mc_error=float(dist.std(ddof=1) / math.sqrt(n_ok)) if n_ok > 1 else 0.0,
        ))
    rmse = math.sqrt(sum(sq_errors) / len(sq_errors)) if sq_errors else None
    return simlab.EvaluationReport(replications, n_failed, tuple(scores), rmse)


def spike_scenario(family):
    """A spike covariate s with a log effect next to a linear x1 whose
    pre-transform has a nonzero shift, a linear x2 and a null x3."""
    covariates = (simlab.Covariate("x1", simlab.Normal(0.0, 2.0)),
                  simlab.Covariate("s", simlab.LogNormal(0.0, 0.7), spike_prob=0.3),
                  simlab.Covariate("x2", simlab.Uniform(0.5, 3.0)),
                  simlab.Covariate("x3", simlab.Normal()))
    effects = (simlab.Effect("x1", "linear", 0.5), simlab.Effect("s", "log", 0.8),
               simlab.Effect("x2", "linear", 0.6))
    return simlab.Scenario(n=200, covariates=covariates, effects=effects, family=family,
                           noise_sd=0.7, seed=29)


def spike_procedure(datasets):
    """Linear terms for x1, x2 and x3 plus spike-at-zero's components of s,
    indicator first: per dataset, a fit in which one variable has two terms,
    or the error that building it raised."""
    fits = []
    for dataset in datasets:
        spec = ModelSpec(tuple(Term.linear(v) for v in ("x1", "x2", "x3")))
        try:
            for term in spike_fsp(dataset, "s", 0.05, adjustment=spec).terms:
                spec = spec.with_term(term)
            fits.append(fit(dataset, spec))
        except ModelBuildError as error:
            fits.append(error)
    return fits


PROCEDURES = {
    "be": simlab.be_procedure(Criterion.p_value(0.05)),
    "be_aic": simlab.be_procedure(Criterion.aic()),
    "mfp": simlab.mfp_procedure(),
    "spike": spike_procedure,
}


class TestScoringMatchesFormerSummary:
    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    @pytest.mark.parametrize("procedure", sorted(PROCEDURES))
    def test_reports_bit_identical(self, procedure, family):
        scenario = spike_scenario(family)
        report = simlab.evaluate(PROCEDURES[procedure], scenario, 6)
        assert repr(report) == repr(former_evaluate(PROCEDURES[procedure], scenario, 6))

    def test_cases_cover_two_term_variables_and_shifted_straight_lines(self):
        two_terms = shifted = 0
        for family in (Family.GAUSSIAN, Family.BINOMIAL):
            scenario = spike_scenario(family)
            for r in range(6):
                dataset = simlab.generate(scenario, r)
                spike_terms = spike_procedure([dataset])[0].spec.terms[3:]
                two_terms += len(spike_terms) == 2 and isinstance(spike_terms[1].transform, Fp)
                if family is Family.BINOMIAL:
                    continue
                for term in simlab.mfp_procedure()([dataset])[0].spec.terms:
                    transform = term.transform
                    shifted += (term.variable == "x1" and isinstance(transform, Fp)
                                and transform.powers.values == (1.0,)
                                and transform.shift not in (0.0, transform.scale))
        assert two_terms >= 6 and shifted == 6


def failing_some(procedure):
    """The procedure, but a DomainError for every dataset whose first outcome
    is below its median: a property of the generated data alone."""
    def run(datasets):
        return [DomainError("synthetic failure")
                if dataset.outcome[0] < np.median(dataset.outcome) else fitted
                for dataset, fitted in zip(datasets, procedure(datasets))]

    return run


CHUNKED = {
    "be": simlab.be_procedure(Criterion.p_value(0.05)),
    "be_aic": simlab.be_procedure(Criterion.aic()),
    "mfp": simlab.mfp_procedure(),
    "failing": failing_some(simlab.be_procedure(Criterion.p_value(0.05))),
}


class TestChunkedEvaluate:
    """`evaluate` hands its procedure chunks of `glm._LOCKSTEP_FITS`
    replications; its report equals one built from one dataset at a time,
    across chunk boundaries."""

    @pytest.mark.parametrize("family", [Family.GAUSSIAN, Family.BINOMIAL], ids=str)
    @pytest.mark.parametrize("procedure", sorted(CHUNKED))
    def test_reports_bit_identical_across_chunks(self, procedure, family):
        scenario = spike_scenario(family)
        chunks = []

        def recording(datasets):
            chunks.append(len(datasets))
            return CHUNKED[procedure](datasets)

        report = simlab.evaluate(recording, scenario, 37)
        assert chunks == [16, 16, 5]
        assert repr(report) == repr(former_evaluate(CHUNKED[procedure], scenario, 37))
        assert (0 < report.n_failed < 37) == (procedure == "failing")

    def test_procedure_must_answer_every_dataset(self):
        procedure = simlab.be_procedure(Criterion.p_value(0.05))
        with pytest.raises(DomainError, match="15 results for 16 datasets"):
            simlab.evaluate(lambda datasets: procedure(datasets)[1:],
                            spike_scenario(Family.GAUSSIAN), 37)


    # x1's search adjusts for the constant x2 before x2's own visit fails.
    @pytest.mark.filterwarnings("ignore:dropping aliased design columns")
    def test_mfp_procedure_answers_a_failing_dataset_with_its_error(self):
        datasets = [simlab.generate(linear_scenario(), r) for r in range(3)]
        columns = {"x1": datasets[1].column("x1"), "x2": np.full(datasets[1].n, 2.0),
                   "y": datasets[1].outcome}
        datasets[1] = Dataset.from_columns(columns, outcome="y")  # x2 constant
        results = simlab.mfp_procedure()(datasets)
        assert isinstance(results[1], ModelBuildError) and str(results[1]) == "'x2' is constant"
        for dataset, result in zip(datasets[::2], results[::2]):
            alone = simlab.mfp_procedure()([dataset])[0]
            assert result.coefficients.tobytes() == alone.coefficients.tobytes()

    def test_empty_batch_answers_nothing(self):
        assert simlab.be_procedure(Criterion.aic())([]) == []
        assert simlab.mfp_procedure()([]) == []


class TestScenarioCorrelation:
    def test_diagonal_must_be_one(self):
        covariates = (simlab.Covariate("a", simlab.Uniform(0.0, 1.0)),
                      simlab.Covariate("b", simlab.Uniform(0.0, 1.0)))
        with pytest.raises(InvalidCorrelationError, match="diagonal"):
            simlab.Scenario(n=20, covariates=covariates, correlation=4.0 * np.eye(2))
        simlab.Scenario(n=20, covariates=covariates, correlation=np.eye(2))
