"""Simulation lab: scoring of fitted procedures against known truth."""

import math

import numpy as np
import pytest

from fpselect import Criterion, DomainError, pretransform
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
