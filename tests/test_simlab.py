"""Simulation lab: scoring of fitted procedures against known truth."""

import pytest

from fpselect import Criterion, pretransform
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
