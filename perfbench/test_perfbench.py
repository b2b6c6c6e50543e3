"""Self-tests of the benchmark. Not part of the repository's test suite:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import importlib
import json
import shutil
import sys
import threading
import warnings

import pytest

import run
import tracing
import workloads

GLM = importlib.import_module("fpselect.glm")


@pytest.fixture(autouse=True)
def _in_root(monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    warnings.simplefilter("ignore")
    yield
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)


def _input_bytes(workload, seed, index) -> bytes:
    prepared = workload.prepare(seed, index)
    if isinstance(prepared, list):
        return (workload.directory / "data.csv").read_bytes() + " ".join(prepared).encode()
    return b"".join(column.tobytes() for column in prepared.columns)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = workloads.WORKLOADS[name]
    first = _input_bytes(workload, 5, 2)
    assert _input_bytes(workload, 5, 2) == first
    assert _input_bytes(workload, 6, 2) != first
    assert _input_bytes(workload, 5, 3) != first


@pytest.mark.parametrize("name", ["mfp_gauss", "mfp_binom"])
def test_gate_catches_deviance_perturbed_by_1e6(name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_references(name)[workloads.DEFAULT_SEED][0]
    assert workload.compare(copy.deepcopy(reference), reference) == []
    perturbed = copy.deepcopy(reference)
    perturbed["deviance"] *= 1.0 + 1e-6
    problems = workload.compare(perturbed, reference)
    assert len(problems) == 1 and "deviance" in problems[0]


def test_gate_catches_changed_cli_outputs():
    shrink = workloads.WORKLOADS["shrink_loo"]
    reference = workloads.load_references("shrink_loo")[workloads.DEFAULT_SEED][0]
    perturbed = copy.deepcopy(reference)
    group = sorted(perturbed["factors"])[0]
    perturbed["factors"][group] *= 1.0 + 1e-6
    assert shrink.compare(perturbed, reference)
    stability = workloads.WORKLOADS["stability_be"]
    reference = workloads.load_references("stability_be")[workloads.DEFAULT_SEED][0]
    perturbed = copy.deepcopy(reference)
    perturbed["n_failed"] += 1
    assert stability.compare(perturbed, reference)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_anchor_matches_its_reference(name):
    workload = workloads.WORKLOADS[name]
    records = run.analyse_datasets(workload, workloads.DEFAULT_SEED, 0, run.HostProbe(),
                                     count=1)
    references = workloads.load_references(name)
    assert run.gate(workload, workloads.DEFAULT_SEED, records, references) == []


def test_gate_reports_a_raised_analysis_only_where_a_reference_is_stored():
    workload = workloads.WORKLOADS["mfp_gauss"]
    references = workloads.load_references("mfp_gauss")
    stored = len(references[workloads.DEFAULT_SEED])
    raised = [run.Record(3, 0.1, None), run.Record(stored, 0.1, None)]
    problems = run.gate(workload, workloads.DEFAULT_SEED, raised, references)
    assert len(problems) == 1 and "dataset 3: analysis raised" in problems[0]


def test_run_fails_when_an_analysis_of_a_reference_dataset_raises(monkeypatch, capsys):
    """The anchor passes; every timed analysis of the default seed raises."""
    analyse = workloads.MfpWorkload.analyse
    calls = []

    def raise_after_anchor(self, dataset):
        calls.append(dataset)
        if len(calls) == 1:
            return analyse(self, dataset)
        raise RuntimeError("injected failure")

    monkeypatch.setattr(workloads.MfpWorkload, "analyse", raise_after_anchor)
    monkeypatch.setattr(run, "setup_seconds", lambda root, src: 1.0)
    code = run.main(["--workload", "mfp_gauss", "--seed", str(workloads.DEFAULT_SEED),
                     "--seconds", "0.2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] == len(calls) - 1


def test_unknown_workload_exits_2_without_a_result(capsys):
    assert run.main(["--workload", "no_such_workload"]) == 2
    assert capsys.readouterr().out == ""


def _tiny(name):
    """A small version of a workload, so a traced run takes a second."""
    workload = workloads.WORKLOADS[name]
    if name == "stability_be":
        return workloads.CliWorkload(name, workload.subcommand, workload.family, n=120,
                                     settings=("selector = be", "replications = 6"),
                                     trace_analyses=1, reference_datasets=0,
                                     replications=6)
    if name == "shrink_loo":
        return workloads.CliWorkload(name, workload.subcommand, workload.family, n=60,
                                     settings=workload.settings, trace_analyses=1,
                                     reference_datasets=0)
    return workloads.MfpWorkload(name, workload.family, n=80, deviance_rtol=1.0,
                                 trace_analyses=1, reference_datasets=0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_spans_count_every_fit_design_call(name):
    """A profiler sees every execution of fit_design's code, whatever name it
    was called by; the tracer must record the same number of spans."""
    code = GLM.fit_design.__code__
    lock = threading.Lock()
    executed = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            with lock:
                executed[0] += 1

    workload = _tiny(name)
    with tracing.Tracer() as tracer:
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            records = run.analyse_datasets(workload, 3, 1, run.HostProbe(), count=1,
                                             tracer=tracer)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    assert records[0].output is not None
    calls, _ = tracer.self_times()["glm.fit_design"]
    assert executed[0] > 0
    assert calls == executed[0]
    assert not hasattr(GLM.fit_design, "__wrapped__")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    workload = _tiny(name)

    def traced_counts():
        with tracing.Tracer() as tracer:
            run.analyse_datasets(workload, 4, 1, run.HostProbe(), count=1, tracer=tracer)
        metrics = run.per_layer(tracer, 1, 0.0, 0.0)
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"
                and not k.endswith(("_frac", "efficiency"))}, dict(tracer.counts)

    first = traced_counts()
    assert first == traced_counts()
    assert first[0]["glm.fit_design.calls"] > 0


def test_self_time_subtracts_overlapping_children_once():
    tracer = tracing.Tracer()
    tracer.spans = [(1, "parent", 0, 0.0, 10.0), (2, "child", 1, 1.0, 5.0),
                    (3, "child", 1, 2.0, 6.0), (4, "child", 1, 8.0, 9.0)]
    times = tracer.self_times()
    assert times["parent"] == (1, pytest.approx(4.0))
    assert times["child"] == (3, pytest.approx(9.0))


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, percentile, count = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert (percentile, count) == (90.0, 100)
