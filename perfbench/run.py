"""fpselect benchmark: one workload per run, closed loop with one caller.

    python3 perfbench/run.py --workload mfp_gauss --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the run times analyses for --seconds and reports the
end-to-end metrics; analysis times are stated at the reference host's speed,
measured by a fixed probe timed between analyses (see HostProbe), with the
wall-clock figures printed beside them; setup_s is wall clock. With --trace 1 it analyses a fixed set of datasets twice,
untraced and then traced, and reports the per-layer metrics and the tracing
overhead. Either way the run first analyses the anchor dataset, untimed, and
checks it and every other output that has a stored reference against
`perfbench/references`; a mismatch prints `"correct": false` and exits 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

SETUP_REPEATS = 3
TAIL_BEYOND = 10
# Probe time of HostProbe on the reference host: a 2-vCPU VM (Intel Xeon,
# OpenBLAS 0.3.31 with 2 threads) when no other tenant slows it down.
PROBE_REFERENCE_S = 0.008


@dataclass
class Record:
    index: int
    seconds: float
    output: dict | None
    failed_replications: int = 0
    wall_seconds: float = 0.0


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------

def _openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "blas_thread_env": {key: os.environ.get(key, "unset") for key in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _gram_schmidt(matrix: np.ndarray) -> np.ndarray:
    q = np.empty_like(matrix)
    for j in range(matrix.shape[1]):
        v = matrix[:, j].copy()
        if j:
            v -= q[:, :j] @ (q[:, :j].T @ v)
        q[:, j] = v / np.linalg.norm(v)
    return q


class HostProbe:
    """Fixed NumPy work in the style of fpselect's hot path: Gram-Schmidt by
    matrix-vector products, and LAPACK QR, on a 500 x 9 matrix.

    On a shared VM the host's speed changes by up to 1.7x from one second to
    the next, and for minutes at a time, with other tenants' load. Timing this
    probe between analyses measures the speed the analyses ran at, so that
    their times can be stated at the reference host's speed.
    """

    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((500, 9))
        self.samples: list[float] = []
        self.last = (0.0, 0.0)

    def measure(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            _gram_schmidt(self.matrix)
        for _ in range(80):
            np.linalg.qr(self.matrix)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def timed(self, func, *args, **kwargs):
        """(result, wall seconds, seconds at reference speed) of a call,
        scaled by the mean of the probe times just before and after it."""
        before = self.samples[-1] if self.samples else self.measure()
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            after = self.measure()
            self.last = (wall, wall * PROBE_REFERENCE_S / ((before + after) / 2.0))
        return (result, *self.last)


def setup_seconds(root: str, src: str) -> float:
    """Median wall time for a fresh interpreter to import fpselect.cli.

    Not scaled by HostProbe: over 24 imports in a row on a 2-vCPU VM the probe
    between them read 10.7 to 34 ms with little relation to the import time,
    and scaled import times spread (IQR/median 0.31) more than wall times
    (0.08)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    command = [sys.executable, "-c", "import fpselect.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=root, env=env, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

def analyse_datasets(workload, seed, first_index, probe, *, seconds=None, count=None,
                     tracer=None) -> list[Record]:
    """Analyse datasets first_index, first_index + 1, ... one after another,
    until `count` are done or `seconds` have passed. Failed analyses keep
    their time and have no output."""
    records: list[Record] = []
    loop_start = time.perf_counter()
    index = first_index
    while not (count is not None and len(records) >= count
               or seconds is not None and records
               and time.perf_counter() - loop_start >= seconds):
        analysis_input = workload.prepare(seed, index)
        if tracer is not None:
            tracer.new_analysis()
            call = (tracer.span, "analysis", workload.analyse, analysis_input)
        else:
            call = (workload.analyse, analysis_input)
        try:
            result, wall, normalized = probe.timed(*call)
        except Exception as exc:  # a failed analysis is counted, not fatal
            wall, normalized = probe.last
            records.append(Record(index, normalized, None, wall_seconds=wall))
            print(f"dataset {index}: analysis failed: {exc!r}", file=sys.stderr)
        else:
            output, failed_replications = workload.summarize(result)
            records.append(Record(index, normalized, output, failed_replications, wall))
        index += 1
    return records


def gate(workload, seed, records, references) -> list[str]:
    """Problems found in the outputs: reference mismatches, and analyses that
    raised, where a reference for (seed, dataset) is stored; invariant
    violations everywhere."""
    stored = references.get(seed, [])
    problems = []
    for record in records:
        if record.output is None:
            if record.index < len(stored):
                problems.append(f"seed {seed} dataset {record.index}: analysis raised; "
                                f"the reference has an output")
            continue
        found = workload.check(record.output)
        if record.index < len(stored):
            found += workload.compare(record.output, stored[record.index])
        problems += [f"seed {seed} dataset {record.index}: {p}" for p in found]
    return problems


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile, sample count). With too few samples, the minimum."""
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered)


def end_to_end(records: list[Record], setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics, at reference host speed, and notes for them."""
    times = [r.seconds for r in records]
    completed = sum(1 for r in records if r.output is not None)
    tail_value, tail_pct, count = tail(times)
    metrics = {
        "analysis_s_p50": (statistics.median(times), "s"),
        "analysis_s_tail": (tail_value, "s"),
        "analyses_per_s": (completed / sum(times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall = [r.wall_seconds for r in records]
    notes = {
        "analysis_s_p50": f"wall clock: {statistics.median(wall):.4g} s",
        "analysis_s_tail": (f"p{tail_pct:.1f} of {count} analyses, {TAIL_BEYOND} beyond it"
                            if count > TAIL_BEYOND else
                            f"minimum of {count} analyses, fewer than {TAIL_BEYOND + 1}"),
        "analyses_per_s": f"wall clock: {completed / sum(wall):.4g} 1/s",
    }
    return metrics, notes


def failures(records: list[Record], replications: int) -> tuple[int, int]:
    """(attempted, failed) units of work: analyses, plus the resampling
    replications of each completed analysis."""
    completed = [r for r in records if r.output is not None]
    attempted = len(records) + replications * len(completed)
    failed = len(records) - len(completed) + sum(r.failed_replications for r in completed)
    return attempted, failed


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def per_layer(tracer, analyses: int, overhead: float, calib_s: float) -> dict:
    spans = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics = {}
    for name in ("glm.fit_design", "glm.fit", "glm.deviance_test", "model.design_matrix",
                 "fpsearch.best_fp", "fsp.fsp_select", "selection.backward_eliminate"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("mfp.mfp", "mfp.removal_order", "resample.stability",
                 "shrinkage.parameterwise_shrinkage", "cli.parse_config",
                 "cli.load_dataset", "cli.write_reports", "cli.render_text"):
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    stability_wall = tracer.busy_time("resample.stability")
    busy = tracer.busy_time("resample.selector")
    workers = ratio(counts["stability_workers"], calls("resample.stability"))
    metrics.update({
        "glm.irls_iterations": (counts["irls_iterations"], "count"),
        "glm.irls_per_fit": (ratio(counts["irls_iterations"], counts["irls_fits"]), "iter/fit"),
        "glm.nonconverged_fits": (counts["nonconverged_fits"], "count"),
        "glm.separated_fits": (counts["separated_fits"], "count"),
        "glm.aliased_fits": (counts["aliased_fits"], "count"),
        "glm.irls_wasted_frac": (ratio(counts["wasted_iterations"], counts["irls_iterations"]),
                                 "fraction"),
        "fpsearch.candidates": (counts["candidates"], "count"),
        "fpsearch.failed_candidates": (counts["failed_candidates"], "count"),
        "fpsearch.fits_per_call": (ratio(counts["fits_in_best_fp"], calls("fpsearch.best_fp")),
                                   "fits/call"),
        "fsp.repeat_frac": (ratio(counts["fsp_repeats"], calls("fsp.fsp_select")), "fraction"),
        "mfp.cycles_per_analysis": (ratio(counts["mfp_cycles"], calls("mfp.mfp")),
                                    "cycles/analysis"),
        "mfp.unconverged": (counts["mfp_unconverged"], "count"),
        "selection.steps": (counts["selection_steps"], "count"),
        "resample.replications": (counts["replications"], "count"),
        "resample.failed_replications": (counts["failed_replications"], "count"),
        "resample.selector_busy_s": (busy, "s"),
        "resample.parallel_efficiency": (ratio(busy, stability_wall * workers), "fraction"),
        "shrinkage.fold_fits": (counts["fold_fits"], "count"),
        "host.calib_s": (calib_s, "s"),
        "trace.analyses": (analyses, "count"),
        "trace.overhead_frac": (overhead, "fraction"),
    })
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(workload, args) -> int:
    import tracing
    import workloads

    warnings.simplefilter("ignore")
    os.chdir(workloads.ROOT)
    references = workloads.load_references(workload.name)
    if workloads.DEFAULT_SEED not in references:
        print(f"perfbench: no stored reference for {workload.name}", file=sys.stderr)
        return 2

    env = environment()
    probe = HostProbe()
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: n = {workload.n}, p = {workloads.P}, "
          f"{workload.family.value}; closed loop, one caller")

    # Warm-up: the anchor dataset, checked against its reference every run.
    anchor = analyse_datasets(workload, workloads.DEFAULT_SEED, 0, probe, count=1)
    problems = gate(workload, workloads.DEFAULT_SEED, anchor, references)

    if args.trace:
        count = workload.trace_analyses
        plain = analyse_datasets(workload, args.seed, 1, probe, count=count)
        with tracing.Tracer() as tracer:
            traced = analyse_datasets(workload, args.seed, 1, probe, count=count,
                                      tracer=tracer)
        plain_s = sum(r.seconds for r in plain)
        traced_s = sum(r.seconds for r in traced)
        records = plain + traced
        metrics = per_layer(tracer, count, 1.0 - plain_s / traced_s,
                            statistics.median(probe.samples))
        notes = {"trace.overhead_frac": f"analyses_per_s {count / plain_s:.4g} untraced, "
                                        f"{count / traced_s:.4g} traced, same {count} datasets"}
        extra = {}
    else:
        setup_s = setup_seconds(str(workloads.ROOT), str(workloads.SRC))
        records = analyse_datasets(workload, args.seed, 1, probe, seconds=args.seconds)
        metrics, notes = end_to_end(records, setup_s)
        extra = {"host.calib_s": (statistics.median(probe.samples), "s")}
    problems += gate(workload, args.seed, records, references)
    attempted, failed = failures(records, workload.replications)
    extra["failed_frac"] = (failed / attempted, "fraction")
    notes["failed_frac"] = f"{failed} of {attempted} attempted"
    notes["host.calib_s"] = (f"median of {len(probe.samples)} probes; times are scaled "
                             f"by {PROBE_REFERENCE_S} s / probe time")
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)

    stored = len(references.get(args.seed, []))
    checked = sum(1 for r in records if r.index < stored)
    if stored and checked < len(records):
        print(f"perfbench: warning: {len(records) - checked} analyses of seed {args.seed} "
              f"ran past its {stored} stored references and got only the invariant "
              f"checks", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<40} {value:.6g} {unit}{note}")
    print(f"gate: anchor dataset checked; {checked} of {len(records)} analyses of seed "
          f"{args.seed} checked against stored references; "
          f"{len(problems)} problem(s)")
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(names, args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            return completed.returncode or 1
        status = status or completed.returncode
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, entry in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(list(workloads.WORKLOADS), args)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_workload(workloads.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
