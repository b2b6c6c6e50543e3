#!/usr/bin/env python3
"""Whether two revisions of this repository give the same outputs, bit for bit.

    python3 tools/same_outputs.py --base HEAD~1 --change HEAD --workload mfp_gauss \\
        --seeds 1 8191 --datasets 40

`--workload` takes one or more names and defaults to all four workloads.

Each revision is unpacked with `git archive` into a temporary directory; a
directory may be named instead of a revision, such as `.` for the working
tree (`ab_pairs.tree_of`). In each tree a child process per workload runs the
first `--datasets` stored-reference datasets of that workload and each seed
through that tree's `perfbench/workloads.py`, checks each output against its
stored reference as the benchmark's gate does, and fingerprints it:

- MFP workloads: the summary the gate compares, the bytes of the final
  fit's coefficients and covariance, and every step p-value of every
  function decision, as hex;
- CLI workloads: the bytes of the report file, and for every selection run
  of `selection.backward_eliminate_batch` (each `stability_be`
  replication), in call order, its step p-values and deviances, as hex,
  and the bytes of its final fit's coefficients, or its error; a report of
  frequencies alone would not show a step that moved without changing the
  selected set.

The report names every dataset whose fingerprints differ and every gate
problem, and gives per analysis on each side the calls to `glm._householder`,
`glm._irls` and `glm._solve` (least-squares solves on a factorisation), the
IRLS iterations (the sum of the iteration counts of the fits each `glm._irls`
call returns; a fit that lost rank returns none) and the designs factorised:
the depth of each `glm._scaled_qrs` stack, a 2-D call counting 1, IRLS
steps included, and the models fitted: the fits handed to each
`glm._fit_chunk` call, through which every model's least squares solve or
IRLS run passes, so a model fitted again counts again. Each count is given
as its mean over the analyses and its 99th percentile, which shows the work
of the heaviest analyses, where a timing tail comes from.
`_householder` calls may fall by design, when designs are factorised in
stacks instead of one at a time; the designs factorised must not rise. The
exit code is 1 when a fingerprint differs or a reference check fails. Only
the standard library is imported here; the child processes run each tree's
own code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

from ab_pairs import tree_of

# What each call of a counted function adds: 1, or the designs it factorises.
COUNTED = {"_householder": lambda *args: 1, "_irls": lambda *args: 1,
           "_solve": lambda *args: 1,
           "_scaled_qrs": lambda At, peak: 1 if At.ndim == 2 else len(At),
           "_fit_chunk": lambda fits, *args, **kwargs: len(fits)}
# Counts read from a counted function's result: (count, what the result adds).
RESULTS = {"_irls": ("irls_iterations",
                     lambda fits: sum(fit[4] for fit in fits if isinstance(fit, tuple)))}
LABELS = {"_scaled_qrs": "designs factorised", "_fit_chunk": "models fitted",
          "irls_iterations": "IRLS iterations"}
COUNTS = (*COUNTED, *(count for count, _ in RESULTS.values()))
WORKLOADS = ("mfp_gauss", "stability_be", "shrink_loo", "mfp_binom")


def _fingerprint(workload, result, traces: list) -> str:
    """SHA-1 of an analysis's output, as the module docstring defines it;
    `traces` holds the results of its `backward_eliminate_batch` calls."""
    digest = hashlib.sha1()
    if hasattr(result, "decisions"):
        digest.update(json.dumps(workload.summarize(result)[0], sort_keys=True).encode())
        digest.update(result.fit.coefficients.tobytes())
        digest.update(result.fit.covariance.tobytes())
        for variable, decision in result.decisions.items():
            digest.update(variable.encode())
            digest.update(" ".join(float(p).hex() for p in decision.step_pvalues).encode())
    else:
        digest.update((workload.directory / "out" / f"{workload.subcommand}_report.json")
                      .read_bytes())
        for trace in traces:
            if isinstance(trace, Exception):
                digest.update(f"{type(trace).__name__}: {trace}".encode())
                continue
            digest.update(" ".join(f"{step.p_value.hex()} {step.deviance_after.hex()}"
                                   for step in trace.steps).encode())
            digest.update(trace.final_fit.coefficients.tobytes())
    return digest.hexdigest()


def child(tree: Path, name: str, seeds: list[int], datasets: int) -> None:
    """Analyse the datasets in `tree` and print one JSON line per dataset."""
    # The tree's own modules, imported here so that the parent process needs
    # only the standard library; workloads puts the tree's src on the path.
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    from fpselect import glm, selection, simlab

    os.chdir(workloads.ROOT)
    warnings.simplefilter("ignore")
    calls = dict.fromkeys(COUNTS, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += COUNTED[name](*args, **kwargs)
            result = real(*args, **kwargs)
            if name in RESULTS:
                count, adds = RESULTS[name]
                calls[count] += adds(result)
            return result
        return wrapper

    for function in COUNTED:
        setattr(glm, function, counting(function, getattr(glm, function)))
    traces: list = []
    batch = selection.backward_eliminate_batch

    def recording(*args, **kwargs):
        results = batch(*args, **kwargs)
        traces.extend(results)
        return results

    # simlab calls the name it imported
    selection.backward_eliminate_batch = simlab.backward_eliminate_batch = recording
    workload = workloads.WORKLOADS[name]
    references = workloads.load_references(name)
    for seed in seeds:
        stored = references.get(seed, [])
        for index in range(min(datasets, len(stored))):
            prepared = workload.prepare(seed, index)
            calls.update(dict.fromkeys(COUNTS, 0))
            traces.clear()
            try:
                result = workload.analyse(prepared)
            except Exception as error:  # any failure is this dataset's output
                line = {"fingerprint": f"raised {type(error).__name__}: {error}",
                        "problems": ["analysis raised; the reference has an output"]}
            else:
                output = workload.summarize(result)[0]
                line = {"fingerprint": _fingerprint(workload, result, traces),
                        "problems": workload.check(output) + workload.compare(output,
                                                                              stored[index])}
            print(json.dumps({"seed": seed, "index": index, **line, **calls}), flush=True)
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)


def analyse(tree: Path, name: str, seeds: list[int], datasets: int) -> list[dict]:
    """The child's records for one tree."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
           "--workload", name, "--seeds", *map(str, seeds), "--datasets", str(datasets)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{tree}: analysis failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def report(name: str, base: str, change: str, seeds: list[int],
           records: dict[str, list[dict]]) -> int:
    """Print one workload's comparison; returns the number of problems."""
    print(f"{name}, seeds {' '.join(map(str, seeds))}, "
          f"{len(records['base'])} datasets; base {base}, change {change}")
    bad = 0
    for base_record, change_record in zip(records["base"], records["change"]):
        where = f"seed {base_record['seed']} dataset {base_record['index']}"
        for side, record in (("base", base_record), ("change", change_record)):
            for problem in record["problems"]:
                print(f"{side} {where}: {problem}")
                bad += 1
        if base_record["fingerprint"] != change_record["fingerprint"]:
            print(f"{where}: outputs differ")
            bad += 1
    if len(records["base"]) != len(records["change"]):
        print("the trees analysed different numbers of datasets")
        bad += 1
    same = sum(b["fingerprint"] == c["fingerprint"]
               for b, c in zip(records["base"], records["change"]))
    print(f"{same} of {len(records['change'])} outputs identical")
    print(f"{'per analysis':<20} {'base mean':>10} {'p99':>8} {'change mean':>12} {'p99':>8}")
    for function in COUNTS:
        cells = []
        for side in ("base", "change"):
            counts = [r[function] for r in records[side]] or [0]
            p99 = (statistics.quantiles(counts, n=100, method="inclusive")[98]
                   if len(counts) > 1 else counts[0])
            cells.append(f"{statistics.fmean(counts):.2f} {p99:>8.1f}")
        label = LABELS.get(function, f"glm.{function}")
        print(f"{label:<20} {cells[0]:>19} {cells[1]:>21}")
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="revision or directory to compare against")
    parser.add_argument("--change", help="revision or directory under test")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS),
                        help="workloads to compare (default: all four)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--datasets", type=int, default=10,
                        help="stored-reference datasets per seed (at most those stored)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        for name in args.workload:
            child(args.child.resolve(), name, args.seeds, args.datasets)
        return 0
    if not (args.base and args.change):
        parser.error("--base and --change are required")

    bad = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        trees = {side: tree_of(getattr(args, side), Path(tmp) / side)
                 for side in ("base", "change")}
        for name in args.workload:
            records = {side: analyse(tree, name, args.seeds, args.datasets)
                       for side, tree in trees.items()}
            bad += report(name, args.base, args.change, args.seeds, records)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
