#!/usr/bin/env python3
"""Alternating benchmark pairs of two revisions of this repository.

    python3 tools/ab_pairs.py --base HEAD~1 --change HEAD --workload mfp_gauss shrink_loo \\
        --seed 1 --seconds 30 --pairs 10

`--workload` takes one or more names; the report gives one block per workload.

Both revisions are unpacked with `git archive` into a temporary directory, so
the working tree and the index are left untouched. A directory may be named
instead of a revision, such as `.` for the working tree: it is run in place,
so an uncommitted change can be timed. Each pair runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` once in each tree, and the tree that runs first
alternates from pair to pair, so that a drift of the host's speed falls on
both sides alike. For every end-to-end metric of `BENCHMARK.json` the report
gives each side's median [lower quartile, upper quartile], the ratio of the
medians, the number of pairs in which the change did better than the base,
and a verdict against the metric's bound (`verdict`), beside each tree's
`src/fpselect/*.py` line count (that of `cat src/fpselect/*.py | wc -l`). A
run that fails its reference gate stops the comparison. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(revision: str, dest: Path) -> Path:
    """Extract the tree of `revision` into `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return dest


def tree_of(where: str, dest: Path) -> Path:
    """The directory `where` names, or else the tree of revision `where`
    unpacked into `dest`."""
    return Path(where).resolve() if Path(where).is_dir() else unpack(where, dest)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metrics of one benchmark run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct"):
        sys.exit(f"{tree.name}: benchmark run failed (exit {proc.returncode})\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def source_lines(tree: Path) -> int:
    """Newlines in the tree's `src/fpselect/*.py`, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "fpselect").glob("*.py"))


def summary(values: list[float]) -> str:
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def wins(base: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change did better, ties counting for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - b) < 0 for b, c in zip(base, change))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric from paired runs (base[i] and
    change[i] are one pair), `better` being "lower" or "higher" and `bound` the
    fraction of the base median by which the metric may worsen (`BENCHMARK.json`):

    - "gain": the change did better in at least 9 of 10 pairs, ties counting
      for neither, and its median is better by more than the base's
      interquartile range;
    - "worse": the change's median is worse by more than the bound;
    - "unresolved": the base's interquartile range exceeds the bound, unless
      every change run is better than every base run;
    - "no worse" otherwise.

    A single pair has no spread to judge by: it is never a gain, and it is
    unresolved unless its change run is better."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    base_median, change_median = statistics.median(base), statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (0.0, 0.0, math.inf)
    if 10 * wins(base, change, better) >= 9 * len(base) and sign * (base_median - change_median) > q3 - q1:
        return "gain"
    if sign * (change_median - base_median) > bound * abs(base_median):
        return "worse"
    if q3 - q1 > bound * abs(base_median) and not (
            max(sign * c for c in change) < min(sign * b for b in base)):
        return "unresolved"
    return "no worse"


def report(workload: str, args: argparse.Namespace, lines: dict[str, int],
           metrics: dict[str, tuple[str, float]],
           results: dict[str, list[dict[str, float]]]) -> None:
    """Print one workload's block: each metric's summaries, wins and verdict."""
    print(f"{workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s; "
          f"base {args.base}, change {args.change}")
    print(f"src/fpselect/*.py lines: base {lines['base']}, change {lines['change']} "
          f"({lines['change'] - lines['base']:+d})")
    print(f"{'metric':<16} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} "
          f"{'change/base':>11} {'won':>7}  verdict (bound)")
    for name, (direction, bound) in metrics.items():
        base = [r[name] for r in results["base"]]
        change = [r[name] for r in results["change"]]
        won = wins(base, change, direction)
        ratio = statistics.median(change) / statistics.median(base)
        print(f"{name:<16} {summary(base):<30} {summary(change):<30} {ratio:>11.3f} "
              f"{won:>3}/{len(base)}  {verdict(base, change, direction, bound)} ({bound:g})",
              flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="revision or directory to compare against")
    parser.add_argument("--change", required=True, help="revision or directory under test")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as tmp:
        trees = {side: tree_of(getattr(args, side), Path(tmp) / side)
                 for side in ("base", "change")}
        lines = {side: source_lines(tree) for side, tree in trees.items()}
        for workload in args.workload:
            results: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    results[side].append(run(trees[side], workload, args.seed, args.seconds))
                print(f"{workload}: pair {pair + 1}/{args.pairs} done "
                      f"({' first, '.join(order)} second)", file=sys.stderr, flush=True)
            report(workload, args, lines, metrics, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
