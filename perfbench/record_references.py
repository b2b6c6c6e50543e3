"""Store the reference outputs that the benchmark's gate compares against.

    python3 perfbench/record_references.py mfp_gauss [more workloads]

Writes perfbench/references/<workload>.json with the outputs for datasets
0 .. reference_datasets - 1 of the default and the held-out seed. Record new
references only when a change is meant to alter the program's outputs, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import warnings

import run
import workloads


def record(name: str) -> None:
    workload = workloads.WORKLOADS[name]
    seeds = {}
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        records = run.analyse_datasets(workload, seed, 0, run.HostProbe(),
                                       count=workload.reference_datasets)
        if any(r.output is None for r in records):
            raise SystemExit(f"{name}: an analysis of seed {seed} failed; not recording")
        seeds[str(seed)] = [r.output for r in records]
    path = workloads.reference_path(name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(reference_text(name, seeds), encoding="utf-8")
    print(f"{path}: {sum(len(v) for v in seeds.values())} outputs")


def reference_text(name: str, seeds: dict[str, list[dict]]) -> str:
    """JSON with one stored output per line, so that a diff shows which
    datasets changed."""
    blocks = []
    for seed, outputs in seeds.items():
        rows = ",\n".join("  " + json.dumps(o, sort_keys=True) for o in outputs)
        blocks.append(f" {json.dumps(seed)}: [\n{rows}\n ]")
    return f'{{"workload": {json.dumps(name)}, "seeds": {{\n' + ",\n".join(blocks) + "\n}}\n"


def main(names) -> None:
    warnings.simplefilter("ignore")
    os.chdir(workloads.ROOT)
    for name in names or workloads.WORKLOADS:
        record(name)
    shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
