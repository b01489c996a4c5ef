#!/usr/bin/env python3
"""Record the reference outputs that run.py checks each run against.

    python3 perfbench/record_reference.py --seeds 0-9

For every workload and seed this writes the inputs, runs the workload's
commands once and stores the checked values in reference.json.  Run it only
on a commit whose outputs are known to be right, and only when an intended
output change has been recorded in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record(workload, seed: int, work) -> dict:
    """Run the workload once on its inputs for seed and return its reference entry."""
    try:
        inputs = workload.write_inputs(work, seed)
        runner = run.Runner(workload, inputs, run.nproc(), {})
        runner.cycle()
        if runner.failures:
            raise RuntimeError(f"{workload.name} seed {seed}: {runner.failures}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reference_entry(runner.named)


def reference_entry(named: dict) -> dict:
    """The checked values of one cycle, as reference.json stores them."""
    if "features_sha256" in named:
        return {"features_sha256": named["features_sha256"],
                "feature_column_means": [float(f"{v:.12g}")
                                         for v in named["feature_column_means"]],
                "feature_row_means": [float(f"{v:.12g}") for v in named["feature_row_means"]],
                "final_objective": named["final_objective"],
                "scores": named["scores"],
                "rank_accuracy": named["rank_accuracy"]}
    return {"report_sha256": named["report_sha256"], "mean_mcd_db": named["mean_mcd_db"],
            "mean_ddur_s": named["mean_ddur_s"], "mcd_db": named["mcd_db"],
            "ddur_s": named["ddur_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="one seed or a range, as 0-9")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    table = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    for cls in (*workloads.WORKLOADS.values(), workloads.EvalLong):
        workload = cls()
        entries = table.setdefault(workload.reference_key, {})
        for seed in seed_range(args.seeds):
            entries[str(seed)] = record(workload, seed,
                                       run.WORK / f"reference-{workload.name}-{seed}")
            print(f"{workload.reference_key} seed {seed}: recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
