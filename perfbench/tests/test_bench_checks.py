"""The stored-reference checks fail on outputs that are wrong but well formed."""

import json
from dataclasses import replace

import pytest

import record_reference
import run
import workloads

SEED = 3


def run_once(workload, root):
    """Run the workload's commands once; return its inputs and the cycle."""
    inputs = workload.write_inputs(root, SEED)
    runner = run.Runner(workload, inputs, run.nproc(), {})
    calls = [runner._call(argv, None) for argv in runner.commands]
    assert [code for code, _, _ in calls] == [0] * len(calls), [err for _, _, err in calls]
    outputs = {name: workload.out(inputs, name).read_bytes()
               for name in workload.output_names()}
    return inputs, workloads.CycleResult([], [0] * len(calls),
                                         [out for _, out, _ in calls], outputs)


def with_output(cycle, name, data: bytes):
    return replace(cycle, outputs={**cycle.outputs, name: data})


@pytest.fixture(scope="module")
def corpus_rank(tmp_path_factory):
    workload = workloads.CorpusRank(n_pairs=4)
    inputs, cycle = run_once(workload, tmp_path_factory.mktemp("corpus_rank"))
    named, failures = workload.check(inputs, cycle, {})
    assert failures == []
    reference = record_reference.reference_entry(named)
    assert workload.check(inputs, cycle, reference)[1] == []
    return workload, inputs, cycle, reference


def test_swapped_feature_rows_fail(corpus_rank):
    # Ids stay in order and column means are unchanged; only the rows move.
    workload, inputs, cycle, reference = corpus_rank
    lines = cycle.outputs["features.csv"].decode().splitlines()
    (id1, values1), (id2, values2) = (line.split(",", 1) for line in lines[1:3])
    lines[1:3] = [f"{id1},{values2}", f"{id2},{values1}"]
    swapped = with_output(cycle, "features.csv", ("\n".join(lines) + "\n").encode())
    failures = workload.check(inputs, swapped, reference)[1]
    assert "features differ from the stored reference" in failures


def test_shifted_score_fails(corpus_rank):
    workload, inputs, cycle, reference = corpus_rank
    lines = cycle.outputs["scores.csv"].decode().splitlines()
    utt, value = lines[1].split(",")
    lines[1] = f"{utt},{abs(float(value) - 1e-6)!r}"
    shifted = with_output(cycle, "scores.csv", ("\n".join(lines) + "\n").encode())
    failures = workload.check(inputs, shifted, reference)[1]
    assert "intensity scores differ from the stored reference" in failures


def test_worse_objective_fails(corpus_rank):
    workload, inputs, cycle, reference = corpus_rank
    model = json.loads(cycle.outputs["model.json"])
    model["solver_report"]["final_objective"] *= 1.001
    worse = with_output(cycle, "model.json", json.dumps(model).encode())
    failures = workload.check(inputs, worse, reference)[1]
    assert any(f.startswith("final objective") for f in failures)


def test_swapped_pair_metrics_fail(tmp_path):
    # The summary means stay right; only the per-pair values are mis-attributed.
    workload = workloads.EvalShort(n_pairs=3)
    inputs, cycle = run_once(workload, tmp_path)
    reference = record_reference.reference_entry(workload.check(inputs, cycle, {})[0])
    assert workload.check(inputs, cycle, reference)[1] == []
    report = json.loads(cycle.outputs["report.json"])
    first, second = report["pairs"][:2]
    first["mcd_db"], second["mcd_db"] = second["mcd_db"], first["mcd_db"]
    swapped = with_output(cycle, "report.json", json.dumps(report, indent=2).encode())
    failures = workload.check(inputs, swapped, reference)[1]
    assert failures == ["per-pair MCD/DDUR differ from the reference"]
