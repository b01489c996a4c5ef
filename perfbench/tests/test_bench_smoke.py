"""Small versions of every workload, run end to end in both modes."""

import json
import math
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

SMALL = {
    "corpus_rank": lambda: workloads.CorpusRank(n_pairs=4),
    "eval_short": lambda: workloads.EvalShort(n_pairs=3),
}


@pytest.mark.parametrize("name", sorted(SMALL))
@pytest.mark.parametrize("trace", [False, True])
def test_small_workload_runs_and_checks(name, trace, tmp_path):
    workload = SMALL[name]()
    result, report = run.run(workload, seed=3, seconds=0.0, trace=trace, work=tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    units = layers.metric_units() if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers.layer_self_sum(values, report["from_fixed_pipeline"]) == pytest.approx(
            values["trace.self_sum_s"])
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
        assert report["named_metrics"]["error_rate"]["value"] == 0.0
    assert report["context"]["jobs"] == run.nproc()


def test_small_workload_is_deterministic_across_setups(tmp_path):
    workload = SMALL["eval_short"]()
    first = workload.write_inputs(tmp_path / "a", seed=5)
    second = workload.write_inputs(tmp_path / "b", seed=5)
    for conv, ref in first.pairs:
        for rel in (conv, ref):
            assert (first.root / rel).read_bytes() == (second.root / rel).read_bytes()


def test_unknown_workload_is_a_usage_error():
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", "nope",
                           "--seed", "1", "--seconds", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "--workload must be one of" in done.stderr


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus_rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
