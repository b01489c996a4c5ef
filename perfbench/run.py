#!/usr/bin/env python3
"""Pipeline benchmark: emorank's CLI on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus_rank --seed 1 --seconds 10 --trace 0

One caller runs the workload's subcommands through `emorank.cli.main` in a
closed loop, each after the previous one returns, with `--jobs` set to the
CPU count, and checks every output.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced pass.  The lines
before it are a readable report: run context, every named metric with its
unit, and the checks.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Recorder, traced as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 3
# The small pipeline that measures layers a workload does not call.
FIXED_SEED = 0
FIXED_PAIRS = 4

# Metrics gated by BENCHMARK.json; each is defined on every workload.
E2E_UNITS = {"setup_s": "s", "audio_s_per_s": "s/s", "cycle_s": "s", "peak_mem_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def memprobe(*args) -> float:
    """Peak MB of the given probe, run in a fresh process."""
    done = subprocess.run([sys.executable, str(HERE / "memprobe.py"), *map(str, args)],
                          env=child_env(), capture_output=True, text=True, timeout=120,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"memprobe {args[0]} failed: {done.stderr.strip()[-500:]}")
    return float(json.loads(done.stdout.splitlines()[-1])["peak_mb"])


def load_reference(key: str, seed: int) -> dict:
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(key, {}).get(str(seed), {})


class Runner:
    """Runs one workload's command list and checks what it wrote."""

    def __init__(self, workload, inputs, jobs: int, reference: dict) -> None:
        from emorank import cli

        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.commands = workload.commands(inputs, jobs)
        self.reference = reference
        self.baseline = None
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.named: dict = {}

    def _call(self, argv, recorder):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if recorder is None:
                    code = self.cli.main(argv)
                else:
                    with recorder.span("cli." + argv[0]):
                        code = self.cli.main(argv)
        except (Exception, SystemExit):  # noqa: BLE001 - a crash is a failed command
            code = -1
            err.write(traceback.format_exc())
        return code, out.getvalue(), err.getvalue()

    def cycle(self, recorder=None):
        """Run every command once, in order; return the per-command wall times."""
        walls, codes, stdout = [], [], []
        with tracing(recorder) if recorder else contextlib.nullcontext():
            for argv in self.commands:
                t0 = time.perf_counter()
                code, out, err = self._call(argv, recorder)
                walls.append(time.perf_counter() - t0)
                codes.append(code)
                stdout.append(out)
                if code != 0:
                    self.failures.append(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
        self.attempted += len(self.commands)
        self.failed += sum(code != 0 for code in codes)
        if any(codes):
            return walls
        outputs = {name: self.workload.out(self.inputs, name).read_bytes()
                   for name in self.workload.output_names()}
        result = workloads.CycleResult(walls, codes, stdout, outputs)
        try:
            self.named, failures = self.workload.check(self.inputs, result, self.reference)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures = [f"output check raised {exc!r}"]
        stripped = {k: workloads.strip_generated_at(v) for k, v in outputs.items()}
        if self.baseline is None:
            self.baseline = stripped
        elif stripped != self.baseline:
            changed = sorted(k for k in stripped if stripped[k] != self.baseline.get(k))
            failures.append(f"outputs differ from the first run in this process: {changed}")
        if failures:
            self.failed += 1
            self.failures.extend(failures)
        return walls


def setup(workload, seed: int, work: Path, repeats: int):
    """Time `import emorank.cli` in a fresh process plus writing the inputs."""
    times = []
    inputs = None
    for k in range(repeats):
        if inputs is not None:
            shutil.rmtree(inputs.root)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import emorank.cli"], env=child_env(),
                       check=True, timeout=120)
        inputs = workload.write_inputs(work / f"setup{k}", seed)
        times.append(time.perf_counter() - t0)
    return inputs, times


def context(workload, seed: int, jobs: int, inputs) -> dict:
    import scipy

    from emorank import kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": kernels.active_backend(),
        "jobs": jobs,
        "input_sizes": inputs.sizes,
    }


def measure(runner, seconds: float, traced_recorder=None):
    """Closed loop for `seconds`, at least two cycles.  With a recorder,
    cycles alternate between untraced and traced."""
    plain, traced = [], []
    start = time.perf_counter()
    while (len(plain) + len(traced) < 2 or time.perf_counter() - start < seconds):
        if traced_recorder is not None and len(traced) < len(plain):
            traced.append(runner.cycle(traced_recorder))
        else:
            plain.append(runner.cycle())
    return plain, traced


def end_to_end(workload, runner, inputs, plain, setup_times, work: Path) -> tuple:
    """Gated metrics plus the named metrics of the readable report."""
    audio = inputs.sizes["audio_s"]
    # Best of the run's cycles: a neighbour on a shared host can only slow
    # a cycle down, so the fastest one is the steadiest estimate of the
    # program's own time (see README.md, "Why the fastest cycle").
    cycle_s = min(sum(walls) for walls in plain)
    audio_rate = max(audio / walls[0] for walls in plain)
    commands_file = work / "commands.json"
    commands_file.write_text(json.dumps(runner.commands), encoding="utf-8")
    runner.attempted += len(runner.commands)
    try:
        peak = memprobe("cli", commands_file)
    except RuntimeError as exc:
        runner.failed += len(runner.commands)
        runner.failures.append(str(exc))
        peak = 0.0
    gated = {"setup_s": statistics.median(setup_times), "audio_s_per_s": audio_rate,
             "cycle_s": cycle_s, "peak_mem_mb": peak}
    named = {"cycle_median_s": (statistics.median(sum(w) for w in plain), "s")}
    if workload.name == "corpus_rank":
        named["extract_audio_s_per_s"] = (audio_rate, "s/s")
        named["train_s"] = (min(w[1] for w in plain), "s")
        named["score_s"] = (min(w[2] for w in plain), "s")
        named["rank_accuracy"] = (runner.named.get("rank_accuracy", float("nan")), "share")
    else:
        named["eval_audio_s_per_s"] = (audio_rate, "s/s")
    named["error_rate"] = (runner.failed / max(runner.attempted, 1), "share")
    return gated, named


def run_fixed(runner, workload, work: Path, reference: dict, recorder) -> None:
    """One traced cycle of a fixed-seed workload; its failures count in runner's."""
    inputs = workload.write_inputs(work / f"fixed_{workload.name}", FIXED_SEED)
    fixed = Runner(workload, inputs, nproc(), reference)
    fixed.cycle(recorder)
    runner.attempted += fixed.attempted
    runner.failed += fixed.failed
    runner.failures += fixed.failures


def per_layer(runner, plain, traced, recorder, work: Path) -> tuple:
    """Layer metrics from the traced cycles.  Layers the workload does not
    call are measured on a small fixed pipeline; their names are returned.
    The long-pair metrics come from one traced run of the 10 s pair."""
    metrics = layers.span_metrics(recorder.spans, len(traced))
    untraced = statistics.median(sum(w) for w in plain)
    metrics["trace.untraced_cycle_s"] = untraced
    metrics["trace.overhead_s"] = statistics.median(sum(w) for w in traced) - untraced

    fixed_spans = Recorder()
    for cls in (workloads.CorpusRank, workloads.EvalShort):
        run_fixed(runner, cls(n_pairs=FIXED_PAIRS), work, {}, fixed_spans)
    fixed_metrics = layers.span_metrics(fixed_spans.spans, 1)
    from_fixed = sorted(k for k in fixed_metrics if k not in metrics)
    metrics.update({k: fixed_metrics[k] for k in from_fixed})

    long_spans = Recorder()
    long_pair = workloads.EvalLong()
    run_fixed(runner, long_pair, work, load_reference(long_pair.reference_key, FIXED_SEED),
              long_spans)
    metrics.update(layers.long_pair_metrics(long_spans.spans))
    alignment = layers.largest_alignment(long_spans.spans)
    np.save(work / "align_a.npy", alignment[0])
    np.save(work / "align_b.npy", alignment[1])
    try:
        metrics["conv_metrics.dtw_align_peak_mb"] = memprobe(
            "dtw_align", work / "align_a.npy", work / "align_b.npy")
    except RuntimeError as exc:
        runner.failed += 1
        runner.failures.append(str(exc))
        metrics["conv_metrics.dtw_align_peak_mb"] = 0.0
    metrics.update(layers.kernel_rows())
    return metrics, from_fixed


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Run one workload; return (result line, readable report)."""
    import emorank.cli  # noqa: F401 - imported before set-up is timed

    jobs = nproc()
    inputs, setup_times = setup(workload, seed, work, 1 if trace else SETUP_REPEATS)
    reference = load_reference(workload.reference_key, seed)
    runner = Runner(workload, inputs, jobs, reference)
    recorder = Recorder() if trace else None
    plain, traced = measure(runner, seconds, recorder)
    report = {"context": context(workload, seed, jobs, inputs),
              "reference_checked": bool(reference)}
    if trace:
        metrics, from_fixed = per_layer(runner, plain, traced, recorder, work)
        units = layers.metric_units()
        report["from_fixed_pipeline"] = from_fixed
        report["traced_cycles"] = len(traced)
    else:
        metrics, named = end_to_end(workload, runner, inputs, plain, setup_times, work)
        units = E2E_UNITS
        report["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    report["timed_cycles"] = len(plain)
    report["outputs"] = {k: v for k, v in runner.named.items() if not isinstance(v, list)}
    report["failures"] = runner.failures
    result = {
        "correct": runner.failed == 0 and not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def print_report(report: dict, result: dict) -> None:
    ctx = report["context"]
    print(f"# workload {ctx['workload']}  seed {ctx['seed']}  jobs {ctx['jobs']}  "
          f"nproc {ctx['nproc']}  backend {ctx['backend']}")
    print(f"# {ctx['cpu']}; python {ctx['python']}, numpy {ctx['numpy']}, "
          f"scipy {ctx['scipy']}")
    print("# inputs " + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in ctx["input_sizes"].items()))
    shown = dict(result["metrics"])
    shown.update(report.get("named_metrics", {}))
    for name, entry in shown.items():
        print(f"{name:44s} {entry['value']:14.6g} {entry['unit']}")
    metrics = result["metrics"]
    if "trace.self_sum_s" in metrics:
        untraced, overhead = (metrics[k]["value"] for k in (
            "trace.untraced_cycle_s", "trace.overhead_s"))
        layer_sum = layers.layer_self_sum({k: v["value"] for k, v in metrics.items()},
                                          report["from_fixed_pipeline"])
        print(f"# accounting: layer self times plus cli_s {layer_sum:.4f} s per traced "
              f"cycle = untraced cycle {untraced:.4f} s + tracing overhead "
              f"{overhead:.4f} s {layer_sum - untraced - overhead:+.4f} s")
    print(f"# checks: {'pass' if result['correct'] else 'FAIL'} "
          f"({result['failed']} failed of {result['attempted']} commands)")
    print("# report " + json.dumps(report, sort_keys=True))


def main(argv=None) -> int:
    from_checkout = (SRC / "emorank" / "cli.py").is_file()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not from_checkout:
        print(f"error: {SRC / 'emorank'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, report = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
