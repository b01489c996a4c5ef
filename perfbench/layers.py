"""Per-layer metrics from recorded spans, and the fixed-size kernel rows.

Layers are emorank's modules.  For each traced function the benchmark
reports, per workload cycle, its self time (`_s`) and call count
(`_calls`), and over all calls the median and 90th percentile of one
call's wall time (`_call_p50_ms`, `_call_p90_ms`).  A few counters are
computed from call arguments and results; they are labelled computed in
README.md.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import autocorr_macs, self_times

# Functions whose self time, call count and per-call percentiles are reported:
# every function spans.TRACE_POINTS wraps, so these self times plus cli_s
# add up to trace.self_sum_s.
FUNCTIONS = (
    "manifest.parse_manifest",
    "dsp.load_wav",
    "dsp.frame",
    "dsp.power_spectrogram",
    "kernels.autocorr_matrix",
    "kernels.dtw_table",
    "features.extract_feature_vector",
    "features.compute_llds",
    "features.delta",
    "features.functionals",
    "features.pitch_contour",
    "features.energy_contour",
    "features.write_features_csv",
    "features.read_features_csv",
    "ranker.build_pairs",
    "ranker.train_ranker",
    "ranker.score",
    "conv_metrics.mcep",
    "conv_metrics.mcd",
    "conv_metrics.ddur",
    "conv_metrics.dtw_align",
    "conv_metrics.contour_report",
)
FUNCTION_SUFFIXES = (("_s", "s"), ("_calls", "count"),
                     ("_call_p50_ms", "ms"), ("_call_p90_ms", "ms"))

# (name, unit, counter summed per cycle, span name)
COUNTERS = (
    ("kernels.autocorr_matrix_macs", "count", "macs", "kernels.autocorr_matrix"),
    ("kernels.dtw_table_cells", "count", "cells", "kernels.dtw_table"),
    ("ranker.build_pairs_ordered", "count", "ordered", "ranker.build_pairs"),
    ("ranker.train_ranker_iterations", "count", "iterations", "ranker.train_ranker"),
)
DERIVED = (
    ("kernels.dtw_table_ns_per_cell", "ns"),
    ("conv_metrics.dtw_align_peak_mb", "MB"),
    ("cli_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.untraced_cycle_s", "s"),
    ("trace.overhead_s", "s"),
)

# Calls timed on the traced pass's long pair (workloads.EvalLong), one each.
LONG_PAIR_CALLS = ("conv_metrics.contour_report", "conv_metrics.mcd")

DTW_SIZES = ((200, 200), (500, 500), (1000, 800))
AUTOCORR_SIZES = ((100, 400), (300, 640))
LAG_RANGE = (40, 267)
ROW_REPEAT = 3


def row_names() -> list:
    names = []
    for n, m in DTW_SIZES:
        base = f"kernels.row.dtw_table_{n}x{m}"
        names += [(base + "_ms", "ms"), (base + "_cells", "count"), (base + "_bytes", "B")]
    for f, length in AUTOCORR_SIZES:
        base = f"kernels.row.autocorr_matrix_{f}x{length}"
        names += [(base + "_ms", "ms"), (base + "_macs", "count"), (base + "_bytes", "B")]
    return names


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for fn in FUNCTIONS:
        for suffix, unit in FUNCTION_SUFFIXES:
            units[fn + suffix] = unit
    for name, unit, _, _ in COUNTERS:
        units[name] = unit
    for name, unit in DERIVED:
        units[name] = unit
    units.update(row_names())
    for fn in LONG_PAIR_CALLS:
        units[long_pair_name(fn)] = "ms"
    return units


def long_pair_name(fn: str) -> str:
    layer, name = fn.split(".")
    return f"{layer}.long_pair.{name}_ms"


def long_pair_metrics(spans) -> dict:
    """Median wall time of each LONG_PAIR_CALLS function in spans."""
    return {long_pair_name(fn): percentile([1e3 * s.duration for s in spans if s.name == fn],
                                           50)
            for fn in LONG_PAIR_CALLS}


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q in [0, 100] of a non-empty list."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def span_metrics(spans, n_cycles: int) -> dict:
    """Per-function metrics over spans recorded in n_cycles workload cycles.

    Functions with no span are left out; the caller fills them in.
    """
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for fn in FUNCTIONS:
        calls = by_name.get(fn)
        if not calls:
            continue
        durations_ms = [1e3 * s.duration for s in calls]
        out[fn + "_s"] = sum(own[s.span_id] for s in calls) / n_cycles
        out[fn + "_calls"] = len(calls) / n_cycles
        out[fn + "_call_p50_ms"] = percentile(durations_ms, 50)
        out[fn + "_call_p90_ms"] = percentile(durations_ms, 90)
    for name, _, counter, fn in COUNTERS:
        if by_name.get(fn):
            out[name] = sum(s.counters[counter] for s in by_name[fn]) / n_cycles
    if by_name.get("kernels.dtw_table"):
        out["kernels.dtw_table_ns_per_cell"] = (
            1e9 * out["kernels.dtw_table_s"] / out["kernels.dtw_table_cells"])
    cli = [s for s in spans if s.name.startswith("cli.")]
    out["cli_s"] = sum(own[s.span_id] for s in cli) / n_cycles
    out["trace.self_sum_s"] = sum(own.values()) / n_cycles
    return out


def layer_self_sum(metrics: dict, skip=()) -> float:
    """cli_s plus every reported function self time not named in skip."""
    return metrics["cli_s"] + sum(metrics.get(fn + "_s", 0.0) for fn in FUNCTIONS
                                  if fn + "_s" not in skip)


def largest_alignment(spans):
    """Arguments of the dtw_align call with the largest n * m * d, or None."""
    calls = [s for s in spans if s.name == "conv_metrics.dtw_align"]
    if not calls:
        return None
    best = max(calls, key=lambda s: s.counters["cells"] * s.counters["width"])
    return best.counters["args"]


def _median_ms(fn, *args) -> float:
    times = []
    for _ in range(ROW_REPEAT):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def kernel_rows() -> dict:
    """Time the active kernels on fixed random inputs of a few sizes.

    Operation counts and bytes are computed from the sizes: a DTW cell
    reads one cost and writes one table entry; an autocorrelation
    multiply-add reads two samples, and each lag writes one result.
    """
    from emorank import kernels

    rng = np.random.default_rng(0)
    out = {}
    for n, m in DTW_SIZES:
        base = f"kernels.row.dtw_table_{n}x{m}"
        cost = np.abs(rng.normal(size=(n, m)))
        out[base + "_ms"] = _median_ms(kernels.dtw_table, cost)
        out[base + "_cells"] = n * m
        out[base + "_bytes"] = 16 * n * m
    lag_min, lag_max = LAG_RANGE
    for f, length in AUTOCORR_SIZES:
        base = f"kernels.row.autocorr_matrix_{f}x{length}"
        frames = rng.normal(size=(f, length))
        macs = autocorr_macs(frames, lag_min, lag_max)
        out[base + "_ms"] = _median_ms(kernels.autocorr_matrix, frames, lag_min, lag_max)
        out[base + "_macs"] = macs
        out[base + "_bytes"] = 16 * macs + 8 * f * (lag_max - lag_min + 1)
    return out
