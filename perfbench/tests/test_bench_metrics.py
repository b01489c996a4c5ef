"""Metric naming, BENCHMARK.json agreement, and per-layer arithmetic."""

import json
import re
from pathlib import Path

import pytest

import layers
import run
import workloads
from spans import TRACE_POINTS, Span

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics the benchmark was asked to report.
REQUIRED_LAYER_METRICS = (
    "kernels.autocorr_matrix_s", "kernels.autocorr_matrix_macs", "features.compute_llds_s",
    "features.functionals_s", "features.delta_s", "dsp.power_spectrogram_s", "dsp.frame_s",
    "features.pitch_contour_s", "features.energy_contour_s", "kernels.dtw_table_s",
    "kernels.dtw_table_cells", "kernels.dtw_table_ns_per_cell", "conv_metrics.dtw_align_s",
    "conv_metrics.dtw_align_peak_mb", "conv_metrics.mcep_s", "conv_metrics.mcd_s",
    "conv_metrics.ddur_s", "conv_metrics.contour_report_s", "ranker.build_pairs_s",
    "ranker.build_pairs_ordered", "ranker.train_ranker_s", "ranker.train_ranker_iterations",
    "ranker.score_s", "features.read_features_csv_s", "manifest.parse_manifest_s",
    "dsp.load_wav_s", "features.write_features_csv_s",
)


def test_layer_names_and_units_are_well_formed():
    units = layers.metric_units()
    assert len(units) <= 128
    for name, unit in units.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    for name in REQUIRED_LAYER_METRICS:
        assert name in units


def test_every_traced_function_has_percentiles_and_a_count():
    units = layers.metric_units()
    for fn in layers.FUNCTIONS:
        for suffix, unit in layers.FUNCTION_SUFFIXES:
            assert units[fn + suffix] == unit


def test_every_traced_function_is_reported():
    # Otherwise its self time would count in trace.self_sum_s and no layer metric.
    assert {name for _, _, name in TRACE_POINTS} <= set(layers.FUNCTIONS)


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["why"] for m in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.metric_units()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_span_metrics_per_cycle_and_per_call():
    spans = [
        Span(1, "cli.eval-conversion", 0.0, 4.0, None, 0),
        Span(2, "kernels.dtw_table", 0.0, 1.0, 1, 0, counters={"cells": 100}),
        Span(3, "kernels.dtw_table", 1.0, 3.0, 1, 0, counters={"cells": 300}),
    ]
    metrics = layers.span_metrics(spans, n_cycles=2)
    assert metrics["kernels.dtw_table_s"] == pytest.approx(1.5)
    assert metrics["kernels.dtw_table_calls"] == 1
    assert metrics["kernels.dtw_table_call_p50_ms"] == pytest.approx(1500.0)
    assert metrics["kernels.dtw_table_call_p90_ms"] == pytest.approx(1900.0)
    assert metrics["kernels.dtw_table_cells"] == 200
    assert metrics["kernels.dtw_table_ns_per_cell"] == pytest.approx(1.5e9 / 200)
    assert metrics["cli_s"] == pytest.approx(0.5)
    assert metrics["trace.self_sum_s"] == pytest.approx(2.0)
    assert "ranker.train_ranker_s" not in metrics


def test_strip_generated_at_only_drops_the_timestamp():
    text = b'{\n  "generated_at": "2026-01-01T00:00:00+00:00",\n  "pairs": []\n}\n'
    assert workloads.strip_generated_at(text) == b'{\n  "pairs": []\n}\n'


def test_end_to_end_reports_the_fastest_cycle(monkeypatch, tmp_path):
    from types import SimpleNamespace

    monkeypatch.setattr(run, "memprobe", lambda *args: 12.5)
    runner = SimpleNamespace(commands=[["a"], ["b"], ["c"]], attempted=3, failed=0,
                             failures=[], named={"rank_accuracy": 1.0})
    inputs = SimpleNamespace(sizes={"audio_s": 10.0})
    plain = [[3.0, 1.0, 1.0], [2.0, 2.0, 0.5], [2.5, 0.5, 2.0]]
    gated, named = run.end_to_end(workloads.CorpusRank(), runner, inputs, plain,
                                  [0.3, 0.1, 0.2], tmp_path)
    assert gated == {"setup_s": 0.2, "audio_s_per_s": 5.0, "cycle_s": 4.5,
                     "peak_mem_mb": 12.5}
    assert named["train_s"] == (0.5, "s") and named["score_s"] == (0.5, "s")
    assert named["cycle_median_s"] == (5.0, "s")
