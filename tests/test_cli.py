"""Command line workflows, exit codes, config parsing, and output formats."""

import json
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import emorank
from emorank import errors
from emorank.cli import main
from emorank.config import DEFAULT_MCEP_BANDS, Config, load_config, parse_config_file
from emorank.conv_metrics import contour_report, write_contour_csv
from emorank.dsp import load_wav, save_wav
from emorank.errors import InvalidParamsError
from emorank.features import FEATURE_CSV_COLUMNS, extract_feature_vector, read_features_csv
from emorank.manifest import MANIFEST_COLUMNS, ManifestEntry, parse_manifest, write_manifest

FLOAT_FIELDS = [f.name for f in fields(Config) if isinstance(f.default, float)]
TIMESTAMP_RE = re.compile(r'^\s*"generated_at": "[^"]+",?$', re.MULTILINE)


def _strip_timestamp(text: str) -> str:
    return TIMESTAMP_RE.sub("", text)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """Synthetic corpus plus extracted features, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["synth-corpus", "--out-dir", str(corpus), "--pairs", "4"]) == 0
    features = root / "features.csv"
    assert main(["extract-features", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(features)]) == 0
    return {"root": root, "manifest": corpus / "manifest.tsv",
            "corpus": corpus, "features": features}


class TestConfig:
    def test_defaults_validate(self):
        Config()

    @pytest.mark.parametrize("setting", [{"pitch_fmin": 500.0}, {"voicing_threshold": 2.0},
                                         {"mcep_order": 40}, {"ddur_mode": "frames"}],
                             ids=["pitch_fmin", "voicing_threshold", "mcep_order", "ddur_mode"])
    def test_out_of_range_refused_when_built(self, setting):
        with pytest.raises(InvalidParamsError):
            Config(**setting)

    @pytest.mark.parametrize("setting", [{"mcep_order": 12.5}, {"seed": 1.5},
                                         {"pitch_fmax": "300"}, {"jobs": True},
                                         {"ranker_c": False}, {"ddur_mode": 1}],
                             ids=["mcep_order", "seed", "pitch_fmax", "jobs_bool",
                                  "ranker_c_bool", "ddur_mode"])
    def test_wrong_type_refused_when_built(self, setting):
        (name,) = setting
        with pytest.raises(InvalidParamsError, match=f"^{name} must be "):
            Config(**setting)

    def test_int_taken_for_float_field(self):
        assert Config(pitch_fmax=300).pitch_fmax == 300.0

    def test_fields_are_frozen(self):
        config = Config()
        with pytest.raises(FrozenInstanceError):
            config.pitch_fmax = 300.0
        assert config == Config()

    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nranker_c = 2.5\nseed = 9  # inline\nddur_mode = 'span'\n")
        values = parse_config_file(path)
        assert values == {"ranker_c": 2.5, "seed": 9, "ddur_mode": "span"}

    @pytest.mark.parametrize("key", ["rank_c", "mel_bands", "mel_frame_ms", "mel_hop_ms",
                                     "energy_frame_ms", "energy_hop_ms"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 2.0\n")
        with pytest.raises(InvalidParamsError):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = soon\n")
        with pytest.raises(InvalidParamsError):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ranker_c 2.0\n")
        with pytest.raises(InvalidParamsError):
            parse_config_file(path)

    def test_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ranker_c = 2.0\nseed = 5\n")
        config = load_config(path, ranker_c=3.0, seed=None)
        assert config.ranker_c == 3.0
        assert config.seed == 5

    def test_invalid_merged_config_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("ranker_c = -1.0\n")
        with pytest.raises(InvalidParamsError):
            load_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, tmp_path, name, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {value}\n")
        with pytest.raises(InvalidParamsError, match=f"{name} must be finite"):
            load_config(path)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParamsError, match="seed must be >= 0"):
            load_config(seed=-1)

    @pytest.mark.parametrize("order", [0, -1, DEFAULT_MCEP_BANDS, 100])
    def test_mcep_order_out_of_range_rejected(self, order):
        with pytest.raises(InvalidParamsError, match=r"mcep_order must be in \[1, 39\]"):
            load_config(mcep_order=order)

    @pytest.mark.parametrize("order", [1, DEFAULT_MCEP_BANDS - 1])
    def test_mcep_order_range_ends_accepted(self, order):
        assert load_config(mcep_order=order).mcep_order == order


def _conversion_argv(cli_corpus, tmp_path, command, conv=None) -> list:
    """eval-conversion or contours on conv (default happy000) against neu000, without --out."""
    conv, ref = conv or cli_corpus["corpus"] / "happy000.wav", cli_corpus["corpus"] / "neu000.wav"
    if command == "eval-conversion":
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"converted_wav\treference_wav\n{conv}\t{ref}\n")
        return [command, "--pairs", str(pairs)]
    return [command, "--converted", str(conv), "--reference", str(ref)]


def _pair_row(tmp_path, command) -> str:
    """What eval-conversion puts before an analysis error: the pairs file and its line."""
    return f"{tmp_path / 'pairs.tsv'}:2: " if command == "eval-conversion" else ""


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 1
        capsys.readouterr()

    def test_domain_error_is_1(self, tmp_path, capsys):
        path = tmp_path / "manifest.tsv"
        path.write_text("bad header\n")
        code = main(["extract-features", "--manifest", str(path),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_contours_sample_rate_mismatch_is_1(self, tmp_path, capsys):
        for name, sr in (("conv.wav", 16000), ("ref.wav", 22050)):
            t = np.arange(sr) / sr
            save_wav(tmp_path / name, 0.5 * np.sin(2.0 * np.pi * 220.0 * t), sr)
        code = main(["contours", "--converted", str(tmp_path / "conv.wav"),
                     "--reference", str(tmp_path / "ref.wav"),
                     "--out", str(tmp_path / "c.csv")])
        assert code == 1
        assert "sample rates differ" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_conversion_error_names_its_pair_row(self, cli_corpus, tmp_path, capsys):
        # The fourth pair, on line 5, holds a 22.05 kHz copy of its reference.
        corpus = cli_corpus["corpus"]
        save_wav(tmp_path / "neu003.wav", load_wav(corpus / "neu003.wav").samples, 22050)
        rows = [f"{corpus / f'happy00{i}.wav'}\t{corpus / f'neu00{i}.wav'}\n" for i in range(3)]
        rows.append(f"{corpus / 'happy003.wav'}\t{tmp_path / 'neu003.wav'}\n")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("converted_wav\treference_wav\n" + "".join(rows))
        out = tmp_path / "r.json"
        capsys.readouterr()
        assert main(["eval-conversion", "--pairs", str(pairs), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {pairs}:5: sample rates differ: "
                                           "converted 16000 Hz, reference 22050 Hz\n")
        assert not out.exists()

    def test_extract_mixed_sample_rates_is_1(self, tmp_path, capsys):
        # Frame lengths and Mel bands follow the rate: rows of two rates do not compare.
        for name, sr in (("a.wav", 16000), ("b.wav", 22050)):
            t = np.arange(sr) / sr
            save_wav(tmp_path / name, 0.5 * np.sin(2.0 * np.pi * 220.0 * t), sr)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("utt_id\twav_path\tspeaker\temotion\tsplit\n"
                            "u0\ta.wav\tspk\tneutral\ttrain\n"
                            "u1\tb.wav\tspk\thappy\ttrain\n")
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: manifest wavs differ in sample rate: {tmp_path / 'a.wav'} "
                       f"is 16000 Hz, {tmp_path / 'b.wav'} is 22050 Hz\n")
        assert not out.exists()

    @staticmethod
    def _extract_cut_wav(tmp_path, capsys, n_samples: int, n_data_bytes: int) -> str:
        """Exit code check for extract-features on a WAV cut to n_data_bytes."""
        t = np.arange(n_samples) / 16000
        save_wav(tmp_path / "cut.wav", 0.5 * np.sin(2.0 * np.pi * 220.0 * t), 16000)
        data = (tmp_path / "cut.wav").read_bytes()
        (tmp_path / "cut.wav").write_bytes(data[: 44 + n_data_bytes])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("utt_id\twav_path\tspeaker\temotion\tsplit\n"
                            "u0\tcut.wav\tspk\tneutral\ttrain\n")
        code = main(["extract-features", "--manifest", str(manifest),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert not (tmp_path / "f.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "truncated sample data" in err
        return err

    def test_truncated_wav_is_1(self, tmp_path, capsys):
        self._extract_cut_wav(tmp_path, capsys, 1600, 501)

    def test_wav_shorter_than_header_is_1(self, tmp_path, capsys):
        err = self._extract_cut_wav(tmp_path, capsys, 600, 500)
        assert "500 of 1200 declared bytes" in err

    def test_non_finite_feature_vector_is_1(self, cli_corpus, tmp_path, capsys, monkeypatch):
        # No valid audio gives one; a vector with a NaN must still not reach the file.
        monkeypatch.setattr("emorank.cli.extract_feature_vector",
                            lambda *args, **kwargs: np.full(384, np.nan))
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert main(["extract-features", "--manifest", str(cli_corpus["manifest"]),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature row 'neu000' holds a non-finite value" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-conversion", "contours"])
    def test_alignment_over_budget_is_1(self, cli_corpus, tmp_path, capsys, monkeypatch,
                                        command):
        monkeypatch.setattr("emorank.conv_metrics.MAX_DTW_CELLS", 100)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(_conversion_argv(cli_corpus, tmp_path, command) + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(r"aligning \d+ with \d+ frames", err)
        assert "above the limit of 100" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-conversion", "contours"])
    def test_pair_too_short_to_frame_is_1(self, cli_corpus, tmp_path, capsys, command):
        # Zero-padded to one frame, 5 samples would align and give a plausible MCD.
        save_wav(tmp_path / "short.wav", np.full(5, 0.1), 16000)
        argv = _conversion_argv(cli_corpus, tmp_path, command, conv=tmp_path / "short.wav")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {_pair_row(tmp_path, command)}converted waveform has 5 samples, "
                       "fewer than one 640-sample frame\n")
        assert not out.exists()

    def test_wav_too_short_to_frame_is_1(self, tmp_path, capsys):
        # Zero-padded to one frame, 5 samples would give a plausible vector.
        save_wav(tmp_path / "short.wav", np.full(5, 0.1), 16000)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("utt_id\twav_path\tspeaker\temotion\tsplit\n"
                            "u0\tshort.wav\tspk\tneutral\ttrain\n")
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {tmp_path / 'short.wav'}: waveform has 5 samples, "
                       "fewer than one 400-sample frame\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-conversion", "contours", "extract-features"])
    def test_empty_lag_range_is_1(self, cli_corpus, tmp_path, capsys, command):
        # 10 ms frames at 16 kHz hold lags up to 159 samples, and F0 up to
        # 100 Hz needs 160 or more: no contour can be tracked.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lld_frame_ms = 10\npitch_frame_ms = 10\npitch_fmax = 100\n")
        if command == "extract-features":
            argv = [command, "--manifest", str(cli_corpus["manifest"])]
            where = f"{parse_manifest(cli_corpus['manifest'])[0].wav_path}: "
        else:
            argv = _conversion_argv(cli_corpus, tmp_path, command)
            where = _pair_row(tmp_path, command)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {where}a 160-sample frame at 16000 Hz holds fewer than two lags "
                       "for F0 in [60, 100] Hz (lags 160..159)\n")
        assert not out.exists()

    def test_non_finite_features_is_1(self, cli_corpus, cli_model, tmp_path, capsys):
        lines = cli_corpus["features"].read_text().splitlines()
        for row, value in ((1, "nan"), (2, "inf")):
            fields = lines[row].split(",")
            fields[7] = value
            lines[row] = ",".join(fields)
        features = tmp_path / "bad.csv"
        features.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["score-intensity", "--model", str(cli_model),
                     "--features", str(features), "--out", str(tmp_path / "s.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad.csv:2: non-finite feature value" in err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, line", [
        ("extract-features", "lld_frame_ms = nan"),
        ("extract-features", "silence_rms = nan"),
        ("train-ranker", "ranker_c = inf"),
        ("train-ranker", None),
    ], ids=["lld_frame_ms_nan", "silence_rms_nan", "ranker_c_inf", "flag_c_nan"])
    def test_non_finite_config_is_1(self, cli_corpus, tmp_path, capsys, command, line):
        out = tmp_path / "out"
        argv = [command, "--manifest", str(cli_corpus["manifest"]), "--out", str(out)]
        if command == "train-ranker":
            argv += ["--features", str(cli_corpus["features"]), "--emotion", "happy"]
        if line is None:
            argv += ["--c", "nan"]
        else:
            (tmp_path / "run.cfg").write_text(line + "\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-ranker", "synth-corpus"])
    def test_negative_seed_is_1(self, cli_corpus, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "train-ranker":
            argv = [command, "--features", str(cli_corpus["features"]),
                    "--manifest", str(cli_corpus["manifest"]), "--emotion", "happy",
                    "--out", str(out), "--seed", "-1"]
        else:
            argv = [command, "--out-dir", str(out), "--pairs", "1", "--seed", "-1"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval-conversion", "contours"])
    def test_mcep_order_out_of_range_is_1(self, cli_corpus, tmp_path, capsys, monkeypatch,
                                          command):
        def no_work(*args, **kwargs):
            raise AssertionError("contour_report ran before the order was checked")

        monkeypatch.setattr("emorank.cli.contour_report", no_work)
        out = tmp_path / "out"
        argv = _conversion_argv(cli_corpus, tmp_path, command)
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--mcep-order", str(DEFAULT_MCEP_BANDS)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mcep_order must be in [1, 39]" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("extract-features", "lld_frame_ms"),
                                              ("contours", "pitch_frame_ms")])
    def test_frame_too_long_is_1(self, cli_corpus, tmp_path, capsys, monkeypatch, command,
                                 key):
        # Refused with the settings, before any audio is read or framed.
        def no_work(*args, **kwargs):
            raise AssertionError("audio was read before the frame length was checked")

        monkeypatch.setattr("emorank.cli.load_wav", no_work)
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = 1e300\n")
        if command == "contours":
            argv = [command, "--converted", str(cli_corpus["corpus"] / "happy000.wav"),
                    "--reference", str(cli_corpus["corpus"] / "neu000.wav")]
        else:
            argv = [command, "--manifest", str(cli_corpus["manifest"])]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(argv + ["--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} must be at most 1000 ms" in err
        assert not out.exists()
        load_config(lld_frame_ms=1000.0, pitch_frame_ms=1000.0)  # the bound itself passes

    def test_score_with_wrong_width_model_writes_nothing(self, cli_corpus, cli_model,
                                                         tmp_path, capsys):
        payload = json.loads(cli_model.read_text())
        for key in ("weights", "feature_mean", "feature_std"):
            payload[key] = payload[key][:10]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "s.csv"
        capsys.readouterr()
        code = main(["score-intensity", "--model", str(model),
                     "--features", str(cli_corpus["features"]), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "expected vector of shape (10,)" in err
        assert not out.exists()

    def test_n_similar_above_cap_is_1(self, cli_corpus, tmp_path, capsys):
        out = tmp_path / "model.json"
        capsys.readouterr()
        code = main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]), "--emotion", "happy",
                     "--out", str(out), "--n-similar", "10001"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_similar must be in [0, 10000]" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("converted\treference\n", "pairs.tsv:1: header must be"),
        ("converted_wav\treference_wav\n\na.wav\tb.wav\tc.wav\n",
         "pairs.tsv:3: expected 2 fields, got 3"),
        ("converted_wav\treference_wav\n\n", "pairs.tsv: no rows after the header"),
    ], ids=["header", "three_fields", "no_rows"])
    def test_bad_pairs_tsv_is_1(self, tmp_path, capsys, text, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(text)
        out = tmp_path / "r.json"
        capsys.readouterr()
        code = main(["eval-conversion", "--pairs", str(pairs), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, header", [
        ("extract-features", "--manifest", "\t".join(MANIFEST_COLUMNS)),
        ("score-intensity", "--features", ",".join(FEATURE_CSV_COLUMNS)),
    ], ids=["extract-features", "score-intensity"])
    def test_header_only_table_is_1(self, cli_model, tmp_path, capsys, command, flag, header):
        # Read as no rows, either would exit 0 and write a header-only CSV.
        table = tmp_path / "table.txt"
        table.write_text(header + "\n")
        argv = [command, flag, str(table), "--out", str(tmp_path / "out.csv")]
        if command == "score-intensity":
            argv += ["--model", str(cli_model)]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {table}: no rows after the header\n"
        assert not (tmp_path / "out.csv").exists()

    def test_make_manifest_of_no_wavs_is_1(self, tmp_path, capsys):
        (tmp_path / "tree" / "spk" / "happy").mkdir(parents=True)
        out = tmp_path / "m.tsv"
        capsys.readouterr()
        assert main(["make-manifest", "--root", str(tmp_path / "tree"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out}: no rows after the header\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows, message", [
        ("u1,a,0\nu1,b,1\nu2,a,0.5\n", "emb.csv:3: duplicate id 'u1'"),
        ("u1,a,0\n,b,1\nu2,a,0.5\n", "emb.csv:3: empty id ''"),
        ("u1,a,0\nu2,b,1\n", "every class has one embedding"),
        ("u1,a,0\nu2,b,10\nu3,b,9\nu4,b,11\n", "class 'a' has one embedding"),
        # Finite values whose squared centroid distances overflow float64.
        ("u1,a,0\nu2,a,1e200\nu3,b,5e200\nu4,b,6e200\n", "mean distances overflow"),
    ], ids=["duplicate_id", "empty_id", "one_member_per_class", "one_single_member_class",
            "overflowing_distances"])
    def test_bad_embeddings_is_1(self, tmp_path, capsys, rows, message):
        emb = tmp_path / "emb.csv"
        emb.write_text("id,label,d0\n" + rows)
        out = tmp_path / "cluster.json"
        capsys.readouterr()
        code = main(["eval-clustering", "--embeddings", str(emb), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("speaker, stem", [("spk\tx", "a"), ("spk", "a\nb")],
                             ids=["tab_in_speaker", "newline_in_stem"])
    def test_make_manifest_unreadable_field_is_1(self, cli_corpus, tmp_path, capsys,
                                                 speaker, stem):
        target = tmp_path / "tree" / speaker / "happy"
        target.mkdir(parents=True)
        (target / f"{stem}.wav").write_bytes((cli_corpus["corpus"] / "neu000.wav").read_bytes())
        out = tmp_path / "m.tsv"
        capsys.readouterr()
        assert main(["make-manifest", "--root", str(tmp_path / "tree"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "holds a tab or a line break" in err
        assert not out.exists()

    def test_comma_id_rejected_before_extracting(self, cli_corpus, tmp_path, capsys,
                                                 monkeypatch):
        # make-manifest accepts a comma in a file name; extract-features must
        # refuse the id it makes before loading any audio.
        target = tmp_path / "tree" / "spk" / "happy"
        target.mkdir(parents=True)
        (target / "a,b.wav").write_bytes((cli_corpus["corpus"] / "neu000.wav").read_bytes())
        manifest = tmp_path / "m.tsv"
        assert main(["make-manifest", "--root", str(tmp_path / "tree"),
                     "--out", str(manifest)]) == 0
        loads = []
        monkeypatch.setattr("emorank.cli.load_wav", lambda path: loads.append(path))
        out = tmp_path / "f.csv"
        capsys.readouterr()
        assert main(["extract-features", "--manifest", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "feature id 'spk_a,b' holds a comma or a line break" in err
        assert loads == []
        assert not out.exists()

    def test_overflowing_feature_column_is_1(self, cli_corpus, tmp_path, capsys):
        # Column f007 holds finite values of +-1e308, whose std overflows.
        lines = cli_corpus["features"].read_text().splitlines()
        for row in range(1, len(lines)):
            fields = lines[row].split(",")
            fields[8] = repr((-1.0) ** row * 1e308)
            lines[row] = ",".join(fields)
        features = tmp_path / "huge.csv"
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        capsys.readouterr()
        code = main(["train-ranker", "--features", str(features),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "feature column 7 overflows" in err
        assert not out.exists()

    def test_io_error_is_2(self, tmp_path, capsys):
        code = main(["extract-features", "--manifest", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("io error:")


def _run_cli(*argv) -> subprocess.CompletedProcess:
    """emorank's command line in a child process, stderr captured as text."""
    env = dict(os.environ, PYTHONPATH=str(Path(emorank.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "emorank.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_numpy_transforms_and_no_scipy():
    # perfbench/memprobe.py counts resident growth after `import emorank.cli`
    # as the commands' work, so the modules they use load with the import:
    # numpy.fft, and numpy.random, which train-ranker and synth-corpus draw
    # from.  SciPy, which the package does not need, must not load at all.
    child = ("import sys, emorank.cli\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             "                      if m.split('.')[0] in ('scipy', 'numpy'))))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(emorank.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", child], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert {"numpy.fft", "numpy.random"} <= loaded
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_config_imports_no_analysis_module():
    # config sits below the analyses: they read it, it reads none of them.
    # The package's __init__ imports every module for its public names, so
    # the child puts a bare package in its place to see config's own imports.
    child = ("import sys, types\n"
             "package = types.ModuleType('emorank')\n"
             f"package.__path__ = [{str(Path(emorank.__file__).parent)!r}]\n"
             "sys.modules['emorank'] = package\n"
             "import emorank.config\n"
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('emorank.'))))\n")
    result = subprocess.run([sys.executable, "-c", child],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "emorank.config" in loaded
    assert not loaded & {"emorank.ranker", "emorank.features", "emorank.conv_metrics"}


class TestNonUtf8Input:
    """Text that is not UTF-8, read or to be written, exits 1 and names the file."""

    @staticmethod
    def _assert_rejected(result, path):
        assert result.returncode == 1, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: {path}: not UTF-8 text")

    def test_manifest_table(self, cli_corpus, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(cli_corpus["manifest"].read_bytes() + b"neu\xff\tx.wav\n")
        out = tmp_path / "f.csv"
        result = _run_cli("extract-features", "--manifest", manifest, "--out", out)
        self._assert_rejected(result, manifest)
        assert not out.exists()

    def test_config_file(self, cli_corpus, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed = 3  # caf\xe9\n")
        out = tmp_path / "model.json"
        result = _run_cli("train-ranker", "--config", config, "--features",
                          cli_corpus["features"], "--manifest", cli_corpus["manifest"],
                          "--emotion", "happy", "--out", out)
        self._assert_rejected(result, config)
        assert not out.exists()

    def test_model_json(self, cli_corpus, cli_model, tmp_path):
        model = tmp_path / "model.json"
        model.write_bytes(cli_model.read_bytes().replace(b'"happy"', b'"h\xffppy"'))
        out = tmp_path / "scores.csv"
        result = _run_cli("score-intensity", "--model", model,
                          "--features", cli_corpus["features"], "--out", out)
        self._assert_rejected(result, model)
        assert not out.exists()

    def test_manifest_of_a_file_name_not_utf8(self, cli_corpus, tmp_path):
        # The name's byte 0xff decodes to a surrogate, which UTF-8 cannot encode.
        target = tmp_path / "tree" / "spk" / "happy"
        target.mkdir(parents=True)
        try:
            (target / os.fsdecode(b"a\xff.wav")).write_bytes(
                (cli_corpus["corpus"] / "neu000.wav").read_bytes())
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        out = tmp_path / "m.tsv"
        result = _run_cli("make-manifest", "--root", tmp_path / "tree", "--out", out)
        self._assert_rejected(result, out)
        assert not out.exists()


def _assert_one_error_line(result, prefix):
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(prefix) and result.stderr.count("\n") == 1, result.stderr
    assert "Traceback" not in result.stderr and "Warning" not in result.stderr


class TestOverflowingScore:
    def test_huge_feature_value_is_1(self, cli_corpus, cli_model, tmp_path):
        # A finite f007 of 1e308 in row 2 overflows when standardized by the
        # model; the error names the features file.
        lines = cli_corpus["features"].read_text().splitlines()
        fields = lines[1].split(",")
        fields[8] = "1e308"
        lines[1] = ",".join(fields)
        features = tmp_path / "huge.csv"
        features.write_text("\n".join(lines) + "\n")
        out = tmp_path / "scores.csv"
        result = _run_cli("score-intensity", "--model", cli_model,
                          "--features", features, "--out", out)
        _assert_one_error_line(result, f"error: {features}: feature column 7 overflows float64")
        assert not out.exists()


class TestOverflowingClusters:
    def test_huge_embeddings_name_their_file(self, tmp_path):
        # Finite embeddings whose centroid distances overflow float64.
        emb = tmp_path / "emb.csv"
        emb.write_text("id,label,d0,d1\na,x,1e200,0\nb,x,-1e200,0\nc,y,1e200,1\n"
                       "d,y,-1e200,1\n")
        out = tmp_path / "cluster.json"
        result = _run_cli("eval-clustering", "--embeddings", emb, "--out", out)
        _assert_one_error_line(result, f"error: {emb}: ")
        assert not out.exists()


def test_five_error_kinds():
    # Every EmorankError exits 1, so the package keeps one class per kind of failure.
    kinds = {obj for obj in vars(errors).values()
             if isinstance(obj, type) and issubclass(obj, errors.EmorankError)}
    assert kinds - {errors.EmorankError} == {
        errors.InvalidParamsError, errors.ParseError, errors.NonFiniteError,
        errors.EmptyInputError, errors.DimensionMismatchError}
    assert all(kind.__bases__ == (errors.EmorankError,) for kind in kinds - {errors.EmorankError})


@pytest.fixture(scope="module")
def cli_model(cli_corpus):
    """A happy-intensity model trained on the CLI corpus."""
    model = cli_corpus["root"] / "model.json"
    assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                 "--manifest", str(cli_corpus["manifest"]),
                 "--emotion", "happy", "--out", str(model)]) == 0
    return model


class TestFailureInjection:
    """An output directory that does not exist is an I/O error, exit 2."""

    def _inputs(self, command, cli_corpus, cli_model, tmp_path) -> list:
        if command == "extract-features":
            return ["--manifest", str(cli_corpus["manifest"])]
        if command == "eval-conversion":
            corpus = cli_corpus["corpus"]
            pairs = tmp_path / "pairs.tsv"
            pairs.write_text("converted_wav\treference_wav\n"
                             f"{corpus}/happy000.wav\t{corpus}/neu000.wav\n")
            return ["--pairs", str(pairs)]
        return ["--model", str(cli_model), "--features", str(cli_corpus["features"])]

    @pytest.mark.parametrize("command", ["extract-features", "eval-conversion",
                                         "score-intensity"])
    @pytest.mark.parametrize("where", ["out", "config_out_dir"])
    def test_missing_output_dir_is_2(self, cli_corpus, cli_model, tmp_path, capsys,
                                     command, where):
        missing = tmp_path / "missing"
        argv = [command] + self._inputs(command, cli_corpus, cli_model, tmp_path)
        if where == "out":
            argv += ["--out", str(missing / "result")]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"out_dir = {missing}\n")
            argv += ["--out", "result", "--config", str(config)]
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("io error:")
        assert not missing.exists()
        assert sorted(tmp_path.iterdir()) == before


class TestDescribeFeatures:
    def test_stdout_payload(self, capsys):
        assert main(["extract-features", "--describe-features"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_features"] == 384
        assert payload["features"][0] == {"index": 0, "name": "f000",
                                          "column": "zcr", "functional": "mean"}

    def test_file_payload(self, tmp_path, capsys):
        out = tmp_path / "features.json"
        assert main(["extract-features", "--describe-features", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert len(payload["features"]) == 384

    def test_missing_out_rejected(self, capsys):
        assert main(["extract-features"]) == 1
        capsys.readouterr()


class TestPipeline:
    def test_extract_is_deterministic(self, cli_corpus, tmp_path, capsys):
        again = tmp_path / "features2.csv"
        assert main(["extract-features", "--manifest", str(cli_corpus["manifest"]),
                     "--out", str(again), "--jobs", "3"]) == 0
        capsys.readouterr()
        assert again.read_bytes() == cli_corpus["features"].read_bytes()

    def test_train_then_score(self, cli_corpus, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(model_path)]) == 0
        scores_path = tmp_path / "scores.csv"
        assert main(["score-intensity", "--model", str(model_path),
                     "--features", str(cli_corpus["features"]),
                     "--out", str(scores_path)]) == 0
        capsys.readouterr()

        payload = json.loads(model_path.read_text())
        assert payload["version"] == 1
        assert payload["emotion"] == "happy"
        assert len(payload["weights"]) == 384

        lines = scores_path.read_text().splitlines()
        assert lines[0] == "utt_id,intensity"
        values = {}
        for line in lines[1:]:
            utt_id, value = line.split(",")
            values[utt_id] = float(value)
        assert len(values) == 8
        assert all(0.0 <= v <= 1.0 for v in values.values())
        neu = np.mean([v for k, v in values.items() if k.startswith("neu")])
        emo = np.mean([v for k, v in values.items() if k.startswith("happy")])
        assert emo > neu + 0.5

    def test_train_uses_train_rows_of_two_emotions(self, cli_corpus, cli_model,
                                                   tmp_path, capsys):
        # An eval-split row and a row of a third emotion, both with features,
        # leave the training set and so the model unchanged.
        entries = parse_manifest(cli_corpus["manifest"])
        extra = [ManifestEntry("x_eval", entries[1].wav_path, "spk", "happy", "eval"),
                 ManifestEntry("x_sad", entries[0].wav_path, "spk", "sad", "train")]
        manifest = tmp_path / "manifest.tsv"
        write_manifest(entries + extra, manifest)
        features = tmp_path / "features.csv"
        assert main(["extract-features", "--manifest", str(manifest),
                     "--out", str(features)]) == 0
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert main(["train-ranker", "--features", str(features),
                     "--manifest", str(manifest), "--emotion", "happy",
                     "--out", str(model)]) == 0
        assert "happy ranker on 8 utterances (16 ordered, 8 similar pairs)" in \
            capsys.readouterr().out
        assert model.read_bytes() == cli_model.read_bytes()

    def test_train_unknown_emotion_rejected(self, cli_corpus, tmp_path, capsys):
        code = main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "bored", "--out", str(tmp_path / "m.json")])
        assert code == 1
        capsys.readouterr()

    def test_train_duplicate_feature_id_rejected(self, cli_corpus, tmp_path, capsys):
        lines = cli_corpus["features"].read_text().splitlines()
        features = tmp_path / "dup.csv"
        features.write_text("\n".join(lines + [lines[1]]) + "\n")
        code = main(["train-ranker", "--features", str(features),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert f"dup.csv:{len(lines) + 1}: duplicate id" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("feature_std", 0.0), ("weights", float("nan"))])
    def test_score_with_unusable_model_is_1(self, cli_corpus, tmp_path, capsys, field, value):
        model_path = tmp_path / "model.json"
        assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        payload[field][5] = value
        model_path.write_text(json.dumps(payload))
        scores_path = tmp_path / "scores.csv"
        code = main(["score-intensity", "--model", str(model_path),
                     "--features", str(cli_corpus["features"]),
                     "--out", str(scores_path)])
        assert code == 1
        assert "model.json" in capsys.readouterr().err
        assert not scores_path.exists()

    def test_eval_conversion_report(self, cli_corpus, tmp_path, capsys):
        corpus = cli_corpus["corpus"]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("converted_wav\treference_wav\n"
                         f"{corpus}/happy000.wav\t{corpus}/neu000.wav\n"
                         f"{corpus}/neu001.wav\t{corpus}/neu001.wav\n")
        out = tmp_path / "report.json"
        assert main(["eval-conversion", "--pairs", str(pairs), "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert set(payload) == {"generated_at", "pairs", "summary"}
        assert payload["summary"]["n_pairs"] == 2
        self_pair = payload["pairs"][1]
        assert self_pair["mcd_db"] == 0.0
        assert self_pair["ddur_s"] == 0.0
        cross_pair = payload["pairs"][0]
        assert cross_pair["mcd_db"] > 0.0

    def test_eval_conversion_jobs_invariant(self, cli_corpus, tmp_path, capsys):
        corpus = cli_corpus["corpus"]
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("converted_wav\treference_wav\n" + "".join(
            f"{corpus}/happy{i:03d}.wav\t{corpus}/neu{i:03d}.wav\n" for i in range(4)))
        out1 = tmp_path / "r1.json"
        out4 = tmp_path / "r4.json"
        assert main(["eval-conversion", "--pairs", str(pairs), "--out", str(out1),
                     "--jobs", "1"]) == 0
        assert main(["eval-conversion", "--pairs", str(pairs), "--out", str(out4),
                     "--jobs", "4"]) == 0
        capsys.readouterr()
        assert _strip_timestamp(out1.read_text()) == _strip_timestamp(out4.read_text())

    def test_missing_pair_wav_is_domain_error(self, cli_corpus, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("converted_wav\treference_wav\nnope.wav\tnope.wav\n")
        code = main(["eval-conversion", "--pairs", str(pairs),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        capsys.readouterr()

    def test_contours_csv(self, cli_corpus, tmp_path, capsys):
        corpus = cli_corpus["corpus"]
        out = tmp_path / "contours.csv"
        assert main(["contours", "--converted", f"{corpus}/happy000.wav",
                     "--reference", f"{corpus}/neu000.wav", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "path_idx,i,j,f0_conv,f0_ref,energy_conv,energy_ref"
        assert len(lines) > 10

    def test_eval_clustering_report(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        emb = tmp_path / "emb.csv"
        rows = ["id,label,d0,d1"]
        for i in range(10):
            rows.append(f"n{i},neutral,{rng.normal()},{rng.normal()}")
            rows.append(f"h{i},happy,{rng.normal() + 5.0},{rng.normal()}")
        emb.write_text("\n".join(rows) + "\n")
        out = tmp_path / "cluster.json"
        assert main(["eval-clustering", "--embeddings", str(emb),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["class_names"] == ["happy", "neutral"]
        assert 0.0 < payload["ratio"] < 1.0
        assert len(payload["centroids"]) == 2

    def test_make_manifest(self, cli_corpus, tmp_path, capsys):
        root = tmp_path / "tree"
        for emotion, stem in (("happy", "a"), ("neutral", "b")):
            target = root / "spk1" / emotion
            target.mkdir(parents=True)
            source = cli_corpus["corpus"] / "neu000.wav"
            (target / f"{stem}.wav").write_bytes(source.read_bytes())
        out = tmp_path / "manifest.tsv"
        assert main(["make-manifest", "--root", str(root), "--out", str(out),
                     "--split", "eval"]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0] == "utt_id\twav_path\tspeaker\temotion\tsplit"
        assert len(lines) == 3
        assert lines[1].startswith("spk1_a\t")

    def test_config_file_changes_training(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ranker_c = 0.5\nseed = 3\n")
        out = tmp_path / "model.json"
        assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(out),
                     "--config", str(cfg)]) == 0
        assert json.loads(out.read_text())["C"] == 0.5
        flag_out = tmp_path / "model2.json"
        assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]),
                     "--emotion", "happy", "--out", str(flag_out),
                     "--config", str(cfg), "--c", "2.0"]) == 0
        capsys.readouterr()
        assert json.loads(flag_out.read_text())["C"] == 2.0

    def test_synth_corpus_rerun_identical(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["synth-corpus", "--out-dir", str(out), "--pairs", "2",
                         "--seed", "11"]) == 0
        capsys.readouterr()
        for name in ("manifest.tsv", "neu000.wav", "happy001.wav"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSettingsReachCommands:
    """Each Config key set in a file or by its flag changes what its command computes."""

    # Every flag whose value lands in a Config key, by subcommand, as load_config sees it.
    OVERRIDES = {
        "extract-features": (["--jobs", "3"], {"jobs": 3}),
        "train-ranker": (["--c", "0.5", "--n-similar", "4", "--seed", "6"],
                         {"ranker_c": 0.5, "n_similar": 4, "seed": 6}),
        "score-intensity": ([], {}),
        "eval-clustering": ([], {}),
        "eval-conversion": (["--mcep-order", "12", "--ddur-mode", "span", "--jobs", "1"],
                            {"mcep_order": 12, "ddur_mode": "span", "jobs": 1}),
        "contours": (["--mcep-order", "12", "--ddur-mode", "span"],
                     {"mcep_order": 12, "ddur_mode": "span"}),
        "make-manifest": ([], {}),
        # --out-dir and --seed name the corpus directory and seed, not Config keys.
        "synth-corpus": (["--seed", "3"], {}),
    }

    @pytest.mark.parametrize("command", sorted(OVERRIDES))
    def test_flag_overrides_by_command(self, cli_corpus, cli_model, tmp_path, capsys,
                                       monkeypatch, command):
        seen = {}

        def spy(file_path=None, **overrides):
            seen.update({k: v for k, v in overrides.items() if v is not None})
            raise InvalidParamsError("stop after the merge")

        monkeypatch.setattr("emorank.cli.load_config", spy)
        out = str(tmp_path / "out")
        inputs = {
            "extract-features": ["--manifest", str(cli_corpus["manifest"]), "--out", out],
            "train-ranker": ["--features", str(cli_corpus["features"]), "--manifest",
                             str(cli_corpus["manifest"]), "--emotion", "happy", "--out", out],
            "score-intensity": ["--model", str(cli_model), "--features",
                                str(cli_corpus["features"]), "--out", out],
            "eval-clustering": ["--embeddings", "emb.csv", "--out", out],
            "eval-conversion": ["--pairs", "pairs.tsv", "--out", out],
            "contours": ["--converted", "c.wav", "--reference", "r.wav", "--out", out],
            "make-manifest": ["--root", str(tmp_path), "--out", out],
            "synth-corpus": ["--out-dir", out, "--pairs", "1"],
        }[command]
        flags, expected = self.OVERRIDES[command]
        main([command] + inputs + flags)
        capsys.readouterr()
        assert seen == expected

    # The ids are the ones earlier runs of the suite reported, kept so results compare.
    @pytest.mark.parametrize("key, value", [
        ("lld_frame_ms", 30.0),
        ("lld_hop_ms", 12.0),
        ("pitch_fmin", 150.0),
        ("pitch_fmax", 250.0),
        ("voicing_threshold", 0.8),
        ("silence_rms", 0.05),
    ], ids=["lld_frame_ms-frame_ms-30.0", "lld_hop_ms-hop_ms-12.0", "pitch_fmin-fmin-150.0",
            "pitch_fmax-fmax-250.0", "voicing_threshold-voicing_threshold-0.8",
            "silence_rms-silence_rms-0.05"])
    def test_config_reaches_extract_features(self, cli_corpus, tmp_path, capsys, key, value):
        wav = cli_corpus["corpus"] / "happy000.wav"
        manifest = tmp_path / "m.tsv"
        manifest.write_text("utt_id\twav_path\tspeaker\temotion\tsplit\n"
                            f"u0\t{wav}\tspk\thappy\ttrain\n")
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--manifest", str(manifest), "--out", str(out),
                     "--config", str(tmp_path / "run.cfg")]) == 0
        capsys.readouterr()
        waveform = load_wav(wav)
        expected = extract_feature_vector(waveform, config=Config(**{key: value}))
        assert not np.array_equal(expected, extract_feature_vector(waveform))
        np.testing.assert_array_equal(read_features_csv(out)[1][0], expected)

    CONTOUR_SETTINGS = [("pitch_frame_ms", 30.0), ("pitch_hop_ms", 12.0),
                        ("pitch_fmin", 150.0), ("pitch_fmax", 250.0),
                        ("voicing_threshold", 0.8), ("silence_rms", 0.05),
                        ("mcep_order", 12), ("ddur_mode", "span")]

    @pytest.mark.parametrize("key, value", CONTOUR_SETTINGS,
                             ids=[key for key, _ in CONTOUR_SETTINGS])
    def test_setting_reaches_contours(self, cli_corpus, tmp_path, capsys, monkeypatch,
                                      key, value):
        reports = []

        def recording(*args, **kw):
            reports.append(contour_report(*args, **kw))
            return reports[-1]

        monkeypatch.setattr("emorank.cli.contour_report", recording)
        # A key with a flag on this command is set by its flag, the others by a config file.
        if key in ("mcep_order", "ddur_mode"):
            flags = ["--" + key.replace("_", "-"), str(value)]
        else:
            (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        conv, ref = cli_corpus["corpus"] / "happy001.wav", cli_corpus["corpus"] / "neu001.wav"
        out = tmp_path / "c.csv"
        assert main(["contours", "--converted", str(conv), "--reference", str(ref),
                     "--out", str(out)] + flags) == 0
        capsys.readouterr()

        def summary(report):
            return report.mcd_db, report.ddur_s, report.f0_path.tolist()

        expected = contour_report(load_wav(conv), load_wav(ref), Config(**{key: value}))
        default = contour_report(load_wav(conv), load_wav(ref))
        assert summary(expected) != summary(default)
        assert [summary(r) for r in reports] == [summary(expected)]
        write_contour_csv(expected, tmp_path / "expected.csv")
        assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize("flags", [["--c", "0.25"], ["--n-similar", "3"], ["--seed", "5"]],
                             ids=["c", "n_similar", "seed"])
    def test_flag_changes_model(self, cli_corpus, cli_model, tmp_path, capsys, flags):
        out = tmp_path / "model.json"
        assert main(["train-ranker", "--features", str(cli_corpus["features"]),
                     "--manifest", str(cli_corpus["manifest"]), "--emotion", "happy",
                     "--out", str(out)] + flags) == 0
        capsys.readouterr()
        assert out.read_bytes() != cli_model.read_bytes()
