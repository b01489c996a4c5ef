"""Command line workflows, exit codes, config parsing, and output formats."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from emorank.cli import main
from emorank.config import Config, load_config, parse_config_file
from emorank.conv_metrics import DEFAULT_MCEP_BANDS
from emorank.dsp import save_wav
from emorank.errors import InvalidParamsError
from emorank.manifest import ManifestEntry, parse_manifest, write_manifest

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
        Config().validate()

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
        conv, ref = cli_corpus["corpus"] / "happy000.wav", cli_corpus["corpus"] / "neu000.wav"
        out = tmp_path / "out"
        if command == "eval-conversion":
            pairs = tmp_path / "pairs.tsv"
            pairs.write_text(f"converted_wav\treference_wav\n{conv}\t{ref}\n")
            argv = [command, "--pairs", str(pairs)]
        else:
            argv = [command, "--converted", str(conv), "--reference", str(ref)]
        capsys.readouterr()
        assert main(argv + ["--out", str(out), "--mcep-order", str(DEFAULT_MCEP_BANDS)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mcep_order must be in [1, 39]" in err
        assert not out.exists()

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
        ("converted_wav\treference_wav\n\n", "no conversion pairs"),
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

    @pytest.mark.parametrize("rows, message", [
        ("u1,a,0\nu1,b,1\nu2,a,0.5\n", "emb.csv:3: duplicate id 'u1'"),
        ("u1,a,0\n,b,1\nu2,a,0.5\n", "emb.csv:3: empty id ''"),
        ("u1,a,0\nu2,b,1\n", "every class has one embedding"),
    ], ids=["duplicate_id", "empty_id", "one_member_per_class"])
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

    def test_io_error_is_2(self, tmp_path, capsys):
        code = main(["extract-features", "--manifest", str(tmp_path / "nope.tsv"),
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("io error:")


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
