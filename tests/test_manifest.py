"""Manifest parsing, writing, tree scanning, and the demo corpus."""

import numpy as np
import pytest

from emorank.dsp import load_wav, save_wav
from emorank.errors import (
    DuplicateIdError,
    InvalidParamsError,
    MissingFileError,
    ParseError,
    UnknownEmotionError,
)
from emorank.manifest import (
    EMOTIONS,
    ManifestEntry,
    parse_manifest,
    scan_tree,
    write_manifest,
)
from emorank.synthcorpus import generate_mini_corpus

HEADER = "utt_id\twav_path\tspeaker\temotion\tsplit"


def _touch_wav(path):
    path.parent.mkdir(parents=True, exist_ok=True)
    save_wav(path, np.zeros(160), 16000)


class TestParseManifest:
    def _write(self, tmp_path, rows):
        for row in rows:
            _touch_wav(tmp_path / row.split("\t")[1])
        path = tmp_path / "manifest.tsv"
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        return path

    def test_round_trip(self, tmp_path):
        rows = ["u1\ta.wav\tspk\tneutral\ttrain", "u2\tsub/b.wav\tspk\thappy\teval"]
        manifest = parse_manifest(self._write(tmp_path, rows))
        assert len(manifest) == 2
        entry = {e.utt_id: e for e in manifest}["u2"]
        assert entry.emotion == "happy"
        assert entry.split == "eval"
        assert entry.wav_path == tmp_path / "sub/b.wav"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("id\twav\tspk\temotion\tsplit\n")
        with pytest.raises(ParseError):
            parse_manifest(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\nu1\ta.wav\tspk\tneutral\n")
        with pytest.raises(ParseError):
            parse_manifest(path)

    def test_duplicate_id(self, tmp_path):
        rows = ["u1\ta.wav\tspk\tneutral\ttrain", "u1\tb.wav\tspk\thappy\ttrain"]
        for row in rows:
            _touch_wav(tmp_path / row.split("\t")[1])
        path = tmp_path / "manifest.tsv"
        path.write_text("\n".join([HEADER, *rows]) + "\n")
        with pytest.raises(DuplicateIdError):
            parse_manifest(path)

    def test_unknown_emotion(self, tmp_path):
        _touch_wav(tmp_path / "a.wav")
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\nu1\ta.wav\tspk\tbored\ttrain\n")
        with pytest.raises(UnknownEmotionError):
            parse_manifest(path)

    def test_unknown_split(self, tmp_path):
        _touch_wav(tmp_path / "a.wav")
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\nu1\ta.wav\tspk\tneutral\ttest\n")
        with pytest.raises(ParseError):
            parse_manifest(path)

    def test_missing_wav(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\nu1\tnope.wav\tspk\tneutral\ttrain\n")
        with pytest.raises(MissingFileError):
            parse_manifest(path)

    def test_empty_id(self, tmp_path):
        _touch_wav(tmp_path / "a.wav")
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\n\ta.wav\tspk\tneutral\ttrain\n")
        with pytest.raises(ParseError):
            parse_manifest(path)

    def test_blank_lines_skipped(self, tmp_path):
        _touch_wav(tmp_path / "a.wav")
        path = tmp_path / "manifest.tsv"
        path.write_text(HEADER + "\n\nu1\ta.wav\tspk\tneutral\ttrain\n\n")
        assert len(parse_manifest(path)) == 1


class TestWriteManifest:
    def test_write_then_parse(self, tmp_path):
        _touch_wav(tmp_path / "wavs" / "a.wav")
        entries = [ManifestEntry("u1", tmp_path / "wavs" / "a.wav", "spk", "sad", "train")]
        out = tmp_path / "manifest.tsv"
        write_manifest(entries, out)
        text = out.read_text()
        assert text.splitlines()[0] == HEADER
        assert "wavs/a.wav" in text
        back = parse_manifest(out)
        assert {e.utt_id: e for e in back}["u1"].wav_path == tmp_path / "wavs" / "a.wav"


class TestScanTree:
    def test_layout_scan(self, tmp_path):
        for speaker, emotion, stem in (("s1", "happy", "x1"), ("s1", "neutral", "x2"),
                                       ("s2", "angry", "y1"), ("s2", "other", "z1")):
            _touch_wav(tmp_path / speaker / emotion / f"{stem}.wav")
        entries = scan_tree(tmp_path, split="eval")
        ids = [e.utt_id for e in entries]
        assert ids == ["s1_x1", "s1_x2", "s2_y1"]
        assert all(e.split == "eval" for e in entries)
        assert {e.emotion for e in entries} == {"happy", "neutral", "angry"}

    def test_duplicate_stem_across_emotions(self, tmp_path):
        _touch_wav(tmp_path / "s1" / "happy" / "a.wav")
        _touch_wav(tmp_path / "s1" / "sad" / "a.wav")
        with pytest.raises(DuplicateIdError):
            scan_tree(tmp_path)

    def test_bad_split(self, tmp_path):
        with pytest.raises(ParseError):
            scan_tree(tmp_path, split="test")


class TestMiniCorpus:
    def test_structure(self, mini_corpus):
        assert len(mini_corpus) == 30
        emotions = {e.emotion for e in mini_corpus}
        assert emotions == {"neutral", "happy"}
        assert all(e.split == "train" for e in mini_corpus)
        wav = load_wav(mini_corpus[0].wav_path)
        assert wav.sample_rate == 16000
        assert wav.samples.size > 0

    def test_deterministic_bytes(self, tmp_path):
        a = generate_mini_corpus(tmp_path / "a", n_pairs=2, seed=3)
        b = generate_mini_corpus(tmp_path / "b", n_pairs=2, seed=3)
        assert a.read_text() == b.read_text()
        for entry_a, entry_b in zip(parse_manifest(a), parse_manifest(b)):
            assert entry_a.wav_path.read_bytes() == entry_b.wav_path.read_bytes()

    def test_seed_changes_audio(self, tmp_path):
        a = generate_mini_corpus(tmp_path / "a", n_pairs=1, seed=1)
        b = generate_mini_corpus(tmp_path / "b", n_pairs=1, seed=2)
        wav_a = parse_manifest(a)[0].wav_path.read_bytes()
        wav_b = parse_manifest(b)[0].wav_path.read_bytes()
        assert wav_a != wav_b

    def test_emotional_twins_are_louder_and_higher(self, tmp_path, framed):
        from emorank.features import pitch_contour

        manifest = parse_manifest(generate_mini_corpus(tmp_path, n_pairs=3, seed=5))
        by_id = {e.utt_id: e for e in manifest}
        for idx in range(3):
            neu = load_wav(by_id[f"neu{idx:03d}"].wav_path)
            emo = load_wav(by_id[f"happy{idx:03d}"].wav_path)
            assert np.abs(emo.samples).mean() > np.abs(neu.samples).mean()
            f_neu = pitch_contour(*framed(neu))
            f_emo = pitch_contour(*framed(emo))
            med_neu = np.median(f_neu.f0_hz[f_neu.voiced])
            med_emo = np.median(f_emo.f0_hz[f_emo.voiced])
            assert med_emo > med_neu * 1.2

    def test_invalid_params(self, tmp_path):
        with pytest.raises(InvalidParamsError):
            generate_mini_corpus(tmp_path, emotion="neutral")
        with pytest.raises(InvalidParamsError):
            generate_mini_corpus(tmp_path, n_pairs=0)
        with pytest.raises(InvalidParamsError):
            generate_mini_corpus(tmp_path, emotion="bored")

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(InvalidParamsError, match="seed must be >= 0"):
            generate_mini_corpus(tmp_path / "out", seed=-1)
        assert not (tmp_path / "out").exists()
