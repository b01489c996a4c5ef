"""Low-level descriptors, deltas, functionals, and the 384-d vector."""

import numpy as np
import pytest

from emorank.dsp import Waveform
from emorank.errors import DimensionMismatchError, InvalidParamsError, ParseError
from emorank.features import (
    FUNCTIONAL_NAMES,
    LLD_COLUMNS,
    FeatureVector,
    LldMatrix,
    N_FEATURES,
    compute_llds,
    delta,
    energy_contour,
    extract_feature_vector,
    feature_index_map,
    frame_rms,
    frame_zcr,
    functionals,
    pitch_contour,
    read_features_csv,
    write_features_csv,
)

F = len(FUNCTIONAL_NAMES)


def _col(name):
    return FUNCTIONAL_NAMES.index(name)


class TestFrameStats:
    def test_rms_toy_frame(self):
        np.testing.assert_allclose(
            frame_rms(np.array([[3.0, -4.0]])), [np.sqrt(12.5)]
        )

    def test_zcr_constant_is_zero(self):
        assert frame_zcr(np.full((2, 10), 0.7))[0] == 0.0

    def test_zcr_alternating_is_one(self):
        x = np.tile([1.0, -1.0], 8)[None, :]
        assert frame_zcr(x)[0] == 1.0

    def test_zcr_half(self):
        # one flip over four sample steps
        assert frame_zcr(np.array([[1.0, 1.0, 1.0, -1.0, -1.0]]))[0] == 0.25


class TestPitch:
    @pytest.mark.parametrize("hz", [100.0, 220.0, 330.0, 395.0])
    def test_sine_accuracy(self, sine, hz):
        contour = pitch_contour(sine(hz=hz, amp=0.6))
        voiced = contour.f0_hz[contour.voiced]
        assert voiced.size > 50
        assert np.max(np.abs(voiced - hz)) < 0.5

    def test_silence_unvoiced(self):
        contour = pitch_contour(Waveform(np.zeros(8000), 16000))
        assert not contour.voiced.any()
        np.testing.assert_array_equal(contour.f0_hz, 0.0)

    def test_silent_prefix_unvoiced(self, sine):
        tone = sine(dur_s=0.5, amp=0.5).samples
        w = Waveform(np.concatenate([np.zeros(8000), tone]), 16000)
        contour = pitch_contour(w)
        # frames fully inside the 8000-sample prefix start at <= 7360
        assert not contour.voiced[:46].any()
        assert contour.voiced[50:80].all()

    def test_amplitude_invariance(self, sine):
        a = pitch_contour(sine(amp=0.6))
        b = pitch_contour(sine(amp=0.3))
        np.testing.assert_array_equal(a.voiced, b.voiced)
        assert np.max(np.abs(a.f0_hz - b.f0_hz)) < 0.1

    def test_voiced_marks_match_zero_f0(self, sine):
        tone = sine(dur_s=0.4).samples
        w = Waveform(np.concatenate([tone, np.zeros(4000), tone]), 16000)
        contour = pitch_contour(w)
        np.testing.assert_array_equal(contour.voiced, contour.f0_hz > 0.0)


class TestLlds:
    def test_shape_and_columns(self, sine):
        llds = compute_llds(sine())
        assert llds.values.shape == (98, len(LLD_COLUMNS))
        assert llds.frame_shift_ms == 10.0
        assert np.all(np.isfinite(llds.values))

    def test_silence_row_values(self):
        llds = compute_llds(Waveform(np.zeros(8000), 16000))
        assert np.all(llds.values[:, 0] == 0.0)  # zcr
        assert np.all(llds.values[:, 1] == 0.0)  # rms
        assert np.all(llds.values[:, 2] == 0.0)  # f0
        assert np.all(llds.values[:, 3] == -60.0)  # hnr
        np.testing.assert_allclose(llds.values[:, 4:], 0.0, atol=1e-9)  # mfcc

    def test_hnr_high_for_pure_tone(self, sine):
        llds = compute_llds(sine(amp=0.6))
        interior = llds.values[10:-10, 3]
        assert np.all(interior > 20.0)
        assert np.all(interior <= 60.0)


class TestDelta:
    def test_constant_is_zero(self):
        llds = LldMatrix(np.full((7, 3), 2.5), 10.0)
        np.testing.assert_array_equal(delta(llds).values, 0.0)

    def test_ramp_interior_is_one(self):
        ramp = np.arange(10.0)[:, None] * np.ones((1, 2))
        d = delta(LldMatrix(ramp, 10.0)).values
        np.testing.assert_allclose(d[2:-2], 1.0)
        np.testing.assert_allclose(d[0], 0.5)  # clamped edge

    def test_single_frame_is_zero(self):
        d = delta(LldMatrix(np.array([[3.0, -1.0]]), 10.0))
        np.testing.assert_array_equal(d.values, 0.0)


class TestFunctionals:
    def _vector_for(self, col):
        values = np.zeros((len(col), len(LLD_COLUMNS)))
        values[:, 0] = col
        llds = LldMatrix(values, 10.0)
        zero = LldMatrix(np.zeros_like(values), 10.0)
        return functionals(llds, zero).values[:F]

    def test_ramp_column(self):
        stats = self._vector_for(np.array([0.0, 1.0, 2.0, 3.0]))
        assert stats[_col("mean")] == 1.5
        assert stats[_col("stddev")] == pytest.approx(np.sqrt(1.25))
        assert stats[_col("skewness")] == pytest.approx(0.0, abs=1e-12)
        assert stats[_col("kurtosis")] == pytest.approx(-1.36)
        assert stats[_col("min")] == 0.0
        assert stats[_col("rel_min_pos")] == 0.0
        assert stats[_col("max")] == 3.0
        assert stats[_col("rel_max_pos")] == 1.0
        assert stats[_col("range")] == 3.0
        assert stats[_col("lr_offset")] == pytest.approx(0.0, abs=1e-12)
        assert stats[_col("lr_slope")] == pytest.approx(1.0)
        assert stats[_col("lr_mse")] == pytest.approx(0.0, abs=1e-12)

    def test_constant_column(self):
        stats = self._vector_for(np.full(6, 4.25))
        assert stats[_col("mean")] == 4.25
        assert stats[_col("stddev")] == 0.0
        assert stats[_col("skewness")] == 0.0
        assert stats[_col("kurtosis")] == 0.0
        assert stats[_col("range")] == 0.0
        assert stats[_col("lr_slope")] == 0.0
        assert stats[_col("lr_mse")] == 0.0

    def test_single_frame(self):
        stats = self._vector_for(np.array([2.0]))
        assert stats[_col("mean")] == 2.0
        assert stats[_col("rel_min_pos")] == 0.0
        assert stats[_col("rel_max_pos")] == 0.0
        assert stats[_col("lr_offset")] == 2.0

    def test_reversal_behavior(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=31)
        fwd = self._vector_for(col)
        rev = self._vector_for(col[::-1])
        for name in ("mean", "stddev", "skewness", "kurtosis", "min", "max", "range"):
            assert fwd[_col(name)] == pytest.approx(rev[_col(name)], abs=1e-12)
        assert fwd[_col("lr_slope")] == pytest.approx(-rev[_col("lr_slope")], abs=1e-12)
        assert fwd[_col("rel_max_pos")] == pytest.approx(
            1.0 - rev[_col("rel_max_pos")], abs=1e-12
        )

    def test_frame_count_mismatch(self):
        a = LldMatrix(np.zeros((4, len(LLD_COLUMNS))), 10.0)
        b = LldMatrix(np.zeros((5, len(LLD_COLUMNS))), 10.0)
        with pytest.raises(DimensionMismatchError):
            functionals(a, b)


class TestFeatureVector:
    def test_length_384(self, sine):
        vec = extract_feature_vector(sine(), "u1")
        assert vec.values.shape == (N_FEATURES,)
        assert vec.values.shape == (384,)
        assert vec.provenance == "u1"
        assert np.all(np.isfinite(vec.values))

    def test_short_input_still_valid(self):
        vec = extract_feature_vector(Waveform(np.ones(100) * 0.1, 16000))
        assert vec.values.shape == (384,)
        assert np.all(np.isfinite(vec.values))

    def test_index_map_layout(self):
        entries = feature_index_map()
        assert len(entries) == 384
        assert entries[0] == {"index": 0, "name": "f000", "column": "zcr",
                              "functional": "mean"}
        assert entries[11]["functional"] == "lr_mse"
        assert entries[12]["column"] == "rms"
        assert entries[192]["column"] == "de_zcr"
        assert entries[383] == {"index": 383, "name": "f383",
                                "column": "de_mfcc12", "functional": "lr_mse"}

    def test_csv_round_trip(self, tmp_path, sine):
        vecs = [extract_feature_vector(sine(hz=h), f"u{i}")
                for i, h in enumerate((150.0, 250.0))]
        path = tmp_path / "f.csv"
        write_features_csv(vecs, path)
        back = read_features_csv(path)
        assert [v.provenance for v in back] == ["u0", "u1"]
        for orig, rt in zip(vecs, back):
            np.testing.assert_array_equal(orig.values, rt.values)

    def test_csv_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        write_features_csv([FeatureVector(np.zeros(N_FEATURES), "u0")], path)
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n")
        with pytest.raises(ParseError, match=r"f\.csv:3: duplicate id 'u0'"):
            read_features_csv(path)

    @pytest.mark.parametrize("ids", [[""], ["u0", "u0"], ["a,b"], ["a\nb"]],
                             ids=["empty", "repeated", "comma", "newline"])
    def test_csv_write_rejects_bad_id(self, tmp_path, ids):
        path = tmp_path / "f.csv"
        vecs = [FeatureVector(np.zeros(N_FEATURES), ident) for ident in ids]
        with pytest.raises(InvalidParamsError):
            write_features_csv(vecs, path)
        assert not path.exists()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,x1\nu,1,2\n")
        with pytest.raises(ParseError):
            read_features_csv(path)


class TestEnergyContour:
    def test_silence_is_zero(self):
        contour = energy_contour(Waveform(np.zeros(8000), 16000))
        np.testing.assert_array_equal(contour.energy, 0.0)

    def test_amplitude_doubling_quadruples(self, sine):
        a = energy_contour(sine(amp=0.25))
        b = energy_contour(sine(amp=0.5))
        np.testing.assert_allclose(b.energy, 4.0 * a.energy, rtol=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        contour = energy_contour(Waveform(rng.normal(0, 0.2, 8000), 16000))
        assert np.all(contour.energy >= 0.0)
