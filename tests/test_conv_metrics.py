"""Mel cepstral distortion, DTW alignment, and duration metrics."""

import numpy as np
import pytest

from emorank import conv_metrics, features
from emorank.conv_metrics import (
    DEFAULT_MCEP_BANDS,
    MCD_ALPHA,
    contour_report,
    ddur,
    dtw_align,
    mcd,
    mcep,
    write_contour_csv,
)
from emorank.dsp import Waveform, frame
from emorank.errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidParamsError,
    NonFiniteError,
    OrderMismatchError,
)
from emorank.features import pitch_contour


def _seq(rows):
    return np.asarray(rows, dtype=np.float64)


class TestMcep:
    def test_shape(self, sine):
        assert mcep(sine(), order=24).shape == (98, 25)

    def test_silence_has_flat_cepstrum(self):
        coeffs = mcep(Waveform(np.zeros(8000), 16000), order=12)
        # log Mel rows are constant at the floor, so c1.. vanish
        np.testing.assert_allclose(coeffs[:, 1:], 0.0, atol=1e-8)
        assert np.all(coeffs[:, 0] < 0.0)

    def test_order_bounds(self, sine):
        with pytest.raises(InvalidParamsError):
            mcep(sine(dur_s=0.1), order=0)
        with pytest.raises(InvalidParamsError):
            mcep(sine(dur_s=0.1), order=DEFAULT_MCEP_BANDS)


class TestDtwAlign:
    def test_identical_sequences_diagonal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        path = dtw_align(x, x)
        assert path.total_cost == 0.0
        np.testing.assert_array_equal(path.pairs[:, 0], np.arange(12))
        np.testing.assert_array_equal(path.pairs[:, 1], np.arange(12))

    def test_path_is_valid_walk(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 2))
        b = rng.normal(size=(14, 2))
        pairs = dtw_align(a, b).pairs
        assert tuple(pairs[0]) == (0, 0)
        assert tuple(pairs[-1]) == (8, 13)
        steps = set(map(tuple, np.diff(pairs, axis=0)))
        assert steps <= {(1, 0), (0, 1), (1, 1)}

    def test_matches_exhaustive_search(self, brute_force_dtw):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n, m = rng.integers(1, 7, size=2)
            a = rng.normal(size=(int(n), 2))
            b = rng.normal(size=(int(m), 2))
            path = dtw_align(a, b)
            diff = a[:, None, :] - b[None, :, :]
            cost = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            assert path.total_cost == pytest.approx(brute_force_dtw(cost), abs=1e-9)
            walked = cost[path.pairs[:, 0], path.pairs[:, 1]].sum()
            assert walked == pytest.approx(path.total_cost, abs=1e-9)

    def test_one_dimensional_input(self):
        path = dtw_align([0.0, 1.0, 2.0], [0.0, 2.0])
        assert tuple(path.pairs[0]) == (0, 0)
        assert tuple(path.pairs[-1]) == (2, 1)
        assert path.total_cost == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(EmptyInputError):
            dtw_align(np.empty((0, 2)), np.zeros((2, 2)))
        with pytest.raises(NonFiniteError):
            dtw_align(np.array([np.nan]), np.zeros(2))
        with pytest.raises(DimensionMismatchError):
            dtw_align(np.zeros((2, 2)), np.zeros((2, 3)))


class TestMcd:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(3)
        seq = _seq(rng.normal(size=(20, 13)))
        assert mcd(seq, seq) == 0.0

    def test_single_coefficient_unit_gap(self):
        assert mcd(_seq([[0.0, 0.0]]), _seq([[0.0, 1.0]])) == pytest.approx(
            6.141851463713754, abs=1e-12)
        assert MCD_ALPHA == pytest.approx(6.141851463713754, abs=1e-12)

    def test_two_coefficient_gap(self):
        value = mcd(_seq([[0.0, 3.0, 4.0]]), _seq([[0.0, 0.0, 0.0]]))
        assert value == pytest.approx(15.354628659284383, abs=1e-12)

    def test_c0_excluded_by_default(self):
        a = _seq([[5.0, 1.0, 2.0]])
        b = _seq([[-5.0, 1.0, 2.0]])
        assert mcd(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = _seq(rng.normal(size=(15, 5)))
        b = _seq(rng.normal(size=(11, 5)))
        assert mcd(a, b) == pytest.approx(mcd(b, a), abs=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(10, 4))
        b = rng.normal(size=(12, 4))
        base = mcd(_seq(a), _seq(b))
        shifted = mcd(_seq(a + 2.5), _seq(b + 2.5))
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_linear_scaling_on_pinned_path(self):
        rng = np.random.default_rng(6)
        n = 6
        coeffs = np.zeros((n, 4))
        coeffs[:, 1] = 10.0 * np.arange(n)
        coeffs[:, 2:] = rng.normal(0.0, 0.02, (n, 2))
        delta = np.zeros((n, 4))
        delta[:, 2:] = rng.normal(0.0, 0.02, (n, 2))
        one = mcd(_seq(coeffs), _seq(coeffs + delta))
        three = mcd(_seq(coeffs), _seq(coeffs + 3.0 * delta))
        assert three == pytest.approx(3.0 * one, rel=1e-9)

    def test_order_mismatch_rejected(self):
        with pytest.raises(OrderMismatchError):
            mcd(_seq([[0.0, 1.0]]), _seq([[0.0, 1.0, 2.0]]))


class TestDdur:
    def test_identical_is_zero(self, sine, framed):
        wav = sine(dur_s=0.5)
        assert ddur(pitch_contour(*framed(wav)), pitch_contour(*framed(wav))) == 0.0

    def test_known_duration_gap(self, sine, framed):
        # 1.0 s of tone has 97 voiced frames, 0.7 s has 67: gap is 0.3 s
        gap = ddur(pitch_contour(*framed(sine(dur_s=1.0))),
                   pitch_contour(*framed(sine(dur_s=0.7))))
        assert gap == pytest.approx(0.3, abs=1e-9)

    def test_span_counts_interior_gaps(self, sine, tmp_path, framed):
        sr = 16000
        tone = sine(dur_s=0.2).samples
        gap = np.zeros(int(0.2 * sr))
        split_f0 = pitch_contour(*framed(Waveform(np.concatenate([tone, gap, tone]), sr)))
        solid_f0 = pitch_contour(*framed(Waveform(np.concatenate([tone, tone, gap]), sr)))
        voiced_gap = ddur(split_f0, solid_f0, mode="voiced")
        span_gap = ddur(split_f0, solid_f0, mode="span")
        assert voiced_gap < 0.05
        assert span_gap > voiced_gap + 0.1

    def test_silence_has_zero_duration(self, sine, framed):
        silence = pitch_contour(*framed(Waveform(np.zeros(8000), 16000)))
        assert ddur(silence, silence, mode="span") == 0.0
        assert ddur(pitch_contour(*framed(sine(dur_s=0.5))), silence) == pytest.approx(
            0.47, abs=1e-9)

    def test_duration_uses_framed_hop(self, sine, framed):
        # At 22.05 kHz a 10 ms hop frames 220 samples, 9.977 ms: 197 voiced
        # frames are 1.9655 s, not 1.970 s.
        tone = pitch_contour(*framed(sine(hz=150.0, dur_s=2.0, sr=22050)))
        silence = pitch_contour(*framed(Waveform(np.zeros(22050), 22050)))
        assert tone.voiced.sum() == 197
        assert ddur(tone, silence) == pytest.approx(197 * 220 / 22050, abs=1e-12)

    def test_bad_mode_rejected(self, sine, framed):
        f0 = pitch_contour(*framed(sine(dur_s=0.1)))
        with pytest.raises(InvalidParamsError):
            ddur(f0, f0, mode="frames")


def _contour_rows(report, tmp_path) -> np.ndarray:
    """The rows write_contour_csv writes for report, parsed back as floats."""
    path = tmp_path / "contours.csv"
    write_contour_csv(report, path)
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestContourReport:
    def test_self_pair(self, sine, tmp_path):
        wav = sine(dur_s=0.5)
        report = contour_report(wav, wav)
        assert report.mcd_db == 0.0
        assert report.ddur_s == 0.0
        n = report.f0_conv.shape[0]
        assert report.n_aligned_frames == n
        i, j = report.f0_path[:, 0], report.f0_path[:, 1]
        np.testing.assert_array_equal(i, j)
        np.testing.assert_array_equal(report.energy_conv[i], report.energy_ref[j])
        rows = _contour_rows(report, tmp_path)
        np.testing.assert_array_equal(rows[:, 5], rows[:, 6])

    def test_cross_pair_is_positive(self, sine, tmp_path):
        report = contour_report(sine(hz=150.0), sine(hz=300.0, amp=0.2, dur_s=0.8))
        assert report.mcd_db > 0.0
        rows = _contour_rows(report, tmp_path)
        assert rows.shape == (report.n_aligned_frames, 7)
        assert np.all(rows[:, 3] == report.f0_conv[report.f0_path[:, 0]])
        assert np.all(rows[:, 4] == report.f0_ref[report.f0_path[:, 1]])

    def test_frames_each_waveform_once(self, sine, monkeypatch):
        framings = []

        def counting_frame(waveform, frame_len, hop):
            framings.append(frame_len)
            return frame(waveform, frame_len, hop)

        for module in (conv_metrics, features):
            monkeypatch.setattr(module, "frame", counting_frame)
        contour_report(sine(dur_s=0.5), sine(hz=180.0, dur_s=0.6))
        # One 40 ms pitch framing and one 25 ms MCEP framing per waveform.
        assert sorted(framings) == [400, 400, 640, 640]

    def test_sample_rate_mismatch_rejected(self, sine):
        with pytest.raises(InvalidParamsError, match="sample rates differ"):
            contour_report(sine(sr=16000), sine(sr=22050))

    def test_energy_follows_f0_path(self, sine, tmp_path):
        report = contour_report(sine(hz=150.0), sine(hz=300.0, amp=0.2, dur_s=0.8))
        i, j = report.f0_path[:, 0], report.f0_path[:, 1]
        rows = _contour_rows(report, tmp_path)
        np.testing.assert_array_equal(rows[:, 0], np.arange(report.n_aligned_frames))
        np.testing.assert_array_equal(rows[:, [1, 2]], report.f0_path)
        np.testing.assert_array_equal(rows[:, 5], report.energy_conv[i])
        np.testing.assert_array_equal(rows[:, 6], report.energy_ref[j])

    def test_contour_csv_round_trip(self, sine, tmp_path):
        report = contour_report(sine(hz=180.0, dur_s=0.4), sine(hz=240.0, dur_s=0.4))
        path = tmp_path / "contours.csv"
        write_contour_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "path_idx,i,j,f0_conv,f0_ref,energy_conv,energy_ref"
        assert len(lines) == 1 + report.n_aligned_frames
        first = lines[1].split(",")
        i, j = int(first[1]), int(first[2])
        assert float(first[3]) == report.f0_conv[i]
        assert float(first[4]) == report.f0_ref[j]
        assert float(first[5]) == report.energy_conv[i]
        assert float(first[6]) == report.energy_ref[j]
