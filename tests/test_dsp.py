"""Waveform I/O, framing, and spectral analysis."""

import struct
import wave

import numpy as np
import pytest
from scipy.fft import dct, idct

from emorank.conv_metrics import DEFAULT_MCEP_BANDS, DEFAULT_MCEP_ORDER, mcep
from emorank.dsp import (
    FrameSequence,
    Waveform,
    frame,
    hz_to_mel,
    load_wav,
    mel_filterbank,
    mel_to_hz,
    next_pow2,
    power_spectrogram,
    save_wav,
)
from emorank.errors import (
    EmptyInputError,
    InvalidParamsError,
    NonFiniteError,
    UnsupportedFormatError,
)
from emorank.features import N_MEL_FILTERS, N_MFCC, compute_llds, energy_contour


def _write_pcm(path, values, sr=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(channels)
        writer.setsampwidth(sampwidth)
        writer.setframerate(sr)
        if sampwidth == 2:
            writer.writeframes(struct.pack(f"<{len(values)}h", *values))
        else:
            writer.writeframes(bytes((v + 128) % 256 for v in values))


class TestLoadWav:
    def test_scaling_is_exact(self, tmp_path):
        path = tmp_path / "a.wav"
        _write_pcm(path, [0, 16384, -32768, 32767])
        w = load_wav(path)
        assert w.sample_rate == 16000
        np.testing.assert_array_equal(
            w.samples, [0.0, 0.5, -1.0, 32767.0 / 32768.0]
        )

    def test_sample_count_and_rate(self, tmp_path):
        path = tmp_path / "b.wav"
        _write_pcm(path, [0] * 22050, sr=22050)
        w = load_wav(path)
        assert w.samples.size == 22050
        assert w.duration_s == pytest.approx(1.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "absent.wav")

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        _write_pcm(path, [0, 0, 1, 1], channels=2)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "u8.wav"
        _write_pcm(path, [0, 1, 2, 3], sampwidth=1)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not RIFF data at all")
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_truncated_to_odd_byte_count_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        _write_pcm(path, [100] * 600)
        path.write_bytes(path.read_bytes()[: 44 + 501])
        with pytest.raises(UnsupportedFormatError, match="truncated sample data"):
            load_wav(path)

    def test_shorter_than_declared_rejected(self, tmp_path):
        path = tmp_path / "cut.wav"
        _write_pcm(path, [100] * 600)
        path.write_bytes(path.read_bytes()[: 44 + 500])
        with pytest.raises(UnsupportedFormatError, match="500 of 1200 declared bytes"):
            load_wav(path)

    def test_save_round_trip(self, tmp_path):
        path = tmp_path / "rt.wav"
        x = np.sin(2 * np.pi * 220 * np.arange(1600) / 16000) * 0.5
        save_wav(path, x, 16000)
        w = load_wav(path)
        assert w.samples.size == 1600
        np.testing.assert_allclose(w.samples, x, atol=1.0 / 32768.0)


class TestWaveform:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            Waveform(np.array([]), 16000)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_bad_rate_rejected(self):
        with pytest.raises(InvalidParamsError):
            Waveform(np.zeros(4), 0)


class TestFrame:
    def test_count_small_example(self):
        w = Waveform(np.arange(100, dtype=float), 16000)
        fs = frame(w, 40, 20)
        assert fs.n_frames == 4
        np.testing.assert_array_equal(fs.frames[1], np.arange(20, 60))

    def test_count_one_second(self):
        w = Waveform(np.zeros(16000), 16000)
        assert frame(w, 800, 200).n_frames == 77

    def test_short_input_zero_padded(self):
        w = Waveform(np.array([1.0, 2.0]), 16000)
        fs = frame(w, 5, 2)
        assert fs.n_frames == 1
        np.testing.assert_array_equal(fs.frames[0], [1.0, 2.0, 0.0, 0.0, 0.0])

    def test_count_formula_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            flen = int(rng.integers(1, 80))
            hop = int(rng.integers(1, 40))
            x = rng.normal(size=n)
            fs = frame(Waveform(x, 8000), flen, hop)
            if n < flen:
                assert fs.n_frames == 1
            else:
                assert fs.n_frames == (n - flen) // hop + 1
                i = fs.n_frames - 1
                np.testing.assert_array_equal(fs.frames[i], x[i * hop : i * hop + flen])

    def test_frames_match_slices(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=333)
        fs = frame(Waveform(x, 8000), 50, 17)
        for i in range(fs.n_frames):
            np.testing.assert_array_equal(fs.frames[i], x[i * 17 : i * 17 + 50])

    def test_invalid_params(self):
        w = Waveform(np.zeros(10), 8000)
        with pytest.raises(InvalidParamsError):
            frame(w, 0, 1)
        with pytest.raises(InvalidParamsError):
            frame(w, 4, 0)


class TestPowerSpectrogram:
    def test_silence_is_zero(self):
        fs = FrameSequence(np.zeros((3, 64)), 64, 32)
        np.testing.assert_array_equal(power_spectrogram(fs, 64), np.zeros((3, 33)))

    def test_energy_identity(self):
        # Row sum equals n_fft times the mean square of the zero-padded
        # windowed frame.
        rng = np.random.default_rng(2)
        frames = rng.normal(0.0, 0.3, (6, 100))
        n_fft = 128
        power = power_spectrogram(FrameSequence(frames, 100, 50), n_fft)
        windowed = frames * np.hanning(100)
        padded = np.zeros((6, n_fft))
        padded[:, :100] = windowed
        expected = n_fft * np.mean(padded ** 2, axis=1)
        np.testing.assert_allclose(power.sum(axis=1), expected, rtol=1e-6)

    def test_sine_energy_concentrates(self):
        n = 512
        k0 = 128
        x = np.sin(2 * np.pi * k0 * np.arange(n) / n)
        power = power_spectrogram(FrameSequence(x[None, :], n, n), n)[0]
        assert power[k0 - 1 : k0 + 2].sum() >= 0.95 * power.sum()

    def test_nfft_too_small(self):
        fs = FrameSequence(np.zeros((1, 64)), 64, 32)
        with pytest.raises(InvalidParamsError):
            power_spectrogram(fs, 32)


class TestMelScale:
    def test_anchor_points(self):
        assert hz_to_mel(0.0) == 0.0
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-9)

    def test_round_trip(self):
        f = np.linspace(0.0, 8000.0, 33)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-8)

    def test_monotone(self):
        m = hz_to_mel(np.linspace(10.0, 8000.0, 200))
        assert np.all(np.diff(m) > 0)


class TestMelFilterbank:
    def test_shape_and_bounds(self):
        bank = mel_filterbank(26, 512, 16000)
        assert bank.weights.shape == (26, 257)
        assert np.all(bank.weights >= 0.0)
        assert bank.weights.max() <= 1.0 + 1e-12
        assert np.all(bank.weights.max(axis=1) > 0.0)

    def test_centers_increase(self):
        bank = mel_filterbank(40, 1024, 16000)
        assert np.all(np.diff(bank.centers_hz) > 0)
        assert bank.centers_hz[0] > 0.0
        assert bank.centers_hz[-1] < 8000.0

    def test_invalid_range(self):
        with pytest.raises(InvalidParamsError):
            mel_filterbank(0, 512, 16000)


def _log_mel(waveform):
    """Log Mel band energies behind mcep, recovered by inverting its full-order DCT."""
    coeffs = mcep(waveform, order=DEFAULT_MCEP_BANDS - 1).coeffs
    return idct(coeffs, type=2, norm="ortho", axis=1)


class TestMelLogSpectrogram:
    """The frame -> power -> Mel -> log front end, observed through mcep."""

    def test_silence_hits_floor(self):
        log_mel = _log_mel(Waveform(np.zeros(16000), 16000))
        assert log_mel.shape == (98, DEFAULT_MCEP_BANDS)
        np.testing.assert_allclose(log_mel, np.log(1e-10), rtol=0.0, atol=1e-12)

    def test_amplitude_doubling_adds_log4(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 0.2, 16000)
        a = _log_mel(Waveform(x, 16000))
        b = _log_mel(Waveform(2.0 * x, 16000))
        assert a.min() > np.log(1e-10)
        np.testing.assert_allclose(b - a, np.log(4.0), atol=1e-12)

    def test_translation_covariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.2, 16000)
        hop = 160
        a = mcep(Waveform(x, 16000))
        b = mcep(Waveform(np.concatenate([np.zeros(hop), x]), 16000))
        assert b.n_frames == a.n_frames + 1
        np.testing.assert_array_equal(b.coeffs[1:], a.coeffs)


def _mel_outputs_inline(waveform, n_bands, frame_ms=25.0, hop_ms=10.0):
    """Mel filter outputs as compute_llds, energy_contour and mcep used to
    compute them inline, Mel bank included: the oracle for the dsp helpers."""
    sr = waveform.sample_rate
    frame_len = int(round(sr * frame_ms / 1000.0))
    frames = frame(waveform, frame_len, int(round(sr * hop_ms / 1000.0)))
    n_fft = next_pow2(frame_len)
    power = power_spectrogram(frames, n_fft)
    fmin, fmax = 0.0, sr / 2.0
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_bands + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sr / n_fft)
    weights = np.zeros((n_bands, bin_freqs.size))
    for m in range(n_bands):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return power @ weights.T


def _cepstrum_inline(waveform, n_bands):
    log_mel = np.log(np.maximum(_mel_outputs_inline(waveform, n_bands), 1e-10))
    return dct(log_mel, type=2, norm="ortho", axis=1)


def _oracle_waveforms():
    rng = np.random.default_rng(11)
    t16 = np.arange(12000) / 16000
    t8 = np.arange(6000) / 8000
    return {
        "tone_noise_16k": Waveform(0.4 * np.sin(2 * np.pi * 180.0 * t16)
                                   + rng.normal(0.0, 0.05, t16.size), 16000),
        "silence_16k": Waveform(np.zeros(8000), 16000),
        "chirp_8k": Waveform(0.5 * np.sin(2 * np.pi * (120.0 + 300.0 * t8) * t8), 8000),
        "shorter_than_a_frame": Waveform(rng.normal(0.0, 0.1, 150), 16000),
    }


@pytest.mark.parametrize("name", sorted(_oracle_waveforms()))
class TestMelHelpersMatchInlineFormula:
    """The shared dsp Mel helpers are bitwise equal to the per-caller code they replaced."""

    def test_mfcc_columns(self, name):
        waveform = _oracle_waveforms()[name]
        mfcc = compute_llds(waveform).values[:, 4 : 4 + N_MFCC]
        expected = _cepstrum_inline(waveform, N_MEL_FILTERS)[:, 1 : N_MFCC + 1]
        np.testing.assert_array_equal(mfcc, expected)

    def test_mcep(self, name):
        waveform = _oracle_waveforms()[name]
        coeffs = mcep(waveform).coeffs
        expected = _cepstrum_inline(waveform, DEFAULT_MCEP_BANDS)[:, : DEFAULT_MCEP_ORDER + 1]
        np.testing.assert_array_equal(coeffs, expected)

    def test_energy_contour(self, name):
        waveform = _oracle_waveforms()[name]
        expected = _mel_outputs_inline(waveform, N_MEL_FILTERS).sum(axis=1)
        np.testing.assert_array_equal(energy_contour(waveform).energy, expected)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(800) == 1024
    assert next_pow2(1024) == 1024
