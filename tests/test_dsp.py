"""Waveform I/O, framing, and spectral analysis."""

import functools
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import dct, idct

from emorank.conv_metrics import DEFAULT_MCEP_BANDS, DEFAULT_MCEP_ORDER, mcep
from emorank.dsp import (
    Waveform,
    _mel_support,
    frame,
    hz_to_mel,
    load_wav,
    mel_energies,
    mel_energy_totals,
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

# Output bound of the sparse Mel application against the dense product.
MEL_RTOL = 1e-12
CEPSTRUM_ATOL = 1e-12


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
        frames = frame(w, 40, 20)
        assert frames.shape == (4, 40)
        assert frames.dtype == np.float64 and frames.flags.c_contiguous
        np.testing.assert_array_equal(frames[1], np.arange(20, 60))

    def test_count_one_second(self):
        w = Waveform(np.zeros(16000), 16000)
        assert frame(w, 800, 200).shape == (77, 800)

    def test_short_input_zero_padded(self):
        w = Waveform(np.array([1.0, 2.0]), 16000)
        frames = frame(w, 5, 2)
        assert frames.shape == (1, 5)
        np.testing.assert_array_equal(frames[0], [1.0, 2.0, 0.0, 0.0, 0.0])

    def test_count_formula_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 500))
            flen = int(rng.integers(1, 80))
            hop = int(rng.integers(1, 40))
            x = rng.normal(size=n)
            frames = frame(Waveform(x, 8000), flen, hop)
            assert frames.shape[1] == flen
            if n < flen:
                assert frames.shape[0] == 1
            else:
                assert frames.shape[0] == (n - flen) // hop + 1
                i = frames.shape[0] - 1
                np.testing.assert_array_equal(frames[i], x[i * hop : i * hop + flen])

    def test_frames_match_slices(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=333)
        frames = frame(Waveform(x, 8000), 50, 17)
        for i in range(frames.shape[0]):
            np.testing.assert_array_equal(frames[i], x[i * 17 : i * 17 + 50])

    def test_invalid_params(self):
        w = Waveform(np.zeros(10), 8000)
        with pytest.raises(InvalidParamsError):
            frame(w, 0, 1)
        with pytest.raises(InvalidParamsError):
            frame(w, 4, 0)


class TestPowerSpectrogram:
    def test_silence_is_zero(self):
        np.testing.assert_array_equal(power_spectrogram(np.zeros((3, 64))),
                                      np.zeros((3, 33)))

    def test_energy_identity(self):
        # Row sum equals n_fft times the mean square of the zero-padded
        # windowed frame.
        rng = np.random.default_rng(2)
        frames = rng.normal(0.0, 0.3, (6, 100))
        n_fft = 128
        power = power_spectrogram(frames)
        windowed = frames * np.hanning(100)
        padded = np.zeros((6, n_fft))
        padded[:, :100] = windowed
        expected = n_fft * np.mean(padded ** 2, axis=1)
        np.testing.assert_allclose(power.sum(axis=1), expected, rtol=1e-6)

    def test_sine_energy_concentrates(self):
        n = 512
        k0 = 128
        x = np.sin(2 * np.pi * k0 * np.arange(n) / n)
        power = power_spectrogram(x[None, :])[0]
        assert power[k0 - 1 : k0 + 2].sum() >= 0.95 * power.sum()


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
        assert bank.shape == (26, 257)
        assert np.all(bank >= 0.0)
        assert bank.max() <= 1.0 + 1e-12
        assert np.all(bank.max(axis=1) > 0.0)

    def test_centers_increase(self):
        peaks = mel_filterbank(40, 1024, 16000).argmax(axis=1)
        assert np.all(np.diff(peaks) > 0)
        assert peaks[0] > 0
        assert peaks[-1] < 1024 // 2

    def test_cached_and_read_only(self):
        # Every caller shares the cached support, so a write must not get through.
        support = _mel_support(26, 512, 16000)
        assert _mel_support(26, 512, 16000) is support
        for array in support:
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_invalid_range(self):
        with pytest.raises(InvalidParamsError):
            mel_filterbank(0, 512, 16000)

    @pytest.mark.parametrize("sample_rate", [16000, 44100])
    def test_rounding_residue_filter_rejected(self, sample_rate):
        # The one filter's only nonzero weight is a residue near 1e-16.
        with pytest.raises(InvalidParamsError, match="empty Mel filters"):
            mel_filterbank(1, 2, sample_rate)


def _log_mel(waveform):
    """Log Mel band energies behind mcep, recovered by inverting its full-order DCT."""
    coeffs = mcep(waveform, order=DEFAULT_MCEP_BANDS - 1)
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
        assert b.shape[0] == a.shape[0] + 1
        np.testing.assert_array_equal(b[1:], a)


def _mel_outputs_inline(waveform, n_bands, frame_ms=25.0, hop_ms=10.0):
    """Mel filter outputs as compute_llds, energy_contour and mcep used to
    compute them inline, Mel bank included: the oracle for the dsp helpers."""
    sr = waveform.sample_rate
    frame_len = int(round(sr * frame_ms / 1000.0))
    frames = frame(waveform, frame_len, int(round(sr * hop_ms / 1000.0)))
    n_fft = next_pow2(frame_len)
    power = power_spectrogram(frames)
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
    """The shared dsp Mel helpers match the dense per-caller code they replaced.

    The helpers add only each filter's nonzero terms, in another order than
    the dense product, so the results agree to the last digits: within
    MEL_RTOL relative for Mel energies and their row sums, and within
    CEPSTRUM_ATOL absolute for cepstra, whose coefficients can sit near 0.
    """

    def test_mfcc_columns(self, name):
        waveform = _oracle_waveforms()[name]
        mfcc = compute_llds(waveform)[:, 4 : 4 + N_MFCC]
        expected = _cepstrum_inline(waveform, N_MEL_FILTERS)[:, 1 : N_MFCC + 1]
        np.testing.assert_allclose(mfcc, expected, rtol=0.0, atol=CEPSTRUM_ATOL)

    def test_mcep(self, name):
        waveform = _oracle_waveforms()[name]
        coeffs = mcep(waveform)
        expected = _cepstrum_inline(waveform, DEFAULT_MCEP_BANDS)[:, : DEFAULT_MCEP_ORDER + 1]
        np.testing.assert_allclose(coeffs, expected, rtol=0.0, atol=CEPSTRUM_ATOL)

    def test_energy_contour(self, name, framed):
        waveform = _oracle_waveforms()[name]
        expected = _mel_outputs_inline(waveform, N_MEL_FILTERS).sum(axis=1)
        np.testing.assert_allclose(energy_contour(*framed(waveform, 25.0)[:2]), expected,
                                   rtol=MEL_RTOL, atol=0.0)


@functools.lru_cache(maxsize=None)
def _smallest_n_fft(n_mels, sample_rate):
    """The smallest n_fft for which mel_filterbank gives no empty filter."""
    n_fft = 2
    while True:
        try:
            mel_filterbank(n_mels, n_fft, sample_rate)
            return n_fft
        except InvalidParamsError:
            n_fft += 1


@st.composite
def _mel_cases(draw):
    """(n_mels, n_fft, sample_rate, power) with zero, tiny and large power rows.

    n_fft is even, as power_spectrogram makes it.
    """
    n_mels = draw(st.sampled_from([1, 2, 3, 13, 26, 40]))
    sample_rate = draw(st.sampled_from([8000, 16000, 22050, 44100]))
    least = (_smallest_n_fft(n_mels, sample_rate) + 1) // 2
    n_fft = 2 * draw(st.one_of(st.just(least), st.integers(least, max(least, 1024))))
    rows = draw(st.integers(1, 6))
    unit = draw(arrays(np.float64, (rows, n_fft // 2 + 1),
                       elements=st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
    scale = draw(arrays(np.float64, rows, elements=st.sampled_from([0.0, 1e-30, 1.0, 1e6])))
    return n_mels, n_fft, sample_rate, unit * scale[:, None]


class TestSparseMelApplication:
    """mel_energies and mel_energy_totals against the dense filterbank product."""

    @settings(max_examples=200, deadline=None)
    @given(_mel_cases())
    def test_matches_dense_product(self, case):
        n_mels, n_fft, sample_rate, power = case
        dense = power @ mel_filterbank(n_mels, n_fft, sample_rate).T
        for got, expected in ((mel_energies(power, n_mels, sample_rate), dense),
                              (mel_energy_totals(power, n_mels, sample_rate),
                               dense.sum(axis=1))):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            np.testing.assert_allclose(got, expected, rtol=MEL_RTOL, atol=0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.sampled_from([8000, 16000, 22050]), st.integers(20, 50),
           st.integers(1, 4000), st.sampled_from([0.0, 1e-15, 1.0, 1e3]), st.integers(0, 2**32 - 1))
    def test_energy_contour_matches_dense_row_sum(self, framed, sample_rate, frame_ms,
                                                   n_samples, scale, seed):
        samples = scale * np.random.default_rng(seed).normal(size=n_samples)
        waveform = Waveform(samples, sample_rate)
        energy = energy_contour(*framed(waveform, frame_ms)[:2])
        dense = _mel_outputs_inline(waveform, N_MEL_FILTERS, frame_ms=frame_ms)
        assert energy.dtype == np.float64 and energy.flags.c_contiguous
        np.testing.assert_allclose(energy, dense.sum(axis=1), rtol=MEL_RTOL, atol=0.0)


def test_next_pow2():
    assert next_pow2(1) == 1
    assert next_pow2(2) == 2
    assert next_pow2(3) == 4
    assert next_pow2(800) == 1024
    assert next_pow2(1024) == 1024
