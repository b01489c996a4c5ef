"""The NumPy kernels against loop references kept here."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfft, next_fast_len, rfft

from emorank import kernels
from emorank.config import DEFAULTS, Config
from emorank.conv_metrics import ddur
from emorank.dsp import BLOCK_FRAMES, Waveform
from emorank.errors import EmptyInputError, InvalidParamsError
from emorank.features import compute_llds, frame_rms, pitch_contour

EPS = np.finfo(np.float64).eps
# Bound on the FFT numerators' rounding, in ulps of the frame energy.
PEAK_ULPS = 64


def _random_cost(rng, n, m):
    return np.abs(rng.normal(size=(n, m)))


def _dtw_table_rows(cost):
    """Row-by-row loop over the DTW recurrence, the reference for dtw_table."""
    n, m = cost.shape
    table = np.empty((n, m))
    table[0, :] = np.cumsum(cost[0, :])
    table[:, 0] = np.cumsum(cost[:, 0])
    for i in range(1, n):
        for j in range(1, m):
            table[i, j] = cost[i, j] + min(table[i - 1, j - 1], table[i - 1, j], table[i, j - 1])
    return table


def _autocorr_direct(frames, lag_min, lag_max):
    """Per-lag direct sums over prefix-sum energies: (correlation, denominators)."""
    n_frames, frame_len = frames.shape
    prefix = np.zeros((n_frames, frame_len + 1))
    np.cumsum(frames * frames, axis=1, out=prefix[:, 1:])
    total = prefix[:, frame_len]
    out = np.zeros((n_frames, lag_max - lag_min + 1))
    denoms = np.zeros_like(out)
    for k, tau in enumerate(range(lag_min, lag_max + 1)):
        num = np.einsum("ij,ij->i", frames[:, : frame_len - tau], frames[:, tau:])
        denoms[:, k] = np.sqrt(prefix[:, frame_len - tau] * (total - prefix[:, tau]))
        np.divide(num, denoms[:, k], out=out[:, k], where=denoms[:, k] > 0.0)
    return out, denoms


def _autocorr_blocks(frames, lag_min, lag_max):
    """autocorr_matrix as every step ran per 32-frame block, the bitwise reference."""
    n_frames, frame_len = frames.shape
    out = np.zeros((n_frames, lag_max - lag_min + 1))
    padded = np.zeros((min(n_frames, 32), next_fast_len(frame_len + lag_max, real=True)))
    for lo in range(0, n_frames, 32):
        hi = min(lo + 32, n_frames)
        padded[: hi - lo, :frame_len] = frames[lo:hi]
        _autocorr_block(frames[lo:hi], padded[: hi - lo], lag_min, lag_max, out[lo:hi])
    return out


def _autocorr_block(frames, padded, lag_min, lag_max, out):
    n_frames, frame_len = frames.shape
    prefix = np.zeros((n_frames, frame_len + 1))
    np.cumsum(frames * frames, axis=1, out=prefix[:, 1:])
    total = prefix[:, frame_len:]
    head = prefix[:, frame_len - lag_max : frame_len - lag_min + 1][:, ::-1]
    tail = total - prefix[:, lag_min : lag_max + 1]
    denom = np.sqrt(head * tail)
    live = denom > 0.0

    spectrum = rfft(padded, axis=1)
    spectrum *= spectrum.conj()
    num = irfft(spectrum, n=padded.shape[1], axis=1, overwrite_x=True)
    np.divide(num[:, lag_min : lag_max + 1], denom, out=out, where=live)


def _assert_autocorr_bitwise(frames, lag_min, lag_max):
    got = kernels.autocorr_matrix(frames, lag_min, lag_max)
    ref = _autocorr_blocks(frames, lag_min, lag_max)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _pitch_lags(sample_rate, frame_len):
    """The lag range pitch_contour asks of the kernel at the default F0 range."""
    return (max(2, int(np.floor(sample_rate / DEFAULTS.pitch_fmax))),
            min(int(np.ceil(sample_rate / DEFAULTS.pitch_fmin)), frame_len - 1))


class TestNumpyKernels:
    def test_active_backend(self):
        assert kernels.active_backend() == "numpy"

    def test_dtw_table_single_cell(self):
        table = kernels.dtw_table(np.array([[3.5]]))
        assert table[0, 0] == 3.5

    def test_dtw_table_rows_and_cols_cumsum(self):
        rng = np.random.default_rng(0)
        cost = _random_cost(rng, 4, 5)
        table = kernels.dtw_table(cost)
        np.testing.assert_array_equal(table[0], np.cumsum(cost[0]))
        np.testing.assert_array_equal(table[:, 0], np.cumsum(cost[:, 0]))

    def test_dtw_table_recurrence(self):
        rng = np.random.default_rng(1)
        cost = _random_cost(rng, 6, 7)
        table = kernels.dtw_table(cost)
        for i in range(1, 6):
            for j in range(1, 7):
                best = min(table[i - 1, j - 1], table[i - 1, j], table[i, j - 1])
                assert table[i, j] == cost[i, j] + best

    def test_dtw_table_pitch_sized_bitwise(self):
        rng = np.random.default_rng(3)
        cost = _random_cost(rng, 120, 140)
        np.testing.assert_array_equal(kernels.dtw_table(cost), _dtw_table_rows(cost))
        np.testing.assert_array_equal(kernels.dtw_table(cost.T), _dtw_table_rows(cost.T))

    def test_autocorr_normalization_bounds(self):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(5, 200))
        corr = kernels.autocorr_matrix(frames, 20, 80)
        assert corr.shape == (5, 61)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)

    def test_autocorr_periodic_signal_peaks_at_period(self):
        # A 50-sample period at 16 kHz: the tracker reads 320 Hz off the kernel.
        t = np.arange(400)
        frames = np.sin(2.0 * np.pi * t / 50.0)[None, :]
        contour = pitch_contour(frames, 16000, 160)
        assert contour.f0_hz[0] == pytest.approx(320.0, abs=0.1)

    def test_autocorr_zero_energy_is_zero(self):
        frames = np.zeros((2, 100))
        corr = kernels.autocorr_matrix(frames, 10, 40)
        np.testing.assert_array_equal(corr, 0.0)

    def test_autocorr_spans_fft_blocks(self):
        rng = np.random.default_rng(4)
        n_frames = 2 * kernels.AUTOCORR_BLOCK_FRAMES + 5
        frames = rng.normal(size=(n_frames, 640))
        ref, _ = _autocorr_direct(frames, 40, 267)
        np.testing.assert_allclose(kernels.autocorr_matrix(frames, 40, 267), ref,
                                   rtol=0.0, atol=1e-13)

    def test_autocorr_spans_energy_blocks(self):
        # dsp.blockwise hands the analyses dsp.BLOCK_FRAMES frames at a time,
        # which relies on this: cut at those boundaries, the slices' results
        # concatenate to the whole, bit for bit.
        rng = np.random.default_rng(5)
        n_frames = 2 * BLOCK_FRAMES + 3
        frames = rng.normal(size=(n_frames, 160))
        whole = kernels.autocorr_matrix(frames, 20, 100)
        pieces = [kernels.autocorr_matrix(frames[lo : lo + BLOCK_FRAMES], 20, 100)
                  for lo in range(0, n_frames, BLOCK_FRAMES)]
        assert [piece.shape[0] for piece in pieces] == [BLOCK_FRAMES, BLOCK_FRAMES, 3]
        np.testing.assert_array_equal(whole, np.concatenate(pieces))

    def test_next_fast_len_matches_scipy(self):
        for n in range(1, 20001):
            assert kernels._next_fast_len(n) == next_fast_len(n, real=True), n

    @pytest.mark.parametrize("lag_min, lag_max", [(60, 50), (-1, 10), (40, 105), (10, 100)])
    def test_autocorr_rejects_lag_range(self, lag_min, lag_max):
        with pytest.raises(InvalidParamsError, match="lag_min"):
            kernels.autocorr_matrix(np.ones((5, 100)), lag_min, lag_max)

    def test_autocorr_bitwise_on_corpus_framings(self, corpus_frames):
        for frames, sr in corpus_frames:
            _assert_autocorr_bitwise(frames, *_pitch_lags(sr, frames.shape[1]))


@st.composite
def _costs(draw, elements):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    return draw(arrays(np.float64, (n, m), elements=elements))


@st.composite
def _autocorr_cases(draw):
    frame_len = draw(st.integers(2, 80))
    n_frames = draw(st.integers(1, 6))
    lag_max = draw(st.integers(0, frame_len - 1))
    lag_min = draw(st.integers(0, lag_max))
    samples = st.floats(-1.0, 1.0, allow_subnormal=False)
    frames = draw(arrays(np.float64, (n_frames, frame_len), elements=samples))
    return frames, lag_min, lag_max


_ROW_KINDS = ("noise", "zero", "lead_zeros", "trail_zeros", "periodic", "sine")


@st.composite
def _autocorr_oracle_cases(draw):
    """Frame matrices across block edges with silent, padded and exactly periodic rows."""
    n_frames = draw(st.sampled_from([1, 31, 32, 33, 65]))
    frame_len = draw(st.integers(2, 64))
    lag_max = draw(st.one_of(st.just(frame_len - 1), st.integers(0, frame_len - 1)))
    lag_min = draw(st.one_of(st.just(0), st.integers(0, lag_max)))
    kinds = draw(st.lists(st.sampled_from(_ROW_KINDS), min_size=n_frames, max_size=n_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = rng.uniform(-1.0, 1.0, (n_frames, frame_len))
    n = np.arange(frame_len)
    for row, kind in zip(frames, kinds):
        cut = int(rng.integers(0, frame_len + 1))
        if kind == "zero":
            row[:] = 0.0
        elif kind == "lead_zeros":
            row[:cut] = 0.0
        elif kind == "trail_zeros":
            row[cut:] = 0.0
        elif kind == "periodic":
            # Small dyadic values: the per-lag sums are exact, so multiples
            # of the period tie exactly.
            period = int(rng.integers(1, frame_len + 1))
            row[:] = np.resize(rng.integers(-4, 5, period) / 4.0, frame_len)
        elif kind == "sine":
            row[:] = np.sin(2.0 * np.pi * n / rng.integers(2, frame_len + 1))
    return frames, lag_min, lag_max


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(_costs(st.floats(0.0, 1e3, allow_subnormal=False)))
    def test_dtw_table_bitwise_equals_row_loop(self, cost):
        np.testing.assert_array_equal(kernels.dtw_table(cost), _dtw_table_rows(cost))

    @settings(max_examples=150, deadline=None)
    @given(_costs(st.integers(0, 3).map(float)))
    def test_dtw_table_bitwise_with_ties(self, cost):
        np.testing.assert_array_equal(kernels.dtw_table(cost), _dtw_table_rows(cost))

    @settings(max_examples=300, deadline=None)
    @given(_autocorr_cases())
    def test_autocorr_matches_direct_sums(self, case):
        frames, lag_min, lag_max = case
        ref, denoms = _autocorr_direct(frames, lag_min, lag_max)
        got = kernels.autocorr_matrix(frames, lag_min, lag_max)
        assert got.shape == ref.shape
        total = np.sum(frames * frames, axis=1)[:, None]
        live = denoms > 0.0
        np.testing.assert_array_equal(got[~live], 0.0)
        bound = PEAK_ULPS * EPS * total / np.where(live, denoms, 1.0)
        assert np.all(np.abs(got - ref)[live] <= bound[live])

    @settings(max_examples=200, deadline=None)
    @given(_autocorr_oracle_cases())
    @example((np.zeros((33, 40)), 0, 39))
    @example((np.tile(np.array([1.0, 0.0, -1.0, 0.0]), (65, 16)), 0, 63))
    def test_autocorr_bitwise_equals_blocked_oracle(self, case):
        _assert_autocorr_bitwise(*case)


def _edge_signals():
    """Waveforms by name that the front end must take, or refuse, without a warning."""
    t = np.arange(16000) / 16000.0
    tone = 0.5 * np.sin(2.0 * np.pi * 180.0 * t)
    signals = {
        "silence": Waveform(np.zeros(16000), 16000),
        "dc_offset": Waveform(np.full(16000, 0.25), 16000),
        "dc_plus_tone": Waveform(0.3 + tone, 16000),
        "clipped": Waveform(np.clip(4.0 * tone, -1.0, 1.0), 16000),
        "one_frame": Waveform(tone[:640], 16000),
        "shorter_than_frame": Waveform(tone[:100], 16000),
    }
    for sr in (8000, 48000):
        ts = np.arange(sr) / sr
        signals[f"tone_{sr}"] = Waveform(0.5 * np.sin(2.0 * np.pi * 180.0 * ts), sr)
    return signals


EDGE_SIGNALS = _edge_signals()


class TestEdgeSignals:
    """The pitch tracker, LLDs and DDUR on edge signals, and the kernel on their frames."""

    @pytest.mark.parametrize("name", EDGE_SIGNALS)
    def test_front_end_quiet_and_in_range(self, name, framed):
        waveform = EDGE_SIGNALS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if name == "shorter_than_frame":
                # No frame at either framing: refused, never zero-padded.
                for frame_ms in (DEFAULTS.pitch_frame_ms, DEFAULTS.lld_frame_ms):
                    with pytest.raises(EmptyInputError):
                        framed(waveform, frame_ms)
                with pytest.raises(EmptyInputError):
                    compute_llds(waveform)
                return
            for frame_ms, hop_ms in ((DEFAULTS.pitch_frame_ms, DEFAULTS.pitch_hop_ms),
                                     (DEFAULTS.lld_frame_ms, DEFAULTS.lld_hop_ms)):
                frames, sr, hop = framed(waveform, frame_ms, hop_ms)
                _assert_autocorr_bitwise(frames, *_pitch_lags(sr, frames.shape[1]))
                contour = pitch_contour(frames, sr, hop)
                f0 = contour.f0_hz
                in_range = (f0 >= DEFAULTS.pitch_fmin) & (f0 <= DEFAULTS.pitch_fmax)
                assert np.all((f0 == 0.0) | in_range)
                np.testing.assert_array_equal(
                    f0 > 0.0, (contour.peak >= DEFAULTS.voicing_threshold)
                    & (contour.rms >= DEFAULTS.silence_rms))
                assert ddur(contour, contour) == 0.0
                assert ddur(contour, contour, Config(ddur_mode="span")) == 0.0
            llds = compute_llds(waveform)
        assert np.all(np.isfinite(llds))
        # compute_llds reads the RMS the tracker computed on the LLD framing.
        lld_frames = framed(waveform, DEFAULTS.lld_frame_ms, DEFAULTS.lld_hop_ms)[0]
        np.testing.assert_array_equal(llds[:, 1], frame_rms(lld_frames))

    @pytest.mark.parametrize("name", ["tone_8000", "tone_48000"])
    def test_tone_tracked_at_other_rates(self, name, framed):
        contour = pitch_contour(*framed(EDGE_SIGNALS[name]))
        voiced = contour.f0_hz > 0.0
        assert voiced.mean() > 0.9
        assert np.max(np.abs(contour.f0_hz[voiced] - 180.0)) < 1.0

    def test_silence_unvoiced_and_dc_not_silent(self, framed):
        silent = pitch_contour(*framed(EDGE_SIGNALS["silence"]))
        assert not silent.f0_hz.any()
        np.testing.assert_array_equal(silent.rms, 0.0)
        dc = pitch_contour(*framed(EDGE_SIGNALS["dc_offset"]))
        np.testing.assert_allclose(dc.rms, 0.25, rtol=1e-12)
