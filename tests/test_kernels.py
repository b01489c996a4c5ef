"""The NumPy kernels against loop references kept here."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emorank import kernels

EPS = np.finfo(np.float64).eps


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
        t = np.arange(400)
        frames = np.sin(2.0 * np.pi * t / 50.0)[None, :]
        corr = kernels.autocorr_matrix(frames, 30, 120)
        assert 30 + int(corr[0].argmax()) == 50

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
        bound = kernels.PEAK_ULPS * EPS * total / np.where(live, denoms, 1.0)
        assert np.all(np.abs(got - ref)[live] <= bound[live])
        np.testing.assert_array_equal(got.argmax(axis=1), ref.argmax(axis=1))
