"""Hot numeric kernels in NumPy.

The two data-dependent loops that dominate runtime live here: the dynamic
programming table for time alignment and the per-frame normalized
autocorrelation used by pitch tracking.  The table is filled one
anti-diagonal at a time, whose cells depend only on the two diagonals
before it; the autocorrelation numerators come from FFTs (Wiener-Khinchin).
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

# Frames per block in autocorr_matrix, which bounds its working memory.
AUTOCORR_BLOCK_FRAMES = 32
# Bound on the FFT numerators' rounding, in ulps of the frame energy.
PEAK_ULPS = 64


def dtw_table(cost: np.ndarray) -> np.ndarray:
    """Accumulated-cost table for steps {(1,0), (0,1), (1,1)}.

    table[i, j] = cost[i, j] + min(table[i-1, j-1], table[i-1, j], table[i, j-1]),
    with the first row and column running sums of cost.  In the flattened
    table, anti-diagonal i + j = d is a slice with step m - 1, and its
    three predecessors are the same slice shifted back by m + 1, m and 1.
    Every cell does the same single addition as a row-by-row loop, so the
    table is bitwise equal to one.
    """
    n, m = cost.shape
    table = np.empty((n, m))
    table[0, :] = np.cumsum(cost[0, :])
    table[:, 0] = np.cumsum(cost[:, 0])
    if n == 1 or m == 1:
        return table
    flat = table.reshape(-1)
    flat_cost = np.ascontiguousarray(cost, dtype=np.float64).reshape(-1)
    step = m - 1
    scratch = np.empty(min(n, m) - 1)
    for d in range(2, n + m - 1):
        i_lo = max(1, d - m + 1)
        i_hi = min(n - 1, d - 1)
        start = i_lo * m + (d - i_lo)
        stop = i_hi * m + (d - i_hi) + 1
        best = scratch[: i_hi - i_lo + 1]
        np.minimum(flat[start - m - 1 : stop - m - 1 : step],
                   flat[start - m : stop - m : step], out=best)
        np.minimum(best, flat[start - 1 : stop - 1 : step], out=best)
        np.add(flat_cost[start:stop:step], best, out=flat[start:stop:step])
    return table


def autocorr_matrix(frames: np.ndarray, lag_min: int, lag_max: int) -> np.ndarray:
    """Normalized autocorrelation per frame for lags lag_min..lag_max.

    r[f, k] = sum(x[n] x[n+tau]) / sqrt(sum_head(x^2) * sum_tail(x^2))
    with tau = lag_min + k, zero where either energy term vanishes.  The
    numerators are the inverse FFT of each frame's power spectrum, with
    enough zero padding (frame_len + lag_max) that no lag up to lag_max
    wraps around.  They differ from direct sums by rounding, within
    PEAK_ULPS ulps of the frame's energy, which is enough to reorder lags
    that tie within rounding, such as the multiples of an exact period.
    In a row where more than one entry could be the maximum within that
    bound, those entries are recomputed as direct sums, so each row's
    maximum sits where the per-lag sums put it.  Frames are processed
    AUTOCORR_BLOCK_FRAMES at a time, which bounds the working memory.
    """
    n_frames, frame_len = frames.shape
    out = np.zeros((n_frames, lag_max - lag_min + 1))
    # A zero-padded copy: scipy.fft pads more slowly than this.
    padded = np.zeros((min(n_frames, AUTOCORR_BLOCK_FRAMES),
                       next_fast_len(frame_len + lag_max, real=True)))
    for lo in range(0, n_frames, AUTOCORR_BLOCK_FRAMES):
        hi = min(lo + AUTOCORR_BLOCK_FRAMES, n_frames)
        padded[: hi - lo, :frame_len] = frames[lo:hi]
        _autocorr_block(frames[lo:hi], padded[: hi - lo], lag_min, lag_max, out[lo:hi])
    return out


def _autocorr_block(frames, padded, lag_min, lag_max, out) -> None:
    """autocorr_matrix of one block of frames, written into out."""
    n_frames, frame_len = frames.shape
    prefix = np.zeros((n_frames, frame_len + 1))
    np.cumsum(frames * frames, axis=1, out=prefix[:, 1:])
    total = prefix[:, frame_len:]
    # head[:, k] = energy of x[0 : frame_len - tau], tail[:, k] = of x[tau:].
    head = prefix[:, frame_len - lag_max : frame_len - lag_min + 1][:, ::-1]
    tail = total - prefix[:, lag_min : lag_max + 1]
    denom = np.sqrt(head * tail)
    live = denom > 0.0

    spectrum = rfft(padded, axis=1)
    # |X|^2 kept complex: scipy.fft converts a real input more slowly.
    spectrum *= spectrum.conj()
    num = irfft(spectrum, n=padded.shape[1], axis=1, overwrite_x=True)
    np.divide(num[:, lag_min : lag_max + 1], denom, out=out, where=live)

    err = np.zeros_like(out)
    np.divide(PEAK_ULPS * np.finfo(np.float64).eps * total, denom, out=err, where=live)
    rows = np.arange(n_frames)
    top = out.argmax(axis=1)
    near = out + err >= (out[rows, top] - err[rows, top])[:, None]
    near &= (np.count_nonzero(near, axis=1) > 1)[:, None]
    near_rows, near_lags = np.nonzero(near & live)
    for k in np.unique(near_lags):
        f = near_rows[near_lags == k]
        tau = lag_min + k
        num = np.einsum("ij,ij->i", frames[f, : frame_len - tau], frames[f, tau:])
        out[f, k] = num / denom[f, k]


def active_backend() -> str:
    """Name of the kernel implementation the package runs on."""
    return "numpy"
