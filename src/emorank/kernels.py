"""Hot numeric kernels in NumPy.

The two data-dependent loops that dominate runtime live here: the dynamic
programming table for time alignment and the per-frame normalized
autocorrelation used by pitch tracking.  The table is filled one
anti-diagonal at a time, whose cells depend only on the two diagonals
before it; the autocorrelation numerators come from FFTs (Wiener-Khinchin),
run a block of frames at a time, while its energies, divide and tie guard
run once on the whole frame matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import InvalidParamsError

# Frames per FFT block in autocorr_matrix, which bounds its working memory.
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
    maximum sits where the per-lag sums put it.

    Only the FFT chain runs AUTOCORR_BLOCK_FRAMES frames at a time, which
    bounds its working memory; the energies, the divide and the tie guard
    each run once on the whole matrix.  A block makes six NumPy calls
    where it made over twenty, so the threads of --jobs spend less time
    in per-call work that holds the GIL.
    """
    n_frames, frame_len = frames.shape
    if not 0 <= lag_min <= lag_max < frame_len:
        raise InvalidParamsError(
            f"need 0 <= lag_min <= lag_max < frame_len, got lag_min {lag_min}, "
            f"lag_max {lag_max}, frame_len {frame_len}"
        )
    denom, total = _denominators(frames, lag_min, lag_max)

    out = np.empty(denom.shape)
    n_fft = next_fast_len(frame_len + lag_max, real=True)
    # A zero-padded copy: scipy.fft pads more slowly than this.
    padded = np.zeros((min(n_frames, AUTOCORR_BLOCK_FRAMES), n_fft))
    for lo in range(0, n_frames, AUTOCORR_BLOCK_FRAMES):
        hi = min(lo + AUTOCORR_BLOCK_FRAMES, n_frames)
        block = padded[: hi - lo]
        block[:, :frame_len] = frames[lo:hi]
        spectrum = rfft(block, axis=1)
        # |X|^2 kept complex: scipy.fft converts a real input more slowly,
        # and re^2 + im^2 rounds differently from this product.
        spectrum *= spectrum.conj()
        num = irfft(spectrum, n=n_fft, axis=1, overwrite_x=True)
        out[lo:hi] = num[:, lag_min : lag_max + 1]

    live = denom > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= denom
    out[~live] = 0.0
    bound = PEAK_ULPS * np.finfo(np.float64).eps * total
    _fix_near_ties(frames, lag_min, out, denom, live, bound)
    return out


def _denominators(frames, lag_min, lag_max):
    """sqrt(head * tail) energies per frame and lag, and each frame's energy."""
    n_frames, frame_len = frames.shape
    prefix = np.zeros((n_frames, frame_len + 1))
    energy = np.multiply(frames, frames, out=prefix[:, 1:])
    np.cumsum(energy, axis=1, out=energy)
    total = prefix[:, frame_len].copy()
    # head[:, k] = energy of x[0 : frame_len - tau], tail[:, k] = of x[tau:].
    head = prefix[:, frame_len - lag_max : frame_len - lag_min + 1][:, ::-1]
    denom = total[:, None] - prefix[:, lag_min : lag_max + 1]
    denom *= head
    return np.sqrt(denom, out=denom), total


def _fix_near_ties(frames, lag_min, out, denom, live, bound) -> None:
    """Recompute as direct sums the entries that could be a row's maximum.

    Entry k of a row is off by at most err = bound / denom[k] (0 where the
    denominator is 0).  It is near the top when out + err reaches the
    row's maximum less the maximum's err, and a row with more than one
    near entry gets its live near entries recomputed.  Each err is at most
    E = bound / smallest, smallest being the row's smallest live
    denominator, so a near entry lies within 2E of the maximum up
    to the rounding of that comparison.  E is at least PEAK_ULPS ulps of 1
    (no denominator exceeds the frame energy), far above that rounding, so
    only rows with two entries at or above max - 4E take the exact test.
    """
    smallest = np.min(denom, axis=1, where=live, initial=np.inf)
    margin = 4.0 * (bound / smallest)
    reach = out >= (out.max(axis=1) - margin)[:, None]
    rows = np.flatnonzero(np.count_nonzero(reach, axis=1) > 1)
    if rows.size == 0:
        return
    sub = out[rows]
    live = live[rows]
    err = np.zeros_like(sub)
    np.divide(bound[rows, None], denom[rows], out=err, where=live)
    at = np.arange(rows.size)
    top = sub.argmax(axis=1)
    near = sub + err >= (sub[at, top] - err[at, top])[:, None]
    near &= (np.count_nonzero(near, axis=1) > 1)[:, None]
    near_at, near_lags = np.nonzero(near & live)
    frame_len = frames.shape[1]
    for k in np.unique(near_lags):
        f = rows[near_at[near_lags == k]]
        tau = lag_min + k
        num = np.einsum("ij,ij->i", frames[f, : frame_len - tau], frames[f, tau:])
        out[f, k] = num / denom[f, k]


def active_backend() -> str:
    """Name of the kernel implementation the package runs on."""
    return "numpy"
