"""Hot numeric kernels in NumPy.

The two data-dependent loops that dominate runtime live here: the dynamic
programming table for time alignment and the per-frame normalized
autocorrelation used by pitch tracking.  The table is filled one
anti-diagonal at a time, whose cells depend only on the two diagonals
before it; the autocorrelation numerators come from FFTs (Wiener-Khinchin)
in cache-sized chunks.  Both take any matrix whole (callers bound its rows,
dsp.blockwise) and only read it, so it may be a read-only strided view.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import irfft, rfft

from .errors import InvalidParamsError

# Frames per FFT block in autocorr_matrix: a cache-sized chunk, not a memory bound.
AUTOCORR_BLOCK_FRAMES = 32


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
    wraps around.  They differ from direct sums by rounding, within 64 ulps
    of the frame's energy, which can reorder lags that tie within rounding,
    such as the multiples of an exact period: a row's argmax may differ
    from the direct sums', its maximum value only by that rounding.

    Only the FFT chain runs in chunks of AUTOCORR_BLOCK_FRAMES frames, six
    NumPy calls each, so --jobs threads hold the GIL for little per-call work.
    """
    n_frames, frame_len = frames.shape
    if not 0 <= lag_min <= lag_max < frame_len:
        raise InvalidParamsError(
            f"need 0 <= lag_min <= lag_max < frame_len, got lag_min {lag_min}, "
            f"lag_max {lag_max}, frame_len {frame_len}"
        )
    denom = _denominators(frames, lag_min, lag_max)

    out = np.empty(denom.shape)
    n_fft = _next_fast_len(frame_len + lag_max)
    # A zero-padded copy: rfft(..., n=n_fft) pads more slowly than this.
    padded = np.zeros((min(n_frames, AUTOCORR_BLOCK_FRAMES), n_fft))
    for lo in range(0, n_frames, AUTOCORR_BLOCK_FRAMES):
        hi = min(lo + AUTOCORR_BLOCK_FRAMES, n_frames)
        block = padded[: hi - lo]
        block[:, :frame_len] = frames[lo:hi]
        spectrum = rfft(block, axis=1)
        # |X|^2 kept complex: irfft converts a real input to complex more
        # slowly, and re^2 + im^2 rounds differently from this product.
        spectrum *= spectrum.conj()
        num = irfft(spectrum, n=n_fft, axis=1)
        out[lo:hi] = num[:, lag_min : lag_max + 1]

    with np.errstate(divide="ignore", invalid="ignore"):
        out /= denom
    out[~(denom > 0.0)] = 0.0
    return out


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer (2**a * 3**b * 5**c) >= n, for n >= 1.

    numpy.fft is fastest on lengths with only these prime factors.
    """
    best = 1 << (n - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5  # 3**b * 5**c
        while odd < best:
            # The smallest power-of-two multiple of odd that reaches n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def _denominators(frames, lag_min, lag_max):
    """sqrt(head * tail) energies per frame and lag, from each frame's energy prefix sums."""
    n_frames, frame_len = frames.shape
    denom = np.empty((n_frames, lag_max - lag_min + 1))  # first, for the allocator: 10% faster
    prefix = np.zeros((n_frames, frame_len + 1))
    energy = np.multiply(frames, frames, out=prefix[:, 1:])
    np.cumsum(energy, axis=1, out=energy)
    # head[:, k] = energy of x[0 : frame_len - tau], tail[:, k] = of x[tau:].
    head = prefix[:, frame_len - lag_max : frame_len - lag_min + 1][:, ::-1]
    np.subtract(prefix[:, frame_len:], prefix[:, lag_min : lag_max + 1], out=denom)
    denom *= head
    return np.sqrt(denom, out=denom)


def active_backend() -> str:
    """Name of the kernel implementation the package runs on."""
    return "numpy"
