"""Waveform I/O, framing, power spectra, Mel filterbank outputs and cepstra.

All analysis runs on mono float64 sample arrays.  Spectra are one-sided
power spectra scaled so that each row sums to n_fft times the mean squared
value of the zero-padded windowed frame, which keeps total energy checks
exact instead of approximate.
"""

from __future__ import annotations

import functools
import os
import wave
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidParamsError, NonFiniteError, ParseError

DEFAULT_LOG_FLOOR = 1e-10
# A Mel filter whose largest weight is below this is empty: what is left is
# rounding residue at an edge (mel_to_hz(hz_to_mel(8000.0)) > 8000.0).
MIN_FILTER_PEAK = 1e-9

PCM_SCALE = 32768.0
# Frame rows blockwise passes at once, which bounds a per-frame analysis's memory.
BLOCK_FRAMES = 512


@dataclass(eq=False)
class Waveform:
    """Mono audio signal.  Samples are nominally within [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise EmptyInputError("waveform must be a non-empty 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise NonFiniteError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise InvalidParamsError("sample_rate must be positive")


def load_wav(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF/WAVE file, scaling samples by 1/32768."""
    try:
        reader = wave.open(str(path), "rb")
    except wave.Error as exc:
        raise ParseError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    except EOFError as exc:
        raise ParseError(f"{path}: truncated RIFF/WAVE file") from exc
    except RuntimeError as exc:
        # wave raises a bare RuntimeError when a chunk size runs past its parent chunk.
        raise ParseError(f"{path}: RIFF chunk size out of range") from exc
    with reader:
        if reader.getcomptype() != "NONE":
            raise ParseError(f"{path}: compressed WAVE data is not supported")
        if reader.getnchannels() != 1:
            raise ParseError(
                f"{path}: expected mono, got {reader.getnchannels()} channels"
            )
        if reader.getsampwidth() != 2:
            raise ParseError(
                f"{path}: expected 16-bit samples, got {8 * reader.getsampwidth()}-bit"
            )
        sample_rate = reader.getframerate()
        declared = 2 * reader.getnframes()
        # A header may declare gigabytes; never ask for more than the file holds.
        raw = reader.readframes(min(reader.getnframes(), os.path.getsize(path) // 2))
    if len(raw) % 2:
        raise ParseError(
            f"{path}: truncated sample data ({len(raw)} bytes is not a whole number "
            "of 16-bit samples)"
        )
    if len(raw) < declared:
        raise ParseError(
            f"{path}: truncated sample data ({len(raw)} of {declared} declared bytes)"
        )
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    if data.size == 0:
        raise ParseError(f"{path}: file contains no samples")
    return Waveform(data, sample_rate)


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono RIFF/WAVE."""
    pcm = np.clip(np.round(np.asarray(samples, dtype=np.float64) * (PCM_SCALE - 1)),
                  -PCM_SCALE, PCM_SCALE - 1).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(int(sample_rate))
        writer.writeframes(pcm.tobytes())


def frame(waveform: Waveform, frame_len: int, hop: int) -> np.ndarray:
    """Cut a waveform into floor((n_samples - frame_len) / hop) + 1 frames.

    The (n_frames, frame_len) result is a read-only strided view of the
    samples, so framing copies nothing.  A waveform shorter than one frame
    raises EmptyInputError: a zero-padded frame would give plausible
    features for no speech.
    """
    if frame_len < 1 or hop < 1:
        raise InvalidParamsError("frame_len and hop must be >= 1")
    x = waveform.samples
    if x.size < frame_len:
        raise EmptyInputError(
            f"waveform has {x.size} samples, fewer than one {frame_len}-sample frame")
    return np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]


def blockwise(analysis, frames: np.ndarray) -> np.ndarray:
    """analysis(frames) for an analysis whose rows are per frame, BLOCK_FRAMES rows at a time."""
    return np.concatenate([analysis(frames[lo : lo + BLOCK_FRAMES])
                           for lo in range(0, frames.shape[0], BLOCK_FRAMES)])


def power_spectrogram(frames: np.ndarray) -> np.ndarray:
    """One-sided Hann-windowed power spectrum per frame, n_fft = next_pow2(frame_len).

    Rows are scaled as |X[k]|^2 / n_fft with non-DC, non-Nyquist bins
    doubled, so each row sums to n_fft times the mean squared value of the
    zero-padded windowed frame.
    """
    frame_len = frames.shape[1]
    n_fft = next_pow2(frame_len)
    spectrum = np.fft.rfft(frames * _hann_window(frame_len), n=n_fft, axis=1)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    power /= n_fft
    # n_fft is even or 1, so the last bin is Nyquist or DC.
    power[:, 1:-1] *= 2.0
    return power


@functools.lru_cache(maxsize=32)
def _hann_window(frame_len: int) -> np.ndarray:
    """np.hanning(frame_len), cached and shared, so read-only."""
    window = np.hanning(frame_len)
    window.flags.writeable = False
    return window


def hz_to_mel(hz):
    """Map frequency in Hz onto the Mel scale, 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    """Inverse of hz_to_mel."""
    return 700.0 * (np.power(10.0, np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular Mel filter weights with unit peak, (n_mels, n_fft // 2 + 1).

    The filters span 0 Hz to sample_rate / 2.  A bank with a filter whose
    peak is below MIN_FILTER_PEAK is rejected.  The analysis applies the bank
    through _mel_support, which caches its nonzero entries.
    """
    if n_mels < 1:
        raise InvalidParamsError("n_mels must be >= 1")
    if n_fft < 2:
        raise InvalidParamsError("n_fft must be >= 2")
    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    weights = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(weights.max(axis=1) < MIN_FILTER_PEAK):
        raise InvalidParamsError(
            f"n_fft={n_fft} gives empty Mel filters; raise n_fft or lower n_mels"
        )
    return weights


@functools.lru_cache(maxsize=32)
def _mel_support(n_mels: int, n_fft: int, sample_rate: int):
    """Nonzero weights of mel_filterbank, filter by filter, and its column sums.

    Returns (columns, weights, starts, column_sums): filter m's nonzero
    weights are weights[starts[m]:starts[m + 1]] on bins columns[...] of
    the same slice.  Each triangle covers one contiguous bin range and each
    bin lies in at most two filters, so there are at most 2 * (n_fft // 2 + 1)
    weights.  The arrays are cached and shared, so they are read-only.
    """
    bank = mel_filterbank(n_mels, n_fft, sample_rate)
    filters, columns = np.nonzero(bank)
    starts = np.searchsorted(filters, np.arange(n_mels))
    # mel_filterbank rejects empty filters, so no segment is empty; reduceat
    # would return a segment's first element instead of 0 for one.
    assert np.all(np.diff(starts) > 0) and starts[-1] < columns.size
    support = (columns, bank[filters, columns], starts, bank.sum(axis=0))
    for array in support:
        array.flags.writeable = False
    return support


def mel_energies(power: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """Outputs of the n_mels-filter Mel bank on each row of a power spectrogram.

    power comes from power_spectrogram, so its n_fft is 2 * (bins - 1).
    Sums each filter's nonzero bins only, with no BLAS call: a matrix
    product here would wake BLAS threads inside the CLI's worker threads.
    """
    columns, weights, starts, _ = _mel_support(n_mels, 2 * (power.shape[1] - 1), sample_rate)
    gathered = power[:, columns]
    gathered *= weights
    return np.add.reduceat(gathered, starts, axis=1)


def mel_energy_totals(power: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """Row sums of mel_energies, from the bank's column sums in one row reduction."""
    column_sums = _mel_support(n_mels, 2 * (power.shape[1] - 1), sample_rate)[3]
    return np.einsum("ij,j->i", power, column_sums)


@functools.lru_cache(maxsize=32)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix, (n, n): row k holds basis vector k.

    matrix[k, j] = s_k cos(pi k (2j + 1) / (2n)), with s_0 = sqrt(1/n) and
    s_k = sqrt(2/n).  The integer k (2j + 1) is reduced modulo 4n before
    the scaling by pi, which keeps matrix @ matrix.T within a few ulps of
    the identity.  The matrix is cached and shared, so it is read-only.
    """
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    matrix = np.cos(np.pi * ((k * (2 * j + 1)) % (4 * n)) / (2 * n))
    matrix *= np.sqrt(2.0 / n)
    matrix[0] = np.sqrt(1.0 / n)
    matrix.flags.writeable = False
    return matrix


def mel_cepstrum(power: np.ndarray, n_mels: int, sample_rate: int) -> np.ndarray:
    """Orthonormal DCT-II of the log Mel energies floored at DEFAULT_LOG_FLOOR, per row.

    The DCT is _dct_matrix applied with einsum, not a matrix product, for
    the reason mel_energies gives.
    """
    energies = mel_energies(power, n_mels, sample_rate)
    log_energies = np.log(np.maximum(energies, DEFAULT_LOG_FLOOR))
    return np.einsum("ij,kj->ik", log_energies, _dct_matrix(n_mels))


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(0, int(n) - 1).bit_length()
