"""Waveform I/O, framing, power spectra, Mel filterbank outputs and cepstra.

All analysis runs on mono float64 sample arrays.  Spectra are one-sided
power spectra scaled so that each row sums to n_fft times the mean squared
value of the zero-padded windowed frame, which keeps total energy checks
exact instead of approximate.
"""

from __future__ import annotations

import functools
import wave
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from .errors import EmptyInputError, InvalidParamsError, NonFiniteError, UnsupportedFormatError

DEFAULT_LOG_FLOOR = 1e-10

PCM_SCALE = 32768.0


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

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass(eq=False)
class FrameSequence:
    """Overlapping fixed-length frames cut from one waveform."""

    frames: np.ndarray
    frame_len: int
    hop: int

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(eq=False, frozen=True)
class FilterBank:
    """Triangular Mel filters evaluated on one-sided FFT bin frequencies."""

    weights: np.ndarray
    centers_hz: np.ndarray
    sample_rate: int
    n_fft: int


def load_wav(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF/WAVE file, scaling samples by 1/32768."""
    try:
        reader = wave.open(str(path), "rb")
    except wave.Error as exc:
        raise UnsupportedFormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    except EOFError as exc:
        raise UnsupportedFormatError(f"{path}: truncated RIFF/WAVE file") from exc
    with reader:
        if reader.getcomptype() != "NONE":
            raise UnsupportedFormatError(f"{path}: compressed WAVE data is not supported")
        if reader.getnchannels() != 1:
            raise UnsupportedFormatError(
                f"{path}: expected mono, got {reader.getnchannels()} channels"
            )
        if reader.getsampwidth() != 2:
            raise UnsupportedFormatError(
                f"{path}: expected 16-bit samples, got {8 * reader.getsampwidth()}-bit"
            )
        sample_rate = reader.getframerate()
        declared = 2 * reader.getnframes()
        raw = reader.readframes(reader.getnframes())
    if len(raw) % 2:
        raise UnsupportedFormatError(
            f"{path}: truncated sample data ({len(raw)} bytes is not a whole number "
            "of 16-bit samples)"
        )
    if len(raw) < declared:
        raise UnsupportedFormatError(
            f"{path}: truncated sample data ({len(raw)} of {declared} declared bytes)"
        )
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    if data.size == 0:
        raise UnsupportedFormatError(f"{path}: file contains no samples")
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


def frame(waveform: Waveform, frame_len: int, hop: int) -> FrameSequence:
    """Cut a waveform into overlapping frames.

    Yields floor((n_samples - frame_len) / hop) + 1 frames.  Inputs shorter
    than one frame produce a single zero-padded frame.
    """
    if frame_len < 1 or hop < 1:
        raise InvalidParamsError("frame_len and hop must be >= 1")
    x = waveform.samples
    if x.size < frame_len:
        padded = np.zeros((1, frame_len))
        padded[0, : x.size] = x
        return FrameSequence(padded, frame_len, hop)
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    return FrameSequence(np.ascontiguousarray(windows, dtype=np.float64), frame_len, hop)


def power_spectrogram(frames: FrameSequence, n_fft: int) -> np.ndarray:
    """One-sided Hann-windowed power spectrum, one row per frame.

    Rows are scaled as |X[k]|^2 / n_fft with non-DC, non-Nyquist bins
    doubled, so each row sums to n_fft times the mean squared value of the
    zero-padded windowed frame.
    """
    if n_fft < frames.frame_len:
        raise InvalidParamsError(f"n_fft={n_fft} shorter than frame_len={frames.frame_len}")
    window = np.hanning(frames.frame_len)
    spectrum = np.fft.rfft(frames.frames * window, n=n_fft, axis=1)
    power = (spectrum.real ** 2 + spectrum.imag ** 2) / n_fft
    last = power.shape[1] - 1 if n_fft % 2 == 0 else power.shape[1]
    power[:, 1:last] *= 2.0
    return power


def hz_to_mel(hz):
    """Map frequency in Hz onto the Mel scale, 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    """Inverse of hz_to_mel."""
    return 700.0 * (np.power(10.0, np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> FilterBank:
    """Build triangular Mel filters with unit peak on FFT bin frequencies.

    The filters span 0 Hz to sample_rate / 2.  Results are cached per
    argument tuple and shared between callers, so their arrays are
    read-only.
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
    if np.any(weights.sum(axis=1) == 0.0):
        raise InvalidParamsError(
            f"n_fft={n_fft} gives empty Mel filters; raise n_fft or lower n_mels"
        )
    weights.flags.writeable = False
    edges_hz.flags.writeable = False
    return FilterBank(weights, edges_hz[1:-1], sample_rate, n_fft)


def mel_energies(power: np.ndarray, n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Outputs of the n_mels-filter Mel bank on each row of an n_fft power spectrogram."""
    return power @ mel_filterbank(n_mels, n_fft, sample_rate).weights.T


def mel_cepstrum(power: np.ndarray, n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Orthonormal DCT-II of the log Mel energies floored at DEFAULT_LOG_FLOOR, per row."""
    energies = mel_energies(power, n_mels, n_fft, sample_rate)
    return dct(np.log(np.maximum(energies, DEFAULT_LOG_FLOOR)), type=2, norm="ortho", axis=1)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(0, int(n) - 1).bit_length()
