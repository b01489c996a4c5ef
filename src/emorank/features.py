"""Frame-level descriptors and fixed-length utterance feature vectors.

Sixteen low-level descriptors per frame (zero-crossing rate, RMS energy,
F0, harmonics-to-noise ratio, 12 MFCCs), their delta contours, and twelve
statistical functionals per contour give a 384-dimensional vector per
utterance.  The vector layout is column-major: all twelve functionals of
contour 0 occupy indices 0..11, contour 1 occupies 12..23, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Waveform, frame, mel_cepstrum, mel_energies, next_pow2, power_spectrogram
from .errors import DimensionMismatchError, InvalidParamsError, ParseError
from .kernels import autocorr_matrix

DEFAULT_LLD_FRAME_MS = 25.0
DEFAULT_LLD_HOP_MS = 10.0
DEFAULT_PITCH_FRAME_MS = 40.0
DEFAULT_PITCH_HOP_MS = 10.0
DEFAULT_F0_MIN_HZ = 60.0
DEFAULT_F0_MAX_HZ = 400.0
DEFAULT_VOICING_THRESHOLD = 0.45
DEFAULT_SILENCE_RMS = 1e-3
DEFAULT_ENERGY_FRAME_MS = 25.0
DEFAULT_ENERGY_HOP_MS = 10.0

N_MEL_FILTERS = 26
N_MFCC = 12
HNR_LIMIT_DB = 60.0
SUBHARMONIC_SLACK = 0.01
DELTA_WEIGHTS = (1, 2)
DELTA_NORM = 2 * sum(k * k for k in DELTA_WEIGHTS)

LLD_COLUMNS = ("zcr", "rms", "f0", "hnr") + tuple(f"mfcc{i}" for i in range(1, N_MFCC + 1))
FUNCTIONAL_NAMES = (
    "mean", "stddev", "skewness", "kurtosis",
    "min", "rel_min_pos", "max", "rel_max_pos",
    "range", "lr_offset", "lr_slope", "lr_mse",
)
N_FEATURES = 2 * len(LLD_COLUMNS) * len(FUNCTIONAL_NAMES)


@dataclass(eq=False)
class LldMatrix:
    """Per-frame descriptor matrix, one column per descriptor."""

    values: np.ndarray
    frame_shift_ms: float

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(eq=False)
class FeatureVector:
    """Fixed-length utterance descriptor with an optional source id."""

    values: np.ndarray
    provenance: str = ""


@dataclass(eq=False)
class F0Contour:
    """Per-frame fundamental frequency; 0 Hz marks unvoiced frames."""

    f0_hz: np.ndarray
    voiced: np.ndarray
    frame_shift_ms: float


@dataclass(eq=False)
class EnergyContour:
    """Per-frame total Mel-filtered spectral energy."""

    energy: np.ndarray
    frame_shift_ms: float


def frame_rms(frames: np.ndarray) -> np.ndarray:
    """Root mean square value of each frame row."""
    return np.sqrt(np.mean(frames * frames, axis=1))


def frame_zcr(frames: np.ndarray) -> np.ndarray:
    """Sign-change rate of each frame row, in flips per sample step."""
    if frames.shape[1] < 2:
        return np.zeros(frames.shape[0])
    nonneg = frames >= 0.0
    flips = np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1)
    return flips / (frames.shape[1] - 1)


def _ms_to_samples(sample_rate: int, ms: float) -> int:
    return int(round(sample_rate * ms / 1000.0))


def _climb_to_peak(corr: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per row, the first lag k >= first[row] where corr stops rising.

    corr stops rising at k when corr[k + 1] > corr[k] fails, and always at
    the last lag, so every row has a stop at or after its start.
    """
    stop = np.ones(corr.shape, dtype=bool)
    np.logical_not(corr[:, 1:] > corr[:, :-1], out=stop[:, :-1])
    stop &= np.arange(corr.shape[1]) >= first[:, None]
    return stop.argmax(axis=1)


def _f0_from_frames(frames: np.ndarray, sample_rate: int,
                    fmin: float, fmax: float,
                    voicing_threshold: float, silence_rms: float):
    """Autocorrelation pitch per frame: (f0_hz, voiced, peak_corr)."""
    if not 0.0 < fmin < fmax:
        raise InvalidParamsError("need 0 < fmin < fmax")
    n_frames, frame_len = frames.shape
    lag_min = max(2, int(np.floor(sample_rate / fmax)))
    lag_max = min(int(np.ceil(sample_rate / fmin)), frame_len - 1)
    if lag_max <= lag_min:
        zeros = np.zeros(n_frames)
        return zeros, np.zeros(n_frames, dtype=bool), zeros
    corr = autocorr_matrix(frames, lag_min, lag_max)
    peak = corr.max(axis=1)
    rows = np.arange(n_frames)

    # A periodic signal correlates equally at every multiple of its period,
    # and integer lags can favor a multiple by chance.  Take the shortest
    # lag within a small slack of the global peak, then climb to the local
    # maximum of that candidate region.
    first = (corr >= (peak - SUBHARMONIC_SLACK)[:, None]).argmax(axis=1)
    best = _climb_to_peak(corr, first)

    # Parabolic refinement of the peak lag where both neighbors exist.
    lag_star = (lag_min + best).astype(np.float64)
    interior = (best > 0) & (best < corr.shape[1] - 1)
    left = corr[rows[interior], best[interior] - 1]
    mid = corr[rows[interior], best[interior]]
    right = corr[rows[interior], best[interior] + 1]
    curvature = left - 2.0 * mid + right
    shift = np.zeros(mid.shape)
    np.divide(0.5 * (left - right), curvature, out=shift, where=np.abs(curvature) > 1e-30)
    lag_star[interior] += np.clip(shift, -0.5, 0.5)

    f0 = np.clip(sample_rate / lag_star, fmin, fmax)
    voiced = (peak >= voicing_threshold) & (frame_rms(frames) >= silence_rms)
    return np.where(voiced, f0, 0.0), voiced, peak


def pitch_contour(waveform: Waveform,
                  frame_ms: float = DEFAULT_PITCH_FRAME_MS,
                  hop_ms: float = DEFAULT_PITCH_HOP_MS,
                  fmin: float = DEFAULT_F0_MIN_HZ,
                  fmax: float = DEFAULT_F0_MAX_HZ,
                  voicing_threshold: float = DEFAULT_VOICING_THRESHOLD,
                  silence_rms: float = DEFAULT_SILENCE_RMS) -> F0Contour:
    """Track F0 with normalized autocorrelation and a voicing gate.

    A frame is voiced when its best normalized autocorrelation in the lag
    range for [fmin, fmax] reaches voicing_threshold and its RMS reaches
    silence_rms.  Unvoiced frames carry f0 = 0.
    """
    sr = waveform.sample_rate
    frames = frame(waveform, _ms_to_samples(sr, frame_ms), _ms_to_samples(sr, hop_ms))
    f0, voiced, _ = _f0_from_frames(frames.frames, sr, fmin, fmax,
                                    voicing_threshold, silence_rms)
    return F0Contour(f0, voiced, hop_ms)


def energy_contour(waveform: Waveform,
                   frame_ms: float = DEFAULT_ENERGY_FRAME_MS,
                   hop_ms: float = DEFAULT_ENERGY_HOP_MS) -> EnergyContour:
    """Per-frame sum of the N_MEL_FILTERS Mel filter outputs on the power spectrum."""
    sr = waveform.sample_rate
    frames = frame(waveform, _ms_to_samples(sr, frame_ms), _ms_to_samples(sr, hop_ms))
    n_fft = next_pow2(frames.frame_len)
    power = power_spectrogram(frames, n_fft)
    return EnergyContour(mel_energies(power, N_MEL_FILTERS, n_fft, sr).sum(axis=1), hop_ms)


def compute_llds(waveform: Waveform,
                 frame_ms: float = DEFAULT_LLD_FRAME_MS,
                 hop_ms: float = DEFAULT_LLD_HOP_MS,
                 fmin: float = DEFAULT_F0_MIN_HZ,
                 fmax: float = DEFAULT_F0_MAX_HZ,
                 voicing_threshold: float = DEFAULT_VOICING_THRESHOLD,
                 silence_rms: float = DEFAULT_SILENCE_RMS) -> LldMatrix:
    """Compute the 16 per-frame descriptors on a shared framing.

    Columns follow LLD_COLUMNS: zero-crossing rate, RMS, F0 (0 when
    unvoiced), harmonics-to-noise ratio in dB clamped to +/-60, and MFCCs
    1..12 from a 26-filter Mel bank.
    """
    sr = waveform.sample_rate
    frames = frame(waveform, _ms_to_samples(sr, frame_ms), _ms_to_samples(sr, hop_ms))
    x = frames.frames

    zcr = frame_zcr(x)
    rms = frame_rms(x)
    f0, _, peak = _f0_from_frames(x, sr, fmin, fmax, voicing_threshold, silence_rms)

    # HNR from the autocorrelation peak: 10 log10(r / (1 - r)), clamped.
    safe = np.clip(peak, 1e-12, 1.0 - 1e-12)
    hnr = np.clip(10.0 * np.log10(safe / (1.0 - safe)), -HNR_LIMIT_DB, HNR_LIMIT_DB)

    n_fft = next_pow2(frames.frame_len)
    power = power_spectrogram(frames, n_fft)
    mfcc = mel_cepstrum(power, N_MEL_FILTERS, n_fft, sr)[:, 1 : N_MFCC + 1]

    values = np.column_stack([zcr, rms, f0, hnr, mfcc])
    return LldMatrix(values, hop_ms)


def delta(llds: LldMatrix) -> LldMatrix:
    """Two-tap regression delta of each contour, edges clamped.

    delta[t] = sum_k k * (x[t+k] - x[t-k]) / (2 * sum_k k^2) for k in
    {1, 2}, with out-of-range indices clamped to the first or last frame.
    """
    x = llds.values
    idx = np.arange(x.shape[0])
    acc = np.zeros_like(x)
    for k in DELTA_WEIGHTS:
        ahead = x[np.clip(idx + k, 0, x.shape[0] - 1)]
        behind = x[np.clip(idx - k, 0, x.shape[0] - 1)]
        acc += k * (ahead - behind)
    return LldMatrix(acc / DELTA_NORM, llds.frame_shift_ms)


def functionals(llds: LldMatrix, deltas: LldMatrix, provenance: str = "") -> FeatureVector:
    """Twelve statistics per contour over descriptors and their deltas.

    Statistics follow FUNCTIONAL_NAMES.  Skewness and excess kurtosis are
    0 by convention for constant contours; relative extremum positions are
    first occurrences scaled to [0, 1], and 0 for single-frame input.
    """
    if llds.n_frames != deltas.n_frames:
        raise DimensionMismatchError(
            f"descriptor and delta frame counts differ: {llds.n_frames} vs {deltas.n_frames}"
        )
    if llds.values.shape[1] != len(LLD_COLUMNS) or deltas.values.shape[1] != len(LLD_COLUMNS):
        raise DimensionMismatchError(f"expected {len(LLD_COLUMNS)} descriptor columns")
    # One contour per C-contiguous row: row reductions then add in the same
    # order as on a single column, so mean and std match it bitwise.
    x = np.ascontiguousarray(np.hstack([llds.values, deltas.values]).T)
    n = x.shape[1]
    rows = np.arange(x.shape[0])
    imin = x.argmin(axis=1)
    imax = x.argmax(axis=1)
    cmin = x[rows, imin]
    cmax = x[rows, imax]
    # Constant contours: moments and regression residuals vanish exactly.
    constant = cmax == cmin
    mean = x.mean(axis=1)
    dev = x - mean[:, None]
    std = np.sqrt(np.mean(dev * dev, axis=1))
    std[constant] = 0.0
    z = dev / np.where(constant, 1.0, std)[:, None]
    z2 = z * z
    skew = np.mean(z2 * z, axis=1)
    kurt = np.mean(z2 * z2, axis=1) - 3.0
    t = np.arange(n, dtype=np.float64)
    t_centered = t - t.mean()
    slope = dev @ t_centered / (t_centered @ t_centered if n > 1 else 1.0)
    slope[constant] = 0.0
    offset = mean - slope * t.mean()
    resid = x - (offset[:, None] + slope[:, None] * t)
    mse = np.mean(resid * resid, axis=1)
    for stat in (skew, kurt, mse):
        stat[constant] = 0.0
    span = max(n - 1, 1)
    stats = np.column_stack([mean, std, skew, kurt, cmin, imin / span, cmax, imax / span,
                             cmax - cmin, offset, slope, mse])
    return FeatureVector(stats.ravel(), provenance)


def extract_feature_vector(waveform: Waveform, provenance: str = "",
                           **lld_kwargs) -> FeatureVector:
    """Full pipeline from waveform to the 384-dimensional vector."""
    llds = compute_llds(waveform, **lld_kwargs)
    return functionals(llds, delta(llds), provenance)


def feature_index_map() -> list:
    """Describe every vector index as (name, contour, functional)."""
    columns = list(LLD_COLUMNS) + ["de_" + c for c in LLD_COLUMNS]
    entries = []
    for c, column in enumerate(columns):
        for f, functional in enumerate(FUNCTIONAL_NAMES):
            index = c * len(FUNCTIONAL_NAMES) + f
            entries.append({
                "index": index,
                "name": f"f{index:03d}",
                "column": column,
                "functional": functional,
            })
    return entries


def feature_csv_header() -> list:
    return ["id"] + [f"f{i:03d}" for i in range(N_FEATURES)]


def write_features_csv(vectors, path) -> None:
    """Write feature vectors as CSV rows `id,f000..f383`.

    Ids must be non-empty, unique, and free of commas and line breaks, so
    that read_features_csv reads the file back; otherwise nothing is
    written and InvalidParamsError is raised.
    """
    vectors = list(vectors)
    seen = set()
    for vec in vectors:
        ident = vec.provenance
        if not ident or "," in ident or ident.splitlines() != [ident]:
            raise InvalidParamsError(
                f"feature id {ident!r} must be non-empty without commas or line breaks")
        if ident in seen:
            raise InvalidParamsError(f"duplicate feature id {ident!r}")
        seen.add(ident)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(feature_csv_header()) + "\n")
        for vec in vectors:
            values = np.asarray(vec.values, dtype=np.float64).tolist()
            handle.write(vec.provenance + "," + ",".join(map(repr, values)) + "\n")


def read_features_csv(path) -> list:
    """Read feature vectors written by write_features_csv; ids unique, values finite."""
    expected = feature_csv_header()
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].split(",") != expected:
        raise ParseError(f"{path}: bad feature CSV header")
    vectors = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(expected):
            raise ParseError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(parts)}")
        if parts[0] in seen:
            raise ParseError(f"{path}:{lineno}: duplicate id {parts[0]!r}")
        seen.add(parts[0])
        try:
            values = np.array([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric feature value") from exc
        if not np.all(np.isfinite(values)):
            raise ParseError(f"{path}:{lineno}: non-finite feature value")
        vectors.append(FeatureVector(values, parts[0]))
    return vectors
