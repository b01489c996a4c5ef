"""Frame-level descriptors and fixed-length utterance feature vectors.

Sixteen low-level descriptors per frame (zero-crossing rate, RMS energy,
F0, harmonics-to-noise ratio, 12 MFCCs), their delta contours, and twelve
statistical functionals per contour give a 384-dimensional vector per
utterance.  The vector layout is column-major: all twelve functionals of
contour 0 occupy indices 0..11, contour 1 occupies 12..23, and so on.
The F0 and energy contours are frame-level: they reduce a frame matrix the
caller cut, so one framing of a waveform can feed several analyses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Config
from .dsp import Waveform, blockwise, frame, mel_cepstrum, mel_energy_totals, power_spectrogram
from .errors import DimensionMismatchError, InvalidParamsError, NonFiniteError
from .kernels import autocorr_matrix
from .tables import check_field, check_key, parse_floats, read_keyed_table, write_table

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
FEATURE_CSV_COLUMNS = ("id",) + tuple(f"f{i:03d}" for i in range(N_FEATURES))


@dataclass(eq=False)
class F0Contour:
    """Per-frame F0 (0 Hz marks unvoiced frames), peak normalized autocorrelation and RMS."""

    f0_hz: np.ndarray
    frame_shift_s: float
    peak: np.ndarray
    rms: np.ndarray


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


def ms_to_samples(sample_rate: int, ms: float) -> int:
    """A duration in milliseconds as the nearest whole number of samples."""
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


def pitch_contour(frames: np.ndarray, sample_rate: int, hop: int,
                  config: Config = DEFAULTS) -> F0Contour:
    """Track F0 over frames cut hop samples apart, by normalized autocorrelation.

    A frame is voiced when its best normalized autocorrelation in the lag
    range for [config.pitch_fmin, config.pitch_fmax] reaches
    config.voicing_threshold and its RMS reaches config.silence_rms.  Voiced
    frames carry f0 in that range, so f0 > 0 marks them; unvoiced frames
    carry f0 = 0.  A frame too short to hold two lags of that range raises
    InvalidParamsError rather than report every frame unvoiced.
    """
    fmin, fmax = config.pitch_fmin, config.pitch_fmax
    n_frames, frame_len = frames.shape
    lag_min = max(2, int(np.floor(sample_rate / fmax)))
    lag_max = min(int(np.ceil(sample_rate / fmin)), frame_len - 1)
    if lag_max <= lag_min:
        raise InvalidParamsError(
            f"a {frame_len}-sample frame at {sample_rate} Hz holds fewer than two lags for F0 in "
            f"[{fmin:g}, {fmax:g}] Hz (lags {lag_min}..{lag_max})"
        )
    rms = frame_rms(frames)
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
    voiced = (peak >= config.voicing_threshold) & (rms >= config.silence_rms)
    return F0Contour(np.where(voiced, f0, 0.0), hop / sample_rate, peak, rms)


def energy_contour(frames: np.ndarray, sample_rate: int) -> np.ndarray:
    """Per-frame sum of the N_MEL_FILTERS Mel filter outputs on the power spectrum."""
    return mel_energy_totals(power_spectrogram(frames), N_MEL_FILTERS, sample_rate)


def compute_llds(waveform: Waveform, config: Config = DEFAULTS) -> np.ndarray:
    """Compute the 16 per-frame descriptors on the LLD framing, (n_frames, 16).

    Columns follow LLD_COLUMNS: zero-crossing rate, RMS, F0 (0 when
    unvoiced), harmonics-to-noise ratio in dB clamped to +/-60, and MFCCs
    1..12 from a 26-filter Mel bank.
    """
    sr = waveform.sample_rate
    hop = ms_to_samples(sr, config.lld_hop_ms)

    def llds(x):
        pitch = pitch_contour(x, sr, hop, config)
        # HNR from the autocorrelation peak: 10 log10(r / (1 - r)), clamped.
        safe = np.clip(pitch.peak, 1e-12, 1.0 - 1e-12)
        hnr = np.clip(10.0 * np.log10(safe / (1.0 - safe)), -HNR_LIMIT_DB, HNR_LIMIT_DB)
        mfcc = mel_cepstrum(power_spectrogram(x), N_MEL_FILTERS, sr)[:, 1 : N_MFCC + 1]
        return np.column_stack([frame_zcr(x), pitch.rms, pitch.f0_hz, hnr, mfcc])

    return blockwise(llds, frame(waveform, ms_to_samples(sr, config.lld_frame_ms), hop))


def delta(x: np.ndarray) -> np.ndarray:
    """Two-tap regression delta of each contour, edges clamped.

    delta[t] = sum_k k * (x[t+k] - x[t-k]) / (2 * sum_k k^2) for k in
    {1, 2}, with out-of-range indices clamped to the first or last frame.
    """
    idx = np.arange(x.shape[0])
    acc = np.zeros_like(x)
    for k in DELTA_WEIGHTS:
        ahead = x[np.clip(idx + k, 0, x.shape[0] - 1)]
        ahead -= x[np.clip(idx - k, 0, x.shape[0] - 1)]
        acc += k * ahead
    return acc / DELTA_NORM


def functionals(llds: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Twelve statistics per contour over descriptors and their deltas, (N_FEATURES,).

    Statistics follow FUNCTIONAL_NAMES.  Skewness and excess kurtosis are
    0 by convention for constant contours, and for contours whose standard
    deviation underflows to 0; relative extremum positions are
    first occurrences scaled to [0, 1], and 0 for single-frame input.
    """
    if llds.shape[0] != deltas.shape[0]:
        raise DimensionMismatchError(
            f"descriptor and delta frame counts differ: {llds.shape[0]} vs {deltas.shape[0]}"
        )
    if any(m.ndim != 2 or m.shape[1] != len(LLD_COLUMNS) for m in (llds, deltas)):
        raise DimensionMismatchError(f"expected {len(LLD_COLUMNS)} descriptor columns")
    # One contour per C-contiguous row: row reductions then add in the same
    # order as on a single column, so mean and std match it bitwise.
    x = np.ascontiguousarray(np.hstack([llds, deltas]).T)
    n = x.shape[1]
    rows = np.arange(x.shape[0])
    imin = x.argmin(axis=1)
    imax = x.argmax(axis=1)
    cmin = x[rows, imin]
    cmax = x[rows, imax]
    mean = x.mean(axis=1)
    dev = x - mean[:, None]
    std = np.sqrt(np.mean(dev * dev, axis=1))
    # Constant contours, and those whose squared deviations underflow to a 0
    # std (NaN moments otherwise): moments and regression residuals are 0.
    constant = (cmax == cmin) | (std == 0.0)
    std[constant] = 0.0
    t = np.arange(n, dtype=np.float64)
    t_centered = t - t.mean()
    # einsum, not a matrix product: no BLAS call inside the CLI's worker threads.
    slope = np.einsum("ij,j->i", dev, t_centered)
    slope /= np.einsum("i,i->", t_centered, t_centered) if n > 1 else 1.0
    slope[constant] = 0.0
    offset = mean - slope * t.mean()
    mse = np.mean(np.square(x - (offset[:, None] + slope[:, None] * t)), axis=1)
    # The moments last, in dev's memory: each array here spans every frame.
    z = np.divide(dev, np.where(constant, 1.0, std)[:, None], out=dev)
    z2 = z * z
    skew = np.mean(np.multiply(z, z2, out=z), axis=1)
    kurt = np.mean(np.multiply(z2, z2, out=z2), axis=1) - 3.0
    for stat in (skew, kurt, mse):
        stat[constant] = 0.0
    span = max(n - 1, 1)
    stats = np.column_stack([mean, std, skew, kurt, cmin, imin / span, cmax, imax / span,
                             cmax - cmin, offset, slope, mse])
    return stats.ravel()


def extract_feature_vector(waveform: Waveform, provenance: str = "",
                           config: Config = DEFAULTS) -> np.ndarray:
    """Full pipeline from waveform to the 384-dimensional vector.

    provenance is not used.  It stays in the signature because the traced
    benchmark's tests (perfbench/tests/test_bench_spans.py) label a call with
    it positionally.
    """
    llds = compute_llds(waveform, config)
    return functionals(llds, delta(llds))


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


def check_feature_ids(ids) -> None:
    """Raise ParseError unless the ids can key a feature CSV.

    They must be non-empty, unique, and free of commas and line breaks, so
    that read_features_csv reads the file back.
    """
    seen = set()
    for ident in ids:
        check_key(seen, ident, "feature ids")
        check_field(ident, ",", "feature id")


def write_features_csv(ids, matrix, path) -> None:
    """Write one CSV row `id,f000..f383` per id and row of the (n, 384) matrix.

    Nothing is written when there are no ids, an id fails check_feature_ids
    (ParseError) or a row holds a non-finite value (NonFiniteError naming
    its id), since read_features_csv would refuse the file.
    """
    ids = list(ids)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (len(ids), N_FEATURES):
        raise DimensionMismatchError(
            f"expected a ({len(ids)}, {N_FEATURES}) feature matrix, got {matrix.shape}")
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise NonFiniteError(f"{path}: feature row {ids[bad[0]]!r} holds a non-finite value")
    write_table(path, ",", FEATURE_CSV_COLUMNS,
                ([ident, *map(repr, values)] for ident, values in zip(ids, matrix.tolist())))


def read_features_csv(path) -> tuple:
    """Read a file of write_features_csv: (ids, (n, 384) matrix); ids unique, values finite."""
    rows = {ident: parse_floats(path, lineno, values, "feature")
            for lineno, (ident, *values) in read_keyed_table(path, ",", FEATURE_CSV_COLUMNS)}
    return list(rows), np.array(list(rows.values()))
