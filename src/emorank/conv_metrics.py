"""Objective voice-conversion metrics: spectral distortion, duration, contours.

Mel cepstral distortion averages, over a DTW-aligned frame path,
(10 * sqrt(2) / ln 10) * (1/M) * sqrt(sum of squared coefficient
differences), excluding the energy coefficient c0.  Duration
difference compares total voiced time between the F0 contours of two
recordings.  The contour report bundles both with DTW-aligned F0 and energy
trajectories, both reduced from one pitch framing of each waveform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_MCEP_BANDS, DEFAULTS, Config
from .dsp import Waveform, blockwise, frame, mel_cepstrum, power_spectrogram
from .errors import DimensionMismatchError, EmptyInputError, InvalidParamsError, NonFiniteError
from .features import F0Contour, energy_contour, ms_to_samples, pitch_contour
from .kernels import dtw_table
from .tables import write_table

MCD_ALPHA = 10.0 * np.sqrt(2.0) / np.log(10.0)
DEFAULT_MCEP_FRAME_MS = 25.0
DEFAULT_MCEP_HOP_MS = 10.0
CONTOUR_CSV_COLUMNS = ("path_idx", "i", "j", "f0_conv", "f0_ref", "energy_conv", "energy_ref")
# Rows of the DTW cost matrix built at once: bounds the difference tensor
# to COST_BLOCK_ROWS * m * d values instead of n * m * d.
COST_BLOCK_ROWS = 16
# Largest n * m alignment dtw_align builds: its cost matrix and table take
# 16 bytes per cell, so 2**26 cells is 1 GiB (about 82 s by 82 s at a 10 ms hop).
MAX_DTW_CELLS = 2 ** 26


@dataclass(eq=False)
class EvaluationReport:
    """Per-pair conversion metrics with aligned prosody contours."""

    mcd_db: float
    ddur_s: float
    f0_conv: np.ndarray
    f0_ref: np.ndarray
    energy_conv: np.ndarray
    energy_ref: np.ndarray
    f0_path: np.ndarray


def mcep(waveform: Waveform, config: Config = DEFAULTS) -> np.ndarray:
    """Mel cepstra c0..config.mcep_order of DEFAULT_MCEP_BANDS Mel bands, one row per frame."""
    sr = waveform.sample_rate
    n_coeffs = config.mcep_order + 1

    def cepstra(frames):
        return mel_cepstrum(power_spectrogram(frames), DEFAULT_MCEP_BANDS, sr)[:, :n_coeffs]

    return blockwise(cepstra, frame(waveform, ms_to_samples(sr, DEFAULT_MCEP_FRAME_MS),
                                    ms_to_samples(sr, DEFAULT_MCEP_HOP_MS)))


def _as_sequence(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptyInputError("alignment input must be a non-empty sequence")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("alignment input contains non-finite values")
    return arr


def dtw_align(a, b) -> tuple:
    """Dynamic time warping with steps (1,0), (0,1), (1,1): (pairs, total cost).

    pairs is the (path length, 2) int64 array of monotone index pairs from
    (0, 0) to (n-1, m-1); the total is the summed cost along it.  Ties
    during backtracking prefer the diagonal step, then advancing the first
    sequence.  The cost of a cell is the Euclidean norm of the difference
    of its two frame vectors.  An alignment of more than MAX_DTW_CELLS
    cells raises InvalidParamsError before anything of its size is allocated.
    """
    a = _as_sequence(a)
    b = _as_sequence(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"sequences have different widths: {a.shape[1]} vs {b.shape[1]}"
        )
    if a.shape[0] * b.shape[0] > MAX_DTW_CELLS:
        raise InvalidParamsError(
            f"aligning {a.shape[0]} with {b.shape[0]} frames needs "
            f"{a.shape[0] * b.shape[0]} cells, above the limit of {MAX_DTW_CELLS}")
    cost = np.empty((a.shape[0], b.shape[0]))
    for lo in range(0, a.shape[0], COST_BLOCK_ROWS):
        diff = a[lo : lo + COST_BLOCK_ROWS, None, :] - b[None, :, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff), out=cost[lo : lo + COST_BLOCK_ROWS])
    table = dtw_table(cost)

    i, j = a.shape[0] - 1, b.shape[0] - 1
    path = [(i, j)]
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            diag, up, left = table[i - 1, j - 1], table[i - 1, j], table[i, j - 1]
            best = min(diag, up, left)
            if diag == best:
                i, j = i - 1, j - 1
            elif up == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return np.array(path, dtype=np.int64), float(table[-1, -1])


def mcd(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Mel cepstral distortion in dB over the DTW-aligned path, c0 excluded.

    a and b hold cepstra c0..order, one row per frame; dtw_align refuses
    different orders.  The alignment's total cost already sums the per-frame
    distances along the path.
    """
    ca = a[:, 1:]
    cb = b[:, 1:]
    path, total = dtw_align(ca, cb)
    return float(MCD_ALPHA / ca.shape[1] * total / len(path))


def _voiced_duration_s(contour: F0Contour, mode: str) -> float:
    hop_s = contour.frame_shift_s
    voiced = contour.f0_hz > 0.0
    if mode == "voiced":
        return float(voiced.sum()) * hop_s
    where = np.flatnonzero(voiced)
    if where.size == 0:
        return 0.0
    return float(where[-1] - where[0] + 1) * hop_s


def ddur(converted: F0Contour, reference: F0Contour, config: Config = DEFAULTS) -> float:
    """Absolute voiced-duration difference in seconds between two F0 contours.

    config.ddur_mode "voiced" counts all voiced frames; "span" measures
    first to last voiced frame inclusive.
    """
    conv = _voiced_duration_s(converted, config.ddur_mode)
    ref = _voiced_duration_s(reference, config.ddur_mode)
    return abs(ref - conv)


def _prosody(waveform: Waveform, config: Config) -> tuple:
    """F0 and energy contours from one pitch framing, reduced a block of frames at a time."""
    sr = waveform.sample_rate
    hop = ms_to_samples(sr, config.pitch_hop_ms)

    def prosody(frames):
        pitch = pitch_contour(frames, sr, hop, config)
        return np.column_stack([pitch.f0_hz, pitch.peak, pitch.rms, energy_contour(frames, sr)])

    frames = frame(waveform, ms_to_samples(sr, config.pitch_frame_ms), hop)
    f0, peak, rms, energy = blockwise(prosody, frames).T
    return F0Contour(f0, hop / sr, peak, rms), energy


def contour_report(converted: Waveform, reference: Waveform,
                   config: Config = DEFAULTS) -> EvaluationReport:
    """Evaluate one converted/reference pair.

    F0 and energy contours share the pitch framing so their frame indices
    are comparable; both are read along the one F0 alignment.  Both waveforms
    must share one sample rate, since Mel bands and frame lengths depend on it,
    and each must hold at least the longer of the pitch and mcep frames:
    a zero-padded frame would give a plausible distortion for no speech.
    """
    if converted.sample_rate != reference.sample_rate:
        raise InvalidParamsError(
            f"sample rates differ: converted {converted.sample_rate} Hz, "
            f"reference {reference.sample_rate} Hz"
        )
    sr = converted.sample_rate
    frame_len = max(ms_to_samples(sr, config.pitch_frame_ms),
                    ms_to_samples(sr, DEFAULT_MCEP_FRAME_MS))
    for side, waveform in (("converted", converted), ("reference", reference)):
        if waveform.samples.size < frame_len:
            raise EmptyInputError(
                f"{side} waveform has {waveform.samples.size} samples, "
                f"fewer than one {frame_len}-sample frame")
    f0_conv, en_conv = _prosody(converted, config)
    f0_ref, en_ref = _prosody(reference, config)

    f0_path, _ = dtw_align(f0_conv.f0_hz, f0_ref.f0_hz)
    distortion = mcd(mcep(converted, config), mcep(reference, config))
    duration_gap = ddur(f0_conv, f0_ref, config)

    return EvaluationReport(
        mcd_db=distortion,
        ddur_s=duration_gap,
        f0_conv=f0_conv.f0_hz,
        f0_ref=f0_ref.f0_hz,
        energy_conv=en_conv,
        energy_ref=en_ref,
        f0_path=f0_path,
    )


def write_contour_csv(report: EvaluationReport, path) -> None:
    """Write aligned contours as CSV along the F0 alignment path.

    Energy columns reuse the F0 path indices, which is valid because both
    contours are computed on the same framing.
    """
    write_table(path, ",", CONTOUR_CSV_COLUMNS,
                ([str(idx), str(int(i)), str(int(j)),
                  repr(float(report.f0_conv[i])), repr(float(report.f0_ref[j])),
                  repr(float(report.energy_conv[i])), repr(float(report.energy_ref[j]))]
                 for idx, (i, j) in enumerate(report.f0_path)))
