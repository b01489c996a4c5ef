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

from .dsp import Waveform, frame, mel_cepstrum, power_spectrogram
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidParamsError,
    NonFiniteError,
    OrderMismatchError,
)
from .features import (
    DEFAULT_F0_MAX_HZ,
    DEFAULT_F0_MIN_HZ,
    DEFAULT_PITCH_FRAME_MS,
    DEFAULT_PITCH_HOP_MS,
    DEFAULT_SILENCE_RMS,
    DEFAULT_VOICING_THRESHOLD,
    F0Contour,
    energy_contour,
    ms_to_samples,
    pitch_contour,
)
from .kernels import dtw_table

MCD_ALPHA = 10.0 * np.sqrt(2.0) / np.log(10.0)
DEFAULT_MCEP_ORDER = 24
DEFAULT_MCEP_BANDS = 40
DEFAULT_MCEP_FRAME_MS = 25.0
DEFAULT_MCEP_HOP_MS = 10.0
DDUR_MODES = ("voiced", "span")
# Rows of the DTW cost matrix built at once: bounds the difference tensor
# to COST_BLOCK_ROWS * m * d values instead of n * m * d.
COST_BLOCK_ROWS = 16


@dataclass(eq=False)
class AlignmentPath:
    """Monotone index pairs from (0, 0) to (n-1, m-1) plus total cost."""

    pairs: np.ndarray
    total_cost: float

    def __len__(self) -> int:
        return self.pairs.shape[0]


@dataclass(eq=False)
class EvaluationReport:
    """Per-pair conversion metrics with aligned prosody contours."""

    mcd_db: float
    ddur_s: float
    n_aligned_frames: int
    f0_conv: np.ndarray
    f0_ref: np.ndarray
    energy_conv: np.ndarray
    energy_ref: np.ndarray
    f0_path: np.ndarray


def mcep(waveform: Waveform, order: int = DEFAULT_MCEP_ORDER) -> np.ndarray:
    """Mel cepstra c0..order of DEFAULT_MCEP_BANDS Mel bands, (n_frames, order + 1)."""
    if order < 1 or order >= DEFAULT_MCEP_BANDS:
        raise InvalidParamsError(
            f"order must be in [1, {DEFAULT_MCEP_BANDS - 1}], got {order}")
    sr = waveform.sample_rate
    frames = frame(waveform, ms_to_samples(sr, DEFAULT_MCEP_FRAME_MS),
                   ms_to_samples(sr, DEFAULT_MCEP_HOP_MS))
    return mel_cepstrum(power_spectrogram(frames), DEFAULT_MCEP_BANDS, sr)[:, : order + 1]


def _as_sequence(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise EmptyInputError("alignment input must be a non-empty sequence")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("alignment input contains non-finite values")
    return arr


def dtw_align(a, b) -> AlignmentPath:
    """Dynamic time warping with steps (1,0), (0,1), (1,1).

    Ties during backtracking prefer the diagonal step, then advancing the
    first sequence.  The cost of a cell is the Euclidean norm of the
    difference of its two frame vectors.
    """
    a = _as_sequence(a)
    b = _as_sequence(b)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"sequences have different widths: {a.shape[1]} vs {b.shape[1]}"
        )
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
    return AlignmentPath(np.array(path, dtype=np.int64), float(table[-1, -1]))


def mcd(a: np.ndarray, b: np.ndarray) -> float:
    """Mean Mel cepstral distortion in dB over the DTW-aligned path, c0 excluded.

    a and b hold cepstra c0..order, one row per frame.
    """
    if a.shape[1] != b.shape[1]:
        raise OrderMismatchError(
            f"cepstral orders differ: {a.shape[1] - 1} vs {b.shape[1] - 1}")
    ca = a[:, 1:]
    cb = b[:, 1:]
    n_coeff = ca.shape[1]
    path = dtw_align(ca, cb).pairs
    diff = ca[path[:, 0]] - cb[path[:, 1]]
    per_frame = MCD_ALPHA / n_coeff * np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return float(per_frame.mean())


def _voiced_duration_s(contour: F0Contour, mode: str) -> float:
    hop_s = contour.frame_shift_s
    if mode == "voiced":
        return float(contour.voiced.sum()) * hop_s
    where = np.flatnonzero(contour.voiced)
    if where.size == 0:
        return 0.0
    return float(where[-1] - where[0] + 1) * hop_s


def ddur(converted: F0Contour, reference: F0Contour, mode: str = "voiced") -> float:
    """Absolute voiced-duration difference in seconds between two F0 contours.

    Mode "voiced" counts all voiced frames; mode "span" measures first to
    last voiced frame inclusive.
    """
    if mode not in DDUR_MODES:
        raise InvalidParamsError(f"mode must be one of {DDUR_MODES}, got {mode!r}")
    conv = _voiced_duration_s(converted, mode)
    ref = _voiced_duration_s(reference, mode)
    return abs(ref - conv)


def _prosody(waveform: Waveform, frame_len: int, hop: int, *voicing) -> tuple:
    """F0 and energy contours from one framing; one waveform's frames live at a time."""
    frames = frame(waveform, frame_len, hop)
    sr = waveform.sample_rate
    return pitch_contour(frames, sr, hop, *voicing), energy_contour(frames, sr)


def contour_report(converted: Waveform, reference: Waveform,
                   mcep_order: int = DEFAULT_MCEP_ORDER,
                   ddur_mode: str = "voiced",
                   frame_ms: float = DEFAULT_PITCH_FRAME_MS,
                   hop_ms: float = DEFAULT_PITCH_HOP_MS,
                   fmin: float = DEFAULT_F0_MIN_HZ,
                   fmax: float = DEFAULT_F0_MAX_HZ,
                   voicing_threshold: float = DEFAULT_VOICING_THRESHOLD,
                   silence_rms: float = DEFAULT_SILENCE_RMS) -> EvaluationReport:
    """Evaluate one converted/reference pair.

    F0 and energy contours share the pitch framing so their frame indices
    are comparable; both are read along the one F0 alignment, whose length
    is the reported n_aligned_frames.  Both waveforms must share one
    sample rate, since Mel bands and frame lengths depend on it.
    """
    if converted.sample_rate != reference.sample_rate:
        raise InvalidParamsError(
            f"sample rates differ: converted {converted.sample_rate} Hz, "
            f"reference {reference.sample_rate} Hz"
        )
    sr = converted.sample_rate
    pitch_args = (ms_to_samples(sr, frame_ms), ms_to_samples(sr, hop_ms),
                  fmin, fmax, voicing_threshold, silence_rms)
    f0_conv, en_conv = _prosody(converted, *pitch_args)
    f0_ref, en_ref = _prosody(reference, *pitch_args)

    f0_path = dtw_align(f0_conv.f0_hz, f0_ref.f0_hz)
    distortion = mcd(mcep(converted, order=mcep_order), mcep(reference, order=mcep_order))
    duration_gap = ddur(f0_conv, f0_ref, mode=ddur_mode)

    return EvaluationReport(
        mcd_db=distortion,
        ddur_s=duration_gap,
        n_aligned_frames=len(f0_path),
        f0_conv=f0_conv.f0_hz,
        f0_ref=f0_ref.f0_hz,
        energy_conv=en_conv,
        energy_ref=en_ref,
        f0_path=f0_path.pairs,
    )


def write_contour_csv(report: EvaluationReport, path) -> None:
    """Write aligned contours as CSV along the F0 alignment path.

    Energy columns reuse the F0 path indices, which is valid because both
    contours are computed on the same framing.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("path_idx,i,j,f0_conv,f0_ref,energy_conv,energy_ref\n")
        for idx, (i, j) in enumerate(report.f0_path):
            row = [str(idx), str(int(i)), str(int(j)),
                   repr(float(report.f0_conv[i])), repr(float(report.f0_ref[j])),
                   repr(float(report.energy_conv[i])), repr(float(report.energy_ref[j]))]
            handle.write(",".join(row) + "\n")
