"""Deterministic synthetic mini-corpus for demos and end-to-end tests.

Each item is a small harmonic "utterance": a few voiced syllables with a
vibrato F0 contour, separated by silence.  Every neutral utterance has an
emotional twin rendered from the same parameters with raised pitch, wider
pitch modulation, more energy, and a faster tempo, so intensity ranking
has a real prosodic signal to find.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from numpy.random import Generator, default_rng

from .dsp import save_wav
from .errors import InvalidParamsError
from .manifest import EMOTIONS, ManifestEntry, write_manifest

DEFAULT_PAIRS = 15
DEFAULT_EMOTION = "happy"
DEFAULT_SEED = 7
DEFAULT_SR = 16000

_HARMONIC_AMPS = (1.0, 0.5, 0.25, 0.12)
_EDGE_MS = 20.0
_NOISE_STD = 0.0015


def _sample_params(rng: Generator) -> dict:
    n_syl = int(rng.integers(3, 6))
    return {
        "n_syllables": n_syl,
        "syl_dur_ms": rng.uniform(130.0, 210.0, n_syl),
        "gap_ms": rng.uniform(40.0, 90.0, n_syl),
        "f0_base": float(rng.uniform(110.0, 130.0)),
        "syl_f0_jitter": rng.uniform(0.95, 1.05, n_syl),
        "vibrato_hz": float(rng.uniform(2.5, 3.5)),
        "vibrato_phase": float(rng.uniform(0.0, 2.0 * np.pi)),
        "harmonic_phases": rng.uniform(0.0, 2.0 * np.pi, len(_HARMONIC_AMPS)),
        "amp": float(rng.uniform(0.24, 0.32)),
        "noise_seed": int(rng.integers(0, 2 ** 31)),
    }


def _render(params: dict, sample_rate: int, emotional: bool) -> np.ndarray:
    f0_mul = 1.5 if emotional else 1.0
    vib_depth = 0.12 if emotional else 0.04
    amp = params["amp"] * (1.7 if emotional else 1.0)
    tempo = 0.85 if emotional else 1.0
    edge = int(sample_rate * _EDGE_MS / 1000.0)

    chunks = [np.zeros(int(sample_rate * 0.12))]
    for s in range(params["n_syllables"]):
        n = int(sample_rate * params["syl_dur_ms"][s] * tempo / 1000.0)
        t = np.arange(n) / sample_rate
        vibrato = 1.0 + vib_depth * np.sin(
            2.0 * np.pi * params["vibrato_hz"] * t + params["vibrato_phase"]
        )
        f0 = params["f0_base"] * params["syl_f0_jitter"][s] * f0_mul \
            * (1.0 - 0.03 * s) * vibrato
        phase = 2.0 * np.pi * np.cumsum(f0) / sample_rate
        tone = np.zeros(n)
        for k, (h_amp, h_phase) in enumerate(zip(_HARMONIC_AMPS, params["harmonic_phases"])):
            tone += h_amp * np.sin((k + 1) * phase + h_phase)
        tone *= amp / sum(_HARMONIC_AMPS)
        envelope = np.ones(n)
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(min(edge, n)) / max(edge, 1))
        envelope[: ramp.size] = ramp
        envelope[n - ramp.size :] = ramp[::-1]
        chunks.append(tone * envelope)
        chunks.append(np.zeros(int(sample_rate * params["gap_ms"][s] * tempo / 1000.0)))
    chunks.append(np.zeros(int(sample_rate * 0.1)))

    signal = np.concatenate(chunks)
    noise_rng = default_rng(params["noise_seed"] + int(emotional))
    signal = signal + noise_rng.normal(0.0, _NOISE_STD, signal.size)
    return np.clip(signal, -0.98, 0.98)


def generate_mini_corpus(out_dir, n_pairs: int = DEFAULT_PAIRS,
                         emotion: str = DEFAULT_EMOTION,
                         seed: int = DEFAULT_SEED) -> Path:
    """Write neutral/emotional wav twins plus a manifest; return its path.

    The corpus is fully determined by the arguments, so repeated calls
    produce byte-identical files.
    """
    if emotion not in EMOTIONS or emotion == "neutral":
        raise InvalidParamsError(f"emotion must be a non-neutral member of {EMOTIONS}")
    if n_pairs < 1:
        raise InvalidParamsError("n_pairs must be >= 1")
    if seed < 0:
        raise InvalidParamsError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = default_rng(seed)
    entries = []
    for i in range(n_pairs):
        params = _sample_params(rng)
        for emotional in (False, True):
            stem = f"{emotion}{i:03d}" if emotional else f"neu{i:03d}"
            wav_path = out_dir / f"{stem}.wav"
            save_wav(wav_path, _render(params, DEFAULT_SR, emotional), DEFAULT_SR)
            entries.append(ManifestEntry(
                utt_id=stem,
                wav_path=wav_path,
                speaker="synth",
                emotion=emotion if emotional else "neutral",
                split="train",
            ))
    manifest_path = out_dir / "manifest.tsv"
    write_manifest(entries, manifest_path)
    return manifest_path
