"""Shared fixtures: signal builders, a session-scoped demo corpus, oracles."""

import numpy as np
import pytest

from emorank.dsp import Waveform, frame
from emorank.features import (
    DEFAULT_PITCH_FRAME_MS,
    DEFAULT_PITCH_HOP_MS,
    extract_feature_vector,
    ms_to_samples,
)
from emorank.manifest import parse_manifest
from emorank.synthcorpus import generate_mini_corpus


@pytest.fixture
def sine():
    def make(hz=220.0, dur_s=1.0, sr=16000, amp=0.5, phase=0.0):
        t = np.arange(int(round(dur_s * sr))) / sr
        return Waveform(amp * np.sin(2.0 * np.pi * hz * t + phase), sr)

    return make


@pytest.fixture(scope="session")
def framed():
    """(frames, sample_rate, hop) of a waveform cut at a framing in ms.

    These are the leading arguments of pitch_contour; energy_contour takes
    the first two.  Session-scoped, so hypothesis tests can use it.
    """
    def cut(waveform, frame_ms=DEFAULT_PITCH_FRAME_MS, hop_ms=DEFAULT_PITCH_HOP_MS):
        sr = waveform.sample_rate
        hop = ms_to_samples(sr, hop_ms)
        return frame(waveform, ms_to_samples(sr, frame_ms), hop), sr, hop

    return cut


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest_path = generate_mini_corpus(root)
    return parse_manifest(manifest_path)


@pytest.fixture(scope="session")
def corpus_features(mini_corpus):
    from emorank.dsp import load_wav

    vectors = {}
    for entry in mini_corpus:
        vectors[entry.utt_id] = extract_feature_vector(load_wav(entry.wav_path))
    return vectors


@pytest.fixture
def brute_force_dtw():
    def solve(cost: np.ndarray) -> float:
        # Exhaustive path enumeration; pruning is safe because costs are
        # non-negative, so a partial sum already at the best is hopeless.
        n, m = cost.shape
        best = [np.inf]

        def walk(i, j, acc):
            acc += cost[i, j]
            if acc >= best[0]:
                return
            if i == n - 1 and j == m - 1:
                best[0] = acc
                return
            if i + 1 < n and j + 1 < m:
                walk(i + 1, j + 1, acc)
            if i + 1 < n:
                walk(i + 1, j, acc)
            if j + 1 < m:
                walk(i, j + 1, acc)

        walk(0, 0, 0.0)
        return best[0]

    return solve
