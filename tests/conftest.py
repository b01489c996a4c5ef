"""Shared fixtures: signal builders, a session-scoped demo corpus, oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emorank
from emorank.config import DEFAULTS
from emorank.dsp import Waveform, frame
from emorank.features import extract_feature_vector, ms_to_samples
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
    def cut(waveform, frame_ms=DEFAULTS.pitch_frame_ms, hop_ms=DEFAULTS.pitch_hop_ms):
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
def corpus_frames(mini_corpus, framed):
    """(frames, sample_rate) of every corpus utterance at the LLD and the pitch framing."""
    from emorank.dsp import load_wav

    cuts = []
    for entry in mini_corpus:
        waveform = load_wav(entry.wav_path)
        for frame_ms, hop_ms in ((DEFAULTS.lld_frame_ms, DEFAULTS.lld_hop_ms),
                                 (DEFAULTS.pitch_frame_ms, DEFAULTS.pitch_hop_ms)):
            cuts.append(framed(waveform, frame_ms, hop_ms)[:2])
    return cuts


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


@pytest.fixture(scope="session")
def peak_growth_mb():
    """Peak resident growth in MB of one analysis call, in a fresh process.

    measure(seconds, call) builds `waveform`, a 140 Hz tone in noise at
    16 kHz, a second at a time so that no large temporary sets the peak.
    It then evaluates `call` (an expression over `waveform`, `features`,
    `conv_metrics` and `DEFAULTS`) and returns VmHWM less the VmRSS before
    the call.  A fresh process, since a process's peak resident size cannot
    be reset; ru_maxrss would also carry the parent's peak across exec.
    """
    if not Path("/proc/self/status").exists():
        pytest.skip("needs VmHWM and VmRSS from /proc/self/status")

    def measure(seconds, call):
        child = (
            "import numpy as np\n"
            "from emorank import conv_metrics, features\n"
            "from emorank.config import DEFAULTS\n"
            "from emorank.dsp import Waveform\n"
            "def status_mb(key):\n"
            "    with open('/proc/self/status', encoding='ascii') as handle:\n"
            "        for line in handle:\n"
            "            if line.startswith(key + ':'):\n"
            "                return int(line.split()[1]) / 1024\n"
            "sr = 16000\n"
            "rng = np.random.default_rng(0)\n"
            f"samples = np.empty({seconds} * sr)\n"
            "for lo in range(0, samples.size, sr):\n"
            "    t = np.arange(lo, lo + sr) / sr\n"
            "    samples[lo : lo + sr] = (0.5 * np.sin(2 * np.pi * 140.0 * t)\n"
            "                             + rng.normal(0.0, 0.05, sr))\n"
            "waveform = Waveform(samples, sr)\n"
            "before = status_mb('VmRSS')\n"
            f"{call}\n"
            "print(status_mb('VmHWM') - before)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(emorank.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", child], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return float(result.stdout)

    return measure
