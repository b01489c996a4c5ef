"""Span recording and the self-time arithmetic."""

import threading

import numpy as np
import pytest

from spans import Recorder, Span, autocorr_macs, self_times, traced


def span(span_id, start, end, parent=None, thread=0):
    return Span(span_id, f"s{span_id}", start, end, parent, thread)


def test_nested_self_time_subtracts_children():
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, parent=1), span(3, 2.0, 3.0, parent=2),
             span(4, 5.0, 9.0, parent=1)]
    own = self_times(spans)
    assert own == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_concurrent_children_share_the_overlap():
    # Two worker-thread children of one root overlap on [2, 6].
    spans = [span(1, 0.0, 10.0), span(2, 0.0, 6.0, parent=1, thread=1),
             span(3, 2.0, 8.0, parent=1, thread=2)]
    own = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 4.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_separate_roots_add_up_to_their_durations():
    spans = [span(1, 0.0, 1.0), span(2, 2.0, 5.0), span(3, 2.5, 3.0, parent=2)]
    own = self_times(spans)
    assert own == pytest.approx({1: 1.0, 2: 2.5, 3: 0.5})


def test_recorder_parents_items_and_worker_threads():
    recorder = Recorder()
    with recorder.span("cli.x") as root:
        with recorder.span("outer", item="utt1") as outer:
            with recorder.span("inner") as inner:
                pass

        def worker():
            with recorder.span("in_thread"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    assert root.parent is None
    assert outer.parent == root.span_id
    assert inner.parent == outer.span_id and inner.item == "utt1"
    assert by_name["in_thread"].parent == root.span_id
    assert by_name["in_thread"].thread != root.thread
    assert all(s.end >= s.start for s in recorder.spans)


def test_traced_wraps_and_restores(sine):
    from emorank import features

    original = features.compute_llds
    recorder = Recorder()
    with traced(recorder):
        assert features.compute_llds is not original
        features.extract_feature_vector(sine(), "tone")
    assert features.compute_llds is original
    names = [s.name for s in recorder.spans]
    for expected in ("features.compute_llds", "dsp.frame", "kernels.autocorr_matrix",
                     "dsp.power_spectrogram", "features.delta", "features.functionals"):
        assert expected in names
    autocorr = next(s for s in recorder.spans if s.name == "kernels.autocorr_matrix")
    llds = next(s for s in recorder.spans if s.name == "features.compute_llds")
    assert autocorr.parent == llds.span_id
    assert autocorr.counters["macs"] > 0


def test_autocorr_macs_counts_every_product():
    frames = np.zeros((3, 50))
    brute = sum(50 - tau for tau in range(5, 21)) * 3
    assert autocorr_macs(frames, 5, 20) == brute


@pytest.fixture
def sine():
    from emorank.dsp import Waveform

    def make(hz=220.0, dur_s=0.5, sr=16000):
        t = np.arange(int(dur_s * sr)) / sr
        return Waveform(0.5 * np.sin(2.0 * np.pi * hz * t), sr)

    return make
