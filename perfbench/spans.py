"""In-memory span recorder and the wrappers that trace calls into emorank.

A span is one call into a layer: its name (`module.function`), start and
end on the `perf_counter` clock, the span that caused it, the thread it ran
on, the utterance or pair it worked on, and any counters computed from its
arguments.  Spans are recorded from this directory's code only: `traced`
swaps a module attribute of emorank for a wrapper for the duration of a
`with` block, so the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    item: str = ""
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of the process.

    A thread with no open span (a worker of the CLI's thread pool) takes
    the innermost span open on the recorder's home thread as its parent,
    which is the CLI command that started the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list[Span] = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, item: str = "", **counters):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and stack is not home else None
        if not item and parent is not None and stack:
            item = parent.item
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    parent.span_id if parent is not None else None,
                    threading.get_ident(), item, counters)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)


def self_times(spans) -> dict:
    """Wall-clock self time of each span, keyed by span id.

    A span's self time is its duration minus the part of that interval its
    child spans cover.  Where several spans without an open child run at
    once (worker threads), each gets an equal share of that interval, so
    the self times of a tree add up to its root's duration.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    result = {s.span_id: 0.0 for s in spans}
    open_children = {s.span_id: 0 for s in spans}
    active = {}
    previous = None
    for t, is_start, s in events:
        if previous is not None and t > previous and active:
            leaves = [sid for sid in active if open_children[sid] == 0]
            share = (t - previous) / len(leaves)
            for sid in leaves:
                result[sid] += share
        previous = t
        parent = s.parent if s.parent in active else None
        if is_start:
            active[s.span_id] = s
            if parent is not None:
                open_children[parent] += 1
        else:
            del active[s.span_id]
            if parent is not None:
                open_children[parent] -= 1
    return result


# (module, attribute, span name).  Each function is wrapped where its
# callers look it up, which is the importing module's namespace.
TRACE_POINTS = (
    ("emorank.cli", "parse_manifest", "manifest.parse_manifest"),
    ("emorank.cli", "load_wav", "dsp.load_wav"),
    ("emorank.cli", "extract_feature_vector", "features.extract_feature_vector"),
    ("emorank.cli", "write_features_csv", "features.write_features_csv"),
    ("emorank.cli", "read_features_csv", "features.read_features_csv"),
    ("emorank.cli", "build_pairs", "ranker.build_pairs"),
    ("emorank.cli", "train_ranker", "ranker.train_ranker"),
    ("emorank.cli", "score", "ranker.score"),
    ("emorank.cli", "contour_report", "conv_metrics.contour_report"),
    ("emorank.features", "compute_llds", "features.compute_llds"),
    ("emorank.features", "delta", "features.delta"),
    ("emorank.features", "functionals", "features.functionals"),
    ("emorank.features", "frame", "dsp.frame"),
    ("emorank.features", "power_spectrogram", "dsp.power_spectrogram"),
    ("emorank.features", "autocorr_matrix", "kernels.autocorr_matrix"),
    ("emorank.conv_metrics", "pitch_contour", "features.pitch_contour"),
    ("emorank.conv_metrics", "energy_contour", "features.energy_contour"),
    ("emorank.conv_metrics", "mcep", "conv_metrics.mcep"),
    ("emorank.conv_metrics", "mcd", "conv_metrics.mcd"),
    ("emorank.conv_metrics", "ddur", "conv_metrics.ddur"),
    ("emorank.conv_metrics", "dtw_align", "conv_metrics.dtw_align"),
    ("emorank.conv_metrics", "dtw_table", "kernels.dtw_table"),
    ("emorank.conv_metrics", "frame", "dsp.frame"),
    ("emorank.conv_metrics", "power_spectrogram", "dsp.power_spectrogram"),
)


def autocorr_macs(frames, lag_min: int, lag_max: int) -> int:
    """Multiply-adds of the normalized autocorrelation, computed from its shape."""
    n_frames, frame_len = frames.shape
    lags = range(lag_min, lag_max + 1)
    return n_frames * sum(frame_len - tau for tau in lags)


class _Context:
    """Maps waveform objects to the wav file they came from, for span items."""

    def __init__(self) -> None:
        self.wav_names: dict = {}

    def item_for(self, name: str, args, kwargs) -> str:
        if name == "dsp.load_wav":
            return Path(args[0]).stem
        if name == "features.extract_feature_vector":
            return str(args[1] if len(args) > 1 else kwargs.get("provenance", ""))
        if name == "conv_metrics.contour_report":
            return "|".join(self.wav_names.get(id(w), "?") for w in args[:2])
        return ""


def _counters(name: str, args, result) -> dict:
    if name == "kernels.autocorr_matrix":
        return {"macs": autocorr_macs(*args[:3])}
    if name == "kernels.dtw_table":
        n, m = args[0].shape
        return {"cells": n * m}
    if name == "conv_metrics.dtw_align":
        a, b = (_as_2d(x) for x in args[:2])
        return {"cells": a.shape[0] * b.shape[0], "width": a.shape[1],
                "args": (a, b)}
    if name == "ranker.build_pairs":
        return {"ordered": int(result.ordered.shape[0]),
                "similar": int(result.similar.shape[0])}
    if name == "ranker.train_ranker":
        return {"iterations": int(result.solver_report["iterations"])}
    return {}


def _as_2d(x):
    arr = np.asarray(x, dtype=np.float64)
    return arr[:, None] if arr.ndim == 1 else arr


def _wrap(recorder: Recorder, context: _Context, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        item = context.item_for(name, args, kwargs)
        with recorder.span(name, item) as span:
            result = fn(*args, **kwargs)
        if name == "dsp.load_wav":
            context.wav_names[id(result)] = item
        span.counters.update(_counters(name, args, result))
        return result

    return wrapper


@contextmanager
def traced(recorder: Recorder):
    """Route the TRACE_POINTS calls through span-recording wrappers."""
    context = _Context()
    originals = {}
    for module_name, attr, span_name in TRACE_POINTS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        originals[(module, attr)] = fn
        setattr(module, attr, _wrap(recorder, context, span_name, fn))
    try:
        yield recorder
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)
