"""Run configuration: defaults, key = value config files, flag overrides.

A Config is the one settings value the analyses read, and it is valid by
construction: building one checks every field's type and every range
below, for the command line and for library callers alike.  Config files
are flat UTF-8 `key = value` lines with # comments.  Keys must be Config
field names; unknown keys are rejected so typos fail loudly.  Values on
the command line override the file, which overrides defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InvalidParamsError
from .tables import read_text

MAX_FRAME_MS = 1000.0  # frames and their FFT buffers grow with the frame length
DEFAULT_MCEP_BANDS = 40  # Mel bands of mcep; mcep_order stays below it
MAX_ORDERED_PAIRS = 10000  # ordered pairs the ranker samples at most; n_similar's cap
DDUR_MODES = ("voiced", "span")


@dataclass(frozen=True)
class Config:
    lld_frame_ms: float = 25.0
    lld_hop_ms: float = 10.0
    pitch_frame_ms: float = 40.0
    pitch_hop_ms: float = 10.0
    pitch_fmin: float = 60.0
    pitch_fmax: float = 400.0
    voicing_threshold: float = 0.45
    silence_rms: float = 1e-3
    ranker_c: float = 1.0
    n_similar: int = 0  # 0 means half the ordered-pair count
    seed: int = 0
    mcep_order: int = 24
    ddur_mode: str = "voiced"
    jobs: int = 0  # 0 means one worker per CPU
    out_dir: str = "."

    def __post_init__(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an int subclass, but True is no frame length or seed.
            if isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind):
                raise InvalidParamsError(f"{name} must be {kind.__name__}, got {value!r}")
            if kind is float and not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value!r}")
        positive = ("lld_frame_ms", "lld_hop_ms", "pitch_frame_ms", "pitch_hop_ms",
                    "ranker_c")
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be positive")
        for name in ("lld_frame_ms", "pitch_frame_ms"):
            if getattr(self, name) > MAX_FRAME_MS:
                raise InvalidParamsError(f"{name} must be at most {MAX_FRAME_MS:g} ms")
        if not 0.0 < self.pitch_fmin < self.pitch_fmax:
            raise InvalidParamsError("need 0 < pitch_fmin < pitch_fmax")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise InvalidParamsError("voicing_threshold must be in [0, 1]")
        if self.silence_rms < 0.0:
            raise InvalidParamsError("silence_rms must be >= 0")
        if not 1 <= self.mcep_order < DEFAULT_MCEP_BANDS:
            raise InvalidParamsError(
                f"mcep_order must be in [1, {DEFAULT_MCEP_BANDS - 1}], got {self.mcep_order}")
        if not 0 <= self.n_similar <= MAX_ORDERED_PAIRS:
            raise InvalidParamsError(
                f"n_similar must be in [0, {MAX_ORDERED_PAIRS}], got {self.n_similar}")
        if self.jobs < 0 or self.seed < 0:
            raise InvalidParamsError("jobs and seed must be >= 0")
        if self.ddur_mode not in DDUR_MODES:
            raise InvalidParamsError(f"ddur_mode must be one of {DDUR_MODES}")


_FIELD_TYPES = {f.name: type(f.default) for f in fields(Config)}
CONFIG_KEYS = frozenset(_FIELD_TYPES)
DEFAULTS = Config()


def parse_config_file(path) -> dict:
    """Read `key = value` lines into a dict of typed values."""
    values = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParamsError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise InvalidParamsError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        try:
            if kind is str:
                values[key] = value.strip("\"'")
            else:
                values[key] = kind(value)
        except ValueError as exc:
            raise InvalidParamsError(
                f"{path}:{lineno}: cannot parse {value!r} as {kind.__name__}"
            ) from exc
    return values


def load_config(file_path=None, **overrides) -> Config:
    """Merge defaults, an optional config file, and non-None overrides."""
    values = {}
    if file_path is not None:
        values.update(parse_config_file(file_path))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise InvalidParamsError(f"unknown config override {key!r}")
        values[key] = value
    return Config(**values)
