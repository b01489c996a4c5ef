"""Run configuration: defaults, key = value config files, flag overrides.

Config files are flat `key = value` lines with # comments.  Keys must be
Config field names; unknown keys are rejected so typos fail loudly.
Values on the command line override the file, which overrides defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .conv_metrics import DDUR_MODES, DEFAULT_MCEP_BANDS, DEFAULT_MCEP_ORDER
from .errors import InvalidParamsError
from .features import (DEFAULT_F0_MAX_HZ, DEFAULT_F0_MIN_HZ, DEFAULT_LLD_FRAME_MS,
                       DEFAULT_LLD_HOP_MS, DEFAULT_PITCH_FRAME_MS, DEFAULT_PITCH_HOP_MS,
                       DEFAULT_SILENCE_RMS, DEFAULT_VOICING_THRESHOLD)
from .ranker import DEFAULT_C


@dataclass
class Config:
    lld_frame_ms: float = DEFAULT_LLD_FRAME_MS
    lld_hop_ms: float = DEFAULT_LLD_HOP_MS
    pitch_frame_ms: float = DEFAULT_PITCH_FRAME_MS
    pitch_hop_ms: float = DEFAULT_PITCH_HOP_MS
    pitch_fmin: float = DEFAULT_F0_MIN_HZ
    pitch_fmax: float = DEFAULT_F0_MAX_HZ
    voicing_threshold: float = DEFAULT_VOICING_THRESHOLD
    silence_rms: float = DEFAULT_SILENCE_RMS
    ranker_c: float = DEFAULT_C
    n_similar: int = 0  # 0 means half the ordered-pair count
    seed: int = 0
    mcep_order: int = DEFAULT_MCEP_ORDER
    ddur_mode: str = "voiced"
    jobs: int = 0  # 0 means one worker per CPU
    out_dir: str = "."

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is float and not math.isfinite(value):
                raise InvalidParamsError(f"{name} must be finite, got {value!r}")
        positive = ("lld_frame_ms", "lld_hop_ms", "pitch_frame_ms", "pitch_hop_ms",
                    "ranker_c")
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be positive")
        if not 0.0 < self.pitch_fmin < self.pitch_fmax:
            raise InvalidParamsError("need 0 < pitch_fmin < pitch_fmax")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise InvalidParamsError("voicing_threshold must be in [0, 1]")
        if self.silence_rms < 0.0:
            raise InvalidParamsError("silence_rms must be >= 0")
        if not 1 <= self.mcep_order < DEFAULT_MCEP_BANDS:
            raise InvalidParamsError(
                f"mcep_order must be in [1, {DEFAULT_MCEP_BANDS - 1}], got {self.mcep_order}")
        if self.n_similar < 0 or self.jobs < 0 or self.seed < 0:
            raise InvalidParamsError("n_similar, jobs and seed must be >= 0")
        if self.ddur_mode not in DDUR_MODES:
            raise InvalidParamsError(f"ddur_mode must be one of {DDUR_MODES}")

    def lld_kwargs(self) -> dict:
        return {
            "frame_ms": self.lld_frame_ms,
            "hop_ms": self.lld_hop_ms,
            "fmin": self.pitch_fmin,
            "fmax": self.pitch_fmax,
            "voicing_threshold": self.voicing_threshold,
            "silence_rms": self.silence_rms,
        }

    def pitch_kwargs(self) -> dict:
        return {
            "frame_ms": self.pitch_frame_ms,
            "hop_ms": self.pitch_hop_ms,
            "fmin": self.pitch_fmin,
            "fmax": self.pitch_fmax,
            "voicing_threshold": self.voicing_threshold,
            "silence_rms": self.silence_rms,
        }


_FIELD_TYPES = {f.name: type(f.default) for f in fields(Config)}


def parse_config_file(path) -> dict:
    """Read `key = value` lines into a dict of typed values."""
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    config = Config(**values)
    config.validate()
    return config
