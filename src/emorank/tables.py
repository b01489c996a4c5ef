"""Delimited text tables: the manifest, pairs TSV, feature CSV and embeddings CSV.

A table is UTF-8 text: a header line of column names, then one row per
line with as many fields as the header.  Blank lines are skipped.  Every
error names the file and line as `path:line: ...`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import MissingFileError, ParseError


def read_text(path) -> str:
    """A file's UTF-8 text; other bytes raise ParseError naming their offset."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_table(path, sep: str, columns):
    """Yield (lineno, fields) for each non-blank row after the header.

    columns is the tuple of names the header must hold, or a function from
    the header's field count to that tuple, for tables whose width the file
    sets.  Rows are checked one at a time as they are yielded, so an error
    names the first bad line whatever is wrong with it.
    """
    lines = read_text(path).splitlines()
    header = lines[0].split(sep) if lines else []
    expected = list(columns(len(header)) if callable(columns) else columns)
    if header != expected:
        shown = expected if len(expected) <= 5 else expected[:3] + ["...", expected[-1]]
        raise ParseError(f"{path}:1: header must be {sep.join(shown)!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(sep)
        if len(fields) != len(expected):
            raise ParseError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(fields)}")
        yield lineno, fields


def resolve_wav(path, lineno: int, name: str) -> Path:
    """The existing wav file a row names, relative to the table's directory."""
    wav = Path(name)
    if not wav.is_absolute():
        wav = Path(path).parent / wav
    if not wav.is_file():
        raise MissingFileError(f"{path}:{lineno}: wav file not found: {wav}")
    return wav


def parse_floats(path, lineno: int, fields, what: str) -> np.ndarray:
    """A row's fields as finite float64 values; `what` names them in errors."""
    try:
        values = np.array([float(v) for v in fields])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: non-numeric {what} value") from exc
    if not np.all(np.isfinite(values)):
        raise ParseError(f"{path}:{lineno}: non-finite {what} value")
    return values
