"""Delimited text tables and JSON files: every file the package reads or writes but wav.

A table is UTF-8 text: a header line of column names, then at least one
row, one per line with as many fields as the header.  Blank lines are
skipped.  Every error names the file and line as `path:line: ...`.  A
keyed table's first field is a non-empty id that no other row repeats.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, ParseError


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
    sets.  A table with no row after the header raises ParseError.  Rows are
    checked one at a time as they are yielded, so an error names the first
    bad line whatever is wrong with it.
    """
    lines = read_text(path).splitlines()
    header = lines[0].split(sep) if lines else []
    expected = list(columns(len(header)) if callable(columns) else columns)
    if header != expected:
        shown = expected if len(expected) <= 5 else expected[:3] + ["...", expected[-1]]
        raise ParseError(f"{path}:1: header must be {sep.join(shown)!r}")
    if not any(lines[1:]):
        raise ParseError(f"{path}: no rows after the header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(sep)
        if len(fields) != len(expected):
            raise ParseError(f"{path}:{lineno}: expected {len(expected)} fields, got {len(fields)}")
        yield lineno, fields


def check_key(seen: set, key: str, where) -> None:
    """Add key to seen; an empty key or one already seen raises ParseError naming where."""
    if not key or key in seen:
        raise ParseError(f"{where}: {'duplicate' if key else 'empty'} id {key!r}")
    seen.add(key)


def check_field(value: str, sep: str, what) -> None:
    """Raise ParseError naming what when value holds sep or a line break read_table splits on."""
    if sep in value or "".join(value.splitlines()) != value:
        raise ParseError(f"{what} {value!r} holds "
                         f"{'a comma' if sep == ',' else 'a tab'} or a line break")


def read_keyed_table(path, sep: str, columns):
    """read_table for a keyed table: every row's first field passes check_key."""
    seen = set()
    for lineno, fields in read_table(path, sep, columns):
        check_key(seen, fields[0], f"{path}:{lineno}")
        yield lineno, fields


def write_table(path, sep: str, columns, rows) -> None:
    """Write rows of strings as a keyed table that read_keyed_table reads back as they are.

    No rows, a field check_field refuses, a character UTF-8 cannot encode,
    or a key check_key refuses raises ParseError before the file is opened.
    """
    lines = [sep.join(columns)]
    seen = set()
    for lineno, fields in enumerate(rows, start=2):
        check_key(seen, fields[0], f"{path}:{lineno}")
        line = sep.join(fields)
        if line.count(sep) != len(columns) - 1 or line.splitlines() != [line]:
            for name, value in zip(columns, fields, strict=True):
                check_field(value, sep, f"{path}:{lineno}: {name}")
        lines.append(line)
    if len(lines) == 1:
        raise ParseError(f"{path}: no rows after the header")
    try:
        data = "\n".join(lines).encode("utf-8") + b"\n"
    except UnicodeEncodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at character {exc.start})") from exc
    Path(path).write_bytes(data)


def write_json(path, payload) -> None:
    """Write payload as strict ASCII JSON indented by two spaces, with a final newline.

    A NaN or infinite float, which strict JSON cannot hold, raises
    NonFiniteError before the file is opened.
    """
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{path}: {exc}") from exc
    Path(path).write_bytes(text.encode("ascii") + b"\n")


def resolve_wav(path, lineno: int, name: str) -> Path:
    """The existing wav file a row names, relative to the table's directory."""
    wav = Path(name)
    if not wav.is_absolute():
        wav = Path(path).parent / wav
    if not wav.is_file():
        raise ParseError(f"{path}:{lineno}: wav file not found: {wav}")
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
