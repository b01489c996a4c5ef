"""The table writer and the keyed reader: what one writes, the other reads back."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorank.cli import PAIRS_TSV_COLUMNS
from emorank.emo_eval import read_embeddings_csv
from emorank.errors import NonFiniteError, ParseError
from emorank.features import FEATURE_CSV_COLUMNS, read_features_csv
from emorank.manifest import MANIFEST_COLUMNS, parse_manifest
from emorank.tables import read_keyed_table, read_table, write_json, write_table

# Every line boundary of str.splitlines, which read_table splits a file on.
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

_fields = st.lists(st.sampled_from(("a", "b", "é", "\t", ",", "\r\n") + LINE_BREAKS),
                   max_size=3).map("".join)


def _readable(rows, sep) -> bool:
    """Whether rows make a keyed table: some rows, plain fields, non-empty keys, none repeated."""
    keys = [row[0] for row in rows]
    plain = all(sep not in v and not any(b in v for b in LINE_BREAKS) for row in rows for v in row)
    return bool(rows) and plain and all(keys) and len(set(keys)) == len(keys)


@settings(max_examples=300, deadline=None)
@given(sep=st.sampled_from(("\t", ",")), width=st.integers(1, 3), data=st.data())
def test_written_rows_read_back_or_nothing_is_written(sep, width, data):
    rows = data.draw(st.lists(st.lists(_fields, min_size=width, max_size=width), max_size=4))
    columns = ("id",) + tuple(f"c{i}" for i in range(1, width))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.txt"
        try:
            write_table(path, sep, columns, rows)
        except ParseError:
            assert not path.exists()
            assert not _readable(rows, sep)
        else:
            assert [fields for _, fields in read_keyed_table(path, sep, columns)] == rows


@pytest.mark.parametrize("sep, rows, message", [
    (",", [["u1", "1,5"]], r"t\.txt:2: v '1,5' holds a comma or a line break"),
    ("\t", [["u1", "a\u2028b"]], r"t\.txt:2: v 'a\\u2028b' holds a tab or a line break"),
    (",", [["u1", "1"], ["", "2"]], r"t\.txt:3: empty id ''"),
    (",", [["u1", "1"], ["u1", "2"]], r"t\.txt:3: duplicate id 'u1'"),
    (",", [["u1", "caf\udce9"]], r"t\.txt: not UTF-8 text"),
    (",", [], r"t\.txt: no rows after the header"),
], ids=["comma", "line_separator", "empty_key", "repeated_key", "surrogate", "no_rows"])
def test_refused_row_named_and_no_file(tmp_path, sep, rows, message):
    path = tmp_path / "t.txt"
    with pytest.raises(ParseError, match=message):
        write_table(path, sep, ("id", "v"), rows)
    assert not path.exists()


def test_written_bytes(tmp_path):
    path = tmp_path / "t.tsv"
    write_table(path, "\t", ("id", "v"), iter([["u1", "x"], ["u2", ""]]))
    assert path.read_bytes() == b"id\tv\nu1\tx\nu2\t\n"
    write_json(path, {"b": [1.5, "\u00e9"], "a": None})
    assert path.read_bytes() == b'{\n  "b": [\n    1.5,\n    "\\u00e9"\n  ],\n  "a": null\n}\n'


@pytest.mark.parametrize("read, sep, columns", [
    (parse_manifest, "\t", MANIFEST_COLUMNS),
    (read_features_csv, ",", FEATURE_CSV_COLUMNS),
    (read_embeddings_csv, ",", ("id", "label", "d0")),
    (lambda path: list(read_table(path, "\t", PAIRS_TSV_COLUMNS)), "\t", PAIRS_TSV_COLUMNS),
], ids=["manifest", "features", "embeddings", "pairs"])
def test_every_reader_refuses_a_table_with_no_rows(tmp_path, read, sep, columns):
    # A header and blank lines only: an empty result would look like a real one.
    path = tmp_path / "t.txt"
    path.write_text(sep.join(columns) + "\n\n")
    with pytest.raises(ParseError, match=r"t\.txt: no rows after the header"):
        read(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_refuses_non_finite_and_writes_nothing(tmp_path, value):
    # Strict JSON has no NaN or Infinity token; json.loads would accept them silently.
    path = tmp_path / "r.json"
    with pytest.raises(NonFiniteError, match=r"r\.json: Out of range float values"):
        write_json(path, {"ok": 1.0, "x": [value]})
    assert not path.exists()
