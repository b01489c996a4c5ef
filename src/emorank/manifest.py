"""Corpus manifests: tab-separated utterance indexes with validation.

A manifest is a TSV file with header `utt_id wav_path speaker emotion
split`.  Emotions and splits come from closed vocabularies; wav paths are
resolved relative to the manifest's directory and must exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import InvalidParamsError, ParseError
from .tables import check_key, read_keyed_table, resolve_wav, write_table

EMOTIONS = ("neutral", "angry", "happy", "sad", "surprise")
SPLITS = ("train", "eval", "reference")
MANIFEST_COLUMNS = ("utt_id", "wav_path", "speaker", "emotion", "split")


@dataclass(eq=False)
class ManifestEntry:
    """One utterance: id, resolved wav path, speaker, emotion, split."""

    utt_id: str
    wav_path: Path
    speaker: str
    emotion: str
    split: str


def check_target_emotion(emotion: str) -> None:
    """InvalidParamsError unless emotion is one a ranker sets against neutral speech."""
    if emotion not in EMOTIONS[1:]:  # every emotion but neutral
        raise InvalidParamsError(f"target emotion {emotion!r} not in {EMOTIONS[1:]}")


def parse_manifest(path) -> list:
    """Parse and validate a manifest file into its ManifestEntry rows.

    A malformed line, an emotion or split outside its vocabulary, a
    repeated id or a wav that does not exist raises ParseError naming
    `path:line`.
    """
    entries = []
    for lineno, (utt_id, wav_path, speaker, emotion, split) in read_keyed_table(
            path, "\t", MANIFEST_COLUMNS):
        if emotion not in EMOTIONS:
            raise ParseError(
                f"{path}:{lineno}: emotion {emotion!r} not in {EMOTIONS}"
            )
        if split not in SPLITS:
            raise ParseError(f"{path}:{lineno}: split {split!r} not in {SPLITS}")
        entries.append(ManifestEntry(utt_id, resolve_wav(path, lineno, wav_path),
                                     speaker, emotion, split))
    return entries


def write_manifest(entries, path) -> None:
    """Write manifest entries with wav paths relative to the manifest.

    No entries, a field holding a tab or a line break, or an empty or
    repeated utt_id would not read back: ParseError, before the file opens.
    """
    path = Path(path)
    write_table(path, "\t", MANIFEST_COLUMNS,
                ([e.utt_id, os.path.relpath(e.wav_path, path.parent), e.speaker, e.emotion,
                  e.split] for e in entries))


def scan_tree(root, split: str = "train") -> list:
    """Collect entries from a speaker/emotion/*.wav directory layout.

    Directories whose lowercased name is not a known emotion are skipped.
    Utterance ids are `<speaker>_<stem>`; duplicates raise
    ParseError.  Traversal order is sorted, so output is stable.
    """
    if split not in SPLITS:
        raise ParseError(f"split {split!r} not in {SPLITS}")
    root = Path(root)
    entries = []
    seen = set()
    for speaker_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for emo_dir in sorted(p for p in speaker_dir.iterdir() if p.is_dir()):
            emotion = emo_dir.name.lower()
            if emotion not in EMOTIONS:
                continue
            for wav in sorted(emo_dir.glob("*.wav")):
                utt_id = f"{speaker_dir.name}_{wav.stem}"
                check_key(seen, utt_id, wav)
                entries.append(ManifestEntry(utt_id, wav, speaker_dir.name, emotion, split))
    return entries
