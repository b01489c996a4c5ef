"""Corpus manifests: tab-separated utterance indexes with validation.

A manifest is a TSV file with header `utt_id wav_path speaker emotion
split`.  Emotions and splits come from closed vocabularies; wav paths are
resolved relative to the manifest's directory and must exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DuplicateIdError, MissingFileError, ParseError, UnknownEmotionError

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


@dataclass(eq=False)
class Manifest:
    """Ordered manifest entries with unique utterance ids."""

    entries: list

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def by_id(self) -> dict:
        return {e.utt_id: e for e in self.entries}

    def select(self, split: str | None = None, emotions=None) -> list:
        chosen = self.entries
        if split is not None:
            chosen = [e for e in chosen if e.split == split]
        if emotions is not None:
            wanted = set(emotions)
            chosen = [e for e in chosen if e.emotion in wanted]
        return chosen


def parse_manifest(path) -> Manifest:
    """Parse and validate a manifest file.

    Raises ParseError for malformed lines or splits, UnknownEmotionError
    for out-of-vocabulary emotions, DuplicateIdError for repeated ids, and
    MissingFileError when a referenced wav does not exist.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != MANIFEST_COLUMNS:
        raise ParseError(f"{path}:1: header must be {chr(9).join(MANIFEST_COLUMNS)!r}")
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(MANIFEST_COLUMNS):
            raise ParseError(
                f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} fields, got {len(fields)}"
            )
        utt_id, wav_path, speaker, emotion, split = fields
        if not utt_id:
            raise ParseError(f"{path}:{lineno}: empty utt_id")
        if utt_id in seen:
            raise DuplicateIdError(f"{path}:{lineno}: duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        if emotion not in EMOTIONS:
            raise UnknownEmotionError(
                f"{path}:{lineno}: emotion {emotion!r} not in {EMOTIONS}"
            )
        if split not in SPLITS:
            raise ParseError(f"{path}:{lineno}: split {split!r} not in {SPLITS}")
        resolved = Path(wav_path)
        if not resolved.is_absolute():
            resolved = path.parent / resolved
        if not resolved.is_file():
            raise MissingFileError(f"{path}:{lineno}: wav file not found: {resolved}")
        entries.append(ManifestEntry(utt_id, resolved, speaker, emotion, split))
    return Manifest(entries)


def write_manifest(entries, path) -> None:
    """Write manifest entries with wav paths relative to the manifest."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\t".join(MANIFEST_COLUMNS) + "\n")
        for e in entries:
            wav = os.path.relpath(e.wav_path, path.parent)
            handle.write("\t".join([e.utt_id, wav, e.speaker, e.emotion, e.split]) + "\n")


def scan_tree(root, split: str = "train") -> list:
    """Collect entries from a speaker/emotion/*.wav directory layout.

    Directories whose lowercased name is not a known emotion are skipped.
    Utterance ids are `<speaker>_<stem>`; duplicates raise
    DuplicateIdError.  Traversal order is sorted, so output is stable.
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
                if utt_id in seen:
                    raise DuplicateIdError(f"duplicate utt_id {utt_id!r} under {root}")
                seen.add(utt_id)
                entries.append(ManifestEntry(utt_id, wav, speaker_dir.name, emotion, split))
    return entries
