"""The benchmark's workloads: seeded inputs, CLI command lists, output checks.

Every workload starts from `generate_mini_corpus(n_pairs=60, seed=<seed>)`,
so one seed fixes every input byte.  See README.md for why each exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EMOTION = "happy"
SAMPLE_RATE = 16000
# Framings the CLI uses by default, for the computed input sizes.
LLD_FRAME, LLD_HOP = 400, 160
PITCH_FRAME, PITCH_HOP = 640, 160
MCEP_FRAME, MCEP_HOP = 400, 160

RANK_ACCURACY_MIN = 0.95
REL_TOL = 1e-7
ABS_TOL = 1e-9
# Intensity scores lie in [0, 1].  A solver stopped at gradient norm 5e-4
# instead of the CLI's 1e-6 moves a score by about 5e-8 on seed 0.
SCORE_ABS_TOL = 1e-8


def n_frames(n_samples: int, frame_len: int, hop: int) -> int:
    """Frame count of `emorank.dsp.frame` for a signal of n_samples."""
    return 1 if n_samples < frame_len else (n_samples - frame_len) // hop + 1


def wav_samples(path: Path) -> int:
    with wave.open(str(path), "rb") as reader:
        return reader.getnframes()


def strip_generated_at(data: bytes) -> bytes:
    return re.sub(rb'\n  "generated_at": "[^"]*",', b"", data)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def all_close(values, reference, rtol: float = REL_TOL, atol: float = ABS_TOL) -> bool:
    values, reference = np.asarray(values, dtype=float), np.asarray(reference, dtype=float)
    return values.shape == reference.shape and bool(
        np.allclose(values, reference, rtol=rtol, atol=atol))


@dataclass
class Inputs:
    """What one set-up wrote: the files the commands read, and their sizes."""

    root: Path
    sizes: dict
    paths: dict
    pairs: list = field(default_factory=list)


@dataclass
class CycleResult:
    """One closed-loop pass over a workload's commands."""

    walls: list
    codes: list
    stdout: list
    outputs: dict
    errors: list = field(default_factory=list)


class Workload:
    name = ""
    why = ""

    def __init__(self, n_pairs: int = 60) -> None:
        self.n_pairs = n_pairs

    @property
    def reference_key(self) -> str:
        return f"{self.name}:{self.n_pairs}"

    def _corpus(self, root: Path, seed: int) -> Path:
        from emorank.synthcorpus import generate_mini_corpus

        return generate_mini_corpus(root / "corpus", n_pairs=self.n_pairs,
                                    emotion=EMOTION, seed=seed)

    def out(self, inputs: Inputs, name: str) -> Path:
        return inputs.root / "out" / name

    def write_inputs(self, root: Path, seed: int) -> Inputs:
        raise NotImplementedError

    def commands(self, inputs: Inputs, jobs: int) -> list:
        raise NotImplementedError

    def output_names(self) -> tuple:
        raise NotImplementedError

    def check(self, inputs: Inputs, cycle: CycleResult, reference: dict) -> tuple:
        """Return (named values, list of failed checks) for one cycle."""
        raise NotImplementedError


class CorpusRank(Workload):
    name = "corpus_rank"
    why = ("front end and ranker on 120 short utterances; "
           "extract-features, train-ranker, score-intensity; no alignment runs")

    def write_inputs(self, root: Path, seed: int) -> Inputs:
        manifest = self._corpus(root, seed)
        (root / "out").mkdir(exist_ok=True)
        samples = [wav_samples(p) for p in sorted((root / "corpus").glob("*.wav"))]
        n_emo = n_neu = self.n_pairs
        return Inputs(root, {
            "utterances": len(samples),
            "audio_s": sum(samples) / SAMPLE_RATE,
            "lld_frames": sum(n_frames(n, LLD_FRAME, LLD_HOP) for n in samples),
            "ordered_pairs": n_emo * n_neu,
            "similar_pairs": n_emo * n_neu // 2,
        }, {"manifest": str(manifest)})

    def commands(self, inputs: Inputs, jobs: int) -> list:
        manifest = inputs.paths["manifest"]
        features = str(self.out(inputs, "features.csv"))
        model = str(self.out(inputs, "model.json"))
        return [
            ["extract-features", "--manifest", manifest, "--out", features,
             "--jobs", str(jobs)],
            ["train-ranker", "--features", features, "--manifest", manifest,
             "--emotion", EMOTION, "--out", model],
            ["score-intensity", "--model", model, "--features", features,
             "--out", str(self.out(inputs, "scores.csv"))],
        ]

    def output_names(self) -> tuple:
        return ("features.csv", "model.json", "scores.csv")

    def check(self, inputs: Inputs, cycle: CycleResult, reference: dict) -> tuple:
        failures = []
        sizes = inputs.sizes
        lines = cycle.outputs["features.csv"].decode().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        ids = [row[0] for row in rows]
        expected_ids = [f"{kind}{i:03d}" for i in range(self.n_pairs)
                        for kind in ("neu", EMOTION)]
        if ids != expected_ids:
            failures.append(f"feature rows: got {len(ids)} ids, expected the manifest order")
        values = np.array([[float(v) for v in row[1:]] for row in rows])
        if values.shape[1:] != (384,) or not np.all(np.isfinite(values)):
            failures.append("feature values: expected 384 finite columns per row")

        match = re.search(r"\((\d+) ordered, (\d+) similar pairs\)", cycle.stdout[1])
        counts = (int(match.group(1)), int(match.group(2))) if match else None
        if counts != (sizes["ordered_pairs"], sizes["similar_pairs"]):
            failures.append(f"pair counts: got {counts}, expected "
                            f"{(sizes['ordered_pairs'], sizes['similar_pairs'])}")
        model = json.loads(cycle.outputs["model.json"])
        if not (model["solver_report"]["converged"]
                and np.all(np.isfinite(model["weights"]))):
            failures.append("model: solver did not converge or weights are not finite")

        score_rows = [line.split(",") for line in
                      cycle.outputs["scores.csv"].decode().splitlines()[1:]]
        scores = {row[0]: float(row[1]) for row in score_rows}
        if len(scores) != len(expected_ids) or not all(0.0 <= v <= 1.0 for v in scores.values()):
            failures.append("scores: expected one score in [0, 1] per utterance")
        ordered = [scores.get(f"{EMOTION}{i:03d}", 0.0) > scores.get(f"neu{i:03d}", 1.0)
                   for i in range(self.n_pairs)]
        rank_accuracy = sum(ordered) / self.n_pairs
        if rank_accuracy < RANK_ACCURACY_MIN:
            failures.append(f"rank_accuracy {rank_accuracy} below {RANK_ACCURACY_MIN}")

        digest = sha256(cycle.outputs["features.csv"])
        column_means = values.mean(axis=0) if values.ndim == 2 else np.zeros(0)
        row_means = values.mean(axis=1) if values.ndim == 2 else np.zeros(0)
        objective = float(model["solver_report"]["final_objective"])
        score_list = [scores.get(utt, math.nan) for utt in expected_ids]
        if reference:
            if digest != reference["features_sha256"] and not (
                    all_close(column_means, reference["feature_column_means"])
                    and all_close(row_means, reference["feature_row_means"])):
                failures.append("features differ from the stored reference")
            if not close(objective, reference["final_objective"]):
                failures.append(f"final objective {objective!r} != reference "
                                f"{reference['final_objective']!r}")
            if not all_close(score_list, reference["scores"], rtol=0.0, atol=SCORE_ABS_TOL):
                failures.append("intensity scores differ from the stored reference")
            if rank_accuracy != reference["rank_accuracy"]:
                failures.append(f"rank_accuracy {rank_accuracy} != reference "
                                f"{reference['rank_accuracy']}")
        named = {
            "features_sha256": digest,
            "feature_column_means": [float(v) for v in column_means],
            "feature_row_means": [float(v) for v in row_means],
            "final_objective": objective,
            "scores": score_list,
            "rank_accuracy": rank_accuracy,
            "feature_rows": len(rows),
            "ordered_pairs": counts[0] if counts else None,
            "similar_pairs": counts[1] if counts else None,
        }
        return named, failures


class EvalShort(Workload):
    name = "eval_short"
    why = ("eval-conversion on 60 twin pairs of about 1.1 s: many small "
           "pitch tracks and DTWs, per-call overhead and --jobs contention")

    def _pairs(self, root: Path) -> list:
        """(converted, reference) wav paths, relative to root."""
        return [(f"corpus/{EMOTION}{i:03d}.wav", f"corpus/neu{i:03d}.wav")
                for i in range(self.n_pairs)]

    def write_inputs(self, root: Path, seed: int) -> Inputs:
        self._corpus(root, seed)
        (root / "out").mkdir(exist_ok=True)
        pairs = self._pairs(root)
        with open(root / "pairs.tsv", "w", encoding="utf-8", newline="\n") as handle:
            handle.write("converted_wav\treference_wav\n")
            for conv, ref in pairs:
                handle.write(f"{conv}\t{ref}\n")
        audio = cells = frames = 0
        for conv, ref in pairs:
            n, m = wav_samples(root / conv), wav_samples(root / ref)
            audio += n + m
            pn, pm = n_frames(n, PITCH_FRAME, PITCH_HOP), n_frames(m, PITCH_FRAME, PITCH_HOP)
            frames += pn + pm
            # F0 and energy share the pitch framing; MCEP has its own.
            cells += 2 * pn * pm + (n_frames(n, MCEP_FRAME, MCEP_HOP)
                                    * n_frames(m, MCEP_FRAME, MCEP_HOP))
        return Inputs(root, {
            "pairs": len(pairs),
            "audio_s": audio / SAMPLE_RATE,
            "pitch_frames": frames,
            "dtw_cells": cells,
        }, {"pairs_tsv": str(root / "pairs.tsv")}, pairs)

    def commands(self, inputs: Inputs, jobs: int) -> list:
        return [["eval-conversion", "--pairs", inputs.paths["pairs_tsv"],
                 "--out", str(self.out(inputs, "report.json")), "--jobs", str(jobs)]]

    def output_names(self) -> tuple:
        return ("report.json",)

    def check(self, inputs: Inputs, cycle: CycleResult, reference: dict) -> tuple:
        failures = []
        report = json.loads(cycle.outputs["report.json"])
        pairs = report["pairs"]
        names = [(p["converted"], p["reference"]) for p in pairs]
        if names != inputs.pairs:
            failures.append(f"report lists {len(names)} pairs, expected {len(inputs.pairs)}")
        mcds = np.array([p["mcd_db"] for p in pairs], dtype=float)
        ddurs = np.array([p["ddur_s"] for p in pairs], dtype=float)
        if not (np.all(np.isfinite(mcds)) and np.all(mcds >= 0.0)
                and np.all(np.isfinite(ddurs)) and np.all(ddurs >= 0.0)
                and all(p["n_aligned_frames"] >= 1 for p in pairs)):
            failures.append("per-pair metrics must be finite and non-negative")
        summary = report["summary"]
        mean_mcd, mean_ddur = summary["mean_mcd_db"], summary["mean_ddur_s"]
        if not (summary["n_pairs"] == len(pairs) and close(mean_mcd, float(mcds.mean()))
                and close(mean_ddur, float(ddurs.mean()))):
            failures.append("summary does not match the per-pair values")
        digest = sha256(strip_generated_at(cycle.outputs["report.json"]))
        if reference:
            if not (close(mean_mcd, reference["mean_mcd_db"])
                    and close(mean_ddur, reference["mean_ddur_s"])):
                failures.append(f"mean MCD/DDUR ({mean_mcd}, {mean_ddur}) differ from the "
                                f"reference ({reference['mean_mcd_db']}, "
                                f"{reference['mean_ddur_s']})")
            if not (all_close(mcds, reference["mcd_db"])
                    and all_close(ddurs, reference["ddur_s"])):
                failures.append("per-pair MCD/DDUR differ from the reference")
        named = {
            "report_sha256": digest,
            "mean_mcd_db": mean_mcd,
            "mean_ddur_s": mean_ddur,
            "mcd_db": [float(v) for v in mcds],
            "ddur_s": [float(v) for v in ddurs],
            "n_pairs": len(pairs),
            "aligned_frames": int(sum(p["n_aligned_frames"] for p in pairs)),
        }
        return named, failures


class EvalLong(EvalShort):
    """eval-conversion on one pair of 10.0 s against 11.3 s.

    Not a workload of BENCHMARK.json: its runs spread too widely on a
    shared host to gate (README.md).  The traced pass runs it once, on a
    fixed seed, for the long alignment's layer metrics.
    """

    name = "eval_long"
    why = ""

    CONVERTED_S = 10.0
    REFERENCE_S = 11.3

    @property
    def reference_key(self) -> str:
        return f"{self.name}:{self.n_pairs}:{self.CONVERTED_S}:{self.REFERENCE_S}"

    def _pairs(self, root: Path) -> list:
        """Concatenate consecutive twins until both sides are long enough,
        then cut to fixed lengths, so every seed aligns the same n x m."""
        from emorank.dsp import load_wav, save_wav

        corpus = root / "corpus"
        need = (int(self.CONVERTED_S * SAMPLE_RATE), int(self.REFERENCE_S * SAMPLE_RATE))
        sides = ([], [])
        twin = 0
        while any(sum(c.size for c in chunks) < n for chunks, n in zip(sides, need)):
            if twin >= self.n_pairs:
                raise ValueError("corpus too short for the long pair")
            sides[0].append(load_wav(corpus / f"{EMOTION}{twin:03d}.wav").samples)
            sides[1].append(load_wav(corpus / f"neu{twin:03d}.wav").samples)
            twin += 1
        names = (f"long_{EMOTION}.wav", "long_neu.wav")
        for name, chunks, n in zip(names, sides, need):
            save_wav(root / name, np.concatenate(chunks)[:n], SAMPLE_RATE)
        return [names]


WORKLOADS = {cls.name: cls for cls in (CorpusRank, EvalShort)}
