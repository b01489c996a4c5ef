"""Command line interface.

Subcommands cover the full pipeline: synthesize a demo corpus, index a
corpus tree, extract utterance features, train and apply intensity
rankers, and evaluate converted speech.  Exit codes: 0 success, 1
validation error (bad flags, malformed or inconsistent inputs), 2 I/O
error (unreadable or unwritable files).

Settings are merged once, in `main`: the defaults, then the `--config`
file, then every flag whose dest is a `Config` field.  A relative `--out`
is resolved against `out_dir` there too, so each handler takes
`(args, config)` and only reads its inputs, computes and writes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import CONFIG_KEYS, DDUR_MODES, Config, load_config
from .conv_metrics import contour_report, write_contour_csv
from .dsp import load_wav
from .emo_eval import clustering_ratio, read_embeddings_csv
from .errors import EmorankError, InvalidParamsError
from .features import (
    N_FEATURES,
    check_feature_ids,
    extract_feature_vector,
    feature_index_map,
    read_features_csv,
    write_features_csv,
)
from .manifest import SPLITS, check_target_emotion, parse_manifest, scan_tree, write_manifest
from .ranker import build_pairs, load_model, save_model, score, train_ranker
from .synthcorpus import DEFAULT_EMOTION, DEFAULT_PAIRS, DEFAULT_SEED, generate_mini_corpus
from .tables import read_table, resolve_wav, write_json, write_table

PAIRS_TSV_COLUMNS = ("converted_wav", "reference_wav")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 on usage errors, matching validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _pool_map(fn, items, jobs: int) -> list:
    with ThreadPoolExecutor(max_workers=jobs or os.cpu_count() or 1) as pool:
        return list(pool.map(fn, items))


@contextlib.contextmanager
def _naming(where):
    """Prefix `where: ` to an EmorankError of an analysis call, which names no input.

    Readers name `path:line` themselves and stay outside, so no message
    gets two prefixes.
    """
    try:
        yield
    except EmorankError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _cmd_extract_features(args, config: Config) -> int:
    if args.describe_features:
        payload = {"n_features": N_FEATURES, "features": feature_index_map()}
        if args.out:
            write_json(args.out, payload)
        else:
            print(json.dumps(payload, indent=2))
        return 0
    if not args.manifest or not args.out:
        raise InvalidParamsError("--manifest and --out are required to extract features")
    entries = parse_manifest(args.manifest)
    ids = [e.utt_id for e in entries]
    # Reject an id the CSV cannot hold before extracting anything.
    check_feature_ids(ids)

    def work(entry):
        waveform = load_wav(entry.wav_path)
        with _naming(entry.wav_path):  # e.g. a wav shorter than one frame
            return waveform.sample_rate, extract_feature_vector(waveform, config=config)

    results = _pool_map(work, entries, config.jobs)
    # Frame lengths and Mel bands depend on the rate, so rows of two rates
    # are not comparable features.
    wav_of_rate = {rate: entry.wav_path for entry, (rate, _) in zip(entries, results)}
    if len(wav_of_rate) > 1:
        raise InvalidParamsError("manifest wavs differ in sample rate: " + ", ".join(
            f"{wav} is {rate} Hz" for rate, wav in sorted(wav_of_rate.items())))
    vectors = [vector for _, vector in results]
    write_features_csv(ids, np.array(vectors), args.out)
    print(f"wrote {len(vectors)} feature rows to {args.out}")
    return 0


def _cmd_train_ranker(args, config: Config) -> int:
    check_target_emotion(args.emotion)
    rows = [e for e in parse_manifest(args.manifest)
            if e.split == "train" and e.emotion in ("neutral", args.emotion)]
    if not rows:
        raise InvalidParamsError("manifest has no train-split rows for this emotion")
    ids, matrix = read_features_csv(args.features)
    row_of = {ident: i for i, ident in enumerate(ids)}
    missing = [e.utt_id for e in rows if e.utt_id not in row_of]
    if missing:
        raise InvalidParamsError(
            f"{len(missing)} train utterances missing from features CSV, "
            f"first: {missing[0]!r}"
        )
    features = matrix[[row_of[e.utt_id] for e in rows]]
    pairs = build_pairs(features, [e.emotion != "neutral" for e in rows], config)
    model = train_ranker(pairs, config, emotion=args.emotion)
    save_model(model, args.out)
    report = model.solver_report
    print(f"trained {args.emotion} ranker on {len(rows)} utterances "
          f"({pairs.ordered.shape[0]} ordered, {pairs.similar.shape[0]} similar pairs), "
          f"{report['iterations']} iterations, objective {report['final_objective']:.6g}; "
          f"wrote {args.out}")
    return 0


def _cmd_score_intensity(args, config: Config) -> int:
    model = load_model(args.model)
    ids, matrix = read_features_csv(args.features)
    with _naming(args.features):  # e.g. a feature that overflows when standardized
        scores = score(model, matrix).tolist()
    write_table(args.out, ",", ("utt_id", "intensity"),
                ([ident, repr(value)] for ident, value in zip(ids, scores)))
    print(f"wrote {len(ids)} intensity scores to {args.out}")
    return 0


def _cmd_eval_clustering(args, config: Config) -> int:
    embeddings, labels = read_embeddings_csv(args.embeddings)
    with _naming(args.embeddings):  # e.g. centroid distances that overflow
        report = clustering_ratio(embeddings, labels)
    payload = {
        "generated_at": _timestamp(),
        "class_names": list(report.class_names),
        "centroids": [[float(v) for v in row] for row in report.centroids],
        "dist_inter": report.dist_inter,
        "dist_intra": report.dist_intra,
        "ratio": report.ratio,
    }
    write_json(args.out, payload)
    print(f"clustering ratio {report.ratio:.6g}; wrote {args.out}")
    return 0


def _cmd_eval_conversion(args, config: Config) -> int:
    rows = [(lineno, conv, ref, resolve_wav(args.pairs, lineno, conv),
             resolve_wav(args.pairs, lineno, ref))
            for lineno, (conv, ref) in read_table(args.pairs, "\t", PAIRS_TSV_COLUMNS)]

    def work(row):
        lineno, conv_name, ref_name, conv_path, ref_path = row
        converted, reference = load_wav(conv_path), load_wav(ref_path)
        with _naming(f"{args.pairs}:{lineno}"):  # e.g. the two wavs differ in sample rate
            report = contour_report(converted, reference, config=config)
        return {
            "converted": conv_name,
            "reference": ref_name,
            "mcd_db": report.mcd_db,
            "ddur_s": report.ddur_s,
            "n_aligned_frames": len(report.f0_path),
        }

    results = _pool_map(work, rows, config.jobs)
    payload = {
        "generated_at": _timestamp(),
        "pairs": results,
        "summary": {
            "n_pairs": len(results),
            "mean_mcd_db": float(np.mean([r["mcd_db"] for r in results])),
            "mean_ddur_s": float(np.mean([r["ddur_s"] for r in results])),
        },
    }
    write_json(args.out, payload)
    print(f"evaluated {len(results)} pairs, "
          f"mean MCD {payload['summary']['mean_mcd_db']:.3f} dB; wrote {args.out}")
    return 0


def _cmd_contours(args, config: Config) -> int:
    report = contour_report(load_wav(args.converted), load_wav(args.reference), config=config)
    write_contour_csv(report, args.out)
    print(f"MCD {report.mcd_db:.3f} dB, DDUR {report.ddur_s:.3f} s, "
          f"{len(report.f0_path)} aligned frames; wrote {args.out}")
    return 0


def _cmd_make_manifest(args, config: Config) -> int:
    entries = scan_tree(args.root, split=args.split)
    write_manifest(entries, args.out)
    print(f"indexed {len(entries)} utterances into {args.out}")
    return 0


def _cmd_synth_corpus(args, config: Config) -> int:
    manifest_path = generate_mini_corpus(args.corpus_dir, n_pairs=args.pairs,
                                         emotion=args.emotion, seed=args.corpus_seed)
    print(f"wrote {2 * args.pairs} utterances and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emorank",
                     description="Emotion intensity ranking and conversion evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags shared by several commands.  A flag whose dest is a Config field
    # overrides that key in main; no other flag may have such a dest.
    settings = _Parser(add_help=False)
    settings.add_argument("--config", help="key = value config file")
    jobs = _Parser(add_help=False)
    jobs.add_argument("--jobs", type=int, help="worker threads, 0 = CPU count")
    conversion = _Parser(add_help=False)
    conversion.add_argument("--mcep-order", type=int, help="cepstral order")
    conversion.add_argument("--ddur-mode", choices=DDUR_MODES,
                            help="duration definition")

    def command(name, handler, help, parents=(settings,)):
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(handler=handler)
        return p

    p = command("extract-features", _cmd_extract_features,
                "compute utterance feature vectors for a manifest", (settings, jobs))
    p.add_argument("--manifest", help="corpus manifest TSV")
    p.add_argument("--out", help="output CSV (or JSON with --describe-features)")
    p.add_argument("--describe-features", action="store_true",
                   help="emit the feature index map as JSON and exit")

    p = command("train-ranker", _cmd_train_ranker, "fit an intensity ranker for one emotion")
    p.add_argument("--features", required=True, help="feature CSV from extract-features")
    p.add_argument("--manifest", required=True, help="corpus manifest TSV")
    p.add_argument("--emotion", required=True, help="target emotion class")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--c", dest="ranker_c", metavar="C", type=float,
                   help="objective trade-off constant")
    p.add_argument("--n-similar", type=int,
                   help="similar-pair count, 0 = half the ordered pairs")
    p.add_argument("--seed", type=int, help="pair sampling seed")

    p = command("score-intensity", _cmd_score_intensity,
                "score feature rows with a trained model")
    p.add_argument("--model", required=True, help="model JSON from train-ranker")
    p.add_argument("--features", required=True, help="feature CSV to score")
    p.add_argument("--out", required=True, help="output CSV utt_id,intensity")

    p = command("eval-clustering", _cmd_eval_clustering, "embedding-space separation report")
    p.add_argument("--embeddings", required=True, help="CSV id,label,d0..dN")
    p.add_argument("--out", required=True, help="output report JSON")

    p = command("eval-conversion", _cmd_eval_conversion,
                "MCD and duration metrics for wav pairs", (settings, conversion, jobs))
    p.add_argument("--pairs", required=True, help="TSV converted_wav,reference_wav")
    p.add_argument("--out", required=True, help="output report JSON")

    p = command("contours", _cmd_contours, "aligned F0/energy contour CSV for one pair",
                (settings, conversion))
    p.add_argument("--converted", required=True, help="converted wav")
    p.add_argument("--reference", required=True, help="reference wav")
    p.add_argument("--out", required=True, help="output contour CSV")

    p = command("make-manifest", _cmd_make_manifest, "index a speaker/emotion/*.wav tree")
    p.add_argument("--root", required=True, help="corpus root directory")
    p.add_argument("--out", required=True, help="output manifest TSV")
    p.add_argument("--split", default="train", choices=SPLITS,
                   help="split label for all rows")

    # The corpus directory and seed are not the Config keys out_dir and seed.
    p = command("synth-corpus", _cmd_synth_corpus, "write the bundled synthetic demo corpus",
                parents=())
    p.add_argument("--out-dir", dest="corpus_dir", metavar="OUT_DIR", required=True,
                   help="output directory")
    p.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                   help="neutral/emotional utterance pairs to synthesize")
    p.add_argument("--emotion", default=DEFAULT_EMOTION, help="emotional class label")
    p.add_argument("--seed", dest="corpus_seed", metavar="SEED", type=int,
                   default=DEFAULT_SEED, help="synthesis seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS}
    try:
        config = load_config(getattr(args, "config", None), **overrides)
        if getattr(args, "out", None):
            args.out = Path(config.out_dir) / args.out  # an absolute --out stays as it is
        return args.handler(args, config)
    except EmorankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
