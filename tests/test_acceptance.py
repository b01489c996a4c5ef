"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Each test prints `[criterion N] PASS: <label>` on success or the FAIL twin
before re-raising, so the printed transcript mirrors the pytest report.
"""

import io
import json
import re
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from emorank.cli import main
from emorank.config import Config
from emorank.conv_metrics import ddur, dtw_align, mcd
from emorank.dsp import Waveform
from emorank.emo_eval import (
    clustering_ratio,
    emotion_classification_loss,
    emotion_similarity_loss,
)
from emorank.features import extract_feature_vector, pitch_contour, energy_contour
from emorank.ranker import PairSets, build_pairs, load_model, score, train_ranker

TIMESTAMP_RE = re.compile(r'^\s*"generated_at": "[^"]+",?$', re.MULTILINE)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] FAIL: {label}")
        raise
    print(f"\n[criterion {number}] PASS: {label}")


def _run(argv) -> None:
    # CLI progress lines would drown out the criterion transcript
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _mcep(rows):
    return np.asarray(rows, dtype=np.float64)


def test_criterion_1_solver_matches_grid_search():
    label = "solver objective matches a dense grid search on small problems"
    with criterion(1, label):
        # The 1001 x 1001 grid of w = (axis[j], axis[i]), evaluated separably:
        # w . d is axis[None, :] * d[0] + axis[:, None] * d[1].
        axis = np.linspace(-5.0, 5.0, 1001)
        mesh_sq = 0.5 * (axis[None, :] ** 2 + axis[:, None] ** 2)

        def dot(d):
            return axis[None, :] * d[0] + axis[:, None] * d[1]

        rng = np.random.default_rng(20240)
        for _ in range(20):
            features = rng.normal(0.0, 1.5, (6, 2))
            ordered = np.array([[0, 1], [2, 3]])
            similar = np.array([[4, 5]])
            pairs = PairSets(ordered, similar, features)
            model = train_ranker(pairs, Config(ranker_c=1.0))
            # The grid spans the weights over the z-scored features training sees.
            xs = (features - model.feature_mean) / model.feature_std
            d_ord = xs[ordered[:, 0]] - xs[ordered[:, 1]]
            d_sim = xs[similar[:, 0]] - xs[similar[:, 1]]
            grid_vals = (mesh_sq + sum(np.maximum(0.0, 1.0 - dot(d)) ** 2 for d in d_ord)
                         + sum(dot(d) ** 2 for d in d_sim))
            # The minimizer lies inside the grid, so the grid bounds it.
            assert np.all(np.abs(model.weights) < 5.0)
            assert model.solver_report["final_objective"] <= grid_vals.min() + 1e-3
            assert model.solver_report["converged"]
            # Newton steps on a piecewise quadratic: at most 2 over these draws.
            assert model.solver_report["iterations"] <= 5


def test_criterion_2_closed_form_toy_problem():
    label = "toy problem recovers weight 4/9, objective 1/9, scores 0 and 1"
    with criterion(2, label):
        features = np.array([[0.0], [0.0], [2.0], [2.0]])
        pairs = PairSets(np.array([[2, 0]]), np.empty((0, 2)), features)
        # The column [0, 0, 2, 2] has mean 1 and std 1, so z-scoring only
        # shifts it and the differences stay 2.
        model = train_ranker(pairs, Config(ranker_c=1.0))
        assert model.weights[0] == pytest.approx(4.0 / 9.0, abs=1e-6)
        assert model.solver_report["final_objective"] == pytest.approx(1.0 / 9.0, abs=1e-6)
        assert score(model, features).tolist() == [0.0, 0.0, 1.0, 1.0]


def test_criterion_3_sampled_pairs_rank_separable_classes():
    label = "sampled training pairs rank a separable 384-d problem at 99%+"
    with criterion(3, label):
        rng = np.random.default_rng(30303)
        dim = 384
        emotional = rng.normal(0.0, 1.0, (300, dim))
        emotional[:, 0] += 4.0
        neutral = rng.normal(0.0, 1.0, (300, dim))
        features = np.vstack([emotional, neutral])
        pairs = build_pairs(features, [True] * 300 + [False] * 300, Config(seed=1))
        assert pairs.ordered.shape[0] == 10000
        assert pairs.similar.shape[0] == 5000
        model = train_ranker(pairs, Config(ranker_c=1.0))
        xs = (features - model.feature_mean) / model.feature_std
        margins = (xs[pairs.ordered[:, 0]] - xs[pairs.ordered[:, 1]]) @ model.weights
        assert np.mean(margins > 0.0) >= 0.99
        # 6 Newton steps on this draw; a count, unlike a wall-clock bound,
        # does not move with the load of the machine.
        assert model.solver_report["iterations"] <= 20


def test_criterion_4_demo_corpus_ranks_emotion(mini_corpus, corpus_features):
    label = "demo corpus: emotional class outscores neutral, descent is monotone"
    with criterion(4, label):
        rows = [e for e in mini_corpus
                if e.split == "train" and e.emotion in ("neutral", "happy")]
        features = np.stack([corpus_features[e.utt_id] for e in rows])
        emotional = np.array([e.emotion != "neutral" for e in rows])
        model = train_ranker(build_pairs(features, emotional, Config(seed=0)),
                             Config(ranker_c=1.0), emotion="happy")
        scores = score(model, features)
        assert scores[emotional].mean() > scores[~emotional].mean()
        history = model.solver_report["objective_history"]
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert model.solver_report["converged"]


def test_criterion_5_metric_identities(sine, framed):
    label = "distortion and loss identities hit their closed-form values"
    with criterion(5, label):
        seq = _mcep(np.random.default_rng(5).normal(size=(20, 13)))
        assert mcd(seq, seq) == 0.0
        assert mcd(_mcep([[0.0, 0.0]]), _mcep([[0.0, 1.0]])) == pytest.approx(
            6.141851463713754, abs=1e-5)
        assert mcd(_mcep([[0.0, 3.0, 4.0]]), _mcep([[0.0, 0.0, 0.0]])) == pytest.approx(
            15.354628659284383, abs=1e-4)
        uniform = np.full(4, 0.25)
        onehot = np.array([0.0, 0.0, 1.0, 0.0])
        assert emotion_classification_loss(onehot, uniform) == pytest.approx(
            np.log(4.0), abs=1e-6)
        assert emotion_similarity_loss(np.array([3.0, -4.0]), np.zeros(2)) == pytest.approx(
            3.5355339059327378, abs=1e-6)
        tone = sine(dur_s=0.5)
        assert ddur(pitch_contour(*framed(tone)), pitch_contour(*framed(tone))) == 0.0


def test_criterion_6_clustering_ratio_behaviour():
    label = "clustering ratio: hand value 0.25, monotone in separation, invariant"
    with criterion(6, label):
        report = clustering_ratio(np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]]),
                                  ["a", "a", "b", "b"])
        assert report.ratio == 0.25
        assert report.dist_intra == 1.0
        assert report.dist_inter == 4.0

        rng = np.random.default_rng(60606)
        base = rng.normal(0.0, 1.0, (400, 8))
        labels = ["a"] * 200 + ["b"] * 200
        near = base.copy()
        near[200:, 0] += 2.0
        far = base.copy()
        far[200:, 0] += 10.0
        assert clustering_ratio(far, labels).ratio < clustering_ratio(near, labels).ratio

        cloud = rng.normal(size=(60, 5))
        cloud[20:40, 0] += 6.0
        cloud[40:, 1] += 6.0
        three = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        r0 = clustering_ratio(cloud, three).ratio
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        for variant in (cloud + 42.0, cloud @ q, cloud * 0.125):
            r1 = clustering_ratio(variant, three).ratio
            assert abs(r1 - r0) <= 1e-9


def test_criterion_7_features_and_alignment(sine, brute_force_dtw, framed):
    label = "pitch within 5 Hz, 384-d vectors, quadratic energy, exact DTW"
    with criterion(7, label):
        for hz in (220.0, 330.0):
            contour = pitch_contour(*framed(sine(hz=hz)))
            voiced = contour.f0_hz[contour.f0_hz > 0.0]
            assert voiced.size > 0
            assert abs(voiced.mean() - hz) < 5.0
        silence = Waveform(np.zeros(16000), 16000)
        assert not pitch_contour(*framed(silence)).f0_hz.any()

        vector = extract_feature_vector(sine(hz=220.0))
        assert vector.shape == (384,)
        assert np.all(np.isfinite(vector))

        tone = sine(hz=180.0)
        quiet = energy_contour(*framed(tone, 25.0)[:2])
        loud = energy_contour(*framed(Waveform(tone.samples * 2.0, 16000), 25.0)[:2])
        np.testing.assert_allclose(loud, 4.0 * quiet, rtol=1e-9)

        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            for n in range(1, 7):
                for m in range(1, 7):
                    a = rng.normal(size=(n, 2))
                    b = rng.normal(size=(m, 2))
                    diff = a[:, None, :] - b[None, :, :]
                    cost = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
                    _, got = dtw_align(a, b)
                    assert got == pytest.approx(brute_force_dtw(cost), abs=1e-9)


def test_criterion_8_cli_determinism(tmp_path):
    label = "every CLI command is reproducible; models round-trip exactly"
    with criterion(8, label):
        rng = np.random.default_rng(80808)
        emb_rows = ["id,label,d0,d1,d2"]
        for i in range(12):
            cls = "neutral" if i % 2 else "happy"
            offset = 0.0 if i % 2 else 4.0
            vals = rng.normal(size=3)
            emb_rows.append(f"u{i},{cls},{vals[0] + offset},{vals[1]},{vals[2]}")
        emb_text = "\n".join(emb_rows) + "\n"

        outputs = {}
        for tag in ("first", "second"):
            run = tmp_path / tag
            run.mkdir()
            corpus = run / "corpus"
            _run(["synth-corpus", "--out-dir", str(corpus), "--pairs", "3"])
            features = run / "features.csv"
            _run(["extract-features", "--manifest", str(corpus / "manifest.tsv"),
                  "--out", str(features)])
            model = run / "model.json"
            _run(["train-ranker", "--features", str(features),
                  "--manifest", str(corpus / "manifest.tsv"),
                  "--emotion", "happy", "--out", str(model)])
            scores = run / "scores.csv"
            _run(["score-intensity", "--model", str(model),
                  "--features", str(features), "--out", str(scores)])
            pairs = run / "pairs.tsv"
            pairs.write_text("converted_wav\treference_wav\n" + "".join(
                f"corpus/happy{i:03d}.wav\tcorpus/neu{i:03d}.wav\n" for i in range(3)))
            report = run / "report.json"
            _run(["eval-conversion", "--pairs", str(pairs), "--out", str(report)])
            contours = run / "contours.csv"
            _run(["contours", "--converted", f"{corpus}/happy000.wav",
                  "--reference", f"{corpus}/neu000.wav", "--out", str(contours)])
            embeddings = run / "embeddings.csv"
            embeddings.write_text(emb_text)
            cluster = run / "cluster.json"
            _run(["eval-clustering", "--embeddings", str(embeddings),
                  "--out", str(cluster)])
            tree = run / "tree" / "spk" / "sad"
            tree.mkdir(parents=True)
            (tree / "x.wav").write_bytes((corpus / "neu000.wav").read_bytes())
            manifest_out = run / "scanned.tsv"
            _run(["make-manifest", "--root", str(run / "tree"),
                  "--out", str(manifest_out)])
            outputs[tag] = {
                "wav": (corpus / "happy001.wav").read_bytes(),
                "manifest": (corpus / "manifest.tsv").read_text(),
                "features": features.read_text(),
                "model": model.read_text(),
                "scores": scores.read_text(),
                "report": TIMESTAMP_RE.sub("", report.read_text()),
                "contours": contours.read_text(),
                "cluster": TIMESTAMP_RE.sub("", cluster.read_text()),
                "scanned": manifest_out.read_text(),
            }
        first, second = outputs["first"], outputs["second"]
        for key in first:
            assert first[key] == second[key], f"{key} differs between identical runs"

        model_path = tmp_path / "first" / "model.json"
        loaded = load_model(model_path)
        resaved = tmp_path / "resaved.json"
        from emorank.ranker import save_model

        save_model(loaded, resaved)
        assert resaved.read_text() == model_path.read_text()
        reloaded = load_model(resaved)
        probe = np.random.default_rng(1).normal(size=(5, loaded.weights.size))
        assert np.all(np.abs(score(loaded, probe) - score(reloaded, probe)) <= 1e-12)
