"""Cluster separation ratio and classification/similarity losses."""

import numpy as np
import pytest

from emorank.emo_eval import (
    EmbeddingSet,
    centroids,
    clustering_ratio,
    emotion_classification_loss,
    emotion_similarity_loss,
    from_labeled,
    read_embeddings_csv,
)
from emorank.errors import (
    DegenerateClustersError,
    DimensionMismatchError,
    EmptyClassError,
    InvalidDistributionError,
    InvalidParamsError,
    NonFiniteError,
    ParseError,
)


def _two_cluster_set():
    # class a at (-1,0),(1,0); class b at (3,0),(5,0)
    embeddings = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
    return from_labeled(embeddings, ["a", "a", "b", "b"])


class TestFromLabeled:
    def test_sorted_class_names(self):
        es = from_labeled(np.zeros((3, 2)), ["z", "a", "z"])
        assert es.class_names == ("a", "z")
        np.testing.assert_array_equal(es.labels, [1, 0, 1])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            from_labeled(np.zeros((3, 2)), ["a", "b"])


class TestClusteringRatio:
    def test_hand_computed_value(self):
        # centroids (0,0) and (4,0); intra = 1, inter = 4
        report = clustering_ratio(_two_cluster_set())
        assert report.dist_intra == 1.0
        assert report.dist_inter == 4.0
        assert report.ratio == 0.25

    def test_tighter_clusters_score_lower(self):
        rng = np.random.default_rng(0)
        n = 200
        base = rng.normal(0.0, 1.0, (2 * n, 8))
        labels = ["a"] * n + ["b"] * n
        near = base.copy()
        near[n:, 0] += 2.0
        far = base.copy()
        far[n:, 0] += 10.0
        r_near = clustering_ratio(from_labeled(near, labels)).ratio
        r_far = clustering_ratio(from_labeled(far, labels)).ratio
        assert r_far < r_near

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        embeddings = rng.normal(size=(30, 4))
        labels = ["a", "b", "c"] * 10
        r0 = clustering_ratio(from_labeled(embeddings, labels)).ratio
        r1 = clustering_ratio(from_labeled(embeddings + 13.5, labels)).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        embeddings = rng.normal(size=(30, 4))
        labels = ["a", "b", "c"] * 10
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        r0 = clustering_ratio(from_labeled(embeddings, labels)).ratio
        r1 = clustering_ratio(from_labeled(embeddings @ q, labels)).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        embeddings = rng.normal(size=(20, 3))
        labels = ["a", "b"] * 10
        r0 = clustering_ratio(from_labeled(embeddings, labels)).ratio
        r1 = clustering_ratio(from_labeled(embeddings * 7.25, labels)).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_single_class_rejected(self):
        es = from_labeled(np.zeros((4, 2)), ["a"] * 4)
        with pytest.raises(InvalidParamsError):
            clustering_ratio(es)

    def test_one_single_member_class_rejected(self):
        # Class a's intra distance would be 0 by construction: ratio 0.0333, not 0.0470
        # as with a second a at 0.5.
        es = from_labeled(np.array([[0.0], [10.0], [9.0], [11.0]]), ["a", "b", "b", "b"])
        with pytest.raises(DegenerateClustersError, match="class 'a' has one embedding"):
            clustering_ratio(es)
        two = from_labeled(np.array([[0.0], [0.5], [10.0], [9.0], [11.0]]),
                           ["a", "a", "b", "b", "b"])
        assert clustering_ratio(two).ratio == pytest.approx(0.0470, abs=1e-4)

    def test_coincident_centroids_rejected(self):
        embeddings = np.zeros((4, 2))
        es = from_labeled(embeddings, ["a", "a", "b", "b"])
        with pytest.raises(DegenerateClustersError):
            clustering_ratio(es)

    def test_three_class_report_shape(self):
        rng = np.random.default_rng(4)
        embeddings = rng.normal(size=(60, 5))
        embeddings[20:40, 0] += 6.0
        embeddings[40:, 1] += 6.0
        report = clustering_ratio(from_labeled(embeddings, ["a"] * 20 + ["b"] * 20 + ["c"] * 20))
        assert report.centroids.shape == (3, 5)
        assert 0.0 < report.ratio < 1.0


class TestEmbeddingSet:
    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError):
            EmbeddingSet(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), ())

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            from_labeled(np.array([[np.nan, 0.0]]), ["a"])

    def test_empty_class_rejected_at_centroids(self):
        es = EmbeddingSet(np.zeros((2, 2)), np.array([0, 0]), ("a", "b"))
        with pytest.raises(EmptyClassError):
            centroids(es)


class TestClassificationLoss:
    def test_uniform_four_way(self):
        probs = np.full(4, 0.25)
        target = np.array([0.0, 1.0, 0.0, 0.0])
        assert emotion_classification_loss(target, probs) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct_is_small(self):
        probs = np.array([0.01, 0.98, 0.01])
        target = np.array([0.0, 1.0, 0.0])
        assert emotion_classification_loss(target, probs) == pytest.approx(-np.log(0.98), abs=1e-12)

    def test_zero_probability_is_floored(self):
        probs = np.array([1.0, 0.0])
        target = np.array([0.0, 1.0])
        assert emotion_classification_loss(target, probs) == pytest.approx(-np.log(1e-12), rel=1e-9)

    def test_non_simplex_rejected(self):
        with pytest.raises(InvalidDistributionError):
            emotion_classification_loss(np.array([1.0, 0.0]), np.array([0.5, 0.6]))

    def test_negative_prob_rejected(self):
        with pytest.raises(InvalidDistributionError):
            emotion_classification_loss(np.array([1.0, 0.0]), np.array([-0.1, 1.1]))

    def test_soft_target_rejected(self):
        with pytest.raises(InvalidDistributionError):
            emotion_classification_loss(np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            emotion_classification_loss(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5]))


class TestSimilarityLoss:
    def test_hand_value(self):
        a = np.array([3.0, -4.0])
        b = np.zeros(2)
        assert emotion_similarity_loss(a, b) == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_identical_is_zero(self):
        v = np.linspace(-1.0, 1.0, 7)
        assert emotion_similarity_loss(v, v) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 16))
        assert emotion_similarity_loss(a, b) == emotion_similarity_loss(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            emotion_similarity_loss(np.zeros(3), np.zeros(4))


class TestEmbeddingsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,label,d0,d1\nu1,a,1.5,-2.5\nu2,b,0.25,0.75\n")
        es = read_embeddings_csv(path)
        assert es.class_names == ("a", "b")
        np.testing.assert_array_equal(es.embeddings, [[1.5, -2.5], [0.25, 0.75]])
        np.testing.assert_array_equal(es.labels, [0, 1])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("utt,label,d0\nu1,a,1.0\n")
        with pytest.raises(ParseError):
            read_embeddings_csv(path)

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,label,d0\nu1,a,zap\n")
        with pytest.raises(ParseError):
            read_embeddings_csv(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,label,d0\nu1,a,1.0\n\nu2,b,nan\n")
        with pytest.raises(ParseError, match=r"emb\.csv:4: non-finite embedding value"):
            read_embeddings_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,label,d0,d1\nu1,a,1.0\n")
        with pytest.raises(ParseError):
            read_embeddings_csv(path)
