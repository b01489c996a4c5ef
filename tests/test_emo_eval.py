"""Cluster separation ratio and classification/similarity losses."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from emorank.emo_eval import (
    clustering_ratio,
    emotion_classification_loss,
    emotion_similarity_loss,
    read_embeddings_csv,
)
from emorank.errors import DimensionMismatchError, InvalidParamsError, NonFiniteError, ParseError


def _two_cluster_set():
    # class a at (-1,0),(1,0); class b at (3,0),(5,0)
    embeddings = np.array([[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0], [5.0, 0.0]])
    return embeddings, ["a", "a", "b", "b"]


class TestFromLabeled:
    """Classes derived from the labels: distinct strings, sorted by name."""

    def test_sorted_class_names(self):
        embeddings = np.array([[9.0, 0.0], [0.0, 0.0], [7.0, 0.0], [1.0, 0.0]])
        report = clustering_ratio(embeddings, ["z", "a", "z", "a"])
        assert report.class_names == ("a", "z")
        np.testing.assert_array_equal(report.centroids, [[0.5, 0.0], [8.0, 0.0]])

    def test_trailing_nul_is_its_own_class(self):
        # np.unique on a string array would strip the NUL and merge the classes.
        embeddings = np.array([[0.0], [1.0], [10.0], [11.0]])
        report = clustering_ratio(embeddings, ["a", "a", "a\x00", "a\x00"])
        assert report.class_names == ("a", "a\x00")
        assert report.ratio == pytest.approx(0.05)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            clustering_ratio(np.zeros((3, 2)), ["a", "b"])


class TestClusteringRatio:
    def test_hand_computed_value(self):
        # centroids (0,0) and (4,0); intra = 1, inter = 4
        report = clustering_ratio(*_two_cluster_set())
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
        r_near = clustering_ratio(near, labels).ratio
        r_far = clustering_ratio(far, labels).ratio
        assert r_far < r_near

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        embeddings = rng.normal(size=(30, 4))
        labels = ["a", "b", "c"] * 10
        r0 = clustering_ratio(embeddings, labels).ratio
        r1 = clustering_ratio(embeddings + 13.5, labels).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        embeddings = rng.normal(size=(30, 4))
        labels = ["a", "b", "c"] * 10
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        r0 = clustering_ratio(embeddings, labels).ratio
        r1 = clustering_ratio(embeddings @ q, labels).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        embeddings = rng.normal(size=(20, 3))
        labels = ["a", "b"] * 10
        r0 = clustering_ratio(embeddings, labels).ratio
        r1 = clustering_ratio(embeddings * 7.25, labels).ratio
        assert r1 == pytest.approx(r0, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidParamsError):
            clustering_ratio(np.zeros((4, 2)), ["a"] * 4)

    def test_one_single_member_class_rejected(self):
        # Class a's intra distance would be 0 by construction: ratio 0.0333, not 0.0470
        # as with a second a at 0.5.
        with pytest.raises(InvalidParamsError, match="class 'a' has one embedding"):
            clustering_ratio(np.array([[0.0], [10.0], [9.0], [11.0]]), ["a", "b", "b", "b"])
        two = clustering_ratio(np.array([[0.0], [0.5], [10.0], [9.0], [11.0]]),
                               ["a", "a", "b", "b", "b"])
        assert two.ratio == pytest.approx(0.0470, abs=1e-4)

    def test_coincident_centroids_rejected(self):
        with pytest.raises(InvalidParamsError,
                           match="all embeddings coincide; inter-class distance is zero"):
            clustering_ratio(np.zeros((4, 2)), ["a", "a", "b", "b"])

    def test_three_class_report_shape(self):
        rng = np.random.default_rng(4)
        embeddings = rng.normal(size=(60, 5))
        embeddings[20:40, 0] += 6.0
        embeddings[40:, 1] += 6.0
        report = clustering_ratio(embeddings, ["a"] * 20 + ["b"] * 20 + ["c"] * 20)
        assert report.class_names == ("a", "b", "c")
        assert report.centroids.shape == (3, 5)
        assert 0.0 < report.ratio < 1.0

    @pytest.mark.parametrize("embeddings", [
        [[0.0, 0.0], [0.0, 1e200], [5e200, 0.0], [5e200, 1.0]],
        [[1e308], [1e308], [0.0], [1.0]],
    ], ids=["distances", "centroid"])
    def test_overflow_rejected(self, embeddings):
        # Finite rows whose centroids or distances overflow: no NaN ratio, no warning.
        with pytest.raises(NonFiniteError, match="overflow"):
            clustering_ratio(np.array(embeddings), ["neutral", "neutral", "happy", "happy"])


@st.composite
def _clusters(draw):
    """(embeddings, class index per row): 2-4 classes of 2-4 rows each.

    Coordinates are quarter integers, so class sums are exact in any order
    and so are the centroids; two ratios of the same clusters can differ
    only in the order their non-negative distances are summed.
    """
    k = draw(st.integers(2, 4))
    dim = draw(st.integers(1, 3))
    codes = np.repeat(np.arange(k), draw(st.lists(st.integers(2, 4), min_size=k, max_size=k)))
    coord = st.integers(-400, 400).map(lambda v: v / 4.0)
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                         min_size=codes.size, max_size=codes.size))
    return np.array(rows), codes


class TestClusteringProperties:
    @settings(max_examples=200, deadline=None)
    @given(_clusters(), st.data())
    def test_invariant_to_row_order_and_class_names(self, clusters, data):
        embeddings, codes = clusters
        k = int(codes.max()) + 1
        # Names drawn with a NUL among the characters, renamed by a permutation,
        # which changes the sorted class order whenever it is not the identity.
        names = data.draw(st.lists(st.text("ab\x00z", max_size=3), min_size=k, max_size=k,
                                   unique=True), label="names")
        renamed = data.draw(st.permutations(names), label="renamed")
        order = np.array(data.draw(st.permutations(range(codes.size)), label="order"))
        try:
            first = clustering_ratio(embeddings, [names[c] for c in codes])
        except InvalidParamsError as exc:
            # Skip only the clusters that give no ratio: a class of one
            # member or coincident centroids.
            assume("by construction" not in str(exc) and "coincide" not in str(exc))
            raise
        second = clustering_ratio(embeddings[order], [renamed[c] for c in codes[order]])
        for got, want in ((second.ratio, first.ratio), (second.dist_intra, first.dist_intra),
                          (second.dist_inter, first.dist_inter)):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEmbeddingSet:
    """clustering_ratio's checks on the embedding matrix."""

    def test_empty_rejected(self):
        with pytest.raises(InvalidParamsError):
            clustering_ratio(np.zeros((0, 2)), [])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            clustering_ratio(np.array([[np.nan, 0.0]]), ["a"])


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
        with pytest.raises(InvalidParamsError, match=r"^probabilities sum to 1\.1, not 1$"):
            emotion_classification_loss(np.array([1.0, 0.0]), np.array([0.5, 0.6]))

    def test_negative_prob_rejected(self):
        with pytest.raises(InvalidParamsError,
                           match="probabilities must be finite and non-negative"):
            emotion_classification_loss(np.array([1.0, 0.0]), np.array([-0.1, 1.1]))

    def test_soft_target_rejected(self):
        with pytest.raises(InvalidParamsError, match="label vector must be one-hot"):
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
        embeddings, labels = read_embeddings_csv(path)
        assert labels == ["a", "b"]
        np.testing.assert_array_equal(embeddings, [[1.5, -2.5], [0.25, 0.75]])

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
