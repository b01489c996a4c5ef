"""Embedding-space separation and perceptual loss metrics.

The clustering ratio compares mean within-class centroid distance against
mean cross-class centroid distance; lower values mean tighter, better
separated emotion clusters.  The two loss helpers score a recognizer's
posterior against a target emotion and the distance between a pair of
emotion embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClustersError,
    DimensionMismatchError,
    EmptyClassError,
    InvalidDistributionError,
    InvalidParamsError,
    NonFiniteError,
    ParseError,
)
from .tables import parse_floats, read_table

PROB_FLOOR = 1e-12
PROB_SUM_TOL = 1e-6


@dataclass(eq=False)
class EmbeddingSet:
    """Labelled embedding matrix: one row per utterance."""

    embeddings: np.ndarray
    labels: np.ndarray
    class_names: tuple

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_names = tuple(self.class_names)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] == 0:
            raise InvalidParamsError("embeddings must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(self.embeddings)):
            raise NonFiniteError("embeddings contain non-finite values")
        if self.labels.shape != (self.embeddings.shape[0],):
            raise DimensionMismatchError("need one label per embedding row")
        if len(set(self.class_names)) != len(self.class_names) or not self.class_names:
            raise InvalidParamsError("class names must be unique and non-empty")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise InvalidParamsError("label index out of range")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(eq=False)
class ClusterReport:
    """Centroids plus the inter/intra distances and their ratio."""

    centroids: np.ndarray
    dist_inter: float
    dist_intra: float
    ratio: float


def from_labeled(embeddings: np.ndarray, label_strings) -> EmbeddingSet:
    """Build an EmbeddingSet from string labels, classes sorted by name."""
    label_strings = [str(l) for l in label_strings]
    names = tuple(sorted(set(label_strings)))
    index = {name: i for i, name in enumerate(names)}
    labels = np.array([index[l] for l in label_strings], dtype=np.int64)
    return EmbeddingSet(np.asarray(embeddings, dtype=np.float64), labels, names)


def centroids(embedding_set: EmbeddingSet) -> np.ndarray:
    """Per-class mean embedding; every class must have members."""
    out = np.empty((embedding_set.n_classes, embedding_set.embeddings.shape[1]))
    for i, name in enumerate(embedding_set.class_names):
        rows = embedding_set.embeddings[embedding_set.labels == i]
        if rows.shape[0] == 0:
            raise EmptyClassError(f"class {name!r} has no embeddings")
        out[i] = rows.mean(axis=0)
    return out


def clustering_ratio(embedding_set: EmbeddingSet) -> ClusterReport:
    """Mean intra-centroid distance over mean inter-centroid distance.

    With K classes, intra averages ||e - c_i|| over each class's own
    members and then over classes; inter averages ||e - c_j|| over all
    j != i with weight 1 / (K * (K - 1) * N_i).  Lower is better.  One
    member per class or coincident centroids raise DegenerateClustersError.
    """
    k = embedding_set.n_classes
    if k < 2:
        raise InvalidParamsError("clustering ratio needs at least two classes")
    cents = centroids(embedding_set)
    # Every class has a member, so k rows means one each: intra would be 0.
    if embedding_set.labels.size == k:
        raise DegenerateClustersError(
            "every class has one embedding; intra-class distance is zero by construction")
    intra = 0.0
    inter = 0.0
    for i in range(k):
        rows = embedding_set.embeddings[embedding_set.labels == i]
        dists = np.linalg.norm(rows[:, None, :] - cents[None, :, :], axis=2)
        intra += dists[:, i].mean()
        inter += (dists.sum(axis=1) - dists[:, i]).mean()
    intra /= k
    inter /= k * (k - 1)
    if inter == 0.0:
        raise DegenerateClustersError("all embeddings coincide; inter-class distance is zero")
    return ClusterReport(cents, float(inter), float(intra), float(intra / inter))


def emotion_classification_loss(target_onehot: np.ndarray, probs: np.ndarray) -> float:
    """Negative log posterior of the target class.

    target_onehot must be exactly one-hot; probs must be non-negative and
    sum to 1 within 1e-6.  The target probability is floored at 1e-12
    before the log.
    """
    target = np.asarray(target_onehot, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if target.ndim != 1 or target.shape != probs.shape:
        raise DimensionMismatchError("label and probability vectors must share a 1-D shape")
    if not np.all((target == 0.0) | (target == 1.0)) or target.sum() != 1.0:
        raise InvalidDistributionError("label vector must be one-hot")
    if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
        raise InvalidDistributionError("probabilities must be finite and non-negative")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {probs.sum()!r}, not 1")
    p_target = max(float(probs[int(np.argmax(target))]), PROB_FLOOR)
    return float(-np.log(p_target))


def emotion_similarity_loss(a: np.ndarray, b: np.ndarray) -> float:
    """Root mean squared difference between two embedding vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DimensionMismatchError(f"embedding shapes differ: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(np.mean(diff * diff)))


def _embedding_columns(n_fields: int) -> tuple:
    """Header `id,label,d0..dN` for a file whose header has n_fields fields."""
    return ("id", "label") + tuple(f"d{i}" for i in range(max(n_fields - 2, 1)))


def read_embeddings_csv(path) -> EmbeddingSet:
    """Read labelled embeddings from CSV rows `id,label,d0..dN`; ids non-empty and unique."""
    rows = {}
    for lineno, (ident, label, *values) in read_table(path, ",", _embedding_columns):
        if not ident or ident in rows:
            raise ParseError(f"{path}:{lineno}: {'duplicate' if ident else 'empty'} id {ident!r}")
        rows[ident] = (label, parse_floats(path, lineno, values, "embedding"))
    if not rows:
        raise ParseError(f"{path}: no embedding rows")
    labels, vectors = zip(*rows.values())
    return from_labeled(np.array(vectors), labels)
