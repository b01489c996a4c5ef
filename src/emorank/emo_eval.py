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

from .errors import DimensionMismatchError, InvalidParamsError, NonFiniteError
from .tables import parse_floats, read_keyed_table

PROB_FLOOR = 1e-12
PROB_SUM_TOL = 1e-6


@dataclass(eq=False)
class ClusterReport:
    """Class names sorted, their centroids, the inter/intra distances and their ratio."""

    class_names: tuple
    centroids: np.ndarray
    dist_inter: float
    dist_intra: float
    ratio: float


def clustering_ratio(embeddings: np.ndarray, labels) -> ClusterReport:
    """Mean intra-centroid distance over mean inter-centroid distance.

    embeddings holds one row per utterance and labels one class label per
    row; the classes are the distinct labels as strings, sorted by name.
    With K classes, intra averages ||e - c_i|| over each class's own
    members and then over classes; inter averages ||e - c_j|| over all
    j != i with weight 1 / (K * (K - 1) * N_i).  Lower is better.  A
    class with one member (its intra distance is 0 by construction) or
    coincident centroids raise InvalidParamsError; finite embeddings
    whose centroids or mean distances overflow raise NonFiniteError.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = [str(l) for l in labels]
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise InvalidParamsError("embeddings must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(embeddings)):
        raise NonFiniteError("embeddings contain non-finite values")
    if len(labels) != embeddings.shape[0]:
        raise DimensionMismatchError("need one label per embedding row")
    names = tuple(sorted(set(labels)))
    k = len(names)
    if k < 2:
        raise InvalidParamsError("clustering ratio needs at least two classes")
    index = {name: i for i, name in enumerate(names)}
    codes = np.array([index[l] for l in labels], dtype=np.int64)
    counts = np.bincount(codes, minlength=k)
    if np.all(counts == 1):
        raise InvalidParamsError(
            "every class has one embedding; intra-class distance is zero by construction")
    if np.any(counts == 1):
        name = names[int(np.argmax(counts == 1))]
        raise InvalidParamsError(
            f"class {name!r} has one embedding; its intra-class distance is zero "
            "by construction")
    members = [embeddings[codes == i] for i in range(k)]
    intra = 0.0
    inter = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        cents = np.array([rows.mean(axis=0) for rows in members])
        for i, rows in enumerate(members):
            dists = np.linalg.norm(rows[:, None, :] - cents[None, :, :], axis=2)
            intra += dists[:, i].mean()
            inter += (dists.sum(axis=1) - dists[:, i]).mean()
        intra /= k
        inter /= k * (k - 1)
    if not (np.all(np.isfinite(cents)) and np.isfinite(intra) and np.isfinite(inter)):
        raise NonFiniteError(
            "class centroids or mean distances overflow float64; rescale the embeddings")
    if inter == 0.0:
        raise InvalidParamsError("all embeddings coincide; inter-class distance is zero")
    return ClusterReport(names, cents, float(inter), float(intra), float(intra / inter))


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
        raise InvalidParamsError("label vector must be one-hot")
    if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
        raise InvalidParamsError("probabilities must be finite and non-negative")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise InvalidParamsError(f"probabilities sum to {float(probs.sum())!r}, not 1")
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


def read_embeddings_csv(path) -> tuple:
    """Read CSV rows `id,label,d0..dN` as (embeddings, labels); ids non-empty and unique."""
    rows = [(label, parse_floats(path, lineno, values, "embedding"))
            for lineno, (_, label, *values) in read_keyed_table(path, ",", _embedding_columns)]
    labels, vectors = zip(*rows)
    return np.array(vectors), list(labels)
