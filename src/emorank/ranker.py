"""Pairwise ranking of emotion intensity with a linear scoring function.

The model learns w such that w.x places emotional utterances above neutral
ones.  Training minimizes a squared-slack objective

    f(w) = 0.5 ||w||^2 + C * ( sum_ordered max(0, 1 - w.(xa - xb))^2
                             + sum_similar (w.(xa - xb))^2 )

by exact Newton iterations with Armijo backtracking.  Margins, objective
and gradient come from the per-row scores xs @ w.  The Hessian is
I + 2C * sum d^T d over the active ordered and all similar difference rows
d = xs[a] - xs[b].  For any pair list that sum equals xs^T L xs, where L is
the Laplacian of the pair graph (Chapelle & Keerthi, Information Retrieval
2010), which costs n^2*d + n*d^2 instead of pairs*d^2.  The dense n x n L
is used only while it is no larger than one block of 1024 difference rows;
above that the differences are summed a block at a time.  Each step is one
d x d solve and memory is O(n*d + min(n^2, 1024*d)).  The objective is
piecewise quadratic and strictly convex, so iterates converge to the
unique minimizer.  Scores are affinely mapped to [0, 1] using the
raw-score range observed on the training set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
# numpy.random loads with this module, not at the first draw, so the
# import of the package holds it before any command's work starts.
from numpy.random import default_rng

from .config import DEFAULTS, MAX_ORDERED_PAIRS, Config
from .errors import DimensionMismatchError, InvalidParamsError, NonFiniteError, ParseError
from .tables import read_text, write_json

DEFAULT_MAX_ITER = 200
DEFAULT_GRAD_TOL = 1e-6
STD_FLOOR = 1e-8
MODEL_SCHEMA_VERSION = 1

_ARMIJO_C1 = 1e-4
_MAX_BACKTRACKS = 60
_GRAM_BLOCK = 1024


@dataclass(eq=False)
class PairSets:
    """Index pairs over a shared feature matrix.

    Ordered pairs (a, b) assert row a outranks row b; similar pairs assert
    equal rank.  Both are (n, 2) integer arrays.
    """

    ordered: np.ndarray
    similar: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.ordered = np.asarray(self.ordered, dtype=np.int64).reshape(-1, 2)
        self.similar = np.asarray(self.similar, dtype=np.int64).reshape(-1, 2)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise InvalidParamsError("features must be a non-empty 2-D matrix")
        n_rows = self.features.shape[0]
        for name, pairs in (("ordered", self.ordered), ("similar", self.similar)):
            if pairs.size and (pairs.min() < 0 or pairs.max() >= n_rows):
                raise InvalidParamsError(f"{name} pair index out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise InvalidParamsError(f"{name} pairs must not pair a row with itself")


@dataclass(eq=False)
class RankingModel:
    """Trained scorer: weights over standardized features plus the score range."""

    emotion: str
    c: float
    weights: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    attr_min: float
    attr_max: float
    solver_report: dict


def build_pairs(features: np.ndarray, emotional, config: Config = DEFAULTS) -> PairSets:
    """Construct training pairs from a mask holding one bool per row, True if emotional.

    Ordered pairs are the full emotional x neutral cross product, or
    MAX_ORDERED_PAIRS pairs sampled uniformly without replacement when the
    product is larger; config.seed seeds the sampling.  config.n_similar
    similar pairs, or half the number of ordered pairs when it is 0, are
    drawn within class, split evenly between the two classes (odd counts
    favor the neutral side); a class with fewer than two members
    contributes none.
    """
    features = np.asarray(features, dtype=np.float64)
    emotional = np.asarray(emotional)
    if emotional.dtype != bool:
        raise InvalidParamsError(f"emotional must be a boolean mask, got dtype {emotional.dtype}")
    if features.ndim != 2 or emotional.shape != features.shape[:1]:
        raise DimensionMismatchError("need one emotional mask entry per feature row")
    emo = np.flatnonzero(emotional)
    neu = np.flatnonzero(~emotional)
    if emo.size == 0 or neu.size == 0:
        raise InvalidParamsError("need at least one emotional and one neutral sample")

    rng = default_rng(config.seed)
    total = emo.size * neu.size
    if total <= MAX_ORDERED_PAIRS:
        ordered = np.column_stack([np.repeat(emo, neu.size), np.tile(neu, emo.size)])
    else:
        flat = rng.choice(total, size=MAX_ORDERED_PAIRS, replace=False)
        ordered = np.column_stack([emo[flat // neu.size], neu[flat % neu.size]])

    n_similar = config.n_similar or ordered.shape[0] // 2
    n_emo_pairs = n_similar // 2
    n_neu_pairs = n_similar - n_emo_pairs

    def within(group: np.ndarray, count: int) -> np.ndarray:
        if count == 0 or group.size < 2:
            return np.empty((0, 2), dtype=np.int64)
        first = rng.integers(0, group.size, size=count)
        second = (first + rng.integers(1, group.size, size=count)) % group.size
        return np.column_stack([group[first], group[second]])

    similar = np.vstack([within(neu, n_neu_pairs), within(emo, n_emo_pairs)])
    return PairSets(ordered, similar, features)


def _value(w: np.ndarray, xs: np.ndarray, pairs: PairSets, c: float) -> tuple:
    """Objective at w and its hinge and similar terms, from the per-row scores xs @ w."""
    s = xs @ w
    hinge = np.maximum(0.0, 1.0 - (s[pairs.ordered[:, 0]] - s[pairs.ordered[:, 1]]))
    sim = s[pairs.similar[:, 0]] - s[pairs.similar[:, 1]]
    return float(0.5 * (w @ w) + c * (hinge @ hinge + sim @ sim)), hinge, sim


def objective(w: np.ndarray, pairs: PairSets, config: Config = DEFAULTS) -> float:
    """The objective train_ranker minimizes, at w (C is config.ranker_c)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (pairs.features.shape[1],):
        raise DimensionMismatchError(
            f"w has shape {w.shape}, features have {pairs.features.shape[1]} columns"
        )
    return _value(w, _feature_space(pairs.features)[0], pairs, config.ranker_c)[0]


def _pair_gram(xs: np.ndarray, index_pairs: np.ndarray) -> np.ndarray:
    """Sum of d^T d over the rows d = xs[a] - xs[b] of the (a, b) index pairs.

    With n rows of d columns, the sum is xs^T L xs for the pair graph's
    Laplacian L = D - A - A^T: A[a, b] counts the pair (a, b) and D holds
    A's row plus column sums on its diagonal.  That form is taken when the
    n x n L is no larger than one block of min(pairs, _GRAM_BLOCK)
    difference rows; otherwise the differences are summed _GRAM_BLOCK pairs
    at a time.  Either way the temporaries stay within a few such blocks.
    """
    n, dim = xs.shape
    if n * n <= min(index_pairs.shape[0], _GRAM_BLOCK) * dim:
        adj = np.bincount(index_pairs[:, 0] * n + index_pairs[:, 1],
                          minlength=n * n).reshape(n, n)
        degree = adj.sum(axis=0) + adj.sum(axis=1)
        lap = adj.astype(np.float64)
        lap += adj.T
        del adj
        np.negative(lap, out=lap)
        lap.flat[::n + 1] += degree
        return xs.T @ (lap @ xs)
    gram = np.zeros((dim, dim))
    for start in range(0, index_pairs.shape[0], _GRAM_BLOCK):
        block = index_pairs[start:start + _GRAM_BLOCK]
        diff = xs[block[:, 0]] - xs[block[:, 1]]
        gram += diff.T @ diff
    return gram


def _standardized(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(x - mean) / std; NonFiniteError names the first bad column, and row if its scaler is."""
    with np.errstate(over="ignore", invalid="ignore"):
        xs = (x - mean) / std
    scaler = np.isfinite(mean) & np.isfinite(std)
    bad = ~(scaler & np.isfinite(xs).all(axis=0))
    if bad.any():
        col = int(np.argmax(bad))
        row = f" in row {int(np.argmin(np.isfinite(xs[:, col])))}" if scaler[col] else ""
        raise NonFiniteError(
            f"feature column {col} overflows float64 when standardized{row} "
            f"(mean {float(mean[col])!r}, std {float(std[col])!r})")
    return xs


def _feature_space(x: np.ndarray) -> tuple:
    """(xs, mean, std): x z-scored by column, std floored at STD_FLOOR; raises NonFiniteError."""
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("features contain non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = np.maximum(x.std(axis=0), STD_FLOOR)
    return _standardized(x, mean, std), mean, std


def _newton_direction(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Newton step: solve hess @ direction = -grad (hess is symmetric positive definite)."""
    return np.linalg.solve(hess, -grad)


def train_ranker(pairs: PairSets, config: Config = DEFAULTS, emotion: str = "") -> RankingModel:
    """Fit ranking weights by Newton iterations on the squared-slack objective.

    Features are z-scored by _feature_space, which raises NonFiniteError
    for a non-finite or overflowing column.  Iterations stop when the
    gradient norm falls to DEFAULT_GRAD_TOL, after DEFAULT_MAX_ITER accepted
    steps, or when backtracking finds no step that passes the Armijo test
    (converged stays False); the solver report names which as stop_reason
    ("gradient", "max_iter" or "line_search").  The report also records the
    objective after every accepted step; the Armijo test keeps it
    non-increasing.  The objective's C is config.ranker_c.
    """
    c = config.ranker_c
    xs, mean, std = _feature_space(pairs.features)
    if pairs.ordered.shape[0] == 0:
        raise InvalidParamsError("training needs at least one ordered pair")

    n_rows, dim = xs.shape
    (oa, ob), (sa, sb) = pairs.ordered.T, pairs.similar.T
    # The similar pairs' Hessian term does not depend on w.
    hess_fixed = np.eye(dim) + 2.0 * c * _pair_gram(xs, pairs.similar)

    w = np.zeros(dim)
    value, hinge, sim = _value(w, xs, pairs, c)
    history = [value]
    steps = 0
    while True:
        # Each pair term's derivative lands on its two rows' scores with
        # opposite signs; xs^T maps the per-row sum back to weight space.
        coef = (np.bincount(ob, hinge, n_rows) - np.bincount(oa, hinge, n_rows)
                + np.bincount(sa, sim, n_rows) - np.bincount(sb, sim, n_rows))
        grad = w + 2.0 * c * (xs.T @ coef)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= DEFAULT_GRAD_TOL:
            stop_reason = "gradient"
            break
        if steps >= DEFAULT_MAX_ITER:
            stop_reason = "max_iter"
            break

        hess = hess_fixed + 2.0 * c * _pair_gram(xs, pairs.ordered[hinge > 0.0])
        direction = _newton_direction(hess, grad)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = _value(w + step * direction, xs, pairs, c)
            if trial[0] <= value + _ARMIJO_C1 * step * slope:
                break
            step *= 0.5
        else:
            # No step length decreases the objective enough: stop at w.
            stop_reason = "line_search"
            break
        w = w + step * direction
        value, hinge, sim = trial
        history.append(value)
        steps += 1

    report = {
        "iterations": steps,
        "converged": stop_reason == "gradient",
        "stop_reason": stop_reason,
        "grad_norm": grad_norm,
        "final_objective": history[-1],
        "objective_history": history,
    }
    # score()'s product: unlike BLAS, einsum gives each row bits the other rows do not move.
    s = np.einsum("ij,j->i", xs, w)
    return RankingModel(emotion, float(c), w, mean, std,
                        float(s.min()), float(s.max()), report)


def score(model: RankingModel, x: np.ndarray) -> np.ndarray:
    """Intensities in [0, 1] of the rows of an (n, d) feature matrix.

    Raw scores are the standardized rows times the weights, by the per-row
    product training took attr_min and attr_max from, so training rows score
    exactly 0.0 and 1.0 at their extremes among any other rows.  Raw scores map
    affinely onto that range, clamped outside it; a degenerate range maps every
    row to 0.5.  An overflowing column or raw score raises NonFiniteError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1:] != model.weights.shape:
        raise DimensionMismatchError(
            f"expected vector of shape {model.weights.shape} per row, got shape {x.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.einsum("ij,j->i", _standardized(x, model.feature_mean, model.feature_std),
                        model.weights)
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise NonFiniteError(f"raw score of row {bad[0]} overflows float64")
    span = model.attr_max - model.attr_min
    if span <= 0.0:
        return np.full(raw.shape, 0.5)
    with np.errstate(over="ignore"):
        return np.clip((raw - model.attr_min) / span, 0.0, 1.0)


def save_model(model: RankingModel, path) -> None:
    """Serialize a model as JSON; floats round-trip exactly."""
    payload = {
        "version": MODEL_SCHEMA_VERSION,
        "emotion": model.emotion,
        "C": model.c,
        "weights": [float(v) for v in model.weights],
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_std": [float(v) for v in model.feature_std],
        "attr_min": model.attr_min,
        "attr_max": model.attr_max,
        "solver_report": model.solver_report,
    }
    write_json(path, payload)


def load_model(path) -> RankingModel:
    """Load a model saved by save_model, rejecting one that cannot score.

    Non-finite weights, scaler entries or score range, a feature_std entry
    <= 0, or attr_min > attr_max raise an EmorankError instead of letting
    score() return NaN.
    """
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("version") != MODEL_SCHEMA_VERSION:
        raise ParseError(
            f"{path}: expected schema version {MODEL_SCHEMA_VERSION}, "
            f"got {payload.get('version') if isinstance(payload, dict) else type(payload).__name__}"
        )
    try:
        weights = np.asarray(payload["weights"], dtype=np.float64)
        mean = np.asarray(payload["feature_mean"], dtype=np.float64)
        std = np.asarray(payload["feature_std"], dtype=np.float64)
        model = RankingModel(
            emotion=str(payload["emotion"]),
            c=float(payload["C"]),
            weights=weights,
            feature_mean=mean,
            feature_std=std,
            attr_min=float(payload["attr_min"]),
            attr_max=float(payload["attr_max"]),
            solver_report=dict(payload["solver_report"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model payload ({exc})") from exc
    if not (weights.shape == mean.shape == std.shape) or weights.ndim != 1:
        raise ParseError(f"{path}: weight and scaler shapes disagree")
    if not np.all(np.isfinite(np.concatenate([weights, mean, std,
                                              [model.attr_min, model.attr_max]]))):
        raise NonFiniteError(f"{path}: weights, scaler or score range are not finite")
    if np.any(std <= 0.0):
        raise InvalidParamsError(f"{path}: feature_std entries must be positive")
    if model.attr_min > model.attr_max:
        raise InvalidParamsError(f"{path}: attr_min exceeds attr_max")
    return model
