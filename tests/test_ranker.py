"""Pair construction, solver correctness, scoring, and persistence."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emorank import ranker
from emorank.config import MAX_ORDERED_PAIRS, Config
from emorank.errors import DimensionMismatchError, InvalidParamsError, NonFiniteError, ParseError
from emorank.ranker import (
    PairSets,
    RankingModel,
    build_pairs,
    load_model,
    objective,
    save_model,
    score,
    train_ranker,
)


def _toy_pairs():
    # Four 1-d samples, one ordered pair with difference 2, no similar pairs.
    features = np.array([[0.0], [0.0], [2.0], [2.0]])
    return PairSets(np.array([[2, 0]]), np.empty((0, 2)), features)


def _two_class_pairs(shift):
    # Ten emotional and ten neutral 4-d samples, the emotional ones shifted
    # by `shift` along the first axis.
    rng = np.random.default_rng(13)
    features = rng.normal(size=(20, 4))
    features[:10, 0] += shift
    return build_pairs(features, [True] * 10 + [False] * 10, Config(seed=0))


def _benchmark_shaped_pairs(seed):
    # 60 emotional and 60 neutral rows of 384 correlated columns, as many
    # as the benchmark's corpus: rank-8 structure plus noise, the emotional
    # rows shifted along one latent direction.
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(120, 8))
    latent[:60, 0] += 1.0
    features = latent @ rng.normal(size=(8, 384)) + 0.1 * rng.normal(size=(120, 384))
    return build_pairs(features, [True] * 60 + [False] * 60, Config(seed=seed))


# Newton steps the solver took on _benchmark_shaped_pairs(0..9) when every
# Hessian was summed from pair-difference blocks.
BLOCKED_GRAM_ITERATIONS = [4, 5, 4, 5, 4, 4, 5, 4, 5, 4]


def _blocked_pair_gram(xs, index_pairs, block=1024):
    """Sum of d^T d over the rows d = xs[a] - xs[b], a block of pairs at a time.

    The reference for ranker._pair_gram.
    """
    gram = np.zeros((xs.shape[1], xs.shape[1]))
    for start in range(0, index_pairs.shape[0], block):
        rows = index_pairs[start:start + block]
        diff = xs[rows[:, 0]] - xs[rows[:, 1]]
        gram += diff.T @ diff
    return gram


@st.composite
def _gram_cases(draw):
    # Pairs over the first `used` rows only, so the rest sit in no pair; few
    # used rows and many pairs make repeats likely.
    n = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 12))
    used = draw(st.integers(2, n))
    count = draw(st.integers(0, 200))
    first = draw(arrays(np.int64, count, elements=st.integers(0, used - 1)))
    step = draw(arrays(np.int64, count, elements=st.integers(1, used - 1)))
    xs = draw(arrays(np.float64, (n, dim),
                     elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    return xs, np.column_stack([first, (first + step) % used])


TINY = np.finfo(np.float64).tiny


def _gram_case(n, dim, pairs):
    return (np.random.default_rng(n * dim).normal(size=(n, dim)),
            np.array(pairs, dtype=np.int64).reshape(-1, 2))


class TestPairGram:
    @settings(max_examples=200, deadline=None)
    @given(_gram_cases())
    # 3 x 3 pairs <= 5 pairs x 2 columns: the Laplacian form, with repeats.
    @example(_gram_case(3, 2, [[0, 1], [1, 0], [0, 1], [2, 0], [1, 2]]))
    # 40 x 40 rows > 5 pairs x 1 column: the blocked loop, rows in no pair.
    @example(_gram_case(40, 1, [[0, 1], [1, 2], [2, 3], [3, 0], [0, 1]]))
    @example(_gram_case(4, 3, []))
    # Products of the smallest normal double underflow: the two forms
    # differ by one subnormal where the relative bound is 0.
    @example((np.array([[TINY, TINY], [1e-6, TINY], [TINY, TINY]]),
              np.array([[0, 2], [2, 1], [0, 2], [0, 2], [1, 0]])))
    def test_matches_blocked_loop(self, case):
        xs, pairs = case
        got = ranker._pair_gram(xs, pairs)
        want = _blocked_pair_gram(xs, pairs)
        # Both forms round within a few ulps of the summed magnitudes
        # (|x_a| + |x_b|)(|x_a| + |x_b|)^T of the terms they add, plus half
        # a subnormal for each product that underflows: one per pair in
        # the blocked loop, one per row in Xᵀ(L X).
        mag = np.abs(xs[pairs[:, 0]]) + np.abs(xs[pairs[:, 1]])
        underflow = (len(pairs) + len(xs)) * np.finfo(np.float64).smallest_subnormal
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (mag.T @ mag) + underflow)

    def test_laplacian_peaks_no_higher_than_blocks_at_rule_edge(self):
        # The largest row count that still takes the n x n Laplacian for
        # 384 columns and more than one block of pairs.
        n, dim = 627, 384
        assert n * n <= ranker._GRAM_BLOCK * dim < (n + 1) ** 2
        rng = np.random.default_rng(627)
        xs = rng.normal(size=(n, dim))
        first = rng.integers(0, n, 1500)
        pairs = np.column_stack([first, (first + rng.integers(1, n, 1500)) % n])
        peaks = []
        for gram in (ranker._pair_gram, _blocked_pair_gram):
            tracemalloc.start()
            try:
                gram(xs, pairs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


class TestPairSets:
    def test_self_pair_rejected(self):
        with pytest.raises(InvalidParamsError):
            PairSets(np.array([[1, 1]]), np.empty((0, 2)), np.zeros((3, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidParamsError):
            PairSets(np.array([[0, 5]]), np.empty((0, 2)), np.zeros((3, 2)))


class TestBuildPairs:
    def test_cross_product_counts(self):
        features = np.arange(8.0).reshape(4, 2)
        emotional = [True, True, False, False]
        pairs = build_pairs(features, emotional, Config(n_similar=2, seed=0))
        assert pairs.ordered.shape == (4, 2)
        assert pairs.similar.shape == (2, 2)
        # ordered pairs are (emotional, neutral)
        assert set(pairs.ordered[:, 0]) == {0, 1}
        assert set(pairs.ordered[:, 1]) == {2, 3}

    def test_similar_pairs_same_class(self):
        rng = np.random.default_rng(0)
        emotional = [True] * 5 + [False] * 5
        pairs = build_pairs(rng.normal(size=(10, 3)), emotional, Config(n_similar=8, seed=1))
        cls = np.array([0] * 5 + [1] * 5)
        assert np.all(cls[pairs.similar[:, 0]] == cls[pairs.similar[:, 1]])
        assert np.all(pairs.similar[:, 0] != pairs.similar[:, 1])

    def test_default_n_similar_is_half(self):
        # n_similar 0, the default, asks for half, as `train-ranker --n-similar 0` does.
        features = np.zeros((8, 2))
        emotional = [True] * 4 + [False] * 4
        pairs = build_pairs(features, emotional, Config(n_similar=0, seed=0))
        assert pairs.ordered.shape[0] == 16
        assert pairs.similar.shape[0] == 8

    def test_sampling_kicks_in_above_limit(self):
        rng = np.random.default_rng(2)
        emotional = [True] * 150 + [False] * 100
        pairs = build_pairs(rng.normal(size=(250, 2)), emotional, Config(seed=3))
        assert pairs.ordered.shape[0] == MAX_ORDERED_PAIRS
        assert np.unique(pairs.ordered, axis=0).shape[0] == MAX_ORDERED_PAIRS
        assert np.all(pairs.ordered[:, 0] < 150)
        assert np.all(pairs.ordered[:, 1] >= 150)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(250, 2))
        emotional = [True] * 150 + [False] * 100
        a = build_pairs(features, emotional, Config(seed=7))
        b = build_pairs(features, emotional, Config(seed=7))
        c = build_pairs(features, emotional, Config(seed=8))
        np.testing.assert_array_equal(a.ordered, b.ordered)
        np.testing.assert_array_equal(a.similar, b.similar)
        assert not np.array_equal(a.ordered, c.ordered)

    def test_empty_class_rejected(self):
        with pytest.raises(InvalidParamsError,
                           match="need at least one emotional and one neutral sample"):
            build_pairs(np.zeros((3, 1)), [False] * 3)

    def test_unknown_label_rejected(self):
        with pytest.raises(InvalidParamsError, match="boolean mask"):
            build_pairs(np.zeros((2, 1)), ["neutral", "angry"])

    @pytest.mark.parametrize("emotional, error", [
        (np.array(["emotional", "neutral"]), InvalidParamsError),
        (np.array([1, 0]), InvalidParamsError),
        (np.array([True, False, False]), DimensionMismatchError),
        (np.array([[True, False]]), DimensionMismatchError),
    ], ids=["strings", "integers", "one_entry_too_many", "two_dimensional"])
    def test_mask_must_be_boolean_with_one_entry_per_row(self, emotional, error):
        with pytest.raises(error):
            build_pairs(np.zeros((2, 1)), emotional)

    def test_mask_keeps_row_order(self):
        # The classes are the mask's True and False rows in row order, however
        # the rows interleave.
        emotional = np.array([False, True, False, True, True])
        pairs = build_pairs(np.arange(10.0).reshape(5, 2), emotional, Config(n_similar=1))
        assert pairs.ordered.tolist() == [[1, 0], [1, 2], [3, 0], [3, 2], [4, 0], [4, 2]]
        assert pairs.similar.tolist() in ([[0, 2]], [[2, 0]])

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParamsError, match="seed must be >= 0"):
            build_pairs(np.zeros((2, 1)), [True, False], Config(seed=-1))

    def test_n_similar_above_cap_rejected(self):
        # The message test_cli's test_n_similar_above_cap_is_1 pins.
        with pytest.raises(InvalidParamsError,
                           match=re.escape("n_similar must be in [0, 10000], got 10001")):
            Config(n_similar=MAX_ORDERED_PAIRS + 1)

    def test_singleton_class_gets_no_similar_pairs(self):
        emotional = [True, False, False]
        pairs = build_pairs(np.zeros((3, 1)), emotional, Config(n_similar=4, seed=0))
        # the emotional side cannot form within-class pairs
        assert np.all(pairs.similar >= 1)


class TestObjective:
    def test_two_pairs_at_zero(self):
        features = np.array([[0.0], [2.0]])
        pairs = PairSets(np.array([[1, 0], [1, 0]]), np.empty((0, 2)), features)
        assert objective(np.zeros(1), pairs, Config(ranker_c=1.0)) == 2.0

    def test_no_pairs_is_ridge_only(self):
        pairs = PairSets(np.empty((0, 2)), np.empty((0, 2)), np.zeros((2, 3)))
        w = np.array([1.0, 2.0, 2.0])
        assert objective(w, pairs, Config(ranker_c=1.0)) == 4.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            objective(np.zeros(2), _toy_pairs(), Config(ranker_c=1.0))

    def test_scores_what_training_minimizes(self):
        # On the raw features the objective at these weights is 44.985, not 44.801.
        pairs = _two_class_pairs(1.0)
        model = train_ranker(pairs)
        assert objective(model.weights, pairs) == model.solver_report["final_objective"]

    def test_features_z_scored(self):
        # Column [0, 2] z-scores to [-1, 1] whatever its scale and shift.
        for scale, shift in ((1.0, 0.0), (3.0, 7.0)):
            pairs = PairSets(np.array([[1, 0]]), np.empty((0, 2)),
                             np.array([[0.0], [2.0]]) * scale + shift)
            assert objective(np.array([0.25]), pairs) == 0.03125 + 0.25

    @pytest.mark.parametrize("c", [np.nan, np.inf, 0.0])
    def test_bad_c_rejected(self, c):
        with pytest.raises(InvalidParamsError, match="ranker_c must be (positive|finite)"):
            objective(np.zeros(1), _toy_pairs(), Config(ranker_c=c))


class TestTrainRanker:
    def test_toy_closed_form(self):
        model = train_ranker(_toy_pairs(), Config(ranker_c=1.0))
        assert model.weights[0] == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert model.solver_report["final_objective"] == pytest.approx(1.0 / 9.0, abs=1e-9)
        assert model.solver_report["converged"]

    def test_toy_closed_form_other_c(self):
        # stationary point of 0.5 w^2 + c (1 - 2 w)^2 is 4c / (1 + 8c)
        for c in (0.25, 1.0, 5.0):
            model = train_ranker(_toy_pairs(), Config(ranker_c=c))
            assert model.weights[0] == pytest.approx(4.0 * c / (1.0 + 8.0 * c), abs=1e-9)

    def test_toy_score_endpoints(self):
        model = train_ranker(_toy_pairs(), Config(ranker_c=1.0))
        features = _toy_pairs().features
        scores = score(model, features)
        assert scores[0] == 0.0
        assert scores[2] == 1.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(11)
        grid = np.linspace(-5.0, 5.0, 1001)
        mesh = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
        for _ in range(5):
            features = rng.normal(0.0, 1.0, (6, 2))
            ordered = np.array([[0, 1], [2, 3]])
            similar = np.array([[4, 5]])
            pairs = PairSets(ordered, similar, features)
            model = train_ranker(pairs, Config(ranker_c=1.0))
            xs = (features - model.feature_mean) / model.feature_std
            d_ord = xs[ordered[:, 0]] - xs[ordered[:, 1]]
            d_sim = xs[similar[:, 0]] - xs[similar[:, 1]]
            hinge = np.maximum(0.0, 1.0 - mesh @ d_ord.T)
            vals = 0.5 * (mesh ** 2).sum(1) + (hinge ** 2).sum(1) + ((mesh @ d_sim.T) ** 2).sum(1)
            assert model.solver_report["final_objective"] <= vals.min() + 1e-3

    def test_duplicated_pairs_match_doubled_c(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(8, 3))
        ordered = np.array([[0, 4], [1, 5], [2, 6]])
        similar = np.array([[0, 1], [4, 5]])
        single = PairSets(ordered, similar, features)
        doubled = PairSets(np.vstack([ordered, ordered]),
                           np.vstack([similar, similar]), features)
        w_double_pairs = train_ranker(doubled, Config(ranker_c=1.0)).weights
        w_double_c = train_ranker(single, Config(ranker_c=2.0)).weights
        np.testing.assert_allclose(w_double_pairs, w_double_c, atol=1e-9)

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(13)
        features = rng.normal(size=(40, 10))
        emotional = [True] * 20 + [False] * 20
        features[:20, 0] += 3.0
        pairs = build_pairs(features, emotional, Config(seed=0))
        model = train_ranker(pairs, Config(ranker_c=1.0))
        history = model.solver_report["objective_history"]
        assert len(history) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
        assert model.solver_report["grad_norm"] <= 1e-6

    def test_failed_line_search_stops_without_stepping(self, monkeypatch):
        # An ascent direction fails every Armijo test; the solver must stop
        # at the current iterate instead of taking the last halved step.
        monkeypatch.setattr(ranker, "_newton_direction", lambda hess, grad: grad)
        rng = np.random.default_rng(13)
        features = rng.normal(size=(20, 4))
        features[:10, 0] += 3.0
        pairs = build_pairs(features, [True] * 10 + [False] * 10, Config(seed=0))
        report = train_ranker(pairs, Config(ranker_c=1.0)).solver_report
        history = report["objective_history"]
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert report["converged"] is False

    def test_stop_reason_line_search(self, monkeypatch):
        monkeypatch.setattr(ranker, "_newton_direction", lambda hess, grad: grad)
        report = train_ranker(_two_class_pairs(3.0), Config(ranker_c=1.0)).solver_report
        assert report["stop_reason"] == "line_search"
        assert report["iterations"] == 0

    def test_stop_reason_gradient(self):
        report = train_ranker(_toy_pairs(), Config(ranker_c=1.0)).solver_report
        assert report["stop_reason"] == "gradient"
        assert report["converged"] is True

    def test_stop_reason_max_iter(self, monkeypatch):
        monkeypatch.setattr(ranker, "DEFAULT_MAX_ITER", 1)
        report = train_ranker(_two_class_pairs(1.0), Config(ranker_c=1.0)).solver_report
        assert report["stop_reason"] == "max_iter"
        assert report["iterations"] == 1
        assert report["converged"] is False

    def test_many_blocks_of_repeated_pairs_match_explicit_oracle(self):
        # More ordered pairs than one Gram block, drawn with replacement so
        # pairs repeat and every row sits in many of them; overlapping
        # classes keep most pairs active at the optimum.
        rng = np.random.default_rng(17)
        features = rng.normal(size=(50, 6))
        features[:25, 0] += 0.5
        ordered = np.column_stack([rng.integers(0, 25, 2600), rng.integers(25, 50, 2600)])
        first = rng.integers(0, 50, 700)
        similar = np.column_stack([first, (first + rng.integers(1, 50, 700)) % 50])
        pairs = PairSets(ordered, similar, features)
        assert np.unique(ordered, axis=0).shape[0] < ordered.shape[0]
        c = 0.3
        model = train_ranker(pairs, Config(ranker_c=c))
        w = model.weights
        assert model.solver_report["final_objective"] == objective(w, pairs, Config(ranker_c=c))
        xs = (features - model.feature_mean) / model.feature_std
        d_ord = xs[ordered[:, 0]] - xs[ordered[:, 1]]
        d_sim = xs[similar[:, 0]] - xs[similar[:, 1]]
        margins = d_ord @ w
        active = margins < 1.0
        assert 0 < active.sum() < active.size
        grad = w - 2.0 * c * (d_ord[active].T @ (1.0 - margins[active])) \
            + 2.0 * c * (d_sim.T @ (d_sim @ w))
        assert np.linalg.norm(grad) <= 1e-6

    def test_memory_stays_bounded_on_criterion_3_problem(self):
        # 600 x 384 features with 10000 ordered and 5000 similar pairs: the
        # pair-difference matrices alone would take 46 MB.
        rng = np.random.default_rng(30303)
        features = rng.normal(0.0, 1.0, (600, 384))
        features[:300, 0] += 4.0
        pairs = build_pairs(features, [True] * 300 + [False] * 300, Config(seed=1))
        assert pairs.ordered.shape[0] == 10000
        tracemalloc.start()
        try:
            train_ranker(pairs, Config(ranker_c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_matches_blocked_gram_solver_on_benchmark_shape(self, monkeypatch):
        for seed, iterations in enumerate(BLOCKED_GRAM_ITERATIONS):
            pairs = _benchmark_shaped_pairs(seed)
            got = train_ranker(pairs).solver_report
            with monkeypatch.context() as patched:
                patched.setattr(ranker, "_pair_gram", _blocked_pair_gram)
                want = train_ranker(pairs).solver_report
            assert got["iterations"] == want["iterations"] == iterations
            assert got["stop_reason"] == want["stop_reason"] == "gradient"
            np.testing.assert_allclose(got["objective_history"], want["objective_history"],
                                       rtol=1e-12, atol=0.0)

    def test_separable_classes_rank_correctly(self):
        rng = np.random.default_rng(14)
        dim = 384
        emo = rng.normal(0.0, 1.0, (60, dim))
        emo[:, 0] += 4.0
        neu = rng.normal(0.0, 1.0, (60, dim))
        features = np.vstack([emo, neu])
        emotional = [True] * 60 + [False] * 60
        pairs = build_pairs(features, emotional, Config(seed=0))
        model = train_ranker(pairs, Config(ranker_c=1.0))
        xs = (features - model.feature_mean) / model.feature_std
        margins = (xs[pairs.ordered[:, 0]] - xs[pairs.ordered[:, 1]]) @ model.weights
        assert np.mean(margins > 0.0) >= 0.99

    def test_standardization_makes_scores_affine_invariant(self):
        rng = np.random.default_rng(15)
        features = rng.normal(size=(30, 5))
        features[:15, 1] += 2.0
        emotional = [True] * 15 + [False] * 15
        pairs_a = build_pairs(features, emotional, Config(seed=1))
        pairs_b = build_pairs(features * 3.0 + 7.0, emotional, Config(seed=1))
        model_a = train_ranker(pairs_a, Config(ranker_c=1.0))
        model_b = train_ranker(pairs_b, Config(ranker_c=1.0))
        sa = score(model_a, features)
        sb = score(model_b, features * 3.0 + 7.0)
        np.testing.assert_allclose(sa, sb, rtol=0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           arrays(np.float64, 5, elements=st.floats(0.1, 10.0)),
           arrays(np.float64, 5, elements=st.floats(-100.0, 100.0)))
    def test_scores_invariant_under_column_scale_and_shift(self, seed, scale, shift):
        # Scales stay well above STD_FLOOR, so standardization undoes them.
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(30, 5))
        features[:15, 1] += 2.0
        moved = features * scale + shift
        emotional = [True] * 15 + [False] * 15
        config = Config(ranker_c=1.0, seed=1)
        model_a = train_ranker(build_pairs(features, emotional, config), config)
        model_b = train_ranker(build_pairs(moved, emotional, config), config)
        np.testing.assert_allclose(score(model_a, features), score(model_b, moved),
                                   rtol=0.0, atol=1e-9)

    def test_no_ordered_pairs_rejected(self):
        pairs = PairSets(np.empty((0, 2)), np.array([[0, 1]]), np.zeros((2, 2)))
        with pytest.raises(InvalidParamsError, match="training needs at least one ordered pair"):
            train_ranker(pairs)

    def test_non_finite_rejected(self):
        features = np.array([[0.0], [np.inf]])
        pairs = PairSets(np.array([[1, 0]]), np.empty((0, 2)), features)
        with pytest.raises(NonFiniteError):
            train_ranker(pairs)

    @pytest.mark.parametrize("column, message", [
        (np.array([1e308, -1e308, 1e308, -1e308]), "mean 0.0, std inf"),
        (np.full(4, 1e308), "mean inf"),
    ], ids=["std", "mean"])
    def test_overflowing_column_named(self, column, message):
        # Finite features whose standardization overflows stop before any Newton step.
        features = np.array([[0.0, 1.0, 0.0, 2.0], [1.0, 0.0, 1.0, 0.0],
                             [0.0, 2.0, 0.0, 1.0], [1.0, 1.0, 1.0, 3.0]])
        features[:, 2] = column
        features[:, 3] = 1e308
        pairs = PairSets(np.array([[1, 0], [3, 2]]), np.array([[0, 2]]), features)
        with pytest.raises(NonFiniteError, match=f"feature column 2 overflows.*{message}"):
            train_ranker(pairs)

    def test_bad_c_rejected(self):
        with pytest.raises(InvalidParamsError):
            train_ranker(_toy_pairs(), Config(ranker_c=0.0))

    @pytest.mark.parametrize("c", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(InvalidParamsError, match="ranker_c must be (positive|finite)"):
            train_ranker(_toy_pairs(), Config(ranker_c=c))


def _score_row(model, x):
    """One feature vector's intensity from its own dot product: the oracle for score."""
    raw = float(model.weights @ ((x - model.feature_mean) / model.feature_std))
    span = model.attr_max - model.attr_min
    if span <= 0.0:
        return 0.5
    return float(np.clip((raw - model.attr_min) / span, 0.0, 1.0))


@st.composite
def _trained_cases(draw, dims=st.integers(1, 32)):
    """A ranker trained on a drawn two-class problem, its pairs, and eight rows
    mixed from two training rows each."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, dim = draw(st.integers(2, 12)), draw(dims)
    features = rng.normal(size=(2 * n, dim))
    features[:n, 0] += rng.uniform(0.0, 3.0)
    pairs = build_pairs(features, [True] * n + [False] * n, Config(seed=0))
    first, second = rng.integers(0, 2 * n, size=(2, 8))
    t = rng.uniform(size=(8, 1))
    return train_ranker(pairs), pairs, t * features[first] + (1.0 - t) * features[second]


def _spans_unit_interval(scores):
    return scores.min() == 0.0 and scores.max() == 1.0


class TestScoreMatchesRowOracle:
    @settings(max_examples=100, deadline=None)
    @given(_trained_cases())
    def test_matrix_scores_match_oracle_and_hit_training_extremes(self, case):
        model, pairs, mixed = case
        for x in (pairs.features, mixed):
            oracle = [_score_row(model, row) for row in x]
            np.testing.assert_allclose(score(model, x), oracle, rtol=0.0, atol=1e-15)
        if model.attr_max > model.attr_min:
            assert _spans_unit_interval(score(model, pairs.features))

    def test_row_oracle_misses_training_extremes_for_some_draw(self):
        # Its dot products sum in another order than the training product.
        def misses(case):
            model, pairs, _ = case
            return model.attr_max > model.attr_min and not _spans_unit_interval(
                np.array([_score_row(model, row) for row in pairs.features]))

        find(_trained_cases(), misses, settings=settings(database=None, deadline=None))

    @settings(max_examples=200, deadline=None)
    @given(_trained_cases(dims=st.integers(0, 16).map(lambda k: 2 * k + 1)),
           st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_training_rows_score_as_alone_among_other_rows(self, case, above, below, seed):
        model, pairs, _ = case
        x = pairs.features
        extra = np.random.default_rng(seed).normal(size=(above + below, x.shape[1]))
        among = score(model, np.vstack([extra[:above], x, extra[above:]]))
        among = among[above:above + x.shape[0]]
        assert among.tobytes() == score(model, x).tobytes()
        if model.attr_max > model.attr_min:
            assert _spans_unit_interval(among)


class TestScore:
    def _model(self):
        return RankingModel("happy", 1.0, np.array([1.0]), np.array([0.0]),
                            np.array([1.0]), 0.0, 1.0, {})

    def test_clamping(self):
        model = self._model()
        assert score(model, np.array([[2.0], [-1.0], [0.25]])).tolist() == [1.0, 0.0, 0.25]

    def test_degenerate_range_gives_half(self):
        model = self._model()
        model.attr_max = model.attr_min
        assert score(model, np.array([[0.7], [-3.0]])).tolist() == [0.5, 0.5]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            score(self._model(), np.array([[1.0, 2.0]]))
        with pytest.raises(DimensionMismatchError):
            score(self._model(), np.array([1.0]))

    def test_overflowing_column_named(self):
        model = self._model()
        model.feature_std = np.array([1e-8])
        with np.errstate(all="raise"), pytest.raises(
                NonFiniteError, match="feature column 0 overflows"):
            score(model, np.array([[0.5], [1e308]]))

    def test_huge_finite_raw_score_clamps(self):
        model = self._model()
        model.attr_max = 0.5
        with np.errstate(all="raise"):
            assert score(model, np.array([[1e308], [-1e308]])).tolist() == [1.0, 0.0]

    def test_overflowing_raw_score_rejected(self):
        model = RankingModel("happy", 1.0, np.array([1e300, 1e300]), np.zeros(2),
                             np.ones(2), 0.0, 1.0, {})
        with np.errstate(all="raise"), pytest.raises(
                NonFiniteError, match="raw score of row 1 overflows"):
            score(model, np.array([[0.0, 1.0], [1e10, 1e10]]))


class TestPersistence:
    def _trained(self):
        rng = np.random.default_rng(16)
        features = rng.normal(size=(20, 4))
        features[:10, 2] += 2.5
        emotional = [True] * 10 + [False] * 10
        return train_ranker(build_pairs(features, emotional, Config(seed=0)),
                            Config(ranker_c=1.5), emotion="sad"), features

    def test_round_trip_exact(self, tmp_path):
        model, features = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.emotion == "sad"
        assert back.c == 1.5
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.feature_mean, model.feature_mean)
        np.testing.assert_array_equal(back.feature_std, model.feature_std)
        assert back.attr_min == model.attr_min
        assert back.attr_max == model.attr_max
        np.testing.assert_array_equal(score(back, features), score(model, features))

    def test_stop_reason_round_trips(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert model.solver_report["stop_reason"] == "gradient"
        assert load_model(path).solver_report == model.solver_report

    @pytest.mark.parametrize("field, index, value, error", [
        ("weights", 1, float("nan"), NonFiniteError),
        ("feature_mean", 0, float("inf"), NonFiniteError),
        ("feature_std", 2, float("nan"), NonFiniteError),
        ("feature_std", 3, 0.0, InvalidParamsError),
        ("feature_std", 0, -1.0, InvalidParamsError),
        ("attr_min", None, float("-inf"), NonFiniteError),
        ("attr_max", None, float("nan"), NonFiniteError),
        ("attr_min", None, 1e6, InvalidParamsError),
    ])
    def test_unusable_model_rejected(self, tmp_path, field, index, value, error):
        model, _ = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        if index is None:
            payload[field] = value
        else:
            payload[field][index] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(error):
            load_model(path)

    def test_schema_fields_present(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"version", "emotion", "C", "weights", "feature_mean",
                                "feature_std", "attr_min", "attr_max", "solver_report"}
        assert payload["version"] == 1
        assert len(payload["weights"]) == 4

    def test_wrong_version_rejected(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match="expected schema version 1, got 99"):
            load_model(path)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1, "emotion": "sad"}))
        with pytest.raises(ParseError, match="malformed model payload"):
            load_model(path)
