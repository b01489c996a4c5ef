"""Low-level descriptors, deltas, functionals, and the 384-d vector."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emorank.dsp import Waveform
from emorank.errors import DimensionMismatchError, InvalidParamsError, ParseError
from emorank.features import (
    FUNCTIONAL_NAMES,
    LLD_COLUMNS,
    N_FEATURES,
    _climb_to_peak,
    compute_llds,
    delta,
    energy_contour,
    extract_feature_vector,
    feature_index_map,
    frame_rms,
    frame_zcr,
    functionals,
    pitch_contour,
    read_features_csv,
    write_features_csv,
)

F = len(FUNCTIONAL_NAMES)
N_CONTOURS = 2 * len(LLD_COLUMNS)
# functionals against the per-column loop: third and fourth powers are
# products instead of `**`, and the regression terms come from one
# matrix-vector product instead of per-column dot products (at most 7.6e-13
# relative and 2.7e-12 absolute on the 120 utterances of the seed-0 corpus).
FUNCTIONALS_RTOL = 1e-10
FUNCTIONALS_ATOL = 1e-12
# These come from the same reductions in the same order, so they are exact.
BITWISE_FUNCTIONALS = ("mean", "stddev", "min", "rel_min_pos", "max", "rel_max_pos",
                       "range")


def _col(name):
    return FUNCTIONAL_NAMES.index(name)


def _column_functionals(col):
    """One contour's twelve functionals, a loop reference for functionals."""
    n = col.size
    imin = int(np.argmin(col))
    imax = int(np.argmax(col))
    cmin = col[imin]
    cmax = col[imax]
    mean = float(col.mean())
    rel_min = imin / (n - 1) if n > 1 else 0.0
    rel_max = imax / (n - 1) if n > 1 else 0.0
    std = float(col.std())
    # A contour whose deviations underflow (std == 0) counts as constant.
    if cmax == cmin or std == 0.0:
        return [mean, 0.0, 0.0, 0.0, cmin, rel_min, cmax, rel_max,
                float(cmax - cmin), mean, 0.0, 0.0]
    z = (col - mean) / std
    skew = float(np.mean(z ** 3))
    kurt = float(np.mean(z ** 4)) - 3.0
    t = np.arange(n, dtype=np.float64)
    t_centered = t - t.mean()
    slope = float(t_centered @ (col - mean) / (t_centered @ t_centered)) if n > 1 else 0.0
    offset = mean - slope * t.mean()
    resid = col - (offset + slope * t)
    mse = float(np.mean(resid * resid))
    return [mean, std, skew, kurt, cmin, rel_min, cmax, rel_max,
            float(cmax - cmin), offset, slope, mse]


def _climb_loop(corr, first):
    """Per-frame peak climb, the loop reference for _climb_to_peak."""
    best = np.empty(corr.shape[0], dtype=np.int64)
    for f in range(corr.shape[0]):
        k = int(first[f])
        while k + 1 < corr.shape[1] and corr[f, k + 1] > corr[f, k]:
            k += 1
        best[f] = k
    return best


def _zcr_sign_product(frames):
    """Zero-crossing rate from products of +/-1 signs, the reference for frame_zcr."""
    if frames.shape[1] < 2:
        return np.zeros(frames.shape[0])
    signs = np.where(frames >= 0.0, 1.0, -1.0)
    flips = np.sum(signs[:, 1:] * signs[:, :-1] < 0.0, axis=1)
    return flips / (frames.shape[1] - 1)


@st.composite
def _contour_matrices(draw):
    """(n_frames, 32) contours: plain, constant, near-constant, |x| ~ 1e4, ties."""
    n = draw(st.integers(1, 60))
    x = draw(arrays(np.float64, (n, N_CONTOURS),
                    elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    kinds = draw(st.lists(st.sampled_from(["plain", "constant", "near_constant",
                                           "large_offset", "large_scale", "ties"]),
                          min_size=N_CONTOURS, max_size=N_CONTOURS))
    level = draw(st.floats(-1e4, 1e4, allow_subnormal=False))
    for c, kind in enumerate(kinds):
        if kind == "constant":
            x[:, c] = level
        elif kind == "near_constant":
            x[:, c] = level + 1e-9 * x[:, c]
        elif kind == "large_offset":
            x[:, c] += np.copysign(1e4, level)
        elif kind == "large_scale":
            x[:, c] *= 1e4
        elif kind == "ties":
            x[:, c] = np.round(2.0 * x[:, c])
    return x


@st.composite
def _spread_contours(draw):
    """A contour on a grid of 1/8 whose range is at least 1.

    Grid values shift exactly and stay distinct under scaling, so extremum
    positions do not move by rounding.
    """
    n = draw(st.integers(2, 60))
    col = draw(arrays(np.float64, n, elements=st.integers(-80, 80).map(lambda v: v / 8.0)))
    col[draw(st.integers(0, n - 1))] = col.max() + 1.0
    return col


def _assert_functionals_close(got, expected, magnitude):
    """Within 1e-9 relative, or 1e-9 absolute in each functional's unit.

    A contour of this magnitude gives the unit of mean, spread, extrema and
    regression terms, its square that of the MSE; the rest are unitless.
    """
    units = {"mean": magnitude, "stddev": magnitude, "min": magnitude, "max": magnitude,
             "range": magnitude, "lr_offset": magnitude, "lr_slope": magnitude,
             "lr_mse": magnitude * magnitude}
    atol = 1e-9 * np.array([units.get(name, 1.0) for name in FUNCTIONAL_NAMES])
    bad = np.abs(got - expected) > 1e-9 * np.abs(expected) + atol
    assert not bad.any(), [(FUNCTIONAL_NAMES[i], got[i], expected[i]) for i in np.flatnonzero(bad)]


class TestFrameStats:
    def test_rms_toy_frame(self):
        np.testing.assert_allclose(
            frame_rms(np.array([[3.0, -4.0]])), [np.sqrt(12.5)]
        )

    def test_zcr_constant_is_zero(self):
        assert frame_zcr(np.full((2, 10), 0.7))[0] == 0.0

    def test_zcr_alternating_is_one(self):
        x = np.tile([1.0, -1.0], 8)[None, :]
        assert frame_zcr(x)[0] == 1.0

    def test_zcr_half(self):
        # one flip over four sample steps
        assert frame_zcr(np.array([[1.0, 1.0, 1.0, -1.0, -1.0]]))[0] == 0.25

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda rows: st.integers(1, 40).flatmap(
        lambda frame_len: arrays(np.float64, (rows, frame_len), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
            st.floats(-1.0, 1.0, allow_subnormal=False))))))
    def test_zcr_bitwise_equals_sign_products(self, frames):
        np.testing.assert_array_equal(frame_zcr(frames), _zcr_sign_product(frames))


class TestPitch:
    @pytest.mark.parametrize("hz", [100.0, 220.0, 330.0, 395.0])
    def test_sine_accuracy(self, sine, hz, framed):
        contour = pitch_contour(*framed(sine(hz=hz, amp=0.6)))
        voiced = contour.f0_hz[contour.voiced]
        assert voiced.size > 50
        assert np.max(np.abs(voiced - hz)) < 0.5

    def test_silence_unvoiced(self, framed):
        contour = pitch_contour(*framed(Waveform(np.zeros(8000), 16000)))
        assert not contour.voiced.any()
        np.testing.assert_array_equal(contour.f0_hz, 0.0)

    def test_silent_prefix_unvoiced(self, sine, framed):
        tone = sine(dur_s=0.5, amp=0.5).samples
        w = Waveform(np.concatenate([np.zeros(8000), tone]), 16000)
        contour = pitch_contour(*framed(w))
        # frames fully inside the 8000-sample prefix start at <= 7360
        assert not contour.voiced[:46].any()
        assert contour.voiced[50:80].all()

    def test_amplitude_invariance(self, sine, framed):
        a = pitch_contour(*framed(sine(amp=0.6)))
        b = pitch_contour(*framed(sine(amp=0.3)))
        np.testing.assert_array_equal(a.voiced, b.voiced)
        assert np.max(np.abs(a.f0_hz - b.f0_hz)) < 0.1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda rows: st.integers(1, 40).flatmap(
        lambda n_lags: st.tuples(
            arrays(np.float64, (rows, n_lags), elements=st.integers(0, 3).map(float)),
            arrays(np.int64, rows, elements=st.integers(0, n_lags - 1))))))
    @example((np.array([[0.0, 1.0, 2.0], [3.0, 3.0, 3.0]]), np.array([2, 2])))
    def test_peak_climb_bitwise_equals_loop(self, case):
        corr, first = case
        np.testing.assert_array_equal(_climb_to_peak(corr, first), _climb_loop(corr, first))

    def test_voiced_marks_match_zero_f0(self, sine, framed):
        tone = sine(dur_s=0.4).samples
        w = Waveform(np.concatenate([tone, np.zeros(4000), tone]), 16000)
        contour = pitch_contour(*framed(w))
        np.testing.assert_array_equal(contour.voiced, contour.f0_hz > 0.0)


class TestLlds:
    def test_shape_and_columns(self, sine):
        llds = compute_llds(sine())
        assert llds.shape == (98, len(LLD_COLUMNS))
        assert np.all(np.isfinite(llds))

    def test_silence_row_values(self):
        llds = compute_llds(Waveform(np.zeros(8000), 16000))
        assert np.all(llds[:, 0] == 0.0)  # zcr
        assert np.all(llds[:, 1] == 0.0)  # rms
        assert np.all(llds[:, 2] == 0.0)  # f0
        assert np.all(llds[:, 3] == -60.0)  # hnr
        np.testing.assert_allclose(llds[:, 4:], 0.0, atol=1e-9)  # mfcc

    def test_hnr_high_for_pure_tone(self, sine):
        llds = compute_llds(sine(amp=0.6))
        interior = llds[10:-10, 3]
        assert np.all(interior > 20.0)
        assert np.all(interior <= 60.0)


class TestDelta:
    def test_constant_is_zero(self):
        np.testing.assert_array_equal(delta(np.full((7, 3), 2.5)), 0.0)

    def test_ramp_interior_is_one(self):
        ramp = np.arange(10.0)[:, None] * np.ones((1, 2))
        d = delta(ramp)
        np.testing.assert_allclose(d[2:-2], 1.0)
        np.testing.assert_allclose(d[0], 0.5)  # clamped edge

    def test_single_frame_is_zero(self):
        np.testing.assert_array_equal(delta(np.array([[3.0, -1.0]])), 0.0)


class TestFunctionals:
    def _vector_for(self, col):
        values = np.zeros((len(col), len(LLD_COLUMNS)))
        values[:, 0] = col
        return functionals(values, np.zeros_like(values))[:F]

    def test_ramp_column(self):
        stats = self._vector_for(np.array([0.0, 1.0, 2.0, 3.0]))
        assert stats[_col("mean")] == 1.5
        assert stats[_col("stddev")] == pytest.approx(np.sqrt(1.25))
        assert stats[_col("skewness")] == pytest.approx(0.0, abs=1e-12)
        assert stats[_col("kurtosis")] == pytest.approx(-1.36)
        assert stats[_col("min")] == 0.0
        assert stats[_col("rel_min_pos")] == 0.0
        assert stats[_col("max")] == 3.0
        assert stats[_col("rel_max_pos")] == 1.0
        assert stats[_col("range")] == 3.0
        assert stats[_col("lr_offset")] == pytest.approx(0.0, abs=1e-12)
        assert stats[_col("lr_slope")] == pytest.approx(1.0)
        assert stats[_col("lr_mse")] == pytest.approx(0.0, abs=1e-12)

    def test_constant_column(self):
        stats = self._vector_for(np.full(6, 4.25))
        assert stats[_col("mean")] == 4.25
        assert stats[_col("stddev")] == 0.0
        assert stats[_col("skewness")] == 0.0
        assert stats[_col("kurtosis")] == 0.0
        assert stats[_col("range")] == 0.0
        assert stats[_col("lr_slope")] == 0.0
        assert stats[_col("lr_mse")] == 0.0

    def test_single_frame(self):
        stats = self._vector_for(np.array([2.0]))
        assert stats[_col("mean")] == 2.0
        assert stats[_col("rel_min_pos")] == 0.0
        assert stats[_col("rel_max_pos")] == 0.0
        assert stats[_col("lr_offset")] == 2.0

    def test_reversal_behavior(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=31)
        fwd = self._vector_for(col)
        rev = self._vector_for(col[::-1])
        for name in ("mean", "stddev", "skewness", "kurtosis", "min", "max", "range"):
            assert fwd[_col(name)] == pytest.approx(rev[_col(name)], abs=1e-12)
        assert fwd[_col("lr_slope")] == pytest.approx(-rev[_col("lr_slope")], abs=1e-12)
        assert fwd[_col("rel_max_pos")] == pytest.approx(
            1.0 - rev[_col("rel_max_pos")], abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(_contour_matrices())
    def test_matches_column_loop(self, x):
        llds, deltas = x[:, : len(LLD_COLUMNS)], x[:, len(LLD_COLUMNS) :]
        got = functionals(llds, deltas).reshape(N_CONTOURS, F)
        ref = np.array([_column_functionals(x[:, c]) for c in range(N_CONTOURS)])
        np.testing.assert_allclose(got, ref, rtol=FUNCTIONALS_RTOL, atol=FUNCTIONALS_ATOL)
        exact = [_col(name) for name in BITWISE_FUNCTIONALS]
        np.testing.assert_array_equal(got[:, exact], ref[:, exact])

    @settings(max_examples=200, deadline=None)
    @given(_contour_matrices())
    @example(np.vstack([np.full((1, N_CONTOURS), 1e-170), np.zeros((4, N_CONTOURS))]))
    def test_all_finite(self, x):
        # The example's squared deviations underflow, so its std is 0.
        assert np.all(np.isfinite(functionals(x[:, : len(LLD_COLUMNS)],
                                              x[:, len(LLD_COLUMNS) :])))

    @settings(max_examples=200, deadline=None)
    @given(_spread_contours(), st.integers(-800, 800).map(lambda v: v / 8.0))
    def test_shift_moves_location_only(self, col, b):
        base = self._vector_for(col)
        moved = self._vector_for(col + b)
        expected = base.copy()
        for name in ("mean", "min", "max", "lr_offset"):
            expected[_col(name)] += b
        _assert_functionals_close(moved, expected, np.max(np.abs(col)) + abs(b))
        for name in ("rel_min_pos", "rel_max_pos"):
            assert moved[_col(name)] == base[_col(name)]

    @settings(max_examples=200, deadline=None)
    @given(_spread_contours(), st.floats(0.01, 100.0))
    def test_scale_multiplies_by_unit(self, col, a):
        base = self._vector_for(col)
        scaled = self._vector_for(a * col)
        expected = base.copy()
        for name in ("mean", "stddev", "min", "max", "range", "lr_offset", "lr_slope"):
            expected[_col(name)] *= a
        expected[_col("lr_mse")] *= a * a
        _assert_functionals_close(scaled, expected, a * np.max(np.abs(col)))
        for name in ("rel_min_pos", "rel_max_pos"):
            assert scaled[_col(name)] == base[_col(name)]

    def test_frame_count_mismatch(self):
        a = np.zeros((4, len(LLD_COLUMNS)))
        b = np.zeros((5, len(LLD_COLUMNS)))
        with pytest.raises(DimensionMismatchError):
            functionals(a, b)

    @pytest.mark.parametrize("shape", [(4, len(LLD_COLUMNS) - 1), (4,)])
    def test_column_count_mismatch(self, shape):
        with pytest.raises(DimensionMismatchError, match="descriptor columns"):
            functionals(np.zeros(shape), np.zeros((4, len(LLD_COLUMNS))))


class TestFeatureVector:
    def test_length_384(self, sine):
        vec = extract_feature_vector(sine())
        assert vec.shape == (N_FEATURES,)
        assert vec.shape == (384,)
        assert np.all(np.isfinite(vec))

    def test_short_input_still_valid(self):
        vec = extract_feature_vector(Waveform(np.ones(100) * 0.1, 16000))
        assert vec.shape == (384,)
        assert np.all(np.isfinite(vec))

    def test_index_map_layout(self):
        entries = feature_index_map()
        assert len(entries) == 384
        assert entries[0] == {"index": 0, "name": "f000", "column": "zcr",
                              "functional": "mean"}
        assert entries[11]["functional"] == "lr_mse"
        assert entries[12]["column"] == "rms"
        assert entries[192]["column"] == "de_zcr"
        assert entries[383] == {"index": 383, "name": "f383",
                                "column": "de_mfcc12", "functional": "lr_mse"}

    def test_csv_round_trip(self, tmp_path, sine):
        vecs = np.array([extract_feature_vector(sine(hz=h)) for h in (150.0, 250.0)])
        path = tmp_path / "f.csv"
        write_features_csv(["u0", "u1"], vecs, path)
        ids, back = read_features_csv(path)
        assert ids == ["u0", "u1"]
        np.testing.assert_array_equal(vecs, back)

    def test_csv_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        write_features_csv(["u0"], np.zeros((1, N_FEATURES)), path)
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n")
        with pytest.raises(ParseError, match=r"f\.csv:3: duplicate id 'u0'"):
            read_features_csv(path)

    @pytest.mark.parametrize("ids", [[""], ["u0", "u0"], ["a,b"], ["a\nb"]],
                             ids=["empty", "repeated", "comma", "newline"])
    def test_csv_write_rejects_bad_id(self, tmp_path, ids):
        path = tmp_path / "f.csv"
        with pytest.raises(InvalidParamsError):
            write_features_csv(ids, np.zeros((len(ids), N_FEATURES)), path)
        assert not path.exists()

    def test_csv_write_rejects_mismatched_matrix(self, tmp_path):
        path = tmp_path / "f.csv"
        with pytest.raises(DimensionMismatchError):
            write_features_csv(["u0", "u1"], np.zeros((1, N_FEATURES)), path)
        assert not path.exists()

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x0,x1\nu,1,2\n")
        with pytest.raises(ParseError):
            read_features_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "f.csv"
        write_features_csv(["u0", "u1"], np.array([np.zeros(N_FEATURES), np.ones(N_FEATURES)]),
                           path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = bad
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"f\.csv:3: non-finite feature value"):
            read_features_csv(path)

    def test_csv_first_bad_line_reported(self, tmp_path):
        # Faults of every kind on later lines: the error names line 3.
        path = tmp_path / "f.csv"
        write_features_csv([f"u{i}" for i in range(5)],
                           np.array([np.full(N_FEATURES, float(i)) for i in range(5)]), path)
        lines = path.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        rows[1][7] = "x"
        rows[2][7] = "nan"
        rows[3] = rows[3][:-1]
        rows[4][0] = "u0"
        path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        with pytest.raises(ParseError, match=r"f\.csv:3: non-numeric feature value"):
            read_features_csv(path)


class TestFrameEnergy:
    def test_silence_is_zero(self, framed):
        contour = energy_contour(*framed(Waveform(np.zeros(8000), 16000), 25.0)[:2])
        assert contour.shape == (48,)
        np.testing.assert_array_equal(contour, 0.0)

    def test_amplitude_doubling_quadruples(self, sine, framed):
        a = energy_contour(*framed(sine(amp=0.25), 25.0)[:2])
        b = energy_contour(*framed(sine(amp=0.5), 25.0)[:2])
        np.testing.assert_allclose(b, 4.0 * a, rtol=1e-9)

    def test_non_negative(self, framed):
        rng = np.random.default_rng(6)
        contour = energy_contour(*framed(Waveform(rng.normal(0, 0.2, 8000), 16000), 25.0)[:2])
        assert np.all(contour >= 0.0)
