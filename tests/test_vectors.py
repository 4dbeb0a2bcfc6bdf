import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import exptail
from exptail.vectors import (DIMENSION_CAP, bisect_rows, box_grid,
                             enumerate_sign_vectors, log_cosh, log_mean_exp,
                             quad_form, row_max_abs, row_norm, row_sum,
                             rows_times, sphere_directions)
from exptail.errors import DimensionCapError


class TestEnumerateSignVectors:
    def test_d1_base_case(self):
        out = enumerate_sign_vectors(1)
        assert out.tolist() == [[1.0], [-1.0]]

    def test_d2_fixed_set(self):
        out = enumerate_sign_vectors(2)
        assert out.shape == (4, 2)
        got = {tuple(row) for row in out.tolist()}
        assert got == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_d3_exhaustive(self):
        out = enumerate_sign_vectors(3)
        assert out.shape == (8, 3)
        assert len({tuple(r) for r in out.tolist()}) == 8

    def test_first_element_is_all_ones(self):
        for d in range(1, 7):
            assert np.all(enumerate_sign_vectors(d)[0] == 1.0)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_cardinality_no_duplicates(self, d):
        out = enumerate_sign_vectors(d)
        assert out.shape[0] == 2**d
        assert len({tuple(r) for r in out.tolist()}) == 2**d

    def test_cap(self):
        with pytest.raises(DimensionCapError):
            enumerate_sign_vectors(DIMENSION_CAP + 1)
        with pytest.raises(DimensionCapError):
            enumerate_sign_vectors(0)


class TestLogMeanExp:
    def test_all_equal(self):
        assert log_mean_exp([0.0, 0.0, 0.0]) == 0.0

    def test_mean_of_one_and_three(self):
        got = log_mean_exp([math.log(1.0), math.log(3.0)])
        assert got == pytest.approx(math.log(2.0), rel=1e-14)

    def test_overflow_safe(self):
        # lam=30 on 1e5 normal draws: direct exp overflows float64 at ~709
        rng = np.random.default_rng(0)
        v = 30.0 * rng.standard_normal(100_000) + 800.0
        assert math.isfinite(log_mean_exp(v))
        # oracle at lam=5 where both paths are finite
        w = 5.0 * rng.standard_normal(100_000)
        direct = math.log(np.mean(np.exp(w)))
        assert log_mean_exp(w) == pytest.approx(direct, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_mean_exp([])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=40),
           st.floats(-30, 30))
    @settings(max_examples=80, deadline=None)
    def test_shift_identity(self, vals, c):
        v = np.array(vals)
        lhs = log_mean_exp(v + c)
        rhs = log_mean_exp(v) + c
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_minus_inf_entries_drop_mass(self):
        assert log_mean_exp([-math.inf, 0.0]) == pytest.approx(
            math.log(0.5), rel=1e-12)
        assert log_mean_exp([-math.inf, -math.inf]) == -math.inf


class TestSphereDirections:
    def test_unit_norm_and_deterministic(self):
        a = sphere_directions(3, 40)
        b = sphere_directions(3, 40)
        assert np.array_equal(a, b)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)

    def test_d1_signs(self):
        a = sphere_directions(1, 6)
        assert set(np.unique(a)) == {-1.0, 1.0}


class TestNoScipyAtRuntime:
    def test_import_leaves_scipy_out(self):
        src = str(Path(exptail.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import exptail, exptail.cli, sys; "
                "assert 'scipy' not in sys.modules, 'scipy imported'")
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sphere_directions_match_ndtri_lattice(self, d):
        count = 1000
        g = 1.5
        for _ in range(60):
            g = (1.0 + g) ** (1.0 / (d + 1))
        alpha = g ** -(1.0 + np.arange(d))
        u = ((np.arange(1, count + 1)[:, None]) * alpha[None, :] + 0.5) % 1.0
        z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        ref = z / np.linalg.norm(z, axis=1, keepdims=True)
        assert np.max(np.abs(sphere_directions(d, count) - ref)) <= 4e-15


def _threshold(thr, calls=None):
    """ok(t, rows) of rows that hold from thr[row] on; records each test."""
    thr = np.asarray(thr, dtype=float)

    def ok(t, rows):
        if calls is not None:
            calls.extend(zip(rows.tolist(), t.tolist()))
        return t >= thr[rows]

    return ok


class TestRowBisection:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=6),
           st.sampled_from([1e-3, 1e-6, 1e-10]))
    def test_brackets_each_threshold(self, thr, rel_tol):
        ok = _threshold(thr)
        rows = np.arange(len(thr))
        lo, hi = bisect_rows(ok, np.zeros(len(thr)), 1.0, rel_tol, 1e7)
        assert np.all(ok(hi, rows)) and not np.any(ok(lo, rows))
        assert np.all(hi - lo <= rel_tol * hi)

    def test_ends_are_tested_once(self):
        # row 0 brackets [2, 4]; row 1 starts at hi = lo, which has failed,
        # so its first test of hi is at 4; row 2 holds at lo
        calls = []
        lo, hi = bisect_rows(_threshold([3.0, 3.0, 1.0], calls),
                             [2.0, 2.0, 2.0], [4.0, 2.0, 4.0], 1e-6, 1e3)
        assert len(calls) == len(set(calls))
        assert [t for r, t in calls if r == 2] == [2.0]
        assert [t for r, t in calls if r == 1][:3] == [2.0, 4.0, 3.0]
        assert np.all(lo[:2] < 3.0) and np.all(3.0 <= hi[:2])
        assert (lo[2], hi[2]) == (2.0, 2.0)

    def test_row_past_cap_is_inf(self):
        ok = _threshold([100.0, 100.0, 3.0])
        lo, hi = bisect_rows(ok, np.zeros(3), [1.0, 1.0, 5.0], 1e-6,
                             [50.0, 128.0, 1.0])
        assert hi[0] == np.inf and lo[0] == 0.0
        assert lo[1] < 100.0 <= hi[1] < 128.0
        # hi as given is tested even above the cap
        assert lo[2] < 3.0 <= hi[2]

    def test_subnormal_threshold_ends_at_adjacent_floats(self):
        # rel_tol * hi underflows to 0 there, so a row stops once no float
        # lies between lo and hi
        tiny = 5e-324
        calls = []
        ok = _threshold([tiny, 3 * tiny], calls)

        def bounded(t, rows):
            assert len(calls) < 10_000, "the bisection does not end"
            return ok(t, rows)

        lo, hi = bisect_rows(bounded, np.zeros(2), 1.0, 1e-6, 1e3)
        assert list(lo) == [0.0, 2 * tiny] and list(hi) == [tiny, 3 * tiny]

    def test_row_holding_at_lo(self):
        calls = []
        lo, hi = bisect_rows(_threshold([1.0], calls), 2.0, 8.0, 1e-6, 1e3)
        assert (lo[0], hi[0]) == (2.0, 2.0)
        assert calls == [(0, 2.0)]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=6))
    def test_row_alone_equals_row_in_batch(self, thr):
        lo, hi = bisect_rows(_threshold(thr), np.zeros(len(thr)), 1.0, 1e-6,
                             1e3)
        for i, t in enumerate(thr):
            one = bisect_rows(_threshold([t]), 0.0, 1.0, 1e-6, 1e3)
            assert (one[0][0], one[1][0]) == (lo[i], hi[i])


class TestBoxGrid:
    def test_axes_and_order(self):
        pts = box_grid([0.0, -1.0], [1.0, 1.0], 3)
        assert pts.shape == (9, 2)
        assert pts[:3].tolist() == [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]
        assert pts[-1].tolist() == [1.0, 1.0]

    def test_scalar_bound_broadcasts(self):
        assert np.array_equal(box_grid(-2.0, np.full(3, 2.0), 5),
                              box_grid(np.full(3, -2.0), np.full(3, 2.0), 5))


class TestLogCosh:
    def test_matches_direct_formula(self):
        x = np.linspace(-20.0, 20.0, 81)
        assert np.allclose(log_cosh(x), np.log(np.cosh(x)), rtol=1e-14,
                           atol=1e-15)
        assert log_cosh(np.zeros(1))[0] == 0.0

    def test_no_overflow(self):
        big = np.array([-1e4, 1e4])
        assert np.allclose(log_cosh(big), 1e4 - math.log(2.0), rtol=1e-15)

    def test_exp_floor_keeps_every_bit(self):
        # the clamp only skips numpy's slow path for underflowing exp
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.uniform(-1e3, 1e3, 500_000),
                            rng.uniform(-1e300, 1e300, 499_994),
                            [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300]])
        a = np.abs(x)
        with np.errstate(under="ignore"):
            unclamped = a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)
        assert np.array_equal(log_cosh(x), unclamped)


def _same_bits(got, want):
    """Equal shapes, NaN at the same places and every other entry with the
    same bits (so -0.0 differs from 0.0); a NaN's sign is not a value."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint64),
                               want[~nan].view(np.uint64)))


_ROW_REFERENCES = [
    (row_sum, lambda a: np.sum(a, axis=-1)),
    (row_max_abs, lambda a: np.max(np.abs(a), axis=-1)),
    (row_norm, lambda a: np.linalg.norm(a, axis=-1)),
]


class TestRowHelpers:
    @pytest.mark.parametrize("d", range(1, DIMENSION_CAP + 1))
    @pytest.mark.parametrize("helper, reference", _ROW_REFERENCES,
                             ids=["sum", "max_abs", "norm"])
    def test_bits_of_numpy_reduction(self, helper, reference, d):
        rng = np.random.default_rng(d)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e300,
                            -1e300, 1.7e308, 1e-300, 5e-324, 3e-310, 1.0])
        mags = np.exp(rng.uniform(-690.0, 690.0, (5000, d)))
        batches = [
            rng.standard_normal((5000, d)),
            rng.standard_normal((5000, d)) * mags,
            rng.choice(special, size=(5000, d)),
            np.full((3, d), -0.0),
            np.zeros((0, d)),
            rng.standard_normal((3, 7, d)),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for a in batches:
                assert _same_bits(helper(a), reference(a)), a.shape

    def test_one_point_gives_a_scalar(self):
        x = np.array([3.0, -4.0])
        assert row_sum(x) == -1.0 and np.ndim(row_sum(x)) == 0
        assert row_norm(x) == 5.0 and row_max_abs(x) == 4.0


class TestRowProducts:
    @pytest.mark.parametrize("d", range(1, DIMENSION_CAP + 1))
    def test_rows_equal_rows_of_a_larger_gemm(self, d):
        # the d x d products of the quadratic and radial families: at any
        # batch size, down to one row and none, a row has the bits of its
        # row in a 300-row gemm (at d = 1, of an exact product)
        rng = np.random.default_rng(d)
        A = rng.standard_normal((d, d))
        A = A + A.T
        X = rng.standard_normal((300, d)) * np.exp(rng.uniform(-5, 5, (300, 1)))
        big = X @ A
        quad = row_sum(X * big)
        for m in (0, 1, 2, 3, 17, 300):
            got = rows_times(X[:m], A)
            assert got.shape == (m, d) and np.array_equal(got, big[:m])
            assert np.array_equal(quad_form(X[:m], A), quad[:m])
        for i in range(0, 300, 7):
            assert np.array_equal(rows_times(X[i], A), big[i])
            assert np.array_equal(rows_times(X[i:i + 1], A), big[i:i + 1])
            assert quad_form(X[i], A) == quad[i]
            assert np.ndim(quad_form(X[i], A)) == 0
        stacked = X[:24].reshape(4, 6, d)
        assert np.array_equal(rows_times(stacked, A), big[:24].reshape(4, 6, d))
        assert np.array_equal(quad_form(stacked, A), quad[:24].reshape(4, 6))
