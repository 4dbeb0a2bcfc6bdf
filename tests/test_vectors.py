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
from exptail.vectors import (DIMENSION_CAP, LogValue, bisect_monotone,
                             box_grid, coordinatewise_product, double_until,
                             enumerate_sign_vectors, log_cosh, log_mean_exp,
                             octant_contains, octants_containing,
                             sphere_directions)
from exptail.errors import DimensionCapError, ShapeMismatchError


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


class TestCoordinatewiseProduct:
    def test_identity_sign_vector(self):
        assert coordinatewise_product([1, 1], [3.0, -2.0]).tolist() == [3.0, -2.0]

    def test_sign_flip(self):
        assert coordinatewise_product([-1, 1], [3.0, -2.0]).tolist() == [-3.0, -2.0]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            coordinatewise_product([1, -1], [1.0, 2.0, 3.0])

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_involution(self, d, seed):
        rng = np.random.default_rng(seed)
        eps = rng.choice([-1.0, 1.0], size=d)
        x = rng.standard_normal(d)
        back = coordinatewise_product(eps, coordinatewise_product(eps, x))
        assert np.array_equal(back, x)


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


class TestOctants:
    def test_membership_definition(self):
        assert octant_contains([1, -1], [2.0, -3.0])
        assert not octant_contains([1, -1], [2.0, 3.0])

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonzero_point_in_exactly_one(self, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        while np.any(x == 0.0):
            x = rng.standard_normal(d)
        assert octants_containing(x).shape[0] == 1

    def test_zero_coordinates_double_membership(self):
        # k zero coordinates -> exactly 2^k octants
        x = np.array([1.0, 0.0, -2.0, 0.0])
        assert octants_containing(x).shape[0] == 4
        assert octants_containing(np.zeros(3)).shape[0] == 8


class TestLogValue:
    def test_round_trip(self):
        for x in (3.5, -2.25, 0.0, 1e-300):
            assert LogValue.from_value(x).value() == pytest.approx(x, rel=1e-15)

    def test_product_avoids_overflow(self):
        a = LogValue(500.0, 1)
        b = LogValue(400.0, -1)
        prod = a * b
        assert prod.sign == -1
        assert prod.log_magnitude == 900.0
        assert prod.value() == -math.inf  # saturates only on conversion

    def test_zero_absorbs(self):
        z = LogValue.from_value(0.0)
        assert (z * LogValue(10.0, 1)).sign == 0


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


class TestMonotoneSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-6, 1e6), st.sampled_from([1e-3, 1e-6, 1e-10]))
    def test_bisect_brackets_threshold(self, thr, rel_tol):
        def ok(t):
            return t >= thr

        hi = double_until(ok, 1.0, 1e7)
        assert ok(hi)
        lo, hi = bisect_monotone(ok, 0.0, hi, rel_tol)
        assert ok(hi) and not ok(lo)
        assert hi - lo <= rel_tol * hi

    def test_bisect_keeps_lo_and_passing_hi(self):
        calls = []

        def ok(t):
            calls.append(t)
            return t >= 3.0

        assert bisect_monotone(ok, 2.0, 2.0, 1e-6) == (2.0, 2.0)
        assert calls == []
        lo, hi = bisect_monotone(ok, 2.0, 4.0, 1e-6)
        assert calls[0] == 3.0 and 2.0 not in calls and 4.0 not in calls
        assert lo < 3.0 <= hi

    def test_double_until_cap_is_not_found(self):
        assert double_until(lambda t: t >= 100.0, 1.0, 50.0) == math.inf
        assert double_until(lambda t: t >= 100.0, 1.0, 128.0) == 128.0
        assert double_until(lambda t: True, 5.0, 1.0) == 5.0


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
