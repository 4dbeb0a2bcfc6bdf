import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptail.errors import OutsideSupportError, ParameterError
from exptail.young import (SupportRegion, check_absolutely_even,
                           check_delta2_seminorm, check_lambda2, delta2_grid,
                           make_bounded_support, make_custom, make_logcosh,
                           make_power, make_quadratic, make_radial)


def _random_pd(rng, d):
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.3 * np.eye(d)


class TestQuadratic:
    def test_identity_2d(self):
        phi = make_quadratic(np.eye(2))
        assert phi.value(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_diag(self):
        phi = make_quadratic(np.diag([2.0, 1.0]))
        assert phi.value(np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_scalar(self):
        phi = make_quadratic([[1.0]])
        assert phi.value(np.array([3.0])) == pytest.approx(4.5)

    def test_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            make_quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_gradient_and_membership(self):
        B = np.array([[2.0, 0.5], [0.5, 1.0]])
        phi = make_quadratic(B)
        x = np.array([[0.3, -0.7]])
        assert np.allclose(phi.grad(x), x @ B)
        assert phi.y_membership == "full"


class TestPower:
    def test_p2_matches_quadratic(self):
        phi = make_power(2.0, 0.5, 2)
        assert phi.value(np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_p4(self):
        phi = make_power(4.0, 1.0, 2)
        assert phi.value(np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_p3(self):
        phi = make_power(3.0, 2.0, 2)
        assert phi.value(np.array([3.0, 4.0])) == pytest.approx(250.0)

    def test_rejects_p_at_most_1(self):
        with pytest.raises(ParameterError):
            make_power(1.0, 1.0, 2)

    def test_membership_flag(self):
        assert make_power(2.0, 1.0, 2).y_membership == "full"
        # singular origin Hessian away from p = 2
        assert make_power(1.5, 1.0, 2).y_membership == "relaxed"
        assert make_power(4.0, 1.0, 2).y_membership == "relaxed"


class TestBoundedSupport:
    def test_zero(self):
        phi = make_bounded_support(1.0, 1.0)
        assert phi.value(np.array([0.0])) == 0.0

    def test_half(self):
        phi = make_bounded_support(1.0, 1.0)
        assert phi.value(np.array([0.5])) == pytest.approx(0.5)

    def test_monotone_divergence(self):
        phi = make_bounded_support(2.0, 1.0)
        vals = [phi.value(np.array([x])) for x in (1.9, 1.99, 1.999)]
        assert vals[0] < vals[1] < vals[2]

    def test_outside_support_raises(self):
        phi = make_bounded_support(1.0, 1.0)
        with pytest.raises(OutsideSupportError):
            phi.value(np.array([1.0]))
        assert phi.value_ext(np.array([1.5])) == math.inf

    def test_support_is_a_radius(self):
        assert not SupportRegion().bounded
        assert SupportRegion(2.0).scaled(3.0) == SupportRegion(6.0)
        assert list(SupportRegion(1.0).contains([[0.6, 0.6], [0.6, 0.9]])) \
            == [True, False]
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError):
                SupportRegion(bad)


class TestRadial:
    def test_recovers_quadratic(self):
        rng = np.random.default_rng(1)
        B = _random_pd(rng, 2)
        phi_r = make_radial(lambda z: 0.5 * np.asarray(z), B,
                            nu_prime=lambda z: 0.5 * np.ones_like(np.asarray(z)))
        phi_q = make_quadratic(B)
        pts = rng.standard_normal((50, 2))
        assert np.allclose(phi_r.value(pts), phi_q.value(pts), rtol=1e-12)

    def test_square_nu(self):
        phi = make_radial(lambda z: np.asarray(z) ** 2, np.eye(2))
        assert phi.value(np.array([1.0, 1.0])) == pytest.approx(4.0)

    def test_cube_nu(self):
        phi = make_radial(lambda z: np.asarray(z) ** 3, np.diag([1.0, 2.0]))
        assert phi.value(np.array([1.0, 1.0])) == pytest.approx(27.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(ParameterError):
            make_radial(lambda z: np.asarray(z) + 1.0, np.eye(2))

    def test_nu_superadditive_on_nonnegatives(self):
        # convex nu with nu(0) = 0 satisfies nu(x) + nu(y) <= nu(x + y)
        rng = np.random.default_rng(7)
        x, y = rng.uniform(0, 10, (2, 1000))
        for nu in (lambda z: z**2, lambda z: z**3, lambda z: 0.5 * z):
            assert np.all(nu(x) + nu(y) <= nu(x + y) + 1e-9)


class TestStructuralInvariants:
    @pytest.mark.parametrize("phi_factory", [
        lambda: make_quadratic(np.array([[2.0, 0.5], [0.5, 1.0]])),
        lambda: make_power(4.0, 1.0, 2),
        lambda: make_power(1.5, 2.0, 2),
        lambda: make_radial(lambda z: np.asarray(z) ** 2, np.eye(2)),
        lambda: make_logcosh(2),
    ])
    def test_even_and_midpoint_convex(self, phi_factory):
        phi = phi_factory()
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1000, phi.dimension))
        y = rng.standard_normal((1000, phi.dimension))
        assert np.allclose(phi.value(x), phi.value(-x), atol=1e-9)
        mid = phi.value(0.5 * (x + y))
        assert np.all(mid <= 0.5 * (phi.value(x) + phi.value(y)) + 1e-9)
        assert phi.value(np.zeros(phi.dimension)) == 0.0


class TestLambda2:
    def test_quadratic_holds(self):
        phi = make_quadratic(np.array([[1.0, 0.2], [0.2, 2.0]]))
        assert check_lambda2(phi, 5000, seed=0).holds

    def test_radial_square_holds(self):
        phi = make_radial(lambda z: np.asarray(z) ** 2, np.eye(2))
        assert check_lambda2(phi, 5000, seed=1).holds

    def test_abs_violates_with_verified_witness(self):
        phi = make_custom(1, lambda x: np.abs(np.asarray(x)[..., 0]))
        res = check_lambda2(phi, 5000, seed=2)
        assert not res.holds
        w = res.witness
        # re-verify the witness arithmetic independently of the checker
        lam = abs(float(w["lam"][0]))
        lhs = w["a"] * lam + w["b"] * lam
        rhs = math.hypot(w["a"], w["b"]) * lam
        assert lhs > rhs

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_pd_quadratics_always_hold(self, seed):
        rng = np.random.default_rng(seed)
        phi = make_quadratic(_random_pd(rng, 2))
        assert check_lambda2(phi, 500, seed=seed).holds

    def test_bounded_support_probes_stay_inside(self):
        phi = make_bounded_support(1.0, 1.0)
        assert check_lambda2(phi, 2000, seed=3).holds


class TestDelta2:
    def test_doubling(self):
        phi = make_quadratic(np.eye(2))
        m = check_delta2_seminorm(phi, 2.0 * np.eye(2))
        assert m == pytest.approx(math.sqrt(2.0), rel=1e-4)

    def test_identity(self):
        phi = make_quadratic(np.eye(2))
        assert check_delta2_seminorm(phi, np.eye(2)) == pytest.approx(1.0, rel=1e-4)

    def test_zero(self):
        phi = make_quadratic(np.eye(2))
        assert check_delta2_seminorm(phi, np.zeros((2, 2))) == 0.0

    def test_d1_probes_are_distinct(self):
        # R^1 has two unit directions: 2 x 21 radii, each probe once
        pts = delta2_grid(1)
        assert len(np.unique(pts, axis=0)) == len(pts) == 42

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 3.0, 10.0])
    def test_scaled_identity(self, alpha):
        phi = make_quadratic(np.eye(2))
        m = check_delta2_seminorm(phi, alpha * np.eye(2))
        assert m == pytest.approx(math.sqrt(alpha), rel=1e-4)


class TestAbsolutelyEven:
    def test_norm_squared_holds(self):
        res = check_absolutely_even(
            lambda x: np.sum(np.atleast_2d(x) ** 2, axis=1), 2, seed=0)
        assert res.holds

    def test_linear_violates(self):
        res = check_absolutely_even(
            lambda x: np.sum(np.atleast_2d(x), axis=1), 2, seed=0)
        assert not res.holds
        assert res.witness is not None
