import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from exptail.bounds import (SumSpec, chernov_bound, lower_bound,
                            min_coordinate_bound, phi_bar, phi_bar_function,
                            phi_n, phi_n_function, sum_bound,
                            sum_bound_via_phi_n, sum_norm_pythagoras,
                            transform_norm, uniform_sum_bound,
                            uniform_sum_bound_via_phi_bar)
from exptail.cli import _x_points
from exptail.conjugate import ConjugateEvaluator
from exptail.empirical import (Gaussian, RademacherScaled, SymmetricWeibull,
                               natural_function, sample, sample_sum,
                               tail_function)
from exptail.errors import OutsideSupportError, ParameterError
from exptail.norms import bphi_norm, ray_probe_plan
from exptail.specs import young_from_spec
from exptail.vectors import log_mean_exp, log_mean_exp_se
from exptail.young import (check_lambda2, make_bounded_support, make_custom,
                           make_logcosh, make_power, make_quadratic)

#: the repository root, for the shipped configs
ROOT = Path(__file__).parents[1]


class TestChernovBound:
    def test_d1_gaussian_shape(self):
        tb = chernov_bound(make_quadratic([[1.0]]), 1.0, [2.0])
        assert tb.bound == pytest.approx(math.exp(-2.0), rel=1e-9)
        assert norm.sf(2.0) <= tb.bound

    def test_x_zero(self):
        tb = chernov_bound(make_quadratic(np.eye(2)), 1.0, [0.0, 0.0])
        assert tb.bound == 1.0

    def test_matrix_form(self):
        B = np.array([[2.0, 0.5], [0.5, 1.0]])
        x = np.array([1.0, 1.5])
        tb = chernov_bound(make_quadratic(B), 1.0, x)
        want = math.exp(-0.5 * x @ np.linalg.solve(B, x))
        assert tb.bound == pytest.approx(want, rel=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ParameterError):
            chernov_bound(make_quadratic([[1.0]]), 0.0, [1.0])
        with pytest.raises(ParameterError):
            chernov_bound(make_quadratic([[1.0]]), 1.0, [-1.0])

    def test_rejects_evaluator_of_another_phi(self):
        # phi*(x) for B = 4 is x^2 / 8; an evaluator built for B = 1 would
        # report x^2 / 2, an exponent four times too large (non-conservative)
        phi = make_quadratic([[4.0]])
        other = ConjugateEvaluator(make_quadratic([[1.0]]))
        with pytest.raises(ParameterError):
            chernov_bound(phi, 1.0, [2.0], evaluator=other)
        tb = chernov_bound(phi, 1.0, [2.0], evaluator=ConjugateEvaluator(phi))
        assert tb.exponent == pytest.approx(0.5, rel=1e-9)

    def test_diverged_direction_underflows(self):
        phi = make_logcosh(1)     # conjugate infinite beyond |x| = 1
        tb = chernov_bound(phi, 1.0, [2.0])
        assert tb.diverged and tb.bound == 0.0
        assert tb.escaping_ray is not None


def _verify_suite_grids(spec):
    """The x grids of the verify-suite cases whose phi is ``spec``."""
    suite = json.loads((ROOT / "configs" / "verify_suite.json").read_text())
    phi = young_from_spec(spec)
    return [_x_points(case["x"], phi.dimension) for case in suite["cases"]
            if case["phi"] == spec]


class TestBatchedChernovBound:
    """An (m, d) batch gives m TailBounds, each the lone call's bits."""

    FIELDS = ("bound", "exponent", "slack", "clamped", "diverged")

    def _assert_rows_equal_lone_calls(self, phi, tau, X):
        batch = chernov_bound(phi, tau, X)
        assert isinstance(batch, list) and len(batch) == X.shape[0]
        for x, tb in zip(X, batch):
            lone = chernov_bound(phi, tau, x)
            assert isinstance(lone, type(tb))
            for name in self.FIELDS:
                assert getattr(tb, name) == getattr(lone, name), name
            assert np.array_equal(tb.x, x)
            if lone.escaping_ray is None:
                assert tb.escaping_ray is None
            else:
                assert np.array_equal(tb.escaping_ray, lone.escaping_ray)
        return batch

    @pytest.mark.parametrize("spec", ["quadratic{B=[[1]]}",
                                      "quadratic{B=[[1,0],[0,1]]}"])
    @pytest.mark.parametrize("tau", [1.0, 1.0211847, 0.72])
    def test_verify_suite_grids(self, spec, tau):
        grids = _verify_suite_grids(spec)
        assert grids
        phi = young_from_spec(spec)
        for X in grids:
            self._assert_rows_equal_lone_calls(phi, tau, X)

    def test_logcosh_mixes_finite_and_diverged_rows(self):
        X = np.array([[0.25], [0.5], [2.0], [0.75], [3.0], [0.0]])
        batch = self._assert_rows_equal_lone_calls(make_logcosh(1), 1.0, X)
        assert [tb.diverged for tb in batch] == [False, False, True, False,
                                                 True, False]
        assert all(tb.escaping_ray is not None for tb in batch
                   if tb.diverged)

    def test_rejects_negative_entry_and_wrong_width(self):
        phi = make_quadratic(np.eye(2))
        with pytest.raises(ParameterError):
            chernov_bound(phi, 1.0, np.array([[1.0, 1.0], [1.0, -0.5]]))
        with pytest.raises(ParameterError):
            chernov_bound(phi, 1.0, np.ones((3, 3)))
        with pytest.raises(ParameterError):
            chernov_bound(phi, 1.0, np.ones((0, 3)))

    def test_empty_batch(self):
        assert chernov_bound(make_quadratic(np.eye(2)), 1.0,
                             np.ones((0, 2))) == []

    def test_lone_forms_give_one_bound(self):
        phi = make_quadratic([[1.0]])
        for x in ([2.0], np.array([2.0]), 2.0):
            tb = chernov_bound(phi, 1.0, x)
            assert tb.exponent == pytest.approx(2.0, rel=1e-9)


class TestMinCoordinateBound:
    def test_clamped_at_small_y(self):
        tb = min_coordinate_bound(make_quadratic(np.eye(2)), 1.0, 1.0)
        assert tb.bound == 1.0 and tb.clamped

    def test_y3_dominates_oracle(self):
        tb = min_coordinate_bound(make_quadratic(np.eye(2)), 1.0, 3.0)
        assert tb.bound == pytest.approx(4.0 * math.exp(-9.0), rel=1e-6)
        assert (2 * norm.sf(3.0)) ** 2 <= tb.bound

    def test_tiny_y_clamps(self):
        tb = min_coordinate_bound(make_quadratic(np.eye(2)), 1.0, 1e-9)
        assert tb.bound == 1.0


class TestTransformNorm:
    def test_identity(self):
        Q = np.array([[1.0, 0.3], [0.3, 0.8]])
        phi = make_quadratic(np.eye(2))
        tr = transform_norm(phi, np.eye(2), 1.0, Gaussian(Q).mgf_log())
        base = bphi_norm(Gaussian(Q).mgf_log(), phi)
        assert tr.measured.value == pytest.approx(base.value, rel=1e-6)

    def test_orthogonal_rotation_invariance(self):
        th = 0.6
        O = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]])
        tr = transform_norm(make_quadratic(np.eye(2)), O, 1.0,
                            Gaussian(np.eye(2)).mgf_log())
        assert tr.measured.value == pytest.approx(1.0, rel=1e-4)

    def test_adjoint_transfer_rule(self):
        # ||A xi||_B(phi_A) = ||xi||_B(phi) with phi_A = quadratic(A R A^T);
        # dense directions since the analytic ratio surface is sharply peaked
        rng = np.random.default_rng(31)
        Q = np.array([[1.0, 0.3], [0.3, 0.8]])
        R = np.array([[1.2, -0.2], [-0.2, 1.0]])
        plan = ray_probe_plan(2, n_directions=512, n_radii=3)
        base = bphi_norm(Gaussian(Q).mgf_log(), make_quadratic(R), plan=plan).value
        for _ in range(3):
            A = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
            phiA = make_quadratic(A @ R @ A.T)
            tr = transform_norm(phiA, A, 1.0, Gaussian(Q).mgf_log(), plan=plan)
            assert tr.measured.value == pytest.approx(base, rel=2e-3)

    def test_delta2_product_dominates(self):
        rng = np.random.default_rng(37)
        phi = make_quadratic(np.eye(2))
        mgf = Gaussian(np.eye(2)).mgf_log()
        for _ in range(4):
            A = rng.standard_normal((2, 2))
            tr = transform_norm(phi, A, 1.0, mgf)
            assert tr.consistent
            assert tr.measured.value <= tr.product_bound * 1.05 + 1e-12

    def test_singular_transform_warns(self):
        phi = make_quadratic(np.eye(2))
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        tr = transform_norm(phi, A, 1.0, Gaussian(np.eye(2)).mgf_log())
        assert "degenerate_support" in tr.warnings


class TestSumRules:
    @pytest.fixture(scope="class")
    @staticmethod
    def cert():
        return check_lambda2(make_quadratic(np.eye(2)), 2000, seed=0)

    def test_pythagoras_arithmetic(self, cert):
        phi = make_quadratic(np.eye(2))
        sigma = sum_norm_pythagoras(SumSpec((3.0, 4.0), 2), phi, cert)
        assert sigma == pytest.approx(5.0 / math.sqrt(2.0), rel=1e-12)

    def test_iid_unit_norms_cancel(self, cert):
        phi = make_quadratic(np.eye(2))
        for n in (1, 4, 32):
            sigma = sum_norm_pythagoras(SumSpec(tuple([1.0] * n), n), phi, cert)
            assert sigma == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_sum_measured_equals_sigma(self, cert):
        # gaussian sums stay gaussian: measured norm of S(n) matches sigma(n)=1
        phi = make_quadratic(np.eye(2))
        plan = ray_probe_plan(2, 16, n_radii=10)
        for n in (2, 8):
            s = sample_sum(Gaussian(np.eye(2)), n, 60_000, seed=n)
            est = bphi_norm(natural_function(s), phi, plan=plan)
            assert est.value == pytest.approx(1.0, abs=0.03)

    def test_sum_bound_dominates_gaussian(self, cert):
        phi = make_quadratic([[1.0]])
        cert1 = check_lambda2(phi, 2000, seed=1)
        spec = SumSpec(tuple([1.0] * 16), 16)
        tb = sum_bound(spec, phi, [2.0], cert1)
        assert tb.bound == pytest.approx(math.exp(-2.0), rel=1e-8)
        s = sample_sum(Gaussian([[1.0]]), 16, 50_000, seed=3)
        emp = tail_function(s, [2.0])
        assert emp.probability <= tb.bound

    def test_uniform_variant_iid(self, cert):
        phi = make_quadratic(np.eye(2))
        tb = uniform_sum_bound(1.0, phi, [1.0, 1.0], [1, 2, 4, 8], cert)
        assert tb.ingredients["sigma_sup"] == pytest.approx(1.0, rel=1e-12)


class TestPhiN:
    def test_quadratic_fixed_point(self):
        phi = make_quadratic([[1.0]])
        lam = np.array([1.5])
        for n in (1, 3, 9):
            assert phi_n(phi, n, lam) == pytest.approx(0.5 * 1.5**2, rel=1e-12)
        assert phi_bar(phi, lam[None, :])[0] == pytest.approx(0.5 * 1.5**2,
                                                              rel=1e-12)

    def test_quartic_decreasing_in_n(self):
        phi = make_power(4.0, 1.0, 1)
        lam = np.array([2.0])
        vals = [phi_n(phi, n, lam) for n in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # zero origin curvature: envelope is the n=1 branch
        assert phi_bar(phi, lam[None, :])[0] == pytest.approx(16.0, rel=1e-12)

    def test_support_scaling(self):
        from exptail.young import make_bounded_support
        phi = make_bounded_support(1.0, 1.0)
        with pytest.raises(OutsideSupportError):
            phi_n(phi, 1, np.array([1.5]))
        assert math.isfinite(phi_n(phi, 4, np.array([1.5])))

    def test_sum_mgf_domination_rademacher(self):
        # empirical log-MGF of S(16) <= 16 logcosh(lam/4) + 3 MC width
        reps, n = 100_000, 16
        s = sample_sum(RademacherScaled(1.0, 1), n, reps, seed=8)
        phi = make_logcosh(1)
        lams = np.linspace(-2.0, 2.0, 20)
        for lam in lams:
            t = lam * s.data[:, 0]
            emp = log_mean_exp(t)
            se = log_mean_exp_se(t)
            bound = phi_n(phi, n, np.array([lam]))
            assert emp <= float(bound) + 3.0 * se

    def test_phi_n_function_gradient(self):
        phi = make_quadratic(np.eye(2))
        fn = phi_n_function(phi, 4)
        x = np.array([[0.5, -0.25]])
        assert np.allclose(fn.grad(x), phi.grad(x))
        assert fn.value(x)[0] == pytest.approx(float(phi.value(x)[0]), rel=1e-12)

    @pytest.mark.parametrize("phi", [make_power(4.0, 1.0, 2), make_logcosh(2)],
                             ids=["power4", "logcosh"])
    def test_phi_n_function_gradient_inverse(self, phi):
        # grad phi_n(x) = sqrt(n) grad phi(x / sqrt(n)), so its inverse is
        # sqrt(n) (grad phi)^-1(y / sqrt(n)); logcosh_n diverges past sqrt(n)
        fn = phi_n_function(phi, 4)
        Y = np.array([[0.5, -0.25], [1.9, 1.0], [3.0, 0.1]])
        X, diverged = fn.grad_inverse(Y)
        live = ~diverged
        assert list(live) == [True, True, phi.family == "power"]
        assert np.allclose(fn.grad(X[live]), Y[live], rtol=1e-12)


class TestSumBoundViaPhiN:
    def test_quadratic_matches_sigma_route(self):
        phi = make_quadratic([[1.0]])
        tb = sum_bound_via_phi_n(phi, 16, [2.0])
        assert tb.bound == pytest.approx(math.exp(-2.0), rel=1e-6)

    def test_x_zero(self):
        tb = sum_bound_via_phi_n(make_quadratic([[1.0]]), 4, [0.0])
        assert tb.bound == 1.0

    def test_rademacher_dominates_mc(self):
        phi = make_logcosh(1)
        tb = sum_bound_via_phi_n(phi, 16, [2.0])
        s = sample_sum(RademacherScaled(1.0, 1), 16, 100_000, seed=12)
        emp = tail_function(s, [2.0])
        assert emp.probability - emp.half_width <= tb.bound

    def test_phi_bar_route_is_chernov_on_the_envelope(self):
        phi = make_logcosh(1)
        tb = uniform_sum_bound_via_phi_bar(phi, [1.5])
        assert tb.exponent == chernov_bound(phi_bar_function(phi), 1.0,
                                            [1.5]).exponent
        assert tb.ingredients["route"] == "phi_bar"
        assert tb.ingredients["n_truncation"] == "heuristic"

    def test_phi_bar_envelope_function(self):
        phi = make_power(4.0, 1.0, 1)
        fb = phi_bar_function(phi, n_max=16)
        lam = np.array([[2.0]])
        assert fb.value(lam)[0] == pytest.approx(16.0, rel=1e-12)


class TestLowerBound:
    def test_gaussian_self_consistency(self):
        lb = lower_bound(Gaussian(np.eye(2)), [1.0, 1.0], n_probe=8,
                         reps=40_000, seed=5)
        parts = [lb.component.probability, lb.gaussian_limit.probability,
                 lb.probed_sum.probability]
        width = max(lb.component.half_width, lb.gaussian_limit.half_width,
                    lb.probed_sum.half_width)
        assert max(parts) - min(parts) <= 4.0 * width

    def test_x_zero_octant_mass(self):
        lb = lower_bound(Gaussian(np.eye(2)), [0.0, 0.0], n_probe=4,
                         reps=40_000, seed=6)
        assert lb.value >= 0.25 * (1.0 - 0.05)

    def test_sandwich_with_upper(self):
        phi = make_quadratic(np.eye(2))
        cert = check_lambda2(phi, 2000, seed=7)
        lb = lower_bound(Gaussian(np.eye(2)), [1.2, 1.2], n_probe=16,
                         reps=40_000, seed=7)
        ub = uniform_sum_bound(1.0, phi, [1.2, 1.2], [1, 4, 16], cert)
        assert lb.value <= ub.bound


def _phi_bar_loop(phi, x, ns):
    """The branch-by-branch envelope, kept as the reference."""
    H = phi.hessian_at_origin
    best = 0.5 * np.einsum("...i,ij,...j->...", x, H, x)
    for n in ns:
        best = np.maximum(best, n * phi.value_ext(x / math.sqrt(n)))
    return best


def _weibull_phi(p, scale, d):
    dist = SymmetricWeibull(p, scale, d)
    mgf = dist.mgf_log(lam_max=64.0)
    return make_custom(d, lambda x: mgf(np.atleast_2d(x)),
                       hessian_at_origin=dist.coordinate_variance() * np.eye(d))


class TestStackedEnvelope:
    @pytest.mark.parametrize("make", [
        lambda: make_quadratic([[2.0, 0.3], [0.3, 1.0]]),
        lambda: make_power(4.0, 1.0, 2),
        lambda: make_power(1.5, 0.7, 1),
        lambda: _weibull_phi(1.5, 0.2, 1),
        lambda: _weibull_phi(4.0, 1.0, 2),
        lambda: make_bounded_support(1.0, 1.0),
    ])
    def test_equals_branch_loop(self, make):
        phi = make()
        d = phi.dimension
        x = np.random.default_rng(4).uniform(-6.0, 6.0, (40, d))
        x[0] = 0.0
        ns = [1, 2, 4, 8, 16, 32, 64]
        want = _phi_bar_loop(phi, x, ns)
        assert np.array_equal(phi_bar(phi, x, n_max=64), want)
        fb = phi_bar_function(phi, n_max=64)
        assert np.array_equal(fb.value_ext(x), want)
        assert np.array_equal(fb.value_ext(x.reshape(4, 10, d)),
                              want.reshape(4, 10))
        assert fb.value_ext(x[1]) == want[1]

    @pytest.mark.parametrize("d", [1, 2])
    def test_empirical_natural_function_branches(self, d):
        s = sample(Gaussian(np.eye(d)), 4000, seed=6)
        nat = natural_function(s)
        phi = make_custom(d, nat.evaluate, hessian_at_origin=np.eye(d))
        x = np.random.default_rng(2).uniform(0.0, 2.0, (12, d))
        want = _phi_bar_loop(phi, x, [1, 2, 4, 8])
        got = phi_bar_function(phi, n_max=8).value_ext(x)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(phi_bar(phi, x, n_max=8), want,
                                   rtol=1e-12, atol=0.0)

    def test_bounded_support_has_infinite_branches(self):
        phi = make_bounded_support(1.0, 1.0)
        x = np.array([[0.5], [1.5], [3.0], [7.9]])
        ns = [1, 2, 4, 8, 16, 32, 64]
        branches = np.array([n * phi.value_ext(x / math.sqrt(n)) for n in ns])
        # x = 1.5: branches n <= 2 leave the support, n >= 4 stay finite
        assert np.isinf(branches[:2, 1]).all()
        assert np.isfinite(branches[2:, 1]).all()
        assert np.array_equal(phi_bar(phi, x, n_max=64),
                              _phi_bar_loop(phi, x, ns))
