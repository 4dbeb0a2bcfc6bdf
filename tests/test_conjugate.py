import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptail.conjugate import (ConjugateEvaluator, biconjugate_residual,
                               conjugate, log_reparam, log_reparam_conjugate,
                               ray_inverse)
from exptail.empirical import Gaussian, natural_function, sample
from exptail.errors import ParameterError
from exptail.specs import young_from_spec
from exptail.young import (make_bounded_support, make_custom, make_logcosh,
                           make_power, make_quadratic)


def _random_pd(rng, d):
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.3 * np.eye(d)


def _logcosh_star(Y):
    """Closed form of (sum_j log cosh x_j)* on |y_j| < 1."""
    Y = np.asarray(Y, dtype=float)
    return 0.5 * np.sum((1 + Y) * np.log1p(Y) + (1 - Y) * np.log1p(-Y),
                        axis=-1)


_B2 = np.array([[1.5, 0.3], [0.3, 1.0]])

# name: (phi, half-width of the drawn finite rows, rows mixed into every
# batch (divergent for logcosh, far out for the others), closed form or None)
_BATCH_FAMILIES = {
    "quadratic_d2": (make_quadratic(_B2), 3.0, [[40.0, 40.0]],
                     lambda Y: 0.5 * np.einsum("ij,ij->i", Y,
                                               np.linalg.solve(_B2, Y.T).T)),
    # sup_x (x y - x^4) = 3 (|y| / 4)^(4/3)
    "power4_d1": (make_power(4.0, 1.0, 1), 8.0, [[40.0]],
                  lambda Y: 3.0 * (np.abs(Y[:, 0]) / 4.0) ** (4.0 / 3.0)),
    "logcosh_d1": (make_logcosh(1), 0.95, [[1.5], [-1.2]], _logcosh_star),
    "logcosh_d2": (make_logcosh(2), 0.95, [[40.0, 40.0], [0.5, 1.5]],
                   _logcosh_star),
    "bounded_d1": (make_bounded_support(1.0, 1.0), 5.0, [[40.0]], None),
}


class TestConjugateQuadratic:
    def test_closed_form_random_pd(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            B = _random_pd(rng, d)
            phi = make_quadratic(B)
            ev = ConjugateEvaluator(phi)
            Y = rng.standard_normal((20, d)) * 2.0
            got = ev.values(Y).values
            want = 0.5 * np.einsum("ij,ij->i", Y, np.linalg.solve(B, Y.T).T)
            assert np.allclose(got, want, rtol=1e-8)

    def test_zero_query(self):
        phi = make_quadratic(np.eye(2))
        assert ConjugateEvaluator(phi).value(np.zeros(2)).value == 0.0

    def test_functional_form(self):
        got = conjugate(make_quadratic(np.eye(2)), [1.0, 2.0])
        assert got.value == pytest.approx(2.5, rel=1e-10)

    def test_nonnegative_everywhere(self):
        phi = make_power(4.0, 1.0, 2)
        ev = ConjugateEvaluator(phi)
        rng = np.random.default_rng(0)
        vals = ev.values(rng.standard_normal((30, 2))).values
        assert np.all(vals >= 0.0)


class TestConjugateQuarticExample:
    def test_stationarity_example(self):
        # phi = |x|^4/4 in d=1: sup_x (8x - x^4/4) at x = 2 gives 12
        phi = make_power(4.0, 0.25, 1)
        res = ConjugateEvaluator(phi).value(np.array([8.0]))
        assert res.value == pytest.approx(12.0, rel=1e-9)
        assert res.argmax[0] == pytest.approx(2.0, rel=1e-6)

    def test_dense_grid_oracle(self):
        # brute-force 1-D oracle on a dense grid, independent of the evaluator
        phi = make_power(4.0, 0.25, 1)
        xs = np.linspace(-6, 6, 2_000_001)
        for y in (0.5, 3.0, 8.0):
            oracle = np.max(y * xs - 0.25 * xs**4)
            got = ConjugateEvaluator(phi).value(np.array([y])).value
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-9)


class TestConjugateStructure:
    def test_young_inequality(self):
        phi = make_quadratic(np.array([[1.5, 0.3], [0.3, 1.0]]))
        ev = ConjugateEvaluator(phi)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((40, 2))
        batch = ev.values(Y)
        lhs = np.einsum("ij,ij->i", X, Y)
        rhs = phi.value(X) + batch.values + batch.slack + 1e-9
        assert np.all(lhs <= rhs)

    def test_conjugate_even(self):
        phi = make_power(4.0, 1.0, 2)
        ev = ConjugateEvaluator(phi)
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((15, 2))
        a = ev.values(Y).values
        b = ev.values(-Y).values
        assert np.allclose(a, b, rtol=1e-7, atol=1e-10)

    def test_conjugation_reverses_order(self):
        # B1 <= B2 pointwise phi => conjugates reverse
        B1 = np.eye(2)
        B2 = np.array([[2.0, 0.0], [0.0, 3.0]])
        ev1 = ConjugateEvaluator(make_quadratic(B1))
        ev2 = ConjugateEvaluator(make_quadratic(B2))
        rng = np.random.default_rng(7)
        Y = rng.standard_normal((20, 2))
        assert np.all(ev1.values(Y).values >= ev2.values(Y).values - 1e-10)

    def test_diverged_direction_reported(self):
        # phi = |x| grows linearly: conjugate infinite for |y| > 1
        phi = make_custom(1, lambda x: np.abs(np.asarray(x)[..., 0]))
        res = ConjugateEvaluator(phi).value(np.array([2.0]))
        assert res.diverged
        assert res.escaping_ray is not None and res.escaping_ray[0] > 0

    def test_bounded_conjugate_via_edge(self):
        # logcosh conjugate is finite only on [-1, 1]; at 1 it equals log 2
        phi = make_logcosh(1)
        val = ConjugateEvaluator(phi).value(np.array([1.0]))
        assert not val.diverged
        assert val.value == pytest.approx(math.log(2.0), abs=1e-5)


class TestBatchIndependence:
    """A row's phi* and slack do not depend on the rest of its batch."""

    @pytest.mark.parametrize("family", sorted(_BATCH_FAMILIES))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_row_matches_lone_query(self, family, data):
        phi, span, extra, closed_form = _BATCH_FAMILIES[family]
        coord = st.floats(-span, span, allow_nan=False)
        rows = data.draw(st.lists(st.lists(coord, min_size=phi.dimension,
                                           max_size=phi.dimension),
                                  min_size=1, max_size=4))
        at = data.draw(st.integers(0, len(rows)))
        Y = np.array(rows[:at] + extra + rows[at:], dtype=float)
        ev = ConjugateEvaluator(phi)
        batch = ev.values(Y)
        drawn = [i for i in range(len(Y)) if not at <= i < at + len(extra)]
        assert not np.any(batch.diverged[drawn])
        for i in np.flatnonzero(~batch.diverged):
            alone = ev.value(Y[i])
            tol = 1e-6 * (1.0 + abs(alone.value))
            assert abs(batch.values[i] - alone.value) <= tol
            assert batch.slack[i] <= tol
            if closed_form is not None:
                want = float(closed_form(Y[i:i + 1])[0])
                assert batch.values[i] == pytest.approx(want, abs=tol)
                assert batch.values[i] <= want + 1e-12 * (1.0 + want)

    @pytest.mark.parametrize("source", ["tabulated_natural", "custom_d1",
                                        "custom_d2"])
    def test_gradient_less_row_equals_lone_query(self, source):
        # pattern search stops each row on its own, so a far row in the
        # batch leaves the other rows' bits alone
        if source == "tabulated_natural":
            nat = natural_function(sample(Gaussian([[1.0]]), 20_000, 3))
            phi = nat.tabulated_young()
            Y = np.array([[0.3], [1.1], [40.0], [2.5], [-0.7]])
        elif source == "custom_d1":
            phi = make_custom(1, lambda x: 0.25 * np.asarray(x)[..., 0] ** 4)
            Y = np.array([[0.3], [40.0], [-2.0], [5.0]])
        else:
            phi = make_custom(
                2, lambda x: 0.25 * np.sum(np.asarray(x) ** 2, axis=-1) ** 2)
            Y = np.array([[0.3, -0.2], [40.0, 40.0], [1.5, 2.5], [-4.0, 1.0]])
        assert not phi.has_gradient
        ev = ConjugateEvaluator(phi)
        batch = ev.values(Y)
        for i in range(Y.shape[0]):
            alone = ev.value(Y[i])
            assert batch.values[i] == alone.value
            assert batch.slack[i] == alone.slack
            assert np.array_equal(batch.argmax[i], alone.argmax)

    @pytest.mark.parametrize("spec", ["quadratic{B=[[1,.5],[.5,2]]}",
                                      "radial{nu=pow2,Q=[[1,.2],[.2,1]]}"])
    def test_matrix_product_row_matches_lone_query(self, spec):
        # a source built on a matrix product may round a one-row batch
        # differently, so a row matches its lone query to 1e-12, not bit
        # for bit; the rows run from |y| = 1e-9 to about 150
        phi = young_from_spec(spec)
        angles = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
        Y = (np.geomspace(1e-9, 150.0, 12)[:, None]
             * np.stack([np.cos(angles), np.sin(angles)], axis=1))
        ev = ConjugateEvaluator(phi)
        batch = ev.values(Y)
        for i in range(Y.shape[0]):
            alone = ev.value(Y[i]).value
            assert abs(batch.values[i] - alone) <= 1e-12 * (1.0 + abs(alone))

    def test_logcosh_small_rows_beside_divergent_ones(self):
        # the y of a CLI `conjugate` run: the rows above 1 diverge, and their
        # ever larger search boxes must not coarsen the rows below 1, nor
        # push phi*(1) above its supremum ln 2
        Y = np.arange(0.25, 1.5 + 1e-12, 0.25)[:, None]
        batch = ConjugateEvaluator(make_logcosh(1)).values(Y)
        assert batch.values[0] == pytest.approx(_logcosh_star([0.25]),
                                                rel=1e-12)   # 0.0315839...
        assert batch.slack[0] <= 1e-9
        assert batch.values[3] <= math.log(2.0)
        assert batch.values[3] == pytest.approx(math.log(2.0), rel=1e-12)
        assert list(batch.diverged) == [False] * 4 + [True] * 2

    def test_logcosh_d2_finite_rows_beside_far_row(self):
        # the divergent row (40, 40) must leave the finite rows' grids alone
        Y = np.array([[0.1, 0.2], [0.5, 0.3], [0.9, 0.7], [40.0, 40.0]])
        batch = ConjugateEvaluator(make_logcosh(2)).values(Y)
        assert np.allclose(batch.values[:3], _logcosh_star(Y[:3]), rtol=1e-9)
        assert list(batch.diverged) == [False, False, False, True]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, bad):
        ev = ConjugateEvaluator(make_quadratic(np.eye(2)))
        with pytest.raises(ParameterError):
            ev.values(np.array([[0.5, 0.5], [bad, 0.0]]))


class TestBiconjugate:
    def test_quadratic_residual(self):
        phi = make_quadratic(np.eye(2))
        rng = np.random.default_rng(9)
        probes = rng.standard_normal((100, 2))
        probes *= (3.0 * rng.random(100) / np.linalg.norm(probes, axis=1))[:, None]
        assert biconjugate_residual(phi, probes) <= 1e-4

    def test_power4_residual_and_closed_form(self):
        phi = make_power(4.0, 1.0, 1)
        probes = np.linspace(-3.0, 3.0, 41)[:, None]
        assert biconjugate_residual(phi, probes) <= 1e-4
        # scalar-calculus oracle: (c|x|^p)* = (p-1) (y/(cp))^(q) c / ... check
        # via the conjugate exponent q = 4/3 at a point
        ev = ConjugateEvaluator(phi)
        y = 5.0
        lam_star = (y / 4.0) ** (1.0 / 3.0)
        oracle = y * lam_star - lam_star**4
        assert ev.value(np.array([y])).value == pytest.approx(oracle, rel=1e-8)

    def test_biconjugate_zero(self):
        phi = make_quadratic(np.eye(2))
        assert biconjugate_residual(phi, np.zeros((1, 2))) <= 1e-12


class TestRayInverse:
    def test_quadratic_levels(self):
        phi = make_quadratic([[1.0]])
        for p in (0.5, 1.0, 3.0, 10.0):
            t = ray_inverse(phi, [1.0], p)
            assert t == pytest.approx(math.sqrt(2 * p), rel=1e-9)

    def test_monotone_to_zero(self):
        phi = make_power(4.0, 1.0, 2)
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        ts = [ray_inverse(phi, u, lvl) for lvl in (1e-2, 1e-4, 1e-6)]
        assert ts[0] > ts[1] > ts[2]

    def test_bounded_support_residual(self):
        phi = make_bounded_support(1.0, 1.0)
        t = ray_inverse(phi, [1.0], 10.0)
        assert 0.0 < t < 1.0
        assert phi.value(np.array([t])) == pytest.approx(10.0, rel=1e-10)

    def test_round_trip_identity(self):
        phi = make_quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]))
        rng = np.random.default_rng(2)
        for _ in range(5):
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            lvl = float(rng.uniform(0.1, 20.0))
            t = ray_inverse(phi, u, lvl)
            assert phi.value(t * u) == pytest.approx(lvl, rel=1e-10)

    def test_rejects_bad_level(self):
        with pytest.raises(ParameterError):
            ray_inverse(make_quadratic([[1.0]]), [1.0], 0.0)


class TestLogReparamConjugate:
    def test_quadratic_closed_form(self):
        # Phi(mu) = e^(2mu)/2: sup_mu (r mu - Phi) at mu = ln(r)/2
        phi = make_quadratic([[1.0]])
        for r in (2.0, 4.0, 8.0):
            got = log_reparam_conjugate(phi, r)
            want = 0.5 * r * math.log(r) - 0.5 * r
            assert got == pytest.approx(want, rel=1e-6)

    def test_lower_bound_property(self):
        phi = make_power(4.0, 1.0, 1)
        r = 3.0
        star = log_reparam_conjugate(phi, r)
        for mu in np.linspace(-10, 2, 50):
            assert star >= r * mu - float(phi.value(np.array([math.exp(mu)]))) - 1e-9

    def test_power_moment_growth_exponent(self):
        # psi(r) = r e^(-Phi*(r)/r) grows like r^(1/q), q = p/(p-1)
        p = 4.0
        phi = make_power(p, 1.0, 1)
        rs = np.geomspace(4.0, 512.0, 8)
        psi = np.array([r * math.exp(-log_reparam_conjugate(phi, float(r)) / r)
                        for r in rs])
        slope = np.polyfit(np.log(rs), np.log(psi), 1)[0]
        q = p / (p - 1.0)
        assert slope == pytest.approx(1.0 / q, abs=0.05)

    def test_vector_form_separates_for_quadratic(self):
        phi = make_quadratic(np.eye(2))
        r = np.array([3.0, 5.0])
        got = log_reparam_conjugate(phi, r)
        want = sum(0.5 * rj * math.log(rj) - 0.5 * rj for rj in r)
        assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("k", [2.0, 4.0, 8.0])
    def test_power4_d2_closed_form(self, k):
        # Phi(mu) = (e^(2 mu_1) + e^(2 mu_2))^2 is not separable; on the
        # diagonal r = (k, k) the supremum sits at e^(4 mu) = k / 8
        got = log_reparam_conjugate(make_power(4.0, 1.0, 2), [k, k])
        want = 0.5 * k * math.log(k / 8.0) - 0.5 * k
        assert got == pytest.approx(want, rel=1e-10)

    def test_bounded_support_stays_finite(self):
        phi = make_bounded_support(1.0, 1.0)
        assert math.isfinite(log_reparam_conjugate(phi, 2.0))

    def test_reparam_coordinatewise_monotone(self):
        f = log_reparam(make_quadratic(np.array([[1.0, 0.3], [0.3, 1.0]])))
        rng = np.random.default_rng(4)
        mu = rng.uniform(-3, 1, (200, 2))
        step = rng.uniform(0, 1, (200, 2))
        assert np.all(f(mu + step) >= f(mu) - 1e-12)
