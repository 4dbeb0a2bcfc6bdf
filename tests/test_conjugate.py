import importlib
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exptail.bounds import phi_bar_function
from exptail.conjugate import (ConjugateEvaluator, _chunked_scores,
                               bb_ascent, biconjugate_residual, conjugate,
                               line_search, log_reparam,
                               log_reparam_conjugate, pattern_search,
                               ray_inverse)
from exptail.empirical import (Gaussian, SymmetricWeibull, natural_function,
                               sample)
from exptail.errors import ParameterError
from exptail.specs import young_from_spec
from exptail.vectors import box_grid, row_max_abs, row_sum
from exptail.young import (SupportRegion, make_bounded_support, make_custom,
                           make_logcosh, make_power, make_quadratic,
                           make_radial)


def _random_pd(rng, d):
    A = rng.standard_normal((d, d))
    return A @ A.T + 0.3 * np.eye(d)


def _logcosh_star(Y):
    """Closed form of (sum_j log cosh x_j)* on |y_j| < 1."""
    Y = np.asarray(Y, dtype=float)
    return 0.5 * np.sum((1 + Y) * np.log1p(Y) + (1 - Y) * np.log1p(-Y),
                        axis=-1)


def _without_grad_inverse(phi):
    """phi with its gradient but without ``grad_inverse``, so that its rows
    take the ray-seeded or gridded path."""
    return make_custom(phi.dimension, phi.value_ext, support=phi.support,
                       gradient=phi.grad,
                       hessian_at_origin=phi.hessian_at_origin)


# the module, which the package's conjugate() function shadows
conjugate_module = importlib.import_module("exptail.conjugate")

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


def _power_star(p, Y):
    """Closed form of (|x|^p)* : (p - 1) (|y| / p)^(p / (p - 1))."""
    return (p - 1.0) * (np.linalg.norm(Y, axis=-1) / p) ** (p / (p - 1.0))


class TestFirstBoxFromPhi:
    """A row whose maximizer is far inside its |y|-sized box still reaches
    the supremum: the first box comes from where phi crosses |y| r along
    the ray of y. (The project's pytest settings turn a RuntimeWarning,
    such as an overflow in the ascent, into an error.)"""

    @pytest.mark.parametrize("spec, p", [("power{p=4,c=1,d=1}", 4.0),
                                         ("power{p=6,c=1,d=1}", 6.0),
                                         ("radial{nu=pow3,Q=[[1]]}", 6.0)])
    @pytest.mark.parametrize("y", [1e-6, 300.0, 1e4])
    def test_closed_form(self, spec, p, y):
        # power p = 6 at y = 300 has its maximizer at 2.19 in a box of
        # half-width 1024, and used to report 0.458 for 546.68
        Y = np.array([[y], [-y]])
        got = ConjugateEvaluator(young_from_spec(spec)).values(Y).values
        assert got == pytest.approx(_power_star(p, Y), rel=1e-10)

    def test_closed_form_off_axis_d2(self):
        Y = np.array([[300.0, -2.0]])
        got = ConjugateEvaluator(make_power(4.0, 1.0, 2)).values(Y).values
        assert got == pytest.approx(_power_star(4.0, Y), rel=1e-10)


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
        # line search (d = 1) and pattern search (d = 2) stop each row on
        # its own, so a far row in the batch leaves the other rows' bits
        # alone
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

    @pytest.mark.parametrize("spec", [
        "quadratic{B=[[1,.5],[.5,2]]}", "radial{nu=pow2,Q=[[1,.2],[.2,1]]}",
        "quadratic{B=[[1.5,.5,.5,.5,.5],[.5,1.5,.5,.5,.5],[.5,.5,1.5,.5,.5],"
        "[.5,.5,.5,1.5,.5],[.5,.5,.5,.5,1.5]]}",
        "radial{nu=pow2,Q=[[2,.3,0,.1],[.3,1,.2,0],[0,.2,1.5,.4],"
        "[.1,0,.4,1]]}"])
    def test_matrix_product_row_matches_lone_query(self, spec):
        # the quadratic and radial families round a row the same in any
        # batch, so a row matches its lone query bit for bit; the rows run
        # from |y| = 1e-9 to about 150 (the d = 5 B is that of
        # configs/conjugate_quadratic_d5.json)
        phi = young_from_spec(spec)
        if phi.dimension == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
            Y = (np.geomspace(1e-9, 150.0, 12)[:, None]
                 * np.stack([np.cos(angles), np.sin(angles)], axis=1))
        else:
            U = np.random.default_rng(3).standard_normal((200, phi.dimension))
            Y = (np.geomspace(1e-9, 150.0, 200)[:, None]
                 * U / np.linalg.norm(U, axis=1, keepdims=True))
        ev = ConjugateEvaluator(phi)
        batch = ev.values(Y)
        for i in range(Y.shape[0]):
            alone = ev.value(Y[i])
            assert batch.values[i] == alone.value
            assert batch.slack[i] == alone.slack
            assert np.array_equal(batch.argmax[i], alone.argmax)

    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_scores_do_not_depend_on_rows_sharing_a_box(self, d):
        # a lone row's scores round as in a chunk of many rows
        X = box_grid(-4.0, np.full(d, 4.0), 33)
        phiX = 0.5 * np.sum(X * X, axis=1)
        Y = np.abs(np.random.default_rng(1).standard_normal((40, d))) * 1.37
        val, idx = _chunked_scores(Y, X, phiX)
        for i in range(Y.shape[0]):
            lone_val, lone_idx = _chunked_scores(Y[i:i + 1], X, phiX)
            assert lone_val[0] == val[i] and lone_idx[0] == idx[i]

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

    def test_score_blocks_match_one_block(self, monkeypatch):
        # 1000 rows over 4225 grid points take four blocks of 236 rows and a
        # last one of 56, all scored in one reused buffer
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((1000, 2)) * 3.0
        X = box_grid(-4.0, np.full(2, 4.0), 65)
        phiX = make_quadratic(_B2).value_ext(X)
        scores = Y @ X.T - phiX[None, :]
        want_idx = np.argmax(scores, axis=1)
        monkeypatch.setattr(conjugate_module, "_SCORE_BLOCK", 1_000_000)
        val, idx = conjugate_module._chunked_scores(Y, X, phiX)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(val, scores[np.arange(1000), want_idx])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected(self, bad):
        ev = ConjugateEvaluator(make_quadratic(np.eye(2)))
        with pytest.raises(ParameterError):
            ev.values(np.array([[0.5, 0.5], [bad, 0.0]]))


class TestWarmStart:
    def test_converged_flags(self):
        rng = np.random.default_rng(4)
        Y = rng.standard_normal((50, 2)) * 3.0
        assert np.all(ConjugateEvaluator(make_quadratic(_B2)).values(Y)
                      .converged)
        Y = np.array([[0.25], [0.9], [1.5], [-1.2]])
        batch = ConjugateEvaluator(make_logcosh(1)).values(Y)
        assert list(batch.converged) == [True, True, False, False]

    def test_gradient_less_converged_flags(self):
        # a one-dimensional source without a gradient is polished by
        # line search
        phi = make_custom(1, lambda x: np.asarray(x)[..., 0] ** 2)
        Y = np.array([[0.5], [-2.0]])
        batch = ConjugateEvaluator(phi).values(Y)
        assert np.all(batch.converged)
        assert np.allclose(batch.values, Y[:, 0] ** 2 / 4.0, rtol=1e-9)
        lin = make_custom(1, lambda x: np.abs(np.asarray(x)[..., 0]))
        batch = ConjugateEvaluator(lin).values(np.array([[0.5], [2.0]]))
        assert list(batch.converged) == [True, False]


class TestDivergedRowsSkipPolish:
    @pytest.mark.parametrize("phi", [
        make_logcosh(1),
        make_custom(1, lambda x: np.abs(np.asarray(x)[..., 0]))],
        ids=["bb_ascent", "line_search"])
    def test_only_live_rows_are_polished(self, phi, monkeypatch):
        search = "bb_ascent" if phi.has_gradient else "line_search"
        polished = []
        inner = getattr(conjugate_module, search)

        def counted(f, x, *args):
            polished.append(x.shape[0])
            return inner(f, x, *args)

        monkeypatch.setattr(conjugate_module, search, counted)
        ev = ConjugateEvaluator(phi)
        Y = np.array([[1.5], [0.5], [-3.0], [0.25]])
        batch = ev.values(Y)
        assert polished == [2]
        assert list(batch.diverged) == [True, False, True, False]
        assert list(batch.converged) == [False, True, False, True]
        assert np.array_equal(batch.values[[0, 2]], [math.inf, math.inf])
        assert np.array_equal(batch.slack[[0, 2]], [0.0, 0.0])
        assert batch[0].escaping_ray[0] == 1.0
        assert batch[2].escaping_ray[0] == -1.0
        # the live rows are those of a batch without the diverged ones
        alone = ev.values(Y[[1, 3]])
        assert np.array_equal(batch.values[[1, 3]], alone.values)
        assert np.array_equal(batch.argmax[[1, 3]], alone.argmax)

    def test_all_rows_diverged(self):
        batch = ConjugateEvaluator(make_logcosh(1)).values([[2.0], [-2.0]])
        assert np.all(batch.diverged) and not np.any(batch.converged)
        assert np.all(np.isinf(batch.values))


_BQ = np.array([[1.0, 0.5], [0.5, 1.0]])


def _quadratic_ascent(B, Y, x):
    """``bb_ascent`` on (x, y) - phi(x) for phi = 0.5 (B x, x), from ``x``
    with a first step of 1e-3; returns its result and the rows of each
    objective call."""
    phi = make_quadratic(B)
    calls = []

    def f(rows, X):
        calls.append(rows.copy())
        return row_sum(Y[rows] * X) - phi.value(X), Y[rows] - phi.grad(X)

    out = bb_ascent(f, x, np.full(x.shape[0], 1e-3), 1.0 + row_max_abs(Y),
                    lambda X: X)
    return out, calls


def _count_objective_calls(monkeypatch):
    """The row count of each objective call ``bb_ascent`` makes."""
    calls = []
    inner = conjugate_module.bb_ascent

    def counted(f, *args):
        def g(rows, X):
            calls.append(rows.size)
            return f(rows, X)
        return inner(g, *args)

    monkeypatch.setattr(conjugate_module, "bb_ascent", counted)
    return calls


class TestBBAscentStationaryStart:
    """A row that starts at a stationary point stops after its start and
    one probe of length cell, when that probe does not gain."""

    def test_exact_maximizers_cost_two_calls(self):
        Y = np.random.default_rng(2).standard_normal((6, 2)) * 3.0
        x = np.linalg.solve(_BQ, Y.T).T
        (best_x, best_v, _, converged), calls = _quadratic_ascent(_BQ, Y, x)
        assert len(calls) == 2
        assert np.all(converged)
        assert np.array_equal(best_x, x)
        start = row_sum(Y * x) - make_quadratic(_BQ).value(x)
        assert np.array_equal(best_v, start)

    def test_mixed_rows_equal_lone_runs(self):
        Y = np.random.default_rng(5).standard_normal((6, 2)) * 3.0
        x = np.linalg.solve(_BQ, Y.T).T
        x[1::2] = x[1::2] * 0.9 + 0.3           # off the optimum
        batch, calls = _quadratic_ascent(_BQ, Y, x)
        for i in range(Y.shape[0]):
            alone, _ = _quadratic_ascent(_BQ, Y[i:i + 1], x[i:i + 1])
            for part, lone in zip(batch, alone):
                assert np.array_equal(part[i], lone[0])
            n_calls = sum(i in rows for rows in calls)
            assert (n_calls == 2) == (i % 2 == 0)
        assert np.all(batch[3])

    def test_flat_objective_keeps_climbing_after_a_gaining_probe(
            self, monkeypatch):
        # |g| = 9e-10 is below 1e-9 (1 + |y|), but the start is 4e-11 below
        # phi*(y), far more than the slack |g| cell of a row stopped there;
        # the probe gains, so the row climbs on to the closed form
        calls = _count_objective_calls(monkeypatch)
        B, y = 1e-8, 1e-6
        x0 = (y - 9e-10) / B
        closed = y * y / (2.0 * B)
        assert closed - (y * x0 - 0.5 * B * x0 * x0) > 1e-11
        value, argmax, slack, converged = ConjugateEvaluator(
            _without_grad_inverse(make_quadratic([[B]])))._polish_rows(
                np.array([[y]]), np.array([[x0]]), None, np.full(1, 1e-3))
        assert len(calls) > 2
        assert converged[0]
        assert closed - slack[0] <= value[0] <= closed
        assert argmax[0, 0] == pytest.approx(y / B, rel=1e-12)

    def test_perturbed_start_stays_within_its_slack(self, monkeypatch):
        # the probe of length cell loses, so the row stops at its start,
        # 2.4e-14 below phi*(y) and inside its slack of about 8.5e-13
        calls = _count_objective_calls(monkeypatch)
        B = 1e-5 * _BQ
        Y = 1e-6 * np.array([[1.0, -2.0]])
        g = np.array([[6e-10, 6e-10]])
        x0 = np.linalg.solve(B, (Y - g).T).T
        closed = 0.5 * float(Y[0] @ np.linalg.solve(B, Y[0]))
        value, argmax, slack, converged = ConjugateEvaluator(
            _without_grad_inverse(make_quadratic(B)))._polish_rows(
                Y, x0, None, np.full(1, 1e-3))
        assert calls == [1, 1]
        assert converged[0]
        assert np.array_equal(argmax, x0)
        assert closed - slack[0] <= value[0] < closed


#: 3-D matrices whose leading blocks give the d = 1, 2 and 3 sources
_B3 = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.2, 0.3, 1.5]])
_Q3 = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 2.0]])


def _seeded_source(name, d):
    """(phi, half-width of the drawn rows, closed form or None)."""
    if name == "quadratic":
        B = _B3[:d, :d]
        return (make_quadratic(B), 3.0, lambda Y: 0.5 * np.einsum(
            "ij,ij->i", Y, np.linalg.solve(B, Y.T).T))
    if name.startswith("power"):
        # the crossing (1.5 |y|)^2 of p = 1.5 passes h / 2 beyond |y| = 1
        p = float(name[5:])
        return (make_power(p, 1.0, d), 0.5 if p < 2.0 else 3.0,
                lambda Y: _power_star(p, Y))
    if name == "logcosh":
        return make_logcosh(d), 0.95, _logcosh_star
    return (make_radial(lambda z: np.asarray(z) ** 2, _Q3[:d, :d],
                        nu_prime=lambda z: 2.0 * np.asarray(z)), 3.0, None)


def _grid_path(ev, Y):
    """Today's grid stage and polish on every row, seeded or not."""
    return ev._polish(Y, *ev._grid_stage(Y, ev._first_box(Y)[0]))


class TestSeededColdPath:
    """On the whole space, a source with a gradient starts each row with a
    ray crossing at r <= h / 2 at r y / (2 |y|) and polishes it; the grid
    serves the rest."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("name", ["quadratic", "power1.5", "power3",
                                      "power4", "logcosh", "radial"])
    def test_matches_grid_path(self, name, d):
        phi, span, closed_form = _seeded_source(name, d)
        assert phi.has_gradient
        Y = np.random.default_rng(d).uniform(-span, span, (40, d))
        ev = ConjugateEvaluator(phi)
        r = ev._first_box(Y)[1]
        assert np.count_nonzero(np.isfinite(r)) >= 10
        got = ev.values(Y)
        want = _grid_path(ev, Y)
        assert np.all(got.converged) and not np.any(got.diverged)
        tol = 1e-12 * (1.0 + np.abs(want.values))
        assert np.all(got.values >= want.values - tol)
        assert np.allclose(got.values, want.values, rtol=1e-10, atol=0.0)
        if closed_form is not None:
            exact = closed_form(Y)
            assert np.all(got.values <= exact + 1e-12 * (1.0 + exact))
        for i in range(Y.shape[0]):
            alone = ev.value(Y[i])
            assert got.values[i] == alone.value
            assert got.slack[i] == alone.slack
            assert np.array_equal(got.argmax[i], alone.argmax)

    def test_logcosh_at_one_is_at_most_ln2(self):
        ev = ConjugateEvaluator(make_logcosh(1))
        for Y in ([[1.0]], [[1.0], [0.25], [-1.0]]):
            got = ev.values(np.array(Y)).values
            assert got[0] <= math.log(2.0)
            assert got[0] >= math.log(2.0) - 1e-12

    def test_no_grid_when_every_row_is_seeded(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("box_grid called")

        monkeypatch.setattr(conjugate_module, "box_grid", no_grid)
        # |y| <= 0.9, so each crossing 2 |y| of phi = |x|^2 / 2 lies below
        # h / 2 = 2
        rng = np.random.default_rng(11)
        Y = rng.standard_normal((500, 2))
        Y *= 0.9 * rng.uniform(0.0, 1.0, (500, 1)) / np.linalg.norm(
            Y, axis=1, keepdims=True)
        got = ConjugateEvaluator(make_quadratic(np.eye(2))).values(Y)
        assert np.all(got.converged)
        assert np.allclose(got.values, 0.5 * np.sum(Y * Y, axis=1),
                           rtol=1e-12, atol=0.0)

    def test_one_bisection_per_row(self, monkeypatch):
        # a seeded row, a row with no crossing below h / 2 and a row of 0:
        # one bisection over all three rows serves the seeds and the boxes
        calls = []
        inner = conjugate_module.bisect_rows

        def counted(ok, lo, hi, *args):
            calls.append(np.broadcast_arrays(lo, hi)[0].size)
            return inner(ok, lo, hi, *args)

        monkeypatch.setattr(conjugate_module, "bisect_rows", counted)
        phi = _without_grad_inverse(make_logcosh(1))
        got = ConjugateEvaluator(phi).values(np.array([[0.25], [1.5], [0.0]]))
        assert calls == [3]
        assert list(got.diverged) == [False, True, False]
        assert got.values[2] == 0.0

    @pytest.mark.parametrize("phi", [
        _without_grad_inverse(make_bounded_support(1.0, 1.0)),
        make_custom(1, lambda x: 0.25 * np.asarray(x)[..., 0] ** 4)],
        ids=["bounded", "gradient_less"])
    def test_other_sources_keep_the_grid(self, phi, monkeypatch):
        grids = []
        inner = conjugate_module.box_grid

        def counted(*args):
            grids.append(args)
            return inner(*args)

        monkeypatch.setattr(conjugate_module, "box_grid", counted)
        Y = np.array([[0.3], [2.0], [-1.5]])
        ev = ConjugateEvaluator(phi)
        got = ev.values(Y)
        assert grids
        want = _grid_path(ev, Y)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.argmax, want.argmax)


def _decimal_logcosh_star(y):
    """(sum_j log cosh x_j)*(y) at 40 digits, the double y taken exactly, on
    |y_j| <= 1 (0 log 0 = 0)."""
    with localcontext() as ctx:
        ctx.prec = 40
        one, total = Decimal(1), Decimal(0)
        for yj in map(Decimal, y):
            total += sum(t * t.ln() for t in (one + yj, one - yj) if t)
        return total / 2


def _decimal_quadratic_star(B, y):
    """(1/2) y^T B^-1 y for a 2-by-2 B at 40 digits, B and y taken exactly."""
    with localcontext() as ctx:
        ctx.prec = 40
        (a, b), (_, c) = [[Decimal(float(v)) for v in row] for row in B]
        y1, y2 = Decimal(y[0]), Decimal(y[1])
        return (c * y1 * y1 - 2 * b * y1 * y2 + a * y2 * y2) / (
            2 * (a * c - b * b))


def _count_grid_rows(monkeypatch):
    """The row count of each ``_grid_stage`` call, appended as it is made."""
    rows = []
    inner = ConjugateEvaluator._grid_stage

    def counted(self, Y, h):
        rows.append(Y.shape[0])
        return inner(self, Y, h)

    monkeypatch.setattr(ConjugateEvaluator, "_grid_stage", counted)
    return rows


_B_CORR = {d: np.eye(d) + 0.3 * np.ones((d, d)) for d in (2, 4, 8, 16)}


class TestExactSeeds:
    """A source with ``grad_inverse`` starts each row at its maximizer
    (grad phi)^-1(y), and ``bb_ascent`` confirms it."""

    @pytest.mark.parametrize("d", [4, 8, 16])
    @pytest.mark.parametrize("name", ["quadratic", "power4", "logcosh"])
    def test_closed_forms_with_no_row_gridded(self, name, d, monkeypatch):
        gridded = _count_grid_rows(monkeypatch)
        rng = np.random.default_rng(d)
        if name == "quadratic":
            B = _B_CORR[d]
            phi, Y = make_quadratic(B), rng.standard_normal((1000, d))
            exact = 0.5 * np.einsum("ij,ij->i", Y,
                                    np.linalg.solve(B, Y.T).T)
        elif name == "power4":
            phi, Y = make_power(4.0, 1.0, d), rng.standard_normal((1000, d))
            exact = _power_star(4.0, Y)
        else:
            phi, Y = make_logcosh(d), rng.uniform(-0.95, 0.95, (1000, d))
            exact = _logcosh_star(Y)
        got = ConjugateEvaluator(phi).values(Y)
        assert sum(gridded) == 0
        assert np.all(got.converged) and not np.any(got.diverged)
        assert np.allclose(got.values, exact, rtol=1e-12, atol=1e-15)

    def test_logcosh_d8_rows_past_one_diverge_along_their_axes(
            self, monkeypatch):
        gridded = _count_grid_rows(monkeypatch)
        Y = np.random.default_rng(8).uniform(-1.1, 1.1, (1000, 8))
        out = np.abs(Y) > 1.0
        far = np.any(out, axis=1)
        assert 100 < np.count_nonzero(far) < 900
        got = ConjugateEvaluator(make_logcosh(8)).values(Y)
        assert sum(gridded) == 0
        assert np.array_equal(got.diverged, far)
        assert np.all(np.isinf(got.values[far]))
        assert np.all(got.slack[far] == 0.0) and not np.any(got.converged[far])
        assert np.allclose(got.values[~far], _logcosh_star(Y[~far]),
                           rtol=1e-12, atol=1e-15)
        for i in np.flatnonzero(far)[:20]:
            ray = got[i].escaping_ray
            axes = np.where(out[i], np.sign(Y[i]), 0.0)
            assert np.allclose(ray, axes / np.linalg.norm(axes))
            # the objective grows along the ray: (ray, y) > |ray|_1
            assert ray @ Y[i] > np.sum(np.abs(ray))

    def test_power_near_one_is_finite(self):
        # p = 1.01 at y = 3: the maximizer (3 / 1.01)^100 is about 5.6e47,
        # past the grid's 60 doublings
        Y = np.array([[0.5], [1.0], [3.0]])
        got = ConjugateEvaluator(make_power(1.01, 1.0, 1)).values(Y)
        assert np.all(got.converged) and not np.any(got.diverged)
        with localcontext() as ctx:
            ctx.prec = 40
            p = Decimal(1.01)           # the double nearest 1.01
            for i, y in enumerate(Y[:, 0]):
                closed = (Decimal("0.01")
                          * (Decimal(y) / Decimal("1.01")) ** 101)
                assert abs(Decimal(got.values[i]) - closed) <= (
                    closed * Decimal("1e-12"))
                # phi* of the phi evaluated, whose p is 8.9e-18 above 1.01
                exact = (p - 1) * (Decimal(y) / p) ** (p / (p - 1))
                assert Decimal(got.values[i] - got.slack[i]) <= exact
                assert abs(Decimal(got.values[i]) - exact) <= Decimal(
                    got.slack[i])

    @pytest.mark.parametrize("name", ["logcosh", "quadratic"])
    def test_value_minus_slack_is_a_lower_bound(self, name):
        # at the maximizer itself, the rounded objective may land a few ulp
        # above the supremum; value - slack may not
        rng = np.random.default_rng(26)
        if name == "logcosh":
            phi, Y = make_logcosh(2), rng.uniform(-0.95, 0.95, (1000, 2))
            exact = [_decimal_logcosh_star(y) for y in Y]
        else:
            B = _B_CORR[2]
            phi, Y = make_quadratic(B), rng.standard_normal((1000, 2)) * 3.0
            exact = [_decimal_quadratic_star(B, y) for y in Y]
        got = ConjugateEvaluator(phi).values(Y)
        assert np.all(got.converged)
        for v, s, e in zip(got.values, got.slack, exact):
            assert Decimal(v - s) <= e
            assert abs(Decimal(v) - e) <= Decimal(s)

    def test_exact_rows_cost_two_objective_calls(self, monkeypatch):
        # the start's value is bb_ascent's first evaluation, not a call of
        # its own
        calls = []
        inner = ConjugateEvaluator._objective

        def counted(self, Y, X):
            calls.append(Y.shape[0])
            return inner(self, Y, X)

        monkeypatch.setattr(ConjugateEvaluator, "_objective", counted)
        Y = np.random.default_rng(3).standard_normal((50, 2))
        got = ConjugateEvaluator(make_quadratic(_BQ)).values(Y)
        assert calls == [50, 50] and np.all(got.converged)

    @pytest.mark.parametrize("Y", [
        [[1.0], [-1.0], [0.5]],
        [[1.0] + [0.5] * 7, [-1.0, 1.0] + [0.3] * 6, [1.0] * 8],
    ], ids=["d1", "d8"])
    def test_logcosh_rows_at_the_scale_are_seeded(self, Y, monkeypatch):
        # |y_j| = s has no maximizer; x_j = 20 sign(y_j) / s has a zero
        # gradient in float64 and is less than an ulp below the supremum,
        # whose term for that axis is log 2
        gridded = _count_grid_rows(monkeypatch)
        Y = np.array(Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ConjugateEvaluator(make_logcosh(Y.shape[1])).values(Y)
        assert sum(gridded) == 0
        assert np.all(got.converged) and not np.any(got.diverged)
        for v, s, y in zip(got.values, got.slack, Y):
            exact = _decimal_logcosh_star(y)
            assert Decimal(v - s) <= exact
            assert abs(Decimal(v) - exact) <= Decimal(s)

    @pytest.mark.parametrize("phi, Y", [
        (make_power(1.01, 1.0, 1), [[1e4], [2.0]]),
        (make_quadratic(np.eye(2)), [[1e200, 1e200], [1.0, 2.0]]),
    ], ids=["power_overflow", "quadratic_huge"])
    def test_unresolved_seeds_take_the_other_path(self, phi, Y):
        # a non-finite seed (no maximizer, or an overflow) or a seed whose
        # objective is not finite is solved as without grad_inverse
        Y = np.array(Y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ConjugateEvaluator(phi).values(Y)
            want = ConjugateEvaluator(_without_grad_inverse(phi)).values(Y)
        assert np.array_equal(got.values[0], want.values[0])
        assert np.array_equal(got.argmax[0], want.argmax[0])
        assert got.slack[0] == want.slack[0]
        assert got.converged[0] == want.converged[0]


def _sequential_pattern_search(f, x, v, cell, project, cap):
    """Reference: the pattern search that calls ``f`` once per sign of an
    axis, the - probe starting from wherever the + probe left the row."""
    d = x.shape[1]
    x, v, step = x.copy(), v.copy(), cell.copy()
    xtol = 1e-7 * (cell + 1e-12)
    rows = np.arange(x.shape[0])
    for _ in range(90):
        xr, vr, sr = x[rows], v[rows], step[rows]
        improved = np.zeros(rows.size, dtype=bool)
        for j in range(d):
            for sgn in (1.0, -1.0):
                cand = xr.copy()
                cand[:, j] += sgn * sr
                cand = project(cand)
                vc = f(rows, cand)
                take = vc > vr
                xr[take] = cand[take]
                vr[take] = vc[take]
                improved |= take
        sr = np.minimum(np.where(improved, sr * 1.7, sr * 0.5), cap)
        x[rows], v[rows], step[rows] = xr, vr, sr
        rows = rows[sr >= xtol[rows]]
        if rows.size == 0:
            break
    return x, v, step, step < xtol


def _phi_bar_conjugates():
    # phi-bar of a correlated 2-D quadratic: a gradient-less source the
    # evaluator polishes by pattern search
    phi = phi_bar_function(make_quadratic(_B2), n_max=16)
    ConjugateEvaluator(phi).values(np.array([[2.0, 1.0], [-0.5, 3.0]]))


def _ball_conjugates():
    # the rows with |y| > 1 have their maximum on the edge of the ball
    phi = make_custom(2, lambda x: 0.5 * np.sum(np.asarray(x) ** 2, axis=-1),
                      support=SupportRegion(1.0))
    ConjugateEvaluator(phi).values(np.array([[3.0, 1.0], [0.3, -0.2],
                                             [-2.0, 2.5]]))


# name: a run that calls pattern_search
_ORACLE_CASES = {
    "phi_bar_quadratic_d2": _phi_bar_conjugates,
    # the quadratic without its gradient, which bb_ascent would polish
    "log_reparam_ridge": lambda: log_reparam_conjugate(
        make_custom(2, make_quadratic([[1.0, 0.5], [0.5, 1.0]]).value_ext),
        [1.0, 8.0]),
    "bounded_projected": _ball_conjugates,
}


def _mixed_rows():
    """A batch of 2-D maximizations whose rows stop at different passes:
    three quartic rows with their own first steps, and a kinked row,
    (x, y) - |x|_1 with y_1 > 1, that climbs until the 90-pass cap."""
    Y = np.array([[0.3, -0.2], [1.5, 2.5], [-4.0, 1.0], [2.0, 0.5]])
    kinked = np.array([False, False, False, True])

    def objective(sel):
        def f(rows, X):
            quartic = 0.25 * np.sum(X ** 2, axis=1) ** 2
            kink = np.sum(np.abs(X), axis=1)
            return (np.einsum("ij,ij->i", Y[sel][rows], X)
                    - np.where(kinked[sel][rows], kink, quartic))
        return f

    cell = np.array([1.0, 0.05, 2.0, 0.5])
    return objective, np.zeros((4, 2)), np.zeros(4), cell


def _counted(f, calls):
    def g(rows, X):
        calls.append((rows.copy(), X.shape[0]))
        return f(rows, X)
    return g


class TestPatternSearch:
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_matches_sequential_oracle(self, case, monkeypatch):
        searches = []
        inner = conjugate_module.pattern_search

        def recorded(f, x, v, cell, project, cap):
            searches.append((f, x.copy(), v.copy(), cell.copy(), project,
                             cap))
            return inner(f, x, v, cell, project, cap)

        monkeypatch.setattr(conjugate_module, "pattern_search", recorded)
        _ORACLE_CASES[case]()
        monkeypatch.undo()
        assert searches
        clipped = []
        for f, x, v, cell, project, cap in searches:
            def watched(X, project=project):
                P = project(X)
                clipped.append(not np.array_equal(P, X))
                return P

            got = pattern_search(f, x, v, cell, watched, cap)
            want = _sequential_pattern_search(f, x, v, cell, project, cap)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        if case == "bounded_projected":
            assert any(clipped)

    def test_one_call_per_axis_on_both_signs(self):
        objective, x, v, cell = _mixed_rows()
        calls = []
        pattern_search(_counted(objective(np.arange(4)), calls), x, v, cell,
                       lambda X: X, math.inf)
        d = x.shape[1]
        assert len(calls) % d == 0
        passes = [calls[i:i + d] for i in range(0, len(calls), d)]
        assert len(passes) == 90
        live = np.arange(4)
        for poll in passes:
            rows = poll[0][0]
            k = rows.size // 2
            assert set(rows[:k]) <= set(live)
            live = rows[:k]
            for axis_rows, points in poll:
                assert np.array_equal(axis_rows, np.concatenate([live, live]))
                assert points == 2 * k

    def test_plus_kept_when_both_signs_gain(self):
        # from 0 the objective -(|x| - 1)^2 gains as much at +0.5 as at -0.5
        def f(rows, X):
            return -(np.abs(X[:, 0]) - 1.0) ** 2

        x, v, _, converged = pattern_search(
            f, np.zeros((1, 1)), np.array([-1.0]), np.array([0.5]),
            lambda X: X, math.inf)
        assert converged[0]
        assert x[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert v[0] == pytest.approx(0.0, abs=1e-12)

    def test_row_equals_lone_run(self):
        objective, x, v, cell = _mixed_rows()
        calls = []
        batch = pattern_search(_counted(objective(np.arange(4)), calls), x,
                               v, cell, lambda X: X, math.inf)
        # each axis call holds a live row twice
        passes = np.bincount(np.concatenate([r for r, _ in calls]),
                             minlength=4) // (2 * x.shape[1])
        assert len(set(passes)) == 4 and passes[3] == 90
        assert list(batch[3]) == [True, True, True, False]
        for i in range(4):
            sel = np.array([i])
            alone = pattern_search(objective(sel), x[sel], v[sel], cell[sel],
                                   lambda X: X, math.inf)
            for a, b in zip(batch, alone):
                assert np.array_equal(a[i], b[0])


_GOLD = 0.5 * (1.0 + math.sqrt(5.0))


def _scalar_brent(f, x, v, cell, project, cap):
    """Reference: the bracketed Brent search, one row at a time in Python
    floats with one point per call of ``f``; Brent's loop as in the
    textbook, maximizing."""
    m = x.shape[0]
    out = (x.copy(), v.copy(), np.zeros(m), np.zeros(m, dtype=bool))
    for i in range(m):
        def g(t, i=i):
            return float(f(np.array([i]), np.array([[t]]))[0])

        def proj(t):
            return float(project(np.array([[t]]))[0, 0])

        tol0 = 1e-7 * (float(cell[i]) + 1e-12)
        bx, fx = float(x[i, 0]), float(v[i])
        plus, minus = proj(bx + cell[i]), proj(bx - cell[i])
        fplus, fminus = g(plus), g(minus)
        ends = ((minus, fminus), (plus, fplus))
        half, converged = None, False
        if fplus > fx or fminus > fx:
            sgn = 1.0 if fplus > fx else -1.0
            prev, fprev = bx, fx
            bx, fx = (plus, fplus) if sgn > 0.0 else (minus, fminus)
            step, n = float(cell[i]) * _GOLD, 0
            while True:
                c = proj(bx + sgn * min(step, cap))
                fc = g(c)
                if not fc > fx:
                    ends = ((prev, fprev), (c, fc))
                    break
                prev, fprev, bx, fx = bx, fx, c, fc
                step *= _GOLD
                n += 1
                if n >= 60:
                    half = step
                    break
        if half is None:
            (u, fu), (t, ft) = ends
            a, b = min(u, t), max(u, t)
            w, fw, z, fz = (t, ft, u, fu) if ft > fu else (u, fu, t, ft)
            d = e = b - a
            for n in range(201):
                tol = max(tol0, 4.0 * float(np.spacing(abs(bx))))
                mid = 0.5 * (a + b)
                if abs(bx - mid) <= 2.0 * tol - 0.5 * (b - a):
                    converged = True
                    break
                if n == 200:
                    break
                r = (bx - w) * (fx - fz)
                q = (bx - z) * (fx - fw)
                p = (bx - z) * q - (bx - w) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                if (abs(e) > tol and abs(p) < abs(0.5 * q * e)
                        and p > q * (a - bx) and p < q * (b - bx)):
                    e, d = d, p / q
                    u = bx + d
                    if u - a < 2.0 * tol or b - u < 2.0 * tol:
                        d = math.copysign(tol, mid - bx)
                else:
                    e = a - bx if bx >= mid else b - bx
                    d = (2.0 - _GOLD) * e
                if abs(d) < tol:
                    d = math.copysign(tol, d)
                u = bx + d
                fu = g(u)
                if fu >= fx:
                    if u >= bx:
                        a = bx
                    else:
                        b = bx
                    z, fz, w, fw, bx, fx = w, fw, bx, fx, u, fu
                else:
                    if u < bx:
                        a = u
                    else:
                        b = u
                    if fu >= fw or w == bx:
                        z, fz, w, fw = w, fw, u, fu
                    elif fu >= fz or z == bx or z == w:
                        z, fz = u, fu
            half = 0.5 * (b - a)
        out[0][i, 0], out[1][i], out[2][i], out[3][i] = bx, fx, half, converged
    return out


def _envelope_evaluator(p, scale):
    # phi-bar of a Weibull law as the envelope workload builds it
    dist = SymmetricWeibull(p, scale, 1)
    mgf = dist.mgf_log(lam_max=64.0)
    phi = make_custom(1, lambda x: mgf(np.atleast_2d(x)),
                      hessian_at_origin=[[dist.coordinate_variance()]])
    return ConjugateEvaluator(phi_bar_function(phi, n_max=64))


def _envelope_conjugates(p, scale):
    _envelope_evaluator(p, scale).values(np.array([[2.0], [4.0], [6.0]]))


def _tabulated_conjugates():
    # a kinked source on a bounded support; y = 40 has its maximum on the
    # support's edge
    nat = natural_function(sample(Gaussian([[1.0]]), 20_000, 3))
    ConjugateEvaluator(nat.tabulated_young()).values(
        np.array([[0.3], [40.0], [2.5], [-0.7]]))


# name: a run that calls line_search
_BRENT_CASES = {
    "phi_bar_weibull_p1.5": lambda: _envelope_conjugates(1.5, 0.2),
    "phi_bar_weibull_p4": lambda: _envelope_conjugates(4.0, 1.0),
    "tabulated_natural": _tabulated_conjugates,
}


def _line_rows():
    """A batch of 1-D maximizations that end in different ways: a smooth
    row near its start, a quartic row 30 away from a start with cell 1e-3,
    a linear row that walks until the walk's step cap, a row that is -inf
    past x = 1 with its maximum there, and a kinked row."""
    kind = np.array([0, 1, 2, 3, 4])

    def objective(sel):
        def f(rows, X):
            k, t = kind[sel][rows], X[:, 0]
            with np.errstate(invalid="ignore"):
                edge = np.where(t <= 1.0, 2.0 * t - t * t, -np.inf)
            return np.select(
                [k == 0, k == 1, k == 2, k == 3],
                [-(t - 0.3) ** 2 * (1.0 + t * t), 27000.0 * t - t ** 4 / 4.0,
                 t, edge], -np.abs(t - 0.2))
        return f

    cell = np.array([0.5, 1e-3, 0.5, 0.25, 0.1])
    x = np.zeros((5, 1))
    return objective, x, objective(np.arange(5))(np.arange(5), x), cell


def _recorded_line_searches(run, monkeypatch):
    """The arguments of each ``line_search`` call that ``run()`` makes."""
    searches = []
    inner = conjugate_module.line_search

    def recorded(f, x, v, cell, project, cap):
        searches.append((f, x.copy(), v.copy(), cell.copy(), project, cap))
        return inner(f, x, v, cell, project, cap)

    monkeypatch.setattr(conjugate_module, "line_search", recorded)
    run()
    monkeypatch.undo()
    assert searches
    return searches


def _per_row_counted(f, count):
    def g(rows, X):
        np.add.at(count, rows, 1)
        return f(rows, X)
    return g


class TestLineSearch:
    @pytest.mark.parametrize("case", sorted(_BRENT_CASES))
    def test_matches_scalar_brent(self, case, monkeypatch):
        searches = []
        inner = conjugate_module.line_search

        def recorded(f, x, v, cell, project, cap):
            searches.append((f, x.copy(), v.copy(), cell.copy(), project,
                             cap))
            return inner(f, x, v, cell, project, cap)

        monkeypatch.setattr(conjugate_module, "line_search", recorded)
        _BRENT_CASES[case]()
        monkeypatch.undo()
        assert searches
        for f, x, v, cell, project, cap in searches:
            got = line_search(f, x, v, cell, project, cap)
            want = _scalar_brent(f, x, v, cell, project, cap)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
            assert np.all(got[3])

    def test_mixed_rows_match_scalar_brent(self):
        objective, x, v, cell = _line_rows()
        got = line_search(objective(np.arange(5)), x, v, cell, lambda X: X,
                          math.inf)
        want = _scalar_brent(objective(np.arange(5)), x, v, cell,
                             lambda X: X, math.inf)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        # the linear row stops on the walk's cap, the others converge
        assert list(got[3]) == [True, True, False, True, True]
        assert got[0][1, 0] == pytest.approx(30.0, abs=1e-6)
        assert got[0][3, 0] == pytest.approx(1.0, abs=1e-6)
        assert got[0][4, 0] == pytest.approx(0.2, abs=1e-6)

    def test_row_equals_lone_run(self):
        objective, x, v, cell = _line_rows()
        batch = line_search(objective(np.arange(5)), x, v, cell,
                            lambda X: X, math.inf)
        for i in range(5):
            sel = np.array([i])
            alone = line_search(objective(sel), x[sel], v[sel], cell[sel],
                                lambda X: X, math.inf)
            for a, b in zip(batch, alone):
                assert np.array_equal(a[i], b[0])

    def test_one_call_per_step_on_live_rows(self):
        objective, x, v, cell = _line_rows()
        calls = []
        line_search(_counted(objective(np.arange(5)), calls), x, v, cell,
                    lambda X: X, math.inf)
        # the first call holds every row's + and - points
        rows, points = calls[0]
        assert np.array_equal(rows, np.tile(np.arange(5), 2))
        assert points == 10
        live = set(range(5))
        for rows, points in calls[1:]:
            assert points == rows.size == len(set(rows))
            assert set(rows) <= live
            live = set(rows)
        # the linear row walks 60 steps after its first call
        assert len(calls) == 61 and live == {2}

    def test_returns_an_evaluated_point_not_below_the_start(self):
        objective, x, v, cell = _line_rows()
        seen = {}
        f = objective(np.arange(5))

        def g(rows, X):
            vals = f(rows, X)
            for r, t, fv in zip(rows, X[:, 0], vals):
                seen[(r, t)] = fv
            return vals

        bx, fx, _, _ = line_search(g, x, v - 1.0, cell, lambda X: X,
                                   math.inf)
        for i in range(5):
            assert seen[(i, bx[i, 0])] == fx[i]
            assert fx[i] >= v[i] - 1.0

    def test_warm_start_widens_its_bracket(self):
        # 27000 x - x^4 / 4 peaks at x = 30, 30,000 first steps away
        def f(rows, X):
            return 27000.0 * X[:, 0] - X[:, 0] ** 4 / 4.0

        calls = []
        bx, fx, half, converged = line_search(
            _counted(f, calls), np.zeros((1, 1)), np.zeros(1),
            np.array([1e-3]), lambda X: X, math.inf)
        assert converged[0]
        assert bx[0, 0] == pytest.approx(30.0, abs=1e-6)
        assert fx[0] == pytest.approx(607500.0, rel=1e-14)
        assert half[0] <= 2e-10
        assert len(calls) > 20      # the walk alone takes about 20 steps

    def test_converges_where_tol_is_below_the_float_spacing(self):
        # at x = 1e8 the spacing 1.5e-8 exceeds 1e-7 of the cell 1e-3
        def f(rows, X):
            return -(X[:, 0] - 1e8) ** 2 / 1e8

        calls = []
        x = np.array([[0.999e8]])
        bx, fx, half, converged = line_search(
            _counted(f, calls), x, f(None, x), np.array([1e-3]), lambda X: X,
            math.inf)
        assert converged[0] and len(calls) < 100
        assert bx[0, 0] == pytest.approx(1e8, rel=1e-15)

    def test_stops_at_the_support_edge(self):
        # 3 x - x^2 / 2 rises to the edge of the ball of radius 1: the walk
        # from 0.5 is clipped there, and the next step does not move
        support = SupportRegion(1.0)

        def f(rows, X):
            return 3.0 * X[:, 0] - 0.5 * X[:, 0] ** 2

        bx, fx, half, converged = line_search(
            f, np.array([[0.5]]), f(None, np.array([[0.5]])),
            np.array([0.1]), support.project, support.search_radius())
        assert converged[0]
        assert bx[0, 0] == support.search_radius()
        assert half[0] <= 2e-8

    @pytest.mark.parametrize("source", ["abs", "tabulated_natural"])
    def test_agrees_with_pattern_search(self, source, monkeypatch):
        if source == "abs":
            phi = make_custom(1, lambda x: np.abs(np.asarray(x)[..., 0]))
            Y = np.array([[0.5], [-0.9], [0.0], [0.999]])
        else:
            nat = natural_function(sample(Gaussian([[1.0]]), 20_000, 3))
            phi = nat.tabulated_young()
            Y = np.array([[0.3], [1.1], [40.0], [2.5], [-0.7]])
        ev = ConjugateEvaluator(phi)
        got = ev.values(Y)
        monkeypatch.setattr(conjugate_module, "line_search", pattern_search)
        want = ev.values(Y)
        assert np.all(got.converged) and np.all(want.converged)
        tol = got.slack + want.slack + 1e-15 * (1.0 + np.abs(want.values))
        assert np.all(np.abs(got.values - want.values) <= tol)

    def test_non_finite_objective_raises_no_warning(self):
        # -inf past x = 1, NaN below -1 and a flat row, whose parabola is
        # 0 / 0: each falls back to a golden-section step
        def f(rows, X):
            t = X[:, 0]
            with np.errstate(invalid="ignore"):
                bent = np.where(t > 1.0, -np.inf,
                                np.where(t < -1.0, np.nan, -(t - 0.9) ** 2))
            return np.where(rows == 0, bent, 0.0)

        x = np.zeros((2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bx, fx, _, converged = line_search(
                f, x, f(np.arange(2), x), np.array([2.0, 0.5]), lambda X: X,
                math.inf)
        assert np.all(converged)
        assert bx[0, 0] == pytest.approx(0.9, abs=1e-6)
        assert fx[1] == 0.0

    @pytest.mark.parametrize("case", sorted(_BRENT_CASES) + ["line_rows"])
    def test_no_extra_evaluations(self, case, monkeypatch):
        # each row evaluates as many points as the oracle's
        if case == "line_rows":
            objective, x, v, cell = _line_rows()
            searches = [(objective(np.arange(5)), x, v, cell, lambda X: X,
                         math.inf)]
        else:
            searches = _recorded_line_searches(_BRENT_CASES[case],
                                               monkeypatch)
        for f, x, v, cell, project, cap in searches:
            counts = []
            for search in (line_search, _scalar_brent):
                count = np.zeros(x.shape[0], dtype=np.int64)
                search(_per_row_counted(f, count), x, v, cell, project, cap)
                counts.append(count)
            assert np.all(counts[0] > 2)
            assert np.array_equal(*counts)

    def test_larger_batch_of_phi_bar_rows(self, monkeypatch):
        # 32 rows of the envelope's p = 1.5 law polished from given starts:
        # the rows started at their maximizer bracket at once, the others
        # walk first
        ev = _envelope_evaluator(1.5, 0.2)
        Y = np.linspace(-8.0, 8.0, 32)[:, None]
        x0 = ev.values(Y).argmax
        x0[1::2] += np.linspace(-3.0, 3.0, 16)[:, None]
        cell = np.full(32, 1e-3)
        searches = _recorded_line_searches(
            lambda: ev._polish_rows(Y, x0, None, cell), monkeypatch)
        assert len(searches) == 1
        f, x, v, cell, project, cap = searches[0]
        assert x.shape[0] == 32
        ends = project(np.concatenate([x + cell[:, None], x - cell[:, None]]))
        fends = f(np.tile(np.arange(32), 2), ends)
        walks = (fends[:32] > v) | (fends[32:] > v)
        assert 8 <= np.count_nonzero(walks) <= 24
        got = line_search(f, x, v, cell, project, cap)
        want = _scalar_brent(f, x, v, cell, project, cap)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        batch = ev._polish_rows(Y, x0, None, cell)
        assert np.all(batch[3])
        for i in range(32):
            alone = ev._polish_rows(Y[i:i + 1], x0[i:i + 1], None,
                                    cell[i:i + 1])
            for part, lone in zip(batch, alone):
                assert np.array_equal(part[i], lone[0])


class TestLargeRows:
    @pytest.mark.parametrize("B, y", [([[1.0]], [1e200]),
                                      (np.eye(2), [1e200, 1e200])],
                             ids=["d1", "d2"])
    def test_huge_row_raises_no_warning(self, B, y):
        # phi* is about 5e399, past the float range: the row reports the
        # lower bound 0 with no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = ConjugateEvaluator(make_quadratic(B)).values([y])
        assert not np.isnan(got.values[0]) and got.values[0] >= 0.0
        assert not got.converged[0]

    def test_scores_skip_points_where_phi_is_inf(self):
        # y . x overflows to inf where phi is +inf too; such a point is no
        # candidate, whatever the product
        X = np.array([[1.0, 1.0], [0.7, 0.7], [0.0, 0.0]])
        phiX = np.array([np.inf, 0.49, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val, idx = _chunked_scores(np.array([[1e308, 1e308]]), X, phiX)
        assert idx[0] == 1 and val[0] == pytest.approx(1.4e308)

    def test_ray_norm_keeps_its_bits(self):
        # scaling by a power of two is exact, so |y| is the plain norm
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((300, 3)) * 10.0 ** rng.uniform(
            -150.0, 150.0, (300, 1))
        Y[:5] = 0.0
        _, n, u = ConjugateEvaluator._rays(Y)
        assert np.array_equal(n, np.linalg.norm(Y, axis=1))
        assert np.array_equal(u[:5], np.zeros((5, 3)))


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

    def test_ridge_matches_newton(self, monkeypatch):
        # the non-separable ridge of B = [[1, .5], [.5, 1]] at r = (1, 8):
        # bb_ascent polishes the grid winner to a Newton solve of
        # r = e^mu * B e^mu, where a coordinate search stopped 6.7e-11 low
        def no_pattern_search(*args):
            raise AssertionError("pattern_search called")

        monkeypatch.setattr(conjugate_module, "pattern_search",
                            no_pattern_search)
        B, r = _BQ, np.array([1.0, 8.0])
        got = log_reparam_conjugate(make_quadratic(B), r)
        mu = 0.5 * np.log(r)
        for _ in range(40):
            lam = np.exp(mu)
            Bl = B @ lam
            hess = -(np.diag(lam * Bl) + np.outer(lam, lam) * B)
            mu = mu - np.linalg.solve(hess, r - lam * Bl)
        lam = np.exp(mu)
        want = r @ mu - 0.5 * lam @ B @ lam
        assert got == pytest.approx(want, rel=1e-14)

    def test_bounded_support_stays_finite(self):
        phi = make_bounded_support(1.0, 1.0)
        assert math.isfinite(log_reparam_conjugate(phi, 2.0))

    def test_nan_order_is_rejected(self):
        # a NaN entry makes every grid value NaN
        for phi, r in ((make_quadratic([[1.0]]), math.nan),
                       (make_quadratic(np.eye(2)), [2.0, math.nan]),
                       (make_quadratic(np.eye(2)), [[2.0, 2.0],
                                                    [math.nan, 4.0]])):
            with pytest.raises(ParameterError):
                log_reparam_conjugate(phi, r)

    @pytest.mark.parametrize("phi, R", [
        (make_quadratic([[1.0]]), [[1.0], [2.0], [3.0], [0.3], [32.0]]),
        (make_quadratic([[1.0, 0.5], [0.5, 1.0]]),
         [[2.0, 2.0], [4.0, 2.0], [1.0, 8.0], [3.0, 5.0], [1.3, 7.7]]),
        (make_quadratic(np.diag([1.0, 1.0, 2.0])),
         [[2.0, 2.0, 2.0], [8.0, 8.0, 2.0], [3.0, 5.0, 7.0],
          [1.1, 2.2, 3.3]]),
        (make_bounded_support(1.0, 1.0), [[2.0], [1.0], [50.0], [3.3]]),
    ], ids=["d1", "d2", "d3", "bounded"])
    def test_batch_row_equals_lone_call(self, phi, R):
        R = np.array(R)
        lone = np.array([log_reparam_conjugate(phi, r) for r in R])
        assert np.array_equal(log_reparam_conjugate(phi, R), lone)
        assert np.array_equal(log_reparam_conjugate(phi, R[::-1]),
                              lone[::-1])

    def test_rows_on_boxes_grown_apart(self, monkeypatch):
        # power p = 4: the maximizer ln(r/4)/4 sits in the first box [., 3]
        # at r = 8, in the second at r = 4e6 and in the third at r = 4e12
        phi = make_power(4.0, 1.0, 1)
        R = np.array([[4e12], [8.0], [4e6]])
        lone = np.array([log_reparam_conjugate(phi, r) for r in R])
        tops = []

        def grid(lo, hi, res):
            tops.append(float(np.max(hi)))
            return box_grid(lo, hi, res)

        monkeypatch.setattr(conjugate_module, "box_grid", grid)
        got = log_reparam_conjugate(phi, R)
        assert tops == [3.0, 6.0, 9.0]      # one grid per box, shared
        assert np.array_equal(got, lone)
        r = R[:, 0]
        assert np.allclose(got, 0.25 * r * np.log(r / 4.0) - 0.25 * r,
                           rtol=1e-10, atol=0.0)

    def test_diverged_row_among_finite_ones(self):
        # Phi(mu) = 2 log(1 + e^mu) grows like 2 mu, so r mu - Phi is
        # unbounded for r > 2 and bounded for r < 2
        phi = make_custom(1, lambda x: 2.0 * np.log1p(np.abs(x[..., 0])))
        R = np.array([[1.0], [4.0], [1.5]])
        got = log_reparam_conjugate(phi, R)
        assert got[1] == math.inf and np.all(np.isfinite(got[[0, 2]]))
        lone = [log_reparam_conjugate(phi, r) for r in R]
        assert np.array_equal(got, lone)

    def test_reparam_coordinatewise_monotone(self):
        f = log_reparam(make_quadratic(np.array([[1.0, 0.3], [0.3, 1.0]])))
        rng = np.random.default_rng(4)
        mu = rng.uniform(-3, 1, (200, 2))
        step = rng.uniform(0, 1, (200, 2))
        assert np.all(f(mu + step) >= f(mu) - 1e-12)
