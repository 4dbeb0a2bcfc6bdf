import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from exptail.empirical import (CenteredCustom, EmpiricalNaturalFunction,
                               Gaussian, RademacherScaled,
                               SymmetricWeibull, UniformBox,
                               analytic_natural_function, empirical_variance,
                               min_coordinate_tail, natural_function, sample,
                               sample_sum, tail_function, vector_moment)
from exptail.errors import ParameterError
from exptail.norms import ray_probe_plan
from exptail.vectors import enumerate_sign_vectors, log_cosh
from exptail.young import check_absolutely_even

N_BIG = 100_000


@pytest.fixture(scope="module")
def gauss2_sample():
    return sample(Gaussian(np.eye(2)), N_BIG, seed=42)


@pytest.fixture(scope="module")
def gauss1_sample():
    return sample(Gaussian([[1.0]]), N_BIG, seed=7)


class TestSampling:
    def test_gaussian_mean_width(self, gauss2_sample):
        m = gauss2_sample.data.mean(axis=0)
        assert np.all(np.abs(m) <= 5.0 / math.sqrt(N_BIG))

    def test_rademacher_support(self):
        s = sample(RademacherScaled(1.0, 3), 1000, seed=0)
        assert set(np.unique(s.data)) == {-1.0, 1.0}

    def test_same_seed_identical(self):
        d = SymmetricWeibull(1.5, 1.0, 2)
        a = sample(d, 70_000, seed=5)
        b = sample(d, 70_000, seed=5)
        assert np.array_equal(a.data, b.data)

    def test_prefix_stability_across_sizes(self):
        # chunked seeding: first rows do not depend on the total n
        d = Gaussian(np.eye(2))
        a = sample(d, 70_000, seed=9)
        b = sample(d, 100_000, seed=9)
        assert np.array_equal(a.data, b.data[:70_000])

    def test_uniform_box_support(self):
        s = sample(UniformBox([1.0, 2.0]), 5000, seed=1)
        assert np.all(np.abs(s.data) <= np.array([1.0, 2.0]))

    def test_degenerate_covariance_flag(self):
        with pytest.raises(ParameterError):
            Gaussian(np.array([[1.0, 1.0], [1.0, 1.0]]), require_full_rank=True)

    def test_custom_sampler(self):
        d = CenteredCustom(lambda n, rng: np.zeros((n, 2)), 2, tag="zero")
        s = sample(d, 10, seed=0)
        assert np.all(s.data == 0.0)

    def test_csv_export(self, tmp_path):
        s = sample(Gaussian(np.eye(2)), 20, seed=4)
        path = tmp_path / "s.csv"
        s.to_csv(path)
        text = path.read_text()
        assert text.startswith("# dim=2,seed=4,tag=gaussian(d=2,Q#")
        back = np.loadtxt(path, delimiter=",")
        assert np.allclose(back, s.data, rtol=1e-15)


class TestNaturalFunction:
    def test_gaussian_matches_half_norm_sq(self, gauss2_sample):
        nat = natural_function(gauss2_sample)
        rng = np.random.default_rng(0)
        lam = rng.standard_normal((30, 2))
        lam *= (rng.uniform(0.2, 1.5, 30) / np.linalg.norm(lam, axis=1))[:, None]
        vals, trusted = nat.evaluate_with_trust(lam)
        assert trusted.all()
        assert np.allclose(vals, 0.5 * np.sum(lam**2, axis=1), atol=0.03)

    def test_zero_is_exact(self, gauss2_sample):
        nat = natural_function(gauss2_sample)
        assert nat.evaluate(np.zeros(2)) == 0.0

    def test_rademacher_logcosh(self):
        s = sample(RademacherScaled(1.0, 1), N_BIG, seed=3)
        nat = natural_function(s)
        lam = np.linspace(-2.0, 2.0, 21)[:, None]
        vals = nat.evaluate(lam)
        want = np.log(np.cosh(lam[:, 0]))
        assert np.allclose(vals, want, atol=0.01)

    def test_nonnegative_everywhere(self, gauss2_sample):
        nat = natural_function(gauss2_sample)
        rng = np.random.default_rng(1)
        vals = nat.evaluate(rng.standard_normal((50, 2)))
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("dist", [
        Gaussian(np.array([[1.0, 0.6], [0.6, 1.0]])),
        SymmetricWeibull(2.5, 1.0, 2),
        RademacherScaled(1.0, 2),
        UniformBox([1.0, 2.0]),
    ], ids=["gaussian", "weibull", "rademacher", "uniform"])
    def test_absolutely_even(self, dist):
        nat = natural_function(sample(dist, 5000, seed=11))
        res = check_absolutely_even(nat.evaluate, 2, trial_count=100, seed=4)
        assert res.holds

    def test_trust_region_flags_extremes(self, gauss1_sample):
        nat = natural_function(gauss1_sample)
        _, trusted_small = nat.evaluate_with_trust(np.array([0.5]))
        _, trusted_huge = nat.evaluate_with_trust(np.array([30.0]))
        assert trusted_small and not trusted_huge

    def test_weibull_below_kramer_refused(self):
        s = sample(SymmetricWeibull(0.5, 1.0, 1), 1000, seed=0)
        with pytest.raises(ParameterError):
            natural_function(s)

    def test_tabulated_young_interpolates(self, gauss1_sample):
        nat = natural_function(gauss1_sample)
        phi = nat.tabulated_young(lam_max=2.0, resolution=513)
        lam = np.linspace(-1.5, 1.5, 11)[:, None]
        assert np.allclose(phi.value(lam), nat.evaluate(np.abs(lam)), atol=1e-3)
        assert phi.hessian_at_origin[0, 0] == pytest.approx(1.0, abs=0.05)


def _oracle_natural(nat, pts):
    """The former kernel (400-row blocks, float32 cast by ``astype``), kept
    as the reference for the blocked, threaded one."""
    data = nat._data
    n = data.shape[0]
    m = pts.shape[0]
    best = np.full((m,), -np.inf)
    best_top = np.full((m,), -np.inf)
    samp_chunk = 200_000
    row_chunk = max(1, 8_000_000 // min(n, samp_chunk))
    for lo in range(0, m, row_chunk):
        hi = min(m, lo + row_chunk)
        for eps in enumerate_sign_vectors(data.shape[1]):
            M = np.full(hi - lo, -np.inf)
            S = np.zeros(hi - lo)
            top = np.full(hi - lo, -np.inf)
            flipped = pts[lo:hi] * eps
            for slo in range(0, n, samp_chunk):
                T = flipped @ data[slo:slo + samp_chunk].T
                cm = T.max(axis=1)
                top = np.maximum(top, cm)
                M_new = np.maximum(M, cm)
                shifted = (T - M_new[:, None]).astype(np.float32)
                S = S * np.exp(M - M_new) + \
                    np.exp(shifted).sum(axis=1, dtype=np.float64)
                M = M_new
            lse = M + np.log(S)
            lme = lse - math.log(n)
            frac = np.exp(top - lse)
            sel = lme > best[lo:hi]
            best[lo:hi][sel] = lme[sel]
            best_top[lo:hi][sel] = frac[sel]
    return np.maximum(best, 0.0), best_top <= 0.1


KERNEL_LAWS = {"rademacher_d1": RademacherScaled(1.0, 1),
               "gaussian_d2": Gaussian(np.eye(2)),
               "weibull4_d2": SymmetricWeibull(4.0, 1.0, 2)}


@pytest.fixture(scope="module", params=sorted(KERNEL_LAWS))
def kernel_nat(request):
    return natural_function(sample(KERNEL_LAWS[request.param], 20_000, 14))


class TestNaturalKernel:
    def test_matches_oracle_on_default_plan(self, kernel_nat):
        pts = ray_probe_plan(kernel_nat.dimension).points
        vals, trusted = kernel_nat.evaluate_with_trust(pts)
        want_vals, want_trusted = _oracle_natural(kernel_nat, pts)
        assert np.array_equal(vals, want_vals)
        assert np.array_equal(trusted, want_trusted)

    @pytest.mark.parametrize("m", [1, 7, 925])
    def test_batch_split(self, m):
        nat = natural_function(sample(Gaussian(np.eye(2)), 20_000, 14))
        pts = ray_probe_plan(2).points[:m]
        whole_vals, whole_trusted = nat._evaluate_part(pts)
        for parts in sorted({2, 3, m}):
            done = [nat._evaluate_part(pts[i * m // parts:(i + 1) * m // parts])
                    for i in range(parts)]
            vals = np.concatenate([v for v, _ in done])
            # a one-row part runs through BLAS gemv instead of gemm; its
            # rounding moves M + log S, which is of order 1, not the value
            assert np.all(np.abs(vals - whole_vals)
                          <= 1e-13 * (1.0 + np.abs(whole_vals)))
            assert np.array_equal(np.concatenate([t for _, t in done]),
                                  whole_trusted)
        vals, trusted = nat.evaluate_with_trust(pts)
        assert np.array_equal(vals, whole_vals)
        assert np.array_equal(trusted, whole_trusted)

    @pytest.mark.parametrize("dist", [Gaussian(np.eye(2)),
                                      RademacherScaled(1.0, 1),
                                      SymmetricWeibull(4.0, 1.0, 2)],
                             ids=["gaussian_d2", "rademacher_d1",
                                  "weibull4_d2"])
    def test_lone_point_equals_batch(self, dist):
        nat = natural_function(sample(dist, 20_000, 14))
        pts = ray_probe_plan(dist.dimension).points[::5]
        vals, trusted = nat.evaluate_with_trust(pts)
        for p, v, t in zip(pts, vals, trusted):
            row_vals, row_trusted = nat.evaluate_with_trust(p[None, :])
            assert row_vals[0] == v and row_trusted[0] == t
            assert nat.evaluate_with_trust(p) == (v, t)

    def test_default_plan_peak_memory(self):
        nat = natural_function(sample(Gaussian(np.eye(2)), 20_000, 14))
        pts = ray_probe_plan(2).points
        tracemalloc.start()
        try:
            nat.evaluate_with_trust(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @pytest.mark.parametrize("d", [1, 2])
    def test_empty_batch(self, d):
        nat = natural_function(sample(Gaussian(np.eye(d)), 1000, 3))
        vals, trusted = nat.evaluate_with_trust(np.zeros((0, d)))
        assert vals.shape == trusted.shape == (0,)
        assert trusted.dtype == bool


class TestAnalyticNaturalFunction:
    def test_gaussian_max_over_flips(self):
        Q = np.array([[1.0, 0.9], [0.9, 1.0]])
        f = analytic_natural_function(Gaussian(Q))
        lam = np.array([[1.0, -1.0]])
        # flipping the second sign gives the larger quadratic form
        assert f(lam)[0] == pytest.approx(0.5 * (2.0 + 1.8))

    def test_weibull_quadrature_consistency(self):
        d = SymmetricWeibull(4.0, 1.0, 1)
        f = d.mgf_log()
        s = sample(d, 200_000, seed=21)
        nat = natural_function(s)
        lam = np.linspace(0.2, 2.0, 7)[:, None]
        assert np.allclose(nat.evaluate(lam), f(lam), atol=0.02)

    def test_uniform_mgf_closed_form(self):
        f = UniformBox([2.0]).mgf_log()
        lam = np.array([[0.7]])
        want = math.log(math.sinh(1.4) / 1.4)
        assert f(lam)[0] == pytest.approx(want, rel=1e-10)

    def test_uniform_mgf_zero_coordinate_raises_no_warning(self):
        f = UniformBox([2.0, 1.0]).mgf_log()
        with np.errstate(all="raise"):
            vals = f(np.array([[0.0, 0.0], [0.0, 1.4]]))
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(math.log(math.sinh(1.4) / 1.4),
                                        rel=1e-10)


class TestTailFunction:
    def test_d1_gaussian_two_sided(self, gauss1_sample):
        t = tail_function(gauss1_sample, [2.0])
        assert t.probability == pytest.approx(norm.sf(2.0), abs=3 * t.half_width
                                              + 0.002)

    def test_d1_reduces_to_max_of_sides(self, gauss1_sample):
        x = 1.3
        t = tail_function(gauss1_sample, [x])
        data = gauss1_sample.data[:, 0]
        want = max(np.mean(data > x), np.mean(data < -x))
        assert t.probability == want

    def test_huge_threshold_on_bounded(self):
        s = sample(UniformBox([1.0, 1.0]), 5000, seed=2)
        assert tail_function(s, [1000.0, 0.0]).probability == 0.0

    def test_d2_product_of_marginals(self, gauss2_sample):
        t = tail_function(gauss2_sample, [1.0, 1.0])
        want = norm.sf(1.0) ** 2
        assert t.probability == pytest.approx(want, abs=3 * t.half_width)

    def test_monotone_in_thresholds(self, gauss2_sample):
        a = tail_function(gauss2_sample, [0.5, 0.5]).probability
        b = tail_function(gauss2_sample, [0.5, 1.0]).probability
        c = tail_function(gauss2_sample, [1.5, 1.0]).probability
        assert a >= b >= c

    def test_width_floor_when_degenerate(self):
        s = sample(UniformBox([1.0]), 1000, seed=3)
        t = tail_function(s, [5.0])
        assert t.probability == 0.0 and t.half_width == 3.0 / 1000


class TestMinCoordinateTail:
    def test_d2_gaussian_oracle(self, gauss2_sample):
        t = min_coordinate_tail(gauss2_sample, 1.0)
        want = (2 * norm.sf(1.0)) ** 2
        assert t.probability == pytest.approx(want, abs=3 * t.half_width)

    def test_tiny_threshold_near_one(self, gauss2_sample):
        assert min_coordinate_tail(gauss2_sample, 1e-9).probability > 0.999

    def test_octant_decomposition_identity(self, gauss2_sample):
        # sum over sign patterns of joint exceedances equals the min-|.| tail
        y = 0.8
        total = 0.0
        from exptail.vectors import enumerate_sign_vectors
        for eps in enumerate_sign_vectors(2):
            total += np.mean(np.all(gauss2_sample.data * eps > y, axis=1))
        got = min_coordinate_tail(gauss2_sample, y).probability
        assert total == pytest.approx(got, abs=1e-12)


class TestVectorMoment:
    def test_second_moment_d1(self, gauss1_sample):
        assert vector_moment(gauss1_sample, [2.0]) == pytest.approx(1.0, abs=0.02)

    def test_independent_factorization(self, gauss2_sample):
        got = vector_moment(gauss2_sample, [2.0, 2.0])
        assert got == pytest.approx(1.0, abs=0.02)

    def test_fourth_moment_d1(self, gauss1_sample):
        got = vector_moment(gauss1_sample, [4.0])
        assert got == pytest.approx(3.0 ** 0.25, abs=0.02)

    def test_zero_samples(self):
        s = sample(CenteredCustom(lambda n, rng: np.zeros((n, 1)), 1, "zero"),
                   100, seed=0)
        assert vector_moment(s, [2.0]) == 0.0

    def test_rejects_small_orders(self, gauss1_sample):
        with pytest.raises(ParameterError):
            vector_moment(gauss1_sample, [0.5])


class TestEmpiricalVariance:
    def test_known_covariance(self):
        Q = np.diag([1.0, 4.0])
        s = sample(Gaussian(Q), 200_000, seed=13)
        V = empirical_variance(s)
        assert np.allclose(V, Q, atol=0.05)

    def test_rademacher_unit(self):
        s = sample(RademacherScaled(1.0, 1), 50_000, seed=1)
        assert empirical_variance(s)[0, 0] == pytest.approx(1.0, abs=0.02)

    def test_zero_sampler(self):
        s = sample(CenteredCustom(lambda n, rng: np.zeros((n, 2)), 2, "zero"),
                   100, seed=0)
        assert np.all(empirical_variance(s) == 0.0)

    def test_variance_domination_at_unit_norm(self, gauss2_sample):
        # gaussian(Q) against quadratic(Q) at unit norm: Var <= Q + MC slack
        V = empirical_variance(gauss2_sample)
        evals = np.linalg.eigvalsh(np.eye(2) + 5 * 5 / math.sqrt(N_BIG)
                                   * np.eye(2) - V)
        assert np.all(evals >= 0.0)

    def test_strictly_subgaussian_certificate(self, gauss2_sample):
        # empirical log-MGF <= 0.5 (Q_hat lam, lam) + 3 MC widths on trusted lam
        nat = natural_function(gauss2_sample)
        Q = empirical_variance(gauss2_sample)
        rng = np.random.default_rng(8)
        lam = rng.standard_normal((20, 2)) * 0.7
        vals, trusted = nat.evaluate_with_trust(lam)
        quad = 0.5 * np.einsum("ij,jk,ik->i", lam, Q, lam)
        # delta-method width of the log-MGF estimate for a normal projection
        s = np.sum(lam**2, axis=1)
        width = np.sqrt(np.expm1(s)) / math.sqrt(N_BIG)
        assert np.all(vals[trusted] <= quad[trusted] + 3.0 * width[trusted])


class TestSampleSum:
    def test_gaussian_sums_are_gaussian(self):
        s = sample_sum(Gaussian([[1.0]]), 16, 50_000, seed=4)
        assert abs(s.data.std() - 1.0) < 0.02

    def test_deterministic(self):
        a = sample_sum(RademacherScaled(1.0, 1), 4, 1000, seed=9)
        b = sample_sum(RademacherScaled(1.0, 1), 4, 1000, seed=9)
        assert np.array_equal(a.data, b.data)


class TestKramerGate:
    """The natural-function gate follows the law, not its tag."""

    def test_sum_of_weibull_below_kramer_refused(self):
        s = sample_sum(SymmetricWeibull(0.5, 1.0, 1), 4, 1000, seed=0)
        with pytest.raises(ParameterError):
            natural_function(s)

    def test_custom_without_natural_function_refused(self):
        dist = CenteredCustom(lambda n, rng: rng.standard_normal((n, 1)), 1,
                              natural_ok=False)
        with pytest.raises(ParameterError):
            natural_function(sample(dist, 500, seed=1))

    def test_scaled_sample_keeps_the_gate(self):
        s = sample(SymmetricWeibull(0.5, 1.0, 1), 500, seed=2).scaled(2.0)
        with pytest.raises(ParameterError):
            natural_function(s)

    def test_class_constructor_refused(self):
        s = sample(SymmetricWeibull(0.5, 1.0, 1), 2000, seed=0)
        with pytest.raises(ParameterError):
            EmpiricalNaturalFunction(s)


def _oracle_logcosh_expectation(a, t, logw):
    """The former log_cosh-based kernel, kept as the reference."""
    z = log_cosh(a[:, None] * t[None, :]) + logw[None, :]
    m = z.max(axis=1, keepdims=True)
    return m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1))


def _oracle_weibull_mgf(p, scale, lam, lam_max=64.0, t_points=8001):
    """Reference log-MGF on the quadrature grid of SymmetricWeibull.mgf_log."""
    a_cap = lam_max * scale
    t_star = (a_cap / p) ** (1.0 / (p - 1.0)) if p > 1 else a_cap
    t = np.linspace(1e-9, max(60.0, 4.0 * t_star), t_points)
    logw = math.log(p) + (p - 1.0) * np.log(t) - t**p
    m = np.max(logw)
    logw -= m + math.log(np.sum(np.exp(logw - m)))
    a = np.abs(np.atleast_2d(lam)) * scale
    vals = _oracle_logcosh_expectation(a.ravel(), t, logw)
    return vals.reshape(a.shape).sum(axis=-1)


class TestWeibullQuadrature:
    @pytest.mark.parametrize("p, scale", [(1.0, 1.0), (1.5, 0.2), (4.0, 1.0)])
    def test_zero_is_exact(self, p, scale):
        f = SymmetricWeibull(p, scale, 1).mgf_log()
        assert f(np.zeros((1, 1)))[0] == 0.0

    @pytest.mark.parametrize("p, scale", [(1.0, 1.0), (1.5, 0.2), (4.0, 1.0)])
    def test_matches_log_cosh_kernel(self, p, scale):
        f = SymmetricWeibull(p, scale, 1).mgf_log(lam_max=64.0)
        lam = np.concatenate([np.linspace(0.0, 64.0, 257),
                              [-64.0, -3.0, 1e-12]])[:, None]
        new, old = f(lam), _oracle_weibull_mgf(p, scale, lam)
        assert np.all(np.abs(new - old) <= 1e-12 * (1.0 + np.abs(old)))

    def test_two_coordinates_in_one_call(self):
        f = SymmetricWeibull(1.5, 0.2, 2).mgf_log(lam_max=64.0)
        lam = np.random.default_rng(3).uniform(-64.0, 64.0, (300, 2))
        lam[0] = 0.0
        new, old = f(lam), _oracle_weibull_mgf(1.5, 0.2, lam)
        assert new.shape == (300,)
        assert np.all(np.abs(new - old) <= 1e-12 * (1.0 + np.abs(old)))
        # stacked leading axes give the same values as one row at a time
        stacked = f(lam.reshape(3, 100, 2))
        rows = np.array([f(row[None, :])[0] for row in lam])
        assert np.array_equal(stacked.ravel(), rows)


class TestUniformBoxMgf:
    def test_exp_floor_keeps_every_bit(self):
        hw = np.array([2.0])
        rng = np.random.default_rng(8)
        lam = np.concatenate([rng.uniform(-2e3, 2e3, 500_000),
                              rng.uniform(-1e300, 1e300, 499_996),
                              [0.0, 1e-5, 1e300, -1e300]])[:, None]
        a = np.abs(lam * hw)
        with np.errstate(all="ignore"):   # a * a overflows in the unused branch
            big = a + np.log1p(-np.exp(-2.0 * np.maximum(a, 1e-300))) \
                - np.log(2.0 * np.maximum(a, 1e-300))
            s = a * a
            series = s * (1.0 / 6.0 - s * (1.0 / 180.0 - s / 2835.0))
            unclamped = np.sum(np.where(a < 0.05, series, big), axis=-1)
            clamped = UniformBox(hw).mgf_log()(lam)
        assert np.array_equal(clamped, unclamped)

    def test_relative_accuracy(self):
        # log1p of the positive series of sinh(a)/a - 1 has no cancellation
        a = np.concatenate([np.geomspace(1e-8, 20.0, 4001),
                            np.linspace(0.045, 0.055, 1001)])
        excess = np.zeros_like(a)
        term = a * a / 6.0
        for k in range(1, 80):
            excess += term
            term = term * a * a / ((2 * k + 2) * (2 * k + 3))
        want = np.log1p(excess)
        got = UniformBox([1.0]).mgf_log()(a[:, None])
        # below 0.05 the omitted series term is at most 2.5e-12 of the value;
        # just above, the closed form's own rounding reaches 2.7e-12
        assert np.max(np.abs(got - want) / want) <= 3e-12
