import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import exptail.norms as norms_module
from exptail.conjugate import ConjugateEvaluator, log_reparam_conjugate
from exptail.empirical import (Gaussian, RademacherScaled, SymmetricWeibull,
                               natural_function, sample, vector_moment)
from exptail.errors import MissingCertificateError, ParameterError
from exptail.norms import (OrliczFunction, bphi_norm, default_moment_grid,
                           equivalence_report, gls_norm_1d, gls_norm_vector,
                           luxemburg_norm, odot, psi_moment_vector,
                           psi_phi_even_moments, ray_probe_plan)
from exptail.specs import distribution_from_spec, young_from_spec
from exptail.vectors import bisect_rows
from exptail.young import make_custom, make_logcosh, make_quadratic

GAUSS_MGF_2D = lambda L: 0.5 * np.sum(np.atleast_2d(L) ** 2, axis=-1)


def _gauss_mgf(Q):
    Q = np.atleast_2d(Q)

    def f(L):
        L = np.atleast_2d(L)
        return 0.5 * np.einsum("...i,ij,...j->...", L, Q, L)

    return f


class TestBPhiNorm:
    def test_exact_gaussian_identity(self):
        est = bphi_norm(GAUSS_MGF_2D, make_quadratic(np.eye(2)))
        assert est.value == pytest.approx(1.0, rel=1e-4)

    def test_exact_gaussian_scaled_phi(self):
        est = bphi_norm(GAUSS_MGF_2D, make_quadratic(4.0 * np.eye(2)))
        assert est.value == pytest.approx(0.5, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_homogeneity(self, alpha):
        phi = make_quadratic(np.eye(2))
        base = bphi_norm(GAUSS_MGF_2D, phi).value
        scaled_mgf = lambda L: GAUSS_MGF_2D(np.atleast_2d(L) * alpha)
        got = bphi_norm(scaled_mgf, phi).value
        assert got == pytest.approx(alpha * base, rel=3e-4)

    def test_cap_exceeded_flag(self):
        # MGF infinite beyond a finite radius (exponential-tailed law): no
        # full-support quadratic envelope can hold it
        def mgf(L):
            a = np.abs(np.atleast_2d(L))[..., 0]
            return np.where(a < 0.5, a * a, np.inf)

        est = bphi_norm(mgf, make_quadratic([[1.0]]), tau_max=1e3)
        assert est.exceeded_cap and est.value == math.inf

    def test_zero_mgf(self):
        est = bphi_norm(lambda L: np.zeros(np.atleast_2d(L).shape[0]),
                        make_quadratic(np.eye(2)))
        assert est.value == 0.0

    def test_bracket_and_residual(self):
        est = bphi_norm(GAUSS_MGF_2D, make_quadratic(np.eye(2)))
        assert est.bracket[0] <= est.value <= est.bracket[1] + 1e-15
        assert est.residual <= 1e-9

    def test_d1_plan_and_bounded_phi(self):
        from exptail.young import make_bounded_support
        # 1-D gaussian mgf against the bounded-support family: probes with
        # tau*lam past the edge count as +inf, so the predicate stays monotone
        phi = make_bounded_support(1.0, 1.0)
        mgf = lambda L: 0.5 * np.atleast_2d(L)[..., 0] ** 2
        est = bphi_norm(mgf, phi)
        assert math.isfinite(est.value) and est.value > 0
        # certified: every probe satisfied at the reported value
        assert est.residual <= 1e-9

    def test_triangle_inequality_closed_form(self):
        # independent gaussians: sum mgf is the covariance sum
        phi = make_quadratic(np.array([[1.0, 0.2], [0.2, 1.5]]))
        Q1 = np.array([[1.0, 0.3], [0.3, 0.8]])
        Q2 = np.array([[0.5, -0.1], [-0.1, 1.2]])
        n1 = bphi_norm(_gauss_mgf(Q1), phi).value
        n2 = bphi_norm(_gauss_mgf(Q2), phi).value
        ns = bphi_norm(_gauss_mgf(Q1 + Q2), phi).value
        assert ns <= n1 + n2 + 2e-4 * (n1 + n2)

    def test_rearrangement_invariance(self):
        phi = make_quadratic(np.eye(2))
        vals = []
        for seed in range(5):
            s = sample(Gaussian(np.eye(2)), 50_000, seed=seed)
            vals.append(bphi_norm(natural_function(s), phi,
                                  plan=ray_probe_plan(2, 16, n_radii=10)).value)
        width = 5.0 / math.sqrt(50_000)     # MC width of one estimate
        assert max(vals) - min(vals) <= 3.0 * (2.0 * width)

    def test_negation_invariance(self):
        s = sample(Gaussian(np.eye(2)), 30_000, seed=3)
        phi = make_quadratic(np.eye(2))
        plan = ray_probe_plan(2, 16, n_radii=10)
        a = bphi_norm(natural_function(s), phi, plan=plan).value
        from exptail.empirical import SampleSet
        neg = SampleSet(-s.data, s.seed, s.distribution_tag)
        b = bphi_norm(natural_function(neg), phi, plan=plan).value
        assert a == b

    def test_sum_rule_vs_odot(self):
        # independent gaussians under quadratic phi: ||xi+eta|| <= odot of norms
        phi = make_quadratic(np.eye(2))
        Q1, Q2 = 1.5 * np.eye(2), 0.7 * np.eye(2)
        n1 = bphi_norm(_gauss_mgf(Q1), phi).value
        n2 = bphi_norm(_gauss_mgf(Q2), phi).value
        ns = bphi_norm(_gauss_mgf(Q1 + Q2), phi).value
        assert ns <= odot(n1, n2, phi) + 1e-3


class TestOdot:
    def test_zero_unit(self):
        phi = make_quadratic(np.eye(2))
        assert odot(0.0, 5.0, phi) == 5.0
        assert odot(5.0, 0.0, phi) == 5.0

    def test_quadratic_pythagoras(self):
        phi = make_quadratic(np.eye(2))
        assert odot(3.0, 4.0, phi) == pytest.approx(5.0, rel=1e-5)

    def test_homogeneity(self):
        phi = make_quadratic(np.eye(2))
        assert odot(6.0, 8.0, phi) == pytest.approx(2.0 * odot(3.0, 4.0, phi),
                                                    rel=1e-5)

    def test_commutative(self):
        phi = make_logcosh(1)
        assert odot(2.0, 3.0, phi) == pytest.approx(odot(3.0, 2.0, phi),
                                                    rel=1e-9)

    def test_bounded_support_bracket(self):
        from exptail.young import make_bounded_support
        phi = make_bounded_support(1.0, 1.0)
        c = odot(1.0, 2.0, phi)
        assert 2.0 <= c <= 3.0 + 1e-9
        assert c == pytest.approx(odot(2.0, 1.0, phi), rel=1e-9)


class TestGls1d:
    def test_gaussian_ratio_bounded(self):
        # exact normal absolute moments: |xi|_p = 2^(1/2) (Gamma((p+1)/2)/sqrt(pi))^(1/p)
        def moments(p):
            return math.sqrt(2.0) * (gamma_fn((p + 1) / 2) / math.sqrt(math.pi)) ** (1 / p)

        psi = lambda p: math.sqrt(p / 2.0)
        grid = [2.0 * 2**k for k in range(6)]   # 2..64
        est = gls_norm_1d(moments, psi, grid)
        assert est.value <= 2.1
        assert est.extras["achieved_p"] in grid

    def test_zero_variable(self):
        est = gls_norm_1d(lambda p: 0.0, lambda p: math.sqrt(p), [2, 4, 8])
        assert est.value == 0.0

    def test_scaling_exact(self):
        moments = lambda p: math.sqrt(p)
        psi = lambda p: 1.0
        a = gls_norm_1d(moments, psi, [2, 4]).value
        b = gls_norm_1d(lambda p: 3.0 * moments(p), psi, [2, 4]).value
        assert b == pytest.approx(3.0 * a, rel=1e-12)


class TestPsiPhi:
    def test_closed_form_m2(self):
        # phi = lam^2/2: psi(2) = 4 exp(-(2 ln 4 - 2)/4) = 2 sqrt(e)
        phi = make_quadratic([[1.0]])
        got = psi_phi_even_moments(phi, 2)
        assert got == pytest.approx(2.0 * math.exp(0.5), rel=1e-6)

    def test_monotone_in_m(self):
        phi = make_quadratic([[1.0]])
        vals = [psi_phi_even_moments(phi, m) for m in range(1, 33)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestGlsVector:
    def test_d1_reduction_form(self):
        # psi_Phi(r) in d=1 equals e^-1 2^(1/r) r exp(-Phi*(r)/r)
        phi = make_quadratic([[1.0]])
        r = 4.0
        star = log_reparam_conjugate(phi, r)
        want = math.exp(-1.0) * 2 ** (1 / r) * r * math.exp(-star / r)
        assert psi_moment_vector(phi, [r]) == pytest.approx(want, rel=1e-8)

    def test_nan_order_is_rejected(self):
        with pytest.raises(ParameterError):
            psi_moment_vector(make_quadratic(np.eye(2)), [2.0, math.nan])
        with pytest.raises(ParameterError):
            psi_phi_even_moments(make_quadratic([[1.0]]), math.nan)

    def test_batch_row_equals_lone_call(self):
        phi = make_quadratic([[1.0, 0.5], [0.5, 1.0]])
        R = np.array(default_moment_grid(2))
        lone = [psi_moment_vector(phi, r) for r in R]
        assert isinstance(lone[0], float)
        assert psi_moment_vector(phi, R).tolist() == lone

    def test_zero_variable(self):
        phi = make_quadratic(np.eye(2))
        est = gls_norm_vector(lambda r: 0.0, phi)
        assert est.value == 0.0

    def test_gaussian_certifies_direction(self):
        # measured moment norm stays below the generating-function norm (= 1)
        s = sample(Gaussian(np.eye(2)), 100_000, seed=17)
        phi = make_quadratic(np.eye(2))
        est = gls_norm_vector(lambda r: vector_moment(s, r), phi)
        assert est.value <= 1.1


class TestLuxemburg:
    def test_zero_samples(self):
        from exptail.empirical import CenteredCustom
        s = sample(CenteredCustom(lambda n, rng: np.zeros((n, 1)), 1, "zero"),
                   50, seed=0)
        N = OrliczFunction(make_quadratic([[1.0]]))
        assert luxemburg_norm(s, N).value == 0.0

    def test_rademacher_closed_form(self):
        # |xi| = 1 a.s.: E N(xi/c) = e^(1/(2 c^2)) - 1 = 1 at c = 1/sqrt(2 ln 2)
        s = sample(RademacherScaled(1.0, 1), 64, seed=5)
        N = OrliczFunction(make_quadratic([[1.0]]))
        est = luxemburg_norm(s, N, rel_tol=1e-6)
        assert est.value == pytest.approx(1.0 / math.sqrt(2.0 * math.log(2.0)),
                                          rel=1e-4)

    def test_homogeneity(self):
        s = sample(Gaussian([[1.0]]), 2000, seed=6)
        N = OrliczFunction(make_quadratic([[1.0]]))
        a = luxemburg_norm(s, N, rel_tol=1e-5).value
        b = luxemburg_norm(s.scaled(2.0), N, rel_tol=1e-5).value
        assert b == pytest.approx(2.0 * a, rel=1e-3)

    def test_orlicz_function_shape(self):
        N = OrliczFunction(make_quadratic([[1.0]]))
        assert N(np.array([0.0])) == 0.0
        u = np.linspace(-2, 2, 9)[:, None]
        vals = N.values(u)
        assert np.all(vals >= 0.0)
        assert np.allclose(vals, N.values(-u), rtol=1e-8, atol=1e-12)


def _cold_luxemburg(data, N, rel_tol=1e-4):
    """The Luxemburg bisection with every conjugation started cold."""
    def ok(c, rows):
        if c[0] == 0.0:
            return np.array([False])
        mean = float(np.mean(N.values(data / c[0])))
        return np.array([math.isfinite(mean) and mean <= 1.0])

    lo, hi = bisect_rows(ok, 0.0, float(np.max(np.abs(data))), rel_tol, 1e6)
    return float(lo[0]), float(hi[0])


class TestLuxemburgWarmStart:
    # the logcosh case diverges on the rows with |xi / c| > 1; warm-started
    # on every step, with no cold re-solve of those rows, it fits about 3.22
    # instead of 3.5689
    @pytest.mark.parametrize("phi_spec, dist_spec", [
        ("quadratic{B=[[1,0],[0,1]]}", "gaussian{Q=[[1,0.5],[0.5,1]]}"),
        ("power{p=4,c=1,d=2}", "gaussian{Q=[[1,0],[0,1]]}"),
        ("logcosh{d=1}", "gaussian{Q=[[1]]}"),
        ("bounded{K=2}", "gaussian{Q=[[1]]}"),
    ])
    def test_warm_equals_cold(self, phi_spec, dist_spec):
        s = sample(distribution_from_spec(dist_spec), 20_000, seed=1)
        N = OrliczFunction(young_from_spec(phi_spec))
        est = luxemburg_norm(s, N, subsample=4000)
        lo, hi = _cold_luxemburg(s.data[:4000], N)
        assert est.value == hi
        assert est.bracket == (lo, hi)


# the scales a Luxemburg bisection conjugates at, in order, on the first
# 300 draws of gaussian{Q=[[1]]} (seed 1), as the scalar doubling and
# halving search before bisect_rows gave them
_LUX_SCALES = {
    # every step below max |xi| = 3.5689 meets diverged rows
    "logcosh{d=1}": [
        3.568859987755531, 1.7844299938777655, 2.6766449908166483,
        3.1227524892860896, 3.3458062385208103, 3.4573331131381706,
        3.5130965504468508, 3.540978269101191, 3.554919128428361,
        3.561889558091946, 3.5653747729237386, 3.567117380339635,
        3.5679886840475827, 3.5684243359015566, 3.568642161828544],
    # doubles once, then bisects [0, 2 max |xi|] from its midpoint
    "quadratic{B=[[0.1]]}": [
        3.568859987755531, 7.137719975511062, 3.568859987755531,
        5.353289981633297, 4.461074984694414, 4.014967486224973,
        3.791913736990252, 3.6803868623728917, 3.624623425064211,
        3.6525051437185514, 3.6385642843913812, 3.6455347140549663,
        3.642049499223174, 3.6403068918072776, 3.6394355880993294,
        3.6398712399533037, 3.6400890658802907],
}


class TestLuxemburgScales:
    @pytest.mark.parametrize("phi_spec", sorted(_LUX_SCALES))
    def test_conjugates_at_the_same_scales_never_at_zero(self, phi_spec):
        s = sample(Gaussian([[1.0]]), 300, seed=1)
        N = OrliczFunction(young_from_spec(phi_spec))
        seen = []
        values = N.values

        def recording(U):
            seen.append(np.array(U))
            return values(U)

        N.values = recording
        est = luxemburg_norm(s, N)
        want = _LUX_SCALES[phi_spec]
        assert len(seen) == len(want)
        for U, c in zip(seen, want):
            assert np.array_equal(U, s.data / c)
        assert est.bracket == (want[-1], est.value)


class TestLuxemburgExactSeeds:
    def test_equivalence_steps_stay_on_exact_seeds(self, monkeypatch):
        # the equivalence workload's Luxemburg norm: every row of every
        # bisection step starts at its exact maximizer, so none is
        # ray-seeded or gridded, and a custom copy of the quadratic given
        # its grad_inverse has the built-in's norm bit for bit
        s = sample(distribution_from_spec("gaussian{Q=[[1,0.5],[0.5,1]]}"),
                   20_000, seed=1)
        phi = young_from_spec("quadratic{B=[[1,0],[0,1]]}")
        searched = []
        for name in ("_search", "_grid_stage"):
            def counted(self, *args, inner=getattr(ConjugateEvaluator, name),
                        name=name):
                searched.append(name)
                return inner(self, *args)

            monkeypatch.setattr(ConjugateEvaluator, name, counted)
        est = luxemburg_norm(s, OrliczFunction(phi), subsample=4000)
        assert searched == []
        custom = make_custom(2, phi.value_ext, gradient=phi.grad,
                             hessian_at_origin=phi.hessian_at_origin,
                             grad_inverse=phi.grad_inverse)
        got = luxemburg_norm(s, OrliczFunction(custom), subsample=4000)
        assert (got.value, got.bracket) == (est.value, est.bracket)


class TestEquivalenceReport:
    def test_gaussian_all_finite_ratios_in_band(self):
        s = sample(Gaussian(np.eye(2)), 60_000, seed=19)
        rep = equivalence_report(s, make_quadratic(np.eye(2)),
                                 plan=ray_probe_plan(2, 16, n_radii=10))
        assert math.isfinite(rep.bphi.value)
        assert math.isfinite(rep.gls.value)
        assert math.isfinite(rep.luxemburg.value)
        assert not any(f.startswith("ratio_outside") for f in rep.flags)

    def test_scaling_leaves_ratios_invariant(self):
        s = sample(Gaussian(np.eye(2)), 30_000, seed=23)
        phi = make_quadratic(np.eye(2))
        plan = ray_probe_plan(2, 16, n_radii=10)
        r1 = equivalence_report(s, phi, plan=plan)
        r2 = equivalence_report(
            type(s)(s.data * 2.0, s.seed, s.distribution_tag), phi, plan=plan)
        for key in r1.ratios:
            assert r2.ratios[key] == pytest.approx(r1.ratios[key], rel=0.02)

    def test_exponential_tails_flagged(self, monkeypatch):
        # weibull p=1 has an MGF blowing up at finite lam: heavy probe
        # discarding marks suspected non-membership for a quadratic envelope;
        # bphi_norm and the low-trust flag share one default plan
        plans = []

        def counted(*args, **kwargs):
            plans.append(args)
            return ray_probe_plan(*args, **kwargs)

        monkeypatch.setattr(norms_module, "ray_probe_plan", counted)
        s = sample(SymmetricWeibull(1.0, 1.0, 1), 60_000, seed=29)
        rep = equivalence_report(s, make_quadratic([[1.0]]))
        assert plans == [(1,)]
        assert rep.bphi.trust_flags > 0
        assert any(f in ("bphi_low_trust", "exceeds_cap") for f in rep.flags)


class TestSumCertificateGate:
    def test_missing_certificate_rejected(self):
        from exptail.bounds import SumSpec, sum_norm_pythagoras
        from exptail.young import CheckResult
        phi = make_quadratic(np.eye(2))
        bad = CheckResult(False, None, 10, 0, "")
        with pytest.raises(MissingCertificateError):
            sum_norm_pythagoras(SumSpec((1.0, 1.0), 2), phi, bad)
