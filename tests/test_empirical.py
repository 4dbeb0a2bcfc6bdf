import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from exptail import empirical
from exptail.empirical import (CenteredCustom, EmpiricalNaturalFunction,
                               Gaussian, RademacherScaled, SymmetricWeibull,
                               UniformBox, _logcosh_expectation,
                               _weibull_grid, analytic_natural_function,
                               empirical_variance, min_coordinate_tail,
                               SampleSet, natural_function, sample,
                               sample_sum, tail_function, vector_moment)
from exptail.errors import ParameterError
from exptail.norms import ray_probe_plan
from exptail.vectors import EXP_FLOOR, enumerate_sign_vectors, log_cosh
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


def _log_sum_exp(t):
    return t.max() + np.log(np.exp(t - t.max()).sum())


def _oracle_natural(nat, pts):
    """The plain definition: for each sign flip of each point, the float64
    log-mean-exp over all samples; each point keeps its largest flip. A flip
    is a row of a two-row product, a gemm as in the kernel's blocks."""
    data = nat._data
    log_n = math.log(data.shape[0])
    best = np.full(pts.shape[0], -np.inf)
    best_share = np.full(pts.shape[0], np.inf)
    for eps in enumerate_sign_vectors(data.shape[1]):
        for i, p in enumerate(pts * eps):
            t = (np.stack([p, p]) @ data.T)[0]
            lse = _log_sum_exp(t)
            if lse - log_n > best[i]:
                best[i], best_share[i] = lse - log_n, np.exp(t.max() - lse)
    return np.maximum(best, 0.0), best_share <= 0.1


def _long_double_natural(nat, pts):
    """Values and top-term shares in long double. Only the flips within 1e-8
    of a point's best flip in plain float64 are summed in long double: those
    float64 values are good to about 1e-13, so no other flip can be best."""
    data = nat._data
    wide = data.astype(np.longdouble)
    log_n = np.log(np.longdouble(data.shape[0]))
    flips = pts[:, None, :] * enumerate_sign_vectors(data.shape[1])
    rough = np.array([[_log_sum_exp(data @ f) for f in row] for row in flips])
    vals = np.full(pts.shape[0], -np.inf, dtype=np.longdouble)
    share = np.empty(pts.shape[0], dtype=np.longdouble)
    for i, row in enumerate(flips):
        for f in row[rough[i] >= rough[i].max() - 1e-8]:
            t = wide @ f.astype(np.longdouble)
            lse = _log_sum_exp(t)
            if lse - log_n > vals[i]:
                vals[i], share[i] = lse - log_n, np.exp(t.max() - lse)
    return np.maximum(vals, 0.0), share


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

    def test_matches_long_double_reference(self, kernel_nat):
        # the default plan and trust_radius's radii, which reach |lam| = 0.01
        d = kernel_nat.dimension
        radii = np.geomspace(1e-2, 64.0, 48)
        pts = np.concatenate([ray_probe_plan(d).points,
                              radii[:, None] * np.ones((1, d)) / math.sqrt(d)])
        vals, trusted = kernel_nat.evaluate_with_trust(pts)
        want_vals, want_share = _long_double_natural(kernel_nat, pts)
        want_vals = want_vals.astype(float)
        assert np.all(np.abs(vals - want_vals) <= 1e-10 * np.abs(want_vals))
        assert np.array_equal(trusted, want_share <= 0.1)

    @pytest.mark.parametrize("m", [1, 7, 925])
    def test_batch_split(self, m):
        nat = natural_function(sample(Gaussian(np.eye(2)), 20_000, 14))
        pts = ray_probe_plan(2).points[:m]
        whole_vals, whole_trusted = nat._evaluate_part(pts)
        for parts in sorted({2, 3, m}):
            done = [nat._evaluate_part(pts[i * m // parts:(i + 1) * m // parts])
                    for i in range(parts)]
            # a part's flips sit in other blocks than in the whole, which
            # round each row alike
            assert np.array_equal(np.concatenate([v for v, _ in done]),
                                  whole_vals)
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

    @pytest.mark.parametrize("dist, n", [
        (Gaussian([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 2.0]]),
         20_000),
        (Gaussian([[1.0, 0.5], [0.5, 1.0]]), 250_000)],
        ids=["gaussian_d3", "gaussian_d2_one_row_blocks"])
    def test_lone_point_equals_batch_of_flips(self, dist, n):
        # d = 3 gives 8 flip rows a point; n = 250k gives blocks of 1 row
        nat = natural_function(sample(dist, n, 5))
        assert nat._block_rows == (6 if n == 20_000 else 1)
        pts = ray_probe_plan(dist.dimension).points[::97]
        vals, trusted = nat.evaluate_with_trust(pts)
        assert np.array_equal(vals, _oracle_natural(nat, pts)[0])
        for p, v, t in zip(pts, vals, trusted):
            assert nat.evaluate_with_trust(p) == (v, t)
            row_vals, row_trusted = nat.evaluate_with_trust(p[None, :])
            assert row_vals[0] == v and row_trusted[0] == t

    def test_non_finite_point_is_nan_and_untrusted(self):
        # the per-flip `>` selection skipped NaN and read 0, trusted
        nat = natural_function(sample(Gaussian(np.eye(2)), 2000, 1))
        pts = np.array([[np.inf, 0.0], [np.nan, 1.0], [1.0, 1.0]])
        with np.errstate(invalid="ignore"):
            vals, trusted = nat.evaluate_with_trust(pts)
        assert np.all(np.isnan(vals[:2])) and not np.any(trusted[:2])
        assert vals[2] == nat.evaluate(pts[2]) and trusted[2]

    @pytest.mark.parametrize("m", [1, 64])
    def test_non_finite_point_raises_no_warning(self, m):
        # inf - inf in the kernel warned; a non-finite point never reaches
        # it, so a caller needs no errstate
        nat = natural_function(sample(Gaussian(np.eye(2)), 2000, 1))
        pts = np.geomspace(0.05, 3.0, m)[:, None] * np.array([[1.0, -0.5]])
        pts[0] = [np.inf, 0.0]
        if m > 1:
            pts[[m // 2, m - 1]] = [[np.nan, 1.0], [1.0, -np.inf]]
        ok = np.all(np.isfinite(pts), axis=1)
        vals, trusted = nat.evaluate_with_trust(pts)
        assert np.all(np.isnan(vals[~ok])) and not np.any(trusted[~ok])
        if ok.any():
            want_vals, want_trusted = nat.evaluate_with_trust(pts[ok])
            assert np.array_equal(vals[ok], want_vals)
            assert np.array_equal(trusted[ok], want_trusted)

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


#: trust_radius's radii
TRUST_RADII = np.geomspace(1e-2, 64.0, 48)


def _ray_points(dirs, radii):
    """radii x directions, direction-major, as ray_probe_plan orders them."""
    return (dirs[:, None, :] * radii[None, :, None]).reshape(-1, dirs.shape[1])


@pytest.fixture(scope="module")
def kernel_rays(kernel_nat):
    """The default plan's rays and trust_radius's ray along the diagonal,
    with long-double values and top-term shares at their points."""
    d = kernel_nat.dimension
    plan = ray_probe_plan(d)
    rays = [(plan.directions, plan.radii),
            (np.ones((1, d)) / math.sqrt(d), TRUST_RADII)]
    return [(dirs, radii, *_long_double_natural(kernel_nat,
                                                 _ray_points(dirs, radii)))
            for dirs, radii in rays]


class TestRayKernel:
    """``evaluate_with_trust(directions, radii=radii)``: binned Taylor sums
    along each direction's sign-flip rows."""

    def test_plan_keeps_its_rays(self):
        plan = ray_probe_plan(2)
        assert np.array_equal(plan.points,
                              _ray_points(plan.directions, plan.radii))

    def test_matches_long_double_reference(self, kernel_nat, kernel_rays):
        for dirs, radii, want_vals, want_share in kernel_rays:
            vals, trusted = kernel_nat.evaluate_with_trust(dirs, radii=radii)
            want_vals = want_vals.astype(float)
            assert np.all(np.abs(vals - want_vals)
                          <= 1e-10 * np.abs(want_vals))
            assert np.array_equal(trusted, want_share <= 0.1)

    @pytest.mark.parametrize("dist", [
        Gaussian(np.eye(2)), RademacherScaled(1.0, 1),
        SymmetricWeibull(4.0, 1.0, 2),
        Gaussian([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 2.0]])],
        ids=["gaussian_d2", "rademacher_d1", "weibull4_d2", "gaussian_d3"])
    def test_value_does_not_depend_on_batch(self, dist):
        nat = natural_function(sample(dist, 20_000, 14))
        plan = ray_probe_plan(dist.dimension)
        dirs = plan.directions
        # 0, a radius per level and two past the binned range
        radii = np.concatenate([plan.radii, [0.0, 1e-3, 0.3, 64.0, 70.0]])
        vals, trusted = nat.evaluate_with_trust(dirs, radii=radii)
        vals = vals.reshape(len(dirs), -1)
        trusted = trusted.reshape(vals.shape)
        for j in range(0, len(dirs), 7):
            alone = nat.evaluate_with_trust(dirs[j], radii=radii)
            assert np.array_equal(alone[0], vals[j])
            assert np.array_equal(alone[1], trusted[j])
            for k in range(len(radii)):
                v, t = nat.evaluate_with_trust(dirs[j], radii=radii[k:k + 1])
                assert v[0] == vals[j, k] and t[0] == trusted[j, k]
        some_vals, some_trusted = nat.evaluate_with_trust(dirs[1::3],
                                                          radii=radii[::2])
        assert np.array_equal(some_vals.reshape(-1, len(radii[::2])),
                              vals[1::3, ::2])
        assert np.array_equal(some_trusted.reshape(-1, len(radii[::2])),
                              trusted[1::3, ::2])

    @pytest.mark.parametrize("law", sorted(KERNEL_LAWS) + ["near_outlier"])
    def test_base_bins_are_merged_level0_bins(self, law):
        # a row binned straight at the base level has the bins, bounds and,
        # up to rounding, the moments of its level-0 bins merged up to it
        if law == "near_outlier":
            data = sample(Gaussian(np.eye(2)), 20_000, 14).data.copy()
            data[123] = [30.0, -4.0]
            nat = natural_function(SampleSet(data, 14, "outlier"))
        else:
            nat = natural_function(sample(KERNEL_LAWS[law], 20_000, 14))
        base = empirical._RAY_BASE
        # |t - c| <= half a bin width, so |Q[k, b]| <= Q[0, b] half^k / k!
        half = empirical._RAY_BIN * 2.0 ** (base - 1)
        bound = np.array([half ** k / math.factorial(k)
                          for k in range(empirical._RAY_TERMS)])[:, None]
        for u in ray_probe_plan(nat.dimension).directions[::5]:
            for (start, Q, t_max, t_min), (first, want, top, bottom) in zip(
                    nat._ray_rows(u, 0), nat._ray_rows(u, base), strict=True):
                starts, lengths = np.array([start]), np.array([Q.shape[1]])
                for level in range(1, base + 1):
                    Q, starts, lengths = empirical._merge_bins(
                        Q, starts, lengths, level)
                assert (starts[0], lengths[0]) == (first, want.shape[1])
                assert (t_max, t_min) == (top, bottom)
                assert np.array_equal(Q[0], want[0])
                assert np.all(np.abs(Q - want) <= 1e-12 * bound * want[0])

    def test_each_direction_binned_once_per_base(self, monkeypatch):
        # every radius of the default plan is served at level 4 or coarser,
        # so each direction is binned once, at level 4; radii either side
        # of 4 bin it once at each base
        ray_rows, bases = EmpiricalNaturalFunction._ray_rows, []

        def recorded(self, u, base):
            bases.append((tuple(u), base))
            return ray_rows(self, u, base)

        monkeypatch.setattr(EmpiricalNaturalFunction, "_ray_rows", recorded)
        nat = natural_function(sample(Gaussian(np.eye(2)), 20_000, 14))
        plan = ray_probe_plan(2)
        dirs = plan.directions
        nat.evaluate_with_trust(dirs, radii=plan.radii)
        assert bases == [(tuple(u), empirical._RAY_BASE) for u in dirs]
        bases.clear()
        nat.evaluate_with_trust(dirs[:3], radii=[4.0, np.nextafter(4.0, 5.0)])
        assert sorted(bases) == sorted((tuple(u), base) for u in dirs[:3]
                                       for base in (0, empirical._RAY_BASE))

    @pytest.mark.parametrize("dist, bases", [
        (SymmetricWeibull(1.0, 1.0, 1), [empirical._RAY_BASE]),
        (Gaussian([[1.0]]), [empirical._RAY_BASE, 0])],
        ids=["weibull1_d1", "gaussian_d1"])
    def test_trust_radius_bins_level0_only_when_needed(self, dist, bases,
                                                       monkeypatch):
        # trust radius 0.88 for the Weibull law, 3.90 for the Gaussian one,
        # whose radii up to 4 are all trusted; either way the answer is that
        # of one call over all 48 radii, and tabulated_young's grid reuses
        # the rows trust_radius binned
        src = sample(dist, 20_000, 14)
        _, flags = natural_function(src).evaluate_with_trust(
            np.ones(1), radii=TRUST_RADII)
        near = flags[TRUST_RADII <= 4.0]
        assert near.all() == (len(bases) == 2) and not flags.all()
        ray_rows, binned = EmpiricalNaturalFunction._ray_rows, []

        def recorded(self, u, base):
            binned.append(base)
            return ray_rows(self, u, base)

        monkeypatch.setattr(EmpiricalNaturalFunction, "_ray_rows", recorded)
        nat = natural_function(src)
        lam_max = nat.trust_radius(np.ones(1))
        assert lam_max == TRUST_RADII[max(int(np.argmin(flags)) - 1, 0)]
        assert binned == bases
        phi = nat.tabulated_young()
        assert binned == bases and phi.params["lam_max"] == lam_max
        grid = np.linspace(0.0, lam_max, 1025)
        want, _ = natural_function(src).evaluate_with_trust(np.ones(1),
                                                            radii=grid)
        assert np.array_equal(phi.value(grid[1:-1, None]),
                              np.maximum(want[1:-1], 0.0))

    @pytest.mark.parametrize("outlier", [None, [30.0, -4.0], [200.0, 0.0],
                                         [1e4, -1e4]],
                             ids=["no_outlier", "near_outlier",
                                  "level0_wide_outlier", "far_outlier"])
    def test_matches_direct_kernel(self, outlier):
        # radii past 64 and a sample with one outlier, which widens every
        # row's span of bins: the one at 200 past the sample count at level
        # 0 (25,600 bins along [1, 0]) but not at level 4 (1,600), the far
        # one at both
        data = sample(Gaussian(np.eye(2)), 20_000, 14).data.copy()
        if outlier is not None:
            data[123] = outlier
        nat = natural_function(SampleSet(data, 14, "outlier"))
        dirs = ray_probe_plan(2).directions[::4]
        radii = np.array([0.05, 1.0, 4.0, 4.5, 50.0, 64.0, 64.5, 100.0,
                          300.0])
        wide = {base: [nat._ray_rows(u, base) is None for u in dirs]
                for base in (0, empirical._RAY_BASE)}
        if outlier == [200.0, 0.0]:
            assert any(wide[0]) and not any(wide[empirical._RAY_BASE])
        direct, sent = nat._evaluate_part, []

        def recorded(pts):
            sent.append(pts)
            return direct(pts)

        nat._evaluate_part = recorded
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, trusted = nat.evaluate_with_trust(dirs, radii=radii)
            del nat._evaluate_part
            want_vals, want_trusted = nat.evaluate_with_trust(
                _ray_points(dirs, radii))
        assert np.all(np.abs(vals - want_vals) <= 1e-10 * np.abs(want_vals))
        assert np.array_equal(trusted, want_trusted)
        # the point kernel gets radii past 64 and those whose direction is
        # too wide at their base level: 4 for |r| <= 4, else 0
        routed = [r * u for j, u in enumerate(dirs) for r in radii
                  if r > 64.0 or wide[empirical._RAY_BASE if r <= 4.0
                                      else 0][j]]
        assert np.array_equal(np.concatenate(sent), np.array(routed))

    def test_non_finite_direction_or_radius(self):
        nat = natural_function(sample(Gaussian(np.eye(2)), 2000, 1))
        dirs = np.array([[1.0, 0.0], [np.nan, 1.0], [np.inf, 0.0],
                         [0.6, -0.8]])
        radii = np.array([0.5, np.nan, np.inf, -np.inf, 2.0, 100.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, trusted = nat.evaluate_with_trust(dirs, radii=radii)
        vals = vals.reshape(4, 6)
        trusted = trusted.reshape(4, 6)
        ok = np.isfinite(dirs).all(axis=1)[:, None] & np.isfinite(radii)
        assert np.all(np.isnan(vals[~ok])) and not np.any(trusted[~ok])
        want_vals, want_trusted = nat.evaluate_with_trust(
            dirs[[0, 3]], radii=radii[[0, 4, 5]])
        assert np.array_equal(vals[ok], want_vals)
        assert np.array_equal(trusted[ok], want_trusted)

    def test_default_plan_peak_memory(self):
        nat = natural_function(sample(Gaussian(np.eye(2)), 20_000, 14))
        plan = ray_probe_plan(2)
        tracemalloc.start()
        try:
            nat.evaluate_with_trust(plan.directions, radii=plan.radii)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("shape", [(0, 2), (3, 2)])
    def test_empty_batch(self, shape):
        nat = natural_function(sample(Gaussian(np.eye(2)), 1000, 3))
        radii = np.geomspace(0.1, 1.0, 4)[:1 if shape[0] == 0 else 0]
        vals, trusted = nat.evaluate_with_trust(np.ones(shape), radii=radii)
        assert vals.shape == trusted.shape == (0,)
        assert trusted.dtype == bool


class TestAnalyticNaturalFunction:
    def test_gaussian_mgf_rows_equal_lone_queries(self):
        f = Gaussian([[1.0, 0.5], [0.5, 1.0]]).mgf_log()
        lam = np.random.default_rng(9).uniform(-4.0, 4.0, (300, 2))
        vals = f(lam)
        assert all(f(row)[0] == v for row, v in zip(lam, vals))

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

    def test_uniform_mgf_is_inf_past_overflow(self):
        # log(sinh a / a) grows like a - log(2a): +inf once a overflows
        f = UniformBox([2.0]).mgf_log()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = f(np.array([[np.inf], [1e308], [-1e308], [1e305]]))
        assert np.all(vals[:3] == np.inf)
        assert vals[3] == pytest.approx(2e305, rel=1e-15)


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
        from exptail.vectors import EXP_FLOOR, enumerate_sign_vectors
        for eps in enumerate_sign_vectors(2):
            total += np.mean(np.all(gauss2_sample.data * eps > y, axis=1))
        got = min_coordinate_tail(gauss2_sample, y).probability
        assert total == pytest.approx(got, abs=1e-12)


def _tail_reference(s, x):
    """The joint-exceedance formula the column-wise count replaced."""
    best = 0.0
    for eps in enumerate_sign_vectors(s.dimension):
        best = max(best, float(np.mean(np.all(s.data * eps > x, axis=1))))
    return best


def _min_tail_reference(s, y):
    return float(np.mean(np.all(np.abs(s.data) > y, axis=1)))


class TestColumnwiseTailCount:
    """tail_function and min_coordinate_tail count hits column by column;
    the probabilities equal the np.all / np.mean formulas bit for bit."""

    @staticmethod
    def _samples(d):
        return [sample(Gaussian(np.eye(d)), 3001, seed=d),
                sample(RademacherScaled(1.0, d), 2000, seed=d)]

    @staticmethod
    def _thresholds(s):
        # ties at the coordinates of sample rows, 0, a far threshold, and
        # rows that mix a tie, 0 and 1e3
        ties = np.abs(s.data[[0, 1, s.n // 2, s.n - 1]])
        d = s.dimension
        mixed = ties[0].copy()
        mixed[0] = 0.0
        if d > 1:
            mixed[-1] = 1e3
        return [*ties, np.zeros(d), np.full(d, 1e3), mixed]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tail_function_equals_reference(self, d):
        for s in self._samples(d):
            for x in self._thresholds(s):
                got = tail_function(s, x)
                want = _tail_reference(s, x)
                assert got.probability == want
                assert got.half_width == empirical._binomial_half_width(
                    want, s.n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_min_coordinate_tail_equals_reference(self, d):
        for s in self._samples(d):
            ys = [float(v) for v in np.abs(s.data[[0, 1, s.n - 1], 0])]
            for y in ys + [1e-300, 1e3]:
                got = min_coordinate_tail(s, y)
                want = _min_tail_reference(s, y)
                assert got.probability == want
                assert got.half_width == empirical._binomial_half_width(
                    want, s.n)

    def test_min_coordinate_tail_rejects_zero(self, gauss2_sample):
        with pytest.raises(ParameterError):
            min_coordinate_tail(gauss2_sample, 0.0)

    def test_tail_function_rejects_bad_thresholds(self, gauss2_sample):
        with pytest.raises(ParameterError):
            tail_function(gauss2_sample, [1.0, -0.5])
        with pytest.raises(ParameterError):
            tail_function(gauss2_sample, [1.0, 1.0, 1.0])


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


def _quad_logcosh(p, a):
    """log E cosh(a T) for |T| with tail exp(-t^p), by scipy quad.

    log1p of the integral of 2 sinh^2(a t / 2) against the density, which
    has no cancellation. The integrand is split at its peak and divided by
    its value there, summed in log space, so large a stays finite."""
    if a == 0.0:
        return 0.0

    def log_g(t):
        return (math.log(p) + (p - 1.0) * math.log(t) - t**p + a * t
                + 2.0 * math.log(-math.expm1(-a * t)) - math.log(2.0))

    peak = max(((p + 1.0) / p) ** (1.0 / p), (a / p) ** (1.0 / (p - 1.0)))
    top = log_g(peak)

    def g(t):
        return math.exp(log_g(t) - top) if t > 0.0 else 0.0

    total = sum(integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-13,
                               limit=200)[0]
                for lo, hi in ((0.0, peak), (peak, 4.0 * max(peak, 15.0))))
    return float(np.logaddexp(0.0, top + math.log(total)))


def _quad_weibull_mgf(p, scale, lam):
    """The oracle log-MGF of SymmetricWeibull(p, scale, d) at rows lam."""
    a = np.abs(np.atleast_2d(lam)) * scale
    terms = np.array([_quad_logcosh(p, x) for x in a.ravel()])
    return terms.reshape(a.shape).sum(axis=-1)


QUADRATURE_LAWS = [(1.5, 0.2), (2.0, 1.0), (4.0, 1.0)]
GRID_LAWS = QUADRATURE_LAWS + [(8.0, 2.0)]


def _grid_case(p, scale):
    """The grid at lam_max = 64 and 601 arguments: 0, then uniform on
    [0, 1.5 a_cap] and log-uniform on [1e-9, 1e2]."""
    t, logw = _weibull_grid(p, scale, 64.0)
    rng = np.random.default_rng(11)
    a = np.concatenate([[0.0], rng.uniform(0.0, 1.5 * 64.0 * scale, 300),
                        10.0 ** rng.uniform(-9.0, 2.0, 300)])
    return a, t, logw


def _log_cosh_weibull_mgf(p, scale, lam, lam_max=64.0):
    """log sum_k w_k cosh(a t_k) as a log-sum-exp of log_cosh plus the
    log-weights, on the grid of SymmetricWeibull.mgf_log; a reference for
    the closure on its own grid."""
    t, logw = _weibull_grid(p, scale, lam_max)
    a = np.abs(np.atleast_2d(lam)) * scale
    z = log_cosh(a.reshape(-1, 1) * t) + logw
    m = z.max(axis=1, keepdims=True)
    vals = m[:, 0] + np.log(np.sum(np.exp(z - m), axis=1))
    return vals.reshape(a.shape).sum(axis=-1)


def _full_grid_logcosh_expectation(a, t, logw):
    """log sum_k w_k cosh(a t_k) in the plain cosh form, with the up and
    down exponentials shifted by the largest; the reference."""
    at = a[:, None] * t
    m = np.max(logw + at, axis=1, keepdims=True)
    total = (np.exp(np.maximum(logw + at - m, EXP_FLOOR))
             + np.exp(np.maximum(logw - at - m, EXP_FLOOR)))
    return m[:, 0] + np.log(0.5 * total.sum(axis=1))


class TestWeibullQuadrature:
    @pytest.mark.parametrize("p, scale", [(1.0, 1.0), (1.5, 0.2), (4.0, 1.0)])
    def test_zero_is_exact(self, p, scale):
        f = SymmetricWeibull(p, scale, 1).mgf_log()
        assert f(np.zeros((1, 1)))[0] == 0.0

    @pytest.mark.parametrize("p, scale", QUADRATURE_LAWS)
    def test_matches_quad(self, p, scale):
        f = SymmetricWeibull(p, scale, 1).mgf_log(lam_max=64.0)
        lam = np.concatenate([np.geomspace(1e-6, 64.0, 49),
                              np.linspace(0.5, 63.5, 64)])[:, None]
        want = _quad_weibull_mgf(p, scale, lam)
        assert np.all(np.abs(f(lam) - want) <= 1e-9 * want)

    def test_two_coordinates_in_one_call(self):
        f = SymmetricWeibull(1.5, 0.2, 2).mgf_log(lam_max=64.0)
        lam = np.random.default_rng(3).uniform(-64.0, 64.0, (300, 2))
        lam[0] = 0.0
        new, want = f(lam), _quad_weibull_mgf(1.5, 0.2, lam)
        assert new.shape == (300,)
        assert np.all(np.abs(new - want) <= 1e-9 * want)
        # stacked leading axes give the same values as one row at a time
        stacked = f(lam.reshape(3, 100, 2))
        rows = np.array([f(row[None, :])[0] for row in lam])
        assert np.array_equal(stacked.ravel(), rows)

    @pytest.mark.parametrize("p, scale", [(1.5, 0.2), (4.0, 1.0)])
    def test_matches_log_cosh_kernel(self, p, scale):
        f = SymmetricWeibull(p, scale, 1).mgf_log(lam_max=64.0)
        lam = np.concatenate([np.linspace(0.0, 64.0, 257),
                              [-64.0, -3.0, 1e-12]])[:, None]
        new, old = f(lam), _log_cosh_weibull_mgf(p, scale, lam)
        assert np.all(np.abs(new - old) <= 1e-12 * (1.0 + np.abs(old)))


class TestQuadratureWindows:
    # every row sums over the whole grid, its window, in blocks of rows
    @pytest.mark.parametrize("p, scale", GRID_LAWS)
    def test_drift_from_full_grid(self, p, scale):
        # log1p of the sinh^2 sum differs from the cosh form by rounding
        a, t, logw = _grid_case(p, scale)
        old = _full_grid_logcosh_expectation(a, t, logw)
        new = _logcosh_expectation(a, t, logw)
        eps = np.finfo(float).eps
        assert np.all(np.abs(new - old) <= 8.0 * eps * (1.0 + np.abs(old)))

    @pytest.mark.parametrize("p, scale", GRID_LAWS)
    def test_rows_do_not_depend_on_the_batch(self, p, scale):
        a, t, logw = _grid_case(p, scale)
        a_cap = 64.0 * scale
        mixed = np.concatenate([[0.0, 1e-12, a_cap, 3.0 * a_cap], a])
        alone = [_logcosh_expectation(np.array([x]), t, logw)[0]
                 for x in mixed]
        assert np.array_equal(_logcosh_expectation(mixed, t, logw), alone)


class TestWeibullGridLimit:
    # at lam_max = 64 these grids were too coarse: p = 1.05 and 1.2 returned
    # about 0 for a log-MGF near 0.2, p = 1.5 was 34% high, and p = 1.001
    # raised a bare OverflowError
    @pytest.mark.parametrize("p", [1.001, 1.05, 1.2, 1.5])
    def test_coarse_grid_refused(self, p):
        with pytest.raises(ParameterError,
                           match=rf"p={p}\b.*lam_max=64\.0"):
            SymmetricWeibull(p, 1.0, 1).mgf_log(lam_max=64.0)

    def test_small_lam_max_accepted(self):
        f = SymmetricWeibull(1.05, 1.0, 1).mgf_log(lam_max=0.5)
        assert f(np.zeros((1, 1)))[0] == 0.0

    def test_large_p_builds_without_overflow(self):
        # 60^p overflows t**p for p above about 173; the suite turns the
        # RuntimeWarning into an error
        f = SymmetricWeibull(200.0, 1.0, 1).mgf_log()
        assert f(np.zeros((1, 1)))[0] == 0.0
        vals = f(np.linspace(0.0, 64.0, 257)[:, None])
        assert np.all(np.isfinite(vals))
        assert np.all(np.diff(vals) >= 0.0)


class TestWeibullPastLamMax:
    # the grid is sized for |lam| <= lam_max: past it the quadrature read
    # 50% low at lam = 256 for p = 1.5, scale 0.2, and NaN at lam = inf
    @pytest.mark.parametrize("p, scale", QUADRATURE_LAWS)
    def test_infinite_past_lam_max(self, p, scale):
        f = SymmetricWeibull(p, scale, 2).mgf_log(lam_max=64.0)
        lam = np.array([[np.nextafter(64.0, np.inf), 0.0], [256.0, 1.0],
                        [-1e3, -64.0], [0.5, -65.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(lam)
        assert np.array_equal(got, np.full(4, np.inf))

    @pytest.mark.parametrize("p, scale", QUADRATURE_LAWS)
    def test_infinite_arguments(self, p, scale):
        f = SymmetricWeibull(p, scale, 2).mgf_log()
        lam = np.array([[np.inf, 0.0], [-np.inf, 1.0], [np.inf, -np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(lam)
        assert np.array_equal(got, np.full(3, np.inf))

    def test_nan_stays_nan(self):
        f = SymmetricWeibull(1.5, 0.2, 2).mgf_log()
        lam = np.array([[np.nan, 0.0], [np.nan, 256.0], [np.nan, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(lam)
        assert np.all(np.isnan(got))

    @pytest.mark.parametrize("p, scale, lam_max",
                             [(1.5, 0.2, 64.0), (4.0, 1.0, 64.0),
                              (2.0, 1.0, 8.0)])
    def test_values_up_to_lam_max_unchanged(self, p, scale, lam_max):
        f = SymmetricWeibull(p, scale, 1).mgf_log(lam_max=lam_max)
        t, logw = _weibull_grid(p, scale, lam_max)
        lam = np.concatenate([np.linspace(-lam_max, lam_max, 129),
                              [0.0, 1e-12]])
        want = _logcosh_expectation(np.abs(lam) * scale, t, logw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(lam[:, None])
        assert np.array_equal(got, want)
        assert np.all(np.isfinite(got))


class TestExponentialLaw:
    # p = 1: |xi| / scale is Exp(1), and log E cosh(a T) = -log(1 - a^2),
    # whose series sum_k a^(2k) / k is the reference
    def test_closed_form(self):
        a = np.concatenate([np.geomspace(1e-6, 0.9, 40), [0.1]])
        want = np.array([math.fsum(x ** (2 * k) / k for k in range(1, 400))
                         for x in a])
        # two coordinates of scale 0.5 at a and 0
        lam = np.stack([2.0 * a, np.zeros_like(a)], axis=1)
        got = SymmetricWeibull(1.0, 0.5, 2).mgf_log()(lam)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        # at scale 1 the former quadrature read 0.009892 here, 1.6% low
        assert got[-1] == pytest.approx(0.010050335853501, rel=1e-12)

    def test_infinite_from_one(self):
        # the quadrature gave 4.84 at a = 1 and 255.3 at a = 2
        f = SymmetricWeibull(1.0, 1.0, 2).mgf_log()
        lam = np.array([[1.0, 0.0], [2.0, 0.0], [0.1, -3.0], [64.0, 64.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f(lam)
        assert np.array_equal(got, np.full(4, np.inf))


MEMO_LAWS = [(1.0, 1.0), (1.5, 0.2), (4.0, 1.0)]


def _memo(f):
    """The store of a Weibull mgf_log closure."""
    return inspect.getclosurevars(f).nonlocals["memo"]


class TestWeibullMemo:
    # the oracle is a fresh closure, whose store is empty
    @pytest.mark.parametrize("p, scale", MEMO_LAWS)
    def test_calls_equal_fresh_closures(self, p, scale):
        law = SymmetricWeibull(p, scale, 2)
        f = law.mgf_log()
        rng = np.random.default_rng(5)
        lam = rng.uniform(-64.0, 64.0, (6, 2))
        new = rng.uniform(-64.0, 64.0, 3)
        calls = [lam, lam, -lam, lam[::-1],
                 np.array([[-0.0, lam[0, 0]], [new[0], -lam[1, 1]],
                           [new[0], new[0]], [0.0, -new[1]]]),
                 np.concatenate([lam, -lam]).reshape(3, 4, 2),
                 np.array([new[2], -lam[2, 0]]),
                 rng.uniform(-64.0, 64.0, (50, 2))]
        for lam_call in calls:
            assert np.array_equal(f(lam_call), law.mgf_log()(lam_call))

    def test_repeats_and_sign_flips_skip_the_kernel(self, monkeypatch):
        rows = []

        def counted(a, t, logw):
            rows.append(a.size)
            return _logcosh_expectation(a, t, logw)

        f = SymmetricWeibull(1.5, 0.2, 2).mgf_log()
        monkeypatch.setattr(empirical, "_logcosh_expectation", counted)
        lam = np.random.default_rng(6).uniform(-64.0, 64.0, (40, 2))
        lam[1] = lam[0]
        f(lam)
        assert rows == [78]          # the repeated row is integrated once
        f(lam)
        f(-lam)
        f(np.abs(lam))
        assert rows == [78]
        f(np.concatenate([lam, [[0.5, -lam[3, 1]]]]))
        assert rows == [78, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arguments_are_not_stored(self, bad):
        law = SymmetricWeibull(1.5, 0.2, 2)
        f = law.mgf_log()
        known = np.array([[1.0, -2.0], [3.0, 4.0]])
        f(known)
        size = len(_memo(f))
        lam = np.array([[bad, 1.0], [-2.0, bad], [bad, bad]])
        for _ in range(2):
            with warnings.catch_warnings(record=True) as got_warned:
                warnings.simplefilter("always")
                got = f(lam)
            with warnings.catch_warnings(record=True) as want_warned:
                warnings.simplefilter("always")
                want = law.mgf_log()(lam)
            assert np.array_equal(got, want, equal_nan=True)
            assert ([str(w.message) for w in got_warned]
                    == [str(w.message) for w in want_warned])
            assert len(_memo(f)) == size

    def test_bounded_store(self, monkeypatch):
        monkeypatch.setattr(empirical, "_MGF_MEMO", 8)
        law = SymmetricWeibull(1.5, 0.2, 2)
        f = law.mgf_log()
        rng = np.random.default_rng(7)
        for k in range(100):
            # up to 12 new arguments, some calls more than the store holds
            lam = rng.uniform(-64.0, 64.0, (1 + k % 6, 2))
            assert np.array_equal(f(lam), law.mgf_log()(lam))
            assert len(_memo(f)) <= 8


class TestUniformBoxMgf:
    def test_extreme_arguments_are_finite_without_warning(self):
        lam = np.array([[0.0], [1e-5], [1e300], [-1e300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = UniformBox([2.0]).mgf_log()(lam)
        assert np.all(np.isfinite(vals))
        assert vals[0] == 0.0 and vals[2] == vals[3]

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
        assert np.max(np.abs(got - want) / want) <= 5e-13
