"""Random-vector sampling and empirical estimators.

Sampling is chunked with per-chunk derived seeds, so a SampleSet is a pure
function of (distribution, n, seed) regardless of how the chunks would be
scheduled. All estimators stream over sample chunks and never materialize
exponentials of the full design at once.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError
from .vectors import EXP_FLOOR, enumerate_sign_vectors, log_cosh, log_mean_exp
from .young import SupportRegion, YoungFunction, make_custom

#: Rows generated per derived-seed chunk.
SAMPLE_CHUNK = 1 << 16


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.PCG64(ss))


# -- distribution families -------------------------------------------------

class Gaussian:
    """Centered gaussian with covariance Q (PSD; full rank optional)."""

    kind = "gaussian"

    def __init__(self, covariance, require_full_rank: bool = False):
        Q = np.atleast_2d(np.asarray(covariance, dtype=float))
        if not np.allclose(Q, Q.T, atol=1e-12):
            raise ParameterError("covariance must be symmetric")
        w, V = np.linalg.eigh(Q)
        if np.any(w < -1e-12 * max(1.0, np.max(np.abs(w)))):
            raise ParameterError("covariance must be PSD")
        if require_full_rank and np.min(w) <= 0:
            raise ParameterError("degenerate covariance with full-rank flag")
        self.covariance = Q
        self._factor = V * np.sqrt(np.clip(w, 0.0, None))
        self.dimension = Q.shape[0]
        digest = hashlib.sha1(Q.tobytes()).hexdigest()[:8]
        self.tag = f"gaussian(d={self.dimension},Q#{digest})"
        self.natural_ok = True

    def draw(self, rng, n):
        return rng.standard_normal((n, self.dimension)) @ self._factor.T

    def mgf_log(self) -> Callable:
        Q = self.covariance

        def f(lam):
            lam = np.atleast_2d(np.asarray(lam, dtype=float))
            return 0.5 * np.einsum("...i,ij,...j->...", lam, Q, lam)

        return f


class SymmetricWeibull:
    """Independent coordinates: |xi_j| has tail exp(-(t/scale)^p), random sign."""

    kind = "weibull"

    def __init__(self, p: float, scale: float = 1.0, dimension: int = 1):
        if p <= 0 or scale <= 0:
            raise ParameterError("p and scale must be positive")
        self.p = float(p)
        self.scale = float(scale)
        self.dimension = int(dimension)
        self.tag = f"weibull(p={p},scale={scale},d={dimension})"
        # Kramer's condition (finite MGF near 0) requires p >= 1
        self.natural_ok = p >= 1.0

    def draw(self, rng, n):
        u = rng.random((n, self.dimension))
        mag = self.scale * (-np.log1p(-u)) ** (1.0 / self.p)
        sign = rng.integers(0, 2, size=(n, self.dimension)) * 2.0 - 1.0
        return mag * sign

    def coordinate_variance(self) -> float:
        return self.scale**2 * math.gamma(1.0 + 2.0 / self.p)

    def mgf_log(self, lam_max: float = 64.0) -> Callable:
        """Quadrature log-MGF (per coordinate, summed); needs p >= 1.

        The quadrature grid of 8001 nodes is fixed at closure creation (sized
        for coordinates |lam| <= lam_max) and its weights are normalized to a
        probability measure, so repeated calls see one consistent function.
        Each coordinate's term has the quadrature's own rounding at 0
        subtracted, so f(0) = 0 exactly.
        """
        if not self.natural_ok:
            raise ParameterError("MGF is infinite for weibull p < 1")
        p, s = self.p, self.scale
        a_cap = lam_max * s
        # integrand of E cosh(a M) peaks near t* = (a/p)^(1/(p-1))
        t_star = (max(a_cap, 1e-9) / p) ** (1.0 / (p - 1.0)) if p > 1 else a_cap
        t_hi = max(60.0, 4.0 * t_star)
        t = np.linspace(1e-9, t_hi, 8001)
        logw = math.log(p) + (p - 1.0) * np.log(t) - t**p
        logw -= _logsumexp_1d(logw)      # normalize the discrete measure
        at_zero = _logcosh_expectation(np.zeros(1), t, logw)[0]

        def f(lam):
            lam = np.atleast_2d(np.asarray(lam, dtype=float))
            a = np.abs(lam) * s           # scale folded into the argument
            terms = _logcosh_expectation(a.ravel(), t, logw) - at_zero
            return np.sum(terms.reshape(a.shape), axis=-1)

        return f


def _logsumexp_1d(z: np.ndarray) -> float:
    m = float(np.max(z))
    return m + math.log(float(np.sum(np.exp(z - m))))


#: Elements per quadrature block (512 KB per temporary), so that a block's
#: temporaries fit a 2 MB L2 cache; on a 2-core Xeon with that cache, 1 MB
#: blocks ran the envelope bound about 25% slower.
_QUADRATURE_BLOCK = 1 << 16


def _logcosh_expectation(a: np.ndarray, t: np.ndarray,
                         logw: np.ndarray) -> np.ndarray:
    """log sum_k w_k cosh(a t_k) per entry a >= 0, for normalized logw.

    Written as log(1/2 sum_k (e^(logw_k + a t_k) + e^(logw_k - a t_k)))
    and shifted by each row's largest exponent, so it needs exp only.
    """
    out = np.empty(a.shape[0])
    step = max(1, _QUADRATURE_BLOCK // t.size)
    for lo in range(0, a.shape[0], step):
        at = a[lo:lo + step, None] * t
        up = logw + at
        m = up.max(axis=1, keepdims=True)
        down = np.subtract(logw, at, out=at)
        for z in (up, down):
            z -= m
            np.maximum(z, EXP_FLOOR, out=z)   # largest term is exactly 1
            np.exp(z, out=z)
        up += down
        out[lo:lo + step] = m[:, 0] + np.log(0.5 * up.sum(axis=1))
    return out


class RademacherScaled:
    """Independent +-scale coordinates."""

    kind = "rademacher"

    def __init__(self, scale: float = 1.0, dimension: int = 1):
        if scale <= 0:
            raise ParameterError("scale must be positive")
        self.scale = float(scale)
        self.dimension = int(dimension)
        self.tag = f"rademacher(scale={scale},d={dimension})"
        self.natural_ok = True

    def draw(self, rng, n):
        return (rng.integers(0, 2, size=(n, self.dimension)) * 2.0 - 1.0) * self.scale

    def mgf_log(self) -> Callable:
        s = self.scale

        def f(lam):
            lam = np.atleast_2d(np.asarray(lam, dtype=float))
            return np.sum(log_cosh(s * lam), axis=-1)

        return f


class UniformBox:
    """Uniform on the centered box with the given half-widths."""

    kind = "uniform"

    def __init__(self, half_widths):
        hw = np.asarray(half_widths, dtype=float).ravel()
        if np.any(hw <= 0):
            raise ParameterError("half-widths must be positive")
        self.half_widths = hw
        self.dimension = hw.size
        self.tag = f"uniform(hw={list(hw)})"
        self.natural_ok = True

    def draw(self, rng, n):
        return rng.uniform(-1.0, 1.0, size=(n, self.dimension)) * self.half_widths

    def mgf_log(self) -> Callable:
        hw = self.half_widths

        def f(lam):
            lam = np.atleast_2d(np.asarray(lam, dtype=float))
            a = np.abs(lam * hw)
            # log(sinh a / a). Below 0.05 the closed form cancels, so a
            # three-term series takes over; the first omitted term, a^8/37800,
            # is at most 2.5e-12 of the value there. Each discarded branch
            # is clamped at the threshold, so a = 0 and huge a stay finite.
            small = a < 0.05
            a_pos = np.maximum(a, 0.05)
            big = a + np.log1p(-np.exp(np.maximum(-2.0 * a_pos, EXP_FLOOR))) \
                - np.log(2.0 * a_pos)
            s = np.minimum(a, 0.05) ** 2
            series = s * (1.0 / 6.0 - s * (1.0 / 180.0 - s / 2835.0))
            return np.sum(np.where(small, series, big), axis=-1)

        return f


class CenteredCustom:
    """User sampler (n, rng) -> (n, d); assumed centered and symmetric."""

    kind = "custom"

    def __init__(self, sampler, dimension: int, tag: str = "custom",
                 natural_ok: bool = True):
        self._sampler = sampler
        self.dimension = int(dimension)
        self.tag = tag
        self.natural_ok = natural_ok

    def draw(self, rng, n):
        return np.asarray(self._sampler(n, rng), dtype=float).reshape(n, self.dimension)


def analytic_natural_function(dist) -> Callable:
    """max over sign vectors of the distribution's analytic log-MGF.

    For independent symmetric coordinates this equals the plain log-MGF;
    the sign-flip max matters only for correlated laws (gaussian Q).
    """
    base = dist.mgf_log()
    signs = enumerate_sign_vectors(dist.dimension)

    def f(lam):
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        best = np.full(lam.shape[:-1], -np.inf)
        for eps in signs:
            best = np.maximum(best, base(lam * eps))
        return best

    return f


# -- sample sets -------------------------------------------------------------

@dataclass(frozen=True)
class SampleSet:
    """An n x d block of i.i.d. draws plus its reproducibility metadata.

    ``natural_ok`` is false when the law fails Kramer's condition (no finite
    MGF near 0); it travels with every set derived from the draws.
    """

    data: np.ndarray
    seed: int
    distribution_tag: str
    natural_ok: bool = True

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 1:
            raise ParameterError("sample data must be a nonempty n x d block")
        if not np.all(np.isfinite(self.data)):
            raise ParameterError("sample data must be finite")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dimension(self) -> int:
        return self.data.shape[1]

    def scaled(self, alpha: float) -> "SampleSet":
        return SampleSet(self.data * alpha, self.seed,
                         f"{self.distribution_tag}*{alpha}", self.natural_ok)

    def to_csv(self, path):
        header = f"dim={self.dimension},seed={self.seed},tag={self.distribution_tag}"
        np.savetxt(path, self.data, delimiter=",", header=header,
                   fmt="%.17g")


def sample(dist, n: int, seed: int) -> SampleSet:
    """n i.i.d. draws, deterministic in (dist, n, seed) via chunked seeding."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    blocks = []
    for ci, lo in enumerate(range(0, n, SAMPLE_CHUNK)):
        m = min(SAMPLE_CHUNK, n - lo)
        blocks.append(dist.draw(_chunk_rng(seed, ci), m))
    return SampleSet(np.vstack(blocks), seed, dist.tag, dist.natural_ok)


def sample_sum(dist, n_terms: int, reps: int, seed: int) -> SampleSet:
    """reps realizations of the normalized sum n^(-1/2) sum of n_terms draws."""
    raw = sample(dist, n_terms * reps, seed)
    d = dist.dimension
    sums = raw.data.reshape(reps, n_terms, d).sum(axis=1) / math.sqrt(n_terms)
    return SampleSet(sums, seed, f"sum(n={n_terms})[{dist.tag}]",
                     raw.natural_ok)


# -- empirical estimators -----------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    probability: float
    half_width: float


def _binomial_half_width(p: float, n: int) -> float:
    if p <= 0.0 or p >= 1.0:
        return 3.0 / n
    return 2.0 * math.sqrt(p * (1.0 - p) / n)


def tail_function(s: SampleSet, x) -> TailEstimate:
    """max over sign patterns of the empirical joint exceedance at x >= 0."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != s.dimension:
        raise ParameterError("threshold dimension mismatch")
    if np.any(x < 0):
        raise ParameterError("thresholds must be nonnegative")
    best = 0.0
    for eps in enumerate_sign_vectors(s.dimension):
        best = max(best, float(np.mean(np.all(s.data * eps > x, axis=1))))
    return TailEstimate(best, _binomial_half_width(best, s.n))


def min_coordinate_tail(s: SampleSet, y: float) -> TailEstimate:
    """Empirical frequency of min_j |xi_j| > y."""
    if y <= 0:
        raise ParameterError("y must be positive")
    p = float(np.mean(np.all(np.abs(s.data) > y, axis=1)))
    return TailEstimate(p, _binomial_half_width(p, s.n))


def vector_moment(s: SampleSet, r) -> float:
    """Mixed moment norm ((1/n) sum prod_j |xi_ij|^r_j)^(1 / sum_j r_j).

    Accumulated in log space; samples with a zero coordinate contribute
    zero mass rather than poisoning the sum.
    """
    r = np.asarray(r, dtype=float).ravel()
    if r.size != s.dimension or np.any(r < 1):
        raise ParameterError("moment orders must be >= 1, one per coordinate")
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(s.data))
    L = logs @ r
    lme = log_mean_exp(L)
    if math.isinf(lme) and lme < 0:
        return 0.0
    return float(np.exp(lme / float(np.sum(r))))


def empirical_variance(s: SampleSet) -> np.ndarray:
    """Unbiased sample covariance as a (d, d) matrix."""
    if s.n < 2:
        raise ParameterError("need n >= 2 for a covariance estimate")
    return np.atleast_2d(np.cov(s.data, rowvar=False, ddof=1))


#: Samples per chunk of the natural function's streaming log-sum-exp.
_NATURAL_SAMPLE_CHUNK = 200_000
#: Elements per row block of the natural function (6 rows at n = 20k). A
#: block's float64 products (1 MB) and float32 exponentials (0.5 MB) fit a
#: 2 MB L2 cache together, so its five passes do not go out to memory.
_NATURAL_BLOCK = 1 << 17


def _split(m: int, count: int) -> list:
    """(lo, hi) bounds of ``count`` contiguous near-equal runs of m rows."""
    return [(i * m // count, (i + 1) * m // count) for i in range(count)]


def _row_blocks(m: int, rows: int) -> list:
    """Bounds of near-equal blocks of at most ``rows`` of m rows (two or
    three where ``rows`` is 1).

    No block has one row unless m = 1: numpy sends a one-row product to
    gemv, whose rounding differs from that of gemm.
    """
    return _split(m, min(-(-m // rows), max(1, m // 2)))


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


class EmpiricalNaturalFunction:
    """Sign-flip-maximized empirical log-MGF of a sample set.

    Samples are re-centered by their empirical mean, making evaluate(0) = 0
    exact and the value nonnegative everywhere (Jensen). A value is trusted
    when the largest single-sample term carries at most a tenth of the
    exponential mass for the sign pattern achieving the max. Laws failing
    Kramer's condition (weibull p < 1, or a custom law declared without
    one) are refused: their natural function does not exist.
    """

    def __init__(self, source: SampleSet):
        if not source.natural_ok:
            raise ParameterError(
                f"natural function undefined for {source.distribution_tag}: "
                "Kramer's condition fails")
        self.source = source
        self._data = source.data - source.data.mean(axis=0, keepdims=True)
        self._signs = enumerate_sign_vectors(source.dimension)
        self._block_rows = max(
            1, _NATURAL_BLOCK // min(self._data.shape[0], _NATURAL_SAMPLE_CHUNK))
        self.dimension = source.dimension

    def evaluate(self, lam):
        vals, _ = self.evaluate_with_trust(lam)
        return vals

    __call__ = evaluate

    def evaluate_with_trust(self, lam):
        """Values and per-point trust flags; batched over (..., d) points."""
        lam = np.asarray(lam, dtype=float)
        single = lam.ndim == 1
        vals, trusted = self._evaluate_block(np.atleast_2d(lam))
        if single:
            return float(vals[0]), bool(trusted[0])
        return vals, trusted

    def _evaluate_block(self, pts):
        """Split the points into one contiguous part per usable CPU.

        A row's value does not depend on the part or block that holds it,
        so the split changes no output bit.
        """
        m = pts.shape[0]
        if m == 1:
            # numpy sends a one-row product to gemv, whose rounding differs
            # from that of gemm: evaluate the row in a two-row block
            vals, trusted = self._evaluate_part(np.repeat(pts, 2, axis=0))
            return vals[:1], trusted[:1]
        parts = min(_worker_count(), len(_row_blocks(m, self._block_rows)))
        if parts <= 1:
            return self._evaluate_part(pts)
        # imported on first use: with logging it adds about 3 ms and 0.7 MB
        # to every process that imports exptail
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(parts) as pool:
            done = list(pool.map(self._evaluate_part,
                                 [pts[lo:hi] for lo, hi in _split(m, parts)]))
        return (np.concatenate([vals for vals, _ in done]),
                np.concatenate([trusted for _, trusted in done]))

    def _evaluate_part(self, pts):
        """Values and trust flags of a run of points, one row block at a time,
        with the block's products and exponentials in buffers reused across
        blocks."""
        data = self._data
        n = data.shape[0]
        m = pts.shape[0]
        blocks = _row_blocks(m, self._block_rows)
        height = max((hi - lo for lo, hi in blocks), default=0)
        width = min(n, _NATURAL_SAMPLE_CHUNK)
        prod = np.empty(height * width)
        terms = np.empty(height * width, dtype=np.float32)
        best = np.full((m,), -np.inf)
        best_top = np.full((m,), -np.inf)
        log_n = math.log(n)
        for lo, hi in blocks:
            P = pts[lo:hi]
            for eps in self._signs:
                M = np.full(hi - lo, -np.inf)
                S = np.zeros(hi - lo)
                top = np.full(hi - lo, -np.inf)
                flipped = P * eps
                for slo in range(0, n, width):
                    shi = min(n, slo + width)
                    size = (hi - lo) * (shi - slo)
                    T = np.matmul(flipped, data[slo:shi].T,
                                  out=prod[:size].reshape(hi - lo, shi - slo))
                    cm = T.max(axis=1)
                    top = np.maximum(top, cm)
                    M_new = np.maximum(M, cm)
                    # shifted terms are <= 0; float32 exp is several times
                    # faster and its 1e-7 rounding sits far below MC noise.
                    # The cast rounds each float64 difference once.
                    E = np.subtract(T, M_new[:, None], casting="same_kind",
                                    out=terms[:size].reshape(T.shape))
                    np.exp(E, out=E)
                    S = S * np.exp(M - M_new) + E.sum(axis=1, dtype=np.float64)
                    M = M_new
                lse = M + np.log(S)
                lme = lse - log_n
                sel = lme > best[lo:hi]
                best[lo:hi][sel] = lme[sel]
                best_top[lo:hi][sel] = np.exp(top - lse)[sel]
        trusted = best_top <= 0.1
        np.maximum(best, 0.0, out=best)   # Jensen floor for centered samples
        return best, trusted

    def trust_radius(self, direction) -> float:
        """Largest of 48 log-spaced radii in [0.01, 64] along ``direction``
        below which every radius is trusted (the smallest when none is)."""
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        radii = np.geomspace(1e-2, 64.0, 48)
        _, trusted = self.evaluate_with_trust(radii[:, None] * u[None, :])
        if not trusted[0]:
            return radii[0]
        if np.all(trusted):
            return float(radii[-1])
        return float(radii[int(np.argmin(trusted)) - 1])

    def tabulated_young(self, lam_max: Optional[float] = None,
                        resolution: int = 1025) -> YoungFunction:
        """One-dimensional tabulation as a YoungFunction on (-lam_max, lam_max).

        Linear interpolation of the empirical values along the positive ray
        (even by construction). The origin Hessian is the sample variance,
        which downstream limit terms rely on.
        """
        if self.dimension != 1:
            raise ParameterError("tabulation implemented for d = 1")
        if lam_max is None:
            lam_max = self.trust_radius(np.ones(1))
        grid = np.linspace(0.0, lam_max, resolution)
        vals, _ = self.evaluate_with_trust(grid[:, None])
        vals = np.maximum(vals, 0.0)
        vals[0] = 0.0
        hessian = np.atleast_2d(np.var(self._data, ddof=1))

        def ev(x):
            return np.interp(np.abs(np.asarray(x)[..., 0]), grid, vals)

        return make_custom(1, ev, support=SupportRegion(lam_max),
                           hessian_at_origin=hessian,
                           params={"lam_max": lam_max, "n": self.source.n})


def natural_function(s: SampleSet) -> EmpiricalNaturalFunction:
    """Empirical natural function of a sample set."""
    return EmpiricalNaturalFunction(s)
