"""Random-vector sampling and empirical estimators.

Sampling is chunked with per-chunk derived seeds, so a SampleSet is a pure
function of (distribution, n, seed) regardless of how the chunks would be
scheduled. The natural function evaluates points along rays by binned
Taylor sums, one O(n) pass per direction and sign row whatever the number
of radii, and other points by exponentiating a block of a few sign-flip
rows over all n samples at a time; both run on one thread.
"""
from __future__ import annotations

import hashlib
import math
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
        """Log-MGF (per coordinate, summed); needs p >= 1.

        For p = 1 the magnitude is exponential and each coordinate's term is
        the closed form -log1p(-a^2) of ``_exponential_logcosh``, +inf for
        a = |lam_j| scale >= 1. For p > 1 it is the quadrature of
        ``_logcosh_expectation`` on the grid of ``_weibull_grid``, fixed at
        closure creation (sized for coordinates |lam| <= lam_max), whose
        weights form a probability measure, so repeated calls see one
        consistent function with f(0) = 0 exactly. A coordinate with
        |lam| scale > lam_max scale, infinite ones included, has the term
        +inf, as the grid would read it low; NaN stays NaN. Each
        coordinate's term is computed on its own, so it does not depend on
        the rest of the call.

        The closure integrates each distinct argument a once: it stores
        every finished term by a, and a call passes only the arguments it
        has not seen, in first-seen order, to one kernel call. Because a
        term does not depend on its batch, a stored term is the very float
        a fresh call would return, so the store changes no bit. NaN and
        infinite arguments are never stored. The store holds at most
        ``_MGF_MEMO`` terms: it is emptied when a call's new terms would
        overflow it, and a call with more new terms than that stores none.

        Raises ParameterError when lam_max needs a grid of more than
        ``_WEIBULL_NODES`` nodes, as it does for p just above 1.
        """
        if not self.natural_ok:
            raise ParameterError("MGF is infinite for weibull p < 1")
        s = self.scale
        if self.p == 1.0:
            kernel = _exponential_logcosh
        else:
            t, logw = _weibull_grid(self.p, s, lam_max)
            a_max = lam_max * s

            def kernel(a):
                # past the sized grid the quadrature reads low: +inf there
                out = np.where(a > a_max, np.inf, np.nan)
                inside = a <= a_max
                out[inside] = _logcosh_expectation(a[inside], t, logw)
                return out

        memo = {}

        def f(lam):
            lam = np.atleast_2d(np.asarray(lam, dtype=float))
            a = np.abs(lam) * s           # scale folded into the argument
            keys = a.ravel().tolist()
            # a NaN key is found by identity only: its own float object in keys
            found = {k: memo.get(k) for k in dict.fromkeys(keys)}
            misses = [k for k, term in found.items() if term is None]
            if misses:
                found.update(zip(misses, kernel(np.array(misses)).tolist()))
                new = {k: found[k] for k in misses if math.isfinite(k)}
                if len(memo) + len(new) > _MGF_MEMO:
                    memo.clear()
                if len(new) <= _MGF_MEMO:
                    memo.update(new)
            terms = np.array([found[k] for k in keys])
            return np.sum(terms.reshape(a.shape), axis=-1)

        return f


#: Most nodes of a Weibull quadrature grid. At lam_max = 64 the envelope's
#: laws, p = 1.5 at scale 0.2 and p = 4 at scale 1, need 874 and 389, while
#: p = 1.5 at scale 1 would need 10,730.
_WEIBULL_NODES = 8001

#: Terms a Weibull ``mgf_log`` closure stores at most; a c09 law uses ~6k.
#: A row of ``_logcosh_expectation`` does not depend on its batch, so a
#: stored term is the float a fresh call returns.
_MGF_MEMO = 1 << 16

#: Elements per quadrature block (512 KB per temporary), so that a block's
#: temporaries fit a 2 MB L2 cache.
_QUADRATURE_BLOCK = 1 << 16


def _exponential_logcosh(a: np.ndarray) -> np.ndarray:
    """log E cosh(a T) = -log1p(-a^2) for T ~ Exp(1), +inf where a >= 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.log1p(-a * a)
    out[a >= 1.0] = np.inf
    return out


def _weibull_grid(p: float, scale: float,
                  lam_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and normalized log-weights logw of the Weibull(p) quadrature,
    p > 1.

    It is the trapezoid rule in x = log t, where the density of T is
    p e^(px - e^(px)): analytic and decaying at both ends, so the rule
    converges geometrically as the spacing h shrinks (Trefethen & Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 2014).
    The nodes run from x = -40/p to log max(60, 4 t*), where t* =
    (a/p)^(1/(p-1)) is the peak of the integrand of E cosh(a T) at the
    largest argument a = lam_max * scale; the integrand is negligible at
    both ends. h = min(0.05, sigma / 1.25, 1 / (1.25 p)) resolves the
    density's peak, of width about 1/p in x, and the integrand's peak at
    a, of width sigma = (p (p-1) t*^p)^(-1/2).
    """
    log_t_star = math.log(max(lam_max * scale, 1e-9) / p) / (p - 1.0)
    x_lo = -40.0 / p
    x_hi = max(math.log(60.0), math.log(4.0) + log_t_star)
    log_sigma = -0.5 * (math.log(p * (p - 1.0)) + p * log_t_star)
    h = min(0.05, math.exp(min(log_sigma, 0.0)) / 1.25, 1.0 / (1.25 * p))
    if not x_hi - x_lo <= (_WEIBULL_NODES - 1) * h:
        raise ParameterError(
            f"weibull p={p} with lam_max={lam_max} and scale={scale} needs "
            f"more than {_WEIBULL_NODES} quadrature nodes; lower lam_max")
    x = x_lo + h * np.arange(math.ceil((x_hi - x_lo) / h) + 1)
    with np.errstate(over="ignore"):   # e^(px) = inf has weight 0 either way
        logw = p * x - np.exp(p * x)
    logw -= math.log(np.sum(np.exp(logw)))   # a probability measure
    return np.exp(x), logw


def _logcosh_expectation(a: np.ndarray, t: np.ndarray,
                         logw: np.ndarray) -> np.ndarray:
    """log sum_k w_k cosh(a t_k) per entry a >= 0, on a grid of
    ``_weibull_grid``.

    As cosh u = 1 + 2 sinh^2(u/2) and the weights sum to 1, this is
    log1p(Q) with Q = sum_k w_k 2 sinh^2(a t_k / 2) =
    1/2 sum_k e^(logw_k + a t_k) expm1(-a t_k)^2, a sum of positive terms
    with no cancellation; a = 0 gives exactly 0. Q is summed in log space,
    shifted by each row's largest exponent m = max_k (logw_k + a t_k), with
    shifted exponents floored at EXP_FLOOR, which adds at most e^-700 per
    node to the shifted sum. Each row is summed over every node on its own, in
    blocks of at most ``_QUADRATURE_BLOCK`` elements, so its bits do not
    depend on the rest of the batch.
    """
    out = np.empty(a.shape[0])
    step = max(1, _QUADRATURE_BLOCK // t.size)
    for lo in range(0, a.shape[0], step):
        at = a[lo:lo + step, None] * t
        z = logw + at
        m = z.max(axis=1)
        z -= m[:, None]
        np.maximum(z, EXP_FLOOR, out=z)
        np.exp(z, out=z)
        np.expm1(np.negative(at, out=at), out=at)
        z *= np.square(at, out=at)
        with np.errstate(divide="ignore"):   # Q = 0 at a = 0
            log_q = m + np.log(0.5 * z.sum(axis=1))
        out[lo:lo + step] = np.logaddexp(0.0, log_q)
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
            with np.errstate(over="ignore"):   # a = inf gives +inf below
                a = np.abs(lam * hw)
            # log(sinh a / a). Below 0.05 the closed form cancels, so a
            # four-term series takes over; the first omitted term,
            # a^10/467775, is at most 5e-16 of the value there. The log
            # term is taken at a clamped to [0.05, 1e300], where 2a cannot
            # overflow: below 0.05 its branch is discarded, and past 1e300
            # it is about -691, under a's last digit, so the sum is a, or
            # +inf at a = inf.
            small = a < 0.05
            a_pos = np.clip(a, 0.05, 1e300)
            big = a + np.log(-np.expm1(-2.0 * a_pos) / (2.0 * a_pos))
            s = np.minimum(a, 0.05) ** 2
            series = s * (1.0 / 6.0 - s * (1.0 / 180.0
                                           - s * (1.0 / 2835.0 - s / 37800.0)))
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


def _count_above(columns, thresholds) -> int:
    """Number of rows with columns[j] > thresholds[j] for every j.

    The rows are tested one column at a time: ``np.all`` over a length-d
    inner axis costs more than the comparisons themselves. The count over n
    is the float that ``np.mean`` of the same comparisons gives.
    """
    pairs = zip(columns, thresholds)
    c, t = next(pairs)
    hit = c > t
    for c, t in pairs:
        hit &= c > t
    return int(np.count_nonzero(hit))


def tail_function(s: SampleSet, x) -> TailEstimate:
    """max over sign patterns of the empirical joint exceedance at x >= 0."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != s.dimension:
        raise ParameterError("threshold dimension mismatch")
    if np.any(x < 0):
        raise ParameterError("thresholds must be nonnegative")
    best = max(_count_above((s.data[:, j] * e for j, e in enumerate(eps)), x)
               for eps in enumerate_sign_vectors(s.dimension))
    p = best / s.n
    return TailEstimate(p, _binomial_half_width(p, s.n))


def min_coordinate_tail(s: SampleSet, y: float) -> TailEstimate:
    """Empirical frequency of min_j |xi_j| > y."""
    if y <= 0:
        raise ParameterError("y must be positive")
    p = _count_above((np.abs(c) for c in s.data.T), [y] * s.dimension) / s.n
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


#: Elements per row block of the direct kernel (6 rows at n = 20k). A
#: block's float64 products (1 MB) fit a 2 MB L2 cache, so the passes that
#: shift, exponentiate and sum them in place do not go out to memory. Past
#: n = 64k a block is two rows of n samples.
_NATURAL_BLOCK = 1 << 17

#: Level-0 bin width of the ray kernel, in units of t = <h o u, xi>.
_RAY_BIN = 2.0 ** -7

#: Scaled moments a bin keeps: the sums of (t - c)^k / k! for k < this.
_RAY_TERMS = 10

#: Coarsest bin level; level j has bins of width _RAY_BIN 2^j.
_RAY_LEVELS = 10

#: Largest |r| the bins serve: past it even level 0 has |r| width / 2 > 1/4.
_RAY_MAX_RADIUS = 64.0

#: Level rows are binned at for radii served at this level or coarser
#: (|r| <= 4, which holds every radius of ``norms.ray_probe_plan``'s default
#: plan); radii at finer levels bin their rows at level 0. The base is
#: fixed, so a value does not depend on its batch.
_RAY_BASE = 4

#: Elements (256 KB) of the ray kernel's largest arrays: rows are binned in
#: groups of about this many moments, and a group's radii run in blocks of
#: at most this many (radius, bin) terms.
_RAY_BLOCK = 1 << 15


def _split(m: int, count: int) -> list:
    """(lo, hi) bounds of ``count`` contiguous near-equal runs of m rows."""
    return [(i * m // count, (i + 1) * m // count) for i in range(count)]


def _best_flip(lme, S):
    """Each point's largest sign flip, the first one on ties, floored at 0
    (Jensen, for centered samples), and trusted when that flip's top term
    carries at most a tenth of its mass: S = sum of exp(t - max t) >= 10."""
    pick = (np.arange(lme.shape[0]), np.argmax(lme, axis=1))
    return np.maximum(lme[pick], 0.0), S[pick] >= 10.0


def _ray_levels(radii: np.ndarray) -> np.ndarray:
    """Coarsest level j <= _RAY_LEVELS with |r| width_j / 2 <= 1/4, that is
    |r| <= 2^(6 - j), per finite radius; -1 where |r| > _RAY_MAX_RADIUS."""
    mant, expo = np.frexp(np.abs(radii))
    ceil_log2 = expo - (mant == 0.5)       # |r| = mant 2^expo, mant in [.5, 1)
    level = np.where(radii == 0.0, _RAY_LEVELS,
                     np.minimum(6 - ceil_log2, _RAY_LEVELS))
    return np.where(np.abs(radii) <= _RAY_MAX_RADIUS, level, -1)


def _merge_bins(Q, starts, lengths, level: int) -> tuple:
    """Moments of level ``level`` from those of the level below, for rows
    whose bins lie side by side in Q's columns: row i has ``lengths[i]``
    bins from absolute index ``starts[i]`` on. Bins 2b and 2b + 1 of a row
    become its bin b, by an exact Taylor shift of each child's moments to
    the parent's center, h = width_(level-1) / 2 away:
    Q'[k] = sum_p h^p / p! (Q_right[k-p] + (-1)^p Q_left[k-p]).
    Every sum runs in a fixed order, so a row's result depends on its own
    bins alone. Returns (Q', starts', lengths')."""
    front = starts % 2                  # pad a row to whole pairs
    padded = lengths + front
    padded += padded % 2
    old_off = np.cumsum(lengths) - lengths
    new_off = np.cumsum(padded) - padded
    P = np.zeros((_RAY_TERMS, int(padded.sum())))
    P[:, np.arange(Q.shape[1]) + np.repeat(new_off + front - old_off,
                                           lengths)] = Q
    left, right = P[:, 0::2], P[:, 1::2]
    even, odd = right + left, right - left
    merged = even.copy()
    half = _RAY_BIN * 2.0 ** (level - 2)
    for p in range(1, _RAY_TERMS):
        merged[p:] += (half ** p / math.factorial(p)) * (odd if p % 2
                                                          else even)[:-p]
    return merged, (starts - front) // 2, padded // 2


def _level_sums(Q, starts, lengths, level: int, radii, t_max, t_min):
    """Per row and signed radius, r t_top and
    S = sum_i exp(r (t_i - t_top)) = sum_b exp(r (c_b - t_top)) P_b(r),
    P_b(r) = sum_k r^k Q[k, b] in Horner form, from the rows' level-
    ``level`` bins (laid out as in ``_merge_bins``). t_top is the row's max
    t for r > 0 and its min t otherwise, so S >= 1 up to truncation.
    Radii run in blocks of at most _RAY_BLOCK terms; each row's sum is
    over its own bins only."""
    offsets = np.cumsum(lengths) - lengths
    scale = 2.0 ** level
    centers = (np.arange(Q.shape[1]) + np.repeat(starts - offsets, lengths)
               ) * scale + (scale - 1.0) / 2.0
    centers *= _RAY_BIN
    above = centers - np.repeat(t_max, lengths)
    below = centers - np.repeat(t_min, lengths)
    S = np.empty((radii.size, lengths.size))
    step = max(1, _RAY_BLOCK // Q.shape[1])
    for lo in range(0, radii.size, step):
        r = radii[lo:lo + step, None]
        z = np.where(r > 0.0, above, below) * r
        np.maximum(z, EXP_FLOOR, out=z)
        np.exp(z, out=z)
        poly = Q[-1] * r
        for k in range(_RAY_TERMS - 2, 0, -1):
            poly += Q[k]
            poly *= r
        poly += Q[0]
        z *= poly
        S[lo:lo + step] = np.add.reduceat(z, offsets, axis=1)
    top = np.where(radii > 0.0, t_max[:, None], t_min[:, None]) * radii
    return top, S.T


def _binned_sums(rows: list, radii, levels, base: int):
    """r t_top and S (as in ``_level_sums``), shape (len(rows), len(radii)),
    of rows given as (first bin, level-``base`` moments, max t, min t)."""
    starts, Qs, t_max, t_min = zip(*rows)
    Q = np.concatenate(Qs, axis=1)
    starts = np.array(starts)
    lengths = np.array([q.shape[1] for q in Qs])
    t_max, t_min = np.array(t_max), np.array(t_min)
    top = np.empty((len(rows), radii.size))
    S = np.empty_like(top)
    for level in range(base, int(levels.max()) + 1):
        if level > base:
            Q, starts, lengths = _merge_bins(Q, starts, lengths, level)
        at = np.flatnonzero(levels == level)
        if at.size:
            top[:, at], S[:, at] = _level_sums(Q, starts, lengths, level,
                                               radii[at], t_max, t_min)
    return top, S


class EmpiricalNaturalFunction:
    """Sign-flip-maximized empirical log-MGF of a sample set.

    Samples are re-centered by their empirical mean, making evaluate(0) = 0
    exact and the value nonnegative everywhere (Jensen). A value is trusted
    when the largest single-sample term carries at most a tenth of the
    exponential mass for the sign pattern achieving the max. Laws failing
    Kramer's condition (weibull p < 1, or a custom law declared without
    one) are refused: their natural function does not exist.

    Two kernels compute it, both in float64 on one thread, and a value
    depends only on its point and the samples, never on the rest of the
    call.

    - Points (``evaluate_with_trust(points)``) go through the direct
      kernel. Each of a point's 2^d sign flips is a row of one batch, and
      the batch runs through a log-sum-exp over all samples in blocks of
      at least two rows. A one-row product would go to BLAS gemv, whose
      rounding differs from that of gemm, so with two rows a point's value
      does not depend on its batch.
    - Rays (``evaluate_with_trust(directions, radii=radii)``) go through
      binned Taylor sums, which pay n K once per direction and sign row
      instead of n exponentials per radius. A row is a direction u with
      one of the first 2^(d-1) sign vectors h, t = sum_q h_q u_q xi_q
      taken elementwise; the flip -h is the same row at radius -r. Level-0
      bins of width 2^-7 at multiples of it keep the moments
      Q[k, b] = sum (t - c_b)^k / k!, k < 10; level j merges the pairs of
      level j - 1 by an exact Taylor shift. A radius uses the coarsest
      level with |r| width / 2 <= 1/4, so each bin's truncation is at most
      0.25^10 / 10! e^0.25 = 3.4e-13 of its sum. Rows are binned straight
      from the samples at a fixed base level, in the same layout: level 4
      (width 2^-3) for radii served at level 4 or coarser, |r| <= 4, and
      level 0 for 4 < |r| <= 64. Radii past 64, and radii whose direction
      has a row that spans more bins at their base than there are samples
      (far outliers, which would also cost more than the direct kernel),
      go through the direct kernel.
    """

    def __init__(self, source: SampleSet):
        if not source.natural_ok:
            raise ParameterError(
                f"natural function undefined for {source.distribution_tag}: "
                "Kramer's condition fails")
        self.source = source
        self._data = source.data - source.data.mean(axis=0, keepdims=True)
        self._signs = enumerate_sign_vectors(source.dimension)
        self._block_rows = max(2, _NATURAL_BLOCK // self._data.shape[0])
        #: base level -> (direction bytes, rows) of the last direction binned
        #: at it, so ``tabulated_young``'s grid reuses ``trust_radius``'s rows
        self._last_rows = {}
        self.dimension = source.dimension

    def evaluate(self, lam):
        vals, _ = self.evaluate_with_trust(lam)
        return vals

    __call__ = evaluate

    def evaluate_with_trust(self, lam, radii=None):
        """Values and per-point trust flags; batched over (..., d) points.

        A point with an infinite or NaN coordinate is NaN and untrusted; it
        skips the kernel, where it would meet inf - inf.

        With ``radii``, ``lam`` holds directions, (m, d) or one (d,), and
        the flat results of length m * len(radii) are at the points
        radii[k] * lam[j], direction-major, as ``norms.ray_probe_plan``
        orders them. A non-finite direction or radius gives NaN, untrusted.
        """
        lam = np.asarray(lam, dtype=float)
        if radii is not None:
            return self._evaluate_rays(np.atleast_2d(lam),
                                       np.asarray(radii, dtype=float).ravel())
        single = lam.ndim == 1
        pts = np.atleast_2d(lam)
        ok = np.all(np.isfinite(pts), axis=1)
        vals = np.full(pts.shape[0], np.nan)
        trusted = np.zeros(pts.shape[0], dtype=bool)
        vals[ok], trusted[ok] = self._evaluate_part(pts[ok])
        if single:
            return float(vals[0]), bool(trusted[0])
        return vals, trusted

    def _evaluate_part(self, pts):
        """Direct kernel: values and trust flags of a run of points, whose
        flips are consecutive rows, one row block at a time in one buffer."""
        data = self._data
        n, d = data.shape
        flips = (pts[:, None, :] * self._signs).reshape(-1, d)
        rows = flips.shape[0]
        blocks = _split(rows, -(-rows // self._block_rows))
        height = max((hi - lo for lo, hi in blocks), default=0)
        buf = np.empty(height * n)
        lme = np.empty(rows)
        # S = sum of exp(t - max t), so the top term's share of the mass is 1/S
        S = np.empty(rows)
        for lo, hi in blocks:
            T = np.matmul(flips[lo:hi], data.T,
                          out=buf[:(hi - lo) * n].reshape(hi - lo, n))
            M = T.max(axis=1)
            T -= M[:, None]
            np.maximum(T, EXP_FLOOR, out=T)
            np.exp(T, out=T)
            S[lo:hi] = T.sum(axis=1)
            lme[lo:hi] = M + np.log(S[lo:hi]) - math.log(n)
        shape = (pts.shape[0], len(self._signs))
        return _best_flip(lme.reshape(shape), S.reshape(shape))

    def _evaluate_rays(self, dirs, radii):
        """Values and trust flags at radii x directions, direction-major:
        binned sums where they serve, the direct kernel elsewhere."""
        vals = np.full((dirs.shape[0], radii.size), np.nan)
        trusted = np.zeros(vals.shape, dtype=bool)
        finite = np.isfinite(radii)
        level = np.full(radii.size, -1)
        level[finite] = _ray_levels(radii[finite])
        binned = np.flatnonzero(level >= 0)
        rays = np.flatnonzero(np.isfinite(dirs).all(axis=1))
        direct = np.zeros(vals.shape, dtype=bool)
        direct[rays] = finite
        if binned.size and rays.size:
            lme, S, wide = self._ray_sums(dirs[rays], radii[binned],
                                          level[binned])
            best, ok = _best_flip(lme[~wide], S[~wide])
            j, k = np.nonzero(~wide)
            j, k = rays[j], binned[k]
            vals[j, k], trusted[j, k] = best, ok
            direct[j, k] = False
        j, k = np.nonzero(direct)
        if j.size:
            vals[j, k], trusted[j, k] = self._evaluate_part(
                radii[k, None] * dirs[j])
        return vals.ravel(), trusted.ravel()

    def _ray_rows(self, u, base: int):
        """Level-``base`` bins of each row of direction u,
        t = sum_q h_q u_q xi_q for h in the first half of the sign vectors,
        as (first bin index, moments Q (K, bins), max t, min t); None when a
        row spans more bins than there are samples. Level-``base`` bin b is
        the merge of level-0 bins 2^base b to 2^base b + 2^base - 1, as in
        ``_merge_bins``, and centered where ``_level_sums`` puts it."""
        data = self._data
        n = data.shape[0]
        scale = 2.0 ** base
        rows = []
        for h in self._signs[:len(self._signs) // 2]:
            w = h * u
            t = data[:, 0] * w[0]
            for q in range(1, data.shape[1]):
                t += data[:, q] * w[q]
            t_max, t_min = t.max(), t.min()
            # bin floor(x / 2^base) holds level-0 bin x = floor(t / _RAY_BIN
            # + 1/2); scaling by 2^-base before the floor is exact, and the
            # map is monotone, so the extreme bins are those of t's extremes
            inv, half = 1.0 / (scale * _RAY_BIN), 0.5 / scale
            lo, hi = np.floor(t_min * inv + half), np.floor(t_max * inv + half)
            if not hi - lo < n:
                return None
            size = int(hi - lo) + 1
            b = t * inv
            b += half
            np.floor(b, out=b)
            b -= lo
            idx = b.astype(np.intp)
            b += lo                        # exact: b and lo are integers
            # the center (2^base b + (2^base - 1) / 2) _RAY_BIN, exactly
            b += (1.0 - 1.0 / scale) / 2.0
            b *= scale * _RAY_BIN
            t -= b                         # offset from the bin's center
            power = b
            Q = np.empty((_RAY_TERMS, size))
            Q[0] = np.bincount(idx, minlength=size)
            power[:] = t
            Q[1] = np.bincount(idx, power, size)
            for k in range(2, _RAY_TERMS):
                power *= t
                Q[k] = np.bincount(idx, power, size) / math.factorial(k)
            rows.append((int(lo), Q, t_max, t_min))
        return rows

    def _ray_sums(self, dirs, radii, level):
        """Log-mean-exps and sums S of every sign flip at the points
        radii x dirs, (len(dirs), len(radii), 2^d) each, and a mask of the
        points, (len(dirs), len(radii)), whose direction has a row too wide
        to bin at the radius's base level (their entries are unset). A
        radius at ``level`` _RAY_BASE or coarser merges up from rows binned
        at _RAY_BASE, any other from rows binned at level 0.
        Row i of the first half of the sign vectors gives flip i at r and
        its negation, flip 2^d - 1 - i, at -r. Rows are summed in groups of
        about _RAY_BLOCK moments. The rows of the last direction binned at
        each base are kept, and a later call along it reuses them."""
        flips = len(self._signs)
        signed = np.concatenate([radii, -radii])
        levels = np.concatenate([level, level])
        top = np.zeros((len(dirs), flips // 2, signed.size))
        S = np.ones_like(top)
        wide = np.zeros((len(dirs), radii.size), dtype=bool)
        for base, served in ((0, level < _RAY_BASE),
                             (_RAY_BASE, level >= _RAY_BASE)):
            at = np.flatnonzero(np.concatenate([served, served]))
            if not at.size:
                continue
            group, members, bins = [], [], 0
            for j, u in enumerate(dirs):
                key = u.tobytes()
                if self._last_rows.get(base, (None,))[0] != key:
                    self._last_rows[base] = key, self._ray_rows(u, base)
                rows = self._last_rows[base][1]
                if rows is None:
                    wide[j, served] = True
                else:
                    group += rows
                    members.append(j)
                    bins += sum(Q.shape[1] for _, Q, _, _ in rows)
                if members and (bins * _RAY_TERMS >= _RAY_BLOCK
                                or j == len(dirs) - 1):
                    sums = _binned_sums(group, signed[at], levels[at], base)
                    sub = np.ix_(members, range(flips // 2), at)
                    top[sub], S[sub] = (x.reshape(len(members), flips // 2,
                                                  -1) for x in sums)
                    group, members, bins = [], [], 0
        lme = top + np.log(S) - math.log(self._data.shape[0])
        # (dirs, rows, +-r) -> (dirs, r, flips): flips 2^d - 1 - i reversed
        lme, S = (np.concatenate([x[..., :radii.size].transpose(0, 2, 1),
                                  x[:, ::-1, radii.size:].transpose(0, 2, 1)],
                                 axis=2) for x in (lme, S))
        return lme, S, wide

    def trust_radius(self, direction) -> float:
        """Largest of 48 log-spaced radii in [0.01, 64] along ``direction``
        below which every radius is trusted (the smallest when none is)."""
        u = np.asarray(direction, dtype=float)
        u = u / np.linalg.norm(u)
        radii = np.geomspace(1e-2, 64.0, 48)
        # values do not depend on the batch: the radii the level-_RAY_BASE
        # rows serve come first, and the rest only when all of them are
        # trusted, so rows are binned at level 0 only when the answer needs it
        near = radii <= 2.0 ** (6 - _RAY_BASE)
        _, trusted = self.evaluate_with_trust(u, radii=radii[near])
        if np.all(trusted):
            _, far = self.evaluate_with_trust(u, radii=radii[~near])
            trusted = np.concatenate([trusted, far])
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
        vals, _ = self.evaluate_with_trust(np.ones(1), radii=grid)
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
