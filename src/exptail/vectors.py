"""Sign-vector combinatorics, octant geometry, log-space accumulation, and
the numerical primitives every other module shares: monotone bisection,
box grids, and a stable log-cosh.

Everything here is a pure function of immutable inputs; no shared state.
Sign vectors are plain float arrays with entries in {-1.0, +1.0}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DimensionCapError, ShapeMismatchError

#: Hard cap on dimensions that trigger 2^d enumerations.
DIMENSION_CAP = 16

#: Floor for arguments of exp whose result is added to a term >= 1. Below
#: about -708 numpy's exp leaves its fast path (tens of times slower per
#: element); anything under e^-700 is lost to rounding next to 1 anyway.
EXP_FLOOR = -700.0


def enumerate_sign_vectors(d: int) -> np.ndarray:
    """All 2^d sign vectors as a (2^d, d) array in binary-counting order.

    Bit j of the row index decides coordinate j (0 -> +1, 1 -> -1), least
    significant bit first; row 0 is therefore the all-ones vector.
    """
    if not isinstance(d, (int, np.integer)) or isinstance(d, bool):
        raise DimensionCapError(f"dimension must be an integer, got {d!r}")
    if not 1 <= d <= DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension must be in [1, {DIMENSION_CAP}], got {d}")
    idx = np.arange(2**d, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(d, dtype=np.uint32)[None, :]) & 1
    return 1.0 - 2.0 * bits.astype(float)


def coordinatewise_product(eps, x) -> np.ndarray:
    """Coordinatewise product eps (x) x; an involution in eps."""
    eps = np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    if eps.shape != x.shape[-eps.ndim:]:
        raise ShapeMismatchError(f"shapes {eps.shape} and {x.shape} do not align")
    return eps * x


def octant_contains(eps, x) -> bool:
    """Membership test for the closed octant Z(eps) = {x : eps_j x_j >= 0}."""
    eps = np.asarray(eps, dtype=float)
    x = np.asarray(x, dtype=float)
    if eps.shape != x.shape:
        raise ShapeMismatchError(f"shapes {eps.shape} and {x.shape} do not align")
    return bool(np.all(eps * x >= 0.0))


def octants_containing(x) -> np.ndarray:
    """Rows of all sign vectors whose octant contains ``x``.

    A point with k zero coordinates lies in exactly 2^k octants.
    """
    x = np.asarray(x, dtype=float)
    signs = enumerate_sign_vectors(x.shape[0])
    mask = np.all(signs * x[None, :] >= 0.0, axis=1)
    return signs[mask]


def log_mean_exp(values) -> float:
    """log((1/n) sum exp(v_i)), stabilized by shifting with the array max.

    Entries of -inf contribute zero mass; an all(-inf) array yields -inf.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("log_mean_exp of an empty array")
    m = float(np.max(v))
    if math.isinf(m):
        return m
    return m + math.log(float(np.mean(np.exp(v - m))))


def log_mean_exp_se(values) -> float:
    """Delta-method standard error of log_mean_exp over i.i.d. terms."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        return math.inf
    m = float(np.max(v))
    w = np.exp(v - m)
    mean = float(np.mean(w))
    sd = float(np.std(w, ddof=1))
    return sd / (math.sqrt(v.size) * mean)


@dataclass(frozen=True)
class LogValue:
    """A real number s * exp(m) stored as (m, s) to dodge overflow.

    ``sign`` is -1, 0, or +1; zero is represented as (-inf, 0).
    """

    log_magnitude: float
    sign: int = 1

    @classmethod
    def from_value(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls(-math.inf, 0)
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    def value(self) -> float:
        """Convert back to a float; overflows saturate to +-inf."""
        if self.sign == 0:
            return 0.0
        if self.log_magnitude > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogValue") -> "LogValue":
        s = self.sign * other.sign
        if s == 0:
            return LogValue(-math.inf, 0)
        return LogValue(self.log_magnitude + other.log_magnitude, s)

    def scaled(self, power: float) -> "LogValue":
        """|self|^power with the sign kept (sign must be nonnegative power use)."""
        if self.sign == 0:
            return self
        return LogValue(self.log_magnitude * power, self.sign)


def sphere_directions(d: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere in R^d.

    A Kronecker lattice (generalized golden ratio) on [0,1)^d is pushed
    through the normal quantile and normalized, giving a reproducible,
    well-spread direction set without any RNG.
    """
    if d < 1 or count < 1:
        raise ValueError("d and count must be positive")
    if d == 1:
        out = np.ones((count, 1))
        out[1::2, 0] = -1.0
        return out
    # plastic-constant style alphas: x^(d+1) = x + 1
    g = 1.5
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (d + 1))
    alpha = g ** -(1.0 + np.arange(d))
    u = ((np.arange(1, count + 1)[:, None]) * alpha[None, :] + 0.5) % 1.0
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(u)
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return z / norms


def double_until(ok: Callable[[float], bool], hi: float, cap: float) -> float:
    """Double ``hi`` until ``ok(hi)`` holds; +inf once ``hi`` passes ``cap``.

    ``ok`` must be monotone (false below a threshold, true above it), so the
    returned value brackets the threshold from above.
    """
    while not ok(hi):
        hi *= 2.0
        if hi > cap:
            return math.inf
    return hi


def bisect_monotone(ok: Callable[[float], bool], lo: float, hi: float,
                    rel_tol: float) -> tuple:
    """Halve [lo, hi] around the threshold of a monotone predicate.

    The caller guarantees ``ok(hi)``; ``lo`` is kept unless a midpoint fails,
    and neither end is ever re-tested. Returns ``(lo, hi)`` with
    ``hi - lo <= rel_tol * hi`` and ``ok(hi)`` still holding.
    """
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def box_grid(lo, hi, res: int) -> np.ndarray:
    """The res^d points of the axis-aligned grid on [lo, hi] as a (res^d, d)
    array, first axis slowest; ``lo`` and ``hi`` broadcast per axis."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    axes = [np.linspace(a, b, res) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def log_cosh(x) -> np.ndarray:
    """log cosh(x) elementwise, exact at 0 and free of overflow for large |x|."""
    a = np.abs(x)
    return a + np.log1p(np.exp(np.maximum(-2.0 * a, EXP_FLOOR))) - math.log(2.0)
