"""Sign-vector enumeration, log-mean-exp, and the numerical primitives every
other module shares: a row-wise monotone bisection, box grids, a stable
log-cosh, and the row products over the d coordinates (``rows_times``,
``quad_form``), which every module routes its per-row products through.

Everything here is a pure function of immutable inputs; no shared state.
Sign vectors are plain float arrays with entries in {-1.0, +1.0}.
"""
from __future__ import annotations

import math
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import DimensionCapError

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


def sphere_directions(d: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere in R^d.

    A Kronecker lattice (generalized golden ratio) on [0,1)^d is pushed
    through the normal quantile and normalized, giving a reproducible,
    well-spread direction set without any RNG. In d = 1 the sphere is
    {+1, -1}, so both are returned, once each, whatever ``count`` is.
    """
    if d < 1 or count < 1:
        raise ValueError("d and count must be positive")
    if d == 1:
        return np.array([[1.0], [-1.0]])
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


def bisect_rows(ok: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, hi,
                rel_tol: float, cap) -> tuple:
    """Per-row threshold of a predicate that is false below it, true above.

    ``ok(t, rows)`` returns one bool per row index in ``rows``, tested at
    ``t``; ``lo``, ``hi`` and ``cap`` broadcast to one entry per row. A row
    that holds at ``lo`` returns ``(lo, lo)``. Any other row doubles ``hi``
    until it holds, or is +inf once a doubled ``hi`` passes ``cap``, then
    halves ``[lo, hi]`` to ``hi - lo <= rel_tol * hi``, or to one spacing of
    ``hi`` where rel_tol * hi is smaller (as for subnormal thresholds). No
    end is tested twice, and a row's bracket does not depend on the others."""
    lo, hi = (a.astype(float).ravel() for a in np.broadcast_arrays(lo, hi))
    held = ok(lo, np.arange(lo.size))
    hi[held] = lo[held]
    grow = ~held & (hi == lo)   # hi = lo has failed: double it untested
    test = ~held & ~grow
    while np.any(test | grow):
        rows = np.flatnonzero(test)
        if rows.size:
            grow[rows] = ~ok(hi[rows], rows)
        hi[grow] *= 2.0
        hi[grow & (hi > cap)] = np.inf
        test = grow & (hi < np.inf)
        grow[:] = False
    while True:
        live = hi - lo > np.maximum(rel_tol * hi, np.spacing(hi))
        if not np.any(live):
            return lo, hi
        rows = np.flatnonzero(live)
        mid = 0.5 * (lo[rows] + hi[rows])
        good = ok(mid, rows)
        hi[rows[good]] = mid[good]
        lo[rows[~good]] = mid[~good]


def row_sum(a) -> np.ndarray:
    """Sum over the last axis with one numpy call per column, where numpy's
    own reduction of a short axis makes one call per row. It adds in
    numpy's pairwise order (from +0.0, in turn below d = 8, else in eight
    accumulators), so it has the bits of ``np.add.reduce(a, axis=-1)``,
    NaN signs aside, at every d up to ``DIMENSION_CAP``."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    s = np.zeros(a.shape[:-1])
    k = 0
    if d >= 8:
        k = d - d % 8
        r = [a[..., j] for j in range(8)]
        for i in range(8, k, 8):
            r = [r[j] + a[..., i + j] for j in range(8)]
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(k, d):
        s += a[..., j]
    return s if s.ndim else s[()]    # a scalar for one point, as np.sum


def rows_times(X, A) -> np.ndarray:
    """X @ A over points (..., d), every row computed by BLAS gemm: numpy
    sends a one-row product to gemv, which rounds otherwise, so a lone row
    with d >= 2 goes through as two copies of itself (at d = 1 there is no
    sum to round). A row then rounds alone as in any batch wherever gemm's
    rows do not depend on the batch's size: for a d x d A, and at d <= 3;
    OpenBLAS can round a wider product's rows at d >= 4 by the batch."""
    X = np.asarray(X, dtype=float)
    rows = X.reshape(-1, X.shape[-1])
    lone = rows.shape[0] == 1 and rows.shape[1] > 1
    out = (rows[[0, 0]] @ A)[:1] if lone else rows @ A
    return out.reshape(X.shape[:-1] + out.shape[1:])


def quad_form(X, A) -> np.ndarray:
    """(A x, x) over points (..., d), as ``row_sum(X * rows_times(X, A))``."""
    return row_sum(X * rows_times(X, A))


def row_max_abs(a) -> np.ndarray:
    """``np.max(np.abs(a), axis=-1)``, column by column."""
    b = np.abs(a)
    m = b[..., 0]
    for j in range(1, b.shape[-1]):
        m = np.maximum(m, b[..., j])
    return m


def row_norm(a) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)``, which is sqrt of the sum of squares."""
    a = np.asarray(a, dtype=float)
    return np.sqrt(row_sum(a * a))


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
