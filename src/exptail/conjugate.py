"""Numerical Legendre (Young-Fenchel) conjugation and ray inversion.

The conjugate phi*(y) = sup_x ((x, y) - phi(x)) is computed in two stages.
A grid stage scores each row on a grid over the support, or, when the
support is unbounded, on its own box that doubles while the row's maximum
sits on the edge and still grows. A local search then polishes each row:
``bb_ascent`` (projected Barzilai-Borwein) when the source has a gradient,
``pattern_search`` (coordinate pattern search) otherwise. The pattern
search stays for kinked sources such as a tabulated natural function,
where it lands closer to the vertex maximum than gradient ascent. Both
searches stop each row on its own, so a row's value does not depend on the
other rows of its batch as long as the source evaluates each row alone.
The same two searches serve the biconjugate check and the
log-reparameterized conjugate behind the moment norm. Reported values are
always lower bounds of the true supremum (x = 0 is always a candidate, so
phi* >= 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnreachableLevelError
from .vectors import bisect_monotone, box_grid
from .young import YoungFunction

_GRID_RES = {1: 129, 2: 65, 3: 33}
#: Doublings of a row's search box before a still-growing row counts as
#: diverged.
_MAX_EXPANSIONS = 60
#: Lower edge of the log-reparameterized search box (e^-40 is about 4e-18).
_MU_LO = -40.0


@dataclass(frozen=True)
class ConjugateValue:
    """phi* at a single point, with optimizer diagnostics."""

    value: float
    argmax: np.ndarray
    slack: float
    diverged: bool = False
    escaping_ray: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ConjugateBatch:
    values: np.ndarray
    argmax: np.ndarray
    slack: np.ndarray
    diverged: np.ndarray

    def __getitem__(self, i) -> ConjugateValue:
        ray = None
        if self.diverged[i]:
            x = self.argmax[i]
            n = np.linalg.norm(x)
            ray = x / n if n > 0 else x
        return ConjugateValue(float(self.values[i]), self.argmax[i].copy(),
                              float(self.slack[i]), bool(self.diverged[i]), ray)


def _chunked_scores(Y, X, phiX):
    """Per-row argmax of Y X^T - phi(X), chunking the row dimension so that
    a chunk's score block holds at most 4M entries."""
    m = Y.shape[0]
    n = X.shape[0]
    step = max(1, 4_000_000 // max(n, 1))
    best_val = np.empty(m)
    best_idx = np.empty(m, dtype=np.int64)
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        scores = Y[lo:hi] @ X.T - phiX[None, :]
        idx = np.argmax(scores, axis=1)
        best_idx[lo:hi] = idx
        best_val[lo:hi] = scores[np.arange(hi - lo), idx]
    return best_val, best_idx


class ConjugateEvaluator:
    """Conjugation of one source function; it holds only ``phi``.

    The settings are fixed: a grid of ``_GRID_RES`` points per axis over the
    support's bounding box, or, when the support is the whole space, over a
    per-row box that
    starts at the power of two 2^ceil(log2(2 (1 + max|y_i|))) and doubles
    at most ``_MAX_EXPANSIONS`` times; then ``bb_ascent`` or
    ``pattern_search``, started with the row's grid cell.
    """

    def __init__(self, phi: YoungFunction):
        self.phi = phi

    # -- public API --------------------------------------------------------

    def value(self, y) -> ConjugateValue:
        Y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.values(Y)[0]

    def values(self, Y, x0=None) -> ConjugateBatch:
        """Batched phi* at the rows of Y, which must be finite; ``x0``
        warm-starts the polish only."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[1] != self.phi.dimension:
            raise ParameterError("query dimension mismatch")
        if not np.all(np.isfinite(Y)):
            raise ParameterError("query rows must be finite")
        if x0 is not None:
            x = self.phi.support.project(
                np.atleast_2d(np.asarray(x0, dtype=float)).copy())
            val = self._objective(Y, x)
            return self._polish(Y, x, val, cell=np.full(Y.shape[0], 1e-3),
                                diverged=np.zeros(Y.shape[0], dtype=bool))
        return self._polish(Y, *self._grid_stage(Y))

    # -- internals ----------------------------------------------------------

    def _objective(self, Y, X):
        with np.errstate(invalid="ignore"):
            return np.einsum("ij,ij->i", Y, X) - self.phi.value_ext(X)

    def _grid_stage(self, Y):
        # each row on its own box: the support's bounding box, searched once,
        # or, on the whole space, a power-of-two box that doubles while the
        # row's maximum sits on its edge and still grows; rows on the same
        # box share one grid
        m, d = Y.shape
        cap = self.phi.support.search_radius()
        res = _GRID_RES.get(d, 9)
        best_val = np.zeros(m)          # x = 0 is always a candidate
        best_x = np.zeros((m, d))
        diverged = np.zeros(m, dtype=bool)
        if math.isinf(cap):
            h = 2.0 ** np.ceil(np.log2(2.0 * (1.0 + np.max(np.abs(Y), axis=1))))
        else:
            h = np.full(m, cap)
        active = np.ones(m, dtype=bool)
        prev_val = np.full(m, -np.inf)
        n_exp = np.zeros(m, dtype=np.int64)
        while np.any(active):
            for hv in np.unique(h[active]):
                rows = np.flatnonzero(active & (h == hv))
                X = box_grid(-hv, np.full(d, hv), res)
                val, idx = _chunked_scores(Y[rows], X, self.phi.value_ext(X))
                take = val > best_val[rows]
                best_val[rows[take]] = val[take]
                best_x[rows[take]] = X[idx[take]]
            n_exp[active] += 1
            edge = h * (1.0 - 1.5 / (res - 1))
            on_edge = np.max(np.abs(best_x), axis=1) >= edge
            grew = best_val > prev_val + 1e-10 * (1.0 + np.abs(best_val))
            prev_val = best_val.copy()
            active &= on_edge & grew & (h < cap)
            diverged |= active & (n_exp >= _MAX_EXPANSIONS)
            active &= ~diverged
            h[active] *= 2.0
        return best_x, best_val, h * 2.0 / (res - 1), diverged

    def _polish(self, Y, x, val, cell, diverged):
        sup = self.phi.support
        if self.phi.has_gradient:
            def f(rows, X):
                return self._objective(Y[rows], X), Y[rows] - self.phi.grad(X)

            best_x, best_v, best_g = bb_ascent(
                f, x, cell, 1.0 + np.max(np.abs(Y), axis=1), sup.project)
            slack = (np.linalg.norm(best_g, axis=1) * cell
                     + 1e-14 * (1.0 + np.abs(best_v)))
            low = val > best_v
            best_v[low] = val[low]
            best_x[low] = x[low]
        else:
            start = sup.project(x.copy())
            start_v = self._objective(Y, start)
            worse = start_v < val
            start[worse] = x[worse]
            start_v[worse] = val[worse]
            best_x, best_v, step = pattern_search(
                lambda rows, X: self._objective(Y[rows], X), start, start_v,
                cell, sup.project, sup.search_radius())
            slack = step * (np.sum(np.abs(Y), axis=1) + 1.0)
        values = best_v.copy()
        values[diverged] = np.inf
        return ConjugateBatch(values, best_x, slack, diverged)


def bb_ascent(f, x, cell, scale, project):
    """Projected Barzilai-Borwein ascent, one maximization per row of ``x``.

    ``f(rows, X)`` returns the objective and its gradient at the points X
    of the problems ``rows``. Row i starts at ``project(x[i])`` with a first
    step of length ``cell[i]``, and stops on its own once its gradient is
    below 1e-9 ``scale[i]`` and its step below 1e-13 (1 + max|x_i|), or
    after 240 steps; each pass evaluates only the rows still running, and
    a row's last point is evaluated too. Returns the best point of each
    row, with its objective and gradient.
    """
    rows = np.arange(x.shape[0])
    x = project(x.copy())
    best_v, g = f(rows, x)
    best_x, best_g = x.copy(), g.copy()
    alpha = cell / np.maximum(np.linalg.norm(g, axis=1), 1e-30)
    x_prev, g_prev = x, g
    x = project(x + alpha[:, None] * g)
    stop = np.zeros(rows.size, dtype=bool)
    for it in range(241):
        v, g = f(rows, x)
        better = v > best_v[rows]
        best_v[rows[better]] = v[better]
        best_x[rows[better]] = x[better]
        best_g[rows[better]] = g[better]
        if it == 240 or np.all(stop):
            break
        go = ~stop
        rows, x, g, x_prev, g_prev = (a[go] for a in (rows, x, g, x_prev,
                                                      g_prev))
        s = x - x_prev
        yv = g_prev - g
        sy = np.einsum("ij,ij->i", s, yv)
        ss = np.einsum("ij,ij->i", s, s)
        gn = np.linalg.norm(g, axis=1)
        fallback = cell[rows] / np.maximum(gn, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(sy > 1e-300, ss / sy, fallback)
        alpha = np.clip(np.nan_to_num(alpha, nan=1e-6), 1e-14, 1e14)
        x_prev, g_prev = x, g
        x = project(x + alpha[:, None] * g)
        stop = ((gn / scale[rows] < 1e-9)
                & (np.max(np.abs(x - x_prev), axis=1)
                   < 1e-13 * (1.0 + np.max(np.abs(x), axis=1))))
    return best_x, best_v, best_g


def pattern_search(f, x, v, cell, project, cap):
    """Coordinate pattern search, one maximization per row of ``x``.

    ``f(rows, X)`` returns the objective at the points X of the problems
    ``rows``; row i starts at ``x[i]``, whose objective is ``v[i]``. A pass
    tries a step of +-step along every axis and keeps each gain; the row's
    step then grows 1.7x after a gain and halves otherwise, at most to
    ``cap``. A row stops on its own once its step is below 1e-7 of
    ``cell[i]``, or after 90 passes; each pass evaluates only the rows
    still running. Returns the best points, their objectives and the last
    steps.
    """
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
    return x, v, step


def conjugate(phi: YoungFunction, y) -> ConjugateValue:
    """One-shot phi*(y) through a throwaway evaluator."""
    return ConjugateEvaluator(phi).value(y)


def _fd_grad(phi: YoungFunction, pts: np.ndarray) -> np.ndarray:
    """Central-difference gradient, batched over points."""
    d = phi.dimension
    h = 1e-6 * (1.0 + np.max(np.abs(pts)))
    g = np.empty_like(pts)
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        g[:, j] = (phi.value_ext(pts + e) - phi.value_ext(pts - e)) / (2 * h)
    return g


def biconjugate_residual(phi: YoungFunction, probes) -> float:
    """max over probes of |phi**(lam) - phi(lam)|.

    Conjugates twice: the outer ascent over y runs ``bb_ascent`` on
    (lam, y) - phi*(y), whose gradient is lam - argmax x(y), and each of its
    inner solves is warm-started at the previous argmax. A small residual
    certifies that the evaluator resolves this source function
    (Fenchel-Moreau: phi** = phi for closed convex phi).
    """
    ev = ConjugateEvaluator(phi)
    lam = np.atleast_2d(np.asarray(probes, dtype=float))
    target = phi.value(lam)
    y = phi.grad(lam) if phi.has_gradient else _fd_grad(phi, lam)
    x_warm = ev.values(y).argmax

    def f(rows, Y):
        inner = ev.values(Y, x0=x_warm[rows])
        x_warm[rows] = inner.argmax
        return (np.einsum("ij,ij->i", lam[rows], Y) - inner.values,
                lam[rows] - inner.argmax)

    _, h, _ = bb_ascent(f, y, np.full(lam.shape[0], 1e-3),
                        1.0 + np.max(np.abs(lam), axis=1), lambda Y: Y)
    # y = 0 gives h = 0
    return float(np.max(np.abs(np.maximum(h, 0.0) - target)))


def ray_inverse(phi: YoungFunction, direction, level: float) -> float:
    """Solve phi(t * direction) = level for t > 0 by bracketed bisection.

    The bracket grows geometrically from 1e-8 by x4 until the level is
    straddled (capped at the support edge for bounded regions), then is
    bisected in t down to a relative width of 1e-15.
    """
    if level <= 0:
        raise ParameterError("level must be positive")
    u = np.asarray(direction, dtype=float)
    n = float(np.linalg.norm(u))
    if n == 0:
        raise ParameterError("direction must be nonzero")
    u = u / n

    def f(t):
        return float(phi.value_ext(t * u))

    limit = phi.support.ray_limit(u)
    t_lo = 1e-8
    while f(t_lo) > level:
        t_lo /= 4.0
        if t_lo < 1e-300:
            return 0.0
    t_hi = t_lo
    for _ in range(600):
        nxt = t_hi * 4.0
        if nxt >= limit:
            t_hi = limit * (1.0 - 1e-13)
            break
        t_hi = nxt
        if f(t_hi) >= level:
            break
    if not f(t_hi) >= level:
        raise UnreachableLevelError(
            f"level {level} not reachable along the ray (support limit {limit})")
    t_lo, t_hi = bisect_monotone(lambda t: f(t) >= level, t_lo, t_hi, 1e-15)
    return 0.5 * (t_lo + t_hi)


def log_reparam(phi: YoungFunction):
    """The reparameterized source Phi(mu) = phi(e^mu), e^mu coordinatewise.

    Nondecreasing in every coordinate of mu (phi is even and increasing
    along positive rays); +inf once e^mu leaves the support.
    """
    def f(mu):
        mu = np.atleast_2d(np.asarray(mu, dtype=float))
        with np.errstate(over="ignore"):
            lam = np.exp(mu)
        return phi.value_ext(lam)

    return f


def log_reparam_conjugate(phi: YoungFunction, r) -> float:
    """Conjugate of the log-reparameterized source: sup_mu ((r, mu) - phi(e^mu)).

    ``r`` is a positive scalar for one-dimensional sources or a length-d
    vector. A grid search (concavity in mu is not assumed) is polished by
    ``pattern_search``, clipped at the grid's upper edge.
    Returns +inf when the objective keeps growing (diverged).
    """
    d = phi.dimension
    r_vec = np.atleast_1d(np.asarray(r, dtype=float))
    if r_vec.shape != (d,):
        raise ParameterError(f"r must have length {d}")
    if np.any(r_vec <= 0):
        raise ParameterError("r must be positive")

    def obj(mu):
        mu = np.atleast_2d(mu)
        with np.errstate(over="ignore"):
            lam = np.exp(mu)
        return mu @ r_vec - phi.value_ext(lam)

    # upper edge of the mu box: support-limited or grown until the
    # objective stops improving near the boundary
    grow = not phi.support.bounded
    mu_hi = np.full(d, 3.0 if grow else np.log(phi.support.radius) - 1e-12)
    res = 2001 if d == 1 else (41 if d == 2 else 13)
    best_v, best_mu = -np.inf, None
    for _ in range(200):
        pts = box_grid(_MU_LO, mu_hi, res)
        vals = obj(pts)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_mu = float(vals[i]), pts[i].copy()
        if not grow:
            break
        on_edge = np.any(best_mu >= mu_hi - 1.5 * (mu_hi - _MU_LO) / (res - 1))
        if not on_edge:
            break
        if np.any(mu_hi > 400.0):
            return math.inf
        mu_hi = mu_hi + 3.0
    cell = float(np.max(mu_hi - _MU_LO)) / (res - 1)
    _, best, _ = pattern_search(
        lambda rows, M: obj(M), best_mu[None, :], np.array([best_v]),
        np.array([cell]), lambda M: np.minimum(M, mu_hi), math.inf)
    return float(best[0])
