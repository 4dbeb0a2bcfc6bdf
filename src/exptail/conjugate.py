"""Numerical Legendre (Young-Fenchel) conjugation and ray inversion.

The conjugate phi*(y) = sup_x ((x, y) - phi(x)) is computed in two stages.
A grid stage scores each row on a grid over the support, or, when the
support is unbounded, on its own box that doubles while the row's maximum
sits on the edge and still grows. A local ascent then polishes each row:
Barzilai-Borwein projected gradient when the source has a gradient, a
coordinate pattern search otherwise. Reported values are always lower
bounds of the true supremum (x = 0 is always a candidate, so phi* >= 0),
and the grid stage of a row does not depend on the other rows of its batch.
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
    support, or, when the support is unbounded, over a per-row box that
    starts at the power of two 2^ceil(log2(2 (1 + max|y_i|))) and doubles
    at most ``_MAX_EXPANSIONS`` times; then at most 240 ascent steps down
    to a relative gradient of 1e-9, started with the row's grid cell.
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
            x = self._project(np.atleast_2d(np.asarray(x0, dtype=float)).copy())
            val = self._objective(Y, x)
            return self._polish(Y, x, val, cell=np.full(Y.shape[0], 1e-3),
                                diverged=np.zeros(Y.shape[0], dtype=bool))
        return self._polish(Y, *self._grid_stage(Y))

    # -- internals ----------------------------------------------------------

    def _box_half_widths(self):
        sup = self.phi.support
        if sup.kind == "ball":
            return np.full(self.phi.dimension, sup.radius * (1 - 1e-12))
        if sup.kind == "box":
            return np.asarray(sup.half_widths) * (1 - 1e-12)
        return None  # unbounded: adaptive

    def _project(self, X):
        sup = self.phi.support
        if sup.kind == "ball":
            r = np.linalg.norm(X, axis=-1, keepdims=True)
            lim = sup.radius * (1 - 1e-12)
            scale = np.where(r > lim, lim / np.maximum(r, 1e-300), 1.0)
            X = X * scale
        elif sup.kind == "box":
            hw = np.asarray(sup.half_widths) * (1 - 1e-12)
            X = np.clip(X, -hw, hw)
        return X

    def _objective(self, Y, X):
        with np.errstate(invalid="ignore"):
            return np.einsum("ij,ij->i", Y, X) - self.phi.value_ext(X)

    def _grid_stage(self, Y):
        m, d = Y.shape
        fixed = self._box_half_widths()
        res = _GRID_RES.get(d, 9)
        best_val = np.zeros(m)          # x = 0 is always a candidate
        best_x = np.zeros((m, d))
        diverged = np.zeros(m, dtype=bool)

        def score(rows, X):
            val, idx = _chunked_scores(Y[rows], X, self.phi.value_ext(X))
            take = val > best_val[rows]
            best_val[rows[take]] = val[take]
            best_x[rows[take]] = X[idx[take]]

        if fixed is not None:
            score(np.arange(m), box_grid(-fixed, fixed, res))
            cell = np.full(m, float(np.max(fixed)) * 2.0 / (res - 1))
            return best_x, best_val, cell, diverged
        # each row on its own power-of-two box; rows on the same box share
        # one grid, and a row stops once its maximum leaves the edge or
        # stops growing
        h = 2.0 ** np.ceil(np.log2(2.0 * (1.0 + np.max(np.abs(Y), axis=1))))
        active = np.ones(m, dtype=bool)
        prev_val = np.full(m, -np.inf)
        n_exp = np.zeros(m, dtype=np.int64)
        while np.any(active):
            for hv in np.unique(h[active]):
                score(np.flatnonzero(active & (h == hv)),
                      box_grid(-hv, np.full(d, hv), res))
            n_exp[active] += 1
            edge = h * (1.0 - 1.5 / (res - 1))
            on_edge = np.max(np.abs(best_x), axis=1) >= edge
            grew = best_val > prev_val + 1e-10 * (1.0 + np.abs(best_val))
            prev_val = best_val.copy()
            active &= on_edge & grew
            diverged |= active & (n_exp >= _MAX_EXPANSIONS)
            active &= ~diverged
            h[active] *= 2.0
        return best_x, best_val, h * 2.0 / (res - 1), diverged

    def _polish(self, Y, x, val, cell, diverged):
        if self.phi.has_gradient:
            x, val, slack = self._ascent_bb(Y, x, val, cell)
        else:
            x, val, slack = self._pattern(Y, x, val, cell)
        values = val.copy()
        values[diverged] = np.inf
        return ConjugateBatch(values, x, slack, diverged)

    def _ascent_bb(self, Y, x0, v0, cell):
        x = self._project(x0.copy())
        g = Y - self.phi.grad(x)
        best_x, best_v = x.copy(), self._objective(Y, x)
        gn = np.linalg.norm(g, axis=1)
        alpha = cell / np.maximum(gn, 1e-30)
        x_prev, g_prev = x, g
        x = self._project(x + alpha[:, None] * g)
        scale = 1.0 + np.max(np.abs(Y), axis=1)
        for _ in range(240):
            g = Y - self.phi.grad(x)
            v = self._objective(Y, x)
            better = v > best_v
            best_v[better] = v[better]
            best_x[better] = x[better]
            s = x - x_prev
            yv = g_prev - g
            sy = np.einsum("ij,ij->i", s, yv)
            ss = np.einsum("ij,ij->i", s, s)
            fallback = cell / np.maximum(np.linalg.norm(g, axis=1), 1e-30)
            with np.errstate(divide="ignore", invalid="ignore"):
                alpha = np.where(sy > 1e-300, ss / sy, fallback)
            alpha = np.clip(np.nan_to_num(alpha, nan=1e-6), 1e-14, 1e14)
            x_prev, g_prev = x, g
            x = self._project(x + alpha[:, None] * g)
            if np.max(np.linalg.norm(g, axis=1) / scale) < 1e-9 and \
               np.max(np.abs(x - x_prev)) < 1e-13 * (1.0 + np.max(np.abs(x))):
                break
        v = self._objective(Y, x)
        better = v > best_v
        best_v[better] = v[better]
        best_x[better] = x[better]
        res = np.linalg.norm(Y - self.phi.grad(best_x), axis=1)
        slack = res * cell + 1e-14 * (1.0 + np.abs(best_v))
        low = v0 > best_v
        best_v[low] = v0[low]
        best_x[low] = x0[low]
        return best_x, best_v, slack

    def _pattern(self, Y, x0, v0, cell):
        m, d = Y.shape
        x = self._project(x0.copy())
        v = self._objective(Y, x)
        worse = v < v0
        x[worse] = x0[worse]
        v[worse] = v0[worse]
        step = cell.copy()
        hw = self._box_half_widths()
        xtol = 1e-7 * (cell + 1e-12)
        for _ in range(90):
            improved = np.zeros(m, dtype=bool)
            for j in range(d):
                for sgn in (1.0, -1.0):
                    cand = x.copy()
                    cand[:, j] += sgn * step
                    cand = self._project(cand)
                    vc = self._objective(Y, cand)
                    take = vc > v
                    x[take] = cand[take]
                    v[take] = vc[take]
                    improved |= take
            step = np.where(improved, step * 1.7, step * 0.5)
            if hw is not None:
                step = np.minimum(step, np.max(hw))
            if np.all(step < xtol):
                break
        slack = step * (np.sum(np.abs(Y), axis=1) + 1.0)
        return x, v, slack


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

    Conjugates twice: the outer ascent over y uses the identity
    grad phi*(y) = argmax x(y), warm-starting the inner solve at each step.
    A small residual certifies that the evaluator resolves this source
    function (Fenchel-Moreau: phi** = phi for closed convex phi).
    """
    ev = ConjugateEvaluator(phi)
    lam = np.atleast_2d(np.asarray(probes, dtype=float))
    target = phi.value(lam)
    y = phi.grad(lam).copy() if phi.has_gradient else _fd_grad(phi, lam)
    inner = ev.values(y)
    h_val = np.einsum("ij,ij->i", lam, y) - inner.values
    best_v = np.maximum(h_val, 0.0)                   # y = 0 gives h = 0
    best_y = y.copy()
    x_warm = inner.argmax
    g = lam - x_warm
    alpha = 1e-3 / (1.0 + np.linalg.norm(g, axis=1))
    y_prev, g_prev = y, g
    y = y + alpha[:, None] * g
    for _ in range(60):
        inner = ev.values(y, x0=x_warm)
        x_warm = inner.argmax
        h_val = np.einsum("ij,ij->i", lam, y) - inner.values
        better = h_val > best_v
        best_v[better] = h_val[better]
        best_y[better] = y[better]
        g = lam - x_warm
        s = y - y_prev
        yv = g_prev - g
        sy = np.einsum("ij,ij->i", s, yv)
        ss = np.einsum("ij,ij->i", s, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(sy > 1e-300, ss / sy, 1e-3)
        alpha = np.clip(np.nan_to_num(alpha, nan=1e-3), 1e-12, 1e12)
        y_prev, g_prev = y, g
        y = y + alpha[:, None] * g
        if np.max(np.linalg.norm(g, axis=1)) < 1e-11 * (1 + np.max(np.abs(lam))):
            break
    return float(np.max(np.abs(best_v - target)))


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


def _golden_max(f, lo: float, hi: float):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d_ = a + invphi * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(90):
        if fc >= fd:
            b, d_, fd = d_, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + invphi * (b - a)
            fd = f(d_)
        if b - a < 1e-13 * (1.0 + abs(a) + abs(b)):
            break
    x = c if fc >= fd else d_
    return x, max(fc, fd)


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
    vector. The search is grid + refine (concavity in mu is not assumed),
    finished by golden section along the final one-dimensional bracket.
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
    if phi.support.bounded:
        lims = np.array([phi.support.ray_limit(e) for e in np.eye(d)])
        mu_hi = np.log(lims) - 1e-12
        grow = False
    else:
        mu_hi = np.full(d, 3.0)
        grow = True
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
    # zoom + golden polish
    cell = (mu_hi - _MU_LO) / (res - 1)
    mu = best_mu.copy()
    for _ in range(3):
        for j in range(d):
            lo_j = mu[j] - 2.0 * cell[j]
            hi_j = min(mu[j] + 2.0 * cell[j], mu_hi[j])

            def f1(t, j=j):
                q = mu.copy()
                q[j] = t
                return float(obj(q[None, :])[0])

            tj, vj = _golden_max(f1, lo_j, hi_j)
            if vj >= best_v:
                mu[j] = tj
                best_v = vj
        cell *= 0.25
    return best_v
