"""Numerical Legendre (Young-Fenchel) conjugation and ray inversion.

The conjugate phi*(y) = sup_x ((x, y) - phi(x)) is computed in two stages.
A grid stage scores each row on a grid over the support, or, when the
support is unbounded, on its own box. The first box's half-width is at
most 2^ceil(log2 2r), r the least radius (to a factor 2) with
phi(r y / |y|) >= |y| r, past which the objective is negative along the
ray of y; the box doubles while the row's maximum sits on its edge and
still grows, and a row that grows through every doubling is diverged,
+inf. A local search then polishes every other row: ``bb_ascent``
(projected Barzilai-Borwein) when the source has a gradient; otherwise
``line_search`` (a bracketed Brent search) when d = 1 and
``pattern_search`` (coordinate pattern search) when d >= 2. The
gradient-less searches serve kinked sources such as a tabulated natural
function or the envelope phi-bar, where they land closer to the vertex
maximum than gradient ascent. Both first evaluate x + cell and x - cell
along an axis, for every running row, in one call of the source. The line
search then runs each row's Brent search in Python floats, in rounds of one
call holding the next point of every running row, about a quarter of the
pattern search's calls. Every search stops each row on its own, so a
row's value does not depend on the other rows of its batch as long as the
source evaluates each row alone. The same searches serve the biconjugate
check; the log-reparameterized conjugate behind the moment norm polishes a
batch of order rows, one search per final box: ``bb_ascent`` when the
source has a gradient, else ``pattern_search``.
``bb_ascent`` stops a row that starts at a stationary point (gradient below
its tolerance) after one probe of length cell along the gradient, when that
probe does not gain: the concave objective then curves enough that, in the
quadratic model, the start is within a quarter of the row's slack of the
maximum, so an exact seed costs two objective calls. Reported values
are the objective at an evaluated point (x = 0 is always a candidate, so
phi* >= 0), rounded in float64; value - slack is a lower bound of the
supremum.

A source with ``grad_inverse`` (every built-in family, and phi_n of one)
starts each row at its exact maximizer x* = (grad phi)^-1(y), since
grad phi* = (grad phi)^-1; ``bb_ascent`` confirms an exact seed in two
objective calls, and the row's slack adds 4 ulp(|x*| |y|), the objective's
rounding at x*. A row the inverse flags diverged is +inf along the ray it
returns. A row whose seed or whose objective there is not finite, or whose
polish does not converge, takes the path of a source without
``grad_inverse``, below.

On the whole space, a source with a gradient skips the grid for each such
row whose crossing r is at most h / 2, h = 2^ceil(log2 2(1 + max|y_i|)):
the row starts at r y / (2|y|), where the concave objective is
nonnegative, and ``bb_ascent`` polishes it. A row with y = 0, with no
crossing below h / 2, or whose polish does not converge is gridded, on its
box from the same bisection. The cap keeps each seed where the rounding of
the objective stays far below the polish tolerance (logcosh at y = 1
"crosses" near 1e16 only by rounding).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, UnreachableLevelError
from .vectors import bisect_rows, box_grid, row_max_abs, row_norm, row_sum
from .young import YoungFunction

_GRID_RES = {1: 129, 2: 65, 3: 33}
#: Doublings of a row's search box before a still-growing row counts as
#: diverged.
_MAX_EXPANSIONS = 60
#: Lower edge of the log-reparameterized search box (e^-40 is about 4e-18).
_MU_LO = -40.0
#: Entries per score block of the grid stage (8 MB).
_SCORE_BLOCK = 1 << 20
#: Step growth of ``line_search``'s bracketing walk, and the golden-section
#: share 2 - 1.618 of its Brent loop.
_GOLD = 0.5 * (1.0 + math.sqrt(5.0))
_CGOLD = 2.0 - _GOLD
#: Step caps of ``line_search``'s walk and of its Brent loop.
_WALK_STEPS = 60
_BRENT_STEPS = 200
#: First polish step of a ray-seeded row, as a share of its crossing r, or
#: of an exact-seeded row, as a share of 1 + max|x*_i|; the row's slack,
#: |gradient| times this step, takes it as the distance left.
_SEED_CELL = 1e-6
_FLOAT_MAX = np.finfo(float).max


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
    #: the row's polish stopped on its own tolerance, not on its step cap;
    #: never set on a diverged row
    converged: np.ndarray

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
    a chunk's score block holds at most ``_SCORE_BLOCK`` entries, or two rows.

    Every chunk is scored in place in one full-block buffer, so a call holds
    one block of scores at a time however many rows it has, and calls on any
    number of rows (one per box size) reuse one allocation, not a new heap.
    A one-row chunk is scored as two copies of its row: a one-row product
    would go to BLAS gemv, whose rounding differs from gemm's, so a row's
    scores would depend on how many rows share its box. A point where phi is
    +inf scores -inf, also where y . x overflows to +inf."""
    m = Y.shape[0]
    n = X.shape[0]
    step = max(2, _SCORE_BLOCK // max(n, 1))
    best_val = np.empty(m)
    best_idx = np.empty(m, dtype=np.int64)
    buf = np.empty((step, n))
    off = np.flatnonzero(np.isposinf(phiX))
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        rows = Y[lo:hi] if hi - lo > 1 else Y[[lo, lo]]
        with np.errstate(over="ignore", invalid="ignore"):
            scores = np.matmul(rows, X.T, out=buf[:rows.shape[0]])[:hi - lo]
            scores -= phiX
        if off.size:
            scores[:, off] = -np.inf
        idx = np.argmax(scores, axis=1)
        best_idx[lo:hi] = idx
        best_val[lo:hi] = scores[np.arange(hi - lo), idx]
    return best_val, best_idx


def _empty_batch(m, d) -> ConjugateBatch:
    return ConjugateBatch(np.zeros(m), np.zeros((m, d)), np.zeros(m),
                          np.zeros(m, dtype=bool), np.zeros(m, dtype=bool))


def _rows(mask):
    # the rows of mask, as a slice when it holds them all: a slice takes
    # views, where an index array copies
    return slice(None) if np.all(mask) else np.flatnonzero(mask)


def _put(out: ConjugateBatch, rows, part: ConjugateBatch) -> None:
    for field in ("values", "argmax", "slack", "diverged", "converged"):
        getattr(out, field)[rows] = getattr(part, field)


class ConjugateEvaluator:
    """Conjugation of one source function; it holds only ``phi``.

    The settings are fixed: a source with ``grad_inverse`` starts each row
    at its maximizer x* and confirms it with ``bb_ascent``, with a first
    step of ``_SEED_CELL`` (1 + max|x*_i|). For the other rows, on the whole
    space, a source with a gradient starts each row with a ray crossing
    r <= h / 2 at r y / (2|y|) and polishes it with ``bb_ascent``, with a
    first step of ``_SEED_CELL`` r. Every other row gets a grid of
    ``_GRID_RES`` points per axis over the support's bounding box, or, on
    the whole space, over a per-row box sized from phi along the ray of y
    (see the module docstring) that doubles at most ``_MAX_EXPANSIONS``
    times; then ``bb_ascent``, or, for a source without a gradient,
    ``line_search`` at d = 1 and ``pattern_search`` above, started with the
    row's grid cell. A caller supplies no start: a custom source gets exact
    seeds by passing ``grad_inverse`` to ``make_custom``.
    """

    def __init__(self, phi: YoungFunction):
        self.phi = phi

    # -- public API --------------------------------------------------------

    def value(self, y) -> ConjugateValue:
        Y = np.atleast_2d(np.asarray(y, dtype=float))
        return self.values(Y)[0]

    def values(self, Y) -> ConjugateBatch:
        """Batched phi* at the rows of Y, which must be finite.

        Each row starts in one of three ways: at its exact maximizer, for a
        source with ``grad_inverse``; failing that, at its ray crossing, for
        a source with a gradient; failing that, on the grid (see the class
        docstring). x = 0 stays a candidate. Only the grid stage and
        ``grad_inverse`` detect divergence, and a polish that stops on its
        step cap may sit far below the supremum, so every seeded row that
        did not converge is re-solved through the grid stage within this
        call. For a convex phi the objective is concave, so a converged row
        reaches the maximum the grid stage and its polish reach, to within
        the polish tolerance.

        Each value is the objective at a point it was evaluated, rounded in
        float64: at an exact maximizer that can land a few ulp above the
        supremum, so the certified lower bound is ``values - slack``, and
        a converged row is within its slack of phi*.
        """
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[1] != self.phi.dimension:
            raise ParameterError("query dimension mismatch")
        if not np.all(np.isfinite(Y)):
            raise ParameterError("query rows must be finite")
        m, d = Y.shape
        out = _empty_batch(m, d)
        rest = np.arange(m)
        if self.phi.has_grad_inverse:
            X, diverged = self.phi.grad_inverse(Y)
            out.values[diverged] = np.inf
            out.argmax[diverged] = X[diverged]
            out.diverged[:] = diverged
            rows = _rows(~diverged & np.isfinite(row_sum(X)))
            X, top = X[rows], row_max_abs(X[rows])
            self._start(out, rows, Y[rows], X, _SEED_CELL * (1.0 + top))
            # the objective's rounding at the maximizer, a few ulp of
            # |(x, y)| + phi(x) <= 2 |x| |y|: 4 ulp(|x| |y|), taken at
            # d max|x_i| max|y_i| >= |x| |y| (inf past the float range)
            with np.errstate(over="ignore"):
                xy = np.minimum(d * top * row_max_abs(Y[rows]), _FLOAT_MAX)
                out.slack[rows] += 4.0 * np.spacing(xy)
            rest = np.flatnonzero(~diverged & ~out.converged)
        if rest.size:
            _put(out, rest, self._search(Y[rest]))
        return out

    # -- internals ----------------------------------------------------------

    def _search(self, Y):
        # the rows without an exact seed: a row whose ray crosses phi at
        # r <= h / 2 starts at r y / 2|y|; the grid takes the other rows and
        # each seeded row whose polish did not converge
        m, d = Y.shape
        h, r = self._first_box(Y)
        start = np.isfinite(r) & self.phi.has_gradient
        out = _empty_batch(m, d)
        rows = _rows(start)
        self._start(out, rows, Y[rows],
                    (0.5 * r[start])[:, None] * self._rays(Y[start])[2],
                    _SEED_CELL * r[start])
        redo = np.flatnonzero(~out.converged)
        if redo.size:
            _put(out, redo, self._polish(Y[redo],
                                         *self._grid_stage(Y[redo], h[redo])))
        return out

    def _start(self, out, rows, Y, x, cell):
        # polish the rows Y of out from x; x = 0 is always a candidate
        if Y.shape[0]:
            _put(out, rows, self._polish(
                Y, self.phi.support.project(x), None, cell,
                np.zeros(Y.shape[0], dtype=bool)))
            below = ~(out.values >= 0.0)
            out.values[below] = 0.0
            out.argmax[below] = 0.0

    def _objective(self, Y, X):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("ij,ij->i", Y, X) - self.phi.value_ext(X)

    def _grid_stage(self, Y, h):
        # each row on its own box h (doubled in place): the support's
        # bounding box, searched once, or, on the whole space, a power-of-two
        # box that doubles while the row's maximum sits on its edge and still
        # grows; rows on the same box share one grid
        m, d = Y.shape
        cap = self.phi.support.search_radius()
        res = _GRID_RES.get(d, 9)
        best_val = np.zeros(m)          # x = 0 is always a candidate
        best_x = np.zeros((m, d))
        diverged = np.zeros(m, dtype=bool)
        active = np.ones(m, dtype=bool)
        prev_val = np.full(m, -np.inf)
        n_exp = np.zeros(m, dtype=np.int64)
        while np.any(active):
            hs = np.sort(h[active])     # np.unique would import numpy.ma
            for hv in hs[np.append(True, hs[1:] > hs[:-1])]:
                rows = np.flatnonzero(active & (h == hv))
                X = box_grid(-hv, np.full(d, hv), res)
                with np.errstate(over="ignore"):
                    phiX = self.phi.value_ext(X)
                val, idx = _chunked_scores(Y[rows], X, phiX)
                take = val > best_val[rows]
                best_val[rows[take]] = val[take]
                best_x[rows[take]] = X[idx[take]]
            n_exp[active] += 1
            edge = h * (1.0 - 1.5 / (res - 1))
            on_edge = row_max_abs(best_x) >= edge
            grew = best_val > prev_val + 1e-10 * (1.0 + np.abs(best_val))
            prev_val = best_val.copy()
            active &= on_edge & grew & (h < cap)
            diverged |= active & (n_exp >= _MAX_EXPANSIONS)
            active &= ~diverged
            h[active] *= 2.0
        return best_x, best_val, h * 2.0 / (res - 1), diverged

    @staticmethod
    def _rays(Y):
        # the |y|-sized box 2^ceil(log2 2(1 + max|y_i|)), |y| and y/|y|
        # (0 at y = 0); |y| = s |y / s| with s the power of two at max|y_i|:
        # scaling by s is exact, so |y| keeps the plain norm's bits wherever
        # that norm is finite, and it does not overflow above 1.3e154
        top = row_max_abs(Y)
        h = 2.0 ** np.ceil(np.log2(2.0 * (1.0 + top)))
        e = np.frexp(top)[1]
        n = np.ldexp(row_norm(np.ldexp(Y, -e[:, None])), e)
        return h, n, Y / np.where(n > 0.0, n, 1.0)[:, None]

    def _first_box(self, Y):
        # each row's first box and its ray crossing r, bisected on
        # [h 2^-60, h / 2]: the smaller of h and 2^ceil(log2 2r), and r = inf
        # at y = 0 or with no crossing there; a bounded support's box is its
        # search radius, with no crossing
        cap = self.phi.support.search_radius()
        if not math.isinf(cap):
            return np.full(Y.shape[0], cap), np.full(Y.shape[0], np.inf)
        h, n, u = self._rays(Y)

        def ok(r, rows):
            # phi past the float range is +inf; an |y| r past it decides
            # nothing, so it counts as no crossing and the grid takes the row
            with np.errstate(over="ignore"):
                phi_r = self.phi.value_ext(r[:, None] * u[rows])
                nr = n[rows] * r
            return (n[rows] > 0.0) & np.isfinite(nr) & (phi_r >= nr)

        r = bisect_rows(ok, h * 2.0 ** -60, h / 2.0, 0.5, h / 2.0)[1]
        return np.minimum(h, 2.0 ** np.ceil(np.log2(2.0 * r))), r

    def _polish(self, Y, x, val, cell, diverged):
        # a diverged row is +inf whatever a polish does: it keeps its grid
        # point, whose direction is the escaping ray, and a slack of 0
        m = Y.shape[0]
        out = ConjugateBatch(np.full(m, np.inf), x.copy(), np.zeros(m),
                             diverged, np.zeros(m, dtype=bool))
        if not np.all(diverged):
            live = _rows(~diverged)
            (out.values[live], out.argmax[live], out.slack[live],
             out.converged[live]) = self._polish_rows(
                Y[live], x[live], None if val is None else val[live],
                cell[live])
        return out

    def _polish_rows(self, Y, x, val, cell):
        # val is None for rows started at x, whose start value is then
        # bb_ascent's first evaluation: a row whose start is not finite
        # never counts as converged. A gridded row keeps its grid value,
        # whose rounding may differ from the objective's.
        sup = self.phi.support
        if self.phi.has_gradient:
            first = []

            def f(rows, X):
                # rows is sorted, so all of them while their count is m
                Yr = Y if rows.size == Y.shape[0] else Y[rows]
                v = self._objective(Yr, X)
                if not first:
                    first.append(v)
                return v, Yr - self.phi.grad(X)

            # a row whose objective passes the float range (|y| near 1e154
            # and up) gets inf or NaN there, which never counts as a gain
            with np.errstate(over="ignore"):
                best_x, best_v, best_g, converged = bb_ascent(
                    f, x, cell, 1.0 + row_max_abs(Y), sup.project)
                slack = (row_norm(best_g) * cell
                         + 1e-14 * (1.0 + np.abs(best_v)))
            if val is None:
                converged &= np.isfinite(first[0])
            else:
                low = val > best_v
                best_v[low] = val[low]
                best_x[low] = x[low]
        else:
            if val is None:
                val = self._objective(Y, x)
            search = line_search if Y.shape[1] == 1 else pattern_search
            best_x, best_v, step, converged = search(
                lambda rows, X: self._objective(Y[rows], X), x, val,
                cell, sup.project, sup.search_radius())
            slack = step * (row_sum(np.abs(Y)) + 1.0)
        return best_v, best_x, slack, converged


def bb_ascent(f, x, cell, scale, project):
    """Projected Barzilai-Borwein ascent, one maximization per row of ``x``.

    ``f(rows, X)`` returns the objective and its gradient at the points X
    of the problems ``rows``. Row i starts at ``project(x[i])`` with a first
    step of length ``cell[i]``, and stops on its own once its gradient is
    below 1e-9 ``scale[i]`` and its step below 1e-13 (1 + max|x_i|), or
    after 240 steps; each pass evaluates only the rows still running, and
    a row's last point is evaluated too. A row whose start gradient is
    already below 1e-9 ``scale[i]`` and whose first step, of length
    ``cell[i]`` along it, does not gain stops after those two evaluations
    at its start: for a concave objective the lost probe shows a curvature
    of at least 2|g| / ``cell[i]`` along g, so in the quadratic model the
    start is within |g| ``cell[i]`` / 4 of the maximum. Returns the best
    point of each row, with its objective and gradient, and whether the row
    stopped on its tolerance rather than on the step cap. The first call of
    ``f`` holds every row's start.
    """
    rows = np.arange(x.shape[0])
    x = project(x.copy())
    best_v, g = f(rows, x)
    best_x, best_g = x.copy(), g.copy()
    gn = row_norm(g)
    alpha = cell / np.maximum(gn, 1e-30)
    x_prev, g_prev = x, g
    x = project(x + alpha[:, None] * g)
    converged = np.zeros(rows.size, dtype=bool)
    for it in range(241):
        v, g = f(rows, x)
        better = v > best_v[rows]
        best_v[rows[better]] = v[better]
        best_x[rows[better]] = x[better]
        best_g[rows[better]] = g[better]
        if it == 0:
            # a stationary start whose probe loses is within |g| cell / 4
            # of the maximum in the quadratic model, inside its slack
            stop = (gn / scale < 1e-9) & ~better
        converged[rows[stop]] = True
        if it == 240 or np.all(stop):
            break
        if np.any(stop):
            go = ~stop
            rows, x, g, x_prev, g_prev = (a[go] for a in (rows, x, g, x_prev,
                                                          g_prev))
        s = x - x_prev
        yv = g_prev - g
        sy = np.einsum("ij,ij->i", s, yv)
        ss = np.einsum("ij,ij->i", s, s)
        gn = row_norm(g)
        fallback = cell[rows] / np.maximum(gn, 1e-30)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(sy > 1e-300, ss / sy, fallback)
        alpha = np.clip(np.nan_to_num(alpha, nan=1e-6), 1e-14, 1e14)
        x_prev, g_prev = x, g
        x = project(x + alpha[:, None] * g)
        stop = ((gn / scale[rows] < 1e-9)
                & (row_max_abs(x - x_prev) < 1e-13 * (1.0 + row_max_abs(x))))
    return best_x, best_v, best_g, converged


def pattern_search(f, x, v, cell, project, cap):
    """Coordinate pattern search, one maximization per row of ``x``.

    ``f(rows, X)`` returns the objective at the points X of the problems
    ``rows``; row i starts at ``x[i]``, whose objective is ``v[i]``. A pass
    polls every axis in turn with one call of ``f`` per axis: the k live
    rows' points +step and -step along the axis are stacked as 2k points,
    and ``rows`` holds the live rows twice. A row moves to its + point if
    that gains and else to its - point if that gains. The row's step then
    grows 1.7x after a gain and halves otherwise, at most to ``cap``. A row
    stops on its own once its step is below 1e-7 of ``cell[i]``, or after
    90 passes; each pass evaluates only the rows still running. Returns
    the best points, their objectives, the last steps and whether each row
    stopped on its step tolerance.
    """
    d = x.shape[1]
    x, v, step = x.copy(), v.copy(), cell.copy()
    xtol = 1e-7 * (cell + 1e-12)
    rows = np.arange(x.shape[0])
    for _ in range(90):
        xr, vr, sr = x[rows], v[rows], step[rows]
        k = rows.size
        both = np.concatenate([rows, rows])
        improved = np.zeros(k, dtype=bool)
        for j in range(d):
            cand = np.concatenate([xr, xr])
            cand[:k, j] += sr
            cand[k:, j] -= sr
            cand = project(cand)
            vc = f(both, cand)
            up = vc[:k] > vr
            down = ~up & (vc[k:] > vr)
            for take, lo in ((up, 0), (down, k)):
                xr[take] = cand[lo:lo + k][take]
                vr[take] = vc[lo:lo + k][take]
            improved |= up | down
        sr = np.minimum(np.where(improved, sr * 1.7, sr * 0.5), cap)
        x[rows], v[rows], step[rows] = xr, vr, sr
        rows = rows[sr >= xtol[rows]]
        if rows.size == 0:
            break
    return x, v, step, step < xtol


def line_search(f, x, v, cell, project, cap):
    """Bracketed Brent search, one maximization per row of the (m, 1) ``x``.

    The arguments and the return value are those of ``pattern_search``. The
    search runs in rounds, each one call of ``f``. The first holds each
    row's points x + cell and x - cell, stacked as in ``pattern_search``;
    each later round holds the next point of every running row, in row
    order. A row whose + point gains, or else whose - point gains, walks on
    that way while it gains, each step 1.618x the last (at most ``cap``,
    then projected, one ``project`` call a round); a step that ``project``
    does not move cannot gain, so it ends the walk at the support edge.
    Brent's parabolic and golden-section steps (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5) then shrink the row's
    bracket [a, b] until |x - (a + b) / 2| <= 2 tol - (b - a) / 2, with
    tol = 1e-7 (cell[i] + 1e-12), or 4 ulp of x where that is larger, and
    the returned step is (b - a) / 2. Each row is a ``_brent`` generator in
    Python floats. A row that takes ``_WALK_STEPS`` walk steps or
    ``_BRENT_STEPS`` Brent steps stops unconverged. The returned point is
    the best one evaluated, so its objective is never below ``v[i]``.
    """
    m = x.shape[0]
    ends = project(np.concatenate([x + cell[:, None], x - cell[:, None]]))
    fends = f(np.concatenate([np.arange(m)] * 2), ends)
    start = zip(x[:, 0].tolist(), v.tolist(), ends[:m, 0].tolist(),
                fends[:m].tolist(), ends[m:, 0].tolist(), fends[m:].tolist(),
                cell.tolist())
    runs = [_brent(*row, float(cap)) for row in start]
    out, rows, sent = [None] * m, range(m), [None] * m
    while True:
        step = []               # (row, point, walk step) of a round
        for i, s in zip(rows, sent):
            try:
                step.append((i, *runs[i].send(s)))
            except StopIteration as stop:
                out[i] = stop.value
        if not step:
            break
        rows, t, walk = zip(*step)
        t = np.array(t)
        if any(walk):
            k = np.flatnonzero(walk)
            t[k] = project(t[k, None])[:, 0]
        sent = list(zip(t.tolist(), f(np.array(rows), t[:, None]).tolist()))
    bx, fx, half, converged = zip(*out) if m else ((),) * 4
    return (np.array(bx, dtype=float)[:, None], np.array(fx, dtype=float),
            np.array(half, dtype=float), np.array(converged, dtype=bool))


def _brent(x, fx, plus, fplus, minus, fminus, cell, cap):
    # one row of line_search in Python floats, from its start x and its
    # first points x + cell and x - cell: yields its next point and whether
    # that is a walk step, to be projected, and is sent that point as
    # evaluated and its objective; returns the best point, its objective,
    # the last half-bracket (or walk step) and whether the row converged
    tol = 1e-7 * (cell + 1e-12)
    lo, hi = (minus, fminus), (plus, fplus)
    if fplus > fx or fminus > fx:
        sgn = 1.0 if fplus > fx else -1.0
        behind = (x, fx)
        x, fx = hi if sgn > 0.0 else lo
        step = cell * _GOLD
        for _ in range(_WALK_STEPS):
            c, fc = yield x + sgn * min(step, cap), True
            # a step that does not gain (such as one that project returns
            # to the support edge) closes the bracket on the point behind
            if not fc > fx:
                break
            behind, (x, fx) = (x, fx), (c, fc)
            step *= _GOLD
        else:
            return x, fx, step, False
        lo, hi = behind, (c, fc)
    # the bracket [a, b] around x, Brent's w (second best) and z (the
    # previous w), and his last two steps d and e
    (u, fu), (t, ft) = lo, hi
    a, b = min(u, t), max(u, t)
    (w, fw), (z, fz) = (hi, lo) if ft > fu else (lo, hi)
    d = e = b - a
    for n in range(_BRENT_STEPS + 1):
        # at most 4 ulp of x, so that steps of t1 move x, far out too
        t1 = max(tol, 4.0 * math.ulp(abs(x)))
        mid = 0.5 * (a + b)
        stop = abs(x - mid) <= 2.0 * t1 - 0.5 * (b - a)
        if stop or n == _BRENT_STEPS:
            return x, fx, 0.5 * (b - a), stop
        # the parabola through x, w and z; inf and NaN fail every test
        # below, which falls back to a golden-section step
        r = (x - w) * (fx - fz)
        q = (x - z) * (fx - fw)
        p = (x - z) * q - (x - w) * r
        q = 2.0 * (q - r)
        if q > 0.0:
            p = -p
        q = abs(q)
        if (abs(e) > t1 and abs(p) < abs(0.5 * q * e)
                and p > q * (a - x) and p < q * (b - x)):
            e, d = d, p / q
            u = x + d
            if u - a < 2.0 * t1 or b - u < 2.0 * t1:
                d = math.copysign(t1, mid - x)
        else:
            e = a - x if x >= mid else b - x
            d = _CGOLD * e
        if abs(d) < t1:
            d = math.copysign(t1, d)
        u = x + d
        _, fu = yield u, False
        # Brent's update of the bracket and of x, w and z
        if fu >= fx:
            a, b = (x, b) if u >= x else (a, x)
            z, fz, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                z, fz, w, fw = w, fw, u, fu
            elif fu >= fz or z == x or z == w:
                z, fz = u, fu


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
    (lam, y) - phi*(y), whose gradient is lam - argmax x(y), each inner
    solve a call of ``ConjugateEvaluator.values``. A small residual
    certifies that the evaluator resolves this source function
    (Fenchel-Moreau: phi** = phi for closed convex phi).
    """
    ev = ConjugateEvaluator(phi)
    lam = np.atleast_2d(np.asarray(probes, dtype=float))
    target = phi.value(lam)
    y = phi.grad(lam) if phi.has_gradient else _fd_grad(phi, lam)

    def f(rows, Y):
        inner = ev.values(Y)
        return (np.einsum("ij,ij->i", lam[rows], Y) - inner.values,
                lam[rows] - inner.argmax)

    _, h, _, _ = bb_ascent(f, y, np.full(lam.shape[0], 1e-3),
                           1.0 + row_max_abs(lam), lambda Y: Y)
    # y = 0 gives h = 0
    return float(np.max(np.abs(np.maximum(h, 0.0) - target)))


def ray_inverse(phi: YoungFunction, direction, level: float) -> float:
    """Solve phi(t * direction) = level for t > 0 by bracketed bisection.

    One ``bisect_rows`` row from [0, 1], or from [0, limit (1 - 1e-13)] when
    the support ends at t = limit; a level not reached below that edge (or
    1e308) raises ``UnreachableLevelError``.
    """
    if level <= 0:
        raise ParameterError("level must be positive")
    u = np.asarray(direction, dtype=float)
    n = float(np.linalg.norm(u))
    if n == 0:
        raise ParameterError("direction must be nonzero")
    u = u / n

    def ok(t, rows):
        return phi.value_ext(t[:, None] * u) >= level

    limit = phi.support.ray_limit(u)
    start = limit * (1.0 - 1e-13) if math.isfinite(limit) else 1.0
    lo, hi = bisect_rows(ok, 0.0, start, 1e-15, min(limit, 1e308))
    if math.isinf(hi[0]):
        raise UnreachableLevelError(
            f"level {level} not reachable along the ray (support limit {limit})")
    return float(0.5 * (lo[0] + hi[0]))


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


def log_reparam_conjugate(phi: YoungFunction, r):
    """Conjugate of the log-reparameterized source: sup_mu ((r, mu) - phi(e^mu)).

    ``r`` is an (m, d) array of rows with positive entries, and the result
    holds one value per row; a length-d vector, or a scalar for a
    one-dimensional source, is a batch of one row and gives a float. Each
    row grid-searches its own box [_MU_LO, t]^d (concavity in mu is not
    assumed): t sits at the support's edge, or starts at 3 and grows by 3
    while the row's best point lies on the box's upper edge. The rows still
    growing share one grid and its phi values, scored row by row. The rows
    that end on the same box share one polish from their grid winners,
    clipped at its upper edge, so a row's value does not depend on its
    batch: ``bb_ascent`` with the gradient r - e^mu grad phi(e^mu) when phi
    has one, else ``pattern_search``; the grid value stays a candidate. A
    row whose box passes t = 400 is diverged, +inf.
    """
    d = phi.dimension
    R = np.atleast_1d(np.asarray(r, dtype=float))
    one = R.ndim == 1
    R = np.atleast_2d(R)
    if R.ndim != 2 or R.shape[1] != d:
        raise ParameterError(f"r must have length {d}")
    if not np.all(R > 0):               # NaN is no positive order either
        raise ParameterError("r must be positive")

    source = log_reparam(phi)
    grow = not phi.support.bounded
    top = 3.0 if grow else np.log(phi.support.radius) - 1e-12
    res = 2001 if d == 1 else (41 if d == 2 else 13)
    m = R.shape[0]
    best_v, best_mu = np.full(m, -np.inf), np.zeros((m, d))
    star, end = np.full(m, np.inf), np.full(m, np.inf)
    live = np.arange(m)
    for _ in range(200):
        pts = box_grid(_MU_LO, np.full(d, top), res)
        src = source(pts)
        for i in live:
            vals = pts @ R[i] - src
            k = int(np.argmax(vals))
            if vals[k] > best_v[i]:
                best_v[i], best_mu[i] = vals[k], pts[k]
        end[live] = top
        if not grow:
            break
        edge = top - 1.5 * (top - _MU_LO) / (res - 1)
        live = live[np.max(best_mu[live], axis=1) >= edge]
        if live.size == 0 or top > 400.0:
            break
        top += 3.0
    if grow and top > 400.0:
        end[live] = np.inf
    for t in sorted(set(end[np.isfinite(end)].tolist())):
        rows = np.flatnonzero(end == t)
        Rt, mu_hi = R[rows], np.full(d, t)
        cell = np.full(rows.size, (t - _MU_LO) / (res - 1))

        def clip(M):
            return np.minimum(M, mu_hi)

        if not phi.has_gradient:
            star[rows] = pattern_search(
                lambda k, M: row_sum(M * Rt[k]) - source(M), best_mu[rows],
                best_v[rows], cell, clip, math.inf)[1]
            continue

        def f(k, M):
            # the gradient r - e^mu * grad phi(e^mu); past the float range
            # the objective is -inf or NaN, which never gains
            with np.errstate(over="ignore", invalid="ignore"):
                lam = np.exp(M)
                return (row_sum(M * Rt[k]) - phi.value_ext(lam),
                        Rt[k] - lam * phi.grad(lam))

        # the grid value stays a candidate: its rounding may differ
        star[rows] = np.fmax(best_v[rows], bb_ascent(
            f, best_mu[rows], cell, 1.0 + row_max_abs(Rt), clip)[1])
    return float(star[0]) if one else star
