"""Finite-difference verifiers for monotonicity classes of candidate
exp-generating functions.

Mixed forward differences approximate signed mixed partials; verdicts are
three-valued because a numerical stencil can refute but never prove a
continuum sign condition. ``consistent`` reads "no violation found at this
resolution".
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .vectors import box_grid

CONSISTENT = "consistent"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: Optional[dict] = None
    checked_orders: int = 0
    grid_points: int = 0
    details: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.status == CONSISTENT


def _order_vectors(d: int, k_max: int):
    """Nonzero multi-indices k with |k| <= k_max, low orders and low axes first."""
    ks = [k for k in product(range(k_max + 1), repeat=d)
          if 0 < sum(k) <= k_max]
    for k in sorted(ks, key=lambda k: (sum(k), tuple(-v for v in k))):
        yield np.array(k, dtype=int)


def mixed_forward_difference(f, pts: np.ndarray, k: np.ndarray,
                             h: np.ndarray) -> np.ndarray:
    """Forward-difference estimate of the mixed partial of order k at pts.

    sum over j <= k of (-1)^{|k - j|} C(k, j) f(x + j h) / prod h^k,
    evaluated in one batched call per offset.
    """
    pts = np.atleast_2d(pts)
    total = np.zeros(pts.shape[0])
    denom = float(np.prod(h**k))
    for j in product(*(range(int(ki) + 1) for ki in k)):
        j = np.array(j)
        coeff = (-1.0) ** int(np.sum(k - j)) * float(
            np.prod([math.comb(int(a), int(b)) for a, b in zip(k, j)]))
        total += coeff * np.asarray(f(pts + j * h), dtype=float)
    return total / denom


def check_absolutely_monotonic(f, box: Sequence, k_max: int = 4,
                               grid_points: int = 9) -> Verdict:
    """All mixed forward differences of order |k| <= k_max nonnegative?

    The step is 1/64 of the box width per axis. The truncation error of
    each difference is estimated by halving the step; a value below
    -(10 x error estimate) is a violation, a negative value inside that
    tolerance renders the point inconclusive.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    d = len(box)
    widths = np.array([hi - lo for lo, hi in box])
    if np.any(widths <= 0):
        raise ParameterError("box must have positive extent per axis")
    h = widths / 64.0
    pts = box_grid(*np.transpose(box), grid_points)
    scale = float(np.max(np.abs(np.asarray(f(pts), dtype=float)))) or 1.0
    atol = 1e-12 * scale

    base = np.asarray(f(pts), dtype=float)
    if np.any(base < -atol):
        i = int(np.argmin(base))
        return Verdict(VIOLATED, {"k": np.zeros(d, dtype=int),
                                  "point": pts[i], "value": float(base[i])},
                       checked_orders=1, grid_points=pts.shape[0])

    n_orders = 1
    any_inconclusive = False
    for k in _order_vectors(d, k_max):
        n_orders += 1
        d_half = mixed_forward_difference(f, pts, k, h / 2.0)
        d_full = mixed_forward_difference(f, pts, k, h)
        err = np.abs(d_full - d_half)
        tol = 10.0 * err + atol
        bad = d_half < -tol
        if np.any(bad):
            i = int(np.argmax(bad))
            return Verdict(VIOLATED, {"k": k, "point": pts[i],
                                      "value": float(d_half[i]),
                                      "tolerance": float(tol[i])},
                           checked_orders=n_orders, grid_points=pts.shape[0])
        any_inconclusive |= bool(np.any(d_half < 0))
    status = INCONCLUSIVE if any_inconclusive else CONSISTENT
    return Verdict(status, None, n_orders, pts.shape[0])


def check_octant_monotonic(f, eps, box: Sequence, k_max: int = 4,
                           grid_points: int = 9) -> Verdict:
    """Signs of mixed partials match eps^k on the box?

    Reduces exactly to absolute monotonicity of lam -> f(eps (x) lam) on
    the sign-flipped box (chain rule multiplies the order-k partial by
    eps^k), so flip equivariance holds by construction.
    """
    eps = np.asarray(eps, dtype=float).ravel()
    if np.any(np.abs(eps) != 1.0):
        raise ParameterError("eps must be a sign vector")
    if len(eps) != len(box):
        raise ParameterError("eps and box dimensions differ")
    flipped_box = []
    for e, (lo, hi) in zip(eps, box):
        flipped_box.append((lo, hi) if e > 0 else (-hi, -lo))

    def g(pts):
        return f(np.atleast_2d(pts) * eps)

    verdict = check_absolutely_monotonic(g, flipped_box, k_max=k_max,
                                         grid_points=grid_points)
    if verdict.witness is not None:
        wit = dict(verdict.witness)
        wit["point"] = wit["point"] * eps
        wit["eps"] = eps
        return Verdict(verdict.status, wit, verdict.checked_orders,
                       verdict.grid_points)
    return verdict


def decomposition_check(f_parts: Sequence, target, box: Sequence,
                        k_max: int = 3, *, sum_tol: float = 1e-8,
                        origin_tol: float = 1e-10) -> Verdict:
    """Does sum over parts of F_eps recover the target, with each part
    monotonic for its own octant and the part masses at 0 summing to 1?
    Every check runs on the 9-point-per-axis grid of the box.

    ``f_parts`` is a sequence of (sign_vector, evaluable) pairs covering
    each octant at most once.
    """
    d = len(box)
    seen = set()
    for eps, _ in f_parts:
        key = tuple(np.asarray(eps, dtype=float).ravel())
        if key in seen:
            raise ParameterError(f"duplicate octant {key}")
        seen.add(key)

    pts = box_grid(*np.transpose(box), 9)
    total = np.zeros(pts.shape[0])
    at_zero = 0.0
    zero = np.zeros((1, d))
    for eps, part in f_parts:
        total += np.asarray(part(pts), dtype=float)
        at_zero += float(np.asarray(part(zero), dtype=float).ravel()[0])
    target_vals = np.asarray(target(pts), dtype=float)
    gap = np.abs(total - target_vals)
    details = {"max_sum_gap": float(np.max(gap)),
               "mass_at_zero": at_zero}
    if np.max(gap) > sum_tol:
        i = int(np.argmax(gap))
        return Verdict(VIOLATED, {"point": pts[i], "sum": float(total[i]),
                                  "target": float(target_vals[i])},
                       grid_points=pts.shape[0], details=details)
    if abs(at_zero - 1.0) > origin_tol:
        return Verdict(VIOLATED, {"mass_at_zero": at_zero},
                       grid_points=pts.shape[0], details=details)

    any_inconclusive = False
    for eps, part in f_parts:
        sub = check_octant_monotonic(part, eps, box, k_max=k_max)
        if sub.status == VIOLATED:
            wit = dict(sub.witness or {})
            wit["part_eps"] = np.asarray(eps, dtype=float)
            return Verdict(VIOLATED, wit, grid_points=pts.shape[0],
                           details=details)
        any_inconclusive |= sub.status == INCONCLUSIVE
    status = INCONCLUSIVE if any_inconclusive else CONSISTENT
    return Verdict(status, None, grid_points=pts.shape[0], details=details)
