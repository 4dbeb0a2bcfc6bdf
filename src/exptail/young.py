"""Generating-function families and structural predicate checkers.

A ``YoungFunction`` is an even convex function phi with phi(0) = 0 on an
open support ``SupportRegion(radius)``: the ball of that radius centered at
0, or the whole space when the radius is inf. Every downstream computation
(conjugation, norm bisection, tail bounds) consumes these objects through
the same vectorized evaluation contract: points are arrays of shape
(..., d) and values come back with shape (...).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import OutsideSupportError, ParameterError
from .vectors import (bisect_monotone, double_until, enumerate_sign_vectors,
                      log_cosh, sphere_directions)


@dataclass(frozen=True)
class SupportRegion:
    """Open ball of the given radius centered at 0; an infinite radius is
    the whole space."""

    radius: float = math.inf

    def __post_init__(self):
        if not self.radius > 0:
            raise ParameterError("support radius must be positive")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.radius)

    def contains(self, x) -> np.ndarray:
        """Boolean mask over points of shape (..., d); the region is open."""
        x = np.asarray(x, dtype=float)
        if not self.bounded:
            return np.ones(x.shape[:-1], dtype=bool)
        return np.linalg.norm(x, axis=-1) < self.radius

    def ray_limit(self, direction) -> float:
        """sup{t >= 0 : t * direction inside the region} (inf when full)."""
        n = float(np.linalg.norm(np.asarray(direction, dtype=float)))
        return math.inf if n == 0 else self.radius / n

    def search_radius(self) -> float:
        """The radius pulled 1e-12 (relative) inside; inf when full."""
        return self.radius * (1 - 1e-12)

    def project(self, X) -> np.ndarray:
        """Rows of X rescaled onto the ball of ``search_radius()`` when they
        lie outside it."""
        if not self.bounded:
            return X
        rs = self.search_radius()
        r = np.linalg.norm(X, axis=-1, keepdims=True)
        return X * np.where(r > rs, rs / np.maximum(r, 1e-300), 1.0)

    def scaled(self, c: float) -> "SupportRegion":
        """The region stretched by the factor c > 0."""
        return SupportRegion(self.radius * c)


class YoungFunction:
    """Evaluable even convex generating function with declared support.

    ``value`` raises outside the support; ``value_ext`` fills +inf there,
    which is the convention every optimizer in this package relies on.
    """

    def __init__(self, dimension, evaluate, support=None, gradient=None,
                 hessian_at_origin=None, family="custom", params=None):
        self.dimension = int(dimension)
        self._evaluate = evaluate
        self.support = support or SupportRegion()
        self._gradient = gradient
        self._hessian = None if hessian_at_origin is None else np.asarray(
            hessian_at_origin, dtype=float)
        self.family = family
        self.params = dict(params or {})
        zero = self._evaluate(np.zeros((1, self.dimension)))
        if abs(float(np.asarray(zero).ravel()[0])) > 1e-12:
            raise ParameterError(f"{family}: evaluate(0) must be 0")

    # -- evaluation ------------------------------------------------------

    def value(self, lam):
        """phi at points (..., d); raises OutsideSupportError off-support."""
        lam = self._as_points(lam)
        if not bool(np.all(self.support.contains(lam))):
            raise OutsideSupportError(f"{self.family}: point outside support")
        return self._evaluate(lam)

    def value_ext(self, lam):
        """phi extended by +inf outside the support."""
        lam = self._as_points(lam)
        inside = self.support.contains(lam)
        if bool(np.all(inside)):
            return self._evaluate(lam)
        out = np.full(lam.shape[:-1], np.inf)
        if np.any(inside):
            out[inside] = self._evaluate(lam[inside])
        return out

    def __call__(self, lam):
        return self.value(lam)

    @property
    def has_gradient(self) -> bool:
        return self._gradient is not None

    def grad(self, lam):
        if self._gradient is None:
            raise ParameterError(f"{self.family}: no gradient available")
        return self._gradient(self._as_points(lam))

    @property
    def hessian_at_origin(self) -> np.ndarray:
        """Second derivative matrix at 0 (finite differences if undeclared)."""
        if self._hessian is None:
            h = 1e-5 * min(1.0, 0.25 * self.support.radius)
            d = self.dimension
            H = np.empty((d, d))
            eye = np.eye(d)
            for i in range(d):
                for j in range(i, d):
                    pp = self.value((eye[i] + eye[j]) * h)
                    pm = self.value((eye[i] - eye[j]) * h)
                    # evenness: phi(-x) = phi(x), so four-point stencil folds
                    H[i, j] = H[j, i] = (pp - pm) / (2.0 * h * h) if i != j else \
                        2.0 * self.value(eye[i] * h) / (h * h)
            self._hessian = 0.5 * (H + H.T)
        return self._hessian

    @property
    def y_membership(self) -> str:
        """"full" when the origin Hessian is PD per the class definition."""
        H = self.hessian_at_origin
        try:
            np.linalg.cholesky(H + 0.0)
        except np.linalg.LinAlgError:
            return "relaxed"
        return "full" if np.linalg.det(H) > 0 else "relaxed"

    def _as_points(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0:
            if self.dimension != 1:
                raise ParameterError("scalar input for multivariate function")
            lam = lam.reshape(1)
        if lam.shape[-1] != self.dimension:
            raise ParameterError(
                f"expected last axis {self.dimension}, got shape {lam.shape}")
        return lam

    def __repr__(self):
        return f"YoungFunction({self.family}, d={self.dimension})"


# -- concrete families ---------------------------------------------------

def make_quadratic(B) -> YoungFunction:
    """phi(lam) = 0.5 (B lam, lam) for a positive definite symmetric B."""
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape[0] != B.shape[1]:
        raise ParameterError("B must be square")
    if not np.allclose(B, B.T, atol=1e-12):
        raise ParameterError("B must be symmetric")
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise ParameterError("B must be positive definite") from None
    d = B.shape[0]

    def ev(x):
        return 0.5 * np.einsum("...i,ij,...j->...", x, B, x)

    return YoungFunction(d, ev, gradient=lambda x: x @ B,
                         hessian_at_origin=B, family="quadratic",
                         params={"B": B.copy()})


def make_power(p: float, c: float, d: int) -> YoungFunction:
    """phi(lam) = c |lam|^p on the full space; requires p > 1, c > 0.

    Only p = 2 has a positive definite origin Hessian, so other exponents
    carry y_membership == "relaxed".
    """
    if p <= 1:
        raise ParameterError("power exponent must exceed 1")
    if c <= 0:
        raise ParameterError("power scale must be positive")

    def ev(x):
        return c * np.linalg.norm(x, axis=-1) ** p

    def gr(x):
        n = np.linalg.norm(x, axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = c * p * n ** (p - 2.0) * x
        return np.where(n == 0.0, 0.0, g)

    H = 2.0 * c * np.eye(d) if p == 2 else np.zeros((d, d))
    return YoungFunction(d, ev, gradient=gr, hessian_at_origin=H,
                         family="power", params={"p": p, "c": c})


def make_bounded_support(K: float, c: float) -> YoungFunction:
    """One-dimensional phi(lam) = c lam^2 / (K - |lam|) on (-K, K).

    The lam^2 factor pins phi(0) = phi'(0) = 0 while keeping the
    divergence at the support edge.
    """
    if K <= 0 or c <= 0:
        raise ParameterError("K and c must be positive")

    def ev(x):
        a = np.abs(x[..., 0])
        return c * a * a / (K - a)

    def gr(x):
        t = x[..., 0]
        a = np.abs(t)
        return (c * t * (2.0 * K - a) / (K - a) ** 2)[..., None]

    return YoungFunction(1, ev, support=SupportRegion(K), gradient=gr,
                         hessian_at_origin=np.array([[2.0 * c / K]]),
                         family="bounded", params={"K": K, "c": c})


def make_radial(nu: Callable[[np.ndarray], np.ndarray], Q,
                nu_prime: Optional[Callable] = None) -> YoungFunction:
    """phi(lam) = nu((Q lam, lam)) for convex nondecreasing nu, nu(0) = 0."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise ParameterError("Q must be positive definite") from None
    z0 = float(np.asarray(nu(np.zeros(1))).ravel()[0])
    if abs(z0) > 1e-14:
        raise ParameterError("nu(0) must be 0")
    d = Q.shape[0]

    def quad(x):
        return np.einsum("...i,ij,...j->...", x, Q, x)

    def ev(x):
        return nu(quad(x))

    gr = None
    if nu_prime is not None:
        def gr(x):
            return (2.0 * np.asarray(nu_prime(quad(x)))[..., None]) * (x @ Q)

    if nu_prime is not None:
        slope0 = float(np.asarray(nu_prime(np.zeros(1))).ravel()[0])
    else:
        h = 1e-7
        slope0 = float(np.asarray(nu(np.array([h]))).ravel()[0]) / h
    return YoungFunction(d, ev, gradient=gr, hessian_at_origin=2.0 * slope0 * Q,
                         family="radial", params={"Q": Q.copy()})


def make_logcosh(d: int, scale: float = 1.0) -> YoungFunction:
    """phi(lam) = sum_j log cosh(scale * lam_j): natural for +-scale coins."""
    if scale <= 0:
        raise ParameterError("scale must be positive")

    def ev(x):
        return np.sum(log_cosh(scale * x), axis=-1)

    def gr(x):
        return scale * np.tanh(scale * x)

    return YoungFunction(d, ev, gradient=gr,
                         hessian_at_origin=scale * scale * np.eye(d),
                         family="logcosh", params={"scale": scale})


def make_custom(dimension, evaluate, support=None, gradient=None,
                hessian_at_origin=None, params=None) -> YoungFunction:
    """Wrap a user-supplied vectorized evaluator as a YoungFunction.

    ``support`` is a ``SupportRegion(radius)``, the open ball of that radius
    centered at 0; None means the whole space.
    """
    return YoungFunction(dimension, evaluate, support=support,
                         gradient=gradient,
                         hessian_at_origin=hessian_at_origin,
                         family="custom", params=params)


# -- structural checkers --------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    """Outcome of a randomized predicate check.

    ``holds`` means "no violation found under this seed and plan" -- it is
    a certificate of search effort, never a proof.
    """

    holds: bool
    witness: Optional[dict] = None
    trials: int = 0
    seed: int = 0
    plan: str = ""


def check_lambda2(phi: YoungFunction, trial_count: int = 10_000, *,
                  seed: int = 0) -> CheckResult:
    """Search for violations of phi(a x) + phi(b x) <= phi(sqrt(a^2+b^2) x)
    beyond a tolerance of 1e-9.

    a, b are log-uniform over [0.01, 100]; probe vectors are standard normal,
    rescaled to stay inside 0.8 of a bounded support for every scaled copy.
    """
    rng = np.random.default_rng(seed)
    loga, logb = math.log(1e-2), math.log(1e2)
    a = np.exp(rng.uniform(loga, logb, trial_count))
    b = np.exp(rng.uniform(loga, logb, trial_count))
    lam = rng.standard_normal((trial_count, phi.dimension))
    hyp = np.sqrt(a * a + b * b)
    if phi.support.bounded:
        lims = phi.support.radius / np.linalg.norm(lam, axis=1)
        lam *= (0.8 * lims / np.maximum(hyp, np.maximum(a, b)))[:, None]
    lhs = phi.value_ext(a[:, None] * lam) + phi.value_ext(b[:, None] * lam)
    rhs = phi.value_ext(hyp[:, None] * lam)
    bad = lhs > rhs + 1e-9
    plan = f"trials={trial_count},a_range=(0.01, 100.0)"
    if np.any(bad):
        i = int(np.argmax(bad))
        witness = {"a": float(a[i]), "b": float(b[i]), "lam": lam[i].copy(),
                   "lhs": float(lhs[i]), "rhs": float(rhs[i])}
        return CheckResult(False, witness, trial_count, seed, plan)
    return CheckResult(True, None, trial_count, seed, plan)


def delta2_grid(d: int) -> np.ndarray:
    """Direction x log-radius probe grid used by the Delta_2 seminorm:
    37 directions times the radii 2^-10 ... 2^10."""
    dirs = sphere_directions(d, 37)
    radii = 2.0 ** np.arange(-10, 11, dtype=float)
    return (dirs[:, None, :] * radii[None, :, None]).reshape(-1, d)


def check_delta2_seminorm(phi: YoungFunction, A) -> float:
    """Grid estimate of the matrix seminorm |||A|||_phi.

    Bisection, to a relative width of 1e-6, on the smallest m with
    phi(A^T lam) <= phi(m^2 lam) over the ``delta2_grid`` probes; a lower
    bound of the true seminorm. Returns inf when no m below 1000 works.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    pts = delta2_grid(phi.dimension)
    lhs = phi.value_ext(pts @ A)

    def ok(m):
        rhs = phi.value_ext((m * m) * pts)
        return bool(np.all(lhs <= rhs + 1e-12 + 1e-12 * np.abs(rhs)))

    if ok(0.0):
        return 0.0
    hi = double_until(ok, 1.0, 1e3)
    if math.isinf(hi):
        return math.inf
    return bisect_monotone(ok, 0.0, hi, 1e-6)[1]


def check_absolutely_even(f, dimension: int, trial_count: int = 200, *,
                          seed: int = 0) -> CheckResult:
    """Check f(eps (x) x) == f(x), to within 1e-10, across all 2^d sign
    flips at standard normal points."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((trial_count, dimension))
    base = np.asarray(f(pts), dtype=float)
    signs = enumerate_sign_vectors(dimension)
    plan = f"trials={trial_count},scale=1.0"
    for eps in signs:
        flipped = np.asarray(f(pts * eps), dtype=float)
        bad = np.abs(flipped - base) > 1e-10
        if np.any(bad):
            i = int(np.argmax(bad))
            witness = {"eps": eps.copy(), "x": pts[i].copy(),
                       "f_x": float(base[i]), "f_flipped": float(flipped[i])}
            return CheckResult(False, witness, trial_count, seed, plan)
    return CheckResult(True, None, trial_count, seed, plan)
