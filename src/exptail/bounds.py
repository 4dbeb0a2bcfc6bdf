"""Tail-bound production and certification.

Upper bounds are always of the Chernov shape exp(-phi*(x / tau)) with tau a
norm certificate; because the numerical conjugate is a lower bound of the
true supremum, emitted probabilities err on the conservative (large) side
of the computed conjugate. Lower bounds are Monte Carlo estimates of the
single-component tail, the gaussian limit, and a probed finite sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .conjugate import ConjugateEvaluator
from .empirical import (Gaussian, SampleSet, TailEstimate, empirical_variance,
                        sample, sample_sum, tail_function)
from .errors import MissingCertificateError, ParameterError
from .norms import NormEstimate, ProbePlan, bphi_norm
from .young import (CheckResult, YoungFunction, check_delta2_seminorm,
                    make_custom)


@dataclass(frozen=True)
class TailBound:
    """An upper bound exp(-exponent) on the tail at x, with diagnostics."""

    x: np.ndarray
    bound: float
    exponent: float
    slack: float
    clamped: bool = False
    diverged: bool = False
    escaping_ray: Optional[np.ndarray] = None
    ingredients: dict = field(default_factory=dict)

    @property
    def bound_with_slack(self) -> float:
        """Value guaranteed to dominate exp(-true conjugate at the query)."""
        return min(1.0, math.exp(-(self.exponent - self.slack)))


def chernov_bound(phi: YoungFunction, norm: float, x,
                  evaluator: Optional[ConjugateEvaluator] = None
                  ) -> TailBound | list[TailBound]:
    """exp(-phi*(x / norm)) for a vector x >= 0 and a norm certificate.

    A point (a (d,) array or a flat list) gives one ``TailBound``. A
    two-dimensional (m, d) array is a batch: it gives a list of m
    ``TailBound``s from one ``ConjugateEvaluator.values`` call, and an
    empty batch gives ``[]``. Row i of a batch equals the lone call on
    ``x[i]`` bit for bit as long as phi evaluates each row alone, whatever
    the rest of its batch, as every built-in family does; rows that share
    a first conjugation box then share one grid and one evaluation of phi.

    ``evaluator`` lets a caller conjugate through its own (for example an
    instrumented) ``ConjugateEvaluator``; it must have been built for this
    very ``phi``.
    """
    if norm <= 0:
        raise ParameterError("norm must be positive")
    batch = np.ndim(x) == 2
    X = np.asarray(x, dtype=float)
    if not batch:
        X = X.ravel()[None, :]
    if np.any(X < 0):
        raise ParameterError("x must be nonnegative")
    if X.shape[1] != phi.dimension:
        raise ParameterError("x dimension mismatch with phi")
    if evaluator is not None and evaluator.phi is not phi:
        raise ParameterError("evaluator was built for a different phi")
    if X.shape[0] == 0:
        return []
    res = (evaluator or ConjugateEvaluator(phi)).values(X / norm)
    bounds = [_tail_bound(phi, norm, X[i], res[i]) for i in range(X.shape[0])]
    return bounds if batch else bounds[0]


def _tail_bound(phi, norm, x, res) -> TailBound:
    ingredients = {"phi": phi.family, "norm": norm, "conjugate_slack": res.slack}
    if res.diverged:
        return TailBound(x, 0.0, math.inf, res.slack, clamped=False,
                         diverged=True, escaping_ray=res.escaping_ray,
                         ingredients=ingredients)
    raw = math.exp(-res.value)
    return TailBound(x, min(1.0, raw), res.value, res.slack,
                     clamped=raw > 1.0, ingredients=ingredients)


def min_coordinate_bound(phi: YoungFunction, norm: float,
                         y: float) -> TailBound:
    """2^d exp(-phi*((y/norm) 1)) bound on P(min_j |xi_j| > y), clamped to 1."""
    if y <= 0:
        raise ParameterError("y must be positive")
    d = phi.dimension
    base = chernov_bound(phi, norm, np.full(d, y))
    raw = (2.0**d) * math.exp(-base.exponent) if not base.diverged else 0.0
    return replace(base, bound=min(1.0, raw), clamped=raw > 1.0,
                   ingredients={**base.ingredients, "octant_factor": 2.0**d})


@dataclass(frozen=True)
class TransformResult:
    measured: NormEstimate
    delta2_seminorm: float
    product_bound: float
    consistent: bool
    warnings: tuple = ()


def transform_norm(phi: YoungFunction, A, xi_norm: float, mgf_plain,
                   plan: Optional[ProbePlan] = None) -> TransformResult:
    """Norm of A xi from the pushed-forward MGF log lam -> mgf(A^T lam).

    ``mgf_plain`` is the plain even log-MGF of xi. The result is checked
    against the Delta_2 product rule: since phi(A^T lam) <= phi(m^2 lam)
    with m the matrix seminorm, the provable bound is ||A xi|| <= m^2 ||xi||
    (the seminorm enters squared; it scales the argument, not the value),
    allowing 5% for the plan-limited measurement.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))

    def pushed(lam):
        lam = np.atleast_2d(np.asarray(lam, dtype=float))
        return np.asarray(mgf_plain(lam @ A))   # rows (A^T lam)^T = lam A

    measured = bphi_norm(pushed, phi, plan=plan)
    sem = check_delta2_seminorm(phi, A)
    product = sem * sem * xi_norm
    consistent = measured.value <= product * 1.05 + 1e-12
    if np.allclose(A, 0.0):
        consistent = measured.value <= 1e-9
    warns = ()
    if np.linalg.matrix_rank(A) < A.shape[0]:
        # A^T lam sweeps only a subspace; with a bounded support the
        # pushed function degenerates along ker(A^T)
        warns = ("degenerate_support",)
    return TransformResult(measured, sem, product, consistent, warns)


@dataclass(frozen=True)
class SumSpec:
    """Component norms entering the normalized sum S(n) = n^(-1/2) sum xi_i."""

    component_norms: tuple
    n: int

    def __post_init__(self):
        if self.n != len(self.component_norms):
            raise ParameterError("n must match the number of component norms")
        if any(v < 0 for v in self.component_norms):
            raise ParameterError("norms must be nonnegative")


def sum_norm_pythagoras(spec: SumSpec, phi: YoungFunction,
                        lambda2_certificate: CheckResult) -> float:
    """sigma(n) = n^(-1/2) (sum ||xi_i||^2)^(1/2), gated on a Lambda_2 check."""
    if lambda2_certificate is None or not lambda2_certificate.holds:
        raise MissingCertificateError(
            "sum rule requires a holding Lambda_2 certificate for phi")
    sq = sum(v * v for v in spec.component_norms)
    return math.sqrt(sq) / math.sqrt(spec.n)


def sum_bound(spec: SumSpec, phi: YoungFunction, x,
              lambda2_certificate: CheckResult) -> TailBound:
    """Chernov bound for S(n) with the Pythagoras norm sigma(n)."""
    sigma = sum_norm_pythagoras(spec, phi, lambda2_certificate)
    tb = chernov_bound(phi, sigma, x)
    return replace(tb, ingredients={**tb.ingredients, "sigma_n": sigma,
                                    "n": spec.n})


def uniform_sum_bound(component_norm: float, phi: YoungFunction, x,
                      n_set: Sequence[int],
                      lambda2_certificate: CheckResult) -> TailBound:
    """Uniform-in-n variant: sigma = sup over the declared n-set of sigma(n).

    For i.i.d. components sigma(n) is constant, so this equals the per-n
    bound; the finite n-set truncation is the caller's declared policy.
    """
    sigmas = []
    for n in n_set:
        spec = SumSpec(tuple([component_norm] * int(n)), int(n))
        sigmas.append(sum_norm_pythagoras(spec, phi, lambda2_certificate))
    sigma = max(sigmas)
    tb = chernov_bound(phi, sigma, x)
    return replace(tb, ingredients={**tb.ingredients, "sigma_sup": sigma,
                                    "n_set": tuple(int(n) for n in n_set)})


# -- the rescaled-source route -------------------------------------------

def phi_n(phi: YoungFunction, n: int, lam) -> np.ndarray:
    """n phi(lam / sqrt(n)); domain error when lam/sqrt(n) leaves the support."""
    return phi_n_function(phi, n).value(lam)


def phi_n_function(phi: YoungFunction, n: int) -> YoungFunction:
    """The rescaled source as a YoungFunction (support stretched by sqrt n)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    root = math.sqrt(n)
    grad = grad_inverse = None
    if phi.has_gradient:
        def grad(x, _root=root):
            return _root * phi.grad(np.asarray(x) / _root)
    if phi.has_grad_inverse:
        def grad_inverse(y):
            # grad phi_n(x) = sqrt(n) grad phi(x / sqrt(n))
            X, diverged = phi.grad_inverse(np.asarray(y) / root)
            return root * X, diverged

    return make_custom(phi.dimension,
                       lambda x: n * phi.value_ext(np.asarray(x) / root),
                       support=phi.support.scaled(root), gradient=grad,
                       hessian_at_origin=phi.hessian_at_origin,
                       params={"base": phi.family, "n": n},
                       grad_inverse=grad_inverse)


def _geometric_n_set(n_max: int) -> list:
    ns = []
    n = 1
    while n <= n_max:
        ns.append(n)
        n *= 2
    return ns


def _envelope(phi: YoungFunction, ns: Sequence[int], x: np.ndarray) -> np.ndarray:
    """max of 0.5 (phi''(0) x, x) and n phi(x / sqrt n) over n in ``ns``.

    All branches go through one ``value_ext`` call on a (branches, ..., d)
    stack; the maximum over them is exact, so the result equals a
    branch-by-branch loop.
    """
    H = phi.hessian_at_origin
    limit = 0.5 * np.einsum("...i,ij,...j->...", x, H, x)
    n = np.asarray(ns, dtype=float)
    lift = (-1,) + (1,) * (x.ndim - 1)      # a leading axis over branches
    scaled = x / np.sqrt(n).reshape(lift + (1,))
    # flat (points, d) rows: evaluators built on (n, d) blocks, such as the
    # empirical natural function, need not accept extra leading axes
    vals = phi.value_ext(scaled.reshape(-1, x.shape[-1]))
    branches = n.reshape(lift) * vals.reshape(scaled.shape[:-1])
    return np.maximum(limit, branches.max(axis=0))


def phi_bar(phi: YoungFunction, lam, n_max: int = 64) -> np.ndarray:
    """sup over the declared n-set {1, 2, 4, ..., n_max} of n phi(lam/sqrt n),
    plus the CLT limit candidate 0.5 (phi''(0) lam, lam) standing in for the
    tail of the n-sequence.
    """
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    return _envelope(phi, _geometric_n_set(n_max), lam)


def phi_bar_function(phi: YoungFunction, n_max: int = 64) -> YoungFunction:
    """The uniform envelope as a YoungFunction (no gradient: max of branches)."""
    ns = _geometric_n_set(n_max)
    return make_custom(phi.dimension,
                       lambda x: _envelope(phi, ns, np.asarray(x, dtype=float)),
                       support=phi.support,
                       hessian_at_origin=phi.hessian_at_origin,
                       params={"base": phi.family, "n_set": tuple(ns)})


def sum_bound_via_phi_n(phi: YoungFunction, n: int, x) -> TailBound:
    """exp(-(phi_n)*(x)) for the normalized sum of n i.i.d. copies."""
    tb = chernov_bound(phi_n_function(phi, n), 1.0, x)
    return replace(tb, ingredients={**tb.ingredients, "route": "phi_n",
                                    "n": n})


def uniform_sum_bound_via_phi_bar(phi: YoungFunction, x,
                                  n_max: int = 64) -> TailBound:
    """exp(-(phi_bar)*(x)): the uniform-in-n Chernov bound.

    The n-truncation plus CLT limit candidate is heuristic for the n
    beyond the declared set; flagged in the ingredients.
    """
    tb = chernov_bound(phi_bar_function(phi, n_max=n_max), 1.0, x)
    return replace(tb, ingredients={**tb.ingredients, "route": "phi_bar",
                                    "n_max": n_max,
                                    "n_truncation": "heuristic"})


# -- lower bounds ------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundResult:
    value: float
    half_width: float
    component: TailEstimate
    gaussian_limit: TailEstimate
    probed_sum: TailEstimate
    n_probe: int


def lower_bound(dist, x, n_probe: int, reps: int, seed: int = 0,
                component_sample: Optional[SampleSet] = None) -> LowerBoundResult:
    """Monte Carlo lower estimate of sup_n of the sum tail at x.

    Takes the max of (i) the single-component tail, (ii) the tail of the
    gaussian CLT limit with the empirical covariance, and (iii) the tail
    of a probed finite sum S(n_probe); each carries its own width.
    """
    x = np.asarray(x, dtype=float).ravel()
    comp = component_sample or sample(dist, reps, seed)
    t1 = tail_function(comp, x)
    Q = empirical_variance(comp)
    glimit = sample(Gaussian(Q), reps, seed + 1)
    t2 = tail_function(glimit, x)
    sums = sample_sum(dist, n_probe, reps, seed + 2)
    t3 = tail_function(sums, x)
    best = max((t1, t2, t3), key=lambda t: t.probability)
    return LowerBoundResult(best.probability, best.half_width, t1, t2, t3,
                            n_probe)
