"""Norm computations: generating-function norm, the (+)-composition rule,
moment (grand-Lebesgue style) norms, and the Orlicz/Luxemburg norm.

The generating-function norm, the (+)-rule and the Luxemburg norm bisect a
monotone predicate, each probe's least scale a row of ``vectors.bisect_rows``
and the norm the largest over the probes; so a reported value is certified
against a finite plan (a lower bound of the continuum norm), with a bracket.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conjugate import ConjugateEvaluator, log_reparam_conjugate
from .empirical import SampleSet, natural_function, vector_moment
from .errors import InsufficientProbesError, ParameterError
from .vectors import bisect_rows, sphere_directions
from .young import YoungFunction

#: Largest scale the Luxemburg bisection tries before reporting exceeds_cap.
_LUX_C_MAX = 1e6


@dataclass(frozen=True)
class NormEstimate:
    """A bracketed scalar norm value with search diagnostics."""

    value: float
    bracket: tuple
    probe_plan: str
    residual: float = 0.0
    trust_flags: int = 0
    flags: tuple = ()
    extras: dict = field(default_factory=dict)

    @property
    def exceeded_cap(self) -> bool:
        return "exceeds_cap" in self.flags


@dataclass(frozen=True)
class ProbePlan:
    """A finite set of probe vectors with a printable description. A plan
    of rays also keeps its directions and radii, whose products are its
    points, direction-major."""

    points: np.ndarray
    description: str
    directions: Optional[np.ndarray] = None
    radii: Optional[np.ndarray] = None


def ray_probe_plan(d: int, n_directions: int = 37, r_lo: float = 0.05,
                   r_hi: float = 4.0, n_radii: int = 25) -> ProbePlan:
    """Default plan: low-discrepancy directions x log-spaced radii.

    r_hi <= 4 keeps every radius on the natural function's rows binned at
    level 4 (``empirical._RAY_BASE``), so evaluating the plan bins each of
    its sign rows once; a larger r_hi bins each row at level 0 as well."""
    dirs = sphere_directions(d, n_directions)
    radii = np.geomspace(r_lo, r_hi, n_radii)
    pts = (dirs[:, None, :] * radii[None, :, None]).reshape(-1, d)
    desc = (f"rays(dirs={dirs.shape[0]},radii={n_radii},"
            f"r=[{r_lo:g},{r_hi:g}])")
    return ProbePlan(pts, desc, dirs, radii)


def _eval_mgf(mgf_log, pts: np.ndarray, plan: Optional[ProbePlan] = None):
    """Values plus trust flags at ``pts``, the points of ``plan`` if given;
    plain callables are fully trusted. A natural function evaluates a plan
    of rays along its rays."""
    if hasattr(mgf_log, "evaluate_with_trust"):
        if plan is not None and plan.radii is not None:
            vals, trusted = mgf_log.evaluate_with_trust(plan.directions,
                                                        radii=plan.radii)
        else:
            vals, trusted = mgf_log.evaluate_with_trust(pts)
        return np.asarray(vals, dtype=float), np.asarray(trusted, dtype=bool)
    vals = np.asarray(mgf_log(pts), dtype=float)
    return vals, np.ones(pts.shape[0], dtype=bool)


def bphi_norm(mgf_log, phi: YoungFunction, plan: Optional[ProbePlan] = None,
              rel_tol: float = 1e-4, tau_max: float = 1e6) -> NormEstimate:
    """Least tau with mgf_log(lam) <= phi(tau lam) over the probe plan, then
    over the plan plus eight extra probes around its binding constraint.

    ``mgf_log`` must already include the max over sign patterns (empirical
    natural functions do; analytic inputs are the caller's contract).
    The predicate is monotone in tau because phi is even, convex, and
    vanishes at 0. Off-support phi values count as +inf, which keeps the
    bracket valid for bounded supports.
    """
    plan = plan or ray_probe_plan(phi.dimension)
    pts = plan.points
    vals, trusted = _eval_mgf(mgf_log, pts, plan)
    # +inf values stay: they force the cap unless the support absorbs them
    keep = trusted & ~np.isnan(vals)
    n_discard = int(np.sum(~keep))
    if not np.any(keep):
        raise InsufficientProbesError("every probe was discarded as untrusted")
    pts = pts[keep]
    vals = vals[keep]

    def least_tau(pts, vals, lo):
        def ok(tau, rows):
            rhs = phi.value_ext(tau[:, None] * pts[rows])
            return vals[rows] <= rhs + 1e-12 + 1e-12 * np.abs(rhs)

        return float(np.max(bisect_rows(ok, np.full(len(pts), lo), lo or 1.0,
                                        rel_tol, tau_max)[1]))

    value = least_tau(pts, vals, 0.0)
    if value == 0.0:
        return NormEstimate(0.0, (0.0, 0.0), plan.description,
                            trust_flags=n_discard)
    if math.isfinite(value):
        gap = vals - phi.value_ext(value * pts)
        lam_star = pts[int(np.argmax(gap))]
        # four points along lam_star and four jittered by +-5% along axes
        delta = np.zeros((4, phi.dimension))
        delta[np.arange(4), np.arange(4) % phi.dimension] = (
            0.05 * np.linalg.norm(lam_star) * np.array([1.0, -1.0, 1.0, -1.0]))
        extra = np.vstack([np.outer([0.85, 0.95, 1.05, 1.18], lam_star),
                           lam_star + delta])
        evals, etrust = _eval_mgf(mgf_log, extra)
        ekeep = etrust & np.isfinite(evals)
        n_discard += int(np.sum(~ekeep))
        # every plan probe holds at value, so only the extra ones are run
        if np.any(ekeep):
            value = max(value, least_tau(extra[ekeep], evals[ekeep], value))
            pts = np.vstack([pts, extra[ekeep]])
            vals = np.concatenate([vals, evals[ekeep]])
    if math.isinf(value):
        return NormEstimate(math.inf, (tau_max, math.inf), plan.description,
                            trust_flags=n_discard, flags=("exceeds_cap",))

    rhs = phi.value_ext(value * pts)
    residual = float(np.max(vals - rhs))
    return NormEstimate(value, (value * (1 - rel_tol), value),
                        plan.description + "+refine",
                        residual=residual, trust_flags=n_discard)


def odot(a: float, b: float, phi: YoungFunction) -> float:
    """inf{c : phi(c lam) >= phi(a lam) + phi(b lam) for all default-plan
    probes}, to a relative width of 1e-6.

    Convexity with phi(0) = 0 guarantees c = a + b always works, and
    monotonicity along rays forces c >= max(a, b); the bisection runs
    inside that bracket. Commutative by construction; 0 is the unit.
    """
    if a < 0 or b < 0:
        raise ParameterError("odot arguments must be nonnegative")
    if a == 0.0 or b == 0.0:
        return float(a + b)
    pts = ray_probe_plan(phi.dimension).points
    if phi.support.bounded:
        # rescale rows so the widest scaled copy (a+b) pts stays inside
        lims = phi.support.radius / np.linalg.norm(pts, axis=1)
        pts = pts * (0.9 * lims / (a + b))[:, None]
    target = phi.value_ext(a * pts) + phi.value_ext(b * pts)

    def ok(c, rows):
        lhs = phi.value_ext(c[:, None] * pts[rows])
        return lhs >= target[rows] - 1e-12 - 1e-12 * np.abs(target[rows])

    lo = np.full(len(pts), max(a, b))   # a + b holds, so it is the cap
    return float(np.max(bisect_rows(ok, lo, a + b, 1e-6, a + b)[1]))


def gls_norm_1d(moments: Callable[[float], float], psi: Callable[[float], float],
                p_grid: Sequence[float]) -> NormEstimate:
    """sup over the moment-order grid of |xi|_p / psi(p)."""
    best, best_p = 0.0, None
    for p in p_grid:
        denom = psi(p)
        if denom <= 0:
            raise ParameterError("psi must be positive on the grid")
        ratio = moments(p) / denom
        if ratio > best:
            best, best_p = ratio, p
    return NormEstimate(best, (best, best), f"p_grid={list(p_grid)}",
                        extras={"achieved_p": best_p})


def psi_phi_even_moments(phi: YoungFunction, m: int) -> float:
    """(2m) exp(-Phi*(2m) / (2m)) with Phi the log-reparameterized source."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    if phi.dimension != 1:
        raise ParameterError("even-moment psi is one-dimensional")
    star = log_reparam_conjugate(phi, float(2 * m))
    if math.isinf(star):
        raise ParameterError("diverged log-reparameterized conjugate")
    return 2.0 * m * math.exp(-star / (2.0 * m))


def psi_moment_vector(phi: YoungFunction, r):
    """e^-1 2^(d/|r|) prod_j r_j^(r_j/|r|) exp(-Phi*(r)/|r|), |r| = sum_j r_j.

    One value per row of an (m, d) ``r``, from one batched Phi* solve; any
    other shape is flattened to one order vector and gives a float."""
    R = np.asarray(r, dtype=float)
    one = R.ndim != 2
    R = R.reshape(1, -1) if one else R
    if np.any(R < 1):
        raise ParameterError("moment orders must be >= 1")
    stars = log_reparam_conjugate(phi, R)
    out = []
    for row, star in zip(R, stars):
        if math.isinf(star):
            raise ParameterError("diverged log-reparameterized conjugate")
        total = float(np.sum(row))
        out.append(math.exp(-1.0 + (phi.dimension / total) * math.log(2.0)
                            + float(np.sum(row * np.log(row))) / total
                            - star / total))
    return out[0] if one else np.array(out)


def default_moment_grid(d: int) -> list:
    if d == 1:
        return [np.array([float(r)]) for r in (1, 2, 4, 8, 16, 32)]
    base = [(2, 2), (4, 2), (2, 4), (4, 4), (8, 8)]
    out = []
    for tpl in base:
        vec = np.ones(d)
        vec[: min(d, 2)] = tpl[: min(d, 2)]
        if d > 2:
            vec[2:] = 2.0
        out.append(vec)
    return out


def gls_norm_vector(moments: Callable[[np.ndarray], float],
                    phi: YoungFunction) -> NormEstimate:
    """sup over the vector-order grid of |xi|_r / psi_Phi(r)."""
    r_grid = default_moment_grid(phi.dimension)
    psi = psi_moment_vector(phi, np.array(r_grid)).tolist()
    best, best_r = 0.0, None
    for r, p in zip(r_grid, psi):
        ratio = moments(r) / p
        if ratio > best:
            best, best_r = ratio, r
    return NormEstimate(best, (best, best),
                        f"r_grid({len(r_grid)} points)",
                        extras={"achieved_r": best_r})


class OrliczFunction:
    """N(u) = exp(phi*(u)) - 1, evaluated through the conjugator.

    N is even, nonnegative, and N(0) = 0 exactly (x = 0 is always a grid
    candidate, so the computed phi*(0) is exactly 0).
    """

    def __init__(self, base: YoungFunction):
        self.base = base
        self.evaluator = ConjugateEvaluator(base)

    def values(self, U) -> np.ndarray:
        """N at the rows of U, one ``ConjugateEvaluator.values`` call."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        star = self.evaluator.values(U).values
        with np.errstate(over="ignore"):
            return np.exp(star) - 1.0

    def __call__(self, u) -> float:
        return float(self.values(np.atleast_2d(u))[0])


def luxemburg_norm(s: SampleSet, N: OrliczFunction, rel_tol: float = 1e-4, *,
                   subsample: Optional[int] = None) -> NormEstimate:
    """inf{c > 0 : (1/n) sum N(xi_i / c) <= 1} by bisection, capped at 1e6.

    The predicate is monotone in c (N even, nondecreasing in |u|). An
    optional deterministic subsample caps the per-iteration conjugation
    cost for large sample sets.

    Each step conjugates its rows afresh, and no step depends on another.
    A phi with ``grad_inverse`` (every built-in family) starts each row at
    its exact maximizer, where ``bb_ascent`` stops after one probe that
    does not gain, so such a row costs two objective calls; the rows of
    any other phi are ray-seeded or gridded.
    """
    data = s.data
    if subsample is not None and data.shape[0] > subsample:
        data = data[:subsample]
    plan = f"luxemburg(n={data.shape[0]},tol={rel_tol:g})"
    if np.all(data == 0.0):
        return NormEstimate(0.0, (0.0, 0.0), plan)

    def ok(c, rows):
        c = float(c[0])
        if c == 0.0:                    # the bracket's lower end, never solved
            return np.array([False])
        mean = float(np.mean(N.values(data / c)))
        return np.array([math.isfinite(mean) and mean <= 1.0])

    lo, hi = (float(t[0]) for t in bisect_rows(
        ok, 0.0, float(np.max(np.abs(data))) or 1.0, rel_tol, _LUX_C_MAX))
    if math.isinf(hi):
        return NormEstimate(math.inf, (_LUX_C_MAX, math.inf), plan,
                            flags=("exceeds_cap",))
    return NormEstimate(hi, (lo, hi), plan)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three norms of one sample set against one generating function."""

    bphi: NormEstimate
    gls: NormEstimate
    luxemburg: NormEstimate
    ratios: dict
    flags: tuple


def equivalence_report(s: SampleSet, phi: YoungFunction, *,
                       plan: Optional[ProbePlan] = None) -> EquivalenceReport:
    """Joint norm table with plausibility-band flags.

    The Luxemburg norm uses the first 4000 samples. Flags record cap hits,
    heavy probe discarding (suspected non-membership), and any pairwise
    ratio leaving the band [1/50, 50].
    """
    plan = plan or ray_probe_plan(phi.dimension)
    nat = natural_function(s)
    est_b = bphi_norm(nat, phi, plan=plan)
    est_g = gls_norm_vector(lambda r: vector_moment(s, r), phi)
    est_l = luxemburg_norm(s, OrliczFunction(phi), subsample=4000)

    flags = list(est_b.flags)
    if est_b.trust_flags > 0.25 * plan.points.shape[0]:
        flags.append("bphi_low_trust")
    vals = {"bphi": est_b.value, "gls": est_g.value, "luxemburg": est_l.value}
    ratios = {}
    for a in vals:
        for b in vals:
            if a < b:
                num, den = vals[a], vals[b]
                ratio = num / den if den > 0 else math.inf
                ratios[f"{a}/{b}"] = ratio
                if math.isfinite(ratio) and not (1.0 / 50.0 <= ratio <= 50.0):
                    flags.append(f"ratio_outside_band({a}/{b})")
                if not math.isfinite(ratio):
                    flags.append(f"ratio_undefined({a}/{b})")
    return EquivalenceReport(est_b, est_g, est_l, ratios, tuple(flags))
