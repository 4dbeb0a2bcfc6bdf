"""Config-driven experiment runner.

One experiment per invocation: ``exptail <subcommand> config.json
[--seed N] [--out PATH]``. Configs are JSON; identical configs produce
byte-identical CSV output. Exit status: 0 all verdicts pass, 1 any
bound-violation verdict, 2 config error, including a bad option value.

``tailbound``, ``sumbound`` and ``verify-suite`` certify cases in one
loop: a tail case is the one-term sum case without the Lambda_2 gate.
A certified record's provenance holds ``norm``, ``sigma_n``, ``slack``
and ``exponent``; a skipped one holds its ``reason``. A run with no rows
writes an empty table.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .bounds import SumSpec, chernov_bound, sum_norm_pythagoras
from .characterize import check_absolutely_monotonic, check_octant_monotonic
from .conjugate import ConjugateEvaluator
from .empirical import (natural_function, sample, sample_sum, tail_function,
                        vector_moment)
from .errors import ConfigError
from .norms import (OrliczFunction, bphi_norm, equivalence_report,
                    gls_norm_vector, luxemburg_norm)
from .specs import distribution_from_spec, function_from_spec, young_from_spec
from .young import check_lambda2

EXPERIMENTS = ("conjugate", "norm", "tailbound", "sumbound", "characterize",
               "equivalence", "verify-suite")

#: environment variable supplying the default seed when the config has none
SEED_ENV_VAR = "EXPTAIL_SEED"

#: derived-seed offset separating the fitting sample from the tail sample
_TAIL_SEED_OFFSET = 1000003

#: keys every config may set beside its experiment's options
_CONFIG_KEYS = frozenset({"experiment", "seed", "out", "format"})

#: keys of a verify-suite case
_CASE_KEYS = frozenset({"name", "kind", "dist", "phi", "x", "n", "reps",
                        "n_set", "bound_scale"})

#: options each experiment reads; any other key is a config error
_OPTION_KEYS = {
    "conjugate": {"phi", "y"},
    "norm": {"phi", "dist", "n", "space"},
    "tailbound": _CASE_KEYS - {"name", "kind", "n_set"},
    "sumbound": _CASE_KEYS - {"name", "kind"},
    "characterize": {"function", "box", "kmax", "eps"},
    "equivalence": {"phi", "dist", "n"},
    "verify-suite": {"cases"},
}


def _check_keys(raw: dict, known, prefix: str = "") -> None:
    """Raise a ConfigError naming the first key of ``raw`` not in ``known``."""
    unknown = [k for k in raw if k not in known]
    if unknown:
        raise ConfigError(prefix + str(unknown[0]),
                          "unknown option (unknown: "
                          f"{', '.join(map(str, unknown))})")


@dataclass
class ExperimentConfig:
    experiment: str
    options: dict
    seed: int = 0
    out: Optional[str] = None
    format: str = "csv"

    @classmethod
    def from_file(cls, path, seed: Optional[int] = None,
                  out: Optional[str] = None) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from None
        return cls.from_dict(raw, seed=seed, out=out)

    @classmethod
    def from_dict(cls, raw: dict, seed: Optional[int] = None,
                  out: Optional[str] = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        exp = raw.get("experiment")
        if exp not in EXPERIMENTS:
            raise ConfigError("experiment",
                              f"must be one of {EXPERIMENTS}, got {exp!r}")
        _check_keys(raw, _CONFIG_KEYS | _OPTION_KEYS[exp])
        cases = raw.get("cases")
        for idx, case in enumerate(cases if isinstance(cases, list) else []):
            if isinstance(case, dict):
                _check_keys(case, _CASE_KEYS, f"cases[{idx}].")
        options = {k: v for k, v in raw.items() if k not in _CONFIG_KEYS}
        if seed is not None:
            key, value = "--seed", seed
        elif "seed" in raw:
            key, value = "seed", raw["seed"]
        else:
            key, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
            try:
                value = int(value)
            except ValueError:
                pass                    # _integer names the raw string
        resolved_seed = _integer(key, value, low=0)
        default_fmt = "json" if exp == "norm" else "csv"
        cfg = cls(exp, options, seed=resolved_seed,
                  out=raw.get("out") if out is None else out,
                  format=str(raw.get("format", default_fmt)))
        if cfg.format not in ("csv", "json"):
            raise ConfigError("format", f"must be csv or json, got {cfg.format!r}")
        return cfg


@dataclass
class ResultRecord:
    experiment: str
    inputs: dict
    outputs: dict
    seed: int
    provenance: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def csv_cells(self) -> dict:
        return {**self.inputs, **self.outputs}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, (np.floating,)):
        return format(float(v), ".17g")
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def emit_table(records, fmt: str, path) -> None:
    """Write records as CSV (stable column order, 17 significant digits)
    or as a JSON array that round-trips through ``records_from_json``.
    No records give an empty file or ``[]``."""
    path = Path(path)
    if fmt == "csv":
        cols = []
        for r in records:
            for k in r.csv_cells():
                if k not in cols:
                    cols.append(k)
        lines = [",".join(cols)]
        for r in records:
            cells = r.csv_cells()
            lines.append(",".join(_fmt(cells.get(c, "")) for c in cols))
        path.write_text("\n".join(lines) + "\n" if records else "")
    elif fmt == "json":
        payload = [_jsonable(asdict(r)) for r in records]
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    else:
        raise ConfigError("format", f"unknown format {fmt!r}")


def records_from_json(path) -> list:
    raw = json.loads(Path(path).read_text())
    return [ResultRecord(**item) for item in raw]


# -- shared option helpers ---------------------------------------------------

def _need(options: dict, key: str):
    if key not in options:
        raise ConfigError(key, "missing required option")
    return options[key]


def _integer(key: str, value, low: int = 1) -> int:
    """``value`` as an integer >= low; a float such as 2.5 is an error."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(key, f"must be an integer >= {low}, got {value!r}")
    return value


def _positive(key: str, value) -> float:
    """``value`` as a finite float > 0."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < math.inf):
        raise ConfigError(key, f"must be a finite number > 0, got {value!r}")
    return float(value)


def _x_points(spec, d: int, key: str = "x") -> np.ndarray:
    """Explicit point list, or {start, stop, step|count, direction} ray grid,
    as an (m, d) array of finite points."""
    try:
        if isinstance(spec, dict):
            start, stop = float(spec["start"]), float(spec["stop"])
            direction = np.asarray(spec.get("direction", np.ones(d)),
                                   dtype=float)
            if direction.shape != (d,):
                raise ConfigError(f"{key}.direction", f"needs {d} components")
            if "step" in spec:
                step = _positive(f"{key}.step", spec["step"])
                ts = np.arange(start, stop + 1e-12, step)
            else:
                count = _integer(f"{key}.count", spec.get("count", 9), low=0)
                ts = np.linspace(start, stop, count)
            pts = ts[:, None] * direction[None, :]
        else:
            pts = np.atleast_2d(np.asarray(spec, dtype=float))
    except KeyError as exc:
        raise ConfigError(key, f"grid missing {exc}") from None
    except ConfigError:
        raise
    except (TypeError, ValueError):
        raise ConfigError(key, "points must be numbers in a rectangular "
                               "list") from None
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ConfigError(key, f"points must have dimension {d}")
    if not np.all(np.isfinite(pts)):
        raise ConfigError(key, "points must be finite")
    return pts


def _phi_and_dist(options: dict) -> tuple:
    """The parsed ``phi`` and ``dist`` specs of a config or suite case."""
    phi = young_from_spec(_need(options, "phi"))
    dist = distribution_from_spec(_need(options, "dist"))
    if dist.dimension != phi.dimension:
        raise ConfigError("dist", "dimension mismatch with phi")
    return phi, dist


# -- experiment handlers ------------------------------------------------------

def _run_conjugate(cfg: ExperimentConfig) -> tuple:
    phi = young_from_spec(_need(cfg.options, "phi"))
    Y = _x_points(_need(cfg.options, "y"), phi.dimension, key="y")
    ev = ConjugateEvaluator(phi)
    batch = ev.values(Y)
    records = []
    for i in range(Y.shape[0]):
        inputs = {f"y_{j + 1}": float(Y[i, j]) for j in range(phi.dimension)}
        records.append(ResultRecord(
            "conjugate", inputs,
            {"phi_star": float(batch.values[i]),
             "slack": float(batch.slack[i]),
             "diverged": bool(batch.diverged[i]),
             "flags": ("slack_exceeds_value"
                       if batch.slack[i] > batch.values[i] else "")},
            cfg.seed, provenance={"phi": cfg.options["phi"]}))
    return records, 0


def _run_norm(cfg: ExperimentConfig) -> tuple:
    phi, dist = _phi_and_dist(cfg.options)
    n = _integer("n", cfg.options.get("n", 20000))
    space = cfg.options.get("space", "all")
    if space not in ("bphi", "gls", "orlicz", "all"):
        raise ConfigError("space", f"unknown space {space!r}")
    s = sample(dist, n, cfg.seed)
    records = []

    def add(name, est):
        records.append(ResultRecord(
            "norm", {"space": name, "dist": cfg.options["dist"],
                     "phi": cfg.options["phi"], "n": n},
            {"value": est.value, "bracket_lo": est.bracket[0],
             "bracket_hi": est.bracket[1], "residual": est.residual,
             "trust_flags": est.trust_flags,
             "flags": ";".join(est.flags)},
            cfg.seed, provenance={"probe_plan": est.probe_plan}))

    if space in ("bphi", "all"):
        add("bphi", bphi_norm(natural_function(s), phi))
    if space in ("gls", "all"):
        add("gls", gls_norm_vector(lambda r: vector_moment(s, r), phi))
    if space in ("orlicz", "all"):
        add("orlicz", luxemburg_norm(s, OrliczFunction(phi), subsample=4000))
    return records, 0


def _case_rows(experiment, case: dict, name, seed: int) -> tuple:
    """Certified rows and failure count of one tail or sum case.

    A tail case is the sum case with ``n_set`` [1] and no Lambda_2 gate:
    its sigma is the fitted norm, which ``sum_norm_pythagoras`` gives
    exactly for one term, and its tail sample is the one-term sum. The
    skip reason is decided once per case, and a skipped case draws no tail
    sample.
    """
    phi, dist = _phi_and_dist(case)
    x_pts = _x_points(case.get("x", {"start": 0.5, "stop": 2.0,
                                     "step": 0.5}), phi.dimension)
    if np.any(x_pts < 0.0):
        raise ConfigError("x", "points must be nonnegative")
    n = _integer("n", case.get("n", 20000))
    reps = _integer("reps", case.get("reps", 20000))
    scale = _positive("bound_scale", case.get("bound_scale", 1.0))
    kind = case.get("kind", "tail")
    if kind == "tail":
        n_set = [1]
    elif kind == "sum":
        raw = case.get("n_set", [1, 4, 16])
        if not isinstance(raw, list) or not raw:
            raise ConfigError("n_set", f"must be a nonempty list, got {raw!r}")
        n_set = [_integer(f"n_set[{j}]", v) for j, v in enumerate(raw)]
    else:
        raise ConfigError("kind", f"unknown kind {kind!r}")
    # a singular origin Hessian admits no nondegenerate member, so the
    # domination premise is unsatisfiable; cap hits mean the same in practice
    est = cert = reason = None
    if phi.y_membership != "full":
        reason = "phi_membership_relaxed"
    else:
        est = bphi_norm(natural_function(sample(dist, n, seed)), phi)
        if est.exceeded_cap:
            reason = "norm_exceeds_cap"
        elif kind == "sum":
            cert = check_lambda2(phi, trial_count=2000, seed=seed)
            reason = None if cert.holds else "no_lambda2"
    floor = 10.0 / reps
    records, failures = [], 0
    for k, n_terms in enumerate(n_set):
        rows = [{"case": name, "n_terms": n_terms,
                 **{f"x_{j + 1}": float(v) for j, v in enumerate(x)}}
                for x in x_pts]
        if reason is not None:
            records.extend(ResultRecord(
                experiment, inputs,
                {"bound": "", "empirical": "", "width": "", "verdict": "skip"},
                seed, provenance={"reason": reason}) for inputs in rows)
            continue
        tails = sample_sum(dist, n_terms, reps, seed + _TAIL_SEED_OFFSET + k)
        sigma = est.value if cert is None else sum_norm_pythagoras(
            SumSpec((est.value,) * n_terms, n_terms), phi, cert)
        for inputs, tb in zip(rows, chernov_bound(phi, sigma, x_pts)):
            emp = tail_function(tails, tb.x)
            bound = tb.bound * scale
            if bound < floor and emp.probability < floor:
                verdict = "skip"        # both below MC resolution
            elif tb.bound_with_slack * scale >= (emp.probability
                                                 - 3.0 * emp.half_width):
                verdict = "pass"
            else:
                verdict = "fail"
            failures += verdict == "fail"
            records.append(ResultRecord(
                experiment, inputs,
                {"bound": float(bound), "empirical": emp.probability,
                 "width": emp.half_width, "verdict": verdict},
                seed, provenance={"norm": est.value, "sigma_n": sigma,
                                  "slack": tb.slack,
                                  "exponent": tb.exponent}))
    return records, failures


def _run_case(cfg: ExperimentConfig, idx: int, case: dict) -> tuple:
    """Run tail or sum case ``idx`` of a suite on seed ``cfg.seed + 7919 idx``;
    its records carry its own wall time."""
    t0 = time.perf_counter()
    rows, fails = _case_rows(cfg.experiment, case,
                             case.get("name", f"case{idx}"),
                             cfg.seed + 7919 * idx)
    elapsed = time.perf_counter() - t0
    for r in rows:
        r.wall_time = elapsed
    return rows, fails


def _run_single_case(cfg: ExperimentConfig) -> tuple:
    """tailbound and sumbound: the config is case 0 of a suite, x required."""
    _need(cfg.options, "x")
    kind = "tail" if cfg.experiment == "tailbound" else "sum"
    rows, fails = _run_case(
        cfg, 0, {"name": cfg.experiment, **cfg.options, "kind": kind})
    return rows, (1 if fails else 0)


def _run_characterize(cfg: ExperimentConfig) -> tuple:
    f, d = function_from_spec(_need(cfg.options, "function"))
    box_raw = cfg.options.get("box", [[0.0, 1.0]] * d)
    box = [(float(lo), float(hi)) for lo, hi in box_raw]
    if len(box) != d:
        raise ConfigError("box", f"needs {d} axes")
    k_max = _integer("kmax", cfg.options.get("kmax", 4))
    eps_opt = cfg.options.get("eps")
    records = []
    if eps_opt is None:
        v = check_absolutely_monotonic(f, box, k_max=k_max)
        rows = [("absolute", v)]
    else:
        eps = np.asarray(eps_opt, dtype=float)
        v = check_octant_monotonic(f, eps, box, k_max=k_max)
        rows = [(str([int(e) for e in eps]), v)]
    for name, v in rows:
        wit = "" if v.witness is None else json.dumps(_jsonable(
            {k: val for k, val in v.witness.items()}), sort_keys=True)
        records.append(ResultRecord(
            "characterize",
            {"function": cfg.options["function"], "eps": name,
             "kmax": k_max},
            {"status": v.status, "witness": wit},
            cfg.seed, provenance={"grid_points": v.grid_points}))
    return records, 0


def _run_equivalence(cfg: ExperimentConfig) -> tuple:
    phi, dist = _phi_and_dist(cfg.options)
    n = _integer("n", cfg.options.get("n", 20000))
    s = sample(dist, n, cfg.seed)
    rep = equivalence_report(s, phi)
    outputs = {"bphi": rep.bphi.value, "gls": rep.gls.value,
               "luxemburg": rep.luxemburg.value}
    outputs.update({k.replace("/", "_over_"): v for k, v in rep.ratios.items()})
    outputs["flags"] = ";".join(rep.flags)
    rec = ResultRecord("equivalence",
                       {"dist": cfg.options["dist"],
                        "phi": cfg.options["phi"], "n": n},
                       outputs, cfg.seed,
                       provenance={"probe_plan": rep.bphi.probe_plan})
    return [rec], 0


def _run_verify_suite(cfg: ExperimentConfig) -> tuple:
    cases = _need(cfg.options, "cases")
    if not isinstance(cases, list) or not cases:
        raise ConfigError("cases", "must be a nonempty list")
    for idx, case in enumerate(cases):
        if not isinstance(case, dict):
            raise ConfigError(f"cases[{idx}]", "each case must be an object")
    records, failures = [], 0
    for idx, case in enumerate(cases):
        try:
            rows, fails = _run_case(cfg, idx, case)
        except ConfigError as exc:
            raise ConfigError(f"cases[{idx}]." + exc.key, exc.message) from None
        records.extend(rows)
        failures += fails
    return records, (1 if failures else 0)


_HANDLERS = {
    "conjugate": _run_conjugate,
    "norm": _run_norm,
    "tailbound": _run_single_case,
    "sumbound": _run_single_case,
    "characterize": _run_characterize,
    "equivalence": _run_equivalence,
    "verify-suite": _run_verify_suite,
}


def run(cfg: ExperimentConfig):
    """Execute one experiment; returns (records, exit_status).

    A record's ``wall_time`` is the time of its own case where the
    experiment runs cases (tailbound, sumbound, verify-suite), else the
    time of the whole run.
    """
    t0 = time.perf_counter()
    records, status = _HANDLERS[cfg.experiment](cfg)
    elapsed = time.perf_counter() - t0
    for r in records:
        if not r.wall_time:
            r.wall_time = elapsed
    if cfg.out:
        emit_table(records, cfg.format, cfg.out)
    return records, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="exptail",
        description="batch experiments: conjugates, norms, and tail bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output path")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config, seed=args.seed,
                                         out=args.out)
        if cfg.experiment != args.command:
            raise ConfigError("experiment",
                              f"config is for {cfg.experiment!r}, "
                              f"invoked as {args.command!r}")
        records, status = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not cfg.out:
        for r in records:
            cells = r.csv_cells()
            print(",".join(f"{k}={_fmt(v)}" for k, v in cells.items()))
    return status


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
