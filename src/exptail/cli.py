"""Config-driven experiment runner.

One experiment per invocation: ``exptail <subcommand> config.json
[--seed N] [--out PATH]``. Configs are JSON; identical configs produce
byte-identical CSV output. Exit status: 0 all verdicts pass, 1 any
bound-violation verdict, 2 config error.
"""
from __future__ import annotations

import argparse
import json
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
from .errors import ConfigError, ExptailError
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
            resolved_seed = int(seed)
        elif "seed" in raw:
            resolved_seed = int(raw["seed"])
        else:
            resolved_seed = int(os.environ.get(SEED_ENV_VAR, "0"))
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
    or as a JSON array that round-trips through ``records_from_json``."""
    if not records:
        raise ExptailError("no records to emit")
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
        path.write_text("\n".join(lines) + "\n")
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


def _x_points(spec, d: int) -> np.ndarray:
    """Explicit point list, or {start, stop, step|count, direction} ray grid."""
    if isinstance(spec, dict):
        try:
            start, stop = float(spec["start"]), float(spec["stop"])
        except KeyError as exc:
            raise ConfigError("x", f"grid missing {exc}") from None
        direction = np.asarray(spec.get("direction", np.ones(d)), dtype=float)
        if direction.size != d:
            raise ConfigError("x.direction", f"needs {d} components")
        if "step" in spec:
            ts = np.arange(start, stop + 1e-12, float(spec["step"]))
        else:
            ts = np.linspace(start, stop, int(spec.get("count", 9)))
        return ts[:, None] * direction[None, :]
    pts = np.atleast_2d(np.asarray(spec, dtype=float))
    if pts.shape[1] != d:
        raise ConfigError("x", f"points must have dimension {d}")
    return pts


def _phi_and_dist(options: dict) -> tuple:
    """The parsed ``phi`` and ``dist`` specs of a config or suite case."""
    phi = young_from_spec(_need(options, "phi"))
    dist = distribution_from_spec(_need(options, "dist"))
    if dist.dimension != phi.dimension:
        raise ConfigError("dist", "dimension mismatch with phi")
    return phi, dist


def _fit_norm(dist, phi, n: int, seed: int):
    fit = sample(dist, n, seed)
    nat = natural_function(fit)
    return bphi_norm(nat, phi)


# -- experiment handlers ------------------------------------------------------

def _run_conjugate(cfg: ExperimentConfig) -> tuple:
    phi = young_from_spec(_need(cfg.options, "phi"))
    Y = _x_points(_need(cfg.options, "y"), phi.dimension)
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
    n = int(cfg.options.get("n", 20000))
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


def _skip_reason(phi, est) -> Optional[str]:
    # a singular origin Hessian admits no nondegenerate member, so the
    # domination premise is unsatisfiable; cap hits mean the same in practice
    if phi.y_membership != "full":
        return "phi_membership_relaxed"
    if est is not None and est.exceeded_cap:
        return "norm_exceeds_cap"
    return None


def _row_inputs(case_name, n_terms: int, x) -> dict:
    inputs = {"case": case_name, "n_terms": n_terms}
    inputs.update({f"x_{j + 1}": float(x[j]) for j in range(x.size)})
    return inputs


def _skip_row(experiment, inputs, seed, reason) -> ResultRecord:
    return ResultRecord(
        experiment, inputs,
        {"bound": "", "empirical": "", "width": "", "verdict": "skip"},
        seed, provenance={"reason": reason})


def _certify(tb, tail_sample, bound_scale: float, floor: float) -> dict:
    """Outputs of one certified row: the scaled bound against a fresh
    empirical tail at tb.x, and the verdict."""
    emp = tail_function(tail_sample, tb.x)
    bound = tb.bound * bound_scale
    guarded = tb.bound_with_slack * bound_scale
    if bound < floor and emp.probability < floor:
        verdict = "skip"        # both below MC resolution
    elif guarded >= emp.probability - 3.0 * emp.half_width:
        verdict = "pass"
    else:
        verdict = "fail"
    return {"bound": float(bound), "empirical": emp.probability,
            "width": emp.half_width, "verdict": verdict}


def _tail_rows(experiment, case_name, phi, dist, x_pts, n, reps, seed,
               bound_scale):
    """Fit a norm, bound every x in one call, certify each against a fresh
    empirical tail; a skipped case draws no tail sample."""
    est = None if phi.y_membership != "full" else _fit_norm(dist, phi, n, seed)
    reason = _skip_reason(phi, est)
    if reason is not None:
        return [_skip_row(experiment, _row_inputs(case_name, 1, x), seed,
                          reason) for x in x_pts], 0
    tail_sample = sample(dist, reps, seed + _TAIL_SEED_OFFSET)
    floor = 10.0 / reps
    records, failures = [], 0
    for tb in chernov_bound(phi, est.value, x_pts):
        outputs = _certify(tb, tail_sample, bound_scale, floor)
        failures += outputs["verdict"] == "fail"
        records.append(ResultRecord(
            experiment, _row_inputs(case_name, 1, tb.x), outputs,
            seed, provenance={"norm": est.value, "slack": tb.slack,
                              "exponent": tb.exponent}))
    return records, failures


def _sum_rows(experiment, case_name, phi, dist, x_pts, n_set, n, reps, seed,
              bound_scale):
    est = None if phi.y_membership != "full" else _fit_norm(dist, phi, n, seed)
    cert = check_lambda2(phi, trial_count=2000, seed=seed)
    floor = 10.0 / reps
    records, failures = [], 0
    for k, n_terms in enumerate(n_set):
        reason = _skip_reason(phi, est) or (None if cert.holds else "no_lambda2")
        if reason is not None:
            records.extend(_skip_row(experiment,
                                     _row_inputs(case_name, int(n_terms), x),
                                     seed, reason) for x in x_pts)
            continue
        sums = sample_sum(dist, int(n_terms), reps,
                          seed + _TAIL_SEED_OFFSET + k)
        sigma = sum_norm_pythagoras(
            SumSpec(tuple([est.value] * int(n_terms)), int(n_terms)), phi, cert)
        for tb in chernov_bound(phi, sigma, x_pts):
            outputs = _certify(tb, sums, bound_scale, floor)
            failures += outputs["verdict"] == "fail"
            records.append(ResultRecord(
                experiment, _row_inputs(case_name, int(n_terms), tb.x),
                outputs, seed,
                provenance={"sigma_n": sigma, "norm": est.value}))
    return records, failures


def _case_rows(experiment, case: dict, name, seed: int) -> tuple:
    """Certified rows and failure count of one tail or sum case."""
    phi, dist = _phi_and_dist(case)
    x_pts = _x_points(case.get("x", {"start": 0.5, "stop": 2.0,
                                     "step": 0.5}), phi.dimension)
    n = int(case.get("n", 20000))
    reps = int(case.get("reps", 20000))
    scale = float(case.get("bound_scale", 1.0))
    kind = case.get("kind", "tail")
    if kind == "tail":
        return _tail_rows(experiment, name, phi, dist, x_pts, n, reps, seed,
                          scale)
    if kind == "sum":
        n_set = [int(v) for v in case.get("n_set", [1, 4, 16])]
        return _sum_rows(experiment, name, phi, dist, x_pts, n_set, n, reps,
                         seed, scale)
    raise ConfigError("kind", f"unknown kind {kind!r}")


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
    k_max = int(cfg.options.get("kmax", 4))
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
    n = int(cfg.options.get("n", 20000))
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
