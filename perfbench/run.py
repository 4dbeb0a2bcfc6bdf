"""exptail benchmark: cold-process workloads with correctness gates.

    python3 perfbench/run.py --workload verify_suite --seed 1 --seconds 40 --trace 0

Run from the repository root; exptail is imported from ``src``. Each
workload runs closed loop with one client: one fresh process at a time,
repeated until ``--seconds`` is spent, all with the same seed-derived
inputs. ``--workload all`` runs every workload in turn.

Every invocation first runs ``configs/negative_control.json``, which must
exit 1 with its planted ``fail`` rows. Every run is checked; a check that
does not hold counts as a failed operation and makes the exit status 1.

With ``--trace 0`` the result holds the end-to-end metrics: set-up time
(fresh interpreter to ``import exptail.cli`` plus config parse), the run
after set-up, peak resident memory and the share of outputs that pass.
With ``--trace 1`` untraced and traced processes alternate; the result
holds per-layer self times and counts from the traced ones (see
tracer.py), set-up import times from ``python -X importtime``, and
``trace.overhead_s``. The spans of the last traced process are written to
``.perfbench/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
BENCHMARK = ROOT / "BENCHMARK.json"     # metric names and units
OUT_DIR = ROOT / ".perfbench"
NEGATIVE_CONTROL = "configs/negative_control.json"
NEGATIVE_CONTROL_FAILS = 3
SETUP_PROBES = 3         # set-up-only processes at least, after the runs
HARD_LIMIT_S = 170.0     # per workload; a process still running is killed

# "spans" lists the spans a traced process of the workload must record.
WORKLOADS = {
    # the ROADMAP north-star run; natural-function evaluation dominates it
    "verify_suite": {
        "mode": "cli", "config": "configs/verify_suite.json",
        "spans": ("cli.config", "cli.run", "cli.emit", "empirical.sample",
                  "empirical.natural", "empirical.tail", "norms.bphi",
                  "conjugate.values", "bounds.chernov", "young.lambda2")},
    # batched conjugation inside Luxemburg bisection, plus norm bisection
    "equivalence": {
        "mode": "cli", "config": "perfbench/equivalence.json",
        "tau": math.sqrt(1.5),
        "spans": ("cli.config", "cli.run", "cli.emit", "empirical.sample",
                  "empirical.natural", "norms.bphi", "norms.gls",
                  "norms.luxemburg", "conjugate.values")},
    # single-row pattern-search conjugation of the quadrature MGF envelope;
    # deterministic, so the seed is recorded but unused
    "envelope": {
        "mode": "envelope", "config": "perfbench/envelope.json",
        "spans": ("empirical.mgf", "conjugate.values", "bounds.chernov")},
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, hard_end: float, importtime: bool = False):
    """Run one worker process; returns (start time, report or None, stderr).

    A process still running at ``hard_end`` is killed and counts as failed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # no process writes a bytecode cache, whatever the caller's setting, so
    # set-up time does not depend on what earlier runs left behind
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [str(WORKER)] + [str(a) for a in args]
    t0 = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, hard_end - now()))
    except subprocess.TimeoutExpired:
        return t0, None, "timed out"
    if proc.returncode != 0:
        return t0, None, proc.stderr[-2000:]
    return t0, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_times(stderr: str) -> dict:
    """Cumulative import time of exptail and of scipy from -X importtime."""
    totals = {"exptail": 0.0, "scipy": 0.0}
    stack = []       # (depth, top-level package) of the enclosing imports
    for line in reversed(stderr.splitlines()):
        # children are printed before their parent, so read bottom-up
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        pkg = name.strip().split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if pkg in totals and all(p != pkg for _, p in stack):
            totals[pkg] += int(cumulative) * 1e-6
        stack.append((depth, pkg))
    return totals


# -- correctness gates -------------------------------------------------------

# Each gate returns (outputs checked, outputs failed, outputs passed).

def check_verify_suite(rows):
    """A row fails on a fail verdict or a pass whose bound is under the tail."""
    passed = sum(r["verdict"] == "pass"
                 and r["bound"] >= r["empirical"] - 3.0 * r["width"]
                 for r in rows)
    skipped = sum(r["verdict"] == "skip" for r in rows)
    return len(rows), len(rows) - passed - skipped, passed


def check_equivalence(rows):
    norms = [r[k] for r in rows for k in ("bphi", "gls", "luxemburg")]
    ok = sum(isinstance(v, float) and math.isfinite(v) and v > 0
             for v in norms)
    return len(norms), len(norms) - ok, ok


def slope_error(row) -> float:
    """Distance of a law's fitted decay slope from min(p, 2)."""
    return abs(row["slope"] - min(row["p"], 2.0))


def check_envelope(rows):
    ok = sum(slope_error(r) <= 0.15 for r in rows)
    return len(rows), len(rows) - ok, ok


CHECKS = {"verify_suite": check_verify_suite,
          "equivalence": check_equivalence, "envelope": check_envelope}


def quality(name, rows, spec) -> dict:
    """Accuracy figures of one run's outputs; 0 where they do not apply."""
    q = {k: 0.0 for k in ("result.skip_ratio", "result.bound_log_slack",
                          "result.norm_rel_err", "result.slope_err")}
    if name == "verify_suite":
        q["result.skip_ratio"] = sum(r["verdict"] == "skip"
                                     for r in rows) / len(rows)
        slack = [math.log(r["bound"] / r["empirical"]) for r in rows
                 if r["verdict"] == "pass" and r["empirical"] > 0]
        q["result.bound_log_slack"] = statistics.median(slack) if slack else 0.0
    elif name == "equivalence":
        q["result.norm_rel_err"] = abs(rows[0]["bphi"] - spec["tau"]) / spec["tau"]
    else:
        q["result.slope_err"] = max(slope_error(r) for r in rows)
    return q


# -- one workload ------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"FAILED ({failed}/{attempted}): {why}", file=sys.stderr)


def negative_control(tmp: Path, hard_end: float, tally: Tally) -> None:
    _, rep, err = spawn(["cli", NEGATIVE_CONTROL,
                         "--out", tmp / "negative_control.csv"], hard_end)
    ok = (rep is not None and rep["status"] == 1
          and len(rep["rows"]) == NEGATIVE_CONTROL_FAILS
          and all(r["verdict"] == "fail" for r in rep["rows"]))
    tally.add(1, int(not ok), f"negative control did not fail as planted "
                              f"{err.strip()[-500:]}")


def run_workload(name, seed, seconds, trace, tmp, hard_end, tally):
    spec = WORKLOADS[name]
    base = [spec["mode"], spec["config"]]
    if spec["mode"] == "cli":
        base += ["--seed", seed, "--out", tmp / f"{name}.csv"]
    deadline = now() + seconds
    setups, imports = [], []
    runs = {False: [], True: []}
    digests = set()
    traced = False
    durations = []
    while True:
        t0, rep, err = spawn(base + (["--trace"] if traced else []),
                             hard_end)
        if rep is None:
            tally.add(1, 1, f"{name} run failed: {err}")
            return None
        durations.append(now() - t0)
        if rep["status"] != 0 or not rep["rows"]:
            tally.add(1, 1, f"{name} exited with status {rep['status']} "
                            f"and {len(rep['rows'])} rows")
            return None
        checked, bad, _ = CHECKS[name](rep["rows"])
        tally.add(checked, bad, f"{name} outputs failed their checks")
        if traced:
            missing = sorted(set(spec["spans"]) - set(rep["fired"]))
            tally.add(1, int(bool(missing)), f"spans never fired: {missing}")
        else:
            setups.append(rep["t_ready"] - t0)
        digests.add(rep["digest"])
        runs[traced].append(rep)
        if trace:
            traced = not traced
        enough = runs[False] and (runs[True] or not trace)
        if enough and now() + statistics.median(durations) > deadline:
            break
    tally.add(1, int(len(digests) > 1),
              f"{name} outputs differ between runs with the same seed")

    # set-up-only processes fill what is left of the time, so that long
    # workloads fit as many runs as short ones allow
    durations = []
    while len(durations) < SETUP_PROBES or \
            now() + statistics.median(durations) <= deadline:
        t0, rep, err = spawn(base + ["--setup-only"], hard_end,
                             importtime=trace)
        if rep is None:
            tally.add(1, 1, f"set-up failed: {err}")
            return None
        durations.append(now() - t0)
        setups.append(rep["t_ready"] - t0)
        if trace:
            imports.append(import_times(err))
    return setups, imports, runs


def summarize(name, seed, result, trace, metrics):
    """Print each metric BENCHMARK.json names with unit and sample count."""
    setups, imports, runs = result
    first = runs[False][0]
    walls = [r["t_done"] - r["t_ready"] for r in runs[False]]
    if not trace:
        kind = "end_to_end"
        checked, _, passed = CHECKS[name](first["rows"])
        samples = {"setup_s": setups, "wall_s": walls,
                   "peak_rss_mb": [r["peak_rss_mb"] for r in runs[False]],
                   "pass_ratio": [passed / max(checked, 1)]}
    else:
        kind = "per_layer"
        traced = runs[True]
        samples = {f"setup.import.{pkg}_s": [t[pkg] for t in imports]
                   for pkg in ("exptail", "scipy")}
        samples["trace.overhead_s"] = [
            statistics.median(r["t_done"] - r["t_ready"] for r in traced)
            - statistics.median(walls)]
        samples.update({k: [v] for k, v in
                        quality(name, first["rows"], WORKLOADS[name]).items()})
        (OUT_DIR / f"trace-{name}.json").write_text(
            json.dumps({"workload": name, "seed": seed,
                        "spans": traced[-1]["spans"]}))
    print(f"# {name}  seed={seed}  runs={len(runs[False])}"
          f"+{len(runs[True])} traced")
    for metric in json.loads(BENCHMARK.read_text())[kind]:
        key, unit = metric["name"], metric["unit"]
        if key in samples:
            vals = samples[key]
        else:
            vals = [r["layers"].get(key, 0) for r in runs[True]]
        med = statistics.median(vals)
        spread = ""
        if len(vals) >= 4:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"  q1={q1:.6g} q3={q3:.6g}"
        print(f"{key:30s} {med:14.6g} {unit:6s} n={len(vals)}{spread}")
        metrics[key] = {"value": med, "unit": unit}
    return {k: first[k] for k in ("python", "numpy", "blas_threads")}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    missing = [p for p in ("BENCHMARK.json", "src/exptail/cli.py",
                           NEGATIVE_CONTROL)
               + tuple(w["config"] for w in WORKLOADS.values())
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not an exptail checkout, missing: {missing}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    hard_end = now() + HARD_LIMIT_S * len(names)
    tally = Tally()
    metrics = {}
    versions = {}
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        negative_control(tmp, hard_end, tally)
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), tmp, hard_end, tally)
            if result is None:
                continue
            out = {}
            versions = summarize(name, args.seed, result, bool(args.trace),
                                 out)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in out.items()})
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("# provenance " + json.dumps({
        "git_sha": git_sha(), **versions, "nproc": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    print(f"# fail_ratio {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed}/{tally.attempted})")
    correct = tally.failed == 0 and len(metrics) > 0
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
