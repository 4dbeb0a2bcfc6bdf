"""One cold workload process: set up, run once, print a JSON report.

    python3 perfbench/worker.py cli CONFIG --seed N --out PATH [--trace]
    python3 perfbench/worker.py envelope SPEC [--trace]

``cli`` runs one exptail experiment config the way the ``exptail``
command does; ``envelope`` runs the rescaled-envelope sum bound from a
parameter file. Set-up is ``import exptail.cli`` plus reading the config;
it ends at ``t_ready``, which the caller compares with the time it
started the process. ``--setup-only`` stops there. The last line of
standard output is the report: monotonic timestamps, peak resident memory,
the outputs that run.py checks and, with ``--trace``, per-layer figures.
"""
import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return int(fn())
    return None


def cli_report(cfg, records, status):
    rows = [{k: (v if isinstance(v, (str, int, float, bool)) else float(v))
             for k, v in r.csv_cells().items()} for r in records]
    digest = hashlib.sha256(Path(cfg.out).read_bytes()).hexdigest()
    return {"status": status, "rows": rows, "digest": digest}


def run_envelope(spec):
    """Rescaled-envelope sum bound per law; the decay slope of its exponent."""
    import numpy as np
    et = importlib.import_module("exptail")
    xs = np.geomspace(spec["x_lo"], spec["x_hi"], spec["x_count"])
    rows = []
    for law in spec["laws"]:
        dist = et.SymmetricWeibull(law["p"], law["scale"], 1)
        mgf = dist.mgf_log(lam_max=spec["lam_max"])
        phi = et.make_custom(1, lambda x, mgf=mgf: mgf(np.atleast_2d(x)),
                             hessian_at_origin=[[dist.coordinate_variance()]])
        fb = et.phi_bar_function(phi, n_max=spec["n_max"])
        ev = et.ConjugateEvaluator(fb)
        exps = [et.chernov_bound(fb, 1.0, [x], evaluator=ev).exponent
                for x in xs]
        ok = all(math.isfinite(e) and e > 0 for e in exps)
        slope = (float(np.polyfit(np.log(xs), np.log(exps), 1)[0])
                 if ok else math.nan)
        rows.append({"p": law["p"], "scale": law["scale"],
                     "exponents": [float(e) for e in exps], "slope": slope})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("cli", "envelope"))
    ap.add_argument("config")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = importlib.import_module("exptail.cli")
    tracer = None
    if args.trace:
        from tracer import Tracer, install   # sits beside this script
        tracer = Tracer()
        install(tracer)
    if args.mode == "cli":
        with tracer.span("cli.config") if tracer else nullcontext():
            cfg = cli.ExperimentConfig.from_file(args.config, seed=args.seed,
                                                 out=args.out)
    else:
        spec = json.loads(Path(args.config).read_text())
    t_ready = _now()
    report = {"t_ready": t_ready}
    if not args.setup_only:
        if args.mode == "cli":
            with tracer.span("cli.run") if tracer else nullcontext():
                records, status = cli.run(cfg)
            t_done = _now()
            report.update(cli_report(cfg, records, status))
        else:
            rows = run_envelope(spec)
            t_done = _now()
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
            report.update(status=0, rows=rows, digest=digest)
        report["t_done"] = t_done
        if tracer:
            report["layers"] = tracer.summary(t_ready, t_done)
            report["fired"] = sorted({span[0] for span in tracer.spans})
            report["spans"] = tracer.spans
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["blas_threads"] = blas_threads()
    report["python"] = sys.version.split()[0]
    report["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
