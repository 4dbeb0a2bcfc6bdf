"""Span recorder that times exptail's layers from outside.

The tracer replaces public functions and methods of ``exptail`` with
wrappers that record a span (name, start, end, parent) around each call
and add work counts taken from the call's arguments and result. Spans are
kept in memory; ``summary`` turns them into per-layer self times.

Functions imported by value (``from .empirical import sample``) live on in
every namespace that imported them, so a function is replaced in every
loaded ``exptail`` module that holds the same object. Classes are shared,
so a method is replaced once on its class.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _points(lam, dimension: int) -> int:
    """Number of d-vectors in an array whose last axis has length d."""
    return max(1, np.size(lam) // dimension)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, now(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = now()

    def _wrap(self, fn, name, count, timed):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                result = fn(*args, **kwargs)
            else:
                with self.span(name):
                    result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] += value
            return result
        return wrapper

    def patch_function(self, module: str, attr: str, name: str,
                       count=None, timed: bool = True) -> None:
        """Replace ``module.attr`` wherever an exptail module holds it."""
        original = getattr(importlib.import_module(module), attr)
        wrapped = self._wrap(original, name, count, timed)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "exptail" or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)

    def patch_method(self, module: str, cls: str, attr: str, name: str,
                     count=None, timed: bool = True) -> None:
        klass = getattr(importlib.import_module(module), cls)
        setattr(klass, attr,
                self._wrap(getattr(klass, attr), name, count, timed))

    def patch_factory(self, module: str, cls: str, attr: str, name: str,
                      count) -> None:
        """Time the callables that a method returns rather than the method."""
        klass = getattr(importlib.import_module(module), cls)
        make = getattr(klass, attr)

        @functools.wraps(make)
        def factory(*args, **kwargs):
            return self._wrap(make(*args, **kwargs), name, count, True)

        setattr(klass, attr, factory)

    def summary(self, t_run0: float, t_run1: float) -> dict:
        """Self time per span name, plus run time that no span covers."""
        self_s = Counter()
        for name, start, end, _ in self.spans:
            self_s[name] += end - start
        covered = 0.0
        for name, start, end, parent in self.spans:
            if parent is not None:
                self_s[self.spans[parent][0]] -= end - start
            elif start >= t_run0:
                covered += end - start
        out = {f"{name}.s": v for name, v in self_s.items()}
        out["cli.other.s"] = (t_run1 - t_run0) - covered
        out.update(self.counts)
        return out


def install(tracer: Tracer) -> None:
    """Patch every layer the benchmark reports on."""
    def natural(args, res):
        vals, trusted = res
        return {"empirical.natural.points": np.size(trusted),
                "empirical.natural.untrusted":
                    int(np.size(trusted) - np.count_nonzero(trusted))}

    def mgf(args, res):
        return {"empirical.mgf.calls": 1,
                "empirical.mgf.points": int(np.size(res))}

    def conj(args, res):
        return {"conjugate.values.calls": 1,
                "conjugate.values.rows": int(res.values.shape[0]),
                "conjugate.diverged": int(np.count_nonzero(res.diverged))}

    def value_ext(args, res):
        return {"young.phi.points": _points(args[1], args[0].dimension)}

    tracer.patch_method("exptail.empirical", "EmpiricalNaturalFunction",
                        "evaluate_with_trust", "empirical.natural", natural)
    tracer.patch_factory("exptail.empirical", "SymmetricWeibull", "mgf_log",
                         "empirical.mgf", mgf)
    tracer.patch_function("exptail.empirical", "sample", "empirical.sample",
                          lambda a, r: {"empirical.sample.rows": r.n})
    tracer.patch_function("exptail.empirical", "tail_function",
                          "empirical.tail",
                          lambda a, r: {"empirical.tail.calls": 1})
    tracer.patch_method("exptail.conjugate", "ConjugateEvaluator", "values",
                        "conjugate.values", conj)
    tracer.patch_function("exptail.norms", "luxemburg_norm",
                          "norms.luxemburg")
    tracer.patch_method("exptail.norms", "OrliczFunction", "values", "",
                        lambda a, r: {"norms.luxemburg.steps": 1},
                        timed=False)
    tracer.patch_function("exptail.norms", "bphi_norm", "norms.bphi",
                          lambda a, r: {"norms.bphi.calls": 1})
    tracer.patch_function("exptail.norms", "gls_norm_vector", "norms.gls")
    tracer.patch_function("exptail.bounds", "chernov_bound",
                          "bounds.chernov",
                          lambda a, r: {"bounds.chernov.calls": 1})
    tracer.patch_method("exptail.young", "YoungFunction", "value_ext", "",
                        value_ext, timed=False)
    tracer.patch_function("exptail.young", "check_lambda2", "young.lambda2")
    tracer.patch_function("exptail.cli", "emit_table", "cli.emit")
