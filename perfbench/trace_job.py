#!/usr/bin/env python3
"""Run one benchmark job in process, with wrappers on nblab's layer boundaries.

    python3 perfbench/trace_job.py SPEC.json RESULT.json

SPEC.json holds {"src": <dir holding the nblab package>, "steps": [...]};
a step is {"kind": "cli", "argv": [...], "stdout": <file>} for
`nblab.cli.main(argv)` or {"kind": "script", "path": <file>, "argv": [...],
"stdout": <file>} for a script run through runpy. RESULT.json receives the
exit code of each step and the per-layer metrics.

The wrappers are installed from this file only; nblab itself is unchanged.
A boundary that no longer exists (renamed or deleted) is listed under
"absent" and its metrics are left out instead of failing the run. Every
`*_s` metric is a self time: wall time inside the wrapped call minus the
time spent in wrapped calls it made on the same thread. Traced jobs fill
the Gram on one thread, so plain integer counters are safe here.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import runpy
import sys
import threading
import time


class Tracer:
    """Span self times and call counts, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a timed span; `after(args, result)` records counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _nblab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "nblab" or n.startswith("nblab."))]


def patch(tracer: Tracer, target: str, make_wrapper) -> None:
    """Replace `module:attr` or `module:Class.method` by make_wrapper(original).

    A plain function is replaced in every nblab module that imported it, so
    `from .x import f` call sites see the wrapper too.
    """
    module_name, _, attr = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        tracer.absent.append(target)
        return
    owner_name, _, method = attr.rpartition(".")
    if owner_name:
        cls = getattr(module, owner_name, None)
        raw = getattr(cls, "__dict__", {}).get(method)
        if raw is None:
            tracer.absent.append(target)
            return
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, method, make_wrapper(raw))
        return
    original = getattr(module, attr, None)
    if original is None:
        tracer.absent.append(target)
        return
    wrapped = make_wrapper(original)
    for mod in _nblab_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapped)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def boundaries(t: Tracer) -> list[tuple]:
    """(target, span, {metric: source}, after) for each wrapped boundary.

    A source "calls" or "self_s" reads the span; any other source names a
    counter that `after(args, result)` feeds. A span of None installs
    `after` itself as the wrapper factory (counters without a span).
    """

    def digamma_points(args, result):
        t.add("digamma_points", int(getattr(args[0], "size", 1)))

    def closed_terms(args, result):
        dens = [getattr(s, "denominator", None) for s in args[:2]]
        periods = [d for d in dens if d is not None]
        if periods and 1 not in periods:
            t.add("closed_terms", math.lcm(*periods))

    d2_by_L: dict[int, list[float]] = {}

    def sweep_rows(args, result):
        # The CLI sweeps once per method, so LS/det pairs span two calls.
        for r in result:
            t.add("rows")
            if r.ridge_used > 0.0:
                t.add("ridge_rows")
            pair = d2_by_L.setdefault(r.L, [])
            pair.append(r.d2)
            if len(pair) == 2 and all(math.isfinite(v) for v in pair):
                t.peak("ls_det_gap_max", abs(pair[0] - pair[1]))

    def suite_checks(args, result):
        t.add("checks", len(result))
        t.add("checks_failed", sum(not r.passed for r in result))

    def load_bytes(args, result):
        t.add("load_bytes", _file_size(args[1]))

    def save_bytes(args, result):
        t.add("save_bytes", _file_size(args[1]))

    def ensure(fn):
        # Counters only: this runs once per Gram entry lookup, too often for
        # a timed span; its time stays in the caller's self time.
        @functools.wraps(fn)
        def wrapper(store, i, j, compute):
            t.add("entry_requests")

            def counted(*a):
                t.add("entries_computed")
                return compute(*a)

            return fn(store, i, j, counted)

        return wrapper

    return [
        ("nblab.specfun:digamma_array", "specfun.digamma_array", {
            "specfun.digamma_array_calls": "calls",
            "specfun.digamma_array_points": "digamma_points",
            "specfun.digamma_array_s": "self_s"}, digamma_points),
        ("nblab.specfun:zeta", "specfun.zeta", {
            "specfun.zeta_calls": "calls", "specfun.zeta_s": "self_s"}, None),
        ("nblab.specfun:xi", "specfun.xi", {"specfun.xi_s": "self_s"}, None),
        ("nblab.arith:sieve_moebius", "arith.sieve", {"arith.sieve_s": "self_s"}, None),
        ("nblab.summation:compensated_sum", "summation.compensated_sum", {
            "summation.compensated_sum_calls": "calls",
            "summation.compensated_sum_s": "self_s"}, None),
        ("nblab.seqspace:inner_product_closed", "seqspace.closed", {
            "seqspace.closed_entries": "calls",
            "seqspace.closed_terms": "closed_terms",
            "seqspace.closed_self_s": "self_s"}, closed_terms),
        ("nblab.criterion:assemble_gram", "criterion.fill", {"criterion.fill_s": "self_s"}, None),
        ("nblab.criterion:gram_system", "criterion.gram_system", {
            "criterion.gram_system_s": "self_s"}, None),
        ("nblab.criterion:distance", "criterion.solve", {"criterion.solve_s": "self_s"}, None),
        ("nblab.criterion:distance_sweep", "criterion.sweep", {
            "criterion.rows": "rows",
            "criterion.ridge_rows": "ridge_rows",
            "criterion.ls_det_gap_max": "ls_det_gap_max"}, sweep_rows),
        ("nblab.criterion:cho_factor", "criterion.cholesky", {
            "criterion.cholesky_calls": "calls", "criterion.cholesky_s": "self_s"}, None),
        ("nblab.criterion:GramStore.ensure", None, {
            "criterion.entry_requests": "entry_requests",
            "criterion.entries_computed": "entries_computed"}, ensure),
        ("nblab.criterion:GramStore.load", "cli.cache_load", {
            "cli.cache_load_s": "self_s", "cli.cache_load_bytes": "load_bytes"}, load_bytes),
        ("nblab.criterion:GramStore.save", "cli.cache_save", {
            "cli.cache_saves": "calls",
            "cli.cache_save_s": "self_s",
            "cli.cache_save_bytes": "save_bytes"}, save_bytes),
        ("nblab.analytic:run_suite", "analytic.suite", {
            "analytic.suite_s": "self_s",
            "analytic.checks": "checks",
            "analytic.checks_failed": "checks_failed"}, suite_checks),
        ("nblab.analytic:moebius_partial_transform", "analytic.partial_transform", {
            "analytic.partial_transform_calls": "calls",
            "analytic.partial_transform_s": "self_s"}, None),
        ("nblab.analytic:moebius_limit_transform", "analytic.limit_transform", {
            "analytic.limit_transform_s": "self_s"}, None),
    ]


def install(tracer: Tracer):
    """Wrap every boundary; return a function that reads the metrics."""
    table = boundaries(tracer)
    for target, span, _, after in table:
        make = after if span is None else (lambda fn, s=span, a=after: tracer.span(s, fn, a))
        patch(tracer, target, make)

    def read() -> dict[str, float]:
        out: dict[str, float] = {}
        for target, span, metrics, _ in table:
            if target in tracer.absent:
                continue
            for metric, source in metrics.items():
                if source == "calls":
                    out[metric] = tracer.calls.get(span, 0)
                elif source == "self_s":
                    out[metric] = tracer.self_s.get(span, 0.0)
                else:
                    out[metric] = tracer.counts.get(source, 0)
        if "criterion.entry_requests" in out:
            requests = out["criterion.entry_requests"]
            out["criterion.entries_reused"] = requests - out["criterion.entries_computed"]
            out["criterion.entry_reuse_ratio"] = (
                out["criterion.entries_reused"] / requests if requests else 0.0
            )
        return out

    return read


def run_step(step: dict) -> int:
    with open(step["stdout"], "w") as out, contextlib.redirect_stdout(out):
        try:
            if step["kind"] == "cli":
                import nblab.cli

                return int(nblab.cli.main(step["argv"]))
            saved = sys.argv
            sys.argv = [step["path"], *step["argv"]]
            try:
                runpy.run_path(step["path"], run_name="__main__")
            finally:
                sys.argv = saved
            return 0
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else (0 if code is None else 1)


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import nblab.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    read_metrics = install(tracer)
    exits = [run_step(step) for step in spec["steps"]]
    metrics = read_metrics()
    metrics["process.import_s"] = import_s
    with open(result_path, "w") as fh:
        json.dump({"exits": exits, "metrics": metrics, "absent": tracer.absent}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
