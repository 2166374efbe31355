"""Outside-in tracing of one job: spans and counters per layer.

Hooks replace module attributes of the program's public functions from the
outside.  A function imported by name into another module (``from .gp import
chol_with_jitter``) is replaced there too, so every call path is seen.  The
recorder is thread-safe and keeps the thread of each span, so self time is
computed per thread under the rBCM expert pool.

A hook whose target does not exist is reported as absent and its metrics are
left out; a hook that is never called reports zero calls and zero time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np


class Recorder:
    """Thread-safe store of (name, thread, start, end) spans and counters."""

    def __init__(self):
        self._lock = threading.Lock()
        self.spans: list[tuple[str, int, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def add_span(self, name: str, start: float, end: float):
        with self._lock:
            self.spans.append((name, threading.get_ident(), start, end))

    def count(self, name: str, value: float = 1.0):
        with self._lock:
            self.counts[name] += value

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_span(name, start, time.perf_counter())

    # -- queries ----------------------------------------------------------

    def of(self, name: str):
        return [s for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(e - b for _, _, b, e in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def self_time(self, name: str, children: set[str]) -> float:
        """Time in ``name`` spans not covered by ``children`` spans of the
        same thread; nested children are counted once."""
        by_thread = defaultdict(list)
        for s in self.spans:
            if s[0] in children:
                by_thread[s[1]].append((s[2], s[3]))
        starts = {}
        for tid, v in by_thread.items():
            v.sort()
            starts[tid] = [b for b, _ in v]
        total = 0.0
        for _, tid, b, e in self.of(name):
            kids = by_thread.get(tid, [])
            covered, reach = 0.0, b
            for i in range(bisect.bisect_left(starts.get(tid, []), b), len(kids)):
                cb, ce = kids[i]
                if cb >= e:
                    break
                if ce > e or ce <= reach:
                    continue
                covered += ce - max(cb, reach)
                reach = ce
            total += (e - b) - covered
        return total


# ---------------------------------------------------------------------------
# hooks: (module, attribute, span name, observer of the call)
# ---------------------------------------------------------------------------


def _on_gram(rec, args, kwargs, result, exc):
    if exc is None:
        params = args[3] if len(args) > 3 else kwargs["params"]
        entries = np.shape(result)[0] * np.shape(result)[1]
        rec.count("gram_entries", entries)
        rec.count("gram_component_entries", entries * getattr(params, "q", 1))


def _on_eval(rec, args, kwargs, result, exc):
    if exc is not None or not np.isfinite(result[0]):
        rec.count("evals_failed")


def _on_chol(rec, args, kwargs, result, exc):
    if exc is not None:
        rec.count("chol_failed")
    elif result[1] > 0.0:
        rec.count("jitter_escalations")


def _on_restart(rec, args, kwargs, result, exc):
    if exc is not None:
        rec.count("restarts_failed")
        return
    rec.count("objective_evals", 1)           # the evaluation at the start
    rec.count("iterations", len(result.trace) - 1)
    rec.count("curvature_skips", sum(not s.curvature_ok for s in result.trace[1:]))


def _on_line_search(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("objective_evals", result[4])


def _on_em(rec, args, kwargs, result, exc):
    if exc is None:
        rec.count("em_iters", len(result.loglik_trace))


HOOKS = (
    ("skewgp.kernels", "gram", "kernels.gram", _on_gram),
    ("skewgp.kernels", "slsm_component_partials", "kernels.partials", None),
    ("skewgp.kernels", "sm_component_partials", "kernels.partials", None),
    ("skewgp.kernels", "multi_component_partials", "kernels.partials", None),
    ("skewgp.kernels", "baseline_partials", "kernels.partials", None),
    ("skewgp.gp", "nlml_value_and_grad", "gp.eval", _on_eval),
    ("skewgp.gp", "chol_with_jitter", "gp.chol", _on_chol),
    ("skewgp.gp", "_solve_chol", "gp.solve", None),
    ("skewgp.gp", "solve_triangular", "gp.predict_solve", None),
    ("skewgp.gp", "TrainedModel.predict", "gp.predict", None),
    ("skewgp.optimize", "minimize", "optimize.minimize", None),
    ("skewgp.optimize", "_minimize_single", "optimize.restart", _on_restart),
    ("skewgp.optimize", "_weak_wolfe", "optimize.line_search", _on_line_search),
    ("skewgp.cli", "build_init", "spectral.init", None),
    ("skewgp.spectral", "em_mixture", "spectral.em", _on_em),
    ("skewgp.rbcm", "rbcm_fit", "rbcm.fit", None),
    ("skewgp.rbcm", "_expert_factors", "rbcm.factor", None),
    ("skewgp.rbcm", "rbcm_predict", "rbcm.predict", None),
    ("skewgp.cli", "ingest_csv", "cli.ingest", None),
)


def _wrap(fn, rec: Recorder, span: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec.add_span(span, start, time.perf_counter())
            if observe is not None:
                observe(rec, args, kwargs, None, exc)
            raise
        rec.add_span(span, start, time.perf_counter())
        if observe is not None:
            observe(rec, args, kwargs, result, None)
        return result

    return wrapper


def _traced_pool(rec: Recorder):
    class TracedPool(ThreadPoolExecutor):
        """Times each ``map`` until every result is in, so the caller's wait
        on the pool is a child span rather than self time."""

        def map(self, fn, *iterables, **kwargs):
            with rec.span("rbcm.pool_map"):
                return list(super().map(fn, *iterables, **kwargs))

    return TracedPool


def _replace_everywhere(orig, new):
    """Rebind every ``skewgp`` module attribute that is ``orig``."""
    for name, mod in list(sys.modules.items()):
        if name == "skewgp" or name.startswith("skewgp."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> list[str]:
    """Install every hook; returns the targets that do not exist."""
    missing = []
    for modname, attr, span, observe in HOOKS:
        try:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{attr}")
            continue
        new = _wrap(orig, rec, span, observe)
        if path:
            setattr(owner, leaf, new)             # a method on a class
        else:
            _replace_everywhere(orig, new)
    rbcm = sys.modules.get("skewgp.rbcm")
    if rbcm is not None and getattr(rbcm, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
        rbcm.ThreadPoolExecutor = _traced_pool(rec)
    else:
        missing.append("skewgp.rbcm.ThreadPoolExecutor")
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (hook spans it needs, unit)
_NEEDS = {
    "kernels.gram_calls": ({"kernels.gram"}, "count"),
    "kernels.gram_s": ({"kernels.gram"}, "s"),
    "kernels.gram_entries": ({"kernels.gram"}, "count"),
    "kernels.gram_ns_per_entry": ({"kernels.gram"}, "ns"),
    "kernels.partials_calls": ({"kernels.partials"}, "count"),
    "kernels.partials_s": ({"kernels.partials"}, "s"),
    "gp.evals": ({"gp.eval"}, "count"),
    "gp.evals_failed": ({"gp.eval"}, "count"),
    "gp.eval_ms": ({"gp.eval"}, "ms"),
    "gp.eval_self_s": ({"gp.eval", "kernels.gram", "gp.chol", "gp.solve",
                        "kernels.partials"}, "s"),
    "gp.chol_calls": ({"gp.chol"}, "count"),
    "gp.chol_s": ({"gp.chol"}, "s"),
    "gp.chol_failed": ({"gp.chol"}, "count"),
    "gp.jitter_escalations": ({"gp.chol"}, "count"),
    "gp.solve_s": ({"gp.solve"}, "s"),
    "gp.predict_self_s": ({"gp.predict", "kernels.gram", "gp.predict_solve"}, "s"),
    "optimize.restarts": ({"optimize.restart"}, "count"),
    "optimize.restarts_failed": ({"optimize.restart"}, "count"),
    "optimize.iterations": ({"optimize.restart"}, "count"),
    "optimize.objective_evals": ({"optimize.restart", "optimize.line_search"}, "count"),
    "optimize.evals_per_iter": ({"optimize.restart", "optimize.line_search"}, "ratio"),
    "optimize.curvature_skips": ({"optimize.restart"}, "count"),
    "optimize.self_s": ({"optimize.minimize", "gp.eval", "rbcm.pool_map"}, "s"),
    "spectral.init_s": ({"spectral.init"}, "s"),
    "spectral.em_iters": ({"spectral.em"}, "count"),
    "rbcm.concurrency": ({"rbcm.fit", "gp.eval", "optimize.minimize"}, "ratio"),
    "rbcm.expert_eval_ms": ({"rbcm.fit", "gp.eval"}, "ms"),
    "rbcm.factor_s": ({"rbcm.factor"}, "s"),
    "rbcm.aggregate_s": ({"rbcm.predict", "kernels.gram", "gp.predict_solve"}, "s"),
    "cli.ingest_s": ({"cli.ingest"}, "s"),
    "cli.write_s": (set(), "s"),
}


def _within(rec: Recorder, inner: str, outer: str):
    """``inner`` spans that lie inside some ``outer`` span (any thread)."""
    windows = [(b, e) for _, _, b, e in rec.of(outer)]
    return [s for s in rec.of(inner) if any(b <= s[2] and s[3] <= e for b, e in windows)]


def layer_metrics(rec: Recorder, missing: list[str]) -> dict:
    """Per-layer metrics as ``{name: {"value", "unit"}}``."""
    c = rec.counts
    evals = rec.calls("gp.eval")
    iters = c["iterations"]
    rbcm_evals = _within(rec, "gp.eval", "rbcm.fit")
    rbcm_eval_s = sum(e - b for _, _, b, e in rbcm_evals)
    rbcm_min_s = sum(e - b for _, _, b, e in _within(rec, "optimize.minimize", "rbcm.fit"))
    values = {
        "kernels.gram_calls": rec.calls("kernels.gram"),
        "kernels.gram_s": rec.total("kernels.gram"),
        "kernels.gram_entries": c["gram_entries"],
        "kernels.gram_ns_per_entry": (1e9 * rec.total("kernels.gram")
                                      / c["gram_component_entries"]
                                      if c["gram_component_entries"] else 0.0),
        "kernels.partials_calls": rec.calls("kernels.partials"),
        "kernels.partials_s": rec.total("kernels.partials"),
        "gp.evals": evals,
        "gp.evals_failed": c["evals_failed"],
        "gp.eval_ms": 1e3 * rec.total("gp.eval") / evals if evals else 0.0,
        "gp.eval_self_s": rec.self_time(
            "gp.eval", {"kernels.gram", "gp.chol", "gp.solve", "kernels.partials"}),
        "gp.chol_calls": rec.calls("gp.chol"),
        "gp.chol_s": rec.total("gp.chol"),
        "gp.chol_failed": c["chol_failed"],
        "gp.jitter_escalations": c["jitter_escalations"],
        "gp.solve_s": rec.total("gp.solve"),
        "gp.predict_self_s": rec.self_time("gp.predict",
                                           {"kernels.gram", "gp.predict_solve"}),
        "optimize.restarts": rec.calls("optimize.restart"),
        "optimize.restarts_failed": c["restarts_failed"],
        "optimize.iterations": iters,
        "optimize.objective_evals": c["objective_evals"],
        "optimize.evals_per_iter": c["objective_evals"] / iters if iters else 0.0,
        "optimize.curvature_skips": c["curvature_skips"],
        "optimize.self_s": rec.self_time("optimize.minimize",
                                         {"gp.eval", "rbcm.pool_map"}),
        "spectral.init_s": rec.total("spectral.init"),
        "spectral.em_iters": c["em_iters"],
        "rbcm.concurrency": rbcm_eval_s / rbcm_min_s if rbcm_min_s else 0.0,
        "rbcm.expert_eval_ms": (1e3 * rbcm_eval_s / len(rbcm_evals)
                                if rbcm_evals else 0.0),
        "rbcm.factor_s": rec.total("rbcm.factor"),
        "rbcm.aggregate_s": rec.self_time("rbcm.predict",
                                          {"kernels.gram", "gp.predict_solve"}),
        "cli.ingest_s": rec.total("cli.ingest"),
        "cli.write_s": rec.total("cli.write"),     # a span the job records
    }
    hooked = {f"{modname}.{attr}": span for modname, attr, span, _ in HOOKS}
    hooked["skewgp.rbcm.ThreadPoolExecutor"] = "rbcm.pool_map"
    # a span stays present while any of its hooks (the partials family) exists
    absent_spans = set(hooked.values()) - {
        span for target, span in hooked.items() if target not in missing}
    out = {}
    for name, value in values.items():
        needs, unit = _NEEDS[name]
        if needs & absent_spans:
            continue
        out[name] = {"value": float(value), "unit": unit}
    return out
