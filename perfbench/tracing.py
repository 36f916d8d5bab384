"""Per-layer tracing of fplab, installed from outside the package.

Tracer.install() replaces each listed public function of fplab with a wrapper
that records a span (name, start, end, parent span, operation id) in memory,
under every module name the function is bound to: ``from .x import f`` copies
the binding, so ``fplab.runner.check_acf_mapping`` and
``fplab.certificates.check_acf_mapping`` each get a wrapper.  Functions that
run tens of thousands of times per operation are counted without spans.
Tracer.uninstall() puts every original back.

Private helpers such as ``certificates._band_uniform`` and
``certificates._orbit_block`` are not wrapped; their time shows inside the
public checker that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

# Functions timed with spans, by defining module.  "Class.method" names a
# method patched on its class.
SPANNED = {
    "certificates": (
        "check_acf_mapping", "check_asf1", "check_asf2", "check_c5", "check_asmk",
        "check_banach_rate", "check_f_psi_contraction", "check_cyclic",
        "check_p_controls_d", "consecutive_contraction_report",
    ),
    "spaces": ("premetric_matrix", "premetric_diagonal", "verify_premetric_axioms",
               "sample_pairs"),
    "gauges": ("require_profile", "verify_gauge_regularity", "check_family_C6",
               "check_family_C7_multi"),
    "traces": ("picard_trace", "alternating_trace", "cyclic_even_trace", "sequence_trace",
               "IterationTrace.to_csv"),
    "solvers": ("certify_cauchy", "cauchy_diagnostic", "solve_fixed_point",
                "solve_best_proximity", "solve_common_fixed_point",
                "extract_noncauchy_witness", "even_collapse_diagnostic"),
    "scenario": ("build_scenario",),
    "runner": ("run_scenario_doc",),
}

# Hot functions counted without spans: metric name -> (module, attribute).
COUNTED = {
    "spaces.eval_premetric.calls": ("spaces", "eval_premetric"),
    "maps.NamedMap.calls": ("maps", "NamedMap.__call__"),
    "gauges.Gauge.scalar_calls": ("gauges", "Gauge.__call__"),
    "gauges.Gauge.array_calls": ("gauges", "Gauge.apply_array"),
}

MODULES = ("certificates", "spaces", "gauges", "maps", "traces", "solvers", "scenario",
           "runner")

# Spanned functions whose call count is reported next to their self time.
WITH_CALLS = (
    "certificates.check_acf_mapping", "certificates.check_asf1", "certificates.check_asf2",
    "certificates.check_c5", "certificates.check_asmk", "certificates.check_banach_rate",
    "certificates.check_f_psi_contraction", "certificates.check_cyclic",
    "certificates.check_p_controls_d", "certificates.consecutive_contraction_report",
    "spaces.premetric_matrix", "spaces.premetric_diagonal",
    "gauges.require_profile", "gauges.verify_gauge_regularity",
)

_SOLVES = ("solvers.solve_fixed_point", "solvers.solve_best_proximity",
           "solvers.solve_common_fixed_point")
_TRACE_BUILDERS = ("traces.picard_trace", "traces.alternating_trace",
                   "traces.cyclic_even_trace", "traces.sequence_trace")

_MARK = "__perfbench_wrapped__"


def _work_counts(name: str, fn):
    """Returns measure(args, kwargs, result) -> [(counter, amount)] for the
    spanned functions that also count work, or None."""
    if name in ("spaces.premetric_matrix", "spaces.premetric_diagonal"):
        sig = inspect.signature(fn)
        square = name == "spaces.premetric_matrix"

        def entries(args, kwargs, result):
            bound = sig.bind(*args, **kwargs).arguments
            n = len(bound["xs"])
            return [(f"{name}.entries", n * len(bound["ys"]) if square else n)]
        return entries
    if name in _TRACE_BUILDERS:
        return lambda args, kwargs, result: [("traces.points", len(result))]
    if name == "traces.IterationTrace.to_csv":
        # the CSV text is ASCII, so its length is its size in bytes
        return lambda args, kwargs, result: [("traces.csv_bytes", len(result))]
    if name in _SOLVES:
        return lambda args, kwargs, result: [("solvers.iterations", result.iterations)]
    if name == "runner.run_scenario_doc":
        def artifact_bytes(args, kwargs, result):
            size = sum(os.path.getsize(os.path.join(result.out_dir, a))
                       for a in result.artifacts)
            return [("runner.artifact_bytes", size)]
        return artifact_bytes
    return None


def _metric_name(name: str) -> str:
    # traces.IterationTrace.to_csv is reported as traces.to_csv
    return "traces.to_csv" if name == "traces.IterationTrace.to_csv" else name


class Tracer:
    """Spans and counters for one process.  Not thread-safe: the benchmark
    runs operations one after another."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.raised: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, module: str, name: str, fn):
        tracer, spans, stack = self, self.spans, self._stack
        measure = _work_counts(name, fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[module] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if measure is not None:
                for key, amount in measure(args, kwargs, result):
                    tracer.counts[key] += amount
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _count_wrapper(self, module: str, metric: str, fn):
        counts, raised = self.counts, self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[module] += 1
                raise

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"fplab.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[meth]
            self._patches.append((owner, meth, original))
            setattr(owner, meth, make(original))
            return
        original = getattr(mod, attr)
        for namespace in _fplab_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._patches.append((namespace, key, original))
                    setattr(namespace, key, make(original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, names in SPANNED.items():
            for attr in names:
                full = f"{module}.{attr}"
                self._patch(module, attr,
                            lambda fn, m=module, f=full: self._span_wrapper(m, f, fn))
        for metric, (module, attr) in COUNTED.items():
            self._patch(module, attr,
                        lambda fn, m=module, k=metric: self._count_wrapper(m, k, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round: self times, call counts, work counts
        and raised exceptions, each divided by the number of traced rounds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for module, names in SPANNED.items():
            for attr in names:
                full = f"{module}.{attr}"
                out[f"{_metric_name(full)}.self_s"] = self_s[full] / rounds
                if full in WITH_CALLS:
                    out[f"{full}.calls"] = calls[full] / rounds
        for key in ("spaces.premetric_matrix.entries", "spaces.premetric_diagonal.entries",
                    "traces.points", "traces.csv_bytes", "solvers.iterations",
                    "runner.artifact_bytes", *COUNTED):
            out[key] = self.counts[key] / rounds
        for module in MODULES:
            out[f"{module}.raised"] = self.raised[module] / rounds
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


def _fplab_namespaces() -> list:
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "fplab" or k.startswith("fplab."))]


def leftover_wrappers() -> list[str]:
    """Every fplab binding or class attribute that is still a tracer wrapper."""
    found = []
    for namespace in _fplab_namespaces():
        for key, value in vars(namespace).items():
            if getattr(value, _MARK, False):
                found.append(f"{namespace.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == namespace.__name__:
                for meth, member in vars(value).items():
                    if getattr(member, _MARK, False):
                        found.append(f"{namespace.__name__}.{key}.{meth}")
    return found
