"""Scenario execution: materialize traces, run the requested pipelines in a
fixed order, check pinned expectations, and write deterministic artifacts.

Artifacts per run directory:
  reports.json               everything, including the verdict map and exit code
  trace_<source>.csv         one per materialized trace
  solve_<kind>.json          one per solver invocation
  witness_scan.json          when the falsify run executes

Exit codes: 0 all verdicts pass and no expectation violated, 2 any fail
verdict or violated expectation, 3 inconclusive degradations only, 1 is
reserved for configuration errors and raised out of this module as
ConfigurationError / InputError for the CLI to translate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .certificates import (
    check_acf_mapping,
    check_asmk,
    check_banach_rate,
    check_c5,
    check_cyclic,
    check_f_psi_contraction,
    check_p_controls_d,
    consecutive_contraction_report,
)
from .errors import ConfigurationError, InputError
from .gallery import Expectation, gallery_names, get_entry
from .reports import CertificateReport, Verdict, sanitize
from .scenario import RUN_NAMES, Scenario, build_scenario, load_scenario_file, seed_problem
from .solvers import (
    certify_cauchy,
    even_collapse_diagnostic,
    extract_noncauchy_witness,
    solve_best_proximity,
    solve_common_fixed_point,
    solve_fixed_point,
)
from .spaces import sample_pairs
from .traces import (
    AlternatingSchedule,
    IterationTrace,
    alternating_trace,
    cyclic_even_trace,
    picard_trace,
    sequence_trace,
)

@dataclass
class RunResult:
    name: str
    exit_code: int
    verdicts: dict[str, str]
    violations: list[dict]
    out_dir: str
    artifacts: list[str] = field(default_factory=list)


def _default_steps(scn: Scenario) -> int:
    # enough points for the band checkers plus a little settling room
    return scn.budget.index_horizon + scn.budget.nu_horizon + 32


def _trace_for(scn: Scenario, source: str, cache: dict[str, IterationTrace]) -> IterationTrace:
    """The trace of one of scenario.TRACE_SOURCES, built once per run; the walk
    has checked that the maps or sequence it needs are there."""
    if source in cache:
        return cache[source]
    params = scn.run_params("alternate" if source == "alternating" else "iterate")
    steps = params["steps"] or _default_steps(scn)
    if source == "picard":
        tr = picard_trace(scn.map_t, params["x0"], steps, premetric=scn.premetric)
    elif source == "sequence":
        tr = sequence_trace(scn.sequence, scn.space, steps + 1, premetric=scn.premetric)
    else:
        schedule = AlternatingSchedule(scn.map_t, scn.map_s)
        tr = alternating_trace(schedule, params["seed"], steps, premetric=scn.premetric)
    cache[source] = tr
    return tr


class _Sink:
    """Collects verdicts, run payloads and artifact files for one scenario."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.verdicts: dict[str, str] = {}
        self.runs: dict[str, dict] = {}
        self.artifacts: list[str] = []

    def verdict(self, run: str, report: CertificateReport, prefix: str = "") -> None:
        self.value(f"{run}.{prefix}{report.condition_id}", report.verdict.value)

    def value(self, key: str, value: str) -> None:
        if key in self.verdicts:
            raise ConfigurationError(f"duplicate verdict key {key}")
        self.verdicts[key] = value

    def write(self, name: str, text: str) -> None:
        # listed before writing, so discard() also removes a half-written file
        self.artifacts.append(name)
        with open(os.path.join(self.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def discard(self, created_dir: bool) -> None:
        """Delete every artifact written so far, and the directory too when
        this run created it."""
        for name in self.artifacts:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.out_dir, name))
        if created_dir:
            with contextlib.suppress(OSError):
                os.rmdir(self.out_dir)

    def write_json(self, name: str, obj) -> None:
        """The one JSON writer: obj may hold result objects, written as
        reports.sanitize has them."""
        self.write(name, json.dumps(sanitize(obj), sort_keys=True, indent=2,
                                    allow_nan=False) + "\n")


def _run_iterate(scn: Scenario, cache: dict, sink: _Sink) -> None:
    params = scn.run_params("iterate")
    source = "sequence" if scn.map_t is None else "picard"
    tr = _trace_for(scn, source, cache)
    payload: dict = {"source": source, "points": len(tr), "status": tr.status}
    if scn.map_t is not None:
        res = solve_fixed_point(scn.map_t, params["x0"], tol=params["tol"],
                                max_steps=params["max_steps"], premetric=scn.premetric)
        sink.value("iterate.solve", "converged" if res.converged else "not_converged")
        sink.write_json("solve_fixed_point.json", res)
        payload["solve"] = res
    sink.runs["iterate"] = payload


def _run_certify(scn: Scenario, cache: dict, sink: _Sink) -> None:
    params = scn.run_params("certify")
    source, route = params["source"], params["route"]
    tr = _trace_for(scn, source, cache)

    cert = certify_cauchy(tr, route, scn.budget, params["tol"])
    for rep in cert.hypotheses:
        sink.verdict("certify", rep)
    sink.verdict("certify", cert.diagnostic)
    sink.value("certify.overall", cert.overall.value)
    payload: dict = {"source": source, "certificate": cert, "additional": []}

    def extra(rep: CertificateReport, prefix: str = "") -> None:
        sink.verdict("certify", rep, prefix)
        payload["additional"].append(rep)

    if route == "tau":
        # the one-shift band check already ran; add the pairwise strict check
        # so the sequence-level family is complete on this trace
        extra(check_c5(tr, budget=scn.budget))
    if scn.map_t is not None:
        for rep in check_acf_mapping(scn.map_t, budget=scn.budget, region=scn.region,
                                     seed=scn.seed):
            extra(rep)
        extra(check_banach_rate(scn.map_t, budget=scn.budget, region=scn.region,
                                seed=scn.seed))
    if scn.premetric.kind != "metric":
        extra(check_p_controls_d([tr]))
    for variant in scn.asmk_variants:
        for rep in check_asmk(tr, scn.f_gauge, scn.family, budget=scn.budget, variant=variant):
            extra(rep, prefix=f"{variant}.")
    sink.runs["certify"] = payload


def _run_cyclic(scn: Scenario, cache: dict, sink: _Sink) -> None:
    params = scn.run_params("cyclic")
    x0, setting = params["x0"], scn.setting

    membership = check_cyclic(scn.map_t, setting, sample_count=params["samples"],
                              seed=scn.seed)
    sink.verdict("cyclic", membership)

    tr = cyclic_even_trace(scn.map_t, setting, x0, params["pairs"])
    cache["cyclic_even"] = tr

    res = solve_best_proximity(scn.map_t, setting, x0, tol=params["tol"],
                               max_pairs=params["max_pairs"])
    sink.value("cyclic.solve", "converged" if res.converged else "not_converged")
    sink.write_json("solve_best_proximity.json", res)

    collapse = even_collapse_diagnostic(tr, setting, tol=params["collapse_tol"])
    sink.verdict("cyclic", collapse)

    cert = certify_cauchy(tr, "mixed", scn.budget, params["cert_tol"])
    for rep in cert.hypotheses:
        sink.verdict("cyclic", rep)
    sink.verdict("cyclic", cert.diagnostic)
    sink.value("cyclic.overall", cert.overall.value)

    sink.runs["cyclic"] = {"membership": membership, "solve": res,
                           "collapse": collapse, "certificate": cert}


def _run_alternate(scn: Scenario, cache: dict, sink: _Sink) -> None:
    params = scn.run_params("alternate")
    schedule = AlternatingSchedule(scn.map_t, scn.map_s)
    tr = _trace_for(scn, "alternating", cache)

    res = solve_common_fixed_point(schedule, params["seed"], tol=params["tol"],
                                   max_steps=params["max_steps"], premetric=scn.premetric)
    sink.value("alternate.solve", "converged" if res.converged else "not_converged")
    sink.write_json("solve_common_fixed_point.json", res)
    payload: dict = {"solve": res}

    if scn.f_gauge is not None and scn.psi is not None:
        rng = np.random.default_rng(scn.seed)
        xs, ys = sample_pairs(scn.space, scn.region, params["fpsi_pairs"], rng)
        fpsi = check_f_psi_contraction(
            scn.map_t, scn.map_s, scn.premetric, scn.f_gauge, scn.psi, xs, ys,
            psi_variant=params["psi_variant"],
        )
        sink.verdict("alternate", fpsi)
        payload["fpsi"] = fpsi
        ineq = consecutive_contraction_report(tr, scn.f_gauge, scn.psi)
        sink.verdict("alternate", ineq)
        payload["ineqfp"] = ineq
    sink.runs["alternate"] = payload


def _run_falsify(scn: Scenario, cache: dict, sink: _Sink) -> None:
    params = scn.run_params("falsify")
    tr = _trace_for(scn, params["source"], cache)
    scan = extract_noncauchy_witness(tr, eps=params["eps"], gap_tol=params["gap_tol"])
    sink.value("falsify.scan", scan.status)
    sink.write_json("witness_scan.json", scan)
    sink.runs["falsify"] = {"source": params["source"], "scan": scan}


_RUNNERS = {
    "iterate": _run_iterate,
    "certify": _run_certify,
    "cyclic": _run_cyclic,
    "alternate": _run_alternate,
    "falsify": _run_falsify,
}


def _exit_code(verdicts: dict[str, str], violations: list[dict], strict: bool) -> int:
    values = set(verdicts.values())
    if Verdict.FAIL.value in values or violations:
        return 2
    if Verdict.INCONCLUSIVE.value in values:
        return 2 if strict else 3
    return 0


def run_scenario_doc(
    doc: dict,
    out_dir: str,
    seed: int | None = None,
    budget_scale: float | None = None,
    expectations: tuple[Expectation, ...] = (),
    strict: bool = False,
) -> RunResult:
    """Execute one scenario document.  Configuration problems raise
    ConfigurationError, a bad seed or budget scale InputError, as does a
    run that runs out of memory; everything else lands in the artifacts.
    A run that raises leaves no artifact behind, nor the directory if it
    made it."""
    scn = build_scenario(doc)
    if seed is not None:
        if problem := seed_problem(seed):
            raise InputError(f"seed: {problem}, got {seed!r}")
        scn = dataclasses.replace(scn, seed=seed)
    if budget_scale is not None:
        scn = dataclasses.replace(scn, budget=scn.budget.scaled(budget_scale))

    created_dir = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    sink = _Sink(out_dir)
    try:
        cache: dict[str, IterationTrace] = {}
        for run in RUN_NAMES:
            if run in scn.runs:
                _RUNNERS[run](scn, cache, sink)

        for source in sorted(cache):
            sink.write(f"trace_{source}.csv", cache[source].to_csv())

        violations = []
        for exp in expectations:
            actual = sink.verdicts.get(exp.path)
            if actual != exp.expected:
                violations.append({
                    "path": exp.path,
                    "expected": exp.expected,
                    "actual": actual,
                    "basis": exp.basis,
                })

        exit_code = _exit_code(sink.verdicts, violations, strict)
        sink.write_json("reports.json", {
            "scenario": scn.name,
            "seed": scn.seed,
            "budget": scn.budget,
            "runs": sink.runs,
            "verdicts": sink.verdicts,
            "violations": violations,
            "exit_code": exit_code,
        })
    except MemoryError as exc:
        # a document can ask for more points than fit in memory
        sink.discard(created_dir)
        raise InputError(f"the run needs more memory than is available: {exc}") from exc
    except BaseException:
        sink.discard(created_dir)
        raise
    return RunResult(
        name=scn.name,
        exit_code=exit_code,
        verdicts=sink.verdicts,
        violations=violations,
        out_dir=out_dir,
        artifacts=sorted(sink.artifacts),
    )


def run_scenario(
    source: str,
    out_dir: str,
    seed: int | None = None,
    budget_scale: float | None = None,
    strict: bool = False,
) -> RunResult:
    """Run a gallery entry (by name) or a scenario file (by path).

    Gallery entries bring their pinned expectations along; violations count
    against the exit code like fail verdicts do.
    """
    if source in gallery_names():
        entry = get_entry(source)
        return run_scenario_doc(entry.doc, out_dir, seed=seed,
                                budget_scale=budget_scale,
                                expectations=entry.expectations, strict=strict)
    doc = load_scenario_file(source)
    return run_scenario_doc(doc, out_dir, seed=seed, budget_scale=budget_scale,
                            strict=strict)
