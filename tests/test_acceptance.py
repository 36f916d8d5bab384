"""Acceptance gate: one test per headline behavior, run with `pytest -v`
so each prints its own pass/fail line.

Every numeric constant here was computed independently (closed forms for
the orbits, hand-counted band membership) before being frozen, and each
test states its tolerance inline.  These are end-to-end checks; the unit
suites own the per-function edge cases.
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fplab.certificates import (
    PSI_PROFILE_STANDARD,
    acf_asf_agreement,
    check_acf_mapping,
    check_asf1,
    check_asf2,
    check_asmk,
    check_banach_rate,
    check_c5,
    check_f_psi_contraction,
    consecutive_contraction_report,
)
from fplab.gauges import builtin_gauge, expression_gauge, iterated_family
from fplab.maps import builtin_map
from fplab.reports import SearchBudget, Verdict
from fplab.runner import run_scenario, run_scenario_doc
from fplab.solvers import (
    cauchy_diagnostic,
    certify_cauchy,
    even_collapse_diagnostic,
    extract_noncauchy_witness,
    solve_best_proximity,
    solve_common_fixed_point,
    solve_fixed_point,
)
from fplab.spaces import (
    Box,
    CyclicSetting,
    IntervalSet,
    Space,
    composed_premetric,
    eval_premetric,
    metric_premetric,
)
from fplab.traces import (
    AlternatingSchedule,
    alternating_trace,
    cyclic_even_trace,
    picard_trace,
    sequence_trace,
)
from fplab.gallery import GALLERY, get_entry

LINE = Space(id="line", dimension=1)
D = metric_premetric(LINE)

PASS = Verdict.PASS
FAIL = Verdict.FAIL


def test_contracting_map_certifies_everywhere():
    """Halving map from 1.0: the solver lands within 1e-9 of zero in at
    most 60 steps and every sequence- and mapping-level condition passes
    at the default budget."""
    half = builtin_map("half", LINE)
    res = solve_fixed_point(half, LINE.point(1.0), tol=1e-9, max_steps=60)
    assert res.converged
    assert res.iterations == 30
    assert abs(res.point.coords[0]) <= 1e-9

    tr = picard_trace(half, LINE.point(1.0), 352)
    seq = list(check_asf1(tr)) + [
        check_asf2(tr), check_c5(tr)]
    assert [r.condition_id for r in seq] == ["C1", "C2", "C3", "C4", "C5"]
    assert all(r.verdict is PASS for r in seq)

    acf = check_acf_mapping(half)
    assert [r.condition_id for r in acf] == ["D1", "D2", "D3", "D4"]
    assert all(r.verdict is PASS for r in acf)


def test_settling_map_without_uniform_rate():
    """x/(1+x) from 1.0 tracks 1/(1+n) to 1e-12 out to n=1000; the
    per-index strict condition holds on its natural domain while a single
    uniform contraction factor does not exist."""
    mk = builtin_map("mk", LINE)
    tr = picard_trace(mk, LINE.point(1.0), 1000)
    worst = max(abs(x - 1.0 / (1.0 + n)) for n, x in enumerate(tr.coords[:, 0].tolist()))
    assert worst <= 1e-12

    domain = Box((0.0,), (10.0,))
    d3 = check_acf_mapping(mk, region=domain)[2]
    assert d3.condition_id == "D3"
    assert d3.verdict is PASS
    rate = check_banach_rate(mk, region=domain)
    assert rate.verdict is FAIL


def test_back_and_forth_orbit_reaches_the_wall():
    """Reflecting contraction between [1, inf) and (-inf, -1]: from three
    different starts the proximity solver stops within 1e-6 of 1 with the
    step distance within 1e-6 of the set gap 2, and the three answers
    agree pairwise within 2e-6."""
    setting = CyclicSetting.derive(LINE,
                                   IntervalSet(LINE, 1.0, math.inf),
                                   IntervalSet(LINE, -math.inf, -1.0))
    refl = builtin_map("cyclic_reflect", LINE)
    answers = []
    for x0 in (1.0, 3.0, 10.0):
        res = solve_best_proximity(refl, setting, LINE.point(x0), tol=1e-6)
        assert res.converged
        z = res.point
        assert abs(z.coords[0] - 1.0) <= 1e-6
        assert abs(eval_premetric(D, z, refl(z)) - 2.0) <= 1e-6
        answers.append(z.coords[0])
    assert max(abs(a - b) for a in answers for b in answers) <= 2e-6

    ev = cyclic_even_trace(refl, setting, LINE.point(3.0), 40)
    assert even_collapse_diagnostic(ev, setting).verdict is PASS


def test_alternating_pair_under_comparison_gauge():
    """x/4 alternated with x/5 under the identity gauge and psi = 7t/12:
    the pair condition holds on 1000 seeded sample pairs in [-10,10]^2,
    the stepwise inequality holds with slack 1e-12, and the alternating
    solver drives the residual below 1e-9 within 40 steps."""
    t_map, s_map = builtin_map("quarter", LINE), builtin_map("fifth", LINE)
    psi = expression_gauge("7.0 * t / 12.0", name="seven-twelfths",
                           profile=PSI_PROFILE_STANDARD)
    rng = np.random.default_rng(0)
    draws = rng.uniform(-10.0, 10.0, size=(1000, 2))
    rep = check_f_psi_contraction(t_map, s_map, D, builtin_gauge("id"),
                                  psi, draws[:, :1], draws[:, 1:])
    assert rep.verdict is PASS
    assert rep.witnesses[0]["pairs"] == 1000
    assert rep.witnesses[0]["worst_margin"] < 0

    sched = AlternatingSchedule(t_map, s_map)
    sol = solve_common_fixed_point(sched, LINE.point(1.0), tol=1e-9,
                                   max_steps=40)
    assert sol.converged
    assert sol.iterations == 13
    assert sol.residual <= 1e-9

    orbit = alternating_trace(sched, LINE.point(1.0), 40)
    ineq = consecutive_contraction_report(orbit, builtin_gauge("id"), psi)
    assert ineq.condition_id == "INEQFP"
    assert ineq.verdict is PASS
    assert ineq.witnesses[0]["steps"] == 39


def test_falsification_produces_concrete_witnesses():
    """Three ways to fail, each with an inspectable witness: an isometry
    defeats the strict conditions, a period-two orbit defeats the band
    condition at a threshold a hair under its gap, and the harmonic
    partial sums stay separated even after their steps settle."""
    # translation: distances never decrease, at either level
    shift = builtin_map("translation", LINE)
    d3 = check_acf_mapping(shift)[2]
    assert d3.verdict is FAIL
    assert d3.witnesses[0]["gap"] == pytest.approx(
        d3.witnesses[0]["best_follow_up"], rel=1e-12)
    tr = picard_trace(shift, LINE.point(0.0), 352)
    c3 = check_asf1(tr)[2]
    assert c3.verdict is FAIL
    assert c3.witnesses[0] == {"index": 0, "gap": 1.0, "best_follow_up": 1.0}

    # period two: every pair gap is exactly 1 and shifts preserve parity
    flip = picard_trace(builtin_map("flip", LINE), LINE.point(0.0), 352)
    hairline = 1.0 - 2.0 ** -21
    c4 = check_asf2(flip, budget=SearchBudget(eps_grid=(1.0, hairline, 0.1)))
    assert c4.verdict is FAIL
    assert c4.witnesses[1] == {"eps": hairline, "delta": 2.0 ** -20,
                               "orbit": 0, "i": 0, "j": 1, "gap": 1.0,
                               "best_uniform_nu": 1, "value_at_best_nu": 1.0}
    settle = cauchy_diagnostic(flip)
    assert settle.verdict is FAIL
    assert settle.witnesses[-1] == {"n": 351, "sup_tail": 1.0, "needed": 1e-6}

    # harmonic sums: steps decay yet separated index triples persist
    scan = extract_noncauchy_witness(sequence_trace("harmonic", LINE, 1000))
    assert scan.status == "found"
    w = scan.witness
    assert w.sigma == (98, 271)
    assert w.k == (164, 449)
    assert w.rho == (270, 741)
    xs = sequence_trace("harmonic", LINE, 1000).coords[:, 0].tolist()
    for sigma, k, rho, sep, straddle in zip(w.sigma, w.k, w.rho,
                                            w.separation_gaps,
                                            w.straddle_gaps):
        assert sigma < k <= rho
        assert abs(xs[k] - xs[sigma]) == sep > w.eps
        assert abs(xs[k - 2] - xs[sigma]) == straddle <= w.eps


def test_checker_families_agree():
    """Cross-checks between checker families, zero violations allowed:
    family domination passing implies the sequence conditions pass; the
    band condition passing through a composed gap plus the strict pair
    condition implies it passes for the inner gap; and mapping-level
    verdicts match orbit-level verdicts on identical sampled data."""
    budget = SearchBudget(nu_horizon=160)
    violations = []

    # family domination -> sequence conditions, on long orbits
    cases = [("half", builtin_gauge("half")),
             ("quarter", expression_gauge("t / 4.0", name="quarter-gauge")),
             ("mk", builtin_gauge("mk"))]
    hypotheses_held = 0
    for name, base in cases:
        tr = picard_trace(builtin_map(name, LINE), LINE.point(1.0), 448)
        dom = check_asmk(tr, builtin_gauge("id"), iterated_family(base), budget=budget)
        seq = list(check_asf1(tr, budget=budget)) + [
            check_asf2(tr, budget=budget)]
        if all(r.verdict is PASS for r in dom):
            hypotheses_held += 1
            if any(r.verdict is not PASS for r in seq):
                violations.append(("domination->sequence", name))
    assert hypotheses_held >= 2  # half and quarter instantiate it for real

    # band through a composed gap + strict pairs -> band for the inner gap
    outer = builtin_gauge("mk")
    for name in ("half", "mk"):
        comp = composed_premetric(outer, D)
        ctr = picard_trace(builtin_map(name, LINE), LINE.point(1.0), 352,
                           premetric=comp)
        hyp = (check_asf2(ctr).verdict is PASS
               and check_c5(ctr).verdict is PASS)
        inner_tr = picard_trace(builtin_map(name, LINE), LINE.point(1.0), 352)
        if hyp and check_asf2(inner_tr).verdict is not PASS:
            violations.append(("composed->inner", name))
        assert hyp  # both orbits instantiate the hypothesis

    # mapping-level vs orbit-level on the same sampled pairs
    for name, region in (("half", None), ("quarter", None),
                         ("mk", Box((0.0,), (10.0,))),
                         ("translation", None), ("flip", None)):
        agree = acf_asf_agreement(builtin_map(name, LINE), budget=budget,
                                  region=region)
        for k in range(1, 5):
            if agree[f"D{k}"] is not agree[f"C{k}"]:
                violations.append(("mapping-vs-orbit", name, k))

    assert violations == []


def test_three_certification_routes_agree():
    """The halving orbit certifies as settling under all three routes,
    with the final tail estimate below 1e-6 each time."""
    half = builtin_map("half", LINE)

    plain = picard_trace(half, LINE.point(1.0), 352)
    tau = certify_cauchy(plain, "tau", tol=1e-6)

    comp = composed_premetric(builtin_gauge("mk"), D)
    composed = certify_cauchy(
        picard_trace(half, LINE.point(1.0), 352, premetric=comp),
        "composed", tol=1e-6)

    relaxed = dataclasses.replace(D, claims=D.claims | {"mixed_triangle"},
                                  companion=D)
    mixed = certify_cauchy(
        picard_trace(half, LINE.point(1.0), 352, premetric=relaxed),
        "mixed", tol=1e-6)

    for cert in (tau, composed, mixed):
        assert cert.overall is PASS
        assert cert.diagnostic.verdict is PASS
        assert cert.diagnostic.witnesses[-1]["sup_tail"] < 1e-6


def test_gallery_runs_are_reproducible(tmp_path):
    """Every gallery entry exits as advertised with zero expectation
    violations, and a second run writes byte-identical reports."""
    for entry in GALLERY:
        first = run_scenario(entry.name, str(tmp_path / "a" / entry.name))
        assert first.exit_code == entry.expected_exit, entry.name
        assert first.violations == [], entry.name
        run_scenario(entry.name, str(tmp_path / "b" / entry.name))
        a = (tmp_path / "a" / entry.name / "reports.json").read_bytes()
        b = (tmp_path / "b" / entry.name / "reports.json").read_bytes()
        assert a == b, entry.name


def _refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_gallery_artifacts_are_strict_json(tmp_path):
    """Every JSON artifact of every gallery run is strict JSON: no bare
    NaN or Infinity, which json.dumps writes by default but JSON forbids."""
    for entry in GALLERY:
        out = tmp_path / entry.name
        run_scenario(entry.name, str(out))
        artifacts = sorted(out.glob("*.json"))
        assert artifacts, entry.name
        for path in artifacts:
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def test_gallery_artifacts_match_the_recorded_digests(tmp_path):
    """Every gallery entry, run at seed 0 with its expectations, writes
    artifacts whose SHA-256 digests are those recorded for the benchmark's
    meir-keeler and gallery-quick workloads, and no other artifact."""
    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
    recorded = json.loads(expected.read_text(encoding="utf-8"))["digests"]
    want = {**recorded["meir-keeler"], **recorded["gallery-quick"]}
    got = {}
    for entry in GALLERY:
        out = tmp_path / entry.name
        run_scenario_doc(entry.doc, str(out), seed=0, expectations=entry.expectations)
        got[f"{entry.name}@0"] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                                  for path in sorted(out.iterdir())}
    assert sorted(got) == sorted(want)
    for label, digests in sorted(got.items()):
        assert sorted(digests) == sorted(want[label]), label
        assert digests == want[label], label


# SHA-256 of every artifact of `fplab run banach-half --budget-scale 1.2` at
# seed 0.  The scale takes the horizons to 307 + 77, past the 353 points the
# entry's steps give, so C1-C5, C8 and C9 are reported unchecked.
SCALED_BANACH_HALF = {
    "reports.json": "5f97fb9122e1befe68cdf7840ab0e0037abf74eb2caf7624c0b7a1210ba06ef5",
    "solve_fixed_point.json": "5a6334961a35e25d4f5b6fad3239f7c9bc8d6409608e57e6d98798f22ce0dbf7",
    "trace_picard.csv": "550baf9fb0a6721cdfc47ad1f96dad46a3299db557e2301af2b66290c229e38a",
    "witness_scan.json": "f83e1678313a81a4e5351f338340e5ebd69aed0641c2d4618245d639deaf27e1",
}


def test_a_scaled_run_matches_its_recorded_digests(tmp_path):
    entry = get_entry("banach-half")
    out = tmp_path / "out"
    result = run_scenario_doc(entry.doc, str(out), seed=0, budget_scale=1.2,
                              expectations=entry.expectations)
    assert result.exit_code == 2
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())} == SCALED_BANACH_HALF
