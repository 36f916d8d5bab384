"""Settling diagnostics, certification routes, solvers, witness extraction."""

import math

import numpy as np
import pytest

from fplab.errors import ConfigurationError, InputError
from fplab.gauges import builtin_gauge
from fplab.maps import builtin_map, expression_map
from fplab.reports import SearchBudget, Verdict, sanitize
from fplab.solvers import (
    CAUCHY_ROUTES,
    WitnessScan,
    cauchy_diagnostic,
    certify_cauchy,
    even_collapse_diagnostic,
    extract_noncauchy_witness,
    solve_best_proximity,
    solve_common_fixed_point,
    solve_fixed_point,
)
from fplab.spaces import (
    CyclicSetting,
    DiskSet,
    IntervalSet,
    Space,
    composed_premetric,
    metric_premetric,
    premetric_matrix,
    shifted_premetric,
)
from fplab.traces import (
    AlternatingSchedule,
    IterationTrace,
    cyclic_even_trace,
    picard_trace,
    sequence_trace,
)

LINE = Space(id="line", dimension=1)
D = metric_premetric(LINE)
SMALL = SearchBudget(index_horizon=8, nu_horizon=8)


def line_setting() -> CyclicSetting:
    return CyclicSetting.derive(
        LINE,
        IntervalSet(space=LINE, lo=1.0, hi=math.inf),
        IntervalSet(space=LINE, lo=-math.inf, hi=-1.0),
    )


class TestCauchyDiagnostic:
    def test_telescoping_sequence_is_exact(self):
        # x_n = 2 - 2^-n: the sup over later points is always the distance
        # to the last stored point, 2^-n - 2^-23
        tr = IterationTrace(coords=[[2.0 - 2.0 ** -n] for n in range(24)], premetric=D,
                            status="completed")
        rep = cauchy_diagnostic(tr, tol=1e-4)
        assert rep.verdict is Verdict.PASS
        assert [w["n"] for w in rep.witnesses] == [0, 1, 2, 4, 8, 16, 22]
        for w in rep.witnesses:
            assert w["sup_tail"] == 2.0 ** -w["n"] - 2.0 ** -23

    def test_divergent_sequence_fails_at_the_tail(self):
        h = sequence_trace("harmonic", LINE, 1000)
        rep = cauchy_diagnostic(h)
        assert rep.verdict is Verdict.FAIL
        last = rep.witnesses[-1]
        assert last["n"] == 998 and last["needed"] == 1e-6
        assert last["sup_tail"] == pytest.approx(1e-3, rel=1e-9)

    def test_non_monotone_settling_measure_fails(self):
        # a later spike makes s(1) exceed s(0) even though the tail is zero
        tr = IterationTrace(coords=[[1.0], [0.0], [3.0], [0.0], [0.0], [0.0]],
                            premetric=D, status="completed")
        rep = cauchy_diagnostic(tr)
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses[-1] == {"n": 0, "sup_tail": 2.0,
                                     "later_n": 1, "later_sup_tail": 3.0}

    def test_truncated_orbit_cannot_cleanly_pass(self):
        tr = IterationTrace(coords=[[2.0 - 2.0 ** -n] for n in range(24)], premetric=D,
                            status="escaped")
        rep = cauchy_diagnostic(tr, tol=1e-4)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert "escaped" in rep.resolution_note

    def test_three_points_are_unchecked(self):
        tr = IterationTrace(coords=[[0.0], [1.0], [2.0]], premetric=D, status="completed")
        rep = cauchy_diagnostic(tr)
        assert (rep.verdict, rep.witnesses) == (Verdict.INCONCLUSIVE, [])
        assert rep.resolution_note == ("the trace holds 3 points, fewer than the 4 the "
                                       "settling diagnostic reads; CAUCHY was not checked")


class TestCertifyCauchy:
    def test_tau_route_on_contracting_orbit(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        cert = certify_cauchy(tr, "tau", SMALL)
        assert [h.condition_id for h in cert.hypotheses] == ["C1", "C2", "C3", "C4"]
        assert cert.diagnostic.condition_id == "CAUCHY"
        assert cert.overall is Verdict.PASS
        assert cert.route == "tau"

    def test_composed_route_adds_gauge_scrutiny(self):
        p = composed_premetric(builtin_gauge("mk"), D)
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20,
                          premetric=p)
        cert = certify_cauchy(tr, "composed", SMALL)
        ids = [h.condition_id for h in cert.hypotheses]
        assert ids[:5] == ["C1", "C2", "C3", "C4", "C5"]
        assert ids[-1] == "C4-INNER"
        assert sum(i.startswith("REG-") for i in ids) == 8
        assert cert.overall is Verdict.PASS

    def test_mixed_route_checks_axioms_and_decay(self):
        ev = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               line_setting(), LINE.point(3.0), 40)
        cert = certify_cauchy(ev, "mixed", SMALL)
        assert [h.condition_id for h in cert.hypotheses] == [
            "AX-SYM", "AX-MIX-R", "AX-MIX-L", "GAP-DECAY", "GAP-DECAY-COMPANION",
        ]
        assert cert.overall is Verdict.PASS

    @pytest.mark.parametrize("points", [1, 2, 3])
    def test_a_short_mixed_trace_is_unchecked(self, points):
        # two points hold no triple and one point no gap either
        tr = IterationTrace(coords=[[3.0], [-3.0], [3.0]][:points],
                            premetric=shifted_premetric(line_setting()), status="completed")
        cert = certify_cauchy(tr, "mixed", SMALL)
        verdicts = {h.condition_id: h.verdict for h in cert.hypotheses}
        unchecked = ["AX-SYM", "AX-MIX-R", "AX-MIX-L"] if points < 3 else []
        unchecked += ["GAP-DECAY", "GAP-DECAY-COMPANION"] if points < 2 else []
        assert [cid for cid, v in verdicts.items() if v is Verdict.INCONCLUSIVE] == unchecked
        for h in cert.hypotheses:
            if h.condition_id.startswith("AX-") and points < 3:
                assert h.resolution_note == (
                    f"the triple sample is empty; {h.condition_id} was not checked")
        assert cert.diagnostic.verdict is Verdict.INCONCLUSIVE

    def test_route_mismatches(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        ev = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               line_setting(), LINE.point(3.0), 40)
        with pytest.raises(ConfigurationError, match="sup-tail"):
            certify_cauchy(ev, "tau", SMALL)
        with pytest.raises(ConfigurationError, match="gauge-over-inner"):
            certify_cauchy(tr, "composed", SMALL)
        with pytest.raises(ConfigurationError, match="companion"):
            certify_cauchy(tr, "mixed", SMALL)
        with pytest.raises(ConfigurationError, match="unknown route"):
            certify_cauchy(tr, "direct", SMALL)
        assert set(CAUCHY_ROUTES) == {"tau", "composed", "mixed"}

    def test_json_shape(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        obj = sanitize(certify_cauchy(tr, "tau", SMALL))
        assert obj["route"] == "tau"
        assert obj["overall"] == "pass"
        assert len(obj["hypotheses"]) == 4


class TestSolveFixedPoint:
    def test_halving_from_one(self):
        # the step gap is 2^-n, first at or below 1e-9 when n = 30
        sol = solve_fixed_point(builtin_map("half", LINE), LINE.point(1.0))
        assert sol.iterations == 30
        assert sol.point.coords[0] == 2.0 ** -30
        assert sol.residual == 2.0 ** -31
        assert sol.converged

    def test_slow_contraction_with_loose_tolerance(self):
        # x_n = 1/(n+1); the step gap 1/(n(n+1)) first reaches 1e-3 at n=32
        sol = solve_fixed_point(builtin_map("mk", LINE), LINE.point(1.0),
                                tol=1e-3)
        assert sol.iterations == 32
        assert sol.point.coords[0] == pytest.approx(1.0 / 33.0, rel=1e-12)
        assert sol.converged

    def test_isometry_never_converges(self):
        sol = solve_fixed_point(builtin_map("translation", LINE),
                                LINE.point(0.0), max_steps=50)
        assert sol.iterations == 50
        assert not sol.converged
        assert sol.residual == 1.0

    def test_escaping_orbit_reports_failure(self):
        square = expression_map(LINE, "x * x", name="square")
        sol = solve_fixed_point(square, LINE.point(10.0))
        assert not sol.converged
        assert sol.residual == math.inf
        assert sol.iterations == 3

    def test_step_guard(self):
        with pytest.raises(InputError, match="at least one step"):
            solve_fixed_point(builtin_map("half", LINE), LINE.point(1.0),
                              max_steps=0)


class TestSolveBestProximity:
    def test_already_at_the_boundary(self):
        sol = solve_best_proximity(builtin_map("cyclic_reflect", LINE),
                                   line_setting(), LINE.point(1.0), tol=1e-6)
        assert sol.point.coords[0] == 1.0
        assert (sol.iterations, sol.residual, sol.converged) == (1, 0.0, True)

    def test_double_step_iteration_from_three(self):
        # even points 1 + 2*4^-n; the stop rule 6*4^-n <= 1e-6 first holds
        # at n=12 and the residual d(z,Tz) - 2 equals 3*4^-12 exactly
        sol = solve_best_proximity(builtin_map("cyclic_reflect", LINE),
                                   line_setting(), LINE.point(3.0), tol=1e-6)
        assert sol.iterations == 12
        assert sol.point.coords[0] == 1.0 + 2.0 * 4.0 ** -12
        assert sol.residual == 3.0 * 4.0 ** -12
        assert sol.converged

    def test_double_step_iteration_from_ten(self):
        sol = solve_best_proximity(builtin_map("cyclic_reflect", LINE),
                                   line_setting(), LINE.point(10.0), tol=1e-6)
        assert sol.iterations == 13
        assert sol.point.coords[0] == 1.0 + 9.0 * 4.0 ** -13
        assert sol.residual == 13.5 * 4.0 ** -13
        assert sol.converged

    def test_stop_rule_alone_is_not_convergence(self):
        """A pure reflection parks the even subsequence immediately, but the
        residual check sees the point is nowhere near proximity-optimal."""
        neg = expression_map(LINE, "0.0 - x", name="neg")
        sol = solve_best_proximity(neg, line_setting(), LINE.point(3.0),
                                   tol=1e-6)
        assert sol.iterations == 1
        assert sol.point.coords[0] == 3.0
        assert sol.residual == 4.0
        assert not sol.converged

    def test_budget_ending_on_a_non_finite_image(self):
        """3 + 0/(x - 3) + (x - 5) sends 7 -> 5 -> 3 -> NaN.  Whether the
        budget ends at the even point 3 or the next double step fails, the
        residual of 3 is inf: its image is not finite."""
        m = expression_map(LINE, "3.0 + 0.0 / (x - 3.0) + (x - 5.0)")
        for pairs in (1, 2):
            sol = solve_best_proximity(m, line_setting(), LINE.point(7.0), max_pairs=pairs)
            assert (sol.point.coords, sol.residual, sol.iterations, sol.converged) == \
                ((3.0,), math.inf, 1, False)

    def test_seed_guard(self):
        with pytest.raises(InputError, match="must lie in the first set"):
            solve_best_proximity(builtin_map("cyclic_reflect", LINE),
                                 line_setting(), LINE.point(0.0))


class TestSolveCommonFixedPoint:
    def test_two_contractions_share_zero(self):
        sched = AlternatingSchedule(builtin_map("quarter", LINE),
                                    builtin_map("fifth", LINE))
        sol = solve_common_fixed_point(sched, LINE.point(1.0), tol=1e-9)
        assert sol.converged
        assert sol.iterations == 13
        # seed through S, six full TS rounds, one last T
        assert sol.point.coords[0] == pytest.approx(0.2 * 0.05 ** 6 * 0.25,
                                                    rel=1e-12)
        assert sol.residual == pytest.approx(0.8 * sol.point.coords[0],
                                             rel=1e-12)

    def test_disagreeing_maps_do_not_converge(self):
        sched = AlternatingSchedule(builtin_map("half", LINE),
                                    builtin_map("translation", LINE))
        sol = solve_common_fixed_point(sched, LINE.point(0.0), max_steps=60)
        assert not sol.converged

    def test_step_guard(self):
        sched = AlternatingSchedule(builtin_map("quarter", LINE),
                                    builtin_map("fifth", LINE))
        with pytest.raises(InputError, match="at least one step"):
            solve_common_fixed_point(sched, LINE.point(1.0), max_steps=0)


class TestNonCauchyWitness:
    def test_divergent_harmonic_yields_index_triples(self):
        h = sequence_trace("harmonic", LINE, 1000)
        scan = extract_noncauchy_witness(h)
        assert scan.status == "found"
        w = scan.witness
        assert w.sigma == (98, 271)
        assert w.k == (164, 449)
        assert w.rho == (270, 741)
        assert w.parity_note == "parity kept 0 time(s), corrected by one index 2 time(s)"

    def test_witness_invariants_recompute(self):
        h = sequence_trace("harmonic", LINE, 1000)
        xs = h.coords[:, 0].tolist()
        w = extract_noncauchy_witness(h).witness
        for sigma, rho, k, sep, straddle in zip(w.sigma, w.rho, w.k,
                                                w.separation_gaps,
                                                w.straddle_gaps):
            assert sigma < k <= rho
            assert (k - sigma) % 2 == 0
            assert abs(xs[k] - xs[sigma]) == sep > w.eps
            assert abs(xs[k - 2] - xs[sigma]) == straddle <= w.eps
            assert abs(xs[rho] - xs[sigma]) > w.eps

    def test_never_settling_steps_not_applicable(self):
        tr = picard_trace(builtin_map("translation", LINE), LINE.point(0.0), 40)
        scan = extract_noncauchy_witness(tr)
        assert scan.status == "not_applicable"
        assert "never settle" in scan.note

    def test_settled_but_non_decaying_steps_not_applicable(self):
        drift = IterationTrace(coords=np.cumsum([5e-3] * 40)[:, None], premetric=D,
                               status="completed")
        scan = extract_noncauchy_witness(drift)
        assert scan.status == "not_applicable"
        assert "never decay" in scan.note

    def test_convergent_orbit_has_no_witness(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 40)
        assert extract_noncauchy_witness(tr).status == "none"

    def test_three_gaps_are_not_applicable(self):
        tr = IterationTrace(coords=[[0.0], [1.0], [2.0], [3.0]], premetric=D, status="completed")
        assert extract_noncauchy_witness(tr) == WitnessScan(
            "not_applicable", None,
            "the trace holds 4 points, fewer than the 5 of the 4 consecutive gaps the scan reads")

    def test_json_shape(self):
        scan = extract_noncauchy_witness(sequence_trace("harmonic", LINE, 1000))
        obj = sanitize(scan)
        assert obj["status"] == "found"
        assert obj["witness"]["sigma"] == [98, 271]
        assert obj["witness"]["eps"] == 0.5


class TestEvenCollapse:
    def test_reflecting_contraction_collapses(self):
        ev = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               line_setting(), LINE.point(3.0), 40)
        rep = even_collapse_diagnostic(ev, line_setting())
        assert rep.verdict is Verdict.PASS

    def test_plain_full_orbit_accepted(self):
        orbit = picard_trace(builtin_map("cyclic_reflect", LINE),
                             LINE.point(3.0), 80)
        rep = even_collapse_diagnostic(orbit, line_setting())
        assert rep.verdict is Verdict.PASS

    def test_pure_reflection_steps_overshoot_the_gap(self):
        neg = expression_map(LINE, "0.0 - x", name="neg")
        orbit = picard_trace(neg, LINE.point(3.0), 12)
        rep = even_collapse_diagnostic(orbit, line_setting())
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses == [{"step_gap_tail": 6.0, "target_gap": 2.0,
                                  "even_displacement_tail": 0.0}]

    def test_guards(self):
        orbit = picard_trace(builtin_map("cyclic_reflect", LINE),
                             LINE.point(3.0), 3)
        rep = even_collapse_diagnostic(orbit, line_setting())
        assert (rep.verdict, rep.witnesses) == (Verdict.INCONCLUSIVE, [])
        assert rep.resolution_note == ("the full orbit holds 4 points, fewer than the 5 the "
                                       "collapse reads; EVEN-COLLAPSE was not checked")
        # p-norms are measured, not refused.  In the taxi plane the disks
        # around (2, 2) and (-2, -2) of radius 1 are 8 - 1 - 1 = 6 apart, and
        # neg bounces (3, 4) <-> (-3, -4): each step is 6 + 8 = 14 long (the
        # euclidean length would be 10) and every even displacement is 0.
        taxi = Space(id="taxi", dimension=2, norm=1)
        taxi_setting = CyclicSetting.derive(
            taxi, DiskSet(taxi, (2.0, 2.0), 1.0), DiskSet(taxi, (-2.0, -2.0), 1.0))
        orbit2 = picard_trace(builtin_map("neg", taxi), taxi.point(3.0, 4.0), 12)
        rep = even_collapse_diagnostic(orbit2, taxi_setting)
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses == [{"step_gap_tail": 14.0, "target_gap": 6.0,
                                  "even_displacement_tail": 0.0}]


class TestPremetricSpace:
    """A diagnostic measures with the trace's own premetric: a premetric
    passed beside the trace is a TypeError at the call."""

    ON_B = metric_premetric(Space(id="b", dimension=1))

    def test_cauchy_diagnostic(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        with pytest.raises(TypeError):
            cauchy_diagnostic(tr, self.ON_B)
        comp = composed_premetric(builtin_gauge("mk"), D)
        under = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20, premetric=comp)
        coords = under.coords
        # s(0) is the largest gap from x_0 under the trace's premetric
        assert cauchy_diagnostic(under).witnesses[0]["sup_tail"] == float(
            premetric_matrix(comp, coords[:1], coords[1:]).max())
        assert cauchy_diagnostic(tr).witnesses[0]["sup_tail"] == 1.0 - 2.0 ** -20

    def test_extract_noncauchy_witness(self):
        with pytest.raises(TypeError):
            extract_noncauchy_witness(sequence_trace("harmonic", LINE, 100), self.ON_B)
