"""Condition checkers: sequence-level, gauge-family, mapping-level, two-map."""

import math
from unittest import mock

import numpy as np
import pytest

from fplab.certificates import (
    ASMK_VARIANTS,
    PSI_PROFILE_STANDARD,
    PSI_PROFILE_ZHANG,
    _m_values,
    acf_asf_agreement,
    check_acf_mapping,
    check_asf1,
    check_asf2,
    check_asmk,
    check_banach_rate,
    check_c5,
    check_cyclic,
    check_f_psi_contraction,
    check_p_controls_d,
    consecutive_contraction_report,
)
from fplab.errors import ConfigurationError, InputError, RefusalError
from fplab.gauges import Gauge, builtin_gauge, expression_gauge, explicit_family, \
    iterated_family
from fplab.maps import builtin_map, expression_map
from fplab.reports import CertificateReport, SearchBudget, Verdict
from fplab.spaces import Box, CyclicSetting, IntervalSet, Space, composed_premetric, \
    metric_premetric, shifted_premetric
from fplab.traces import IterationTrace, picard_trace

LINE = Space(id="line", dimension=1)
D = metric_premetric(LINE)
SMALL = SearchBudget(index_horizon=8, nu_horizon=8)


class TestSequenceCheckers:
    def test_banach_pair_all_pass(self):
        """Halving orbit against its shift at the default budget; the
        witnesses are exact because every gap is a power of two."""
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 352)
        c1, c2, c3 = check_asf1(tr)
        assert (c1.verdict, c2.verdict, c3.verdict) == (Verdict.PASS,) * 3
        # no gap exceeds 1.0, so the first eps level passes vacuously
        assert c2.witnesses[0] == {"eps": 1.0, "delta": 1.0, "in_band": 0,
                                   "vacuous": True}
        # gaps 2^-(n+1): three of them sit in (0.1, 1.1) and shift nu=3
        # scales the largest, 0.5, down to 0.0625 <= 0.1
        assert c2.witnesses[1] == {"eps": 0.1, "delta": 1.0, "nu": 3, "in_band": 3}
        # gaps above the 1e-9 slack are exactly those with n+1 <= 29
        assert c3.witnesses == [{"triggered": 29, "nu": 2}]

    def test_banach_pair_matrix_conditions(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 352)
        c4 = check_asf2(tr)
        assert c4.verdict is Verdict.PASS
        # pair gaps 2^-i - 2^-j in (0.1, 1.1): 255 + 254 + 253 + 250 pairs
        # for i = 0..3, and four halvings pull the worst one to 0.0625
        assert c4.witnesses[1] == {"eps": 0.1, "delta": 1.0, "nu": 4,
                                   "in_band": 1012}
        c5 = check_c5(tr)
        assert c5.verdict is Verdict.PASS
        assert c5.witnesses == [{"triggered": 7214, "nu": 2}]

    def test_band_defeat_reports_last_delta(self):
        # gaps 0.5 + 2^-n approach eps from above, so every allowed band
        # keeps an occupant whose follow-ups never reach eps
        xs = [0.0]
        for n in range(24):
            xs.append(xs[-1] + 0.5 + 2.0 ** -n)
        tr = IterationTrace(coords=np.array(xs)[:, None], premetric=D, status="completed")
        b = SearchBudget(eps_grid=(0.5,), delta_candidates=(1.0, 0.5),
                         index_horizon=8, nu_horizon=8)
        c1, c2, c3 = check_asf1(tr, budget=b)
        assert c2.verdict is Verdict.FAIL
        assert c2.witnesses == [{"eps": 0.5, "delta": 0.5, "index": 2,
                                 "gap": 0.75, "best_follow_up": 0.5 + 2.0 ** -10}]
        # C1 passes vacuously: no front gap sits below the last delta
        assert c1.verdict is Verdict.PASS
        assert c1.witnesses[0]["vacuous"] is True
        assert c1.witnesses[0]["tail_limsup_estimate"] == 0.5 + 2.0 ** -18
        # each gap still strictly decreases eventually
        assert c3.verdict is Verdict.PASS

    def test_c1_fails_when_small_front_gaps_precede_large_tail(self):
        pts = [0.0] * 21 + [1.0, 0.0] * 10
        tr = IterationTrace(coords=np.array(pts)[:, None], premetric=D, status="completed")
        b = SearchBudget(eps_grid=(0.5,), index_horizon=8, nu_horizon=8)
        c1 = check_asf1(tr, budget=b)[0]
        assert c1.verdict is Verdict.FAIL
        assert c1.witnesses == [{"eps": 0.5, "index": 0, "gap": 0.0,
                                 "tail_limsup_estimate": 1.0}]

    def test_settled_orbit_passes_without_triggering(self):
        zero = picard_trace(builtin_map("half", LINE), LINE.point(0.0), 20)
        b = SearchBudget(eps_grid=(0.5,), index_horizon=8, nu_horizon=8)
        c1, c2, c3 = check_asf1(zero, budget=b)
        assert c1.witnesses == [{"eps": 0.5, "delta": 1.0,
                                 "tail_limsup_estimate": 0.0}]
        assert c2.witnesses[0]["vacuous"] is True
        assert c3.witnesses[0]["triggered"] == 0

    def test_periodic_orbit_defeats_uniform_shift(self):
        # distance between opposite-parity points is forever 1
        flip = picard_trace(builtin_map("flip", LINE), LINE.point(0.0), 20)
        b = SearchBudget(eps_grid=(0.5,), delta_candidates=(1.0,),
                         index_horizon=8, nu_horizon=8)
        c4 = check_asf2(flip, budget=b)
        assert c4.verdict is Verdict.FAIL
        assert c4.witnesses == [{"eps": 0.5, "delta": 1.0, "orbit": 0,
                                 "i": 0, "j": 1, "gap": 1.0,
                                 "best_uniform_nu": 1, "value_at_best_nu": 1.0}]
        c5 = check_c5(flip, budget=b)
        assert c5.verdict is Verdict.FAIL
        assert c5.witnesses[0] == {"orbit": 0, "i": 0, "j": 1, "gap": 1.0,
                                   "best_follow_up": 1.0}

    def test_short_trace_guards(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 8)
        with pytest.raises(InputError, match="aligned gaps"):
            check_asf1(tr, budget=SMALL)
        with pytest.raises(InputError, match="at least 16 points"):
            check_asf2(tr, budget=SMALL)


class TestGaugeFamilyCheckers:
    def fam(self):
        return iterated_family(builtin_gauge("half"))

    def test_asmk1_banach_exact_domination(self):
        # F = id and a halving family: F(gap(n+i)) equals member_n(F(gap(i)))
        # exactly, so the domination holds with zero margin
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        c6, c7, c8 = check_asmk(tr, builtin_gauge("id"), self.fam(), budget=SMALL)
        assert [r.condition_id for r in (c6, c7, c8)] == ["C6", "C7", "C8"]
        assert all(r.verdict is Verdict.PASS for r in (c6, c7, c8))
        assert c8.witnesses == [{"checked_shifts": 8, "checked_indices": 8}]

    def test_asmk2_cross_gap_variant(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        reps = check_asmk(tr, builtin_gauge("id"), self.fam(), budget=SMALL, variant="asmk2")
        assert [r.condition_id for r in reps] == ["C6", "C7", "C9"]
        assert all(r.verdict is Verdict.PASS for r in reps)

    def test_constant_gaps_defeat_domination(self):
        tr = picard_trace(builtin_map("translation", LINE), LINE.point(0.0), 20)
        c8 = check_asmk(tr, builtin_gauge("id"), self.fam(), budget=SMALL)[2]
        assert c8.verdict is Verdict.FAIL
        assert c8.witnesses[0] == {"n": 1, "i": 0, "lhs": 1.0, "rhs": 0.5}

    def test_short_explicit_family_is_inconclusive(self):
        # members t/2 and t/4 dominate the halving orbit exactly, but two
        # members cover only shifts 1..2 of the eight the budget asks for
        fam = explicit_family([builtin_gauge("half"), expression_gauge("0.25 * t")],
                              zero_fixed=True)
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        for variant in ("asmk1", "asmk2"):
            dom = check_asmk(tr, builtin_gauge("id"), fam, budget=SMALL, variant=variant)[2]
            assert dom.verdict is Verdict.INCONCLUSIVE
            assert dom.witnesses == [{"checked_shifts": 2, "checked_indices": 8}]
            assert "shifts 3..8 were not checked" in dom.resolution_note

    def test_horizon_below_c6_minimum_is_inconclusive(self):
        # a budget scale of 0.05 takes nu_horizon 64 to 3; C6 reads its tail
        # from at least 4 members, so it is not run and claims nothing
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        budget = SearchBudget(index_horizon=8, nu_horizon=3)
        with mock.patch("fplab.certificates.check_family_C6",
                        side_effect=AssertionError("C6 must not run")):
            c6, c7, c8 = check_asmk(tr, builtin_gauge("id"), self.fam(), budget=budget)
        assert c6.condition_id == "C6" and c6.verdict is Verdict.INCONCLUSIVE
        assert c6.witnesses == []
        assert "nu horizon 3 is below the 4 members" in c6.resolution_note
        assert c7.verdict is Verdict.PASS and c8.verdict is Verdict.PASS

    def test_unknown_variant(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        with pytest.raises(ConfigurationError, match="asmk1 or asmk2"):
            check_asmk(tr, builtin_gauge("id"), self.fam(), budget=SMALL, variant="asmk3")

    def test_refuses_undeclared_f_profile(self):
        bare = Gauge(name="bare", fn=lambda t: t)
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        with pytest.raises(RefusalError, match="does not declare"):
            check_asmk(tr, bare, self.fam(), budget=SMALL)

    def test_short_trace_guards(self):
        # asmk1 reads the aligned gap run, asmk2 the pair matrix
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 8)
        for variant, match in (
            ("asmk1", r"need at least 16 aligned gaps for this budget "
                      r"\(index_horizon \+ nu_horizon\), got 8"),
            ("asmk2", "need a trace of at least 16 points for this budget, got 8"),
        ):
            with pytest.raises(InputError, match=match):
                check_asmk(tr, builtin_gauge("id"), self.fam(), budget=SMALL, variant=variant)

    def test_refuses_family_not_fixing_zero(self):
        # F(0) = 0 needs the family to declare members fixing zero
        fam = explicit_family([builtin_gauge("half")] * 10, zero_fixed=False)
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        with pytest.raises(RefusalError, match="fixing zero"):
            check_asmk(tr, builtin_gauge("id"), fam, budget=SMALL)


class TestPremetricErrorsInC4:
    """C4 measures its trace in blocks of rows, never as one whole matrix,
    and still checks every gap it measures to be finite, nonnegative and in
    a gauge's working range.  Each block is a rectangle, its rows from the
    column after the block's first row on, so it measures p(x_i, x_i) for
    every row after the first."""

    def test_a_gauge_out_of_range_names_the_first_offending_block(self):
        # up from 0 to 100 and down to -99.5 in steps of 0.5: the first block
        # of rows (0..25, 26 rows of 599 columns) reaches t = 12.5 + 99.5;
        # C5's whole matrix reaches 100 + 99.5, as C4's did
        xs = np.concatenate([np.arange(0.0, 100.5, 0.5), np.arange(99.5, -100.0, -0.5)])
        g = expression_gauge("t / (1 + t)", name="G", t_max=50.0)
        tr = IterationTrace(xs[:, None], composed_premetric(g, D), "completed")
        budget = SearchBudget(index_horizon=592, nu_horizon=8)
        with pytest.raises(InputError, match=r"gauge 'G' evaluated at t=112\.0 outside"):
            check_asf2(tr, budget=budget)
        with pytest.raises(InputError, match=r"gauge 'G' evaluated at t=199\.5 outside"):
            check_c5(tr, budget=budget)

    def test_a_gauge_negative_at_zero_still_raises(self):
        # every gap of the translation's trace is at least 1, where t - 0.001
        # is positive; p(x_i, x_i) = -0.001 is measured inside a block of rows
        neg = composed_premetric(expression_gauge("t - 0.001"), D)
        tr = IterationTrace(np.arange(20.0)[:, None], neg, "completed")
        for check in (check_asf2, check_c5):
            with pytest.raises(InputError, match=r"premetric composed\(t - 0\.001, metric\) "
                                                 "evaluated to a negative or non-finite value"):
                check(tr, budget=SMALL)


class TestNoPairs:
    """An index horizon of 1 holds no pair i < j.  C4, C5 and D4 used to
    pass on the translation, an isometry, with nothing examined; C5 even
    noted that every pair gap was within the slack of zero."""

    BUDGET = SearchBudget(index_horizon=1, nu_horizon=8, pair_samples=20)
    NOTE = "index horizon 1 is below the 2 indices a pair i < j needs; {} was not checked"

    def test_pair_conditions_are_inconclusive(self):
        translation = builtin_map("translation", LINE)
        tr = picard_trace(translation, LINE.point(0.0), 20)
        reports = [check_asf2(tr, budget=self.BUDGET), check_c5(tr, budget=self.BUDGET)]
        reports += [r for r in check_acf_mapping(translation, budget=self.BUDGET)
                    if r.condition_id == "D4"]
        assert [r.condition_id for r in reports] == ["C4", "C5", "D4"]
        for rep in reports:
            assert rep.verdict is Verdict.INCONCLUSIVE
            assert rep.witnesses == []
            assert rep.budget == self.BUDGET
            assert rep.resolution_note.startswith(self.NOTE.format(rep.condition_id))
        agree = acf_asf_agreement(translation, budget=self.BUDGET)
        assert agree["C4"] is agree["D4"] is Verdict.INCONCLUSIVE

    def test_the_length_guard_still_comes_first(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 4)
        for check in (check_asf2, check_c5):
            with pytest.raises(InputError, match="at least 9 points"):
                check(tr, budget=self.BUDGET)

    def test_two_indices_make_one_pair(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)
        budget = SearchBudget(index_horizon=2, nu_horizon=8)
        assert check_c5(tr, budget=budget).witnesses == [{"triggered": 1, "nu": 1}]
        assert check_asf2(tr, budget=budget).verdict is Verdict.PASS


class TestMappingCheckers:
    def budget(self):
        return SearchBudget(index_horizon=8, nu_horizon=8, pair_samples=60)

    def test_contraction_passes_all(self):
        reps = check_acf_mapping(builtin_map("half", LINE), budget=self.budget())
        assert [(r.condition_id, r.verdict) for r in reps] == [
            ("D1", Verdict.PASS), ("D2", Verdict.PASS),
            ("D3", Verdict.PASS), ("D4", Verdict.PASS),
        ]

    def test_isometry_fails_strict_decrease_only(self):
        reps = check_acf_mapping(builtin_map("translation", LINE),
                                 budget=self.budget())
        verdicts = {r.condition_id: r.verdict for r in reps}
        assert verdicts == {"D1": Verdict.PASS, "D2": Verdict.PASS,
                            "D3": Verdict.FAIL, "D4": Verdict.PASS}
        d3 = next(r for r in reps if r.condition_id == "D3")
        assert {"pair", "gap", "best_follow_up"} <= set(d3.witnesses[0])

    def test_escaping_pairs_downgrade_passes(self):
        square = expression_map(LINE, "x * x", name="square")
        reps = check_acf_mapping(square, budget=self.budget(),
                                 region=Box(lows=(-2.0,), highs=(2.0,)), seed=0)
        assert all(r.verdict is Verdict.INCONCLUSIVE for r in reps)
        assert all("escaped the working bound" in r.resolution_note for r in reps)

    def test_every_pair_escaping_is_an_error(self):
        square = expression_map(LINE, "x * x", name="square")
        with pytest.raises(InputError, match="every sampled pair escaped"):
            check_acf_mapping(square, budget=self.budget(),
                              region=Box(lows=(5.0,), highs=(10.0,)), seed=0)

    def test_orbit_and_mapping_levels_agree(self):
        for name in ("half", "translation"):
            out = acf_asf_agreement(builtin_map(name, LINE), budget=self.budget())
            for k in ("1", "2", "3", "4"):
                assert out[f"D{k}"] == out[f"C{k}"], (name, k)

    def test_a_failing_ladder_names_its_worst_pair(self):
        # the tent map spreads a 1e-8 wide region over [0, 1]: every start
        # gap is below the last delta, yet the tails stay large
        tent = expression_map(LINE, "1 - abs(1 - 2 * x)")
        budget = SearchBudget(index_horizon=32, nu_horizon=16, pair_samples=20)
        d1 = check_acf_mapping(tent, budget=budget, region=Box((0.3,), (0.3 + 1e-8,)),
                               seed=0)[0]
        assert d1.verdict is Verdict.FAIL
        *ladder, worst = d1.witnesses
        assert (worst["pair"], round(worst["tail"], 3)) == (15, 0.974)
        assert worst["start_gap"] < budget.delta_candidates[-1]
        assert ladder[-1]["sup_tail"] == worst["tail"]
        assert ladder[-1]["bucket"] == 20

    def test_a_region_of_another_dimension_is_refused(self):
        half = builtin_map("half", LINE)
        square = Box((0.0, 0.0), (1.0, 1.0))
        for check in (check_acf_mapping, acf_asf_agreement, check_banach_rate):
            with pytest.raises(InputError, match="region is 2-dimensional, space 'line' is "
                                                 "1-dimensional"):
                check(half, budget=self.budget(), region=square)

    def test_linear_rate_is_exact(self):
        rep = check_banach_rate(builtin_map("half", LINE))
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses[0]["ratio"] == 0.5

    def test_rate_catches_factor_creeping_to_one(self):
        # d(Tx,Ty)/d(x,y) = 1/(1 + x + y + xy) on [0, 10]: the short-separation
        # ladder at the origin drives the ratio to 1 even though every sampled
        # far-apart pair contracts comfortably
        rep = check_banach_rate(builtin_map("mk", LINE),
                                region=Box(lows=(0.0,), highs=(10.0,)))
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses[0]["ratio"] > 1.0 - 1e-3


class TestTwoMapCheckers:
    T = builtin_map("quarter", LINE)
    S = builtin_map("fifth", LINE)

    def test_comparison_gap_hand_values(self):
        # x=4, y=10: max of 6, |1-4|=3, |2-10|=8, (|1-10|+|2-4|)/2 = 5.5
        def m_value(x, y):
            x, y = np.array([x]), np.array([y])
            return float(_m_values(D, x, y, self.T.fn(x), self.S.fn(y)))

        assert m_value(4.0, 10.0) == 8.0
        # x=y=1: max of 0, 0.75, 0.8, (0.75+0.8)/2
        assert m_value(1.0, 1.0) == 0.8

    def test_dominated_pair_passes(self):
        psi = expression_gauge("7.0 * t / 12.0", name="seven-twelfths",
                               profile=PSI_PROFILE_STANDARD)
        xs, ys = np.array([[1.0], [1.0], [4.0]]), np.array([[1.0], [-1.0], [10.0]])
        rep = check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                      psi, xs, ys)
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses[0]["pairs"] == 3
        # worst pair is x=y=1: |1/4 - 1/5| - (7/12) * 0.8
        assert rep.witnesses[0]["worst_margin"] == pytest.approx(
            0.05 - 7.0 / 15.0, abs=1e-12
        )

    def test_underpowered_gauge_fails_with_pair_witness(self):
        tiny = expression_gauge("t / 100.0", name="centi",
                                profile=PSI_PROFILE_STANDARD)
        xs, ys = np.array([[1.0]]), np.array([[1.0]])
        rep = check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                      tiny, xs, ys)
        assert rep.verdict is Verdict.FAIL
        w = rep.witnesses[0]
        assert w["x"] == [1.0] and w["y"] == [1.0]
        assert w["lhs"] == pytest.approx(0.05, abs=1e-15)
        assert w["rhs"] == 0.008

    def test_profile_variants(self):
        zh = expression_gauge("7.0 * t / 12.0", name="zh",
                              profile=PSI_PROFILE_ZHANG)
        xs, ys = np.array([[1.0]]), np.array([[-1.0]])
        with pytest.raises(RefusalError, match="does not declare"):
            check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                    zh, xs, ys)
        rep = check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                      zh, xs, ys, psi_variant="zhang")
        assert rep.verdict is Verdict.PASS
        with pytest.raises(ConfigurationError, match="unknown psi variant"):
            check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                    zh, xs, ys, psi_variant="loose")

    def test_maps_off_the_premetric_space(self):
        psi = expression_gauge("t / 2.0", profile=PSI_PROFILE_STANDARD)
        on_plane = builtin_map("half", Space(id="plane", dimension=2))
        with pytest.raises(InputError, match="maps must live on the premetric's space 'line'"):
            check_f_psi_contraction(on_plane, self.S, D, builtin_gauge("id"), psi,
                                    np.zeros((1, 1)), np.zeros((1, 1)))

    def test_a_non_finite_image_is_refused(self):
        psi = expression_gauge("t / 2.0", profile=PSI_PROFILE_STANDARD)
        recip = expression_map(LINE, "1 / x", name="recip")
        with pytest.raises(InputError, match="map 'recip' sends a sampled point to a "
                                             "non-finite or misshapen image"):
            check_f_psi_contraction(recip, self.S, D, builtin_gauge("id"), psi,
                                    np.zeros((2, 1)), np.ones((2, 1)))

    def test_empty_sample(self):
        psi = expression_gauge("t / 2.0", profile=PSI_PROFILE_STANDARD)
        with pytest.raises(InputError, match="at least one sampled pair"):
            check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"),
                                    psi, np.empty((0, 1)), np.empty((0, 1)))

    @pytest.mark.parametrize("xs, ys, match", [
        (np.zeros((2, 2)), np.zeros((2, 2)), r"two \(n, 1\) arrays"),
        (np.zeros(2), np.zeros(2), r"two \(n, 1\) arrays"),
        (np.zeros((2, 1)), np.zeros((3, 1)), r"two \(n, 1\) arrays"),
        (np.array([[0.0], [np.nan]]), np.zeros((2, 1)), "must be finite"),
        (np.zeros((2, 1)), np.array([[np.inf], [0.0]]), "must be finite"),
    ])
    def test_malformed_sample_is_refused(self, xs, ys, match):
        psi = expression_gauge("t / 2.0", profile=PSI_PROFILE_STANDARD)
        with pytest.raises(InputError, match=match):
            check_f_psi_contraction(self.T, self.S, D, builtin_gauge("id"), psi, xs, ys)


class TestCyclicChecker:
    def setting(self):
        return CyclicSetting.derive(
            LINE,
            IntervalSet(space=LINE, lo=1.0, hi=math.inf),
            IntervalSet(space=LINE, lo=-math.inf, hi=-1.0),
        )

    def test_reflecting_map_cycles(self):
        rep = check_cyclic(builtin_map("cyclic_reflect", LINE), self.setting())
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses == [{"samples": 128}]

    def test_non_cycling_map_defeated(self):
        rep = check_cyclic(builtin_map("half", LINE), self.setting())
        assert rep.verdict is Verdict.FAIL
        assert len(rep.witnesses) == 8
        assert rep.witnesses[0]["direction"] == "first->second"

    def test_sample_count_guard(self):
        # a count is an int of at least 1, and a bool is no count
        for count in (0, 2.5, "3", True):
            with pytest.raises(InputError, match="sample_count"):
                check_cyclic(builtin_map("half", LINE), self.setting(),
                             sample_count=count)


class TestPremetricControl:
    def test_settling_pair_activates_and_passes(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 60)
        rep = check_p_controls_d([tr])
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses == [{"activated": 1}]

    def test_clamped_gap_that_hides_distance_is_defeated(self):
        # an orbit hopping between the two sets: the clamped shift reports
        # zero while the underlying distance stays at 2
        setting = CyclicSetting.derive(
            LINE,
            IntervalSet(space=LINE, lo=1.0, hi=math.inf),
            IntervalSet(space=LINE, lo=-math.inf, hi=-1.0),
        )
        tr = IterationTrace(coords=[[1.0], [-1.0]] * 4, premetric=shifted_premetric(setting),
                            status="completed")
        rep = check_p_controls_d([tr])
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses == [{"pair": 0, "tail_p": 0.0, "tail_d": 2.0}]
        assert rep.resolution_note.startswith("1 supplied pairs, 1 with tail p-gap below")

    def test_empty_input(self):
        with pytest.raises(InputError, match="at least one trace"):
            check_p_controls_d([])

    def test_a_trace_without_a_gap(self):
        tr = IterationTrace(coords=[[1.0]], premetric=D, status="completed")
        with pytest.raises(InputError, match="trace 0 has 1 point"):
            check_p_controls_d([tr])


class TestConsecutiveContraction:
    def test_halving_orbit_dominated(self):
        psi = expression_gauge("0.6 * t", name="point-six")
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 10)
        rep = consecutive_contraction_report(tr, builtin_gauge("id"), psi)
        assert rep.verdict is Verdict.PASS
        # margins are -0.1 * gap, largest at the smallest compared gap 2^-9
        assert rep.witnesses[0]["steps"] == 9
        assert rep.witnesses[0]["worst_margin"] == pytest.approx(
            -0.1 * 2.0 ** -9, rel=1e-12
        )

    def test_constant_gaps_defeated_stepwise(self):
        psi = expression_gauge("0.6 * t", name="point-six")
        tr = picard_trace(builtin_map("translation", LINE), LINE.point(0.0), 10)
        rep = consecutive_contraction_report(tr, builtin_gauge("id"), psi)
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses[0] == {"n": 1, "lhs": 1.0, "rhs": 0.6}

    def test_needs_two_gaps(self):
        psi = expression_gauge("0.6 * t", name="point-six")
        tr = IterationTrace(coords=[[0.0], [1.0]], premetric=D, status="completed")
        with pytest.raises(InputError, match="two consecutive gaps"):
            consecutive_contraction_report(tr, builtin_gauge("id"), psi)


class TestSearchBudget:
    @pytest.mark.parametrize("field", ["eps_grid", "delta_candidates", "slack"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                     pytest.param(10 ** 400, id="int-beyond-float")])
    def test_non_finite_values_are_refused(self, field, bad):
        # NaN passed the positivity checks and made every band vacuous,
        # so the band checkers reported pass and reports.json held NaN
        value = bad if field == "slack" else (bad,)
        with pytest.raises(InputError, match=f"{field} must be finite"):
            SearchBudget(**{field: value})

    @pytest.mark.parametrize("field", ["nu_horizon", "index_horizon", "pair_samples"])
    @pytest.mark.parametrize("bad", [2.5, 8.0, True, "8", None])
    def test_integer_fields_must_be_int(self, field, bad):
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            SearchBudget(**{field: bad})

    @pytest.mark.parametrize("field", ["eps_grid", "delta_candidates"])
    @pytest.mark.parametrize("bad", [("x",), (True,), (0.5, None), "0.5", 0.5, None])
    def test_level_grids_must_be_real_sequences(self, field, bad):
        with pytest.raises(InputError, match=f"{field} must be a list of real numbers"):
            SearchBudget(**{field: bad})

    @pytest.mark.parametrize("bad", [True, "1e-9", None, (1e-9,)])
    def test_slack_must_be_real(self, bad):
        with pytest.raises(InputError, match="slack must be a real number"):
            SearchBudget(slack=bad)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, True, "2", None,
                                        pytest.param(10 ** 400, id="int-beyond-float"),
                                        0, -0.5])
    def test_scale_factor_must_be_positive_and_finite(self, factor):
        # NaN was a raw ValueError and inf a raw OverflowError from round
        with pytest.raises(InputError, match="budget scale factor must be positive and finite"):
            SearchBudget().scaled(factor)

    @pytest.mark.parametrize("kwargs, message", [
        ({"eps_grid": ()}, "eps_grid must be non-empty and positive"),
        ({"eps_grid": (0.5, 0.0)}, "eps_grid must be non-empty and positive"),
        ({"eps_grid": (-0.1,)}, "eps_grid must be non-empty and positive"),
        ({"delta_candidates": ()}, "delta_candidates must be non-empty and positive"),
        ({"delta_candidates": (0.5, -0.25)}, "delta_candidates must be non-empty and positive"),
        ({"delta_candidates": (0.5, 0.5)}, "delta_candidates must be strictly decreasing"),
        ({"delta_candidates": (0.25, 0.5)}, "delta_candidates must be strictly decreasing"),
        ({"nu_horizon": 0}, "horizons and sample counts must be positive"),
        ({"slack": 0.0}, "slack must be positive"),
        ({"slack": -1e-9}, "slack must be positive"),
    ])
    def test_levels_and_slack_must_be_positive(self, kwargs, message):
        with pytest.raises(InputError, match=message):
            SearchBudget(**kwargs)

    def test_integers_and_numpy_reals_are_accepted(self):
        b = SearchBudget(eps_grid=[np.float64(0.5), 1], delta_candidates=(1, 0.5),
                         nu_horizon=4, slack=1)
        assert b.eps_grid == (0.5, 1.0) and b.delta_candidates == (1.0, 0.5)
        assert type(b.eps_grid[1]) is float


class TestCertificateReport:
    def test_a_fail_needs_a_witness(self):
        with pytest.raises(InputError, match="C1: fail verdict requires at least one witness"):
            CertificateReport("C1", Verdict.FAIL, [])

    def test_pass_and_inconclusive_may_carry_none(self):
        for verdict in (Verdict.PASS, Verdict.INCONCLUSIVE):
            assert CertificateReport("C1", verdict).witnesses == []


class TestPremetricSpace:
    """A checker measures with its trace's own premetric, on the trace paired
    with its own forward shift: a premetric or a second trace passed beside
    the trace is a TypeError at the call."""

    SPACE_B = Space(id="b", dimension=1)

    def trace(self):
        return picard_trace(builtin_map("half", LINE), LINE.point(1.0), 20)

    def test_check_asf2_and_c5(self):
        for check in (check_asf2, check_c5):
            with pytest.raises(TypeError):
                check(self.trace(), metric_premetric(self.SPACE_B))

    def test_check_asf1(self):
        for extra in (D, self.trace()):
            with pytest.raises(TypeError):
                check_asf1(self.trace(), extra)

    def test_check_asmk_both_variants(self):
        for variant in ASMK_VARIANTS:
            with pytest.raises(TypeError):
                check_asmk(self.trace(), self.trace(), builtin_gauge("id"),
                           iterated_family(builtin_gauge("half")), budget=SMALL,
                           variant=variant)

    def test_check_p_controls_d(self):
        with pytest.raises(TypeError):
            check_p_controls_d(D, LINE, [self.trace()])
