"""Gauges, regularity profiles and family tail conditions."""

import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fplab.errors import ConfigurationError, InputError, RefusalError
from fplab.gauges import (
    _BUILTINS,
    Gauge,
    GaugeFamily,
    _c7_reports,
    _members,
    builtin_gauge,
    check_family_C6,
    check_family_C7_multi,
    explicit_family,
    expression_gauge,
    iterated_family,
    regularity_grid,
    require_profile,
    verify_gauge_regularity,
)
from fplab.reports import Verdict

from reference import gauge_call_reference


class TestGaugeBasics:
    def test_builtin_values(self):
        assert builtin_gauge("half")(3.0) == 1.5
        assert builtin_gauge("mk")(1.0) == 0.5
        assert builtin_gauge("id")(7.0) == 7.0
        step = builtin_gauge("step01")
        assert step(0.5) == 0.0
        assert step(1.0) == 1.0

    def test_unknown_builtin(self):
        with pytest.raises(ConfigurationError, match="unknown builtin"):
            builtin_gauge("exp")

    def test_expression_gauge(self):
        g = expression_gauge("7.0 * t / 12.0")
        assert g(12.0) == 7.0
        assert g.name == "7.0 * t / 12.0"
        named = expression_gauge("t / 2.0", name="halve")
        assert named.name == "halve"

    def test_working_range_guard(self):
        g = builtin_gauge("half", t_max=10.0)
        with pytest.raises(InputError, match="outside its working range"):
            g(-1.0)
        with pytest.raises(InputError, match="outside its working range"):
            g(10.5)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError, match="unknown gauge profile"):
            Gauge(name="bad", fn=lambda t: t, profile=frozenset({"smooth"}))
        with pytest.raises(ConfigurationError, match="t_max must be positive"):
            Gauge(name="bad", fn=lambda t: t, t_max=0.0)
        for t_max in ("1", True, math.nan, math.inf, 10 ** 400):
            with pytest.raises(ConfigurationError, match="t_max must be positive and finite"):
                Gauge(name="bad", fn=lambda t: t, t_max=t_max)

    def test_apply_array_matches_scalar(self):
        g = builtin_gauge("mk")
        ts = np.array([0.0, 0.5, 1.0, 2.0, 100.0])
        out = g.apply_array(ts)
        assert out.shape == ts.shape
        for t, v in zip(ts, out):
            assert v == g(float(t))

    def test_apply_array_constant_expression(self):
        # the expression ignores t and evaluates to a scalar
        g = expression_gauge("0.5")
        ts = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = g.apply_array(ts)
        assert out.shape == ts.shape
        assert (out == 0.5).all()

    def test_apply_array_range_guard(self):
        g = builtin_gauge("half", t_max=1.0)
        with pytest.raises(InputError):
            g.apply_array(np.array([0.5, 2.0]))

    def test_nan_is_outside_the_working_range(self):
        # NaN compares false with both ends of [0, t_max], so a check written
        # as t < 0 or t > t_max lets it through
        g = builtin_gauge("half")
        with pytest.raises(InputError, match="outside its working range"):
            g(math.nan)
        with pytest.raises(InputError, match="outside its working range"):
            g.apply_array(np.array([1.0, math.nan]))
        with pytest.raises(InputError, match="outside its working range"):
            expression_gauge("t / 2.0").apply_array(np.array([math.nan, 0.5]))
        assert g.apply_array(np.array([0.0, 1e3])).tolist() == [0.0, 500.0]


# ---------------------------------------------------------------------------
# Scalar and array evaluation agree bit for bit.  The regularity probes and
# the family checks evaluate whole blocks with apply_array, and their reports
# are pinned to the scalar walks they replaced, so one ulp would count.

T_MAX = 1e3
T_VALUES = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, T_MAX)),
                     st.floats(min_value=0.0, max_value=T_MAX))
_LEAVES = st.one_of(st.just("t"), st.integers(-4, 4).map(str),
                    st.floats(min_value=-4.0, max_value=4.0).map(repr))


def _grow(children):
    return st.one_of(
        st.builds("({} {} {})".format, children, st.sampled_from("+-*/"), children),
        children.map("abs({})".format),
        st.builds(lambda fn, args: f"{fn}({', '.join(args)})", st.sampled_from(("min", "max")),
                  st.lists(children, min_size=1, max_size=3)),
    )


# random grammar expressions in t: + - * /, abs, min, max, int and float constants
GAUGE_SOURCES = st.recursive(_LEAVES, _grow, max_leaves=8)


def _assert_same_bits(scalars, array):
    assert array.shape == (len(scalars),)
    for a, b in zip(scalars, array.tolist()):
        # NaN from a division by zero is NaN on both paths
        assert (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


class TestScalarArrayAgreement:
    @given(name=st.sampled_from(sorted(_BUILTINS)), ts=st.lists(T_VALUES, min_size=1, max_size=8))
    def test_builtins(self, name, ts):
        g = builtin_gauge(name, t_max=T_MAX)
        for t in ts:
            _assert_same_bits([g(t)], g.apply_array([t]))
        _assert_same_bits([g(t) for t in ts], g.apply_array(ts))
        _assert_same_bits([gauge_call_reference(g, t) for t in ts], np.array([g(t) for t in ts]))

    @given(source=GAUGE_SOURCES, ts=st.lists(T_VALUES, min_size=1, max_size=8))
    def test_grammar_expressions(self, source, ts):
        g = expression_gauge(source, t_max=T_MAX)
        for t in ts:
            _assert_same_bits([g(t)], g.apply_array([t]))
        _assert_same_bits([g(t) for t in ts], g.apply_array(ts))
        _assert_same_bits([gauge_call_reference(g, t) for t in ts], np.array([g(t) for t in ts]))

    @pytest.mark.parametrize("source, t", [("t / (t - 1)", 1.0), ("1 / t", 0.0),
                                           ("t / (t * 0)", 2.0), ("(1 - 1) / 0", 0.5),
                                           ("max(t, 1 / (t - 3))", 3.0)])
    def test_division_by_zero_is_nan_on_both_paths(self, source, t):
        g = expression_gauge(source, t_max=T_MAX)
        assert math.isnan(g(t))
        assert math.isnan(g.apply_array([t])[0])
        _assert_same_bits([g(t)], g.apply_array([t]))


class TestArrayContract:
    """Gauge.fn maps arrays to arrays; a scalar-only fn is an InputError
    that names the gauge, not a raw TypeError from inside numpy."""

    def test_scalar_only_gauge_is_an_input_error(self):
        g = Gauge(name="sq", fn=lambda t: math.sqrt(t) / 2)
        assert g(1.0) == 0.5
        for check in (check_family_C6, check_family_C7_multi):
            with pytest.raises(InputError, match="gauge 'sq' .* must map a float array"):
                check(iterated_family(g), (0.5, 1.0))

    def test_branching_gauge_is_an_input_error(self):
        g = Gauge(name="kink", fn=lambda t: t / 2 if t < 1 else t)
        assert (g(0.5), g(2.0)) == (0.25, 2.0)
        with pytest.raises(InputError, match="gauge 'kink' .* must map a float array"):
            g.apply_array(np.array([0.5, 2.0]))


class TestRegularity:
    """verify_gauge_regularity emits one REG-<entry> report per claim."""

    def test_builtin_profiles_pass(self):
        for name in ("half", "mk", "id", "step01"):
            g = builtin_gauge(name)
            reports = verify_gauge_regularity(g)
            assert [r.condition_id for r in reports] == sorted(
                f"REG-{e}" for e in g.profile
            )
            assert all(r.verdict is Verdict.PASS for r in reports), name

    def test_jump_defeats_continuity_claim(self):
        # step01 jumps at t=1; claiming full continuity must be caught there
        g = builtin_gauge("step01", profile=frozenset({"continuous"}))
        (rep,) = verify_gauge_regularity(g)
        assert rep.condition_id == "REG-continuous"
        assert rep.verdict is Verdict.FAIL
        assert any(w["t"] == 1.0 and w["side"] == "left" for w in rep.witnesses)

    def test_step_is_not_positive_on_positive(self):
        g = builtin_gauge("step01", profile=frozenset({"positive_on_positive"}))
        (rep,) = verify_gauge_regularity(g)
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses[0]["value"] == 0.0

    def test_identity_is_not_strictly_below_identity(self):
        g = Gauge(name="id-claims-below", fn=lambda t: t,
                  profile=frozenset({"strictly_below_identity"}))
        (rep,) = verify_gauge_regularity(g)
        assert rep.verdict is Verdict.FAIL
        w = rep.witnesses[0]
        assert w["value"] == w["t"] and w["margin"] == 0.0

    def test_tiny_positive_margin_still_strictly_below(self):
        # mk has margin t^2/(1+t), far below any slack near 0, yet the strict
        # claim holds everywhere and must not be refuted
        g = builtin_gauge("mk", profile=frozenset({"strictly_below_identity"}))
        (rep,) = verify_gauge_regularity(g)
        assert rep.verdict is Verdict.PASS

    def test_decreasing_gauge_fails_nondecreasing(self):
        g = Gauge(name="decay", fn=lambda t: 1.0 / (1.0 + t),
                  profile=frozenset({"nondecreasing", "zero_at_zero"}))
        reports = {r.condition_id: r for r in verify_gauge_regularity(g)}
        rep = reports["REG-nondecreasing"]
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses[0]["drop"] > 0
        assert reports["REG-zero_at_zero"].verdict is Verdict.FAIL
        assert reports["REG-zero_at_zero"].witnesses[0]["value"] == 1.0

    def test_invalid_values_fail_every_claim(self):
        g = Gauge(name="dips-negative", fn=lambda t: t - 0.5,
                  profile=frozenset({"nondecreasing", "continuous"}))
        reports = verify_gauge_regularity(g)
        assert len(reports) == 2
        for rep in reports:
            assert rep.verdict is Verdict.FAIL
            assert "invalid values" in rep.resolution_note

    def test_grid_guards(self):
        # the grid is always regularity_grid(t_max): strictly increasing
        # inside [0, t_max] with at least 3 points, down to a t_max of
        # 1e-320, and up to the largest float; below 1e-320 too few points
        # are left, an input error
        for t_max in (1e-320, 1e-12, 2.5, 1e3, 1e300, sys.float_info.max):
            grid = regularity_grid(t_max)
            assert len(grid) >= 3
            assert all(b > a for a, b in zip(grid, grid[1:]))
            assert grid[0] == 0.0 and grid[-1] <= t_max
        assert regularity_grid(5e-324) == (0.0, 5e-324)
        with pytest.raises(InputError, match="leaves 2 verification grid points"):
            verify_gauge_regularity(builtin_gauge("half", t_max=5e-324))
        reports = verify_gauge_regularity(builtin_gauge("half", t_max=sys.float_info.max))
        assert [rep.verdict for rep in reports] == [Verdict.PASS] * len(reports)

    def test_default_grid_shape(self):
        grid = regularity_grid()
        assert grid[0] == 0.0
        assert 1.0 in grid
        assert grid[-1] == 1e3
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestRequireProfile:
    def test_satisfied_requirement_is_silent(self):
        require_profile(builtin_gauge("mk"),
                        frozenset({"nondecreasing", "strictly_below_identity"}))

    def test_undeclared_entry_refuses(self):
        with pytest.raises(RefusalError, match="does not declare"):
            require_profile(builtin_gauge("id"), frozenset({"strictly_below_identity"}))

    def test_declared_but_failing_entry_refuses(self):
        g = Gauge(name="liar", fn=lambda t: t,
                  profile=frozenset({"strictly_below_identity"}))
        with pytest.raises(RefusalError, match="fails required regularity"):
            require_profile(g, frozenset({"strictly_below_identity"}))


class TestFamilies:
    def test_iterated_half_values(self):
        fam = iterated_family(builtin_gauge("half"))
        assert [float(v) for v in _members(fam, 1.0, 3)] == [0.5, 0.25, 0.125]

    def test_iterated_mk_closed_form(self):
        # iterating t/(1+t) gives t/(1+n t)
        fam = iterated_family(builtin_gauge("mk"))
        ts = (0.25, 1.0, 3.0)
        for n, values in enumerate(_members(fam, ts, 10), start=1):
            for t, v in zip(ts, values.tolist()):
                assert v == pytest.approx(t / (1.0 + n * t), rel=1e-12)

    def test_member_index_guards(self):
        # members are 1-indexed: horizon 0 yields none, and an explicit
        # family stops at its last member
        fam = iterated_family(builtin_gauge("half"))
        assert list(_members(fam, 1.0, 0)) == []
        two = explicit_family([builtin_gauge("half"), builtin_gauge("mk")],
                              zero_fixed=True)
        assert [float(v) for v in _members(two, 1.0, 3)] == [0.5, 0.5]

    def test_family_validation(self):
        with pytest.raises(ConfigurationError, match="needs a base gauge"):
            GaugeFamily(kind="iterated", zero_fixed=True)
        with pytest.raises(ConfigurationError, match="at least one member"):
            GaugeFamily(kind="explicit", zero_fixed=True)
        with pytest.raises(ConfigurationError, match="unknown family kind"):
            GaugeFamily(kind="mixed", zero_fixed=True,
                        base=builtin_gauge("half"))

    def test_zero_fixed_inference(self):
        assert iterated_family(builtin_gauge("half")).zero_fixed
        shift_up = Gauge(name="shift-up", fn=lambda t: t + 1.0)
        assert not iterated_family(shift_up).zero_fixed

    def test_describe(self):
        assert iterated_family(builtin_gauge("half")).describe() == "iterated(half)"
        fam = explicit_family([builtin_gauge("half")] * 3, zero_fixed=True)
        assert fam.describe() == "explicit[3]"


class TestFamilyC6:
    def test_halving_family_passes(self):
        fam = iterated_family(builtin_gauge("half"))
        rep = check_family_C6(fam, (1.0, 0.5, 0.125))
        assert rep.verdict is Verdict.PASS
        for w in rep.witnesses:
            assert w["tail"] == "stabilized"
            assert w["limsup_estimate"] < 1e-12

    def test_constant_family_fails(self):
        one = Gauge(name="one", fn=lambda t: 1.0)
        fam = explicit_family([one] * 8, zero_fixed=False)
        rep = check_family_C6(fam, (1.0,))
        assert rep.verdict is Verdict.FAIL
        assert rep.witnesses == [
            {"eps": 1.0, "limsup_estimate": 1.0, "tail": "stabilized"}
        ]

    def test_oscillating_tail_is_inconclusive(self):
        lo = Gauge(name="lo", fn=lambda t: 0.3)
        hi = Gauge(name="hi", fn=lambda t: 0.6)
        fam = explicit_family([lo, hi] * 4, zero_fixed=False)
        rep = check_family_C6(fam, (1.0,))
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.witnesses[0]["tail"] == "unstable"

    def test_horizon_guard(self):
        fam = iterated_family(builtin_gauge("half"))
        with pytest.raises(InputError, match="at least 4"):
            check_family_C6(fam, (1.0,), n_horizon=3)
        # a float horizon was a raw TypeError from range
        with pytest.raises(InputError, match="an integer of at least 4, got 4.0"):
            check_family_C6(fam, (1.0,), n_horizon=4.0)

    def test_short_explicit_family_claims_no_pass(self):
        # one member never reaches horizon 64, so its stabilized tail is no pass
        fam = explicit_family([builtin_gauge("half")], zero_fixed=True)
        rep = check_family_C6(fam, (0.5,))
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.witnesses == [
            {"eps": 0.5, "limsup_estimate": 0.25, "tail": "stabilized"}
        ]
        assert "only 1 members" in rep.resolution_note
        full = explicit_family([builtin_gauge("half")] * 4, zero_fixed=True)
        assert check_family_C6(full, (0.5,), n_horizon=4).verdict is Verdict.PASS


class TestFamilyC7:
    def test_halving_family_band_pull(self):
        # t=2 needs two halvings to get strictly below 1, t=1 needs one
        fam = iterated_family(builtin_gauge("half"))
        rep = check_family_C7_multi(fam, (1.0,))
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses == [{"eps": 1.0, "delta": 1.0, "max_nu": 2}]

    def test_mk_family_band_pull(self):
        fam = iterated_family(builtin_gauge("mk"))
        rep = check_family_C7_multi(fam, (1.0,))
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses[0]["max_nu"] == 1

    def test_mk_family_small_eps_index(self):
        fam = iterated_family(builtin_gauge("mk"))
        rep = check_family_C7_multi(fam, (0.125,))
        assert rep.verdict is Verdict.PASS
        assert rep.witnesses[0] == {"eps": 0.125, "delta": 1.0, "max_nu": 8}
        # closed form at the band endpoint: member 7 is still at or above
        # 1/8 there, member 8 is below it
        *_, seventh, eighth = _members(fam, 1.125, 8)
        assert seventh >= 0.125
        assert eighth < 0.125

    def test_identity_family_is_inconclusive_not_fail(self):
        """A finite delta search cannot refute the existential, so exhausting
        every candidate reports inconclusive with the defeating points."""
        fam = iterated_family(builtin_gauge("id"))
        (rep,) = _c7_reports(fam, (1.0,), None, 64, 1e-9)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert len(rep.witnesses) == 8
        assert rep.witnesses[0] == {"eps": 1.0, "delta": 1.0, "defeating_t": 1.0}
        assert "cannot refute" in rep.resolution_note

    def test_eps_guard(self):
        fam = iterated_family(builtin_gauge("half"))
        with pytest.raises(InputError, match="eps > 0"):
            check_family_C7_multi(fam, (0.0,))

    def test_multi_merges_worst_verdict(self):
        mk = iterated_family(builtin_gauge("mk"))
        rep = check_family_C7_multi(mk, (1.0, 0.5))
        assert rep.verdict is Verdict.PASS
        assert [w["max_nu"] for w in rep.witnesses] == [1, 2]
        ident = iterated_family(builtin_gauge("id"))
        assert check_family_C7_multi(ident, (1.0,)).verdict is Verdict.INCONCLUSIVE


class TestProbeArguments:
    """The family checks' member horizons are counts: an int, never a bool.
    nu_horizon=0 was an inconclusive that had probed no member, True passed
    as 1, and a float horizon was a raw TypeError from range."""

    BAD = (-1, 0, True, False, 2.0)

    @pytest.mark.parametrize("n_horizon", BAD)
    def test_n_horizon(self, n_horizon):
        fam = iterated_family(builtin_gauge("half"))
        with pytest.raises(InputError, match=f"at least 4, got {n_horizon!r}"):
            check_family_C6(fam, (1.0,), n_horizon=n_horizon)

    @pytest.mark.parametrize("nu_horizon", BAD)
    def test_nu_horizon(self, nu_horizon):
        fam = iterated_family(builtin_gauge("half"))
        message = f"nu_horizon must be a positive integer, got {nu_horizon!r}"
        with pytest.raises(InputError, match=message):
            check_family_C7_multi(fam, (1.0, 0.5), nu_horizon=nu_horizon)

    def test_one_is_enough(self):
        # one member pulls [1, 1.5] below 1; C6 reads its least horizon
        fam = iterated_family(builtin_gauge("half"))
        assert check_family_C7_multi(fam, (1.0,), nu_horizon=1).witnesses == [
            {"eps": 1.0, "delta": 0.5, "max_nu": 1}]
        assert check_family_C6(fam, (1.0,), n_horizon=4).witnesses == [
            {"eps": 1.0, "limsup_estimate": 0.0625, "tail": "stabilized"}]
