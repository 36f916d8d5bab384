"""The array kernels against plain per-point references.

fplab evaluates maps, distances and premetrics on coordinate arrays with the
coordinates on the last axis.  Each kernel here is compared with its
reference in reference.py: the per-point loop it replaced, written with
Python floats, or, for a kernel made cheaper again (distances, the C5 sweep,
orbit blocks, the C8/C9 and E1/E2 family walks), the version it replaced.
Every property asks for exact equality: the reports are pinned byte for
byte, so one ulp counts.
"""

import contextlib
import importlib.util
import inspect
import json
import math
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fplab
import fplab.runner as runner_mod
import fplab.spaces as spaces_mod
from fplab import _floatrepr
from fplab._floatrepr import BLOCK_VALUES
from fplab.certificates import ASMK_VARIANTS, _check_d1, _m_values, _strict_pairs, \
    check_asmk, check_banach_rate, check_cyclic, check_f_psi_contraction, \
    consecutive_contraction_report
from fplab.errors import ConfigurationError, InputError
from fplab.gauges import _BUILTINS as GAUGE_BUILTINS, PROFILE_NAMES, Gauge, GaugeFamily, \
    _c7_reports, _members, builtin_gauge, check_family_C6, check_family_C7_multi, \
    explicit_family, expression_gauge, iterated_family, verify_gauge_regularity
from fplab.maps import _BUILTINS as MAP_BUILTINS, NamedMap, builtin_map, expression_map
from fplab.reports import CertificateReport, SearchBudget, Verdict, sanitize, witness
from fplab.spaces import (
    Box,
    CyclicSetting,
    DiskSet,
    IntervalSet,
    Premetric,
    Space,
    composed_premetric,
    default_region,
    eval_premetric,
    metric_premetric,
    premetric_diagonal,
    premetric_matrix,
    shifted_premetric,
    verify_premetric_axioms,
)
from fplab.gallery import GALLERY
from fplab.solvers import _FIRST_BLOCK as SOLVER_FIRST_BLOCK, CauchyCertificate, \
    NonCauchyWitness, SolveResult, WitnessScan, extract_noncauchy_witness, \
    solve_best_proximity, solve_common_fixed_point, solve_fixed_point
from fplab.traces import ESCAPE_NORM, AlternatingSchedule, IterationTrace, _bit_period_start, \
    _extend_orbit, _orbit, _tail_rows, alternating_trace, cyclic_even_trace, picard_trace, \
    sequence_trace

import reference
from reference import SCALAR_MAPS, axioms_reference, banach_rate_reference, \
    budget_json_reference, c6_reference, c7_multi_reference, c7_reference, \
    certificate_json_reference, check_asmk_reference, cyclic_reference, \
    d1_reference, distances_reference, euclidean_reference, eval_premetric_reference, \
    extend_orbit_reference, fpsi_reference, iterate_gauge_reference, noncauchy_json_reference, \
    noncauchy_witness_reference, orbit_block_reference, \
    orbit_block_step_reference, pair_distance_curves_reference, premetric_reference, \
    regularity_reference, report_json_reference, scalar_step, scan_json_reference, \
    solve_best_proximity_reference, solve_common_fixed_point_reference, \
    solve_fixed_point_reference, solve_json_reference, strict_pairs_reference, \
    tail_rows_reference, to_csv_reference

EXPRESSIONS = ("min(1/x, 5)", "x * x", "0.5 * x + 1.0")


# ---------------------------------------------------------------------------
# Strategies

# coordinates with the values that matter drawn often: zero, the pole of
# mk, and points a few steps short of the escape bound
special = st.sampled_from([0.0, -0.0, -1.0, 1.0, ESCAPE_NORM - 2.5, -ESCAPE_NORM + 0.5])
coord = st.one_of(special, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                  st.floats(min_value=-2e9, max_value=2e9, allow_nan=False))
small = st.floats(min_value=-40.0, max_value=40.0, allow_nan=False)


def blocks(elements):
    """(rows, dim) coordinate blocks."""
    return st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
        lambda shape: hnp.arrays(float, shape, elements=elements))


NORMS = ("euclidean", 1.0, 1.5, 3.0)
# any finite float, subnormals included, and values whose squares or p-th
# powers underflow to zero or overflow to inf; inf - inf makes a NaN
wide = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-170, 1e150, -1e200,
                                  1.7e308, math.inf, -math.inf]),
                 st.floats(allow_nan=False, allow_infinity=False))


# ---------------------------------------------------------------------------
# Maps and orbits


# the scalar maps and the expressions, and two that overflow to +inf and -inf
ORBIT_MAPS = sorted(SCALAR_MAPS) + list(EXPRESSIONS) + ["x * 1e300", "-(x * x)"]


def _line_or_plane_map(name: str, dim: int):
    space = Space(id="s", dimension=dim)
    return builtin_map(name, space) if name in MAP_BUILTINS else expression_map(space, name)


def orbit_block(map_t, seeds: np.ndarray, n_steps: int):
    """_extend_orbit on a (k, d) seed block, read as (k, n_steps, d) orbits
    like the references."""
    block, alive = _extend_orbit((map_t.fn,), seeds, n_steps)
    return np.ascontiguousarray(block.swapaxes(0, 1)), alive


class TestOrbitBlock:
    @given(name=st.sampled_from(sorted(SCALAR_MAPS) + list(EXPRESSIONS)),
           seeds=blocks(coord), n_steps=st.integers(1, 12))
    def test_batched_orbits_equal_the_row_loop(self, name, seeds, n_steps):
        space = Space(id="s", dimension=seeds.shape[1])
        m = builtin_map(name, space) if name in SCALAR_MAPS else expression_map(space, name)
        orbits, alive = orbit_block(m, seeds, n_steps)
        want_orbits, want_alive = orbit_block_reference(scalar_step(name), seeds, n_steps)
        assert alive.tolist() == want_alive.tolist()
        assert orbits.tobytes() == want_orbits.tobytes()

    def test_escapes_are_exercised(self):
        line = Space(id="line", dimension=1)
        seeds = np.array([[ESCAPE_NORM - 2.5], [0.0], [3.0]])
        _, alive = orbit_block(builtin_map("translation", line), seeds, 6)
        assert alive.tolist() == [3, 6, 6]
        orbits, alive = orbit_block(expression_map(line, "min(1/x, 5)"), seeds, 6)
        assert alive.tolist() == [6, 1, 6]
        assert (orbits[1] == 0.0).all()

    @given(name=st.sampled_from(ORBIT_MAPS), seeds=blocks(coord), n_steps=st.integers(1, 12))
    def test_block_equals_the_per_step_loop(self, name, seeds, n_steps):
        m = _line_or_plane_map(name, seeds.shape[1])
        orbits, alive = orbit_block(m, seeds, n_steps)
        want_orbits, want_alive = orbit_block_step_reference(m, seeds, n_steps)
        assert alive.tolist() == want_alive.tolist()
        assert orbits.tobytes() == want_orbits.tobytes()

    # map, seed rows, and the alive counts over 80 steps
    ORBIT_CASES = {
        "nan-at-step-1": ("min(1/x, 5)", [[0.0], [2.0]], [1, 80]),
        "inf-at-step-1": ("x * x", [[1e200], [0.5]], [1, 80]),
        "minus-inf-at-step-1": ("-(x * x)", [[1e200], [0.5]], [1, 80]),
        "beyond-escape-norm-at-step-1": ("translation", [[ESCAPE_NORM - 0.5], [0.0]], [1, 80]),
        "period-1": ("0.5 * x + 1.0", [[2.0], [4.0], [-6.0]], [80, 80, 80]),
        "period-2": ("flip", [[0.0], [3.0], [-0.0]], [80, 80, 80]),
        "one-row-escapes-the-rest-repeat": ("0.5 * x + 1.0", [[2.0], [3e9]], [80, 1]),
        "late-escape": ("x * x", [[0.0], [1.0], [1.5]], [80, 80, 6]),
    }

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 80])
    @pytest.mark.parametrize("case", sorted(ORBIT_CASES))
    def test_cases(self, case, n_steps):
        name, seeds, alive_at_80 = self.ORBIT_CASES[case]
        seeds = np.array(seeds)
        m = _line_or_plane_map(name, 1)
        orbits, alive = orbit_block(m, seeds, n_steps)
        want_orbits, want_alive = orbit_block_step_reference(m, seeds, n_steps)
        assert alive.tolist() == want_alive.tolist() == [min(a, n_steps) for a in alive_at_80]
        assert orbits.tobytes() == want_orbits.tobytes()
        if name in SCALAR_MAPS or name in EXPRESSIONS:
            row_orbits, row_alive = orbit_block_reference(scalar_step(name), seeds, n_steps)
            assert alive.tolist() == row_alive.tolist()
            assert orbits.tobytes() == row_orbits.tobytes()

    def test_a_repeating_block_is_tiled_and_an_escaped_one_is_not(self):
        line = Space(id="line", dimension=1)
        calls = []

        def flip(x):
            calls.append(x.shape)
            return 1.0 - x

        m = NamedMap("flip", line, flip)
        for seeds, want_calls in (
            # step 2 repeats step 0 bit for bit
            ([[0.25], [2.0]], 2),
            # flip(flip(-0.0)) is 0.0, which is not -0.0: one step more
            ([[0.25], [-0.0]], 3),
            # 1 - (-ESCAPE_NORM) escapes at step 1, so the block never tiles
            ([[0.25], [-ESCAPE_NORM]], 319),
        ):
            calls.clear()
            seeds = np.array(seeds)
            orbits, alive = orbit_block(m, seeds, 320)
            assert len(calls) == want_calls
            want_orbits, want_alive = orbit_block_step_reference(m, seeds, 320)
            assert alive.tolist() == want_alive.tolist()
            assert orbits.tobytes() == want_orbits.tobytes()

    def test_the_walk_stops_once_every_row_has_escaped(self):
        line = Space(id="line", dimension=1)
        calls = []

        def shift(x):
            calls.append(x.shape)
            return x + 1.0

        m = NamedMap("shift", line, shift)
        for seeds, want_alive in (
            # row 1 escapes at step 1 and row 0 at step 3: no call after step 3
            ([[ESCAPE_NORM - 2.5], [ESCAPE_NORM - 0.5]], [3, 1]),
            ([[ESCAPE_NORM - 0.5], [ESCAPE_NORM - 0.5]], [1, 1]),
        ):
            calls.clear()
            seeds = np.array(seeds)
            orbits, alive = orbit_block(m, seeds, 320)
            assert len(calls) == max(want_alive)
            assert alive.tolist() == want_alive
            ref_orbits, ref_alive = orbit_block_step_reference(m, seeds, 320)
            assert alive.tolist() == ref_alive.tolist()
            assert orbits.tobytes() == ref_orbits.tobytes()

    def test_a_wrong_shaped_image_escapes_every_row(self):
        line = Space(id="line", dimension=1)
        # (k,) images of a (k, 1) block, which would broadcast into the block
        m = NamedMap("flat", line, lambda x: 0.5 * x[..., 0])
        seeds = np.array([[1.0], [2.0], [-0.0]])
        orbits, alive = orbit_block(m, seeds, 5)
        assert alive.tolist() == [1, 1, 1]
        assert orbits.tobytes() == np.repeat(seeds[:, None], 5, axis=1).tobytes()
        trace = picard_trace(m, line.point(1.0), 4)
        assert (trace.status, trace.coords.tolist()) == ("escaped", [[1.0]])

    @given(name=st.sampled_from(sorted(SCALAR_MAPS)), coords=blocks(small))
    def test_point_edge_is_one_row_of_the_kernel(self, name, coords):
        space = Space(id="s", dimension=coords.shape[1])
        m = builtin_map(name, space)
        with np.errstate(all="ignore"):
            block = m.fn(coords)
        for row, image in zip(coords, block):
            if np.isfinite(image).all():
                assert m(space.point(*row)).coords == tuple(image.tolist())
            else:
                with pytest.raises(InputError):
                    m(space.point(*row))


# ---------------------------------------------------------------------------
# Distances


class TestDistanceKernel:
    @given(norm=st.sampled_from(NORMS),
           pair=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)).flatmap(
               lambda s: st.tuples(hnp.arrays(float, s, elements=small),
                                   hnp.arrays(float, s, elements=small))))
    def test_aligned_equals_the_point_loop(self, norm, pair):
        xs, ys = pair
        space = Space(id="s", dimension=xs.shape[-1], norm=norm)
        got = space.distances(xs, ys)
        assert got.tobytes() == pair_distance_curves_reference(space, xs, ys).tobytes()

    # dim 1..10 reaches both sides of the 8 coordinates where the kernel
    # switches from column sums to np.sum
    @given(norm=st.sampled_from(NORMS), dim=st.integers(1, 10),
           n=st.integers(1, 5), m=st.integers(1, 5), data=st.data())
    def test_pairwise_equals_the_point_loop(self, norm, dim, n, m, data):
        a = data.draw(hnp.arrays(float, (n, dim), elements=small))
        b = data.draw(hnp.arrays(float, (m, dim), elements=small))
        space = Space(id="s", dimension=dim, norm=norm)
        got = space.distances(a[:, None], b[None])
        for i in range(n):
            for j in range(m):
                # bit for bit: the Point edge rounds like the block
                assert got[i, j] == space.distance(space.point(*a[i]), space.point(*b[j]))

    @given(pair=st.integers(1, 3).flatmap(
        lambda d: st.tuples(hnp.arrays(float, d, elements=small),
                            hnp.arrays(float, d, elements=small))))
    def test_euclidean_and_taxi_equal_plain_float_formulas(self, pair):
        a, b = pair
        d = a.shape[0]
        assert Space("e", d).distances(a, b) == euclidean_reference(a, b)
        taxi = 0.0
        for u, v in zip(a, b):
            taxi += abs(u - v)
        assert Space("t", d, norm=1.0).distances(a, b) == taxi

    def test_width_guard(self):
        with pytest.raises(InputError, match="2-dimensional"):
            Space("p", 2).distances(np.zeros((3, 1)), np.zeros((3, 2)))

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (np.zeros(1), 2.0), (1.0, np.zeros(1))])
    def test_a_scalar_has_no_coordinate_axis(self, a, b):
        # a 0-d array was a raw IndexError from its missing last axis
        widths = [np.ndim(x) and 1 for x in (a, b)]
        with pytest.raises(InputError, match=f"1-dimensional, got coordinate arrays of width "
                                             f"{widths[0]} and {widths[1]}"):
            Space("l", 1).distances(a, b)

    @given(norm=st.sampled_from(NORMS + (2.0, 7.5)), dim=st.integers(1, 10),
           layout=st.sampled_from(["point", "aligned", "pairwise", "stacked"]),
           sizes=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
           data=st.data())
    def test_kernel_equals_the_summed_difference_block(self, norm, dim, layout, sizes, data):
        n, m, k = sizes
        shape_a, shape_b = {"point": ((dim,), (dim,)),
                            "aligned": ((n, dim), (n, dim)),
                            "pairwise": ((n, 1, dim), (1, m, dim)),
                            "stacked": ((k, n, dim), (k, n, dim))}[layout]
        a = data.draw(hnp.arrays(float, shape_a, elements=wide))
        b = data.draw(hnp.arrays(float, shape_b, elements=wide))
        space = Space(id="s", dimension=dim, norm=norm)
        with np.errstate(all="ignore"):
            got, want = space.distances(a, b), distances_reference(space, a, b)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# Premetrics

PLANE = Space(id="plane", dimension=2)
SETTING = CyclicSetting.derive(PLANE, DiskSet(PLANE, (20.0, 0.0), 5.0),
                               DiskSet(PLANE, (-20.0, 0.0), 5.0))
PREMETRICS = {
    "metric": metric_premetric(PLANE),
    "shifted_cyclic": shifted_premetric(SETTING),
    "composed_mk": composed_premetric(builtin_gauge("mk"), metric_premetric(PLANE)),
    "composed_expression": composed_premetric(
        expression_gauge("t / (1 + t) + min(t, 2 / (1 + t))"), shifted_premetric(SETTING)),
}


class TestPremetricKernel:
    @given(name=st.sampled_from(sorted(PREMETRICS)), n=st.integers(1, 5),
           m=st.integers(1, 5), data=st.data())
    def test_matrix_and_diagonal_equal_the_pair_loop(self, name, n, m, data):
        p = PREMETRICS[name]
        xs = data.draw(hnp.arrays(float, (n, 2), elements=small))
        ys = data.draw(hnp.arrays(float, (m, 2), elements=small))
        mat = premetric_matrix(p, xs, ys)
        assert mat.shape == (n, m)
        for i in range(n):
            for j in range(m):
                want = premetric_reference(p, xs[i], ys[j])
                assert mat[i, j] == want
                assert eval_premetric(p, PLANE.point(*xs[i]), PLANE.point(*ys[j])) == want
        k = min(n, m)
        diag = premetric_diagonal(p, xs[:k], ys[:k])
        assert diag.tolist() == [premetric_reference(p, xs[i], ys[i]) for i in range(k)]

    @given(x0=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
           name=st.sampled_from(["metric", "composed_mk"]))
    def test_trace_gaps_equal_the_pair_loop(self, x0, name):
        line = Space(id="line", dimension=1)
        inner = metric_premetric(line)
        p = inner if name == "metric" else composed_premetric(builtin_gauge("mk"), inner)
        tr = picard_trace(builtin_map("mk", line), line.point(x0), 20, premetric=p)
        want = [premetric_reference(p, a, b) for a, b in zip(tr.coords[:-1], tr.coords[1:])]
        assert tr.gaps.tolist() == want

    def test_nonfinite_or_negative_values_are_refused(self):
        neg = composed_premetric(expression_gauge("t - 3"), metric_premetric(PLANE))
        with pytest.raises(InputError, match="nonnegative and finite"):
            premetric_diagonal(neg, np.zeros((2, 2)), np.ones((2, 2)))
        pole = composed_premetric(expression_gauge("1 / (t - 5)"), metric_premetric(PLANE))
        with pytest.raises(InputError, match="nonnegative and finite"):
            eval_premetric(pole, PLANE.point(1.0, 0.0), PLANE.point(1.0, 5.0))

    def test_constant_gauge_premetric_broadcasts(self):
        one = composed_premetric(expression_gauge("1.0"), metric_premetric(PLANE))
        assert premetric_matrix(one, np.zeros((3, 2)), np.zeros((4, 2))).shape == (3, 4)


# ---------------------------------------------------------------------------
# The strict pair search (C5)


@st.composite
def strict_cases(draw):
    """(mats, budget): k gap matrices of side index_horizon + nu_horizon
    (one short of it now and then), tie-heavy and shrinking along the
    diagonal at a rate per orbit, so that pairs pass at every shift or stick."""
    k = draw(st.integers(1, 3))
    ih, nh = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n = ih + nh - draw(st.sampled_from((0, 0, 0, 1)))
    values = st.sampled_from((0.0, -0.0, 1e-9, 2e-9, 0.25, 0.5, 1.0))
    mats = draw(hnp.arrays(float, (k, n, n), elements=values))
    rates = np.array(draw(st.lists(st.sampled_from((1.0, 0.75, 0.5)), min_size=k, max_size=k)))
    idx = np.arange(n)
    mats = mats * rates[:, None, None] ** np.minimum.outer(idx, idx)
    slack = draw(st.sampled_from((1e-9, 1e-12, 0.3)))
    return mats, SearchBudget(index_horizon=ih, nu_horizon=nh, slack=slack)


def _pass_at_the_horizon():
    # only the block nu_horizon = 4 shifts ahead lies below the base block;
    # the block 3 ahead overlaps it in rows and columns 4..5 only, so pair
    # (0, 1) waits for nu = 4
    mats = np.ones((1, 7, 7))
    mats[0, 4:, 4:] = 0.5
    return mats, SearchBudget(index_horizon=3, nu_horizon=4)


def _many_stuck():
    # orbit 0 contracts; every one of orbit 1's 15 pairs sticks at 1.0 or
    # creeps up, so the witnesses are its first 8 in np.nonzero order
    idx = np.arange(10)
    mats = np.stack([0.5 ** np.minimum.outer(idx, idx), 1.0 + 0.01 * np.add.outer(idx, idx)])
    return mats, SearchBudget(index_horizon=6, nu_horizon=4)


class TestStrictPairs:
    @given(case=strict_cases())
    def test_sweep_equals_the_two_loops(self, case):
        mats, budget = case
        got = _probe_outcome(_strict_pairs, mats, budget, "C5")
        assert got == _probe_outcome(strict_pairs_reference, mats, budget, "C5")

    # (mats, budget), the verdict, and the witnesses' first entry
    CASES = {
        "pass-at-the-horizon": (_pass_at_the_horizon(), "pass", {"triggered": 3, "nu": 4}),
        "more-than-8-stuck": (_many_stuck(), "fail",
                              {"orbit": 1, "i": 0, "j": 1, "gap": 1.01,
                               "best_follow_up": 1.01 + 0.01 * 2}),
        "nothing-triggered": ((np.zeros((2, 6, 6)), SearchBudget(index_horizon=4, nu_horizon=2)),
                              "pass", {"triggered": 0,
                                       "note": "every pair gap is already within the slack "
                                               "of zero"}),
        "too-small": ((np.ones((1, 5, 5)), SearchBudget(index_horizon=4, nu_horizon=2)),
                      None, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        (mats, budget), verdict, first = self.CASES[case]
        got = _probe_outcome(_strict_pairs, mats, budget, "C5")
        assert got == _probe_outcome(strict_pairs_reference, mats, budget, "C5")
        if verdict is None:
            assert got == "InputError: need gap matrices of side at least 6 for this budget, got 5"
            return
        report = json.loads(got)[0]
        assert report["verdict"] == verdict
        assert report["witnesses"][0] == first
        if case == "more-than-8-stuck":
            assert len(report["witnesses"]) == 8
            assert {w["orbit"] for w in report["witnesses"]} == {1}


# ---------------------------------------------------------------------------
# The delta ladder (D1)


@st.composite
def ladder_cases(draw):
    """(dists, budget): k distance curves of n points, +inf and the grid
    levels themselves drawn often, under a strictly decreasing delta grid."""
    k, n = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    levels = (0.0, 1e-9, 0.25, 0.5, 1.0, 2.0)
    values = st.one_of(st.sampled_from(levels + (math.inf,)), st.floats(0.0, 4.0))
    dists = draw(hnp.arrays(float, (k, n), elements=values))
    deltas = draw(st.lists(st.one_of(st.sampled_from(levels[1:]), st.floats(1e-6, 8.0)),
                           min_size=1, max_size=6, unique=True))
    eps = draw(st.lists(st.one_of(st.sampled_from(levels[1:]), st.floats(1e-6, 2.0)),
                        min_size=1, max_size=3))
    slack = draw(st.sampled_from((1e-9, 1e-3, 0.5)))
    return dists, SearchBudget(eps_grid=tuple(eps), delta_candidates=tuple(sorted(deltas)[::-1]),
                               slack=slack)


class TestDeltaLadder:
    @given(case=ladder_cases())
    def test_report_equals_the_ladder_loop(self, case):
        # the loop keeps the ladder's monotonicity test and its note
        # witness; nested buckets never reach them, so the reports agree
        got = _probe_outcome(_check_d1, *case)
        assert got == _probe_outcome(d1_reference, *case)
        assert '"note"' not in got


# ---------------------------------------------------------------------------
# The contraction-rate sweep


class TestBanachRate:
    @pytest.mark.parametrize("name", ["half", "mk", "flip", "cyclic_reflect",
                                      "0.5 * x + 1.0", "min(1/x, 5)"])
    @pytest.mark.parametrize("dim", [1, 2])
    # in the narrow region the longest ladder steps leave it both ways
    @pytest.mark.parametrize("width", [8.5, 1e-5])
    def test_report_equals_the_pair_loop(self, name, dim, width):
        space = Space(id="s", dimension=dim)
        m = builtin_map(name, space) if name in SCALAR_MAPS else expression_map(space, name)
        budget = SearchBudget(pair_samples=64)
        region = Box((0.5,) * dim, (0.5 + width,) * dim)
        got = check_banach_rate(m, budget=budget, region=region, seed=3)
        want = banach_rate_reference(m, space, budget, region, seed=3)
        assert sanitize(got) == sanitize(want)

    def test_ties_keep_the_first_pair(self):
        # halving scales every distance by exactly 0.5, so all ratios tie
        line = Space(id="line", dimension=1)
        budget = SearchBudget(pair_samples=16)
        region = default_region(line)
        rep = check_banach_rate(builtin_map("half", line), budget=budget, region=region, seed=5)
        rng = np.random.default_rng(5)
        first_a = region.sample_coords(rng, 16)[0]
        first_b = region.sample_coords(rng, 16)[0]
        assert rep.witnesses == [{"x": first_a.tolist(), "y": first_b.tolist(), "ratio": 0.5}]

    def test_nonfinite_image_is_an_input_error(self):
        line = Space(id="line", dimension=1)
        with pytest.raises(InputError, match="non-finite"):
            check_banach_rate(expression_map(line, "1 / x"), budget=SearchBudget(pair_samples=8),
                              region=Box((-1.0,), (1.0,)))


# ---------------------------------------------------------------------------
# Orbit stepping: the array orbit against the per-Point loop it replaced


LINE = Space(id="line", dimension=1)
PLANE2 = Space(id="plane2", dimension=2)


def _line_map(spec):
    return builtin_map(spec, LINE) if spec in MAP_BUILTINS else expression_map(LINE, spec)


# schedules of one map (picard) or two (alternating T != S) on the line
LINE_SCHEDULES = {
    "half": ("half",),
    "mk": ("mk",),
    "translation": ("translation",),
    "flip": ("flip",),
    "neg": ("neg",),
    "cyclic_reflect": ("cyclic_reflect",),
    "affine": ("0.5 * x + 1.0",),
    "square-plus": ("x * x + 1e3",),
    "reciprocal": ("min(1/x, 5)",),
    "quarter-fifth": ("quarter", "fifth"),
    # T fixes 0 but S moves it: a period-1 test on this schedule is wrong
    "half-then-shift": ("half", "x - 1.0"),
    "neg-flip": ("neg", "flip"),
}
# list-form maps on the plane; the rotation visits (0, 0), (0, -0), (-0, -0),
# (-0, 0): equal under == every step, yet bit-periodic only with period 4
PLANE_SCHEDULES = {
    "rotation": (["x[1]", "-x[0]"],),
    "swap-halve": (["x[1]", "0.5 * x[0]"],),
    "rotation-neg": (["x[1]", "-x[0]"], ["-x[0]", "x[1]"]),
}
LINE_STARTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 3.0, 1e-300, 5e-324, ESCAPE_NORM - 2.5)


def _schedule(key: str):
    if key in LINE_SCHEDULES:
        return LINE, [_line_map(s) for s in LINE_SCHEDULES[key]]
    return PLANE2, [expression_map(PLANE2, s) for s in PLANE_SCHEDULES[key]]


def _both_orbits(key: str, start, length: int):
    space, maps = _schedule(key)
    seed = space.point(*start)
    want, want_status = extend_orbit_reference(maps, seed, length)
    got, status = _orbit(tuple(m.fn for m in maps), np.asarray(seed.coords), length)
    return np.array([p.coords for p in want]), want_status, got, status


def _repeat_row(coords: np.ndarray) -> int | None:
    """The first row bit-identical to the row two steps before it."""
    for k in range(2, coords.shape[0]):
        if coords[k].tobytes() == coords[k - 2].tobytes():
            return k
    return None


class TestExtendOrbit:
    @given(key=st.sampled_from(sorted(LINE_SCHEDULES)),
           start=st.one_of(st.sampled_from(LINE_STARTS),
                           st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)),
           length=st.integers(1, 80))
    def test_line_orbits_equal_the_point_loop(self, key, start, length):
        want, want_status, got, status = _both_orbits(key, (start,), length)
        assert (status, got.shape) == (want_status, want.shape)
        assert got.tobytes() == want.tobytes()

    @given(key=st.sampled_from(sorted(PLANE_SCHEDULES)),
           start=st.tuples(st.sampled_from((0.0, -0.0, 1.0, -2.0)),
                           st.sampled_from((0.0, -0.0, 0.5, 3.0))),
           length=st.integers(1, 24))
    def test_plane_orbits_equal_the_point_loop(self, key, start, length):
        want, want_status, got, status = _both_orbits(key, start, length)
        assert (status, got.shape) == (want_status, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("key, start", [
        ("half", (0.0,)), ("half", (-0.0,)), ("neg", (3.0,)), ("neg", (-0.0,)),
        ("cyclic_reflect", (1.0,)), ("cyclic_reflect", (5.0,)), ("affine", (7.0,)),
        ("flip", (0.5,)), ("quarter-fifth", (1.0,)), ("half-then-shift", (1.0,)),
        ("half-then-shift", (0.0,)),
        ("neg-flip", (0.25,)), ("rotation", (0.0, 0.0)), ("rotation", (1.0, -0.0)),
        ("swap-halve", (0.0, -0.0)), ("rotation-neg", (-0.0, 0.0)),
    ])
    def test_lengths_around_the_repeat(self, key, start):
        """Orbits that end just before, at and just after the row where the
        repeat is detected, and well past it."""
        probe = _both_orbits(key, start, 400)[0]
        k = _repeat_row(probe)
        lengths = range(1, 12) if k is None else range(max(1, k - 2), k + 6)
        for length in [*lengths, 399]:
            want, want_status, got, status = _both_orbits(key, start, length)
            assert (status, got.shape) == (want_status, want.shape), length
            assert got.tobytes() == want.tobytes(), length

    @given(key=st.sampled_from(sorted(LINE_SCHEDULES) + sorted(PLANE_SCHEDULES)),
           rows=st.integers(1, 5), length=st.integers(1, 40), data=st.data())
    def test_each_row_of_a_block_is_its_single_seed_walk(self, key, rows, length, data):
        """Row r of a seed-block walk holds the walk from seed r alone for
        its alive[r] points, then stays frozen at the last of them."""
        space, maps = _schedule(key)
        seeds = data.draw(hnp.arrays(float, (rows, space.dimension), elements=coord))
        fns = tuple(m.fn for m in maps)
        block, alive = _extend_orbit(fns, seeds, length)
        assert block.shape == (length, *seeds.shape) and alive.shape == (rows,)
        for r, seed in enumerate(seeds):
            walk, status = _orbit(fns, seed, length)
            assert alive[r] == walk.shape[0] and (status == "completed") == (alive[r] == length)
            assert block[:alive[r], r].tobytes() == walk.tobytes()
            frozen = np.broadcast_to(walk[-1], block[alive[r]:, r].shape)
            assert block[alive[r]:, r].tobytes() == frozen.tobytes()

    def test_cases_cover_repeats_and_escapes(self):
        assert _repeat_row(_both_orbits("neg", (3.0,), 10)[0]) == 2
        assert _repeat_row(_both_orbits("swap-halve", (0.0, -0.0), 30)[0]) == 2
        rotation = _both_orbits("rotation", (0.0, 0.0), 30)[0]
        assert _repeat_row(rotation) is None and (rotation == 0.0).all()
        assert _repeat_row(_both_orbits("half-then-shift", (1.0,), 30)[0]) is None
        # T fixes x_0 = 0, so x_1 = x_0, yet S sends it on to -1
        assert _both_orbits("half-then-shift", (0.0,), 3)[0].tolist() == [[0.0], [0.0], [-1.0]]
        for key, start in (("translation", ESCAPE_NORM - 2.5), ("mk", -1.0),
                           ("square-plus", 3.0), ("reciprocal", 0.0)):
            assert _both_orbits(key, (start,), 40)[1] == "escaped"


# ---------------------------------------------------------------------------
# Solvers: the block walk against the per-Point loops it replaced


def _solve_outcome(solve, *args, **kwargs):
    """Result JSON bytes, or the class and message of the error raised."""
    try:
        return json.dumps(sanitize(solve(*args, **kwargs)), sort_keys=True)
    except InputError as exc:
        return type(exc).__name__, str(exc)


def _composed(space, t_max):
    return composed_premetric(builtin_gauge("mk", t_max=t_max), metric_premetric(space))


# 0 * (d - 1) is -0.0 where the distance d is below 1 and +0.0 elsewhere
SIGNED_ZERO = composed_premetric(expression_gauge("0 * (t - 1)"), metric_premetric(LINE))


SOLVE_PREMETRICS = {
    LINE: {
        "metric": metric_premetric(LINE),
        # any gap above 1.5 leaves the gauge's range
        "composed-mk": _composed(LINE, 1.5),
        "half": composed_premetric(builtin_gauge("half"), metric_premetric(LINE)),
        # +-0.0 by whether d < 1: the common residual ties between signed zeros
        "signed-zero": SIGNED_ZERO,
    },
    PLANE2: {
        "metric": metric_premetric(PLANE2),
        "composed-mk": _composed(PLANE2, 1.5),
        # the 1-norm on the same coordinates
        "taxi": metric_premetric(Space(id=PLANE2.id, dimension=2, norm=1.0)),
    },
}
# a name missing on one space draws its metric
SOLVE_PREMETRIC_NAMES = sorted(set(SOLVE_PREMETRICS[LINE]) | set(SOLVE_PREMETRICS[PLANE2]))
# 1, 2 and each side of the first three block boundaries
_BOUNDARIES = [SOLVER_FIRST_BLOCK * (2 ** k - 1) for k in (1, 2, 3)]
SOLVE_BUDGETS = sorted({1, 2} | {b + o for b in _BOUNDARIES for o in (-1, 0, 1)})
SOLVE_TOLS = st.one_of(st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 0.5, 1.0, 2.0)),
                       st.floats(min_value=0.0, max_value=2.0))
SOLVE_STEPS = st.one_of(st.sampled_from(SOLVE_BUDGETS), st.integers(1, 80))
LINE_SOLVE_STARTS = st.one_of(st.sampled_from(LINE_STARTS),
                              st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
PLANE_SOLVE_STARTS = st.tuples(st.sampled_from((0.0, -0.0, 1.0, -2.0)),
                               st.sampled_from((0.0, -0.0, 0.5, 3.0)))
CYCLIC_LINE = CyclicSetting.derive(LINE, IntervalSet(LINE, 1.0, math.inf),
                                   IntervalSet(LINE, -math.inf, -1.0))


def _both_solves(solve, reference, *args, **kwargs):
    got = _solve_outcome(solve, *args, **kwargs)
    assert got == _solve_outcome(reference, *args, **kwargs)
    return got


class TestSolvers:
    @given(key=st.sampled_from(sorted(LINE_SCHEDULES) + sorted(PLANE_SCHEDULES)),
           p_name=st.sampled_from(SOLVE_PREMETRIC_NAMES),
           line_start=LINE_SOLVE_STARTS, plane_start=PLANE_SOLVE_STARTS,
           tol=SOLVE_TOLS, steps=SOLVE_STEPS)
    def test_fixed_point_equals_the_point_loop(self, key, p_name, line_start, plane_start,
                                               tol, steps):
        space, maps = _schedule(key)
        start = (line_start,) if space is LINE else plane_start
        p = SOLVE_PREMETRICS[space].get(p_name, metric_premetric(space))
        _both_solves(solve_fixed_point, solve_fixed_point_reference, maps[0],
                     space.point(*start), tol=tol, max_steps=steps, premetric=p)

    @given(key=st.sampled_from(sorted(LINE_SCHEDULES) + sorted(PLANE_SCHEDULES)),
           p_name=st.sampled_from(SOLVE_PREMETRIC_NAMES),
           line_start=LINE_SOLVE_STARTS, plane_start=PLANE_SOLVE_STARTS,
           tol=SOLVE_TOLS, steps=SOLVE_STEPS)
    def test_common_fixed_point_equals_the_point_loop(self, key, p_name, line_start,
                                                      plane_start, tol, steps):
        space, maps = _schedule(key)
        start = (line_start,) if space is LINE else plane_start
        p = SOLVE_PREMETRICS[space].get(p_name, metric_premetric(space))
        _both_solves(solve_common_fixed_point, solve_common_fixed_point_reference,
                     AlternatingSchedule(maps[0], maps[-1]), space.point(*start),
                     tol=tol, max_steps=steps, premetric=p)

    @given(key=st.sampled_from(sorted(LINE_SCHEDULES)),
           start=st.one_of(st.sampled_from([s for s in LINE_STARTS if s >= 1.0]),
                           st.floats(min_value=1.0, max_value=20.0)),
           tol=SOLVE_TOLS, pairs=SOLVE_STEPS)
    def test_best_proximity_equals_the_point_loop(self, key, start, tol, pairs):
        _both_solves(solve_best_proximity, solve_best_proximity_reference,
                     _line_map(LINE_SCHEDULES[key][0]), CYCLIC_LINE, LINE.point(start),
                     tol=tol, max_pairs=pairs)

    # (map, start, premetric, tol, max_steps); each is checked for the fixed
    # point and, with T = S, the common fixed point
    CASES = {
        "escape-at-step-1": ("translation", ESCAPE_NORM - 0.5, "metric", 1e-9, 500),
        "nan-at-step-1": ("min(1/x, 5)", 0.0, "metric", 1e-9, 500),
        "overflow-at-step-1": ("x * 1e300", 1e9, "metric", 1e-9, 500),
        "escape-closing-block-1": ("translation", ESCAPE_NORM + 0.5 - SOLVER_FIRST_BLOCK,
                                   "metric", 1e-9, 500),
        "escape-opening-block-2": ("translation", ESCAPE_NORM - 0.5 - SOLVER_FIRST_BLOCK,
                                   "metric", 1e-9, 500),
        "period-2-flip": ("flip", 0.25, "metric", 1e-9, 10_000),
        "period-2-neg": ("neg", 3.0, "metric", 1e-9, 10_000),
        "period-2-neg-zero": ("neg", -0.0, "signed-zero", -1.0, 300),
        "tol-on-step-1": ("half", 1.0, "metric", 2.0, 1),
        "signed-zero-ties": ("neg", 2.0, "signed-zero", 0.0, 5),
        # gaps 1.5 * 2^-n: the first step leaves the gauge's range
        "error-before-the-hit": ("half", 3.0001, "composed-mk", 1e-3, 500),
        # the first gap is under tol; later gaps of the same block leave the range
        "error-after-the-hit": ("x * x", 1.1, "composed-mk", 0.15, 500),
        # step 334 leaves the range: the steps of its block before it are checked first
        "error-in-block-3": ("1.02 * x", 0.1, "composed-mk", 1e-9, 500),
        "budget-runs-out": ("translation", 0.0, "metric", 1e-9, SOLVER_FIRST_BLOCK * 3 + 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        name, start, p_name, tol, steps = self.CASES[case]
        m, x, p = _line_map(name), LINE.point(start), SOLVE_PREMETRICS[LINE][p_name]
        fixed = _both_solves(solve_fixed_point, solve_fixed_point_reference, m, x,
                             tol=tol, max_steps=steps, premetric=p)
        _both_solves(solve_common_fixed_point, solve_common_fixed_point_reference,
                     AlternatingSchedule(m, m), x, tol=tol, max_steps=steps, premetric=p)
        outcome = fixed if isinstance(fixed, tuple) else json.loads(fixed)
        if case.startswith(("escape", "nan", "overflow")):
            assert outcome["residual"] == "inf"
            assert outcome["iterations"] == {"escape-closing-block-1": SOLVER_FIRST_BLOCK - 1,
                                             "escape-opening-block-2": SOLVER_FIRST_BLOCK
                                             }.get(case, 0)
        elif case.startswith("period-2") or case == "budget-runs-out":
            assert (outcome["iterations"], outcome["converged"]) == (steps, False)
        elif case in ("tol-on-step-1", "signed-zero-ties", "error-after-the-hit"):
            assert outcome["iterations"] == 1
            if case == "error-after-the-hit":
                # the first block's gaps leave the range, so it is scored again step by step
                orbit, _ = _orbit((m.fn,), np.array([start]), SOLVER_FIRST_BLOCK + 1)
                with pytest.raises(InputError, match="outside its working range"):
                    premetric_diagonal(p, orbit[:-1], orbit[1:])
        else:
            assert outcome[0] == "InputError" and "outside its working range" in outcome[1]

    @pytest.mark.parametrize("name, start, pairs", [
        ("cyclic_reflect", 3.0, 12), ("cyclic_reflect", 10.0, 500),
        # NaN on the third double step, with and without budget left
        ("x - 2.0 + 0.0 / (x - 8.0)", 20.0, 3),
        ("x - 2.0 + 0.0 / (x - 8.0)", 20.0, 4),
        ("translation", ESCAPE_NORM - 2 * SOLVER_FIRST_BLOCK + 0.5, 500),
        ("translation", ESCAPE_NORM - 2 * SOLVER_FIRST_BLOCK - 0.5, 500),
        ("neg", 3.0, 500), ("flip", 1.0, 10_000),
    ])
    def test_best_proximity_cases(self, name, start, pairs):
        _both_solves(solve_best_proximity, solve_best_proximity_reference,
                     _line_map(name), CYCLIC_LINE, LINE.point(start), tol=1e-8,
                     max_pairs=pairs)

    @pytest.mark.parametrize("seed", [1.0, -3.0, 0.5, -0.75])
    def test_common_residual_ties_keep_the_first(self, seed):
        """The walk starts at x = S(seed) = seed + 1.  Under 0 * (d - 1),
        p(x, -x) is -0.0 for |x| < 1/2 and +0.0 elsewhere, while p(x, x + 1)
        is +0.0: Python's max keeps p(x, Tx), the first."""
        sched = AlternatingSchedule(_line_map("neg"), _line_map("translation"))
        got = _both_solves(solve_common_fixed_point, solve_common_fixed_point_reference,
                           sched, LINE.point(seed), tol=0.0, max_steps=300,
                           premetric=SIGNED_ZERO)
        residual = json.loads(got)["residual"]
        assert residual == 0.0
        assert math.copysign(1.0, residual) == (1.0 if abs(seed + 1.0) >= 0.5 else -1.0)

    @pytest.mark.parametrize("seed, iterations", [(4.0, 0), (4.5, 2)])
    def test_a_nan_common_residual_ends_the_walk(self, seed, iterations):
        """T(2) = 1/0 is not finite, so the residual at x = 2 is NaN: the walk
        ends there with residual inf, at x_0 = S(4) or at x_2 = S(T(S(4.5)))."""
        sched = AlternatingSchedule(_line_map("1 / (x - 2)"), _line_map("half"))
        got = _both_solves(solve_common_fixed_point, solve_common_fixed_point_reference,
                           sched, LINE.point(seed))
        assert json.loads(got) == {"point": [2.0], "residual": "inf",
                                   "iterations": iterations, "converged": False}

    def test_best_proximity_p_norm_overflow_raises_like_the_loop(self):
        """Under a 400-norm, even points 10 apart overflow to an infinite
        distance, which Space.distance refuses."""
        space = Space(id="p400", dimension=1, norm=400.0)
        setting = CyclicSetting.derive(space, IntervalSet(space, 1.0, math.inf),
                                       IntervalSet(space, -math.inf, -1.0))
        m = expression_map(space, "x + 5.0")
        with np.errstate(over="ignore"):
            got = _both_solves(solve_best_proximity, solve_best_proximity_reference, m,
                               setting, space.point(1.0), tol=1e-8, max_pairs=20)
        assert got[0] == "InputError" and "distance evaluated to inf" in got[1]


class TestOneEscapeRule:
    """The three places where the solvers left the per-Point loops for the
    orbit's rule (traces._extend_orbit)."""

    def test_common_escape_returns_the_last_stored_point(self):
        sched = AlternatingSchedule(builtin_map("translation", LINE),
                                    builtin_map("translation", LINE))
        seed = LINE.point(ESCAPE_NORM - 1.5)
        sol = solve_common_fixed_point(sched, seed)
        assert (sol.point.coords, sol.residual, sol.iterations, sol.converged) == \
            ((ESCAPE_NORM - 0.5,), math.inf, 0, False)
        old = solve_common_fixed_point_reference(sched, seed, keep_last=False)
        assert (old.point.coords, old.iterations) == ((ESCAPE_NORM + 0.5,), 1)

    def test_an_odd_point_beyond_the_escape_norm_ends_the_proximity_walk(self):
        # 1 -> 2e9 -> 1: the even points repeat, but the odd one escaped
        m = expression_map(LINE, "2e9 / x")
        sol = solve_best_proximity(m, CYCLIC_LINE, LINE.point(1.0))
        assert (sol.point.coords, sol.residual, sol.iterations, sol.converged) == \
            ((1.0,), math.inf, 0, False)
        old = solve_best_proximity_reference(m, CYCLIC_LINE, LINE.point(1.0),
                                             odd_escapes=False)
        assert (old.point.coords, old.iterations, old.residual) == ((1.0,), 1, 2e9 - 3.0)
        tr = cyclic_even_trace(m, CYCLIC_LINE, LINE.point(1.0), 5)
        assert (tr.status, len(tr)) == ("escaped", 1)

    def test_a_seed_off_the_space_raises(self):
        plane_point = PLANE2.point(1.0, 1.0)
        half = builtin_map("half", LINE)
        old = solve_fixed_point_reference(half, plane_point)
        assert (old.residual, old.iterations) == (math.inf, 0)
        with pytest.raises(InputError, match="does not belong to space 'line'"):
            solve_fixed_point(half, plane_point)
        with pytest.raises(InputError, match="does not belong to space 'line'"):
            solve_best_proximity(half, CYCLIC_LINE, Space(id="other", dimension=1).point(2.0))
        # a premetric off the seed's space is refused before the first step too
        with pytest.raises(InputError, match="does not belong to space 'plane2'"):
            solve_fixed_point(half, LINE.point(1.0), premetric=metric_premetric(PLANE2))
        with pytest.raises(InputError, match="does not belong to space 'plane2'"):
            solve_common_fixed_point(AlternatingSchedule(half, half), LINE.point(1.0),
                                     premetric=metric_premetric(PLANE2))


# ---------------------------------------------------------------------------
# FPSI: the batched pass against the per-pair loop it replaced


def _outcome(check, *args):
    """Report JSON bytes, or the class of the error raised."""
    try:
        return json.dumps(sanitize(check(*args)), sort_keys=True)
    except InputError as exc:
        return type(exc).__name__


FPSI_MAPS = ("half", "translation", "neg", "flip", "0.5 * x + 1.0")
FPSI_PREMETRICS = {
    "metric": metric_premetric(LINE),
    # every M is a tie between signed zeros
    "signed-zero": SIGNED_ZERO,
    "half": composed_premetric(builtin_gauge("half"), metric_premetric(LINE)),
}
FPSI_GAUGES = {
    "id": builtin_gauge("id"),
    "half": builtin_gauge("half"),
    "mk": builtin_gauge("mk"),
    "seven-twelfths": expression_gauge("7.0 * t / 12.0"),
    # NaN at t = 1, which M reaches exactly under translation
    "pole": expression_gauge("t / (t - 1)"),
    # any t above 5 is out of range
    "half-short": builtin_gauge("half", t_max=5.0),
}
FPSI_COORDS = st.one_of(st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 3.0, 12.0)),
                        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))


def _fpsi_both(t_name, s_name, p_name, f_name, psi_name, pairs):
    args = (_line_map(t_name), _line_map(s_name), FPSI_PREMETRICS[p_name],
            FPSI_GAUGES[f_name], FPSI_GAUGES[psi_name])
    xs, ys = np.array(pairs).reshape(len(pairs), 2, 1).transpose(1, 0, 2)
    # the profile checks run before the pair loop and are not under test here
    with mock.patch("fplab.certificates.require_profile"):
        got = _outcome(check_f_psi_contraction, *args, xs, ys)
    want = _outcome(fpsi_reference, *args, [(LINE.point(a), LINE.point(b)) for a, b in pairs])
    return got, want


class TestFPsiContraction:
    @given(t_name=st.sampled_from(FPSI_MAPS), s_name=st.sampled_from(FPSI_MAPS),
           p_name=st.sampled_from(sorted(FPSI_PREMETRICS)),
           f_name=st.sampled_from(("id", "mk", "half-short")),
           psi_name=st.sampled_from(sorted(FPSI_GAUGES)),
           pairs=st.lists(st.tuples(FPSI_COORDS, FPSI_COORDS), min_size=1, max_size=30))
    def test_report_equals_the_pair_loop(self, t_name, s_name, p_name, f_name, psi_name,
                                         pairs):
        got, want = _fpsi_both(t_name, s_name, p_name, f_name, psi_name, pairs)
        assert got == want

    # (maps, premetric, F, psi, pairs, expected verdict or error)
    CASES = {
        # |x - y| >= 1 under translation is a defeat: 10 of them, 8 reported
        "more-than-8": ("translation", "metric", "id", "half",
                        [(0.0, float(k)) for k in range(1, 11)], "fail"),
        "fewer-than-8": ("translation", "metric", "id", "half",
                         [(0.0, 0.25), (0.0, 2.0), (1.0, 1.0), (0.0, 3.0)], "fail"),
        "signed-zero-ties": ("neg", "signed-zero", "id", "half",
                             [(2.0, 1.5), (-0.0, 0.0), (0.0, 0.0), (2.0, 3.0)], "pass"),
        # M = 1 exactly, so psi(F(M)) is NaN: no defeat and no margin
        "nan-psi": ("translation", "metric", "id", "pole",
                    [(0.0, 0.5), (0.0, 0.25), (2.0, 2.0)], "pass"),
        "nan-psi-then-defeat": ("translation", "metric", "id", "pole",
                                [(0.0, 0.5), (0.0, 3.0)], "fail"),
        # M = 100 leaves psi's range only after the 8th defeat: never checked
        "out-of-range-after-8": ("translation", "metric", "id", "half-short",
                                 [(0.0, 1.0 + 0.5 * k) for k in range(8)] + [(0.0, 100.0)],
                                 "fail"),
        "out-of-range-before-8": ("translation", "metric", "id", "half-short",
                                  [(0.0, 1.0 + 0.5 * k) for k in range(7)] + [(0.0, 100.0)],
                                  "InputError"),
        "out-of-range-first": ("translation", "metric", "id", "half-short",
                               [(0.0, 100.0), (0.0, 1.0)], "InputError"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        t_name, p_name, f_name, psi_name, pairs, expected = self.CASES[case]
        got, want = _fpsi_both(t_name, t_name, p_name, f_name, psi_name, pairs)
        assert got == want
        assert (got if got == "InputError" else json.loads(got)["verdict"]) == expected
        if case == "more-than-8":
            assert len(json.loads(got)["witnesses"]) == 8
        if case == "signed-zero-ties":
            # the first pair's M keeps p(x, y) = -0.0 (d = 0.5) before
            # p(Tx, x) = +0.0 (d = 4), so its margin is -0.0 - -0.0 = 0.0; a
            # tie-break that kept the later +0.0 in M would make it -0.0
            assert math.copysign(1.0, json.loads(got)["witnesses"][0]["worst_margin"]) == 1.0
            assert "margin 0.000e+00" in json.loads(got)["resolution_note"]

    @given(pairs=st.lists(st.tuples(FPSI_COORDS, FPSI_COORDS), min_size=1, max_size=6),
           t_name=st.sampled_from(FPSI_MAPS), p_name=st.sampled_from(sorted(FPSI_PREMETRICS)))
    def test_compute_m_is_the_python_max(self, pairs, t_name, p_name):
        m, p = _line_map(t_name), FPSI_PREMETRICS[p_name]
        for a, b in pairs:
            x, y = LINE.point(a), LINE.point(b)
            tx, sy = m(x), m(y)
            want = max(eval_premetric_reference(p, x, y), eval_premetric_reference(p, tx, x),
                       eval_premetric_reference(p, sy, y),
                       0.5 * (eval_premetric_reference(p, tx, y)
                              + eval_premetric_reference(p, sy, x)))
            got = float(_m_values(p, *(np.asarray(q.coords) for q in (x, y, tx, sy))))
            assert struct.pack("<d", got) == struct.pack("<d", want)


# ---------------------------------------------------------------------------
# CYC: one mapped block per set against the per-draw loop it replaced


def _outcome_text(check, *args, **kwargs):
    """Report JSON text, or the class and message of the error raised."""
    try:
        return json.dumps(sanitize(check(*args, **kwargs)))
    except (InputError, ConfigurationError) as exc:
        return f"{type(exc).__name__}: {exc}"


TAXI3 = Space(id="taxi3", dimension=3, norm=1.0)
CYC_SETTINGS = {
    "half-lines": CYCLIC_LINE,
    "intervals": CyclicSetting.derive(LINE, IntervalSet(LINE, 0.0, 10.0),
                                      IntervalSet(LINE, -10.0, 0.0)),
    # the second set lies outside the sampling clip region: drawing it raises
    "unclipped": CyclicSetting.derive(LINE, IntervalSet(LINE, 1.0, 50.0),
                                      IntervalSet(LINE, 200.0, math.inf)),
    "line-disks": CyclicSetting.derive(LINE, DiskSet(LINE, (3.0,), 2.0),
                                       DiskSet(LINE, (-3.0,), 2.0)),
    "plane-disks": CyclicSetting.derive(PLANE, DiskSet(PLANE, (2.0, 0.0), 1.5),
                                        DiskSet(PLANE, (-2.0, 0.0), 1.5)),
    "taxi-disks": CyclicSetting.derive(TAXI3, DiskSet(TAXI3, (1.0, 1.0, 0.0), 2.0),
                                       DiskSet(TAXI3, (-1.0, -1.0, 0.0), 2.0)),
}
CYC_MAPS = ("cyclic_reflect", "half", "neg", "x / max(x - 5, 0)", "1e200 * x", "other-space",
            "misshapen")


def _cyc_map(name, space):
    if name == "other-space":
        return builtin_map("half", Space(id="other", dimension=space.dimension))
    if name == "misshapen":  # one coordinate too many, whatever the input
        return NamedMap(name, space, lambda x: np.zeros(space.dimension + 1))
    return builtin_map(name, space) if name in MAP_BUILTINS else expression_map(space, name)


def _cyc_both(setting_name, map_name, sample_count, seed):
    setting = CYC_SETTINGS[setting_name]
    args = (_cyc_map(map_name, setting.space), setting)
    with np.errstate(all="ignore"):
        return (_outcome_text(check_cyclic, *args, sample_count=sample_count, seed=seed),
                _outcome_text(cyclic_reference, *args, sample_count=sample_count, seed=seed))


class TestCyclicBlocks:
    @given(setting_name=st.sampled_from(sorted(CYC_SETTINGS)), map_name=st.sampled_from(CYC_MAPS),
           sample_count=st.one_of(st.sampled_from((1, 7, 8, 9, 64)), st.integers(1, 100)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_report_equals_the_draw_loop(self, setting_name, map_name, sample_count, seed):
        got, want = _cyc_both(setting_name, map_name, sample_count, seed)
        assert got == want

    # (setting, map, sample count, seed, the start of the outcome)
    PASS, FAIL = ('{"condition_id": "CYC", "verdict": "%s"' % v for v in ("pass", "fail"))
    CASES = {
        "reflect-passes": ("half-lines", "cyclic_reflect", 64, 0, PASS),
        "half-fails": ("half-lines", "half", 64, 0, FAIL),
        "neg-swaps-disks": ("plane-disks", "neg", 64, 0, PASS),
        # x <= 5 has no finite image: at seed 0 such a draw comes before the
        # 8th defeat, at seeds 1 and 2 only after it
        "pole-before-8": ("half-lines", "x / max(x - 5, 0)", 64, 0,
                          "InputError: coordinates must be finite, got (nan,)"),
        "pole-after-8-seed-1": ("half-lines", "x / max(x - 5, 0)", 64, 1, FAIL),
        "pole-after-8-seed-2": ("half-lines", "x / max(x - 5, 0)", 64, 2, FAIL),
        # a distance to the center beyond the floats is outside the disk
        "far-from-the-disk": ("plane-disks", "1e200 * x", 64, 0, FAIL),
        "misshapen": ("plane-disks", "misshapen", 64, 0,
                      "InputError: space 'plane' is 2-dimensional, got (0.0, 0.0, 0.0)"),
        "other-space": ("half-lines", "other-space", 64, 0,
                        "InputError: map 'half' on space 'other' applied to a point from 'line'"),
        # set_a's 8 defeats end the check before set_b, outside the clip
        # region, is drawn; with fewer draws than 8 it is drawn and refused
        "second-set-never-drawn": ("unclipped", "half", 64, 0, FAIL),
        "second-set-drawn": ("unclipped", "half", 7, 0,
                             "ConfigurationError: interval lies outside the sampling clip"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        setting_name, map_name, sample_count, seed, start = self.CASES[case]
        got, want = _cyc_both(setting_name, map_name, sample_count, seed)
        assert got == want
        assert got.startswith(start)
        if start == self.FAIL:
            assert len(json.loads(got)["witnesses"]) == 8
        if case.startswith("pole-after-8"):
            # a draw past the 8th defeat has no finite image
            xs = CYCLIC_LINE.set_a.sample_coords(np.random.default_rng(seed), 64)
            assert (xs <= 5.0).any()

    def test_interval_draws_equal_one_draw_at_a_time(self):
        # numpy's uniform gives the block the bits of the per-draw stream, so
        # the interval settings draw what the per-draw sampler drew
        for s in (CYCLIC_LINE.set_a, CYC_SETTINGS["intervals"].set_b):
            rng = np.random.default_rng(5)
            lo, hi = max(s.lo, -100.0), min(s.hi, 100.0)
            one_at_a_time = [rng.uniform(lo, hi) for _ in range(64)]
            block = s.sample_coords(np.random.default_rng(5), 64)
            assert block.tobytes() == np.array(one_at_a_time)[:, None].tobytes()


# ---------------------------------------------------------------------------
# CSV: the bit-period writer against the per-row comprehension it replaced


SPACE3 = Space(id="space3", dimension=3)
INTERVALS = CyclicSetting.derive(LINE, IntervalSet(LINE, 0.0, 10.0), IntervalSet(LINE, -10.0, 0.0))


def _orbit_trace(space, maps, start, length: int) -> IterationTrace:
    coords, status = _orbit(tuple(m.fn for m in maps), np.asarray(start, float), length)
    return IterationTrace(coords=coords, generator="orbit", premetric=metric_premetric(space),
                          status=status)


def _csv_pinned(trace) -> None:
    assert trace.to_csv() == to_csv_reference(trace)
    if len(trace) >= 3:
        shifted = trace.companion_shift()
        assert shifted.to_csv() == to_csv_reference(shifted)


class TestToCsv:
    @given(key=st.sampled_from(sorted(LINE_SCHEDULES)),
           start=st.one_of(st.sampled_from(LINE_STARTS),
                           st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)),
           length=st.integers(1, 60))
    def test_line_orbits_equal_the_row_loop(self, key, start, length):
        space, maps = _schedule(key)
        _csv_pinned(_orbit_trace(space, maps, (start,), length))

    @given(key=st.sampled_from(sorted(PLANE_SCHEDULES)),
           start=st.tuples(st.sampled_from((0.0, -0.0, 1.0, -2.0)),
                           st.sampled_from((0.0, -0.0, 0.5, 3.0))),
           length=st.integers(1, 24))
    def test_plane_orbits_equal_the_row_loop(self, key, start, length):
        space, maps = _schedule(key)
        _csv_pinned(_orbit_trace(space, maps, start, length))

    @given(name=st.sampled_from(sorted(SCALAR_MAPS) + list(EXPRESSIONS)),
           start=st.tuples(coord, coord, coord), length=st.integers(1, 40))
    def test_3d_orbits_equal_the_row_loop(self, name, start, length):
        m = builtin_map(name, SPACE3) if name in SCALAR_MAPS else expression_map(SPACE3, name)
        _csv_pinned(_orbit_trace(SPACE3, [m], start, length))

    @pytest.mark.parametrize("key, start", [
        ("half", (0.0,)), ("half", (-0.0,)), ("half", (3.0,)), ("neg", (3.0,)),
        ("neg", (-0.0,)), ("flip", (0.5,)), ("flip", (0.3,)), ("quarter-fifth", (1.0,)),
        ("cyclic_reflect", (5.0,)), ("half-then-shift", (0.0,)), ("swap-halve", (0.0, -0.0)),
        ("swap-halve", (-0.0, 0.0)),
    ])
    def test_lengths_around_the_tail(self, key, start):
        """Traces that end before, on and just after the first row of their
        periodic tail, and well past it."""
        space, maps = _schedule(key)
        probe = _orbit_trace(space, maps, start, 1500)
        k = _bit_period_start(probe.coords, probe.gaps)
        assert k < len(probe) - 1, "no periodic tail"
        for length in [*range(1, 4), *range(max(1, k - 2), k + 5), 1500]:
            _csv_pinned(_orbit_trace(space, maps, start, length))

    def test_sequences_and_cyclic_evens(self):
        for length in (2, 3, 4, 50):
            _csv_pinned(sequence_trace("harmonic", LINE, length))
        reflect = builtin_map("cyclic_reflect", LINE)
        for pairs in (1, 2, 3, 40):
            _csv_pinned(cyclic_even_trace(reflect, INTERVALS, LINE.point(5.0), pairs))

    # each trace is measured by the metric of the line or the plane, as its
    # width says; gaps is what that metric gives
    @pytest.mark.parametrize("coords, gaps", [
        # coordinates and gaps repeat with period 2 from the start
        ([[1.0], [2.0], [1.0], [2.0], [1.0], [2.0]], [1.0] * 5),
        # the gaps repeat but the coordinates do not
        ([[1.0], [2.0], [3.0], [4.0], [5.0]], [1.0, 1.0, 1.0, 1.0]),
        # equal under == two rows apart, never bit-identical
        ([[0.0], [1.0], [-0.0], [1.0], [0.0], [1.0], [-0.0]], [1.0] * 6),
        # bit-periodic from row 3, with signed zeros
        ([[5.0], [-0.0], [0.0], [-0.0], [0.0], [-0.0]], [5.0, 0.0, 0.0, 0.0, 0.0]),
        # the last row differs, so the gap changes on the last gap row only
        ([[1.0, -0.0]] * 5 + [[1.0, 2.0]], [0.0, 0.0, 0.0, 0.0, 2.0]),
        ([[7.0]], []),
        (np.empty((0, 2)), []),
    ])
    def test_directly_built_traces(self, coords, gaps):
        space = PLANE if np.shape(coords)[1] == 2 else LINE
        tr = IterationTrace(coords=coords, generator="direct", premetric=metric_premetric(space),
                            status="completed")
        assert tr.gaps.tobytes() == np.array(gaps, dtype=float).tobytes()
        assert tr.to_csv() == to_csv_reference(tr)

    def test_signed_zero_gaps(self):
        # 0 * (d - 1) gives -0.0 where d < 1: the gaps alternate in sign bit
        tr = IterationTrace(coords=[[5.0], [-0.0], [0.5], [2.0], [2.5], [4.0]],
                            generator="direct", premetric=SIGNED_ZERO, status="completed")
        assert list(map(repr, tr.gaps.tolist())) == ["0.0", "-0.0", "0.0", "-0.0", "0.0"]
        assert tr.to_csv() == to_csv_reference(tr)

    def test_heads_past_the_writers_blocks(self):
        """Heads longer than one block of the vectorised row writer, at its
        own size and shrunk to a few rows, with signed zeros, subnormal
        coordinates and gaps in scientific notation."""
        _csv_pinned(sequence_trace("harmonic", LINE, BLOCK_VALUES + 7))
        # the 1-norm keeps subnormal gaps: no square underflows to zero
        taxi = Space(id="taxi", dimension=1, norm=1.0)
        line = IterationTrace(coords=[[-0.0], [5e-324], [0.0], [-2.5e-310], [1e-5], [-0.0],
                                      [3e22], [1e-300]] * 3,
                              generator="direct", premetric=metric_premetric(taxi),
                              status="completed")
        plane = IterationTrace(coords=[[-0.0, 1e-7], [0.0, -0.0], [2.5e-310, 1e16]] * 3,
                               generator="direct", premetric=metric_premetric(PLANE),
                               status="completed")
        with mock.patch.object(_floatrepr, "BLOCK_VALUES", 6):
            _csv_pinned(line)
            _csv_pinned(plane)

    @given(start=st.sampled_from((2, 3, 8, 9, 10, 11, 97, 98, 99, 100, 9997, 9998, 99_999)),
           length=st.one_of(st.integers(0, 30), st.just(20_003)),
           suffixes=st.lists(st.sampled_from((",0.5,0.25", ",-0.0,", ",5e-324,1e+22", ",1.0,0.0")),
                             min_size=2, max_size=2))
    def test_tail_rows_equal_the_row_loop(self, start, length, suffixes):
        """Tails that start on either parity just below, on and past a
        change of digit count, or run across several, of odd and even
        lengths, with suffixes of different widths."""
        assert _tail_rows(start, start + length, suffixes) == \
            tail_rows_reference(start, start + length, suffixes)


# ---------------------------------------------------------------------------
# A trace's gaps are its premetric's diagonal over its coordinates


BUILDERS = ("picard", "alternating", "cyclic_even", "sequence", "points")
GAP_MAPS = ("half", "mk", "translation", "flip", "neg", "cyclic_reflect")


@st.composite
def built_traces(draw):
    """A trace from one of the builders, on a space of 1-3 coordinates under
    the euclidean norm or a p-norm, measured by the metric, the cyclic shift
    of two sets (intervals on the line, disks above it) or the metric
    composed with a gauge."""
    d = draw(st.integers(1, 3))
    space = Space(id=f"space{d}", dimension=d, norm=draw(st.sampled_from(("euclidean", 1.0, 3.0))))
    if d == 1:
        sets = IntervalSet(space, 1.0, math.inf), IntervalSet(space, -math.inf, -1.0)
    else:
        sets = tuple(DiskSet(space, (c,) + (0.0,) * (d - 1), 1.0) for c in (2.0, -2.0))
    setting = CyclicSetting.derive(space, *sets)
    p = draw(st.sampled_from((metric_premetric(space), shifted_premetric(setting),
                              composed_premetric(builtin_gauge("mk"), metric_premetric(space)))))
    coords = st.lists(st.floats(-50.0, 50.0, allow_nan=False), min_size=d, max_size=d)
    seed = space.point(*draw(coords))
    steps = draw(st.integers(1, 40))
    m, s = (builtin_map(draw(st.sampled_from(GAP_MAPS)), space) for _ in range(2))
    builder = draw(st.sampled_from(BUILDERS if d == 1 else BUILDERS[:3] + BUILDERS[4:]))
    if builder == "picard":
        return picard_trace(m, seed, steps, premetric=p)
    if builder == "alternating":
        return alternating_trace(AlternatingSchedule(m, s), seed, steps, premetric=p)
    if builder == "cyclic_even":
        inside = (1.0 + abs(seed.coords[0]),) if d == 1 else \
            (2.0 + seed.coords[0] / 100.0,) + (0.0,) * (d - 1)
        # measured under the setting's shifted premetric, whatever p was drawn
        return cyclic_even_trace(m, setting, space.point(*inside), steps)
    if builder == "sequence":
        return sequence_trace("harmonic", space, steps + 1, premetric=p)
    rows = [draw(coords) for _ in range(steps + 1)]
    return IterationTrace(coords=rows, generator="points", premetric=p, status="completed")


class TestDerivedGaps:
    @given(tr=built_traces())
    def test_gaps_are_the_premetric_diagonal(self, tr):
        want = premetric_diagonal(tr.premetric, tr.coords[:-1], tr.coords[1:])
        assert tr.gaps.tobytes() == want.tobytes()
        assert tr.gaps.shape == (max(0, len(tr) - 1),)
        if len(tr) >= 3:
            shifted = tr.companion_shift()
            assert shifted.gaps.tobytes() == tr.gaps[1:].tobytes()
            assert shifted.premetric is tr.premetric

    def test_gaps_follow_the_coordinates(self):
        # unit steps: INEQFP with F = id and psi = half fails at every step
        tr = IterationTrace(coords=[[0.0], [1.0], [2.0], [3.0]], generator="unit steps",
                            premetric=metric_premetric(LINE), status="completed")
        assert tr.gaps.tolist() == [1.0, 1.0, 1.0]
        rep = consecutive_contraction_report(tr, builtin_gauge("id"), builtin_gauge("half"))
        assert rep.verdict is Verdict.FAIL
        assert [w["n"] for w in rep.witnesses] == [1, 2]


# ---------------------------------------------------------------------------
# The witness scan against its (sigma, m) loop

WITNESS_STEPS = st.sampled_from((-0.7, -0.4, -0.25, 0.0, 0.1, 0.3, 0.5, 0.6, 0.8))
# the free head points lie far apart, so these premetrics have no working
# range a drawn gap could leave; test_scan_raises_only_where_the_loop_reads
# draws walks whose gaps leave one
WITNESS_PREMETRICS = {"metric": metric_premetric(LINE),
                      "half": SOLVE_PREMETRICS[LINE]["half"],
                      "composed-mk": _composed(LINE, 1000.0)}


def _settled_trace(xs, premetric):
    """A hand-built 1-d trace through the points xs."""
    return IterationTrace(coords=np.array(xs, dtype=float)[:, None], generator="hand-built",
                          premetric=premetric, status="completed")


class TestNoncauchyWitnessScan:
    @given(head=st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=3),
           steps=st.lists(WITNESS_STEPS, min_size=3, max_size=40),
           p_name=st.sampled_from(sorted(WITNESS_PREMETRICS)),
           eps=st.sampled_from((0.2, 0.5, 1.0)), gap_tol=st.sampled_from((0.3, 0.8, 1.0)))
    def test_scan_equals_the_loop(self, head, steps, p_name, eps, gap_tol):
        """A few free points, then a walk of small steps that may settle."""
        xs = list(head)
        for step in steps:
            xs.append(xs[-1] + step)
        tr = _settled_trace(xs, WITNESS_PREMETRICS[p_name])
        got = _outcome_text(extract_noncauchy_witness, tr, eps=eps, gap_tol=gap_tol)
        assert got == _outcome_text(noncauchy_witness_reference, tr, eps=eps, gap_tol=gap_tol)

    @given(steps=st.lists(WITNESS_STEPS, min_size=3, max_size=30),
           t_max=st.sampled_from((1.0, 1.5, 2.0)), eps=st.sampled_from((0.2, 0.3)),
           gap_tol=st.sampled_from((0.3, 0.8)))
    def test_scan_raises_only_where_the_loop_reads(self, steps, t_max, eps, gap_tol):
        """A walk that comes to rest, its gaps under a gauge whose working
        range the walk may leave; the consecutive gaps stay in range."""
        xs = [0.0]
        for step in steps:
            xs.append(xs[-1] + step)
        xs += [xs[-1]] * len(steps)  # at rest, so the consecutive gaps decay
        tr = _settled_trace(xs, _composed(LINE, t_max))
        got = _outcome_text(extract_noncauchy_witness, tr, eps=eps, gap_tol=gap_tol)
        assert got == _outcome_text(noncauchy_witness_reference, tr, eps=eps, gap_tol=gap_tol)

    # points after one large step, scanned with eps 0.5 and gap_tol 0.8, so
    # the scan starts at sigma = 1 (x = 0); the witness and its parity counts
    CASES = {
        # rho - sigma = 4 is even; k = 5 straddles x_3 = 0.45
        "kept": ([50.0, 0.0, 0.3, 0.45, 0.7, 1.1, 1.1], (1, 5, 5, 0.45), (1, 0)),
        # rho = 4 is odd and x_5 = 1.6 is still far
        "rho+1": ([50.0, 0.0, 0.4, 0.8, 1.2, 1.6, 1.6], (1, 5, 3, 0.0), (0, 1)),
        # rho = 4 is odd, x_5 = 0.5 is not far, x_3 = 0.8 is
        "rho-1": ([50.0, 0.0, 0.4, 0.8, 1.2, 0.5, 0.5], (1, 3, 3, 0.0), (0, 1)),
        # from sigma = 1 neither neighbour of rho = 4 is far, so the scan
        # skips to sigma = 5, where rho = 8 is the last point and x_7 is far
        "skip": ([50.0, 0.0, 0.3, 0.5, 1.2, 0.5, 0.5, 1.1, 1.7], (5, 7, 7, 0.0), (0, 1)),
    }

    def test_the_scan_reads_no_gap_past_rho(self):
        # from sigma = 0, rho = 2 (gap mk(0.8) = 0.44 > 0.4) comes before the
        # first gap outside the gauge's range [0, 1.5] (x_3 = 1.6), so the
        # scan reports found instead of that gap's range error
        tr = _settled_trace([0.0, 0.3, 0.8, 1.6, 1.7], _composed(LINE, 1.5))
        got = _outcome_text(extract_noncauchy_witness, tr, eps=0.2, gap_tol=0.8)
        assert got == _outcome_text(noncauchy_witness_reference, tr, eps=0.2, gap_tol=0.8)
        wit = json.loads(got)["witness"]
        assert (wit["sigma"], wit["rho"], wit["k"]) == ([0], [2], [2])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_parity_cases(self, case):
        xs, (sigma, rho, k, straddle), (kept, shifted) = self.CASES[case]
        tr = _settled_trace(xs, metric_premetric(LINE))
        got = _outcome_text(extract_noncauchy_witness, tr, eps=0.5, gap_tol=0.8)
        assert got == _outcome_text(noncauchy_witness_reference, tr, eps=0.5, gap_tol=0.8)
        wit = json.loads(got)["witness"]
        assert (wit["sigma"], wit["rho"], wit["k"], wit["straddle_gaps"]) == \
            ([sigma], [rho], [k], [straddle])
        assert wit["parity_note"] == \
            f"parity kept {kept} time(s), corrected by one index {shifted} time(s)"


# ---------------------------------------------------------------------------
# Axioms: the batched block against the per-triple loop it replaced


# Every premetric fplab builds is symmetric bit for bit, so AX-SYM's failing
# case is this stand-in: a metric claim set whose values _asymmetric_rule
# swaps for |x0 - y0| + max(x1 - y1, 0) in the kernel and in the reference.
ASYMMETRIC = Premetric(kind="metric", space=PLANE, claims=frozenset({"symmetric", "triangle"}))


@contextlib.contextmanager
def _asymmetric_rule():
    kernel, ref = spaces_mod._premetric_rule, reference.premetric_reference

    def kernel_rule(p, a, b):
        if p is not ASYMMETRIC:
            return kernel(p, a, b)
        return np.abs(a[..., 0] - b[..., 0]) + np.maximum(a[..., 1] - b[..., 1], 0.0)

    def reference_rule(p, a, b):
        if p is not ASYMMETRIC:
            return ref(p, a, b)
        return abs(a[0] - b[0]) + max(a[1] - b[1], 0.0)

    with mock.patch.object(spaces_mod, "_premetric_rule", kernel_rule), \
            mock.patch.object(reference, "premetric_reference", reference_rule):
        yield


AXIOM_PREMETRICS = {
    "metric": metric_premetric(PLANE),
    "shifted_cyclic": shifted_premetric(SETTING),
    "composed": composed_premetric(builtin_gauge("mk"), metric_premetric(PLANE),
                                   claims=frozenset({"triangle", "tau_distance"})),
    # any distance above 5 leaves the gauge's working range
    "composed-short": composed_premetric(builtin_gauge("half", t_max=5.0),
                                         metric_premetric(PLANE),
                                         claims=frozenset({"triangle"})),
    # the squared distance breaks the triangle inequality on most triples
    "squared": Premetric(kind="composed", space=PLANE,
                         claims=frozenset({"symmetric", "triangle", "tau_distance",
                                           "mixed_triangle"}),
                         gauge=expression_gauge("t * t"), inner=metric_premetric(PLANE),
                         companion=metric_premetric(PLANE)),
    "asymmetric": ASYMMETRIC,
    # nonnegative itself, but its companion goes negative below distance 3
    "negative-companion": Premetric(
        kind="metric", space=PLANE, claims=frozenset({"symmetric", "mixed_triangle"}),
        companion=composed_premetric(expression_gauge("t - 3"), metric_premetric(PLANE))),
}
ETAS = (1e-9, 1e-3, 0.5, 4.0)
AXIOM_COORDS = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5, 20.0, -20.0)), small)


def _triples(rows):
    return [tuple(PLANE.point(*xy) for xy in triple) for triple in rows]


def _axiom_outcomes(p, rows, eta):
    """verify_premetric_axioms on the (m, 3, 2) block of rows, and the loop
    on the same triples as Points."""
    with _asymmetric_rule():
        return (_outcome_text(verify_premetric_axioms, p, np.array(rows, dtype=float),
                              eta=eta),
                _outcome_text(axioms_reference, p, _triples(rows), eta=eta))


class TestAxiomVerification:
    @given(name=st.sampled_from(sorted(AXIOM_PREMETRICS)), eta=st.sampled_from(ETAS),
           rows=st.lists(st.tuples(*[st.tuples(AXIOM_COORDS, AXIOM_COORDS)] * 3),
                         min_size=1, max_size=12))
    def test_reports_equal_the_triple_loop(self, name, eta, rows):
        got, want = _axiom_outcomes(AXIOM_PREMETRICS[name], rows, eta)
        assert got == want

    # (premetric, triples, the start of the outcome)
    CASES = {
        "more-than-8": ("squared", [((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                                    ((0.0, 0.0), (0.0, 3.0), (0.0, 5.0)),
                                    ((1.0, 1.0), (2.0, 2.0), (4.0, 4.0)),
                                    ((-1.0, 0.0), (0.5, 0.5), (3.0, -1.0)),
                                    ((0.0, 2.0), (1.0, 2.0), (5.0, 2.0)),
                                    ((2.0, 0.0), (0.0, 2.0), (1.0, 1.0))], "["),
        "asymmetric": ("asymmetric", [((0.0, 0.0), (0.0, 1.0), (0.0, 2.0))] * 5, "["),
        "out-of-range": ("composed-short", [((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                                            ((0.0, 0.0), (0.0, 4.0), (0.0, 9.0))],
                         "InputError: gauge 'half' evaluated at t=9.0"),
        "companion-negative": ("negative-companion",
                               [((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
                                ((0.0, 0.0), (9.0, 0.0), (2.0, 0.0))],
                               "InputError: premetric composed(t - 3, metric)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cases(self, case):
        name, rows, start = self.CASES[case]
        got, want = _axiom_outcomes(AXIOM_PREMETRICS[name], rows, 1e-9)
        assert got == want
        assert got.startswith(start)
        if case == "more-than-8":
            reports = json.loads(got)
            assert [len(r["witnesses"]) for r in reports] == [0, 8, 8, 8, 8]
        if case == "asymmetric":
            assert len(json.loads(got)[0]["witnesses"]) == 8

    @pytest.mark.parametrize(("sample", "message"), [
        ([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0,), (2.0, 0.0)]], "(m, 3, 2)"),
        ([[(0.0,), (1.0,), (2.0,)]], "(m, 3, 2)"),
        ([[(0.0, 0.0), (1.0, 0.0)]], "(m, 3, 2)"),
        ([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], "(m, 3, 2)"),
        ([[(0.0, 0.0), (1.0, math.inf), (2.0, 0.0)]], "(m, 3, 2)"),
        (_triples([((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))]), "(m, 3, 2)"),
        ([], "non-empty triple sample"),
        (np.empty((0, 3, 2)), "non-empty triple sample"),
    ], ids=["point-off-the-plane", "line-triples", "pairs", "one-triple-unblocked",
            "non-finite", "point-triples", "empty-list", "empty-block"])
    def test_a_sample_that_is_no_block_is_refused(self, sample, message):
        # coordinate rows carry no space tag: a point off the plane shows as
        # a ragged or wrong-width block, refused before any evaluation, and
        # so is a list of Point triples
        got = _outcome_text(verify_premetric_axioms, metric_premetric(PLANE), sample)
        assert got.startswith("InputError: ")
        assert message in got

    def test_an_out_of_range_triangle_claim_raises_like_the_loop(self):
        """A triangle claim alone, with no symmetry claim: the block's largest
        value out of the gauge's range is p(x_0, x_1) = 9, but the per-triple
        loop meets p(x_0, x_2) = 6 first, so the replay through the
        triangle's pairs picks the message.  Built directly, since
        composed_premetric would add the inner metric's symmetry claim."""
        p = Premetric(kind="composed", space=PLANE, claims=frozenset({"triangle"}),
                      gauge=builtin_gauge("half", t_max=5.0), inner=metric_premetric(PLANE))
        got, want = _axiom_outcomes(p, [((0.0, 0.0), (9.0, 0.0), (6.0, 0.0))], 1e-9)
        assert got == want
        assert got.startswith("InputError: gauge 'half' evaluated at t=6.0")


# ---------------------------------------------------------------------------
# Gauge probes: the batched regularity, C6 and C7 passes against the scalar
# walks they replaced


def _probe_outcome(check, *args, **kwargs):
    """Report JSON text, or the class and message of the error raised."""
    try:
        out = check(*args, **kwargs)
    except (InputError, ConfigurationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(sanitize(out if isinstance(out, list) else [out]))


# the jump step01; t + 1 and 2 * t, which leave a small t_max; a pole at 1;
# a constant; a spike at 1 that no one-sided limit reaches
PROBE_GAUGES = ("half", "mk", "id", "step01", "t + 1", "2 * t", "t / (t - 1)", "0.5",
                "max(0, 1 - 1e12 * abs(t - 1))")
PROBE_T_MAX = st.sampled_from((1e3, 2.5))


def _probe_gauge(name, t_max, profile=None):
    if name in GAUGE_BUILTINS:
        return builtin_gauge(name, t_max=t_max, profile=profile)
    return expression_gauge(name, t_max=t_max, profile=profile or frozenset())


def _iterated(name, t_max=1e3):
    """Declared zero-fixed, whatever the base does at 0, so that check_asmk
    walks every drawn family."""
    return GaugeFamily(kind="iterated", zero_fixed=True, base=_probe_gauge(name, t_max))


@st.composite
def probe_families(draw):
    t_max = draw(PROBE_T_MAX)
    if draw(st.booleans()):
        return _iterated(draw(st.sampled_from(PROBE_GAUGES)), t_max)
    # at most 5 members: shorter than most horizons drawn below
    names = draw(st.lists(st.sampled_from(PROBE_GAUGES), min_size=1, max_size=5))
    return explicit_family([_probe_gauge(n, t_max) for n in names], zero_fixed=True)


PROBE_EPS = st.lists(st.one_of(st.sampled_from((0.0, -0.5, 0.125, 0.5, 1.0, 2.0, 2.5)),
                               st.floats(min_value=0.01, max_value=3.0)),
                     min_size=1, max_size=3).map(tuple)
# None is the default 21 halvings; drawn lists may be unsorted, so a band
# visited late can leave the working range while an early one passes; 1e-17
# is below half an ulp of most drawn eps, a band of one point
PROBE_DELTAS = st.one_of(st.none(), st.lists(st.sampled_from((1.0, 0.5, 0.25, 2.0 ** -10, 3.0,
                                                              1e4, 1e-17)),
                                             max_size=4).map(tuple))
PROBE_ETA = st.sampled_from((1e-9, 1e-12, 1e-3, 0.1))


def _each_probe_gauge(test):
    """Every probe gauge once with its whole profile, at both t_max in
    turn, whatever the drawn examples pick."""
    for i, name in enumerate(PROBE_GAUGES):
        test = example(name=name, t_max=(1e3, 2.5)[i % 2], profile=PROFILE_NAMES,
                       eta=1e-9)(test)
    return test


class TestGaugeProbes:
    # each example walks the reference's scalar probes (~10 ms), so fewer are
    # drawn; the explicit ones keep every probe gauge in
    @settings(max_examples=40)
    @_each_probe_gauge
    @given(name=st.sampled_from(PROBE_GAUGES), t_max=PROBE_T_MAX,
           profile=st.frozensets(st.sampled_from(sorted(PROFILE_NAMES)), min_size=1),
           eta=PROBE_ETA)
    def test_regularity_equals_the_grid_loop(self, name, t_max, profile, eta):
        g = _probe_gauge(name, t_max, profile)
        got = _probe_outcome(verify_gauge_regularity, g, eta=eta)
        assert got == _probe_outcome(regularity_reference, g, eta=eta)

    @given(family=probe_families(), eps_grid=PROBE_EPS, n_horizon=st.integers(1, 24),
           eta=PROBE_ETA)
    def test_c6_equals_the_eps_loop(self, family, eps_grid, n_horizon, eta):
        got = _probe_outcome(check_family_C6, family, eps_grid, n_horizon, eta)
        assert got == _probe_outcome(c6_reference, family, eps_grid, n_horizon, eta)

    def test_c6_meets_the_walks_first_error(self):
        # the block leaves the range at eps 1.5 (member 2 reads 3.0) before
        # eps 0.5 does (member 3 reads 4.0), yet the walk finishes eps 0.5 first
        family = iterated_family(_probe_gauge("2 * t", 2.5))
        got = _probe_outcome(check_family_C6, family, (0.5, 1.5), 8)
        assert got == _probe_outcome(c6_reference, family, (0.5, 1.5), 8)
        assert got.startswith("InputError: gauge '2 * t' evaluated at t=4.0 ")

    @given(family=probe_families(), eps_grid=PROBE_EPS, deltas=PROBE_DELTAS,
           nu_horizon=st.integers(0, 20), eta=PROBE_ETA)
    def test_c7_equals_the_band_walk(self, family, eps_grid, deltas, nu_horizon, eta):
        args = (family, eps_grid, deltas, nu_horizon, eta)
        got = _probe_outcome(check_family_C7_multi, *args)
        assert got == _probe_outcome(c7_multi_reference, *args)
        # the first eps's report, before the merge keeps two of its witnesses
        got = _probe_outcome(_c7_reports, family, eps_grid[:1], *args[2:])
        assert got == _probe_outcome(c7_reference, family, eps_grid[0], *args[2:])

    # (family base or members, eps grid, deltas, nu horizon, expected outcome start)
    C7_CASES = {
        # member 10 at t = 2 reads 2 * 2^9 = 1024 > 1000, which the walk, defeated
        # at t = 1 in every band, never reaches; member 11 at t = 1 reads it too
        "unvisited-out-of-range": ("2 * t", (1.0,), None, 10, "INCONCLUSIVE"),
        "visited-out-of-range": ("2 * t", (1.0,), None, 11, "InputError: gauge '2 * t'"),
        # a band after the passing one leaves the working range
        "late-band-out-of-range": ("mk", (1.0,), (1.0, 1e4), 64, "PASS"),
        "non-positive-eps": ("mk", (1.0, 0.0), None, 64, "InputError: C7 needs eps > 0"),
        # the pole: 0.5 / (0.5 - 1) = -1 hits at nu 1, and member 2 is out of range
        "out-of-range-past-the-hit": ("t / (t - 1)", (0.5,), None, 4, "InputError"),
        "explicit-short": (["id", "half"], (1.0, 0.5), None, 64, "PASS"),
    }

    @pytest.mark.parametrize("case", sorted(C7_CASES))
    def test_c7_cases(self, case):
        spec, eps_grid, deltas, nu_horizon, expected = self.C7_CASES[case]
        family = (_iterated(spec) if isinstance(spec, str) else
                  explicit_family([_probe_gauge(n, 1e3) for n in spec], zero_fixed=True))
        args = (family, eps_grid, deltas, nu_horizon, 1e-9)
        got = _probe_outcome(check_family_C7_multi, *args)
        assert got == _probe_outcome(c7_multi_reference, *args)
        if not got.startswith("InputError"):
            got = json.loads(got)[0]["verdict"].upper()
        assert got.startswith(expected)

    def test_default_bands_are_the_per_delta_linspace(self):
        budget = SearchBudget()
        eps = np.array(budget.eps_grid)[:, None]
        stops = eps + np.array(budget.delta_candidates)
        block = np.linspace(eps, stops, 17, axis=-1)
        for i, e in enumerate(budget.eps_grid):
            for j, delta in enumerate(budget.delta_candidates):
                row = np.linspace(e, e + delta, 17)
                assert block[i, j].tobytes() == row.tobytes()

    def test_the_batched_probes_make_no_scalar_calls(self):
        calls = []
        real = Gauge.__call__

        def counted(self, t):
            calls.append(t)
            return real(self, t)

        mk = builtin_gauge("mk")
        fam = GaugeFamily(kind="iterated", zero_fixed=True, base=mk)
        with mock.patch.object(Gauge, "__call__", counted):
            verify_gauge_regularity(mk)
            budget = SearchBudget()
            check_family_C6(fam, budget.eps_grid)
            check_family_C7_multi(fam, budget.eps_grid, budget.delta_candidates)
        # zero_at_zero reads g(0.0) itself
        assert calls == [0.0]


# ---------------------------------------------------------------------------
# The family walk: C8/C9 and E1/E2 against the per-kind branch loops


def _line_trace(values) -> IterationTrace:
    coords = np.asarray(values, dtype=float)[:, None]
    return IterationTrace(coords=coords, generator="direct", premetric=metric_premetric(LINE),
                          status="completed")


# small grids, so that C6 and C7 stay in a 2.5 working range for a few
# members and the C8/C9 walk is reached by families that leave it later
FAMILY_BUDGET = {"eps_grid": (0.05,), "delta_candidates": (0.05,)}


@st.composite
def asmk_cases(draw):
    """check_asmk's positional and keyword arguments: two line orbits whose
    values shrink at a drawn rate (rate 1 never does), so members dominate
    some shifts and not others; families as in probe_families, some shorter
    than the horizon and some leaving a 2.5 working range (a gap of 3.0
    starts outside it); F one of the regular builtins."""
    ih, nh = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    n = ih + nh + draw(st.integers(0, 2))
    values = st.sampled_from((0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 3.0))
    decay = draw(st.sampled_from((1.0, 0.75, 0.5))) ** np.arange(n)
    xs = np.array(draw(st.lists(values, min_size=n, max_size=n))) * decay
    ys = (np.array(draw(st.lists(values, min_size=n, max_size=n))) * decay
          if draw(st.booleans()) else np.zeros(n))
    budget = SearchBudget(index_horizon=ih, nu_horizon=nh, slack=draw(PROBE_ETA),
                          **FAMILY_BUDGET)
    return ((_line_trace(xs), _line_trace(ys),
             builtin_gauge(draw(st.sampled_from(("id", "mk", "half")))), draw(probe_families())),
            {"budget": budget, "variant": draw(st.sampled_from(ASMK_VARIANTS))})


def _asmk_case(family, xs, ys, ih, nh):
    budget = SearchBudget(index_horizon=ih, nu_horizon=nh, **FAMILY_BUDGET)
    return (_line_trace(xs), _line_trace(ys), builtin_gauge("id"), family), budget


def _explicit(*members):
    """Members given as (name, t_max)."""
    return explicit_family([_probe_gauge(*m) for m in members], zero_fixed=True)


class TestFamilyWalk:
    @given(case=asmk_cases())
    def test_check_asmk_equals_the_branch_loop(self, case):
        args, kwargs = case
        got = _probe_outcome(check_asmk, *args, **kwargs)
        assert got == _probe_outcome(check_asmk_reference, *args, **kwargs)

    # (check_asmk's positional arguments and budget, the C8/C9 verdict, and
    # its witnesses' last entry or the start of the error)
    ASMK_CASES = {
        # two members cover shifts 1..2 of the horizon's 6
        "explicit-short": (_asmk_case(_explicit(("half", 1e3), ("0.25 * t", 1e3)),
                                      0.5 ** np.arange(10), np.zeros(10), 4, 6),
                           "inconclusive", {"checked_shifts": 2, "checked_indices": 4}),
        # constant gaps defeat each halving member at every index: 2 witnesses
        # per shift, and the walk stops at 8, after shift 4 of 6
        "eight-defeats": (_asmk_case(_iterated("half"), np.arange(12.0), np.arange(12.0) + 1,
                                     5, 6),
                          "fail", {"n": 4, "i": 1, "lhs": 1.0, "rhs": 0.0625}),
        # member 3 of 2t reads member 2's 4.0, past the 2.5 range; C6 (below 4
        # members) is not run and C7 (near eps 0.05) stays inside the range
        "iterated-out-of-range": (_asmk_case(_iterated("2 * t", 2.5), np.ones(8), np.zeros(8),
                                             3, 3),
                                  None, "InputError: gauge '2 * t' evaluated at t=4.0 "),
        # member 2 reads the gap 2.0 past its 1.5 range, after member 1's defeats
        "explicit-out-of-range": (_asmk_case(_explicit(("half", 1e3), ("t + 1", 1.5)),
                                             2.0 * np.ones(8), np.zeros(8), 3, 3),
                                  None, "InputError: gauge 't + 1' evaluated at t=2.0 "),
    }

    @pytest.mark.parametrize("variant", ASMK_VARIANTS)
    @pytest.mark.parametrize("case", sorted(ASMK_CASES))
    def test_check_asmk_cases(self, case, variant):
        (args, budget), verdict, last = self.ASMK_CASES[case]
        got = _probe_outcome(check_asmk, *args, budget=budget, variant=variant)
        assert got == _probe_outcome(check_asmk_reference, *args, budget=budget, variant=variant)
        if verdict is None:
            assert got.startswith(last)
            return
        report = json.loads(got)[2]
        assert report["verdict"] == verdict
        assert len(report["witnesses"]) == (8 if verdict == "fail" else 1)
        if variant == "asmk1" or verdict == "inconclusive":
            assert report["witnesses"][-1] == last

    @given(family=probe_families(), n=st.integers(0, 12),
           t=st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.5)), st.floats(0.0, 3.0)))
    def test_iterate_gauge_equals_the_scalar_loop(self, family, n, t):
        """_members' walk from t, member by member, against each member
        rebuilt from t with scalar calls."""
        def bits(members):
            try:
                return [np.float64(v).tobytes() for v in members()]
            except InputError as exc:
                return str(exc)

        count = n if family.kind == "iterated" else min(n, len(family.members))
        assert bits(lambda: list(_members(family, t, n))) == \
            bits(lambda: [iterate_gauge_reference(family, k, t) for k in range(1, count + 1)])


# ---------------------------------------------------------------------------
# The JSON form of a result: sanitize against the hand-written methods it
# replaced


JSON_REFERENCES = {
    SearchBudget: budget_json_reference,
    CertificateReport: report_json_reference,
    SolveResult: solve_json_reference,
    CauchyCertificate: certificate_json_reference,
    NonCauchyWitness: noncauchy_json_reference,
    WitnessScan: scan_json_reference,
}


def _results(value):
    """Every result object inside a run payload, nested ones included."""
    if type(value) in JSON_REFERENCES:
        yield value
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from _results(v)


def _assert_json_form(obj):
    want = JSON_REFERENCES[type(obj)](obj)
    got = sanitize(obj)
    assert got == want
    # == takes 1 for 1.0 and a Verdict for its value; the text does not
    assert json.dumps(got, sort_keys=True, indent=2) == json.dumps(want, sort_keys=True, indent=2)


class TestSanitize:
    def test_every_gallery_result_equals_its_method(self, tmp_path):
        written = []
        real = runner_mod._Sink.write_json

        def spy(sink, name, obj):
            written.append(obj)
            real(sink, name, obj)

        with mock.patch.object(runner_mod._Sink, "write_json", spy):
            for entry in GALLERY:
                fplab.run_scenario_doc(entry.doc, str(tmp_path / entry.name), seed=0,
                                       expectations=entry.expectations)
        found = [obj for payload in written for obj in _results(payload)]
        assert {type(obj) for obj in found} == set(JSON_REFERENCES)
        for obj in found:
            _assert_json_form(obj)

    def test_edge_cases(self):
        line = Space(id="line", dimension=1)
        report = CertificateReport("X", Verdict.PASS, [witness(n=np.int64(3))], None, "note")
        harmonic = sequence_trace("harmonic", line, 1000)
        found = extract_noncauchy_witness(harmonic)
        assert found.witness is not None
        for obj in (
            SolveResult(line.point(2.0), float("inf"), 7, False),
            WitnessScan("none", None, "no separated pairs"),
            found,
            report,
            CertificateReport("Y", Verdict.FAIL, [witness(x=[1.0])], SearchBudget(slack=1), ""),
            CauchyCertificate("tau", (), report, Verdict.PASS),
        ):
            _assert_json_form(obj)

    def test_a_point_is_its_coordinate_list(self):
        plane = Space(id="plane", dimension=2)
        assert sanitize({"x": plane.point(np.float64(1.5), 2)}) == {"x": [1.5, 2.0]}


# ---------------------------------------------------------------------------
# The benchmark's tracer wraps fplab functions by name


def _tracing_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing_module()
    names = [(module, attr) for module, attrs in tracing.SPANNED.items() for attr in attrs]
    names += list(tracing.COUNTED.values())
    for module, attr in names:
        owner = getattr(fplab, module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"fplab.{module}.{attr} is traced but gone"
    for fn in (fplab.spaces.premetric_matrix, fplab.spaces.premetric_diagonal):
        assert {"xs", "ys"} <= set(inspect.signature(fn).parameters)
