"""Spaces, premetrics, regions and cyclic set pairs."""

import math

import numpy as np
import pytest

from fplab.errors import ConfigurationError, InputError
from fplab.reports import Verdict
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
    sample_pairs,
    shifted_premetric,
    verify_premetric_axioms,
)
from fplab.gauges import builtin_gauge, expression_gauge

LINE = Space(id="line", dimension=1)
PLANE = Space(id="plane", dimension=2)


class TestSpaceBasics:
    def test_euclidean_distance(self):
        assert PLANE.distance(PLANE.point(0.0, 0.0), PLANE.point(3.0, 4.0)) == 5.0

    def test_p_norm(self):
        sp = Space(id="taxi", dimension=2, norm=1.0)
        assert sp.distance(sp.point(0.0, 0.0), sp.point(3.0, 4.0)) == 7.0

    def test_point_dimension_guard(self):
        with pytest.raises(InputError):
            LINE.point(1.0, 2.0)

    def test_membership_guard(self):
        other = Space(id="elsewhere", dimension=1)
        with pytest.raises(InputError):
            LINE.distance(LINE.point(0.0), other.point(1.0))

    def test_distance_matrix_matches_scalar(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        b = np.array([[3.0, 4.0], [1.0, 2.0], [-1.0, 0.5]])
        mat = PLANE.distances(a[:, None], b[None])
        assert mat.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert mat[i, j] == pytest.approx(
                    PLANE.distance(PLANE.point(*a[i]), PLANE.point(*b[j])))


class TestRegionsAndSets:
    def test_box_sampling_stays_inside(self):
        box = Box((-2.0, 0.0), (3.0, 1.0))
        rng = np.random.default_rng(7)
        coords = box.sample_coords(rng, 100)
        assert coords.shape == (100, 2)
        assert (coords[:, 0] >= -2.0).all() and (coords[:, 0] <= 3.0).all()
        assert (coords[:, 1] >= 0.0).all() and (coords[:, 1] <= 1.0).all()

    def test_default_region(self):
        box = default_region(PLANE)
        assert box.lows == (-10.0, -10.0) and box.highs == (10.0, 10.0)

    def test_interval_contains_and_guards(self):
        s = IntervalSet(LINE, 1.0, math.inf)
        assert s.contains_coords([1.0])
        assert not s.contains_coords([0.999])
        assert s.contains_coords([[1.0], [0.999], [1e300]]).tolist() == [True, False, True]
        with pytest.raises(ConfigurationError):
            IntervalSet(LINE, 2.0, 1.0)
        with pytest.raises(ConfigurationError):
            IntervalSet(PLANE, 0.0, 1.0)

    def test_disk_contains(self):
        d = DiskSet(PLANE, (1.0, 1.0), 2.0)
        assert d.contains_coords([2.0, 2.0])
        assert not d.contains_coords([4.0, 1.0])
        assert d.contains_coords([[2.0, 2.0], [4.0, 1.0]]).tolist() == [True, False]

    def test_box_contains_row_by_row(self):
        box = Box((-2.0, 0.0), (3.0, 1.0))
        assert box.contains_coords([3.0, 0.0])
        assert not box.contains_coords([3.5, 0.0])
        assert box.contains_coords([[0.0, 0.5], [0.0, 1.5], [-2.0, 1.0]]).tolist() == \
            [True, False, True]

    @pytest.mark.parametrize("build", [
        lambda: IntervalSet(LINE, math.nan, 1.0),
        lambda: IntervalSet(LINE, -1.0, math.nan),
        lambda: IntervalSet(LINE, math.nan, math.nan),
        lambda: DiskSet(PLANE, (0.0, 0.0), math.nan),
        lambda: DiskSet(PLANE, (0.0, 0.0), math.inf),
        lambda: DiskSet(PLANE, (math.inf, 0.0), 1.0),
        lambda: DiskSet(PLANE, (0.0, math.nan), 1.0),
    ])
    def test_sets_refuse_non_numbers(self, build):
        # an interval end may be infinite but not NaN; a disk is finite
        with pytest.raises(ConfigurationError, match="must be"):
            build()

    def test_a_point_beyond_the_floats_is_outside_the_disk(self):
        d = DiskSet(PLANE, (0.0, 0.0), 1.0)
        with np.errstate(over="ignore"):
            assert d.contains_coords([[0.0, 0.0], [1e200, 0.0]]).tolist() == [True, False]

    @pytest.mark.parametrize("dim", [1, 2, 12, 20])
    @pytest.mark.parametrize("norm", ["euclidean", 1.0, 3.0])
    def test_disk_samples_lie_in_the_disk(self, dim, norm):
        # a ball fills a vanishing share of its bounding box as the
        # dimension grows (about 1/3000 at 12 euclidean dimensions), so the
        # sampler draws in the ball itself
        space = Space(id="s", dimension=dim, norm=norm)
        rng = np.random.default_rng(0)
        for radius in (1.0, 5.0, 1000.0):
            disk = DiskSet(space, (3.0,) + (-1.0,) * (dim - 1), radius)
            coords = disk.sample_coords(rng, 200)
            assert coords.shape == (200, dim)
            assert disk.contains_coords(coords).all()

    @pytest.mark.parametrize(("dim", "norm"), [(2, "euclidean"), (3, 1.0)])
    def test_disk_samples_are_uniform(self, dim, norm):
        # the ball of half the radius holds 2^-dim of a uniform law; 4000
        # draws put the share within 0.03 of it (over 4 standard deviations)
        space = Space(id="s", dimension=dim, norm=norm)
        disk = DiskSet(space, (0.0,) * dim, 2.0)
        near = space.distances(disk.sample_coords(np.random.default_rng(1), 4000), disk.center)
        assert abs(np.mean(near <= 1.0) - 2.0 ** -dim) < 0.03

    def test_sampling_helpers(self):
        rng = np.random.default_rng(0)
        box = default_region(LINE)
        xs, ys = sample_pairs(LINE, box, 4, np.random.default_rng(3))
        ref = np.random.default_rng(3)
        assert xs.shape == ys.shape == (4, 1)
        assert xs.tobytes() == box.sample_coords(ref, 4).tobytes()
        assert ys.tobytes() == box.sample_coords(ref, 4).tobytes()
        with pytest.raises(InputError, match="1-dimensional"):
            sample_pairs(PLANE, box, 4, rng)


class TestCyclicSetting:
    def test_exact_gap_for_intervals(self):
        setting = CyclicSetting.derive(
            LINE,
            IntervalSet(LINE, 1.0, math.inf),
            IntervalSet(LINE, -math.inf, -1.0),
        )
        assert setting.gap == 2.0

    def test_exact_gap_for_disks(self):
        setting = CyclicSetting.derive(
            PLANE, DiskSet(PLANE, (0.0, 0.0), 1.0), DiskSet(PLANE, (5.0, 0.0), 1.0))
        assert setting.gap == 3.0

    def test_refuses_a_set_pair_with_no_closed_form_gap(self):
        # every interval or disk pair has a closed-form gap; a set of any
        # other type is refused rather than estimated from samples
        class Half:
            space = LINE

        with pytest.raises(ConfigurationError, match="no closed-form gap between sets of type "
                                                     "Half and IntervalSet"):
            CyclicSetting.derive(LINE, Half(), IntervalSet(LINE, -math.inf, -1.0))

    def test_refuses_a_gap_that_is_not_finite(self):
        # the disks' ends are finite, but the distance between them is not
        far = DiskSet(LINE, (1e308,), 1.0), DiskSet(LINE, (-1e308,), 1.0)
        with pytest.raises(ConfigurationError, match="set gap must be finite, got inf"):
            CyclicSetting.derive(LINE, *far)
        with pytest.raises(ConfigurationError, match="set gap must be finite, got nan"):
            CyclicSetting(LINE, *far, math.nan)

    def test_refuses_sets_from_another_space(self):
        disks = DiskSet(PLANE, (0.0, 0.0), 1.0), DiskSet(PLANE, (5.0, 0.0), 1.0)
        with pytest.raises(ConfigurationError,
                           match="set_a lies in space 'plane', not in the setting's space 'line'"):
            CyclicSetting.derive(LINE, *disks)
        with pytest.raises(ConfigurationError,
                           match="set_b lies in space 'line', not in the setting's space 'plane'"):
            CyclicSetting(PLANE, disks[0], IntervalSet(LINE, 0.0, 1.0), 3.0)


class TestPremetrics:
    def test_metric_premetric_claims(self):
        p = metric_premetric(LINE)
        assert {"symmetric", "triangle", "tau_distance"} <= p.claims
        assert eval_premetric(p, LINE.point(1.0), LINE.point(4.0)) == 3.0

    def test_shifted_premetric_clamps_at_gap(self):
        setting = CyclicSetting.derive(
            LINE, IntervalSet(LINE, 1.0, math.inf), IntervalSet(LINE, -math.inf, -1.0))
        p = shifted_premetric(setting)
        assert eval_premetric(p, LINE.point(1.0), LINE.point(3.0)) == 0.0
        assert eval_premetric(p, LINE.point(3.0), LINE.point(-2.0)) == 3.0
        assert "mixed_triangle" in p.claims
        assert p.companion is not None and p.companion.kind == "metric"

    def test_composed_premetric_applies_gauge(self):
        p = composed_premetric(builtin_gauge("mk"), metric_premetric(LINE))
        x, y = LINE.point(0.0), LINE.point(3.0)
        assert eval_premetric(p, x, y) == pytest.approx(3.0 / 4.0)
        assert "symmetric" in p.claims

    def test_composed_premetric_with_an_expression_gauge(self):
        p = composed_premetric(expression_gauge("t * t"), metric_premetric(LINE))
        assert eval_premetric(p, LINE.point(1.0), LINE.point(3.0)) == 4.0

    def test_refuses_a_setting_from_another_space(self):
        # a line setting with gap 2 would shift plane distances by it
        setting = CyclicSetting.derive(
            LINE, IntervalSet(LINE, 1.0, math.inf), IntervalSet(LINE, -math.inf, -1.0))
        with pytest.raises(ConfigurationError, match="premetric setting lies in space 'line', "
                                                     "not in the premetric's space 'plane'"):
            Premetric(kind="shifted_cyclic", space=PLANE, setting=setting)

    def test_refuses_an_inner_premetric_from_another_space(self):
        with pytest.raises(ConfigurationError, match="premetric inner lies in space 'line', "
                                                     "not in the premetric's space 'plane'"):
            Premetric(kind="composed", space=PLANE, gauge=builtin_gauge("half"),
                      inner=metric_premetric(LINE))

    def test_refuses_a_companion_from_another_space(self):
        with pytest.raises(ConfigurationError, match="premetric companion lies in space "
                                                     "'plane', not in the premetric's space "
                                                     "'line'"):
            Premetric(kind="metric", space=LINE, companion=metric_premetric(PLANE))

    def test_matrix_and_diagonal_match_scalar(self):
        p = composed_premetric(builtin_gauge("half"), metric_premetric(LINE))
        xs = np.array([[0.0], [1.0], [5.0]])
        ys = np.array([[2.0], [2.0], [2.0]])
        mat = premetric_matrix(p, xs, ys)
        diag = premetric_diagonal(p, xs, ys)
        for i in range(3):
            want = eval_premetric(p, LINE.point(*xs[i]), LINE.point(*ys[i]))
            assert diag[i] == pytest.approx(want)
            assert mat[i, i] == pytest.approx(want)


class TestAxiomVerification:
    def test_metric_axioms_pass(self):
        p = metric_premetric(PLANE)
        rng = np.random.default_rng(2)
        triples = np.array([default_region(PLANE).sample_coords(rng, 3) for _ in range(40)])
        reports = verify_premetric_axioms(p, triples)
        ids = {r.condition_id for r in reports}
        assert {"AX-SYM", "AX-TRI", "AX-TAU"} <= ids
        assert all(r.verdict is Verdict.PASS for r in reports)

    def test_broken_triangle_is_caught(self):
        p = composed_premetric(expression_gauge("t * t"), metric_premetric(LINE),
                               claims=frozenset({"triangle"}))
        reports = verify_premetric_axioms(p, [[[0.0], [1.0], [2.0]]])
        tri = next(r for r in reports if r.condition_id == "AX-TRI")
        # squared distance: 4 > 1 + 1 through the midpoint
        assert tri.verdict is Verdict.FAIL
        assert tri.witnesses

    def test_mixed_axioms_need_companion(self):
        with pytest.raises(ConfigurationError, match="mixed_triangle claimed but no companion"):
            Premetric(kind="metric", space=LINE, claims=frozenset({"mixed_triangle"}))
