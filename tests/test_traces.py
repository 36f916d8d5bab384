"""Orbit and sequence traces: construction, gap caching, serialization."""

import math
from unittest import mock

import numpy as np
import pytest

from fplab.errors import ConfigurationError, InputError
from fplab.gallery import GALLERY
from fplab.maps import builtin_map, expression_map
from fplab.runner import run_scenario_doc
from fplab.spaces import (
    CyclicSetting,
    IntervalSet,
    Space,
    eval_premetric,
    metric_premetric,
    shifted_premetric,
)
from fplab.traces import (
    AlternatingSchedule,
    ESCAPE_NORM,
    IterationTrace,
    _bit_period_start,
    alternating_trace,
    cyclic_even_trace,
    picard_trace,
    sequence_trace,
)

from reference import read_trace_csv

LINE = Space(id="line", dimension=1)


def coords(trace) -> list[float]:
    return trace.coords[:, 0].tolist()


class TestPicard:
    def test_halving_orbit(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 3)
        assert coords(tr) == [1.0, 0.5, 0.25, 0.125]
        assert tr.gaps.tolist() == [0.5, 0.25, 0.125]
        assert tr.status == "completed"
        assert len(tr) == 4

    def test_mk_orbit_closed_form(self):
        # x_{n+1} = x_n/(1+x_n) from 1 gives x_n = 1/(n+1)
        tr = picard_trace(builtin_map("mk", LINE), LINE.point(1.0), 4)
        for n, x in enumerate(coords(tr)):
            assert x == pytest.approx(1.0 / (n + 1), rel=1e-15)

    def test_translation_orbit(self):
        tr = picard_trace(builtin_map("translation", LINE), LINE.point(0.0), 3)
        assert coords(tr) == [0.0, 1.0, 2.0, 3.0]
        assert tr.gaps.tolist() == [1.0, 1.0, 1.0]

    def test_escape_truncates_with_status(self):
        """A blowing-up orbit is reported, not raised: points stop before the
        first iterate whose norm leaves the working ball."""
        square = expression_map(LINE, "x * x", name="square")
        tr = picard_trace(square, LINE.point(10.0), 10)
        assert tr.status == "escaped"
        assert coords(tr) == [10.0, 100.0, 1e4, 1e8]
        assert np.abs(tr.coords).max() <= ESCAPE_NORM

    def test_guards(self):
        half = builtin_map("half", LINE)
        with pytest.raises(InputError, match="at least one iteration step"):
            picard_trace(half, LINE.point(1.0), 0)
        other = Space(id="plane", dimension=2)
        with pytest.raises(InputError, match="does not belong to space"):
            picard_trace(half, other.point(1.0, 1.0), 3)


class TestAlternating:
    def test_schedule_space_mismatch(self):
        plane = Space(id="plane", dimension=2)
        with pytest.raises(ConfigurationError, match="share a space"):
            AlternatingSchedule(builtin_map("quarter", LINE),
                                builtin_map("fifth", plane))

    def test_orbit_values(self):
        # seed is pushed through S once, then the maps take turns
        sched = AlternatingSchedule(builtin_map("quarter", LINE),
                                    builtin_map("fifth", LINE))
        tr = alternating_trace(sched, LINE.point(1.0), 3)
        assert coords(tr) == [0.2, 0.2 * 0.25, 0.2 * 0.25 * 0.2,
                              0.2 * 0.25 * 0.2 * 0.25]


class TestCyclicEven:
    def setting(self) -> CyclicSetting:
        return CyclicSetting.derive(
            LINE,
            IntervalSet(space=LINE, lo=1.0, hi=math.inf),
            IntervalSet(space=LINE, lo=-math.inf, hi=-1.0),
        )

    def test_even_subsequence_closed_form(self):
        # reflect-and-shrink orbit: even points are 1 + 2 * 4^-n exactly
        tr = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               self.setting(), LINE.point(3.0), 4)
        assert coords(tr) == [1.0 + 2.0 * 4.0 ** -n for n in range(5)]

    def test_full_orbit_rides_along(self):
        tr = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               self.setting(), LINE.point(3.0), 4)
        aux = tr.aux_coords[:, 0].tolist()
        assert len(aux) == 9
        assert aux[:4] == [3.0, -2.0, 1.5, -1.25]
        assert aux[::2] == coords(tr)

    def test_gaps_use_shifted_premetric(self):
        # consecutive even points sit inside one set well under the gap, so
        # every clamped shift collapses to zero
        tr = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                               self.setting(), LINE.point(3.0), 4)
        assert tr.premetric.kind == "shifted_cyclic"
        assert tr.gaps.tolist() == [0.0] * 4

    def test_seed_outside_first_set(self):
        with pytest.raises(InputError, match="starting point must lie in the first set"):
            cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                              self.setting(), LINE.point(0.5), 4)

    def test_pairs_guard(self):
        with pytest.raises(InputError, match="at least one double step"):
            cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                              self.setting(), LINE.point(3.0), 0)


class TestSequence:
    def test_harmonic_partial_sums(self):
        tr = sequence_trace("harmonic", LINE, 5)
        want = np.cumsum([1.0, 0.5, 1.0 / 3.0, 0.25, 0.2])
        assert coords(tr) == pytest.approx(list(want), rel=1e-15)
        assert tr.gaps.tolist() == pytest.approx(
            [0.5, 1.0 / 3.0, 0.25, 0.2], rel=1e-12
        )
        assert tr.status == "completed"

    def test_guards(self):
        with pytest.raises(ConfigurationError, match="unknown sequence"):
            sequence_trace("fibonacci", LINE, 5)
        with pytest.raises(InputError, match="at least 2"):
            sequence_trace("harmonic", LINE, 1)
        plane = Space(id="plane", dimension=2)
        with pytest.raises(InputError, match="one-dimensional"):
            sequence_trace("harmonic", plane, 5)


class TestTraceMechanics:
    def test_gap_cache_matches_recomputation(self):
        tr = picard_trace(builtin_map("mk", LINE), LINE.point(1.0), 12)
        for i in range(len(tr) - 1):
            assert tr.gaps[i] == eval_premetric(
                tr.premetric, LINE.point(tr.coords[i]), LINE.point(tr.coords[i + 1])
            )

    def test_validation(self):
        pts = np.array([[0.0], [1.0]])
        p = metric_premetric(LINE)
        with pytest.raises(ConfigurationError, match="unknown trace status"):
            IterationTrace(coords=pts, premetric=p, status="running")
        with pytest.raises(InputError, match="do not fit the 1-dimensional space 'line'"):
            IterationTrace(coords=[[0.0, 1.0], [1.0, 2.0]], premetric=p, status="completed")
        with pytest.raises(TypeError, match="gaps"):
            IterationTrace(coords=[[0.0], [1.0], [2.0], [3.0]], gaps=[9.0, 0.5, 0.25],
                           premetric=p, status="completed")
        with pytest.raises(TypeError, match="space_id"):
            IterationTrace(coords=pts, premetric=p, status="completed", space_id=LINE.id)
        with pytest.raises(TypeError, match="generator"):
            IterationTrace(coords=pts, generator="g", premetric=p, status="completed")

    def test_stored_arrays_are_read_only(self):
        src = np.array([[0.0], [1.0], [3.0]])
        tr = IterationTrace(coords=src, premetric=metric_premetric(LINE), status="completed")
        src[0, 0] = 9.0  # the trace keeps its own copy
        assert coords(tr) == [0.0, 1.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            tr.coords[0, 0] = 5.0
        assert tr.gaps.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="read-only"):
            tr.gaps[0] = 5.0
        cyc = cyclic_even_trace(builtin_map("cyclic_reflect", LINE),
                                TestCyclicEven().setting(), LINE.point(3.0), 4)
        with pytest.raises(ValueError, match="read-only"):
            cyc.aux_coords[1] = 0.0

    def test_arrays(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 3)
        assert np.array_equal(tr.coords, np.array([[1.0], [0.5], [0.25], [0.125]]))
        assert np.array_equal(tr.gaps, np.array([0.5, 0.25, 0.125]))

    def test_csv_layout(self):
        tr = picard_trace(builtin_map("half", LINE), LINE.point(1.0), 3)
        lines = tr.to_csv().splitlines()
        assert lines[0] == "n,x0,p_gap"
        assert lines[1] == "0,1.0,0.5"
        assert lines[-1] == "3,0.125,"
        plane = Space(id="plane", dimension=2)
        tr2 = picard_trace(builtin_map("half", plane), plane.point(1.0, 2.0), 2)
        assert tr2.to_csv().splitlines()[0] == "n,x0,x1,p_gap"


# two 1-d spaces: a premetric on one must not measure a trace on the other
SPACE_A = Space(id="a", dimension=1)
SPACE_B = Space(id="b", dimension=1)
ON_B = metric_premetric(SPACE_B)
# a builder checks its seed against the premetric's space
SEED_OFF_B = "tagged 'a' does not belong to space 'b'"


class TestPremetricSpace:
    def test_picard_trace(self):
        with pytest.raises(InputError, match=SEED_OFF_B):
            picard_trace(builtin_map("half", SPACE_A), SPACE_A.point(1.0), 4, premetric=ON_B)

    def test_alternating_trace(self):
        schedule = AlternatingSchedule(builtin_map("half", SPACE_A),
                                       builtin_map("mk", SPACE_A))
        with pytest.raises(InputError, match=SEED_OFF_B):
            alternating_trace(schedule, SPACE_A.point(1.0), 4, premetric=ON_B)

    def test_sequence_trace(self):
        with pytest.raises(InputError, match=SEED_OFF_B):
            sequence_trace("harmonic", SPACE_A, 5, premetric=ON_B)

    def test_cyclic_even_trace(self):
        # the trace is measured under the setting's shifted premetric
        setting = CyclicSetting.derive(SPACE_B, IntervalSet(SPACE_B, 0.0, 10.0),
                                       IntervalSet(SPACE_B, -10.0, 0.0))
        with pytest.raises(InputError, match=SEED_OFF_B):
            cyclic_even_trace(builtin_map("cyclic_reflect", SPACE_A), setting,
                              SPACE_A.point(3.0), 4)

    def test_iteration_trace(self):
        # a trace lives on its premetric's space
        tr = IterationTrace(coords=[[0.0], [1.0]], premetric=ON_B, status="completed")
        assert tr.premetric.space is SPACE_B and not hasattr(tr, "space_id")


def _assert_reads_back(trace, text):
    coords, gaps = read_trace_csv(text)
    assert coords.shape == trace.coords.shape and gaps.shape == trace.gaps.shape
    assert coords.tobytes() == trace.coords.tobytes()
    assert gaps.tobytes() == trace.gaps.tobytes()


class TestCsvReadsBack:
    """Every number in a trace CSV is a repr, and float() of a repr gives
    back the float's bits: the CSV holds the trace's exact coordinates and
    gaps."""

    def test_every_gallery_trace(self, tmp_path):
        traces = {}
        to_csv = IterationTrace.to_csv

        def spy(trace):
            text = to_csv(trace)
            traces[text] = trace
            return text

        with mock.patch.object(IterationTrace, "to_csv", spy):
            for entry in GALLERY:
                run_scenario_doc(entry.doc, str(tmp_path / entry.name), seed=0,
                                 expectations=entry.expectations)
        written = sorted(tmp_path.glob("*/trace_*.csv"))
        assert len(written) == len(traces) > 0
        for path in written:
            text = path.read_text(encoding="utf-8")
            _assert_reads_back(traces[text], text)

    def test_signed_zero_subnormal_and_periodic_tail(self):
        # from row 1 the rows repeat 5e-324, -0.0 to the bit, with subnormal
        # gaps (under the 1-norm, which squares nothing to zero): to_csv
        # writes that tail through its fixed-width records
        taxi = Space(id="taxi", dimension=1, norm=1.0)
        tr = IterationTrace(coords=[[3.0]] + [[5e-324], [-0.0]] * 4,
                            premetric=metric_premetric(taxi), status="completed")
        assert _bit_period_start(tr.coords, tr.gaps) < len(tr) - 1
        text = tr.to_csv()
        assert "\n8,-0.0,\n" in text and ",5e-324,5e-324\n" in text
        _assert_reads_back(tr, text)
        assert np.signbit(read_trace_csv(text)[0][-1, 0])

    def test_an_empty_gap_before_the_last_row_is_refused(self):
        with pytest.raises(ValueError):
            read_trace_csv("n,x0,p_gap\n0,1.0,\n1,2.0,\n")
