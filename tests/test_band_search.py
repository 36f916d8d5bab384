"""The shared-shift band search (C4, D4) against two references.

_band_uniform decides every (eps, delta) band of a call in a single sweep
over nu.  It sweeps a (k, n, n) block of int16 segment ids, one per gap,
and reads float gaps again, through a float reader, only to rebuild a
defeat.  C4 and D4 measure their gaps from orbits (_OrbitGaps); every sweep
test here draws float gap matrices instead, asymmetric ones and ones with
NaN and +-inf among them, classifies them into ids (_id_block) and hands
the sweep a small reader over those matrices (_Matrices, in this file) as
its float reader; the references read the floats.  Both references live in
reference.py.  The plain one, band_uniform_reference, is the direct
search: for each (eps, delta) it gathers the in-band pairs at every shift
and stops at the first shift that pulls them all to eps.  The per-eps one,
band_uniform_per_eps, is the earlier sweep, one depth-sorted index and one
nu-sweep per eps.  All must give the same verdict, the same witnesses
(tie-breaking included) and the same note, on small tie-heavy gap matrices
whose eps/delta grids reach every outcome (a vacuous band, a pass at some
shift, and every candidate defeated), at the default slack and at one
above many a delta, on the same matrices with NaN and +inf shifted gaps,
on gap matrices of real orbits at the default grids, on a grid with too
many cuts for int16 ids and int32 keys, and on hand cases at the edges of
the segment ids: a band that collapses to nothing, no pairs at all, a gap
on a cut shared by two eps, an unsorted grid with repeated eps, and a
defeat tie between pairs in two segments of one band.  Hand cases at the
edges of the sweep's walk cover a stop pair handed from one eps to the
next, violators on either side of a chunk boundary, non-finite shifted
gaps, and a failing band that is +inf at every shift.  Hand cases at the
edges of the increment-first order cover a prefix that is dirty again
behind a clean increment, a violator on an increment's last pair, two
deltas with equal band ends, NaN and +inf in an increment, a skipped eps
followed by one that starts from the stop handed on, a skipped eps that
must not hand on the pair it stopped on, and an increment that starts in
the middle of a chunk; a property test draws shifted gaps that are not
monotone in nu.  On the seed-0 gallery calls the sweep must gather far
fewer shifted ids than one per kept pair and shift (meir-keeler D4 and
C4), and a passing walk (banach-half D4) no more than before.

The segment ids read from the gaps' float bits must equal one search among
the edges for every gap, 0.0, -0.0, subnormals, negatives and +-inf
included, with NaN above every other id, on budgets and gaps at the edges
of the bits.  The cuts hold every limit eps + slack, so that a gap is at
most a limit exactly when its id is at most the limit's, also where the
slack is above every delta and where the limit rounds to the largest
finite float or overflows to +inf; and a cut at the largest finite float
must raise no warning.  The block-wise classification and sweep must
equal the reference on blocks of a few rows and at index horizons that are
no multiple of a block's rows.  C4 and D4 measure their gaps from orbits,
in blocks of rows and for a defeat on gathered points, with the bits of
the whole matrices, under Space.distances and under every kind of
premetric a trace can carry, and check_acf_mapping's D4 report (two
failing maps, two passing ones) and acf_asf_agreement's C4 and D4 must
equal the reference on those matrices.  One meir-keeler-sized D4 sweep,
and one whole meir-keeler check_acf_mapping call, must hold little memory.
"""

import json
import tracemalloc
from functools import partial
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fplab import certificates
from fplab.certificates import _FIRST_CHUNK, _TABLE_BITS, _OrbitGaps, _SegmentIds, \
    _band_uniform, _cuts, _id_block, _mapping_reports, _shifted, acf_asf_agreement, \
    check_acf_mapping, check_asf2
from fplab.gauges import builtin_gauge, expression_gauge
from fplab.gallery import get_entry
from fplab.maps import builtin_map
from fplab.reports import SearchBudget, sanitize, worst_verdict
from fplab.runner import run_scenario_doc
from fplab.scenario import build_scenario
from fplab.spaces import Box, CyclicSetting, DiskSet, Space, composed_premetric, \
    metric_premetric, premetric_matrix, premetric_values, shifted_premetric
from fplab.traces import _extend_orbit, picard_trace

from reference import band_uniform_per_eps, band_uniform_reference, segment_ids_reference


VALUES = (0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0, 1.5)


@st.composite
def band_cases(draw):
    k = draw(st.integers(1, 3))
    ih = draw(st.integers(2, 7))
    nh = draw(st.integers(1, 6))
    n = ih + nh + draw(st.integers(0, 2))
    mats = draw(arrays(float, (k, n, n), elements=st.sampled_from(VALUES)))
    # gaps of a contracting orbit shrink along the diagonal; rate 1 never does
    rates = np.array(draw(st.lists(st.sampled_from((1.0, 0.75, 0.5, 0.25)),
                                   min_size=k, max_size=k)))
    idx = np.arange(n)
    mats = mats * rates[:, None, None] ** np.minimum.outer(idx, idx)
    if draw(st.booleans()):
        # 1e-9 is the default slack, so some values land exactly on eps + slack
        scale = draw(st.sampled_from((1e-12, 1e-9, 1e-3)))
        mats = mats + scale * draw(arrays(float, (k, n, n), elements=st.sampled_from((0.0, 1.0))))
    eps_grid = draw(st.lists(st.sampled_from((0.05, 0.1, 0.2, 0.3, 0.5)), min_size=1, max_size=3))
    deltas = draw(st.lists(st.sampled_from((1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.01)),
                           min_size=1, max_size=5, unique=True))
    # mostly the default slack; 0.3 is above many a delta grid
    slack = draw(st.sampled_from((1e-9, 1e-9, 1e-9, 0.3)))
    budget = SearchBudget(eps_grid=tuple(eps_grid), delta_candidates=tuple(sorted(deltas)[::-1]),
                          index_horizon=ih, nu_horizon=nh, slack=slack)
    return mats, budget


class _Matrices:
    """A float reader over drawn (k, n, n) gap matrices, which may be
    asymmetric or hold NaN and +-inf, where C4 and D4 measure theirs from
    orbits (_OrbitGaps): rows, pairs and at read the entries that
    _OrbitGaps would measure."""

    def __init__(self, mats):
        self.mats, self.shape = mats, mats.shape

    def rows(self, orbit, a, b):
        return self.mats[orbit, a:b, a + 1:]

    def pairs(self, positions):
        return positions[None]

    def at(self, pairs, nu):
        return _shifted(self.mats.reshape(-1), pairs[0], nu, self.shape[1])


def _sweep(mats, budget):
    """_band_uniform on the ids classified from the float gap matrices
    mats, which are its float reader too."""
    gaps = _Matrices(mats)
    return _band_uniform(_id_block(gaps, budget), gaps, budget, "D4")


def _both(case):
    mats, budget = case
    return _sweep(mats, budget), band_uniform_reference(mats, budget, "D4", "orbit")


def _assert_same(fast, ref):
    assert fast.verdict is ref.verdict
    assert fast.witnesses == ref.witnesses
    assert fast.resolution_note == ref.resolution_note
    assert json.dumps(sanitize(fast), sort_keys=True, indent=2) == \
        json.dumps(sanitize(ref), sort_keys=True, indent=2)


@given(band_cases())
def test_sweep_equals_reference(case):
    _assert_same(*_both(case))


@st.composite
def nonfinite_band_cases(draw):
    # NaN and +inf are never in a band, so they act only as shifted gaps,
    # and a NaN must defeat every band whose pairs shift onto it
    mats, budget = draw(band_cases())
    holes = draw(arrays(np.int8, mats.shape, elements=st.sampled_from((0, 0, 0, 1, 2))))
    return np.where(holes == 1, np.nan, np.where(holes == 2, np.inf, mats)), budget


@given(nonfinite_band_cases())
def test_sweep_equals_reference_on_nonfinite_gaps(case):
    _assert_same(*_both(case))


def _outcomes(case):
    return {"vacuous" if w.get("vacuous") else "nu" if "nu" in w else "defeat"
            for w in _both(case)[1].witnesses}


# find() keeps its first example instead of shrinking it: the example is
# only checked against the references, and shrinking is most of find's time
FIRST_EXAMPLE = settings(phases=[Phase.generate])


def test_cases_reach_every_outcome():
    # the strategy above must reach each kind of band outcome, or the
    # property test would leave that branch of the sweep unchecked
    for kind in ("vacuous", "nu", "defeat"):
        case = find(band_cases(), lambda c, kind=kind: kind in _outcomes(c),
                    settings=FIRST_EXAMPLE)
        _assert_same(*_both(case))


def _boundary_case():
    # the only in-band pair shifts to exactly eps + slack, which passes
    mats = np.zeros((1, 3, 3))
    mats[0, 0, 1], mats[0, 1, 2] = 0.75, 0.5 + 1e-9
    budget = SearchBudget(eps_grid=(0.5,), delta_candidates=(1.0,),
                          index_horizon=2, nu_horizon=1)
    return mats, budget


def _ties_case():
    # every in-band pair stays at 1.0 under every shift: the first nu and
    # the first pair in np.nonzero order must carry the defeat
    budget = SearchBudget(eps_grid=(0.5,), delta_candidates=(1.0, 0.75),
                          index_horizon=3, nu_horizon=3)
    return np.ones((2, 6, 6)), budget


@pytest.mark.parametrize(("case", "expected"), [
    (_boundary_case(), {"eps": 0.5, "delta": 1.0, "nu": 1, "in_band": 1}),
    (_ties_case(), {"eps": 0.5, "delta": 0.75, "orbit": 0, "i": 0, "j": 1, "gap": 1.0,
                    "best_uniform_nu": 1, "value_at_best_nu": 1.0}),
])
def test_hand_cases(case, expected):
    fast, ref = _both(case)
    _assert_same(fast, ref)
    assert fast.witnesses == [expected]


def _all_three(mats, budget):
    fast = _sweep(mats, budget)
    for reference in (band_uniform_reference, band_uniform_per_eps):
        _assert_same(fast, reference(mats, budget, "D4", "orbit"))
    return fast


LINE = Space(id="line", dimension=1)
ORBIT_BUDGET = SearchBudget(index_horizon=64, nu_horizon=16)


@given(st.sampled_from(("mk", "half", "neg", "translation")), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_real_orbits_match_both_references(name, k, seed):
    # searched with the default 7 x 21 eps/delta grids
    n = ORBIT_BUDGET.index_horizon + ORBIT_BUDGET.nu_horizon
    _all_three(_orbit_gaps(name, k, n, seed), ORBIT_BUDGET)


def _orbit_gaps(name, k, n, seed=0):
    """The gap matrices D4 builds: all pairs of points of k sampled orbits
    of n points of the map name on the line."""
    seeds = np.random.default_rng(seed).uniform(0.0, 10.0, size=(k, 1))
    block, _ = _extend_orbit((builtin_map(name, LINE).fn,), seeds, n)
    orbits = np.ascontiguousarray(block.swapaxes(0, 1))
    return LINE.distances(orbits[:, :, None], orbits[:, None])


def _collapsed_band_case():
    # 1.0 + 1e-17 == 1.0: the band (1.0, 1.0) is empty even though a gap
    # sits exactly on eps, and the wider bands, which hold gaps that never
    # drop, are defeated
    mats = np.full((2, 3, 3), 1.5)
    mats[1, 0, 1] = 1.0
    budget = SearchBudget(eps_grid=(0.5, 1.0), delta_candidates=(1.0, 1e-17),
                          index_horizon=2, nu_horizon=1)
    return mats, budget, [{"eps": 0.5, "delta": 1e-17, "in_band": 0, "vacuous": True},
                          {"eps": 1.0, "delta": 1e-17, "in_band": 0, "vacuous": True}]


def _no_pairs_case():
    budget = SearchBudget(index_horizon=1, nu_horizon=2)
    expected = [{"eps": eps, "delta": 1.0, "in_band": 0, "vacuous": True}
                for eps in budget.eps_grid]
    return np.ones((2, 3, 3)), budget, expected


def _shared_cut_case():
    # 0.5 is eps = 0.5 and also 0.25 + 0.25: a gap of exactly 0.5 lies in
    # neither band (0.25, 0.5) nor (0.5, 0.75)
    mats = np.full((2, 3, 3), 0.5)
    mats[1, 0, 1] = 0.6
    budget = SearchBudget(eps_grid=(0.25, 0.5), delta_candidates=(0.25,),
                          index_horizon=2, nu_horizon=1)
    return mats, budget, [{"eps": 0.25, "delta": 0.25, "in_band": 0, "vacuous": True},
                          {"eps": 0.5, "delta": 0.25, "nu": 1, "in_band": 1}]


def _unsorted_grid_case():
    # gap v[min(i, j)] between points i and j of a settling orbit; eps 0.5
    # passes at nu = 1, while 0.1 and 0.25 need the sweep to reach nu = 3
    v = np.array([0.8, 0.4, 0.3, 0.12, 0.05, 0.0])
    mats = v[np.minimum.outer(np.arange(6), np.arange(6))][None]
    budget = SearchBudget(eps_grid=(0.5, 0.1, 0.5, 0.25), delta_candidates=(1.0, 0.5),
                          index_horizon=3, nu_horizon=3)
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 1, "in_band": 2},
                          {"eps": 0.1, "delta": 0.5, "nu": 3, "in_band": 1},
                          {"eps": 0.5, "delta": 1.0, "nu": 1, "in_band": 2},
                          {"eps": 0.25, "delta": 1.0, "nu": 3, "in_band": 3}]


def _tie_across_segments_case():
    # eps 0.6 cuts eps 0.5's narrow band (0.5, 0.75) in two: the gap 0.55 of
    # pair (0, 2) has a smaller segment id than the gap 0.7 of pair (0, 1),
    # both shift to 1.0, and the defeat names the first in np.nonzero order
    mats = np.zeros((1, 4, 4))
    mats[0, 0, 1], mats[0, 0, 2] = 0.7, 0.55
    mats[0, 1, 2] = mats[0, 1, 3] = mats[0, 2, 3] = 1.0
    budget = SearchBudget(eps_grid=(0.5, 0.6), delta_candidates=(1.0, 0.25),
                          index_horizon=3, nu_horizon=1)
    return mats, budget, [{"eps": eps, "delta": 0.25, "orbit": 0, "i": 0, "j": 1, "gap": 0.7,
                           "best_uniform_nu": 1, "value_at_best_nu": 1.0}
                          for eps in (0.5, 0.6)]


def _pair_per_orbit(gaps, shifted, eps_grid, deltas):
    """One pair (0, 1) per orbit: orbit k's gap is gaps[k] and its gap at
    shift nu is shifted[nu - 1][k]."""
    nh = len(shifted)
    mats = np.zeros((len(gaps), nh + 2, nh + 2))
    mats[:, 0, 1] = gaps
    for nu, row in enumerate(shifted, start=1):
        mats[:, nu, nu + 1] = row
    budget = SearchBudget(eps_grid=eps_grid, delta_candidates=deltas,
                          index_horizon=2, nu_horizon=nh)
    return mats, budget


def _handoff_case(value):
    # eps 0.5 stops at the pair with gap 0.7, which shifts to value: eps 0.6
    # starts its walk on that same pair, which violates it only if value
    # exceeds 0.6; the grid is unsorted and repeats both eps
    mats, budget = _pair_per_orbit([0.55, 0.7, 0.8], [[0.4, value, 0.65]],
                                   (0.6, 0.5, 0.6, 0.5), (1.0, 0.15))
    low = {"eps": 0.5, "delta": 0.15, "nu": 1, "in_band": 1}
    high = {"eps": 0.6, "delta": 0.15, "nu": 1, "in_band": 1} if value <= 0.6 else \
        {"eps": 0.6, "delta": 0.15, "orbit": 1, "i": 0, "j": 1, "gap": 0.7,
         "best_uniform_nu": 1, "value_at_best_nu": value}
    return mats, budget, [high, low, high, low]


def _chunk_edge_case(at):
    # the kept pairs in id order are the orbits in order, and the only
    # violator sits at walk position at: the band ending just before it
    # passes and the one ending just after it is defeated
    n_pairs = at + 50
    step = 0.25 / n_pairs
    gaps = 0.5 + step * np.arange(1, n_pairs + 1)
    shifted = np.full(n_pairs, 0.25)
    shifted[at] = 0.75
    mats, budget = _pair_per_orbit(gaps, [shifted], (0.5,),
                                   (1.0, (at + 1.5) * step, (at + 0.5) * step))
    return mats, budget, [{"eps": 0.5, "delta": (at + 0.5) * step, "nu": 1, "in_band": at}]


def _nonfinite_stop_case():
    # NaN and +inf stop the walk like any violator: the NaN of the pair with
    # gap 0.7 at nu = 1 defeats eps 0.65's narrow band there, which passes
    # at nu = 2, when the +inf of the pair with gap 0.8 lies just past it
    mats, budget = _pair_per_orbit([0.6, 0.7, 0.8], [[0.1, np.nan, 0.1], [0.1, 0.1, np.inf]],
                                   (0.5, 0.65), (1.0, 0.15))
    return mats, budget, [{"eps": 0.5, "delta": 0.15, "nu": 1, "in_band": 1},
                          {"eps": 0.65, "delta": 0.15, "nu": 2, "in_band": 1}]


def _never_finite_case():
    # the narrowest band shifts to +inf or NaN at every nu, so no nu gives
    # a value below inf: best_uniform_nu stays 0 and the defeat reports the
    # unshifted gap
    mats, budget = _pair_per_orbit([0.6, 0.7], [[np.inf, 0.1], [np.nan, 0.1], [np.inf, 0.1]],
                                   (0.5,), (1.0, 0.15))
    return mats, budget, [{"eps": 0.5, "delta": 0.15, "orbit": 0, "i": 0, "j": 1, "gap": 0.6,
                           "best_uniform_nu": 0, "value_at_best_nu": 0.6}]


@st.composite
def nonmonotone_band_cases(draw):
    # one pair per orbit, some in eps 0.5's narrow band (0.5, 0.7), some in
    # what its wide band (0.5, 1.5) adds, and a few anywhere; each shifted
    # gap is drawn afresh at every nu, so a band that passed at one shift
    # can be dirty again at a later one
    gaps = (draw(st.lists(st.sampled_from((0.55, 0.6, 0.65)), min_size=1, max_size=4))
            + draw(st.lists(st.sampled_from((0.75, 0.9, 1.2)), min_size=1, max_size=4))
            + draw(st.lists(st.sampled_from(VALUES), max_size=2)))
    nh = draw(st.integers(3, 8))
    drops = st.sampled_from((0.1, 0.1, 0.45, 0.55, 0.9))
    shifted = draw(st.lists(st.lists(drops, min_size=len(gaps), max_size=len(gaps)),
                            min_size=nh, max_size=nh))
    eps_grid = draw(st.sampled_from(((0.5,), (0.4, 0.5), (0.5, 0.6), (0.6, 0.5, 0.4))))
    return _pair_per_orbit(gaps, shifted, eps_grid, (1.0, 0.2))


@given(nonmonotone_band_cases())
def test_sweep_equals_both_references_on_nonmonotone_shifts(case):
    _all_three(*case)


# Cases at the edges of the increment-first order: an eps that passed a
# band, but no wider one at the last shift, reads the pairs the next wider
# band adds before anything else.  In the first four, the narrow band
# (0.5, 0.7) of eps 0.5 holds the pair with gap 0.6 and passes at nu = 1,
# and the pairs with larger gaps are its increment to the wide band
# (0.5, 1.5); at nu = 2 the eps passes no wider band, so from nu = 3 on it
# reads the increment first.


def _prefix_dirty_case():
    # at nu = 3 the increment is clean but the pair with gap 0.6, which
    # passed at nu = 1 and 2, violates again, so the wide band waits for 4
    mats, budget = _pair_per_orbit([0.6, 0.9], [[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.1, 0.1]],
                                   (0.5,), (1.0, 0.2))
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 2}]


def _last_of_increment_case():
    # the increment's only violator at nu = 3 is its last pair
    mats, budget = _pair_per_orbit([0.6, 0.8, 0.9, 1.0],
                                   [[0.1, 0.1, 0.1, 0.9]] * 3 + [[0.1] * 4],
                                   (0.5,), (1.0, 0.2))
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 4}]


def _equal_ends_case():
    # (0.5, 0.7) and (0.5, 0.95) hold the same pair, so the middle band adds
    # nothing to the narrow one and passes with it; the increment read from
    # nu = 3 on is the widest band's
    mats, budget = _pair_per_orbit([0.6, 1.2], [[0.1, 0.9]] * 3 + [[0.1, 0.1]],
                                   (0.5,), (1.0, 0.45, 0.2))
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 2}]


def _nonfinite_increment_case():
    # a NaN in the increment settles the eps at nu = 3 and a +inf at nu = 4
    mats, budget = _pair_per_orbit([0.6, 0.8, 0.9],
                                   [[0.1, 0.1, 0.9], [0.1, 0.1, 0.9], [0.1, np.nan, 0.1],
                                    [0.1, 0.1, np.inf], [0.1, 0.1, 0.1]],
                                   (0.5,), (1.0, 0.2))
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 5, "in_band": 3}]


def _skip_then_handoff_case():
    # gaps 0.45, 0.55, 0.62, 0.7, 0.9 under eps 0.4, 0.5 and 0.6 with deltas
    # 1.0 and 0.15; at nu = 3 eps 0.4 walks to the 0.7 pair (shifted to
    # 0.55), eps 0.5's increment check stops on that same pair, so eps 0.5
    # is skipped and hands on 0.4's stop, and eps 0.6 starts its walk there
    # and passes its wide band
    mats, budget = _pair_per_orbit(
        [0.45, 0.55, 0.62, 0.7, 0.9],
        [[0.45, 0.1, 0.1, 0.55, 0.65], [0.1, 0.1, 0.1, 0.55, 0.65],
         [0.1, 0.1, 0.1, 0.55, 0.1], [0.1] * 5],
        (0.4, 0.5, 0.6), (1.0, 0.15))
    return mats, budget, [{"eps": 0.4, "delta": 1.0, "nu": 4, "in_band": 5},
                          {"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 4},
                          {"eps": 0.6, "delta": 1.0, "nu": 3, "in_band": 3}]


def _skip_keeps_stop_case():
    # gaps 0.6, 0.65 and 0.9 under eps 0.5 and 0.6 with deltas 1.0 and 0.2;
    # at nu = 3 eps 0.5 is skipped on the 0.9 pair (shifted to 0.55), which
    # eps 0.6 allows, but the 0.65 pair, shifted to 0.8, lies before it and
    # holds eps 0.6's wide band off: the skipped eps must not hand on the
    # pair it stopped on
    mats, budget = _pair_per_orbit([0.6, 0.65, 0.9],
                                   [[0.1, 0.1, 0.62], [0.1, 0.1, 0.62], [0.1, 0.8, 0.55],
                                    [0.1, 0.1, 0.1]],
                                   (0.5, 0.6), (1.0, 0.2))
    return mats, budget, [{"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 3},
                          {"eps": 0.6, "delta": 1.0, "nu": 4, "in_band": 2}]


def _mid_chunk_increment_case():
    # 100 pairs in (0.4, 0.5), 200 in (0.5, 0.8) and 200 in (0.8, 1.4):
    # eps 0.4, stopped at its first pair until nu = 4, gathers one chunk of
    # all 500 at every shift, and eps 0.5's increment, the last 200, starts
    # in the middle of it; a pair in the middle of that increment holds eps
    # 0.5's wide band off until nu = 4
    gaps = np.concatenate([np.linspace(0.41, 0.49, 100), np.linspace(0.51, 0.79, 200),
                           np.linspace(0.81, 1.39, 200)])
    held = np.full(500, 0.1)
    held[0], held[400] = 0.45, 0.9
    mats, budget = _pair_per_orbit(gaps, [held] * 3 + [np.full(500, 0.1)],
                                   (0.4, 0.5), (1.0, 0.3))
    return mats, budget, [{"eps": 0.4, "delta": 1.0, "nu": 4, "in_band": 500},
                          {"eps": 0.5, "delta": 1.0, "nu": 4, "in_band": 400}]


@pytest.mark.parametrize("case", [_collapsed_band_case(), _no_pairs_case(),
                                  _shared_cut_case(), _unsorted_grid_case(),
                                  _tie_across_segments_case(),
                                  _handoff_case(0.55), _handoff_case(0.65),
                                  _chunk_edge_case(_FIRST_CHUNK - 1),
                                  _chunk_edge_case(_FIRST_CHUNK),
                                  _chunk_edge_case(3 * _FIRST_CHUNK - 1),
                                  _chunk_edge_case(3 * _FIRST_CHUNK),
                                  _nonfinite_stop_case(), _never_finite_case(),
                                  _prefix_dirty_case(), _last_of_increment_case(),
                                  _equal_ends_case(), _nonfinite_increment_case(),
                                  _skip_then_handoff_case(), _skip_keeps_stop_case(),
                                  _mid_chunk_increment_case()],
                         ids=["collapsed-band", "no-pairs", "shared-cut", "unsorted-grid",
                              "tie-across-segments",
                              "handoff-passes-next", "handoff-violates-next",
                              "last-of-first-chunk", "first-of-second-chunk",
                              "last-of-second-chunk", "first-of-third-chunk",
                              "nonfinite-stop", "never-finite",
                              "prefix-dirty-again", "last-of-increment", "equal-band-ends",
                              "nonfinite-increment", "skip-then-handoff", "skip-keeps-stop",
                              "mid-chunk-increment"])
def test_segment_edge_cases(case):
    mats, budget, expected = case
    assert _all_three(mats, budget).witnesses == expected


# Segment ids from a gap's bits: a table slot of a bucket that holds no
# edge gives the id, and a gap in one that does is searched among the
# edges; a NaN's id is set above every other.

TINY = 5e-324
LARGEST = 1.7976931348623157e308
# levels at the edges of the bits: the smallest subnormal and a subnormal
# mid-range, the smallest normal, powers of two (the first bits of a bucket
# whenever the bucket width is at most 2 ** 52) and the floats just below
# them (the last bits of one), and the largest finite float
EDGE_LEVELS = (TINY, 2.5e-310, 2.2250738585072014e-308, 0.25, 0.5, 1.0, 2.0, 1024.0,
               float(np.nextafter(0.5, 0.0)), float(np.nextafter(1.0, 0.0)),
               float(np.nextafter(1024.0, 0.0)), 1e-300, 1e300, LARGEST)
SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, TINY, -TINY)


@st.composite
def levels(draw, anchor):
    """A positive finite level: an edge level, a float anywhere from the
    subnormals to the largest finite one, or one at most three floats below
    anchor, so that cuts crowd into one bucket."""
    kind = draw(st.sampled_from(("edge", "any", "crowded")))
    if kind == "edge":
        return draw(st.sampled_from(EDGE_LEVELS))
    if kind == "any":
        return draw(st.floats(min_value=TINY, max_value=LARGEST))
    x = anchor
    for _ in range(draw(st.integers(0, 3))):
        x = max(float(np.nextafter(x, 0.0)), TINY)
    return x


def _gaps_around(budget, drawn=()):
    """Gaps on and beside every cut of budget, at the first and last bits
    of every bucket of its id table, the drawn ones and their negations,
    and 0.0, -0.0, +-inf and NaN of either sign."""
    cuts = _cuts(budget)
    ids = _SegmentIds(cuts)
    buckets = (np.arange(1, ids.table.size - 1) + ids.base) << ids.shift  # int64 bits
    bucket_ends = np.concatenate([buckets, buckets + ((1 << ids.shift) - 1)])
    drawn = np.array(drawn, dtype=float)
    with np.errstate(over="ignore"):  # the next float above the largest finite one
        above = np.nextafter(cuts, np.inf)
    return np.concatenate([cuts, above, np.nextafter(cuts, -np.inf), bucket_ends.view(float),
                           drawn, np.negative(drawn), SPECIALS])


@st.composite
def id_cases(draw):
    """A budget SearchBudget accepts, its slack drawn too, and gaps around
    its cuts (see _gaps_around), where a level plus a delta or the slack may
    overflow to a cut at +inf."""
    anchor = draw(st.floats(min_value=TINY, max_value=LARGEST))
    eps_grid = draw(st.lists(levels(anchor), min_size=1, max_size=6))
    deltas = sorted(set(draw(st.lists(levels(anchor), min_size=1, max_size=6))), reverse=True)
    budget = SearchBudget(eps_grid=tuple(eps_grid), delta_candidates=tuple(deltas),
                          slack=draw(levels(anchor)))
    return budget, _gaps_around(budget, draw(st.lists(levels(anchor), max_size=20)))


@given(id_cases())
def test_segment_ids_equal_one_search_among_the_edges(case):
    _assert_ids_equal_the_search(*case)


def _assert_ids_equal_the_search(budget, gaps):
    cuts = _cuts(budget)
    limits = [eps + budget.slack for eps in budget.eps_grid]
    assert set(limits) <= set(cuts.tolist())
    segment_ids = _SegmentIds(cuts)
    assert segment_ids.table.size <= 2 ** _TABLE_BITS + 3
    ids = segment_ids(gaps)
    assert ids.dtype == np.int16
    nan = np.isnan(gaps)
    with np.errstate(over="ignore"):  # the reference's next float above each cut
        expected = segment_ids_reference(cuts, gaps[~nan])
    assert ids[~nan].tolist() == expected.tolist()
    # every other id is at most the number of edges, 2 * cuts.size
    assert (ids[nan] == 2 * cuts.size + 1).all()
    # so a gap is at most a limit exactly when its id is at most the limit's
    for limit in limits:
        np.testing.assert_array_equal(ids <= segment_ids(np.array([limit]))[0], gaps <= limit)


def test_id_cases_reach_every_kind_of_bucket():
    # the cases above must reach a bucket that holds two or more edges, an
    # edge on the first and on the last bits of a bucket, cuts over 600
    # binades, a slack above every delta and a limit that overflows to
    # +inf, or the property test would leave those ids unchecked
    def holds(case, kind):
        budget, _ = case
        cuts = _cuts(budget)
        ids = _SegmentIds(cuts)
        edges = ids.edges.view(np.int64)
        first = edges & ((1 << ids.shift) - 1)
        if kind == "two-edges":  # two distinct edges in one bucket
            return np.unique(edges).size > np.unique(edges >> ids.shift).size
        if kind == "first-bits":
            return ids.shift > 0 and bool((first == 0).any())
        if kind == "last-bits":
            return ids.shift > 0 and bool((first == (1 << ids.shift) - 1).any())
        if kind == "slack-above-deltas":
            return budget.slack > budget.delta_candidates[0]
        if kind == "limit-at-inf":
            return max(budget.eps_grid) + budget.slack == np.inf
        return np.log2(cuts[-1]) - np.log2(cuts[0]) > 600
    for kind in ("two-edges", "first-bits", "last-bits", "binades", "slack-above-deltas",
                 "limit-at-inf"):
        with np.errstate(divide="ignore"):  # log2 of a cut at +inf
            case = find(id_cases(), lambda c, kind=kind: holds(c, kind), settings=FIRST_EXAMPLE)
        _assert_ids_equal_the_search(*case)


@pytest.mark.parametrize("budget", [
    SearchBudget(eps_grid=(0.5, 0.1), delta_candidates=(1e-3, 1e-4), slack=0.25),
    SearchBudget(eps_grid=(1e308, 0.5), delta_candidates=(1.0,), slack=7.976931348623157e307),
    SearchBudget(eps_grid=(1e308, 0.5), delta_candidates=(1.0,), slack=1e308),
], ids=["slack-above-every-delta", "limit-at-the-largest-float", "limit-at-inf"])
def test_the_cuts_hold_every_limit(budget):
    # a limit eps + slack is a cut of its own, also where it lies above
    # every eps + delta, rounds to the largest finite float or overflows
    _assert_ids_equal_the_search(budget, _gaps_around(budget))


@pytest.mark.parametrize("name", ["mk", "translation"])
def test_a_grid_with_many_cuts_takes_wider_ids_and_keys(name):
    # 60 eps and 300 deltas make over 16 383 cuts, too many for int16 ids;
    # with 3 orbits of 110 points a flat position takes 16 bits, so an id
    # above a position no longer fits an int32 key either; mk's bands pass
    # and translation's are defeated
    budget = SearchBudget(eps_grid=tuple(np.linspace(0.05, 3.0, 60).tolist()),
                          delta_candidates=tuple(np.linspace(2.0, 1.004, 300).tolist()),
                          index_horizon=8, nu_horizon=8)
    cuts = _cuts(budget)
    assert 2 * cuts.size + 1 > np.iinfo(np.int16).max
    assert (3 * 110 * 110 - 1).bit_length() + (2 * cuts.size).bit_length() > 31
    mats = _orbit_gaps(name, 3, 110)
    assert _id_block(_Matrices(mats), budget).dtype == np.int32
    _assert_same(*_both((mats, budget)))


def test_a_cut_at_the_largest_float_warns_nothing():
    # eps + delta rounds to the largest finite float, whose next float
    # above is +inf: a legal budget, so C4 returns its report warning-free
    line = Space(id="line", dimension=1)
    budget = SearchBudget(eps_grid=(1e308,), delta_candidates=(7.976931348623157e307,),
                          index_horizon=8, nu_horizon=8)
    assert 1e308 + 7.976931348623157e307 == 1.7976931348623157e308
    trace = picard_trace(builtin_map("half", line), line.point(1.0), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_asf2(trace, budget=budget)
    assert report.condition_id == "C4"


@pytest.mark.parametrize("block_pairs", [1, 5, 12])
@given(band_cases())
def test_blocks_of_rows_equal_the_reference(block_pairs, case):
    # blocks of rows of an index horizon from 2 to 7 (1 pair holds one row,
    # 5 pairs one or two, 12 pairs one to six), over one to three orbits:
    # an index horizon is often not a multiple of a block's rows
    with mock.patch.object(certificates, "_BLOCK_PAIRS", block_pairs):
        _assert_same(*_both(case))


@pytest.mark.parametrize("k, ih", [(1, 130), (2, 2), (1, 2)])
def test_default_blocks_equal_the_reference(k, ih):
    # a block holds 123 rows of index horizon 130, which is no multiple of
    # them, and one block holds index horizon 2's only row
    budget = SearchBudget(index_horizon=ih, nu_horizon=8)
    mats = _orbit_gaps("mk", k, ih + 8)
    _assert_same(_sweep(mats, budget), band_uniform_reference(mats, budget, "D4", "orbit"))


def _measures(space, scale):
    """name -> (the measure an _OrbitGaps reads with, the premetric whose
    premetric_matrix it must equal): D4's Space.distances, and C4's
    premetric_values under each kind of premetric a trace can carry, with
    a builtin gauge and an expression gauge, whose range the gaps keep."""
    disk = DiskSet(space, (0.0,) * space.dimension, 1.0)
    metric = metric_premetric(space)
    premetrics = {
        "metric": metric,
        "shifted_cyclic": shifted_premetric(CyclicSetting(space, disk, disk, scale)),
        "composed-mk": composed_premetric(builtin_gauge("mk", t_max=1e9), metric),
        "composed-expression": composed_premetric(expression_gauge(
            "t / (1 + t) + min(t, 2 / (1 + t)) + abs(t - 1) / 3", t_max=1e9), metric),
    }
    return {"distances": (space.distances, metric),
            **{name: (partial(premetric_values, p), p) for name, p in premetrics.items()}}


@given(st.sampled_from((1, 2, 9)), st.sampled_from(("euclidean", 1.5)),
       st.sampled_from(("distances", "metric", "shifted_cyclic", "composed-mk",
                        "composed-expression")), st.integers(0, 2 ** 32 - 1))
def test_orbit_gaps_keep_the_bits_of_the_gap_matrices(dim, norm, name, seed):
    # C4 and D4 measure their gaps in blocks of rows and, for a defeat, on
    # gathered orbit points, never as whole matrices: both must keep the
    # bits of premetric_matrix(p, orbit, orbit), also from 8 coordinates on,
    # where the distance kernel sums with np.sum, and through a gauge
    rng = np.random.default_rng(seed)
    space = Space(id="r", dimension=dim, norm=norm)
    scale = 10.0 ** int(rng.integers(-3, 4))
    orbits = rng.normal(size=(2, 11, dim)) * scale
    measure, p = _measures(space, scale)[name]
    mats = np.stack([premetric_matrix(p, orbit, orbit) for orbit in orbits])
    gaps = _OrbitGaps(measure, orbits)
    for orbit in range(2):
        for a in range(10):
            for b in range(a + 1, 11):
                assert gaps.rows(orbit, a, b).tobytes() == mats[orbit, a:b, a + 1:].tobytes()
    budget = SearchBudget(index_horizon=6, nu_horizon=5)
    upper = np.triu(np.ones((11, 11), dtype=bool), 1)
    with mock.patch.object(certificates, "_BLOCK_PAIRS", 12):  # blocks of a few rows
        np.testing.assert_array_equal(_id_block(gaps, budget)[:, upper],
                                      _id_block(_Matrices(mats), budget)[:, upper])
    positions = certificates._pair_positions(mats, budget)  # the pairs i < j < 6
    pairs = gaps.pairs(positions)
    for nu in range(6):
        assert gaps.at(pairs, nu).tobytes() == _shifted(mats.reshape(-1), positions, nu,
                                                        11).tobytes()


# D4 end to end: check_acf_mapping measures its id block and a defeat's
# float gaps from the sampled orbits; the reference reads float matrices
# of the same orbits, built as D4 once built them.  neg in the plane fails
# at eps 0.5 and flip on the line at eps 0.1; meir-keeler's and
# banach-half's maps pass.

PIN_BUDGET = SearchBudget(eps_grid=(0.5, 0.1), delta_candidates=(1.0, 0.25), index_horizon=32,
                          nu_horizon=8, pair_samples=64)
PLANE = Space(id="plane", dimension=2)
# name -> map, space, region and the eps at which D4 fails
MAPPING_CASES = {
    "neg-plane": ("neg", PLANE, Box((-0.5, -0.5), (0.5, 0.5)), [0.5]),
    "flip-line": ("flip", LINE, Box((0.0,), (1.0,)), [0.1]),
    "meir-keeler": ("mk", LINE, Box((0.0,), (10.0,)), []),
    "banach-half": ("half", LINE, Box((-10.0,), (10.0,)), []),
}


def _float_mats(name):
    """The map of a mapping case, its region, and the float gap matrices
    of the orbits D4 samples, one space.distances(orbit[:, None],
    orbit[None]) per orbit."""
    map_name, space, region, _ = MAPPING_CASES[name]
    map_t = builtin_map(map_name, space)
    orbits = _mapping_reports(map_t, PIN_BUDGET, region, 0)[2].orbits
    return map_t, region, np.stack([space.distances(orbit[:, None], orbit[None])
                                    for orbit in orbits])


@pytest.mark.parametrize("name", MAPPING_CASES)
def test_d4_matches_the_reference_end_to_end(name):
    map_t, region, mats = _float_mats(name)
    [d4] = [rep for rep in check_acf_mapping(map_t, budget=PIN_BUDGET, region=region, seed=0)
            if rep.condition_id == "D4"]
    ref = band_uniform_reference(mats, PIN_BUDGET, "D4", "orbit")
    assert d4.verdict is ref.verdict
    assert [w["eps"] for w in d4.witnesses if "best_uniform_nu" in w] == MAPPING_CASES[name][3]
    assert d4.witnesses == ref.witnesses
    assert d4.resolution_note.startswith(ref.resolution_note + "; ")
    assert d4.resolution_note.endswith(f"; D4 evaluated on the first {mats.shape[0]} "
                                       "sampled orbits")


@pytest.mark.parametrize("name", MAPPING_CASES)
def test_agreement_reads_c4_and_d4_like_the_reference(name):
    # C4 on a trace of each orbit, D4 on them all
    map_t, region, mats = _float_mats(name)
    out = acf_asf_agreement(map_t, budget=PIN_BUDGET, region=region, seed=0)
    assert out["D4"] is band_uniform_reference(mats, PIN_BUDGET, "D4", "orbit").verdict
    assert out["C4"] is worst_verdict(band_uniform_reference(mats[k:k + 1], PIN_BUDGET, "C4",
                                                             "orbit").verdict
                                      for k in range(mats.shape[0]))


def test_one_call_holds_little_memory():
    # meir-keeler's D4 sweep: 12 orbits of 320 points, ~389k pairs inside
    # the bands, read from an int16 id block (2.5 MB) built before tracing;
    # the pair keys, int32 here, are the one array as long as them (1.6 MB),
    # where int64 keys took 3.1 MB and sorting every pair array at once
    # held 12.3 MB
    budget = SearchBudget()
    gaps = _Matrices(_orbit_gaps("mk", 12, 320))
    ids = _id_block(gaps, budget)
    tracemalloc.start()
    try:
        _band_uniform(ids, gaps, budget, "D4")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_500_000


def test_one_mapping_call_holds_little_memory():
    # meir-keeler's whole check_acf_mapping call at seed 0: the orbit block
    # of 400 seeds walked 320 steps (1 MB), and D4's int16 id block of 12
    # orbits of 320 points (2.5 MB) with its pair keys (1.6 MB), ~6.6 MB in
    # all; a float64 (12, 320, 320) gap block (9.8 MB) held it at 15.7 MB
    scn = build_scenario(get_entry("meir-keeler").doc)
    tracemalloc.start()
    try:
        check_acf_mapping(scn.map_t, budget=scn.budget, region=scn.region, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9_000_000


def _gathered(tmp_path, monkeypatch, entry, cid):
    """The shifted ids _band_uniform gathers on the seed-0 call cid of the
    gallery entry, counted through _shifted, which every gather of the
    sweep goes through."""
    calls = []

    def capture(ids, gaps, budget, cid):
        calls.append((ids, gaps, budget, cid))
        return _band_uniform(ids, gaps, budget, cid)

    monkeypatch.setattr(certificates, "_band_uniform", capture)
    run_scenario_doc(get_entry(entry).doc, str(tmp_path / "out"), seed=0)
    [(ids, gaps, budget)] = [(ids, gaps, budget) for ids, gaps, budget, c in calls if c == cid]
    gathered = 0

    def counting(flat, positions, nu, n):
        nonlocal gathered
        gathered += positions.size
        return _shifted(flat, positions, nu, n)

    monkeypatch.setattr(certificates, "_shifted", counting)
    _band_uniform(ids, gaps, budget, cid)
    return gathered


def test_the_sweep_stops_early_on_meir_keeler(tmp_path, monkeypatch):
    # one gather of every kept pair at every shift read 24.9M shifted gaps
    # on this call, stopping each eps at its first violator ~5.6M, and
    # reading a stuck eps's increment first ~1.7M
    assert 0 < _gathered(tmp_path, monkeypatch, "meir-keeler", "D4") <= 2_000_000


def test_the_sweep_reads_increments_first_on_meir_keeler_c4(tmp_path, monkeypatch):
    # ~0.84M before the increment-first order, ~0.24M with it
    assert 0 < _gathered(tmp_path, monkeypatch, "meir-keeler", "C4") <= 400_000


def test_a_passing_walk_gathers_no_more_than_before(tmp_path, monkeypatch):
    # banach-half's D4 eps each pass a wider band at every shift until their
    # widest, so none reads an increment first; the first-violator sweep
    # before the increment-first order gathered 1 140 179 shifted gaps here
    assert 0 < _gathered(tmp_path, monkeypatch, "banach-half", "D4") <= 1_140_179
