"""The shared-shift band search (C4, D4) against a plain reference.

_band_uniform decides every delta candidate of one eps in a single sorted
sweep over nu.  The reference below is the direct search it replaced: for
each (eps, delta) it gathers the in-band pairs at every shift and stops at
the first shift that pulls them all to eps.  Both must give the same
verdict, the same witnesses (tie-breaking included) and the same note, on
small tie-heavy gap matrices whose eps/delta grids reach every outcome:
a vacuous band, a pass at some shift, and every candidate defeated.
"""

import numpy as np
import pytest
from hypothesis import find, given, strategies as st
from hypothesis.extra.numpy import arrays

from fplab.certificates import _BAND_NOTE, _band_uniform
from fplab.reports import CertificateReport, SearchBudget, Verdict, reports_to_json_text, \
    witness, worst_verdict


def band_uniform_reference(mats, budget, cid, item):
    """One search per (eps, delta): gather the band at every nu in turn."""
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    iu = np.triu_indices(ih, k=1)
    base = mats[:, iu[0], iu[1]]
    wits, verdicts = [], []
    for eps in budget.eps_grid:
        outcome = None
        defeat = None
        for delta in budget.delta_candidates:
            k_idx, p_idx = np.nonzero((base > eps) & (base < eps + delta))
            if k_idx.size == 0:
                outcome = witness(eps=eps, delta=delta, in_band=0, vacuous=True)
                break
            rows, cols = iu[0][p_idx], iu[1][p_idx]
            best_val, best_nu = np.inf, 0
            for nu in range(1, nh + 1):
                worst = float(mats[k_idx, rows + nu, cols + nu].max())
                if worst <= eps + eta:
                    outcome = witness(eps=eps, delta=delta, nu=nu,
                                      in_band=int(k_idx.size))
                    break
                if worst < best_val:
                    best_val, best_nu = worst, nu
            if outcome is not None:
                break
            shifted = mats[k_idx, rows + best_nu, cols + best_nu]
            w = int(np.argmax(shifted))
            defeat = witness(eps=eps, delta=delta, **{item: int(k_idx[w])},
                             i=int(rows[w]), j=int(cols[w]),
                             gap=float(base[k_idx[w], p_idx[w]]),
                             best_uniform_nu=best_nu, value_at_best_nu=float(shifted[w]))
        wits.append(outcome if outcome is not None else defeat)
        verdicts.append(Verdict.PASS if outcome is not None else Verdict.FAIL)
    return CertificateReport(cid, worst_verdict(verdicts), wits, budget, _BAND_NOTE)


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
    budget = SearchBudget(eps_grid=tuple(eps_grid), delta_candidates=tuple(sorted(deltas)[::-1]),
                          index_horizon=ih, nu_horizon=nh)
    return mats, budget


def _both(case):
    mats, budget = case
    return (_band_uniform(mats, budget, "D4", "orbit"),
            band_uniform_reference(mats, budget, "D4", "orbit"))


def _assert_same(fast, ref):
    assert fast.verdict is ref.verdict
    assert fast.witnesses == ref.witnesses
    assert fast.resolution_note == ref.resolution_note
    assert reports_to_json_text([fast]) == reports_to_json_text([ref])


@given(band_cases())
def test_sweep_equals_reference(case):
    _assert_same(*_both(case))


def _outcomes(case):
    return {"vacuous" if w.get("vacuous") else "nu" if "nu" in w else "defeat"
            for w in _both(case)[1].witnesses}


def test_cases_reach_every_outcome():
    # the strategy above must reach each kind of band outcome, or the
    # property test would leave that branch of the sweep unchecked
    for kind in ("vacuous", "nu", "defeat"):
        case = find(band_cases(), lambda c, kind=kind: kind in _outcomes(c))
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
