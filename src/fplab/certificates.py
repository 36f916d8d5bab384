"""Empirical checkers for the contraction conditions the laboratory studies.

Sequence-level conditions (ids C1..C5) look at the gap sequence of a pair of
traces; family conditions (C6..C9) add a comparison gauge and a gauge family;
mapping-level conditions (D1..D4) sample point pairs and iterate the map
on all of them in one traces._extend_orbit block, the engine and escape
rule the traces and solvers walk too.  A checker measures a trace with the
premetric the trace carries, and a map with the metric of the map's space.
Each checker returns three-valued CertificateReports with explicit witnesses
and a resolution note spelling out what the verdict means at the budget used.

Band-type conditions (C2, C4, D2, D4) ask for a distance band (eps, eps+delta)
whose members all drop to eps or below within the shift horizon.  The search
scans delta candidates in decreasing order and accepts the first candidate
whose band raises no objection; a band nobody occupies counts as a witness at
this budget (the vacuous case is flagged in the report).  When every candidate
is defeated the verdict is fail, carrying the defeating item, and the note
records that the refutation is bounded by the nu horizon and the delta grid.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import ConfigurationError, InputError, RefusalError
from .gauges import C6_MIN_HORIZON, Gauge, GaugeFamily, _members, _require_count, \
    check_family_C6, check_family_C7_multi, require_profile
from .maps import NamedMap
from .reports import ASMK_VARIANTS, PSI_VARIANTS, CertificateReport, SearchBudget, Verdict, \
    last_quarter, witness, worst_verdict
from .spaces import Box, CyclicSetting, Premetric, default_region, metric_premetric, \
    premetric_diagonal, premetric_matrix, premetric_values, sample_pairs
from .traces import ESCAPE_NORM, IterationTrace, _extend_orbit

F_PROFILE = frozenset({"right_continuous", "nondecreasing", "positive_on_positive"})
PSI_PROFILE_STANDARD = frozenset(
    {"nondecreasing", "upper_semicontinuous", "strictly_below_identity", "zero_at_zero"}
)
PSI_PROFILE_ZHANG = frozenset({"nondecreasing", "right_upper_semicontinuous"})
_PSI_PROFILES = dict(zip(PSI_VARIANTS, (PSI_PROFILE_STANDARD, PSI_PROFILE_ZHANG)))
#: check_p_controls_d: a pair whose tail p-gap is below PCD_ETA must have its
#: tail d-gap below PCD_D_TOL.
PCD_ETA = 1e-9
PCD_D_TOL = 1e-6
#: check_banach_rate passes a sup ratio of at most 1 - RATE_MARGIN.
RATE_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# Shared search machinery


def _trace_gap_windows(gaps: np.ndarray, budget: SearchBudget) -> tuple[np.ndarray, np.ndarray]:
    """Front gap values and, per front index, the nu_horizon follow-up values."""
    ih, nh = budget.index_horizon, budget.nu_horizon
    if gaps.shape[0] < ih + nh:
        raise InputError(
            f"need at least {ih + nh} aligned gaps for this budget "
            f"(index_horizon + nu_horizon), got {gaps.shape[0]}"
        )
    win = np.lib.stride_tricks.sliding_window_view(gaps, nh + 1)
    return win[:ih, 0], win[:ih, 1:]


def _pair_premetric(trace_x: IterationTrace, trace_y: IterationTrace) -> Premetric:
    """The one premetric a pair of traces is measured under: InputError
    unless both traces carry it."""
    p, q = trace_x.premetric, trace_y.premetric
    if p != q:
        raise InputError(f"the traces are measured under different premetrics: {p.describe()} "
                         f"on space {p.space.id!r} and {q.describe()} on space {q.space.id!r}")
    return p


def _aligned_gaps(trace_x: IterationTrace, trace_y: IterationTrace) -> np.ndarray:
    n = min(len(trace_x), len(trace_y))
    return premetric_diagonal(_pair_premetric(trace_x, trace_y), trace_x.coords[:n],
                              trace_y.coords[:n])


def _pair_matrix(trace_x: IterationTrace, trace_y: IterationTrace,
                 budget: SearchBudget) -> np.ndarray:
    """The cross gaps p(x_i, y_j) of the first index_horizon + nu_horizon
    points of each trace; C4 and C5 pass one trace twice."""
    need = budget.index_horizon + budget.nu_horizon
    short = min(len(trace_x), len(trace_y))
    if short < need:
        raise InputError(f"need a trace of at least {need} points for this budget, "
                         f"got {short}")
    return premetric_matrix(_pair_premetric(trace_x, trace_y), trace_x.coords[:need],
                            trace_y.coords[:need])


_BAND_NOTE = (
    "delta candidates scanned in decreasing order; the first candidate whose band "
    "(eps, eps+delta) raises no objection within the nu horizon is the witness; an "
    "unoccupied band counts as a witness at this budget and is flagged vacuous; fail "
    "means every candidate was defeated, a refutation bounded by the nu horizon"
)


def _check_c1(gaps: np.ndarray, budget: SearchBudget) -> CertificateReport:
    """Small-gap hypothesis: some delta for which any front index with a gap
    below delta forces the tail-limsup estimate down to eps."""
    front, _ = _trace_gap_windows(gaps, budget)
    tail_est = float(last_quarter(gaps).max())
    eta = budget.slack
    wits: list[dict] = []
    verdicts: list[Verdict] = []
    for eps in budget.eps_grid:
        if tail_est <= eps + eta:
            wits.append(witness(eps=eps, delta=budget.delta_candidates[0],
                                tail_limsup_estimate=tail_est))
            verdicts.append(Verdict.PASS)
            continue
        min_front = float(front.min())
        delta = next((d for d in budget.delta_candidates if d <= min_front), None)
        if delta is not None:
            wits.append(witness(eps=eps, delta=delta, tail_limsup_estimate=tail_est,
                                smallest_front_gap=min_front, vacuous=True))
            verdicts.append(Verdict.PASS)
        else:
            i = int(np.argmin(front))
            wits.append(witness(eps=eps, index=i, gap=float(front[i]),
                                tail_limsup_estimate=tail_est))
            verdicts.append(Verdict.FAIL)
    return CertificateReport(
        "C1", worst_verdict(verdicts), wits, budget,
        "tail-limsup estimated as the max over the last quarter of the stored gaps; "
        "vacuous pass means no front gap sits below the witnessing delta",
    )


def _band_per_index(
    trigger: np.ndarray,
    windows: np.ndarray,
    budget: SearchBudget,
    cid: str,
    item: str,
) -> CertificateReport:
    """Band condition with a per-item shift index (C2 and D2)."""
    eta = budget.slack
    esc_min = windows.min(axis=1)
    wits: list[dict] = []
    verdicts: list[Verdict] = []
    for eps in budget.eps_grid:
        outcome = None
        defeat = None
        for delta in budget.delta_candidates:
            in_band = np.nonzero((trigger > eps) & (trigger < eps + delta))[0]
            if in_band.size == 0:
                outcome = witness(eps=eps, delta=delta, in_band=0, vacuous=True)
                break
            bad = in_band[esc_min[in_band] > eps + eta]
            if bad.size == 0:
                first_nu = np.argmax(windows[in_band] <= eps + eta, axis=1) + 1
                outcome = witness(eps=eps, delta=delta, nu=int(first_nu.max()),
                                  in_band=int(in_band.size))
                break
            b = int(bad[0])
            defeat = witness(eps=eps, delta=delta, **{item: b},
                             gap=float(trigger[b]), best_follow_up=float(esc_min[b]))
        if outcome is not None:
            wits.append(outcome)
            verdicts.append(Verdict.PASS)
        else:
            wits.append(defeat)
            verdicts.append(Verdict.FAIL)
    return CertificateReport(cid, worst_verdict(verdicts), wits, budget, _BAND_NOTE)


def _triangle(mats: np.ndarray, budget: SearchBudget) -> np.ndarray:
    """Where each pair i < j of the index horizon sits in one raveled
    (n, n) gap matrix of mats: at i * n + j, in np.triu_indices order,
    which is ascending, so row i's pairs start at i * (2 * ih - i - 1) / 2."""
    ih, nh = budget.index_horizon, budget.nu_horizon
    n = mats.shape[1]
    if n < ih + nh:
        raise InputError(
            f"need gap matrices of side at least {ih + nh} for this budget, "
            f"got {n}"
        )
    upper = np.less.outer(np.arange(ih), np.arange(n))  # j > i, in rows of side n
    upper[:, ih:] = False
    return np.flatnonzero(upper)


def _pair_positions(mats: np.ndarray, budget: SearchBudget) -> np.ndarray:
    """Where each pair i < j of the index horizon sits in mats.reshape(-1):
    orbit k's pair (i, j) at k * n * n + i * n + j, orbit by orbit and in
    _triangle order.  Shift nu moves every position by nu * (n + 1), so
    C4, C5 and D4 read a shift as one flat gather, and
    np.unravel_index(position, mats.shape) gives (orbit, i, j)."""
    k, n = mats.shape[:2]
    return (_triangle(mats, budget) + (np.arange(k) * (n * n))[:, None]).reshape(-1)


# Pairs in the first gather of a read of the band sweep; a gather that
# carries on where the last one ended is twice as long as it.
_FIRST_CHUNK = 1024
# The band sweep sorts each kept pair by one integer key, its segment id
# above its flat position; 2 ** 40 gap values would take 8 TB, so a
# position always fits below the id.  The keys are the one array of the
# call as long as the pairs: they are built from blocks of as many whole
# rows as fit in _BLOCK_PAIRS pairs (one row at least), so that every
# temporary of a block stays below 128 KiB, the size from which a freed
# array is fetched from the system again on its next use.
_POSITION_BITS = 40
_BLOCK_PAIRS = 16000
# A segment id table has at most 2 ** _TABLE_BITS + 1 buckets.
_TABLE_BITS = 13


class _SegmentIds:
    """The segment id of a gap among sorted cuts (see _band_uniform), read
    from its float64 bits: the number of edges at or below it, the edges
    being each cut followed by the next float above it, as
    np.searchsorted(edges, gaps, side="right") gives it.

    Nonnegative floats order like their uint64 bits, subnormals included,
    and every cut is positive.  So a gap strictly between the first and the
    last cut is exactly one whose bits lie strictly between theirs: NaN,
    +inf, -0.0 and negative gaps all have bits at or above the last cut's.
    The bits between are cut into at most 2 ** _TABLE_BITS + 1 buckets of
    equal width, one per value of their top bits, and a bucket that holds
    no edge lies wholly inside one segment, whose id the table holds.  The
    table holds -1 for a bucket that holds an edge, and only a gap there is
    searched for among the edges' bits.  The width only decides how many
    gaps are searched, never an id."""

    __slots__ = ("lo", "hi", "shift", "base", "table", "edge_bits")

    def __init__(self, cuts: np.ndarray):
        with np.errstate(over="ignore"):  # the next float above the largest finite one is +inf
            edges = np.column_stack([cuts, np.nextafter(cuts, np.inf)]).reshape(-1)
        self.edge_bits = edges.view(np.uint64)
        self.lo, self.hi = (int(b) for b in cuts[[0, -1]].view(np.uint64))
        self.shift = max(0, (self.hi - self.lo).bit_length() - _TABLE_BITS)
        self.base = self.lo >> self.shift
        # edges per bucket, from the first cut's to the one past the last
        # cut's, which only the next float above the last cut can reach
        held = np.bincount((self.edge_bits >> self.shift) - self.base)
        below = np.cumsum(held) - held
        self.table = np.where(held == 0, below, -1)[:(self.hi >> self.shift) - self.base + 1]

    def inside(self, bits: np.ndarray) -> np.ndarray:
        """Which gaps, given by their bits, lie strictly between the first
        and the last cut."""
        return (bits > self.lo) & (bits < self.hi)

    def __call__(self, bits: np.ndarray) -> np.ndarray:
        """The int64 segment ids of gaps that lie inside (by their bits)."""
        ids = self.table[(bits >> self.shift) - self.base]
        searched = np.flatnonzero(ids < 0)
        if searched.size:
            ids[searched] = np.searchsorted(self.edge_bits, bits[searched], side="right")
        return ids


def _shifted(flat: np.ndarray, positions: np.ndarray, nu: int, n: int) -> np.ndarray:
    """The gaps nu steps down the diagonal from the pairs at positions in
    flat, the raveled (k, n, n) gap matrices (see _pair_positions)."""
    return flat[nu * (n + 1):].take(positions)


class _Chunks:
    """The shifted gaps of the kept pairs pos at one shift, gathered in
    chunks through _shifted, of which only the current one, pos[a:b], is
    kept.  A read that starts outside it gathers a new chunk from its
    start: twice as long as the last if it carries on from that chunk's
    end, _FIRST_CHUNK pairs if it starts anywhere else."""

    __slots__ = ("flat", "pos", "nu", "n", "a", "b", "chunk", "size")

    def __init__(self, flat: np.ndarray, pos: np.ndarray, nu: int, n: int):
        self.flat, self.pos, self.nu, self.n = flat, pos, nu, n
        self.a = self.b = 0
        self.size = _FIRST_CHUNK

    def first_violator(self, q: int, end: int, limit: float, last: int) -> int:
        """The first position from q on, before end, whose shifted gap is
        not <= limit (a NaN is not), or max(q, end) if there is none; no
        chunk gathered here reaches past last, which is at least end."""
        while q < end:
            if not self.a <= q < self.b:
                if q != self.b:
                    self.size = _FIRST_CHUNK
                self.a, self.b = q, min(q + self.size, last)
                self.chunk = _shifted(self.flat, self.pos[self.a:self.b], self.nu, self.n)
                self.size *= 2
            seen = self.chunk[q - self.a:min(end, self.b) - self.a]
            if not seen.max() <= limit:  # a violator here; a NaN maximum too
                return q + int((seen <= limit).argmin())
            q = min(end, self.b)
        return q


def _band_uniform(mats: np.ndarray, budget: SearchBudget, cid: str) -> CertificateReport:
    """Band condition with one shift index shared by every in-band pair
    (C4 and D4).  mats has shape (k, n, n), one gap matrix per orbit.

    One classification of the pairs and one sweep over nu decide every
    (eps, delta) band of the call.  Every eps and every eps + delta is a
    cut; a gap strictly between two cuts gets an even segment id and a gap
    equal to a cut an odd one (2 * cuts below it, plus 1 if on a cut): the
    number of edges at or below it, each cut and the next float above it
    being the edges.  _SegmentIds reads every id from a gap's bits.  The
    open band (eps, eps + delta) is then exactly a range of ids, from just
    above eps's id to just below eps + delta's.  The pairs are classified
    orbit by orbit, in blocks of as many whole rows of the upper triangle
    (see _triangle) as _BLOCK_PAIRS pairs hold: pairs outside every band are
    dropped, and each kept pair's key, the id above its position, goes
    straight into one array, which is sorted in place.  So each segment is
    a contiguous run of pairs kept in memory order, and a search among the
    sorted keys gives every band's size.

    The bands of one eps are nested id ranges from the same first id, so at
    shift nu one position decides them all: stop, the first kept pair from
    that id on whose shifted gap is not <= eps + slack (a NaN is not).  A
    band passes at nu exactly when it ends at or before stop.  The live eps
    are walked in increasing order: their first ids, widest ends and limits
    all rise with eps, and a pair at or below one eps's limit is at or
    below every larger eps's, so each walk starts at the later of its own
    first id and the previous eps's stop, which it reads again.

    An eps whose widest passing band, p, passed no wider one at the last
    shift reads the pairs that band p - 1 adds to band p (its increment)
    before anything else.  A violator there settles the eps at nu: band
    p - 1 and every wider band fail, the narrower ones already have their
    first nu, and band p's pairs are not read.  The stop it hands on is
    left as it was, which is still a valid start for the next eps.  Only a
    clean increment sends the eps back over band p's pairs, whose shifted
    gaps may have risen since, and then on past the increment.  Every other
    eps, one with no passing band yet or one that passed a wider band at
    the last shift, walks straight from its start.  Every read of a shift
    goes through one _Chunks over the kept pairs' positions (see
    _pair_positions), and a walk's chunks double from _FIRST_CHUNK.  An eps
    retires once its widest band passes, because that band wins before any
    narrower one is looked at, and the sweep stops when no eps is live.

    Deltas are then decided in decreasing order: the first band that is
    vacuous or passes at some nu is the witness, with its first passing nu.
    When every band is defeated, the report carries only the last delta's
    defeat, so that witness alone is rebuilt.  The narrowest bands of the
    failing eps are gathered again at every nu, with one gather per nu for
    all of them, for their worst values; at the first nu giving a band's
    strict minimum (0 if no value is below inf), the defeat is the first
    worst pair in np.nonzero order.  This breaks ties exactly as a separate
    search per (eps, delta) would.
    """
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    k, n = mats.shape[:2]
    flat = mats.reshape(-1)
    eps_grid, deltas = budget.eps_grid, budget.delta_candidates
    uppers = [[eps + d for d in deltas] for eps in eps_grid]
    cuts = np.unique(np.concatenate([eps_grid, np.ravel(uppers)]))
    segment_ids = _SegmentIds(cuts)
    tri = _triangle(mats, budget)
    starts = [i * (2 * ih - i - 1) // 2 for i in range(0, ih, max(1, _BLOCK_PAIRS // ih))]
    blocks = list(zip(starts, starts[1:] + [tri.size]))  # whole rows of the triangle
    keys = np.empty(k * tri.size, dtype=np.int64)
    count = 0
    for orbit in range(k):
        offset = orbit * n * n
        matrix = flat[offset:offset + n * n]
        for a, b in blocks:
            at = tri[a:b]
            bits = matrix[at].view(np.uint64)
            inside = segment_ids.inside(bits)
            at, bits = at[inside], bits[inside]
            out = keys[count:count + at.size]
            np.left_shift(segment_ids(bits), _POSITION_BITS, out=out)
            out |= at
            out += offset
            count += at.size
    keys = keys[:count]
    keys.sort()  # by id, and by position within an id
    n_seg = 2 * cuts.size
    offsets = np.searchsorted(keys, np.arange(n_seg + 1) << _POSITION_BITS)  # pairs below id
    keys &= (1 << _POSITION_BITS) - 1
    pos = keys  # kept pairs in id order
    # band (eps, eps + delta) holds the ids lo <= id < hi; hi never falls
    # below lo, so a band with eps + delta == eps is empty
    lo = 2 * np.searchsorted(cuts, eps_grid) + 2  # (n_eps,)
    hi = np.maximum(2 * np.searchsorted(cuts, uppers) + 1, lo[:, None])  # (n_eps, n_deltas)
    sizes = offsets[hi] - offsets[lo][:, None]

    # per eps its first position, its band ends widest first and
    # narrowest first, and its limit
    ends = offsets[hi]
    first, widest_first, ascending = offsets[lo].tolist(), ends.tolist(), \
        ends[:, ::-1].tolist()
    limits = [eps + eta for eps in eps_grid]
    n_d = len(deltas)
    first_pass = np.zeros(hi.shape, dtype=int)
    passing = [n_d] * len(eps_grid)  # widest band passed so far, or none
    stuck = [False] * len(eps_grid)  # passed a band, but no wider one at the last nu
    # the live eps in increasing order
    live = [t for t in np.argsort(eps_grid, kind="stable").tolist() if sizes[t, 0]]
    for nu in range(1, nh + 1):
        if not live:
            break
        chunks, last = _Chunks(flat, pos, nu, n), widest_first[live[-1]][0]
        stop = 0
        for t in live:
            e, p, limit = widest_first[t], passing[t], limits[t]
            q = max(first[t], stop)
            if stuck[t] and q < e[p - 1]:
                # band p - 1's increment first, band p again only if it is clean
                if chunks.first_violator(max(q, e[p]), e[p - 1], limit, e[p - 1]) < e[p - 1]:
                    continue
                q = chunks.first_violator(q, e[p], limit, e[p])
                if q < e[p]:
                    stop = q
                    continue
                q = max(q, e[p - 1])
            stop = chunks.first_violator(q, e[0], limit, last)
            # bands m and narrower end by stop, so they pass at nu
            m = n_d - bisect_right(ascending[t], stop)
            stuck[t] = m >= p < n_d
            if m < p:
                first_pass[t, m:p] = nu
                passing[t] = m
        live = [t for t in live if passing[t]]

    wits: list[dict | None] = []
    verdicts: list[Verdict] = []
    failing: list[int] = []
    for t, eps in enumerate(eps_grid):
        outcome = None
        for m, delta in enumerate(deltas):
            if sizes[t, m] == 0:
                outcome = witness(eps=eps, delta=delta, in_band=0, vacuous=True)
                break
            if first_pass[t, m]:
                outcome = witness(eps=eps, delta=delta, nu=int(first_pass[t, m]),
                                  in_band=int(sizes[t, m]))
                break
        wits.append(outcome)
        verdicts.append(Verdict.FAIL if outcome is None else Verdict.PASS)
        if outcome is None:
            failing.append(t)
    if failing:
        # each failing eps's narrowest band: its pairs are one run of ids,
        # and ascending positions are np.nonzero order
        bands = [np.sort(pos[offsets[lo[t]]:offsets[hi[t, -1]]]) for t in failing]
        heads = np.cumsum([0] + [band.size for band in bands[:-1]])
        joined = np.concatenate(bands)
        worst = [np.maximum.reduceat(_shifted(flat, joined, nu, n), heads).tolist()
                 for nu in range(1, nh + 1)]
        for t, band, values in zip(failing, bands, zip(*worst)):
            best_val, best_nu = np.inf, 0
            for nu, value in enumerate(values, start=1):
                if value < best_val:
                    best_val, best_nu = value, nu
            shifted = _shifted(flat, band, best_nu, n)
            w = int(np.argmax(shifted))
            orbit, i, j = np.unravel_index(band[w], mats.shape)
            wits[t] = witness(eps=eps_grid[t], delta=deltas[-1], orbit=int(orbit), i=int(i),
                              j=int(j), gap=float(flat[band[w]]), best_uniform_nu=best_nu,
                              value_at_best_nu=float(shifted[w]))
    return CertificateReport(cid, worst_verdict(verdicts), wits, budget, _BAND_NOTE)


_STRICT_NOTE = (
    "strict decrease tested as new < old - slack; items with value at or below the "
    "slack are not triggered; fail means no shift within the nu horizon decreases "
    "the item"
)


def _strict_per_index(
    trigger: np.ndarray,
    windows: np.ndarray,
    budget: SearchBudget,
    cid: str,
    item: str,
) -> CertificateReport:
    eta = budget.slack
    active = np.nonzero(trigger > eta)[0]
    if active.size == 0:
        return CertificateReport(
            cid, Verdict.PASS,
            [witness(triggered=0, note="every value is already within the slack of zero")],
            budget, _STRICT_NOTE,
        )
    esc_min = windows[active].min(axis=1)
    bad = active[esc_min >= trigger[active] - eta]
    if bad.size:
        wits = [
            witness(**{item: int(b)}, gap=float(trigger[b]),
                    best_follow_up=float(windows[b].min()))
            for b in bad[:8]
        ]
        return CertificateReport(cid, Verdict.FAIL, wits, budget, _STRICT_NOTE)
    first_nu = np.argmax(windows[active] < (trigger[active] - eta)[:, None], axis=1) + 1
    return CertificateReport(
        cid, Verdict.PASS,
        [witness(triggered=int(active.size), nu=int(first_nu.max()))],
        budget, _STRICT_NOTE,
    )


def _strict_pairs(mats: np.ndarray, budget: SearchBudget, cid: str) -> CertificateReport:
    """Pairwise strict decrease under a shared shift, one matrix per orbit.

    One sweep over nu reads each shift through the triggered pairs'
    positions (see _pair_positions), drops the pairs that shift decreases
    and passes at the first nu that leaves none; the pairs still left after
    the horizon are the stuck ones, and only the first 8 of them
    (np.nonzero order) get their best follow-up, the minimum over every
    shift."""
    nh, eta = budget.nu_horizon, budget.slack
    n = mats.shape[1]
    pos = _pair_positions(mats, budget)
    flat = mats.reshape(-1)
    gaps = flat[pos]
    triggered = gaps > eta
    count = int(np.count_nonzero(triggered))
    if count == 0:
        return CertificateReport(
            cid, Verdict.PASS,
            [witness(triggered=0, note="every pair gap is already within the slack of zero")],
            budget, _STRICT_NOTE,
        )
    pos, limit = pos[triggered], gaps[triggered] - eta
    for nu in range(1, nh + 1):
        cleared = _shifted(flat, pos, nu, n) < limit
        if not cleared.any():
            continue
        pos, limit = pos[~cleared], limit[~cleared]
        if not pos.size:
            return CertificateReport(
                cid, Verdict.PASS, [witness(triggered=count, nu=nu)], budget, _STRICT_NOTE)
    stuck = pos[:8]
    best = np.full(stuck.size, np.inf)
    for nu in range(1, nh + 1):
        best = np.minimum(best, _shifted(flat, stuck, nu, n))
    wits = [
        witness(orbit=int(k), i=int(i), j=int(j), gap=float(flat[q]), best_follow_up=float(m))
        for q, k, i, j, m in zip(stuck, *np.unravel_index(stuck, mats.shape), best)
    ]
    return CertificateReport(cid, Verdict.FAIL, wits, budget, _STRICT_NOTE)


def _pair_condition(mats: np.ndarray, budget: SearchBudget, cid: str) -> CertificateReport:
    """C4 or D4 (the shared-shift band) or C5 (strict decrease) on one gap
    matrix per orbit.  An index horizon below 2 holds no pair i < j:
    nothing is examined, so the report is inconclusive and claims nothing."""
    if budget.index_horizon < 2:
        return CertificateReport(
            cid, Verdict.INCONCLUSIVE, [], budget,
            f"index horizon {budget.index_horizon} is below the 2 indices a pair i < j "
            f"needs; {cid} was not checked",
        )
    search = _strict_pairs if cid == "C5" else _band_uniform
    return search(mats, budget, cid)


# ---------------------------------------------------------------------------
# Sequence-pair checkers


def check_asf1(
    trace_x: IterationTrace,
    trace_y: IterationTrace,
    *,
    budget: SearchBudget | None = None,
) -> list[CertificateReport]:
    """C1 (small gaps force small tails), C2 (band escape, per-index shift),
    C3 (strict decrease somewhere ahead) on the aligned gap sequence
    p(x_n, y_n), p the premetric both traces carry.

    Raises:
        InputError: traces shorter than index_horizon + nu_horizon, or
            under different premetrics.
    """
    return _gap_reports(_aligned_gaps(trace_x, trace_y), budget or SearchBudget())


def _gap_reports(gaps: np.ndarray, budget: SearchBudget) -> list[CertificateReport]:
    """C1, C2 and C3 on one aligned gap run."""
    front, windows = _trace_gap_windows(gaps, budget)
    return [
        _check_c1(gaps, budget),
        _band_per_index(front, windows, budget, "C2", "index"),
        _strict_per_index(front, windows, budget, "C3", "index"),
    ]


def check_asf2(
    trace: IterationTrace,
    *,
    budget: SearchBudget | None = None,
) -> CertificateReport:
    """C4: one shift index, shared by every in-band pair (i, j)."""
    budget = budget or SearchBudget()
    return _pair_condition(_pair_matrix(trace, trace, budget)[None, ...], budget, "C4")


def check_c5(
    trace: IterationTrace,
    *,
    budget: SearchBudget | None = None,
) -> CertificateReport:
    """C5: every pair gap above the slack strictly decreases under some shift."""
    budget = budget or SearchBudget()
    return _pair_condition(_pair_matrix(trace, trace, budget)[None, ...], budget, "C5")


# ---------------------------------------------------------------------------
# Gauge-family checkers (C6-C9)


def check_asmk(
    trace_x: IterationTrace,
    trace_y: IterationTrace,
    f_gauge: Gauge,
    family: GaugeFamily,
    *,
    budget: SearchBudget | None = None,
    variant: str = "asmk1",
) -> list[CertificateReport]:
    """Gauge-family domination of the gap sequence.

    asmk1 returns (C6, C7, C8): family tails below eps, band pulled below eps
    by some member, and the diagonal domination
    F(gap(n+i)) <= member_n(F(gap(i))).  asmk2 returns (C6, C7, C9) where the
    domination runs over cross gaps p(x_{n+i}, y_{n+j}).

    Raises:
        RefusalError: F misses or fails its required regularity profile, or
            F(0) <= 0 while the family does not declare members fixing zero.
        InputError: traces too short for the budget or under two premetrics.
    """
    budget = budget or SearchBudget()
    if variant not in ASMK_VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; use asmk1 or asmk2")
    require_profile(f_gauge, F_PROFILE, eta=budget.slack)
    f_zero = f_gauge(0.0)
    if f_zero <= 0.0 and not family.zero_fixed:
        raise RefusalError(
            "the gauge family must declare members fixing zero because F(0) <= 0 "
            f"(measured F(0)={f_zero})"
        )
    note = (
        f"F(0)={f_zero} measured, family {family.describe()}; domination tested with "
        f"slack {budget.slack} for shifts 1..{budget.nu_horizon}"
    )
    if budget.nu_horizon < C6_MIN_HORIZON:
        c6 = CertificateReport("C6", Verdict.INCONCLUSIVE, resolution_note=(
            f"nu horizon {budget.nu_horizon} is below the {C6_MIN_HORIZON} members C6 reads "
            f"a tail from; C6 was not checked"))
    else:
        c6 = check_family_C6(family, budget.eps_grid, n_horizon=budget.nu_horizon,
                             eta=budget.slack)
    c7 = check_family_C7_multi(family, budget.eps_grid, budget.delta_candidates,
                               nu_horizon=budget.nu_horizon, eta=budget.slack)

    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    if variant == "asmk1":
        gaps = _aligned_gaps(trace_x, trace_y)
        _trace_gap_windows(gaps, budget)  # the length guard
        fg, cid = f_gauge.apply_array(gaps), "C8"
    else:
        fg, cid = f_gauge.apply_array(_pair_matrix(trace_x, trace_y, budget)), "C9"

    def block(n: int) -> np.ndarray:
        # F of the gaps n steps ahead: C8's diagonal run, C9's cross square
        return fg[(slice(n, n + ih),) * fg.ndim]

    defeats: list[dict] = []
    checked = 0
    for checked, dominated in enumerate(_members(family, block(0), nh), start=1):
        lhs = block(checked)
        over = lhs > dominated + eta
        if over.any():
            # a C8 defeat names its index i, a C9 defeat its cross pair (i, j)
            for at in map(tuple, np.argwhere(over)[:2]):
                defeats.append(witness(n=checked, **dict(zip(("i", "j"), map(int, at))),
                                       lhs=float(lhs[at]), rhs=float(dominated[at])))
        if len(defeats) >= 8:
            break
    if defeats:
        verdict, wits = Verdict.FAIL, defeats
    else:
        wits = [witness(checked_shifts=checked, checked_indices=ih)]
        verdict = Verdict.PASS if checked == nh else Verdict.INCONCLUSIVE
        if checked < nh:
            note += (f"; the family has only {checked} members, so shifts "
                     f"{checked + 1}..{nh} were not checked and no pass is claimed")
    return [c6, c7, CertificateReport(cid, verdict, wits, budget, note)]


# ---------------------------------------------------------------------------
# Mapping-level checkers (D1-D4)


def _mapping_reports(
    map_t: NamedMap,
    budget: SearchBudget,
    region: Box,
    seed: int,
    purpose: str,
) -> tuple[list[CertificateReport], np.ndarray, np.ndarray, int]:
    """D1-D4 on budget.pair_samples seed pairs drawn from region and walked
    index_horizon + nu_horizon steps in one _extend_orbit block.  A pair
    with an escaped orbit is left out.  Returns the reports, the kept
    pairs' distance curves, D4's orbit matrices (of at most
    max(4, pair_samples // 16) kept x orbits) and the escaped pair count."""
    k = budget.pair_samples
    n_steps = budget.index_horizon + budget.nu_horizon
    seeds = np.concatenate(sample_pairs(map_t.space, region, k, np.random.default_rng(seed)))
    block, alive = _extend_orbit((map_t.fn,), seeds, n_steps)
    orbits = block.swapaxes(0, 1)
    valid = (alive[:k] == n_steps) & (alive[k:] == n_steps)
    dists = map_t.space.distances(orbits[:k], orbits[k:])[valid]
    if dists.shape[0] == 0:
        raise InputError(f"every sampled pair escaped; nothing to {purpose}")
    chosen = orbits[np.flatnonzero(valid)[:max(4, k // 16)]]
    # one orbit matrix at a time, written straight into the block, for peak
    # memory: a (k, n, n) call would hold every orbit's temporaries at once,
    # and stacking a list would hold every matrix twice
    mats = np.empty((chosen.shape[0], n_steps, n_steps))
    for mat, orbit in zip(mats, chosen):
        mat[...] = map_t.space.distances(orbit[:, None], orbit[None])
    trigger, windows = dists[:, 0], dists[:, 1:budget.nu_horizon + 1]
    reports = [
        _check_d1(dists, budget),
        _band_per_index(trigger, windows, budget, "D2", "pair"),
        _strict_per_index(trigger, windows, budget, "D3", "pair"),
        _pair_condition(mats, budget, "D4"),
    ]
    return reports, dists, mats, int(k - valid.sum())


def _check_d1(dists: np.ndarray, budget: SearchBudget) -> CertificateReport:
    """Delta ladder: sup of tail-limsup estimates over pairs starting below
    delta must end at or below the smallest grid eps, within the slack.
    The deltas strictly decrease, so the buckets are nested and the ladder
    never rises; a last value above the target thus has a non-empty bucket,
    whose worst pair is the defeat."""
    d0 = dists[:, 0]
    tails = last_quarter(dists).max(axis=1)
    ladder = []
    for delta in budget.delta_candidates:
        bucket = d0 < delta
        sup = float(tails[bucket].max()) if bucket.any() else 0.0
        ladder.append((delta, sup, int(bucket.sum())))
    wits = [witness(delta=d, sup_tail=s, bucket=c) for d, s, c in ladder]
    if ladder[-1][1] <= min(budget.eps_grid) + budget.slack:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
        worst = int(np.argmax(np.where(bucket, tails, -np.inf)))  # the last delta's bucket
        wits.append(witness(pair=worst, start_gap=float(d0[worst]), tail=float(tails[worst])))
    return CertificateReport(
        "D1", verdict, wits, budget,
        "tail-limsup per pair estimated over the last quarter of the orbit; the "
        f"ladder must end at or below min(eps_grid)={min(budget.eps_grid)} within "
        "the slack; empty buckets contribute 0",
    )


def check_acf_mapping(
    map_t: NamedMap,
    *,
    budget: SearchBudget | None = None,
    region: Box | None = None,
    seed: int = 0,
) -> list[CertificateReport]:
    """Mapping-level contraction conditions D1-D4 over sampled point pairs.

    D1 is the delta ladder on starting distances; D2/D3 are the band-escape
    and strict-decrease conditions on each sampled pair's distance curve;
    D4 shares one shift index across the pair structure of a capped subset
    of sampled orbits (the cap is recorded in the note).
    """
    budget = budget or SearchBudget()
    region = region or default_region(map_t.space)
    reports, dists, mats, escaped = _mapping_reports(map_t, budget, region, seed, "certify")
    suffix = (
        f"; {dists.shape[0]} sampled pairs in region {region.lows}..{region.highs}, seed {seed}"
    )
    d4_suffix = f"; D4 evaluated on the first {mats.shape[0]} sampled orbits"
    escape_suffix = (
        f"; {escaped} sampled pair(s) escaped the working bound {ESCAPE_NORM:g} "
        "and were excluded, so a clean pass is not claimed"
    ) if escaped else ""
    for rep in reports:
        rep.resolution_note += (suffix + (d4_suffix if rep.condition_id == "D4" else "")
                                + escape_suffix)
        if escaped and rep.verdict is Verdict.PASS:
            rep.verdict = Verdict.INCONCLUSIVE
    return reports


def acf_asf_agreement(
    map_t: NamedMap,
    *,
    budget: SearchBudget | None = None,
    region: Box | None = None,
    seed: int = 0,
) -> dict[str, Verdict]:
    """Mapping-level and orbit-level verdicts on identical sampled data.

    Returns {"D1": v, "C1": v, ..., "D4": v, "C4": v} where each Ck is the
    worst verdict of the sequence-level checker across the same sampled pairs
    (C4 across the same orbit subset) at the same budget, so the two levels
    can be compared like for like.
    """
    budget = budget or SearchBudget()
    reports, dists, mats, _ = _mapping_reports(
        map_t, budget, region or default_region(map_t.space), seed, "compare"
    )
    out = {rep.condition_id: rep.verdict for rep in reports}
    # per condition, its reports on every sampled pair's distance curve
    for same in zip(*(_gap_reports(row, budget) for row in dists)):
        out[same[0].condition_id] = worst_verdict(rep.verdict for rep in same)
    out["C4"] = worst_verdict(
        _pair_condition(mats[k:k + 1], budget, "C4").verdict
        for k in range(mats.shape[0])
    )
    return out


# ---------------------------------------------------------------------------
# Two-map machinery


def _images(map_t: NamedMap, coords: np.ndarray) -> np.ndarray:
    """map_t on a (n, d) block; a non-finite or wrong-shaped image is an
    InputError, as it is when the map is applied to a Point."""
    with np.errstate(all="ignore"):
        out = np.asarray(map_t.fn(coords), dtype=float)
    if out.shape != coords.shape or not np.isfinite(out).all():
        raise InputError(f"map {map_t.name!r} sends a sampled point to a non-finite "
                         "or misshapen image")
    return out


def _m_values(p: Premetric, x: np.ndarray, y: np.ndarray, tx: np.ndarray,
              sy: np.ndarray) -> np.ndarray:
    """The M rule on aligned blocks: the max of p(x,y), p(Tx,x), p(Sy,y) and
    the average of the two crossed gaps.  A later value replaces the running
    max only when strictly larger, as Python's max does, so ties between 0.0
    and -0.0 keep the earlier one's sign."""
    out = premetric_values(p, x, y)
    crossed = 0.5 * (premetric_values(p, tx, y) + premetric_values(p, sy, x))
    for later in (premetric_values(p, tx, x), premetric_values(p, sy, y), crossed):
        out = np.where(later > out, later, out)
    return out


def _fpsi_sides(map_t: NamedMap, map_s: NamedMap, p: Premetric, f_gauge: Gauge,
                psi: Gauge, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(p(Tx, Sy)) and psi(F(M(x, y))) on aligned (n, d) blocks.  Raises
    InputError exactly when some pair of the block leaves a working range."""
    tx, sy = _images(map_t, xs), _images(map_s, ys)
    lhs = f_gauge.apply_array(premetric_values(p, tx, sy))
    rhs = psi.apply_array(f_gauge.apply_array(_m_values(p, xs, ys, tx, sy)))
    return lhs, rhs


def check_f_psi_contraction(
    map_t: NamedMap,
    map_s: NamedMap,
    p: Premetric,
    f_gauge: Gauge,
    psi: Gauge,
    xs: np.ndarray,
    ys: np.ndarray,
    eta: float = 1e-9,
    psi_variant: str = "standard",
) -> CertificateReport:
    """F(p(Tx, Sy)) <= psi(F(M(x, y))) + eta on every sampled pair (id FPSI).
    The sample is two (n, d) coordinate arrays: pair i is (xs[i], ys[i]).

    psi_variant picks the regularity demanded of psi: "standard" wants a
    nondecreasing upper-semicontinuous gauge strictly below the identity and
    fixing zero, "zhang" only nondecreasing right-upper-semicontinuity.

    Pairs are taken in sample order and the check stops at the 8th defeat:
    the witnesses are the first 8 defeats, the worst margin (NaN margins
    skipped) runs up to the last pair checked, and a pair past the 8th
    defeat is never evaluated, so it cannot raise.

    Raises:
        RefusalError: a gauge misses or fails its required profile.
        InputError: empty sample, a map off the premetric's space, sample
            arrays that are not two finite (n, d) blocks of the same shape,
            or a checked pair outside a working range.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if xs.shape[:1] == (0,) or ys.shape[:1] == (0,):
        raise InputError("need at least one sampled pair")
    if psi_variant not in PSI_VARIANTS:
        raise ConfigurationError(f"unknown psi variant {psi_variant!r}")
    psi_profile = _PSI_PROFILES[psi_variant]
    require_profile(f_gauge, F_PROFILE, eta=eta)
    require_profile(psi, psi_profile, eta=eta)
    space = p.space
    if {map_t.space.id, map_s.space.id} != {space.id}:
        raise InputError(f"maps must live on the premetric's space {space.id!r}")
    if xs.ndim != 2 or xs.shape != ys.shape or xs.shape[1] != space.dimension:
        raise InputError(f"sampled pairs must be two (n, {space.dimension}) arrays of one "
                         f"shape, got {xs.shape} and {ys.shape}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise InputError("sampled coordinates must be finite")
    n = xs.shape[0]
    try:
        lhs, rhs = _fpsi_sides(map_t, map_s, p, f_gauge, psi, xs, ys)
    except InputError:
        # some pair is out of range, yet only one before the 8th defeat may
        # raise: check the pairs one at a time until then
        sides, defeated = [], 0
        for i in range(n):
            sides.append(_fpsi_sides(map_t, map_s, p, f_gauge, psi, xs[i:i + 1], ys[i:i + 1]))
            defeated += bool(sides[-1][0][0] > sides[-1][1][0] + eta)
            if defeated >= 8:
                break
        lhs, rhs = (np.concatenate(side) for side in zip(*sides))
    defeat_at = np.nonzero(lhs > rhs + eta)[0][:8].tolist()
    checked = defeat_at[-1] + 1 if len(defeat_at) == 8 else n
    margins = (lhs - rhs)[:checked]
    margins = margins[~np.isnan(margins)]
    # argmax keeps the first of tied maxima, as a running max(worst, m) does
    worst_margin = float(margins[np.argmax(margins)]) if margins.size else -np.inf
    defeats = [witness(x=xs[i].tolist(), y=ys[i].tolist(),
                       lhs=float(lhs[i]), rhs=float(rhs[i])) for i in defeat_at]
    note = (
        f"{n} sampled pairs, slack {eta}, psi profile {psi_variant}; "
        f"worst lhs-rhs margin {worst_margin:.3e}"
    )
    if defeats:
        return CertificateReport("FPSI", Verdict.FAIL, defeats, None, note)
    return CertificateReport("FPSI", Verdict.PASS,
                             [witness(pairs=n, worst_margin=worst_margin)],
                             None, note)


def check_cyclic(
    map_t: NamedMap,
    setting: CyclicSetting,
    sample_count: int = 64,
    seed: int = 0,
) -> CertificateReport:
    """Sampled points of each set must map into the other set (id CYC).

    Each set's draws are one block, mapped in one call.  The witnesses are
    the first 8 defeats in draw order; set_b is not drawn once set_a has 8,
    and a non-finite image is an InputError only before the 8th defeat."""
    _require_count("sample_count", sample_count)
    rng = np.random.default_rng(seed)
    defeats: list[dict] = []
    for source, target, label in (
        (setting.set_a, setting.set_b, "first->second"),
        (setting.set_b, setting.set_a, "second->first"),
    ):
        xs = source.sample_coords(rng, sample_count)
        if map_t.space.id != source.space.id:
            raise InputError(f"map {map_t.name!r} on space {map_t.space.id!r} applied to a "
                             f"point from {source.space.id!r}")
        with np.errstate(all="ignore"):
            images = np.asarray(map_t.fn(xs), dtype=float)
            if images.shape != xs.shape:
                raise InputError(f"space {map_t.space.id!r} is {map_t.space.dimension}-"
                                 f"dimensional, got {tuple(np.ravel(map_t.fn(xs[0])).tolist())}")
            finite = np.isfinite(images).all(axis=1)  # a non-finite image defeats, then raises
            first = np.flatnonzero(~finite | ~target.contains_coords(images))[:8 - len(defeats)]
        for i in first[~finite[first]][:1]:
            raise InputError(f"coordinates must be finite, got {tuple(images[i].tolist())}")
        defeats.extend(witness(direction=label, point=xs[i], image=images[i]) for i in first)
        if len(defeats) >= 8:
            break
    note = (
        f"{sample_count} samples per set ({setting.set_a.describe()} / "
        f"{setting.set_b.describe()}), seed {seed}"
    )
    if defeats:
        return CertificateReport("CYC", Verdict.FAIL, defeats, None, note)
    return CertificateReport("CYC", Verdict.PASS, [witness(samples=2 * sample_count)],
                             None, note)


def check_p_controls_d(
    trace_pairs: list[tuple[IterationTrace, IterationTrace]],
) -> CertificateReport:
    """Refutation check (id PCD): any supplied pair whose tail p-gap is below
    PCD_ETA must also have its tail d-gap below PCD_D_TOL, where p is the premetric
    both traces of the pair carry (InputError if they differ) and d the
    metric of its space.  Evidence-based only; it cannot prove the
    implication, just contradict it."""
    if not trace_pairs:
        raise InputError("need at least one trace pair")
    defeats: list[dict] = []
    activated = 0
    for idx, (tx, ty) in enumerate(trace_pairs):
        p_tail = float(last_quarter(_aligned_gaps(tx, ty)).max())
        if p_tail >= PCD_ETA:
            continue
        activated += 1
        n = min(len(tx), len(ty))
        d_tail = float(last_quarter(premetric_diagonal(metric_premetric(tx.premetric.space),
                                                       tx.coords[:n], ty.coords[:n])).max())
        if d_tail >= PCD_D_TOL:
            defeats.append(witness(pair=idx, tail_p=p_tail, tail_d=d_tail))
    note = (
        f"{len(trace_pairs)} supplied pairs, {activated} with tail p-gap below {PCD_ETA}; "
        f"d tolerance {PCD_D_TOL}; tails over the last quarter of each pair"
    )
    if defeats:
        return CertificateReport("PCD", Verdict.FAIL, defeats, None, note)
    return CertificateReport("PCD", Verdict.PASS, [witness(activated=activated)], None, note)


def check_banach_rate(
    map_t: NamedMap,
    *,
    budget: SearchBudget | None = None,
    region: Box | None = None,
    seed: int = 0,
) -> CertificateReport:
    """Existence of a uniform contraction factor below 1 (id RATE).

    The supremum of d(Tx,Ty)/d(x,y) is estimated over sampled pairs plus a
    deterministic short-separation ladder along the first axis, which catches
    factors that approach 1 only for nearby points.
    """
    budget = budget or SearchBudget()
    space = map_t.space
    region = region or default_region(space)
    coords_a, coords_b = sample_pairs(space, region, budget.pair_samples,
                                      np.random.default_rng(seed))
    # each base point steps h = 10^-1 .. 10^-7 up the first axis, or down
    # where the step up leaves the region; a step leaving it both ways is dropped
    lows, highs = np.asarray(region.lows), np.asarray(region.highs)
    bases = np.repeat([lows + frac * (highs - lows) for frac in (0.0, 0.25, 0.5, 0.75, 1.0)],
                      7, axis=0)
    h = np.tile([10.0 ** -k for k in range(1, 8)], 5)
    up, down = bases.copy(), bases.copy()
    up[:, 0] += h
    down[:, 0] -= h
    inside = region.contains_coords(up)
    stepped = inside | region.contains_coords(down)
    a = np.concatenate([coords_a, bases[stepped]])
    b = np.concatenate([coords_b, np.where(inside[:, None], up, down)[stepped]])
    d0 = space.distances(a, b)
    keep = d0 > 1e-12
    a, b, d0 = a[keep], b[keep], d0[keep]
    with np.errstate(all="ignore"):
        moved = space.distances(map_t.fn(a), map_t.fn(b))
    if not np.isfinite(moved).all():
        bad = int(np.argmin(np.isfinite(moved)))
        raise InputError(f"map {map_t.name!r} sends the pair {a[bad].tolist()}, "
                         f"{b[bad].tolist()} to a non-finite image or distance")
    ratios = moved / d0
    sup_ratio, sup_at = -np.inf, {}
    if ratios.size:
        # argmax keeps the first of tied maxima, in sampling order
        i = int(np.argmax(ratios))
        sup_ratio = float(ratios[i])
        sup_at = {"x": a[i].tolist(), "y": b[i].tolist(), "ratio": sup_ratio}
    note = (
        f"{budget.pair_samples} sampled pairs plus a deterministic short-separation "
        f"ladder; pass needs sup ratio <= {1 - RATE_MARGIN}"
    )
    if sup_ratio <= 1.0 - RATE_MARGIN:
        return CertificateReport("RATE", Verdict.PASS, [witness(**sup_at)], budget, note)
    return CertificateReport("RATE", Verdict.FAIL, [witness(**sup_at)], budget, note)


def consecutive_contraction_report(
    trace: IterationTrace,
    f_gauge: Gauge,
    psi: Gauge,
    eta: float = 1e-12,
) -> CertificateReport:
    """Stepwise domination F(gap_n) <= psi(F(gap_{n-1})) + eta (id INEQFP)."""
    gaps = trace.gaps
    if gaps.shape[0] < 2:
        raise InputError("need at least two consecutive gaps")
    fg = f_gauge.apply_array(gaps)
    rhs = psi.apply_array(fg[:-1])
    lhs = fg[1:]
    bad = np.nonzero(lhs > rhs + eta)[0]
    note = f"{gaps.shape[0] - 1} consecutive steps, slack {eta}"
    if bad.size:
        wits = [witness(n=int(i) + 1, lhs=float(lhs[i]), rhs=float(rhs[i]))
                for i in bad[:8]]
        return CertificateReport("INEQFP", Verdict.FAIL, wits, None, note)
    worst = float((lhs - rhs).max())
    return CertificateReport("INEQFP", Verdict.PASS,
                             [witness(steps=int(gaps.shape[0] - 1), worst_margin=worst)],
                             None, note)
