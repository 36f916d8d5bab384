"""Iteration-driven solvers and orbit diagnostics.

Covers the question the laboratory keeps asking in different guises: does an
orbit settle, and at what?  cauchy_diagnostic measures the exact sup-tail of a
stored orbit; certify_cauchy bundles it with the hypothesis checkers for one
of three declared routes; the solve_* functions extract fixed points, best
proximity points, and common fixed points with honest convergence flags; and
extract_noncauchy_witness builds the index triples that certify separation
when an orbit refuses to settle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .certificates import check_asf1, check_asf2, check_c5
from .errors import ConfigurationError, InputError
from .gauges import verify_gauge_regularity
from .maps import NamedMap
from .reports import CAUCHY_ROUTES, CertificateReport, SearchBudget, Verdict, last_quarter, \
    witness, worst_verdict
from .spaces import CyclicSetting, Point, Premetric, eval_premetric, metric_premetric, \
    premetric_diagonal, premetric_matrix, premetric_values, verify_premetric_axioms
from .traces import AlternatingSchedule, IterationTrace, _orbit, _start

#: The most occurrences extract_noncauchy_witness collects.
WITNESS_MAX_OCCURRENCES = 8


@dataclass(frozen=True)
class SolveResult:
    point: Point
    residual: float
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# Cauchy diagnostics and certification


def _index_ladder(last: int) -> list[int]:
    ladder = {0, last}
    k = 1
    while k < last:
        ladder.add(k)
        k *= 2
    return sorted(ladder)


def cauchy_diagnostic(
    trace: IterationTrace,
    *,
    tol: float = 1e-6,
    eta: float = 1e-9,
) -> CertificateReport:
    """Exact settling measure of a stored orbit (id CAUCHY).

    s(n) = max over stored m > n of p(x_n, x_m), p the trace's premetric,
    evaluated on a logarithmic ladder of n.  Pass needs s nonincreasing
    within eta along the ladder and the last ladder value at or below tol.
    A truncated (escaped) orbit can fail but never cleanly pass.

    Raises:
        InputError: fewer than 4 points.
    """
    if len(trace) < 4:
        raise InputError("the settling diagnostic needs at least 4 points")
    p, coords = trace.premetric, trace.coords
    last = len(trace) - 2
    entries = []
    for n in _index_ladder(last):
        s_n = float(premetric_matrix(p, coords[n:n + 1], coords[n + 1:]).max())
        entries.append((n, s_n))
    wits = [witness(n=n, sup_tail=s) for n, s in entries]
    final_n, final = entries[-1]
    monotone = all(b[1] <= a[1] + eta for a, b in zip(entries, entries[1:]))
    verdict = Verdict.PASS
    if final > tol:
        verdict = Verdict.FAIL
        wits.append(witness(n=final_n, sup_tail=final, needed=tol))
    elif not monotone:
        verdict = Verdict.FAIL
        for a, b in zip(entries, entries[1:]):
            if b[1] > a[1] + eta:
                wits.append(witness(n=a[0], sup_tail=a[1], later_n=b[0],
                                    later_sup_tail=b[1]))
                break
    note = (
        f"s(n) is the exact max gap from x_n to any stored later point, sampled on "
        f"a logarithmic index ladder; pass needs s nonincreasing within {eta} and a "
        f"final value at most {tol}"
    )
    if verdict is Verdict.PASS and trace.status != "completed":
        verdict = Verdict.INCONCLUSIVE
        note += f"; orbit status is {trace.status}, so the stored prefix may mislead"
    return CertificateReport("CAUCHY", verdict, wits, None, note)


@dataclass(frozen=True)
class CauchyCertificate:
    route: str
    hypotheses: tuple[CertificateReport, ...]
    diagnostic: CertificateReport
    overall: Verdict


def _trace_triples(trace: IterationTrace) -> np.ndarray:
    idx = sorted(set(np.linspace(0, len(trace) - 1, 10, dtype=int).tolist()))
    return trace.coords[np.array(list(itertools.combinations(idx, 3))[:200], dtype=int)]


def _decay_report(cid: str, gaps: np.ndarray, budget: SearchBudget, label: str) -> CertificateReport:
    tail = float(last_quarter(gaps).max())
    target = min(budget.eps_grid) + budget.slack
    note = (
        f"tail of the {label} consecutive gaps over the last quarter must reach "
        f"min(eps_grid)={min(budget.eps_grid)} within the slack"
    )
    if tail <= target:
        return CertificateReport(cid, Verdict.PASS, [witness(tail=tail)], budget, note)
    return CertificateReport(cid, Verdict.FAIL, [witness(tail=tail, needed=target)],
                             budget, note)


def certify_cauchy(
    trace: IterationTrace,
    route: str,
    budget: SearchBudget | None = None,
    tol: float = 1e-6,
) -> CauchyCertificate:
    """Hypothesis checks for the declared settling route, then the diagnostic.

    Routes:
      tau       -- the trace's premetric claims the sup-tail property; runs C4
                   on the trace and C1-C3 against its forward shift.
      composed  -- the premetric is a gauge over an inner gap; additionally
                   runs C5, corroborates the gauge's declared regularity, and
                   re-runs the one-shift band condition under the inner gap
                   (reported as C4-INNER, kept separate on purpose).
      mixed     -- the premetric claims the two-sided triangle inequality with
                   a companion; checks those axioms on trace triples plus the
                   decay of both gap sequences.

    Raises:
        ConfigurationError: the declared route does not match what the
            trace's premetric provides.
    """
    budget = budget or SearchBudget()
    p = trace.premetric
    if route not in CAUCHY_ROUTES:
        raise ConfigurationError(f"unknown route {route!r}; have {CAUCHY_ROUTES}")
    hyps: list[CertificateReport] = []
    if route == "tau":
        if "tau_distance" not in p.claims:
            raise ConfigurationError(
                "route tau needs a premetric claiming the sup-tail property"
            )
        hyps.extend(check_asf1(trace, trace.companion_shift(), budget=budget))
        hyps.append(check_asf2(trace, budget=budget))
    elif route == "composed":
        if p.kind != "composed":
            raise ConfigurationError("route composed needs a gauge-over-inner premetric")
        hyps.extend(check_asf1(trace, trace.companion_shift(), budget=budget))
        hyps.append(check_asf2(trace, budget=budget))
        hyps.append(check_c5(trace, budget=budget))
        hyps.extend(verify_gauge_regularity(p.gauge))
        inner = check_asf2(replace(trace, premetric=p.inner), budget=budget)
        inner.condition_id = "C4-INNER"
        inner.resolution_note += "; evaluated under the inner gap measure"
        hyps.append(inner)
    else:
        if "mixed_triangle" not in p.claims:
            raise ConfigurationError(
                "route mixed needs a premetric claiming the two-sided triangle "
                "inequality with a companion"
            )
        hyps.extend(verify_premetric_axioms(p, _trace_triples(trace), eta=budget.slack))
        coords = trace.coords
        hyps.append(_decay_report("GAP-DECAY", trace.gaps, budget, "declared"))
        hyps.append(_decay_report(
            "GAP-DECAY-COMPANION",
            premetric_diagonal(p.companion, coords[:-1], coords[1:]), budget, "companion",
        ))
    diag = cauchy_diagnostic(trace, tol=tol, eta=budget.slack)
    overall = worst_verdict([r.verdict for r in hyps] + [diag.verdict])
    return CauchyCertificate(route, tuple(hyps), diag, overall)


# ---------------------------------------------------------------------------
# Solvers


# Steps in a walk's first block; each later block is twice as long.
_FIRST_BLOCK = 64


def _stops(values: np.ndarray, tol: float) -> np.ndarray:
    # NaN marks a point whose image left the space: it stops the walk too
    return np.flatnonzero((values <= tol) | np.isnan(values))


def _walk(fns, seed: np.ndarray, units: int, stride: int, values, tol: float):
    """Walks x_{n+1} = fns[n % len(fns)](x_n) from seed in units of stride
    steps, in blocks built by _extend_orbit under its escape rule; values(rows)
    scores the units of a block, whose rows start at the last unit's end.
    If scoring a block raises InputError, the walk redoes it from one-unit
    blocks, so only a unit before the first stop raises, as step by step.
    Returns (row, u, value, stopped): unit u, ending at row, is the first to
    score at most tol or NaN (stopped), else the last reached; value is its
    score, or inf if the orbit escaped."""
    done, size, row = 0, _FIRST_BLOCK, seed
    while True:
        k = done * stride % len(fns)
        count = min(size, units - done)
        rows, status = _orbit(fns[k:] + fns[:k], row, count * stride + 1)
        rows = rows[:(rows.shape[0] - 1) // stride * stride + 1]
        try:
            scores = values(rows)
        except InputError:
            if count == 1:
                raise
            size = 1
            continue
        hits = _stops(scores, tol)
        if hits.size:
            i = int(hits[0])
            return rows[(i + 1) * stride], done + i + 1, float(scores[i]), True
        done += scores.shape[0]
        if status == "escaped" or done == units:
            value = float(scores[-1]) if status == "completed" else float("inf")
            return rows[-1], done, value, False
        row, size = rows[-1], 2 * size


def _edge_residual(measure) -> float:
    """A residual through the Point edge; inf if it leaves the space."""
    try:
        return measure()
    except InputError:
        return float("inf")


def solve_fixed_point(
    map_t: NamedMap,
    x0: Point,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    premetric: Premetric | None = None,
) -> SolveResult:
    """Iterate until the step gap p(x_{n-1}, x_n) reaches tol, then accept
    z = x_n.  The reported residual is p(z, Tz), recomputed, and converged
    only claims what that residual shows.  An escaping orbit ends at its
    last point with residual inf; x0 off the map's or premetric's space is
    an InputError."""
    p = premetric if premetric is not None else metric_premetric(map_t.space)
    row = _start(x0, max_steps, "step", map_t.space, p.space)
    row, n, gap, stopped = _walk((map_t.fn,), row, max_steps, 1,
                                 lambda rows: premetric_values(p, rows[:-1], rows[1:]), tol)
    x = map_t.space.point(row)
    if stopped:
        gap = _edge_residual(lambda: eval_premetric(p, x, map_t(x)))
    return SolveResult(x, gap, n, stopped and gap <= tol)


def solve_best_proximity(
    map_t: NamedMap,
    setting: CyclicSetting,
    x0: Point,
    tol: float = 1e-8,
    max_pairs: int = 10_000,
) -> SolveResult:
    """Double-step iteration inside the starting set until the even-index
    displacement d(x_{2n-2}, x_{2n}) reaches tol; the residual is then
    |d(z, Tz) - gap| for the accepted even point z, verified independently
    of the stopping rule.  An orbit that escapes at an even or odd point
    ends at its last even point with residual inf.  x0 outside the first
    set, or off the map's or setting's space, is an InputError."""
    space = setting.space
    row = _start(x0, max_pairs, "double step", map_t.space, space)
    if not setting.set_a.contains_coords(row):
        raise InputError("starting point must lie in the first set")

    row, n, _, stopped = _walk((map_t.fn,), row, max_pairs, 2,
                               lambda rows: space.finite_distances(rows[:-2:2], rows[2::2]),
                               tol)
    z = map_t.space.point(row)
    residual = float("inf")
    if stopped or n == max_pairs:
        residual = _edge_residual(lambda: abs(space.distance(z, map_t(z)) - setting.gap))
    return SolveResult(z, residual, n, stopped and residual <= tol)


def solve_common_fixed_point(
    schedule: AlternatingSchedule,
    seed: Point,
    tol: float = 1e-9,
    max_steps: int = 10_000,
    premetric: Premetric | None = None,
) -> SolveResult:
    """Alternate the two maps from x_0 = S(seed), as alternating_trace does,
    until the current point nearly fixes both, measured by max(p(x, Tx),
    p(x, Sx)).  A point with a non-finite image, or the last one before the
    orbit escapes, ends the walk with residual inf."""
    p = premetric if premetric is not None else metric_premetric(schedule.space)
    _start(seed, max_steps, "step", schedule.space, p.space)
    x0 = schedule.map_s(seed)
    fns = (schedule.map_t.fn, schedule.map_s.fn)

    def residuals(rows: np.ndarray) -> np.ndarray:
        """max(p(x, Tx), p(x, Sx)) per row, the first on a tie as Python's max
        keeps it; NaN from the first row with a non-finite or misshapen image."""
        with np.errstate(all="ignore"):
            images = [np.asarray(fn(rows), dtype=float) for fn in fns]
        images = [im if im.shape == rows.shape else np.full(rows.shape, np.nan) for im in images]
        # m: the first row with a non-finite image, or the row count
        m = int(np.append(np.isfinite(images).all(axis=(0, 2)), False).argmin())
        by_t, by_s = (premetric_values(p, rows[:m], im[:m]) for im in images)
        return np.append(np.where(by_s > by_t, by_s, by_t), np.full(rows.shape[0] - m, np.nan))

    start = np.asarray(x0.coords)
    first = residuals(start[None])
    if _stops(first, tol).size:
        row, n, residual, stopped = start, 0, float(first[0]), True
    else:
        row, n, residual, stopped = _walk(fns, start, max_steps, 1,
                                          lambda rows: residuals(rows[1:]), tol)
    if np.isnan(residual):
        residual, stopped = float("inf"), False
    return SolveResult(schedule.space.point(row), residual, n, stopped)


# ---------------------------------------------------------------------------
# Non-settling witnesses


@dataclass(frozen=True)
class NonCauchyWitness:
    """Index triples certifying persistent separation: for each occurrence,
    sigma < k <= rho with gap(x_sigma, x_k) > eps while the same-parity
    predecessor straddles, gap(x_sigma, x_{k-2}) <= eps."""

    sigma: tuple[int, ...]
    rho: tuple[int, ...]
    k: tuple[int, ...]
    separation_gaps: tuple[float, ...]
    straddle_gaps: tuple[float, ...]
    eps: float
    parity_note: str


@dataclass(frozen=True)
class WitnessScan:
    status: str  # found | none | not_applicable
    witness: NonCauchyWitness | None
    note: str


def _row_to_far(p: Premetric, x: np.ndarray, ys: np.ndarray, bound: float) -> np.ndarray:
    """The gaps p(x, ys[i]), the whole row in one evaluation.  A row that
    raises is evaluated again one gap at a time up to the first one above
    bound, so an error comes only from a gap a loop over i would read, and
    it is the error the loop would meet first."""
    try:
        return premetric_matrix(p, x[None], ys)[0]
    except InputError:
        row = []
        for y in ys:
            row.append(float(premetric_values(p, x, y)))
            if row[-1] > bound:
                break
        return np.array(row)


def extract_noncauchy_witness(
    trace: IterationTrace,
    *,
    eps: float = 0.5,
    gap_tol: float = 1e-2,
) -> WitnessScan:
    """Scan a trace whose consecutive gaps have settled below gap_tol for
    pairs that stay separated by more than eps anyway, every gap under the
    trace's premetric.

    For each occurrence: sigma is the scan start, rho the first index past it
    with gap above 2*eps (parity-corrected by one step when needed so k - sigma
    can be even), and k the smallest same-parity index past sigma with gap
    above eps; minimality hands back the straddle gap(x_sigma, x_{k-2}) <= eps.
    Applicable only when the consecutive gaps actually decay; a trace whose
    step sizes never shrink is reported not_applicable, and a settled trace
    with no separated pairs reports none.
    """
    p, coords, gaps = trace.premetric, trace.coords, trace.gaps
    if gaps.shape[0] < 4:
        raise InputError("need at least 4 consecutive gaps to scan")
    over = np.nonzero(gaps > gap_tol)[0]
    n0 = 0 if over.size == 0 else int(over[-1]) + 1
    if n0 >= gaps.shape[0]:
        return WitnessScan(
            "not_applicable", None,
            f"consecutive gaps never settle below gap_tol={gap_tol}",
        )
    tail = last_quarter(gaps)
    head_max, tail_max = float(gaps[:tail.shape[0]].max()), float(tail.max())
    if not (tail_max < 0.5 * head_max or tail_max <= 1e-12):
        return WitnessScan(
            "not_applicable", None,
            f"consecutive gaps never decay (head max {head_max:g}, tail max {tail_max:g})",
        )

    last = coords.shape[0] - 1
    occ_sigma, occ_rho, occ_k, occ_sep, occ_straddle = [], [], [], [], []
    kept, shifted = 0, 0
    sigma = n0
    while len(occ_sigma) < WITNESS_MAX_OCCURRENCES and sigma < last:
        # the scan reads the row up to rho, and rho + 1 only for parity
        row = _row_to_far(p, coords[sigma], coords[sigma + 1:], 2.0 * eps)

        def gap_at(m: int) -> float:
            if m - sigma - 1 < row.shape[0]:
                return float(row[m - sigma - 1])
            return float(premetric_values(p, coords[sigma], coords[m]))

        far = np.nonzero(row > 2.0 * eps)[0]
        if far.size == 0:
            break
        rho = sigma + 1 + int(far[0])
        if (rho - sigma) % 2 == 0:
            rho_adj = rho
            kept += 1
        elif rho + 1 <= last and gap_at(rho + 1) > eps:
            rho_adj = rho + 1
            shifted += 1
        elif rho - 1 > sigma and gap_at(rho - 1) > eps:
            rho_adj = rho - 1
            shifted += 1
        else:
            sigma = rho + 1
            continue
        k = next(m for m in range(sigma + 2, rho_adj + 1, 2) if gap_at(m) > eps)
        straddle = gap_at(k - 2) if k - 2 > sigma else 0.0
        occ_sigma.append(sigma)
        occ_rho.append(rho_adj)
        occ_k.append(k)
        occ_sep.append(gap_at(k))
        occ_straddle.append(straddle)
        sigma = rho_adj + 1
    if not occ_sigma:
        return WitnessScan(
            "none", None,
            f"no pair separated by more than 2*eps={2 * eps} past the settling index {n0}",
        )
    wit = NonCauchyWitness(
        sigma=tuple(occ_sigma),
        rho=tuple(occ_rho),
        k=tuple(occ_k),
        separation_gaps=tuple(occ_sep),
        straddle_gaps=tuple(occ_straddle),
        eps=eps,
        parity_note=f"parity kept {kept} time(s), corrected by one index {shifted} time(s)",
    )
    return WitnessScan(
        "found", wit,
        f"{len(occ_sigma)} occurrence(s) from settling index {n0}",
    )


def even_collapse_diagnostic(
    full_orbit: IterationTrace,
    setting: CyclicSetting,
    tol: float = 1e-6,
) -> CertificateReport:
    """For a back-and-forth orbit: the step distances must settle at the set
    gap and, when they do, the even-index displacements must collapse below
    tol (id EVEN-COLLAPSE).  Accepts the even-subsequence trace (using its
    cached full orbit) or a plain full orbit.

    Raises:
        InputError: the orbit is shorter than 5 points.
    """
    coords = full_orbit.aux_coords if full_orbit.aux_coords is not None else full_orbit.coords
    if coords.shape[0] < 5:
        raise InputError("need a full orbit of at least 5 points")
    evens = coords[::2]
    step = setting.space.distances(coords[:-1], coords[1:])
    even = setting.space.distances(evens[:-1], evens[1:])
    step_tail = float(last_quarter(step).max())
    even_tail = float(last_quarter(even).max())
    deviation = abs(step_tail - setting.gap)
    wits = [witness(step_gap_tail=step_tail, target_gap=setting.gap,
                    even_displacement_tail=even_tail)]
    note = (
        f"tails over the last quarter; pass needs the step distances within {tol} "
        f"of the set gap {setting.gap} and even displacements at most {tol}"
    )
    verdict = Verdict.PASS if (deviation <= tol and even_tail <= tol) else Verdict.FAIL
    return CertificateReport("EVEN-COLLAPSE", verdict, wits, None, note)
