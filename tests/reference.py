"""The plain loops that pin fplab's kernels.

Each reference below is the per-point loop a kernel replaced, written with
Python floats where the rule allows, or, for a kernel made cheaper again
(distances, the C5 sweep, orbit blocks, the band search, the C8/C9 and
E1/E2 family walks), the version it replaced.  The test modules compare
every kernel against its loop bit for bit.

A reference evaluates with this module's own formulas, never through the
kernel it checks: a distance is euclidean_reference or distances_reference,
a premetric value premetric_reference, a gauge value gauge_call_reference.
From fplab it imports only classes, exception types, constants and four
helpers that compute no number (witness, worst_verdict, compile_expression
and metric_premetric), and it applies a map or a gauge only through the
input's own fn.  tests/test_invariants.py pins both rules.
"""

import itertools
import math

import numpy as np

from fplab.certificates import _BAND_NOTE, _STRICT_NOTE, ASMK_VARIANTS, F_PROFILE
from fplab.errors import ConfigurationError, InputError, RefusalError
from fplab.expressions import Expression, compile_expression
from fplab.gauges import Gauge
from fplab.reports import MAX_WITNESSES, CertificateReport, SearchBudget, Verdict, witness, \
    worst_verdict
from fplab.solvers import NonCauchyWitness, SolveResult, WitnessScan
from fplab.spaces import IntervalSet, Space, metric_premetric
from fplab.traces import ESCAPE_NORM

# ---------------------------------------------------------------------------
# Maps and orbits

# the builtin maps as they were written per coordinate, on Python floats
SCALAR_MAPS = {
    "half": lambda c: 0.5 * c,
    "mk": lambda c: c / (1.0 + c),
    "translation": lambda c: c + 1.0,
    "flip": lambda c: 1.0 - c,
    "neg": lambda c: -c,
    "cyclic_reflect": lambda c: -0.5 * (abs(c) + 1.0) * float(np.sign(c) if c != 0 else 1.0),
}


def scalar_step(name: str):
    """Maps one coordinate tuple to its image, one float at a time.  A
    division by zero gives NaN, as the expression grammar documents."""
    if name in SCALAR_MAPS:
        fn = SCALAR_MAPS[name]
    else:
        expr = compile_expression(name, variables=("x",))

        def fn(c):
            return float(expr(x=c))

    def step(coords):
        out = []
        for c in coords:
            try:
                with np.errstate(all="ignore"):
                    out.append(fn(c))
            except ZeroDivisionError:
                out.append(math.nan)
        return tuple(out)

    return step


def orbit_block_reference(step, seeds: np.ndarray, n_steps: int):
    """The row-by-row loop: an escaping row is frozen at its last good point."""
    k, dim = seeds.shape
    orbits = np.empty((k, n_steps, dim))
    orbits[:, 0, :] = seeds
    alive = np.full(k, n_steps, dtype=int)
    current = [tuple(row) for row in seeds]
    for s in range(1, n_steps):
        for idx in range(k):
            if alive[idx] < n_steps:
                orbits[idx, s] = orbits[idx, s - 1]
                continue
            nxt = step(current[idx])
            if not all(np.isfinite(nxt)) or max(abs(c) for c in nxt) > ESCAPE_NORM:
                alive[idx] = s
                orbits[idx, s] = orbits[idx, s - 1]
                continue
            current[idx] = nxt
            orbits[idx, s] = nxt
    return orbits, alive


def orbit_block_step_reference(map_t, seeds: np.ndarray, n_steps: int):
    """The seed-block walk as one masked step per row block: both escape
    tests and the freeze bookkeeping on every step, and no tiling."""
    k, dim = seeds.shape
    orbits = np.empty((k, n_steps, dim))
    orbits[:, 0, :] = seeds
    alive = np.full(k, n_steps, dtype=int)
    going = np.ones(k, dtype=bool)
    with np.errstate(all="ignore"):
        for step in range(1, n_steps):
            prev = orbits[:, step - 1]
            nxt = map_t.fn(prev)
            ok = np.isfinite(nxt).all(axis=-1) & (np.abs(nxt).max(axis=-1) <= ESCAPE_NORM)
            alive[going & ~ok] = step
            going &= ok
            orbits[:, step] = np.where(going[:, None], nxt, prev)
    return orbits, alive


def point_norm(x) -> float:
    """The largest coordinate of a Point in absolute value."""
    return max(abs(c) for c in x.coords)


def extend_orbit_reference(maps, seed, length: int):
    """x_{n+1} = maps[n % len(maps)](x_n) one Point at a time; an InputError
    (non-finite image) or a norm beyond ESCAPE_NORM ends the orbit."""
    points, status = [seed], "completed"
    for n in range(length - 1):
        try:
            nxt = maps[n % len(maps)](points[-1])
        except InputError:
            status = "escaped"
            break
        if point_norm(nxt) > ESCAPE_NORM:
            status = "escaped"
            break
        points.append(nxt)
    return points, status


# ---------------------------------------------------------------------------
# Distances


def distances_reference(space: Space, a, b):
    """Space.distances as the (..., d) difference block reduced by np.sum."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = a - b
    if space.norm == "euclidean":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    p = float(space.norm)
    return np.power(np.sum(np.abs(diff) ** p, axis=-1), 1.0 / p)


def euclidean_reference(a, b) -> float:
    total = 0.0
    for u, v in zip(a, b):
        total += (u - v) * (u - v)
    return math.sqrt(total)


def metric_reference(space: Space, a, b) -> float:
    """d(a, b) for one coordinate pair: the Python-float loop under the
    euclidean norm, the summed difference block under a p-norm, whose terms
    are np.power (math.pow and Python's ** round some of them differently)."""
    if space.norm == "euclidean":
        return euclidean_reference(a, b)
    return float(distances_reference(space, a, b))


def distance_reference(space: Space, x, y) -> float:
    """d(x, y) for two Points; a distance beyond the floats is an InputError."""
    d = metric_reference(space, x.coords, y.coords)
    if not math.isfinite(d):
        raise InputError(f"distance evaluated to {d!r} on {x.coords}, {y.coords}")
    return d


def pair_distance_curves_reference(space: Space, xs: np.ndarray, ys: np.ndarray):
    """d(x_step, y_step) per pair row, one coordinate pair at a time."""
    k, n, _ = xs.shape
    out = np.empty((k, n))
    for i in range(k):
        for s in range(n):
            out[i, s] = metric_reference(space, xs[i, s], ys[i, s])
    return out


def contains_reference(s, x) -> bool:
    """The scalar membership tests the sets had on Points, except that a
    distance to the disk's center beyond the floats is outside the disk
    (the Point edge distance raised on it)."""
    if isinstance(s, IntervalSet):
        return s.lo <= x.coords[0] <= s.hi
    return metric_reference(s.space, x.coords, s.center) <= s.radius + 1e-12


# ---------------------------------------------------------------------------
# Gauges and premetrics


def _refuse_out_of_range(g, t: float) -> None:
    # written so that NaN, which compares false with everything, is refused
    if not 0 <= t <= g.t_max:
        raise InputError(
            f"gauge {g.name!r} evaluated at t={t} outside its working range [0, {g.t_max}]"
        )


def gauge_call_reference(g, t):
    """Gauge.__call__ as it was: the range check, then fn on a Python float."""
    t = float(t)
    _refuse_out_of_range(g, t)
    return float(g.fn(t=t)) if isinstance(g.fn, Expression) else float(g.fn(t))


def gauge_values_reference(g, values) -> np.ndarray:
    """A gauge on a block as a loop: the block's lowest and then its highest
    value are range-checked first (a NaN is both), then every value is
    mapped by gauge_call_reference."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel().tolist()
    if flat:
        nan = [v for v in flat if math.isnan(v)]
        _refuse_out_of_range(g, nan[0] if nan else min(flat))
        _refuse_out_of_range(g, nan[0] if nan else max(flat))
    return np.array([gauge_call_reference(g, t) for t in flat]).reshape(values.shape)


def premetric_reference(p, a, b) -> float:
    """One pair, one rule per kind, on Python floats where the rule allows."""
    if p.kind == "metric":
        return metric_reference(p.space, a, b)
    if p.kind == "shifted_cyclic":
        return max(0.0, metric_reference(p.space, a, b) - p.setting.gap)
    return gauge_call_reference(p.gauge, premetric_reference(p.inner, a, b))


def checked_premetric_reference(p, a, b) -> float:
    """premetric_reference, refused when negative or not finite."""
    value = premetric_reference(p, a, b)
    if not math.isfinite(value) or value < 0:
        raise InputError(f"premetric {p.describe()} evaluated to a negative or non-finite "
                         "value; premetrics must be nonnegative and finite")
    return value


def eval_premetric_reference(p, x, y) -> float:
    """p(x, y) for two Points."""
    return checked_premetric_reference(p, x.coords, y.coords)


# ---------------------------------------------------------------------------
# The pair searches: C5's strict search and the C4/D4 band search


def strict_pairs_reference(mats: np.ndarray, budget: SearchBudget, cid: str):
    """C5 as the minimum over every shift of the whole front block, then a
    second walk over nu for the witnessing shift."""
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    base = mats[:, :ih, :ih]
    best = np.full_like(base, np.inf)
    for nu in range(1, nh + 1):
        np.minimum(best, mats[:, nu:nu + ih, nu:nu + ih], out=best)
    iu = np.triu_indices(ih, k=1)
    b = base[:, iu[0], iu[1]]
    m = best[:, iu[0], iu[1]]
    triggered = b > eta
    stuck = triggered & (m >= b - eta)
    if stuck.any():
        k_idx, p_idx = np.nonzero(stuck)
        wits = [
            witness(orbit=int(k), i=int(iu[0][q]), j=int(iu[1][q]),
                    gap=float(b[k, q]), best_follow_up=float(m[k, q]))
            for k, q in list(zip(k_idx, p_idx))[:8]
        ]
        return CertificateReport(cid, Verdict.FAIL, wits, budget, _STRICT_NOTE)
    count = int(triggered.sum())
    if count == 0:
        return CertificateReport(
            cid, Verdict.PASS,
            [witness(triggered=0, note="every pair gap is already within the slack of zero")],
            budget, _STRICT_NOTE,
        )
    nu_witness = None
    remaining = triggered.copy()
    for nu in range(1, nh + 1):
        shifted = mats[:, nu:nu + ih, nu:nu + ih][:, iu[0], iu[1]]
        remaining &= ~(shifted < b - eta)
        if not remaining.any():
            nu_witness = nu
            break
    return CertificateReport(cid, Verdict.PASS, [witness(triggered=count, nu=nu_witness)],
                             budget, _STRICT_NOTE)


def d1_reference(dists, budget: SearchBudget):
    """D1 as a loop over the delta ladder and the pairs, with the ladder's
    monotonicity test and its note witness for a fail with an empty last
    bucket."""
    eta = budget.slack
    rows = [[float(v) for v in row] for row in dists]
    quarter = max(1, len(rows[0]) // 4)
    tails = [max(row[-quarter:]) for row in rows]
    ladder = []
    for delta in budget.delta_candidates:
        bucket = [i for i, row in enumerate(rows) if row[0] < delta]
        ladder.append((delta, max((tails[i] for i in bucket), default=0.0), len(bucket)))
    target = min(budget.eps_grid) + eta
    nonincreasing = all(b[1] <= a[1] + eta for a, b in zip(ladder, ladder[1:]))
    wits = [witness(delta=d, sup_tail=s, bucket=c) for d, s, c in ladder]
    if nonincreasing and ladder[-1][1] <= target:
        verdict = Verdict.PASS
    else:
        verdict = Verdict.FAIL
        bucket = [i for i, row in enumerate(rows) if row[0] < ladder[-1][0]]
        if bucket:
            worst = bucket[0]
            for i in bucket:
                if tails[i] > tails[worst]:
                    worst = i
            wits.append(witness(pair=worst, start_gap=rows[worst][0], tail=tails[worst]))
        else:
            wits.append(witness(note="ladder not nonincreasing within the slack"))
    return CertificateReport(
        "D1", verdict, wits, budget,
        "tail-limsup per pair estimated over the last quarter of the orbit; the "
        f"ladder must end at or below min(eps_grid)={min(budget.eps_grid)} within "
        "the slack; empty buckets contribute 0",
    )


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


def segment_ids_reference(cuts, gaps):
    """The band sweep's segment id of each gap among the sorted cuts: one
    right-sided search among the cuts, each followed by the next float
    above it, as the sweep searched every gap before its bit table."""
    edges = np.column_stack([cuts, np.nextafter(cuts, np.inf)]).reshape(-1)
    return np.searchsorted(edges, gaps, side="right")


def band_uniform_per_eps(mats, budget, cid, item):
    """One depth-sorted index and one nu-sweep per eps: band m of the
    widest band's pairs, sorted deepest first, is a prefix."""
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    n = mats.shape[1]
    iu = np.triu_indices(ih, k=1)
    base = mats[:, iu[0], iu[1]]
    flat = mats.reshape(-1)
    base_flat = np.arange(mats.shape[0])[:, None] * (n * n) + (iu[0] * n + iu[1])
    deltas = budget.delta_candidates
    n_bands = len(deltas)
    wits, verdicts = [], []
    for eps in budget.eps_grid:
        limit = eps + eta
        widest = (base > eps) & (base < eps + deltas[0])
        if not widest.any():
            wits.append(witness(eps=eps, delta=deltas[0], in_band=0, vacuous=True))
            verdicts.append(Verdict.PASS)
            continue
        ascending = np.array([eps + d for d in reversed(deltas)])
        rank = np.searchsorted(ascending, base[widest], side="right")
        idx = base_flat[widest][np.argsort(rank, kind="stable")]
        sizes = np.bincount(rank, minlength=n_bands)
        bounds = np.cumsum(sizes)
        ends = bounds[::-1]
        filled = sizes > 0
        starts = (bounds - sizes)[filled]
        group = np.full(n_bands, -np.inf)
        worst = np.empty((nh, n_bands))
        first_pass = np.zeros(n_bands, dtype=int)
        for nu in range(1, nh + 1):
            vals = np.take(flat, idx + nu * (n + 1))
            group[filled] = np.maximum.reduceat(vals, starts)
            worst[nu - 1] = np.maximum.accumulate(group)[::-1]
            first_pass[(first_pass == 0) & (worst[nu - 1] <= limit)] = nu
            if first_pass[0]:
                break
        outcome = None
        for m, delta in enumerate(deltas):
            if ends[m] == 0:
                outcome = witness(eps=eps, delta=delta, in_band=0, vacuous=True)
                break
            if first_pass[m]:
                outcome = witness(eps=eps, delta=delta, nu=int(first_pass[m]),
                                  in_band=int(ends[m]))
                break
        if outcome is not None:
            wits.append(outcome)
            verdicts.append(Verdict.PASS)
            continue
        best_val, best_nu = np.inf, 0
        for nu, value in enumerate(worst[:, -1].tolist(), start=1):
            if value < best_val:
                best_val, best_nu = value, nu
        delta = deltas[-1]
        k_idx, p_idx = np.nonzero((base > eps) & (base < eps + delta))
        rows, cols = iu[0][p_idx], iu[1][p_idx]
        shifted = mats[k_idx, rows + best_nu, cols + best_nu]
        w = int(np.argmax(shifted))
        wits.append(witness(eps=eps, delta=delta, **{item: int(k_idx[w])},
                            i=int(rows[w]), j=int(cols[w]),
                            gap=float(base[k_idx[w], p_idx[w]]),
                            best_uniform_nu=best_nu, value_at_best_nu=float(shifted[w])))
        verdicts.append(Verdict.FAIL)
    return CertificateReport(cid, worst_verdict(verdicts), wits, budget, _BAND_NOTE)


# ---------------------------------------------------------------------------
# Mapping-level checks: the contraction rate, FPSI and CYC


def banach_rate_reference(map_t, space, budget, region, seed=0, margin=1e-3):
    """check_banach_rate's per-pair loop: the first strictly larger ratio wins."""
    rng = np.random.default_rng(seed)
    sup_ratio, sup_at = -np.inf, {}

    def consider(a, b):
        nonlocal sup_ratio, sup_at
        d0 = distance_reference(space, a, b)
        if d0 <= 1e-12:
            return
        r = distance_reference(space, map_t(a), map_t(b)) / d0
        if r > sup_ratio:
            sup_ratio = r
            sup_at = {"x": list(a.coords), "y": list(b.coords), "ratio": r}

    coords_a = region.sample_coords(rng, budget.pair_samples)
    coords_b = region.sample_coords(rng, budget.pair_samples)
    for ca, cb in zip(coords_a, coords_b):
        consider(space.point(*ca), space.point(*cb))
    lows, highs = np.asarray(region.lows), np.asarray(region.highs)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        base = lows + frac * (highs - lows)
        for h in (10.0 ** -k for k in range(1, 8)):
            shifted = base.copy()
            shifted[0] += h
            if not region.contains_coords(shifted):
                shifted = base.copy()
                shifted[0] -= h
                if not region.contains_coords(shifted):
                    continue
            consider(space.point(*base), space.point(*shifted))
    note = (
        f"{budget.pair_samples} sampled pairs plus a deterministic short-separation "
        f"ladder; pass needs sup ratio <= {1 - margin}"
    )
    verdict = Verdict.PASS if sup_ratio <= 1.0 - margin else Verdict.FAIL
    return CertificateReport("RATE", verdict, [witness(**sup_at)], budget, note)


def fpsi_reference(map_t, map_s, p, f_gauge, psi, sample, eta=1e-9, psi_variant="standard"):
    """The pair loop of check_f_psi_contraction, one Point pair at a time,
    with M as a Python max over the four comparison gaps."""
    defeats, worst_margin = [], -np.inf
    for x, y in sample:
        tx, sy = map_t(x), map_s(y)
        lhs = gauge_call_reference(f_gauge, eval_premetric_reference(p, tx, sy))
        m = max(eval_premetric_reference(p, x, y), eval_premetric_reference(p, tx, x),
                eval_premetric_reference(p, sy, y),
                0.5 * (eval_premetric_reference(p, tx, y) + eval_premetric_reference(p, sy, x)))
        rhs = gauge_call_reference(psi, gauge_call_reference(f_gauge, m))
        worst_margin = max(worst_margin, lhs - rhs)
        if lhs > rhs + eta:
            defeats.append(witness(x=list(x.coords), y=list(y.coords), lhs=lhs, rhs=rhs))
            if len(defeats) >= 8:
                break
    note = (
        f"{len(sample)} sampled pairs, slack {eta}, psi profile {psi_variant}; "
        f"worst lhs-rhs margin {worst_margin:.3e}"
    )
    if defeats:
        return CertificateReport("FPSI", Verdict.FAIL, defeats, None, note)
    return CertificateReport("FPSI", Verdict.PASS,
                             [witness(pairs=len(sample), worst_margin=worst_margin)], None, note)


def cyclic_reference(map_t, setting, sample_count=64, seed=0):
    """The draw loop of check_cyclic: each set's block one row at a time as
    a Point, through the map's Point edge and a scalar membership test.
    set_b's block is drawn only when set_a ends with fewer than 8 defeats."""
    rng = np.random.default_rng(seed)
    defeats = []
    for source, target, label in ((setting.set_a, setting.set_b, "first->second"),
                                  (setting.set_b, setting.set_a, "second->first")):
        for row in source.sample_coords(rng, sample_count):
            x = source.space.point(row)
            image = map_t(x)
            if not contains_reference(target, image):
                defeats.append(witness(direction=label, point=list(x.coords),
                                       image=list(image.coords)))
                if len(defeats) >= 8:
                    break
        if len(defeats) >= 8:
            break
    note = (f"{sample_count} samples per set ({setting.set_a.describe()} / "
            f"{setting.set_b.describe()}), seed {seed}")
    if defeats:
        return CertificateReport("CYC", Verdict.FAIL, defeats, None, note)
    return CertificateReport("CYC", Verdict.PASS, [witness(samples=2 * sample_count)],
                             None, note)


# ---------------------------------------------------------------------------
# Solvers: the per-Point loops the block walk replaced


def solve_fixed_point_reference(map_t, x0, tol=1e-9, max_steps=10_000, premetric=None):
    """The per-Point loop of solve_fixed_point."""
    if max_steps < 1:
        raise InputError("need at least one step")
    p = premetric if premetric is not None else metric_premetric(map_t.space)
    x = x0
    gap = np.inf
    for n in range(1, max_steps + 1):
        try:
            nxt = map_t(x)
        except InputError:
            return SolveResult(x, float("inf"), n - 1, False)
        if point_norm(nxt) > ESCAPE_NORM:
            return SolveResult(x, float("inf"), n - 1, False)
        gap = eval_premetric_reference(p, x, nxt)
        if gap <= tol:
            try:
                residual = eval_premetric_reference(p, nxt, map_t(nxt))
            except InputError:
                residual = float("inf")
            return SolveResult(nxt, residual, n, residual <= tol)
        x = nxt
    return SolveResult(x, float(gap), max_steps, False)


def solve_best_proximity_reference(map_t, setting, x0, tol=1e-8, max_pairs=10_000,
                                   odd_escapes=True):
    """The per-Point loop of solve_best_proximity.  odd_escapes=False is the
    loop as it was, which checked only the even points against ESCAPE_NORM.
    Its last residual sits inside the try, which the loop once lacked."""
    if not contains_reference(setting.set_a, x0):
        raise InputError("starting point must lie in the first set")
    if max_pairs < 1:
        raise InputError("need at least one double step")
    space = setting.space
    prev = x0
    for n in range(1, max_pairs + 1):
        try:
            mid = map_t(prev)
            even = map_t(mid)
        except InputError:
            return SolveResult(prev, float("inf"), n - 1, False)
        if point_norm(even) > ESCAPE_NORM or (odd_escapes and point_norm(mid) > ESCAPE_NORM):
            return SolveResult(prev, float("inf"), n - 1, False)
        if distance_reference(space, prev, even) <= tol:
            try:
                residual = abs(distance_reference(space, even, map_t(even)) - setting.gap)
            except InputError:
                residual = float("inf")
            return SolveResult(even, residual, n, residual <= tol)
        prev = even
    try:
        residual = abs(distance_reference(space, prev, map_t(prev)) - setting.gap)
    except InputError:
        residual = float("inf")
    return SolveResult(prev, residual, max_pairs, False)


def solve_common_fixed_point_reference(schedule, seed, tol=1e-9, max_steps=10_000,
                                       premetric=None, keep_last=True):
    """The per-Point loop of solve_common_fixed_point.  keep_last=False is
    the loop as it was, which returned the escaped point itself."""
    if max_steps < 1:
        raise InputError("need at least one step")
    p = premetric if premetric is not None else metric_premetric(schedule.space)
    x = schedule.map_s(seed)
    residual = np.inf
    for n in range(max_steps + 1):
        try:
            tx = schedule.map_t(x)
            sx = schedule.map_s(x)
        except InputError:
            return SolveResult(x, float("inf"), n, False)
        residual = max(eval_premetric_reference(p, x, tx), eval_premetric_reference(p, x, sx))
        if residual <= tol:
            return SolveResult(x, float(residual), n, True)
        if n == max_steps:
            break
        nxt = tx if n % 2 == 0 else sx
        if point_norm(nxt) > ESCAPE_NORM:
            if keep_last:
                return SolveResult(x, float("inf"), n, False)
            return SolveResult(nxt, float("inf"), n + 1, False)
        x = nxt
    return SolveResult(x, float(residual), max_steps, False)


# ---------------------------------------------------------------------------
# The non-settling witness scan, one (sigma, m) gap at a time


def noncauchy_witness_reference(trace, eps=0.5, gap_tol=1e-2,
                                max_occurrences=MAX_WITNESSES):
    """extract_noncauchy_witness with every gap, consecutive or from sigma,
    one checked_premetric_reference call on the trace's coordinates.  A gap
    from sigma is evaluated only when the scan reads it: in order up to
    rho, then rho + 1 if the parity step asks for it."""
    p, xs = trace.premetric, trace.coords.tolist()
    last = len(xs) - 1
    gaps = [checked_premetric_reference(p, xs[n], xs[n + 1]) for n in range(last)]
    if len(gaps) < 4:
        return WitnessScan("not_applicable", None, f"the trace holds {len(xs)} points, fewer "
                           "than the 5 of the 4 consecutive gaps the scan reads")
    n0 = 0
    for n, g in enumerate(gaps):
        if g > gap_tol:
            n0 = n + 1
    if n0 >= len(gaps):
        return WitnessScan("not_applicable", None,
                           f"consecutive gaps never settle below gap_tol={gap_tol}")
    quarter = max(1, len(gaps) // 4)
    head_max, tail_max = max(gaps[:quarter]), max(gaps[-quarter:])
    if not (tail_max < 0.5 * head_max or tail_max <= 1e-12):
        return WitnessScan("not_applicable", None, f"consecutive gaps never decay "
                           f"(head max {head_max:g}, tail max {tail_max:g})")

    found, kept, shifted = [], 0, 0
    sigma = n0
    while len(found) < max_occurrences and sigma < last:
        gap = {}
        for m in range(sigma + 1, last + 1):
            gap[m] = checked_premetric_reference(p, xs[sigma], xs[m])
            if gap[m] > 2.0 * eps:
                break
        else:
            break
        rho = m
        if (rho - sigma) % 2 and rho < last:
            gap[rho + 1] = checked_premetric_reference(p, xs[sigma], xs[rho + 1])
        if (rho - sigma) % 2 == 0:
            end, kept = rho, kept + 1
        elif rho < last and gap[rho + 1] > eps:
            end, shifted = rho + 1, shifted + 1
        elif rho - 1 > sigma and gap[rho - 1] > eps:
            end, shifted = rho - 1, shifted + 1
        else:
            sigma = rho + 1
            continue
        k = sigma + 2
        while gap[k] <= eps:
            k += 2
        found.append((sigma, end, k, gap[k], gap[k - 2] if k - 2 > sigma else 0.0))
        sigma = end + 1
    if not found:
        return WitnessScan("none", None, f"no pair separated by more than 2*eps={2 * eps} "
                           f"past the settling index {n0}")
    sigmas, rhos, ks, seps, straddles = zip(*found)
    return WitnessScan("found", NonCauchyWitness(
        sigma=sigmas, rho=rhos, k=ks, separation_gaps=seps, straddle_gaps=straddles, eps=eps,
        parity_note=f"parity kept {kept} time(s), corrected by one index {shifted} time(s)",
    ), f"{len(found)} occurrence(s) from settling index {n0}")


# ---------------------------------------------------------------------------
# Trace CSV: the per-row writer the bit-period writer replaced, and a reader


def to_csv_reference(trace) -> str:
    """One f-string per row, every coordinate and gap through repr."""
    cols = ",".join(f"x{i}" for i in range(trace.coords.shape[1]))
    gaps = [repr(g) for g in trace.gaps.tolist()] + [""]
    rows = [
        f"{i},{','.join(map(repr, row))},{gap}\n"
        for i, (row, gap) in enumerate(zip(trace.coords.tolist(), gaps))
    ]
    return f"n,{cols},p_gap\n" + "".join(rows)


def csv_rows_reference(start, table) -> str:
    """The rows "i,v0,..\\n" from row index start, one f-string per row."""
    return "".join(f"{start + i},{','.join(map(repr, row))}\n"
                   for i, row in enumerate(table.tolist()))


def tail_rows_reference(start, stop, suffixes) -> str:
    """The rows "i" + suffixes[(i - start) % 2] + "\\n", one f-string per row."""
    return "".join(f"{i}{suffixes[(i - start) % 2]}\n" for i in range(start, stop))


def read_trace_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """The (n, d) coordinates and n - 1 gaps of a trace CSV "n,x0,..,p_gap",
    one float() per field.  The last row's gap is empty: it is absent, and
    an empty gap on any other row is a ValueError."""
    header, *rows = text.splitlines()
    d = len(header.split(",")) - 2
    cells = [row.split(",") for row in rows]
    coords = np.array([[float(c) for c in cell[1:1 + d]] for cell in cells], dtype=float)
    gaps = [cell[-1] for cell in cells]
    if gaps and gaps[-1] == "":
        gaps.pop()
    return coords.reshape(len(cells), d), np.array([float(g) for g in gaps], dtype=float)


# ---------------------------------------------------------------------------
# Axioms: the per-triple loop the batched block replaced


def axioms_reference(p, sample, eta=1e-9):
    """verify_premetric_axioms one triple and one ordered pair at a time;
    on an empty sample, every claim's report unchecked."""
    note = f"checked {len(sample)} sampled triples with slack eta={eta}"
    reports = []

    def gap(a, b):
        return eval_premetric_reference(p, a, b)

    if "symmetric" in p.claims:
        bad = []
        for x, y, z in sample:
            for a, b in ((x, y), (y, z), (x, z)):
                diff = abs(gap(a, b) - gap(b, a))
                if diff > eta:
                    bad.append(witness(x=a.coords, y=b.coords, asymmetry=diff))
        reports.append(CertificateReport("AX-SYM", Verdict.FAIL if bad else Verdict.PASS,
                                         bad[:8], resolution_note=note))

    def triangle_report(cid):
        bad = []
        for x, y, z in sample:
            for a, b, c in itertools.permutations((x, y, z)):
                lhs = gap(a, c)
                rhs = gap(a, b) + gap(b, c)
                if lhs > rhs + eta:
                    bad.append(witness(x=a.coords, via=b.coords, y=c.coords, lhs=lhs, rhs=rhs,
                                       violation=lhs - rhs))
        return CertificateReport(cid, Verdict.FAIL if bad else Verdict.PASS, bad[:8],
                                 resolution_note=note)

    if "triangle" in p.claims:
        reports.append(triangle_report("AX-TRI"))
    if "tau_distance" in p.claims:
        rep = triangle_report("AX-TAU")
        rep.resolution_note = (
            note + "; only the triangle facet is sampled here, the sup-tail "
            "criterion facet is exercised by the Cauchy diagnostic"
        )
        reports.append(rep)
    if "mixed_triangle" in p.claims:
        r = p.companion
        if r is None:
            raise ConfigurationError("mixed_triangle claimed but no companion premetric given")
        bad_r, bad_l = [], []
        for x, y, z in sample:
            for a, c, b in itertools.permutations((x, y, z)):
                lhs = gap(a, c)
                right = gap(a, b) + eval_premetric_reference(r, b, c)
                left = eval_premetric_reference(r, a, b) + gap(b, c)
                if lhs > right + eta:
                    bad_r.append(witness(x=a.coords, via=b.coords, y=c.coords,
                                         lhs=lhs, rhs=right, violation=lhs - right))
                if lhs > left + eta:
                    bad_l.append(witness(x=a.coords, via=b.coords, y=c.coords,
                                         lhs=lhs, rhs=left, violation=lhs - left))
        reports.append(CertificateReport("AX-MIX-R", Verdict.FAIL if bad_r else Verdict.PASS,
                                         bad_r[:8], resolution_note=note))
        reports.append(CertificateReport("AX-MIX-L", Verdict.FAIL if bad_l else Verdict.PASS,
                                         bad_l[:8], resolution_note=note))
    if not sample:
        return [unchecked_reference(rep.condition_id, "the triple sample is empty")
                for rep in reports]
    return reports


# ---------------------------------------------------------------------------
# Gauge probes: the scalar walks the batched regularity, C6 and C7 passes
# replaced


def _default_grid(t_max: float) -> tuple[float, ...]:
    """The default verification grid: 40 log-spaced points up to t_max and
    41 linear ones up to min(10, t_max), with 0."""
    log_part = np.logspace(-6, math.log10(t_max), 40)
    lin_part = np.linspace(0.0, min(10.0, t_max), 41)
    grid = np.unique(np.concatenate([log_part, lin_part, [0.0]]))
    return tuple(float(t) for t in grid if 0.0 <= t <= t_max)


def limit_deviation_reference(g, t, h, sign, refine, eta):
    """One grid point's one-sided probes g(t + sign*h*2^-k), k = 1..refine,
    one scalar call each; a probe outside [0, t_max] counts as 0.0."""
    base_val = gauge_call_reference(g, t)
    devs = []
    for k in range(1, refine + 1):
        s = t + sign * h * 2.0 ** -k
        if s < 0 or s > g.t_max:
            devs.append(0.0)
            continue
        devs.append(gauge_call_reference(g, s) - base_val)
    final = devs[-1]
    tol = max(eta, eta * abs(base_val))
    if abs(final) <= tol:
        return True, final
    mid = devs[len(devs) // 2]
    if abs(final) <= 0.25 * abs(mid):
        return True, final
    return False, final


def regularity_reference(g, eta=1e-9):
    """verify_gauge_regularity as a loop over the grid, entry by entry."""
    grid, refine = _default_grid(g.t_max), 20
    if len(grid) < 3:
        raise InputError(f"gauge t_max {g.t_max} leaves {len(grid)} verification grid "
                         f"points, fewer than 3")
    vals = [gauge_call_reference(g, t) for t in grid]
    note = (
        f"grid of {len(grid)} points in [{grid[0]}, {grid[-1]}], one-sided sampling "
        f"resolution h*2^-{refine}, slack eta={eta}"
    )
    bad_values = [
        witness(t=t, value=v) for t, v in zip(grid, vals) if not math.isfinite(v) or v < 0
    ]
    reports = []

    def spacing(i, side):
        if side == "right":
            return grid[i + 1] - grid[i] if i + 1 < len(grid) else grid[i] - grid[i - 1]
        return grid[i] - grid[i - 1] if i > 0 else grid[i + 1] - grid[i]

    walks = {}

    def walk(i, sign):
        """Grid point i's one-sided probes on one side, walked the first time
        a profile entry reads them and shared by every later entry."""
        if (i, sign) not in walks:
            h = spacing(i, "right" if sign > 0 else "left")
            walks[i, sign] = limit_deviation_reference(g, grid[i], h, sign, refine, eta)
        return walks[i, sign]

    for entry in sorted(g.profile):
        cid = f"REG-{entry}"
        if bad_values:
            reports.append(CertificateReport(
                cid, Verdict.FAIL, bad_values[:4],
                resolution_note=note + "; gauge produced invalid values"))
            continue
        bad = []
        if entry == "nondecreasing":
            for i in range(len(grid) - 1):
                if vals[i + 1] < vals[i] - eta:
                    bad.append(witness(t_lo=grid[i], t_hi=grid[i + 1], drop=vals[i] - vals[i + 1]))
        elif entry == "right_continuous":
            for i, t in enumerate(grid):
                if t + spacing(i, "right") * 0.5 > g.t_max:
                    continue
                ok, dev = walk(i, +1)
                if not ok:
                    bad.append(witness(t=t, right_deviation=dev,
                                       resolution=spacing(i, "right") * 2.0 ** -refine))
        elif entry == "continuous":
            for i, t in enumerate(grid):
                if t + spacing(i, "right") * 0.5 <= g.t_max:
                    ok, dev = walk(i, +1)
                    if not ok:
                        bad.append(witness(t=t, side="right", deviation=dev))
                        continue
                if t > 0:
                    ok, dev = walk(i, -1)
                    if not ok:
                        bad.append(witness(t=t, side="left", deviation=dev))
        elif entry == "positive_on_positive":
            for t, v in zip(grid, vals):
                if t > 0 and v <= 0.0:
                    bad.append(witness(t=t, value=v))
        elif entry == "zero_at_zero":
            v0 = gauge_call_reference(g, 0.0)
            if abs(v0) > eta:
                bad.append(witness(t=0.0, value=v0))
        elif entry == "strictly_below_identity":
            for t, v in zip(grid, vals):
                if t > 0.0 and v >= t:
                    bad.append(witness(t=t, value=v, margin=t - v))
        elif entry in ("upper_semicontinuous", "right_upper_semicontinuous"):
            sides = [+1] if entry == "right_upper_semicontinuous" else [+1, -1]
            for i, t in enumerate(grid):
                for sign in sides:
                    if sign > 0 and t + spacing(i, "right") * 0.5 > g.t_max:
                        continue
                    if sign < 0 and t <= 0:
                        continue
                    ok, dev = walk(i, sign)
                    if not ok and dev > eta:
                        bad.append(witness(t=t, side="right" if sign > 0 else "left",
                                           approach_excess=dev))
        reports.append(CertificateReport(cid, Verdict.FAIL if bad else Verdict.PASS, bad[:8],
                                         resolution_note=note))
    return reports


def require_profile_reference(g, entries, eta=1e-9):
    """require_profile as a loop over regularity_reference's reports: the
    gauge must declare every entry and pass it."""
    missing = set(entries) - set(g.profile)
    if missing:
        raise RefusalError(
            f"gauge {g.name!r} does not declare required profile entries {sorted(missing)}"
        )
    probe = Gauge(name=g.name, fn=g.fn, profile=frozenset(entries), t_max=g.t_max)
    for rep in regularity_reference(probe, eta=eta):
        if rep.verdict is Verdict.FAIL:
            raise RefusalError(
                f"gauge {g.name!r} fails required regularity {rep.condition_id}: "
                f"witness {rep.witnesses[0]}"
            )


def family_values_reference(family, t, horizon):
    """Members 1..horizon (at most the explicit members) at t, one scalar
    call each."""
    if family.kind == "iterated":
        out, v = [], float(t)
        for _ in range(horizon):
            v = gauge_call_reference(family.base, v)
            out.append(v)
        return out
    return [gauge_call_reference(family.members[n], float(t))
            for n in range(min(horizon, len(family.members)))]


def c6_reference(family, eps_grid, n_horizon=64, eta=1e-9):
    """check_family_C6 as a loop over the eps levels."""
    if isinstance(n_horizon, bool) or not isinstance(n_horizon, int) or n_horizon < 1:
        raise InputError(f"C6 horizon must be a positive integer, got {n_horizon!r}")
    if n_horizon < 4:
        return unchecked_reference("C6", f"nu horizon {n_horizon} is below the 4 members C6 "
                                         "reads a tail from")
    per_eps, wits, checked = [], [], n_horizon
    for eps in eps_grid:
        values = family_values_reference(family, eps, n_horizon)
        checked = len(values)
        q = max(1, len(values) // 4)
        tail = values[-q:]
        est = max(tail)
        stabilized = (max(tail) - min(tail)) <= eta
        monotone = all(b <= a + eta for a, b in zip(tail, tail[1:]))
        if est < eps - eta and (stabilized or monotone):
            per_eps.append(Verdict.PASS)
            wits.append(witness(eps=eps, limsup_estimate=est,
                                tail="stabilized" if stabilized else "nonincreasing"))
        elif est >= eps - eta and stabilized:
            per_eps.append(Verdict.FAIL)
            wits.append(witness(eps=eps, limsup_estimate=est, tail="stabilized"))
        else:
            per_eps.append(Verdict.INCONCLUSIVE)
            wits.append(witness(eps=eps, limsup_estimate=est, tail="unstable"))
    verdict = worst_verdict(per_eps)
    note = (f"tail over last quarter of horizon {n_horizon}; unstabilized, "
            f"non-monotone tails are never a pass")
    if checked < n_horizon:
        note += (f"; the family has only {checked} members, so the tail was read "
                 f"from those and no pass is claimed")
        if verdict is Verdict.PASS:
            verdict = Verdict.INCONCLUSIVE
    return CertificateReport("C6", verdict, wits, resolution_note=note)


def c7_reference(family, eps, delta_candidates=None, nu_horizon=64, eta=1e-9):
    """C7 at one eps as the walk over deltas, then 17 sampled t, then nu."""
    t_samples = 17
    if eps <= 0:
        raise InputError("C7 needs eps > 0")
    if delta_candidates is None:
        delta_candidates = tuple(2.0 ** -k for k in range(21))
    defeats = []
    for delta in delta_candidates:
        max_nu, defeated_t = 0, None
        for t in np.linspace(eps, eps + delta, t_samples):
            values = family_values_reference(family, float(t), nu_horizon)
            found = None
            for nu, v in enumerate(values, start=1):
                if v < eps - eta:
                    found = nu
                    break
            if found is None:
                defeated_t = float(t)
                break
            max_nu = max(max_nu, found)
        if defeated_t is None:
            return CertificateReport(
                "C7", Verdict.PASS, [witness(eps=eps, delta=delta, max_nu=max_nu)],
                resolution_note=f"{t_samples} samples per band, nu horizon {nu_horizon}")
        defeats.append(witness(eps=eps, delta=delta, defeating_t=defeated_t))
    return CertificateReport(
        "C7", Verdict.INCONCLUSIVE, defeats[:8],
        resolution_note=(
            "fail-evidence at this budget: every candidate delta has a sampled t "
            "no member pulls below eps; a finite search cannot refute the "
            "existential delta"
        ),
    )


def c7_multi_reference(family, eps_grid, delta_candidates=None, nu_horizon=64, eta=1e-9):
    if isinstance(nu_horizon, bool) or not isinstance(nu_horizon, int) or nu_horizon < 1:
        raise InputError(f"nu_horizon must be a positive integer, got {nu_horizon!r}")
    reports = [c7_reference(family, eps, delta_candidates, nu_horizon, eta)
               for eps in eps_grid]
    wits = []
    for rep in reports:
        wits.extend(rep.witnesses[:2])
    return CertificateReport("C7", worst_verdict(r.verdict for r in reports), wits,
                             resolution_note=f"merged over eps grid {list(eps_grid)}")


# ---------------------------------------------------------------------------
# Reports of conditions the data could not decide


def unchecked_reference(cid, why, budget=None):
    """An inconclusive report with no witness, saying why cid was not checked."""
    return CertificateReport(cid, Verdict.INCONCLUSIVE, [], budget,
                             f"{why}; {cid} was not checked")


def short_trace_reference(cid, points, need, budget):
    """cid unchecked on a trace of points points, fewer than the need the
    budget reads."""
    return unchecked_reference(
        cid, f"the trace holds {points} points, fewer than the {need} this budget reads", budget)


# ---------------------------------------------------------------------------
# The trace checkers in the paper's two-sequence form: the conditions read
# the pairs (x_n, y_n) of two traces under the first one's premetric; fplab
# reads one trace against its forward shift, y_n = x_{n+1}


def aligned_gaps_reference(trace_x, trace_y) -> list[float]:
    """p(x_n, y_n) for n below the shorter length, one pair at a time."""
    p, n = trace_x.premetric, min(len(trace_x), len(trace_y))
    return [checked_premetric_reference(p, a, b)
            for a, b in zip(trace_x.coords[:n], trace_y.coords[:n])]


def check_asf1_reference(trace_x, trace_y, *, budget):
    """C1, C2 and C3 on the aligned gaps, one index and one shift at a time."""
    gaps = aligned_gaps_reference(trace_x, trace_y)
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    if len(gaps) < ih + nh:
        return [short_trace_reference(cid, len(gaps) + 1, ih + nh + 1, budget)
                for cid in ("C1", "C2", "C3")]
    front = gaps[:ih]
    ahead = [gaps[i + 1:i + nh + 1] for i in range(ih)]
    tail = max(gaps[-max(1, len(gaps) // 4):])

    c1_wits, c1_verdicts = [], []
    for eps in budget.eps_grid:
        if tail <= eps + eta:
            c1_wits.append(witness(eps=eps, delta=budget.delta_candidates[0],
                                   tail_limsup_estimate=tail))
            c1_verdicts.append(Verdict.PASS)
            continue
        smallest = min(front)
        delta = next((d for d in budget.delta_candidates if d <= smallest), None)
        if delta is not None:
            c1_wits.append(witness(eps=eps, delta=delta, tail_limsup_estimate=tail,
                                   smallest_front_gap=smallest, vacuous=True))
            c1_verdicts.append(Verdict.PASS)
        else:
            i = front.index(smallest)
            c1_wits.append(witness(eps=eps, index=i, gap=front[i], tail_limsup_estimate=tail))
            c1_verdicts.append(Verdict.FAIL)
    c1 = CertificateReport(
        "C1", worst_verdict(c1_verdicts), c1_wits, budget,
        "tail-limsup estimated as the max over the last quarter of the stored gaps; "
        "vacuous pass means no front gap sits below the witnessing delta")

    c2_wits, c2_verdicts = [], []
    for eps in budget.eps_grid:
        outcome = defeat = None
        for delta in budget.delta_candidates:
            band = [i for i in range(ih) if eps < front[i] < eps + delta]
            if not band:
                outcome = witness(eps=eps, delta=delta, in_band=0, vacuous=True)
                break
            bad = [i for i in band if min(ahead[i]) > eps + eta]
            if not bad:
                nu = max(next(k for k, g in enumerate(ahead[i], start=1) if g <= eps + eta)
                         for i in band)
                outcome = witness(eps=eps, delta=delta, nu=nu, in_band=len(band))
                break
            defeat = witness(eps=eps, delta=delta, index=bad[0], gap=front[bad[0]],
                             best_follow_up=min(ahead[bad[0]]))
        c2_wits.append(defeat if outcome is None else outcome)
        c2_verdicts.append(Verdict.FAIL if outcome is None else Verdict.PASS)
    c2 = CertificateReport("C2", worst_verdict(c2_verdicts), c2_wits, budget, _BAND_NOTE)

    active = [i for i in range(ih) if front[i] > eta]
    stuck = [i for i in active if min(ahead[i]) >= front[i] - eta]
    if not active:
        c3 = CertificateReport("C3", Verdict.PASS, [witness(
            triggered=0, note="every value is already within the slack of zero")],
            budget, _STRICT_NOTE)
    elif stuck:
        c3 = CertificateReport("C3", Verdict.FAIL, [
            witness(index=i, gap=front[i], best_follow_up=min(ahead[i])) for i in stuck[:8]],
            budget, _STRICT_NOTE)
    else:
        nu = max(next(k for k, g in enumerate(ahead[i], start=1) if g < front[i] - eta)
                 for i in active)
        c3 = CertificateReport("C3", Verdict.PASS, [witness(triggered=len(active), nu=nu)],
                               budget, _STRICT_NOTE)
    return [c1, c2, c3]


def check_p_controls_d_reference(trace_pairs, eta=1e-9, d_tol=1e-6):
    """PCD on pairs of traces: the tail of the aligned p-gaps, and where it
    is below eta the tail of the aligned distances, one pair at a time."""
    if not trace_pairs:
        raise InputError("need at least one trace")
    defeats, activated = [], 0
    for idx, (tx, ty) in enumerate(trace_pairs):
        n = min(len(tx), len(ty))
        if n < 1:
            continue
        start = n - max(1, n // 4)
        p_tail = max(aligned_gaps_reference(tx, ty)[start:])
        if p_tail >= eta:
            continue
        activated += 1
        d_tail = max(metric_reference(tx.premetric.space, tx.coords[k], ty.coords[k])
                     for k in range(start, n))
        if d_tail >= d_tol:
            defeats.append(witness(pair=idx, tail_p=p_tail, tail_d=d_tail))
    note = (f"{len(trace_pairs)} supplied pairs, {activated} with tail p-gap below {eta}; "
            f"d tolerance {d_tol}; tails over the last quarter of each pair")
    if defeats:
        return CertificateReport("PCD", Verdict.FAIL, defeats, None, note)
    return CertificateReport("PCD", Verdict.PASS, [witness(activated=activated)], None, note)


# ---------------------------------------------------------------------------
# The family walk: the per-kind branch loops C8/C9 and E1/E2 replaced


def check_asmk_reference(trace_x, trace_y, f_gauge, family, *, budget, variant="asmk1"):
    """check_asmk as it was: one branch per family kind, an explicit member
    re-applied to the front block at each shift, and np.nonzero on every
    shift."""
    if variant not in ASMK_VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; use asmk1 or asmk2")
    require_profile_reference(f_gauge, F_PROFILE, eta=budget.slack)
    f_zero = gauge_call_reference(f_gauge, 0.0)
    if f_zero <= 0.0 and not family.zero_fixed:
        raise RefusalError(
            "the gauge family must declare members fixing zero because F(0) <= 0 "
            f"(measured F(0)={f_zero})"
        )
    note = (
        f"F(0)={f_zero} measured, family {family.describe()}; domination tested with "
        f"slack {budget.slack} for shifts 1..{budget.nu_horizon}"
    )
    c6 = c6_reference(family, budget.eps_grid, n_horizon=budget.nu_horizon, eta=budget.slack)
    c7 = c7_multi_reference(family, budget.eps_grid, budget.delta_candidates,
                            nu_horizon=budget.nu_horizon, eta=budget.slack)
    ih, nh, eta = budget.index_horizon, budget.nu_horizon, budget.slack
    p = trace_x.premetric
    # x_n against y_n = x_{n+1}: the pairs reach as far as the shorter trace
    pairs = min(len(trace_x), len(trace_y))
    if variant == "asmk1":
        gaps = np.array(aligned_gaps_reference(trace_x, trace_y), dtype=float)
        if gaps.shape[0] < ih + nh:
            return [c6, c7, short_trace_reference("C8", pairs + 1, ih + nh + 1, budget)]
        fg = gauge_values_reference(f_gauge, gaps)
        base_block = fg[:ih]
        cid = "C8"
    else:
        if pairs < ih + nh:
            return [c6, c7, short_trace_reference("C9", pairs + 1, ih + nh + 1, budget)]
        fg = gauge_values_reference(f_gauge, [[checked_premetric_reference(p, a, b)
                                               for b in trace_y.coords[:ih + nh]]
                                              for a in trace_x.coords[:ih + nh]])
        base_block = fg[:ih, :ih]
        cid = "C9"
    defeats = []
    dominated = base_block.copy()
    checked = 0
    for n in range(1, nh + 1):
        if family.kind == "iterated":
            dominated = gauge_values_reference(family.base, dominated)
        else:
            if n > len(family.members):
                break
            dominated = gauge_values_reference(family.members[n - 1], base_block)
        checked = n
        lhs = fg[n:n + ih] if variant == "asmk1" else fg[n:n + ih, n:n + ih]
        bad = np.nonzero(lhs > dominated + eta)
        if variant == "asmk1":
            for i in bad[0][:2]:
                defeats.append(witness(n=n, i=int(i), lhs=float(lhs[i]),
                                       rhs=float(dominated[i])))
        else:
            for i, j in list(zip(bad[0], bad[1]))[:2]:
                defeats.append(witness(n=n, i=int(i), j=int(j), lhs=float(lhs[i, j]),
                                       rhs=float(dominated[i, j])))
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


def iterate_gauge_reference(family, n, t):
    """Member n (from 1) of a family at t, rebuilt from t with n scalar
    calls: the reference for the walk gauges._members takes."""
    if family.kind == "iterated":
        v = float(t)
        for _ in range(n):
            v = gauge_call_reference(family.base, v)
        return v
    return gauge_call_reference(family.members[n - 1], t)


# ---------------------------------------------------------------------------
# The JSON form of a result: the hand-written methods sanitize replaced


def json_leaf_reference(value):
    """A plain value as the JSON methods wrote it: dicts and lists walked, a
    float kept when finite and written as its repr ("inf", "-inf", "nan")
    when not, anything else as it is."""
    if isinstance(value, dict):
        return {k: json_leaf_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_leaf_reference(v) for v in value]
    if isinstance(value, float):
        value = float(value)
        return value if math.isfinite(value) else repr(value)
    return value


def budget_json_reference(b):
    return {
        "eps_grid": list(b.eps_grid),
        "delta_candidates": list(b.delta_candidates),
        "nu_horizon": b.nu_horizon,
        "index_horizon": b.index_horizon,
        "pair_samples": b.pair_samples,
        "slack": b.slack,
    }


def report_json_reference(r):
    return {
        "condition_id": r.condition_id,
        "verdict": r.verdict.value,
        "witnesses": json_leaf_reference(r.witnesses),
        "budget": budget_json_reference(r.budget) if r.budget is not None else None,
        "resolution_note": r.resolution_note,
    }


def solve_json_reference(res):
    return {
        "point": [json_leaf_reference(c) for c in res.point.coords],
        "residual": json_leaf_reference(res.residual),
        "iterations": res.iterations,
        "converged": res.converged,
    }


def certificate_json_reference(cert):
    return {
        "route": cert.route,
        "hypotheses": [report_json_reference(r) for r in cert.hypotheses],
        "diagnostic": report_json_reference(cert.diagnostic),
        "overall": cert.overall.value,
    }


def noncauchy_json_reference(w):
    return {
        "sigma": list(w.sigma),
        "rho": list(w.rho),
        "k": list(w.k),
        "separation_gaps": [json_leaf_reference(g) for g in w.separation_gaps],
        "straddle_gaps": [json_leaf_reference(g) for g in w.straddle_gaps],
        "eps": w.eps,
        "parity_note": w.parity_note,
    }


def scan_json_reference(scan):
    return {
        "status": scan.status,
        "witness": noncauchy_json_reference(scan.witness) if scan.witness else None,
        "note": scan.note,
    }
