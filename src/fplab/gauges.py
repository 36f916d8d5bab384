"""Comparison gauges on [0, inf) and families of them.

A Gauge wraps an element-wise function on arrays of t together with the
regularity profile its author claims for it; verify_gauge_regularity tests
each claimed entry numerically.  Families (explicit lists or the iterates of a base gauge)
feed the tail conditions used by the sequence certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import ConfigurationError, InputError, RefusalError
from .expressions import Expression, compile_expression
from .reports import MAX_WITNESSES, CertificateReport, Verdict, _as_float, \
    _default_delta_candidates, _is_count, _is_real, last_quarter, unchecked, witness, \
    worst_verdict

PROFILE_NAMES = frozenset(
    {
        "nondecreasing",
        "right_continuous",
        "continuous",
        "positive_on_positive",
        "zero_at_zero",
        "strictly_below_identity",
        "upper_semicontinuous",
        "right_upper_semicontinuous",
    }
)

DEFAULT_T_MAX = 1e3


@dataclass(frozen=True)
class Gauge:
    """A gauge on [0, t_max] with a declared regularity profile.

    fn maps a float array of t values to the array of their images, element
    by element, as an Expression in t does; a call on one t evaluates it on
    a 0-d array, so scalar and array calls round alike.  Evaluation outside
    [0, t_max] is an input error: gauges are only ever probed inside their
    declared working range.
    """

    name: str
    fn: Expression | Callable[[np.ndarray], np.ndarray]
    profile: frozenset = frozenset()
    t_max: float = DEFAULT_T_MAX

    def __post_init__(self) -> None:
        unknown = set(self.profile) - PROFILE_NAMES
        if unknown:
            raise ConfigurationError(f"unknown gauge profile entries {sorted(unknown)}")
        if not (_is_real(self.t_max) and 0 < _as_float(self.t_max) < math.inf):
            raise ConfigurationError("gauge t_max must be positive and finite")
        object.__setattr__(self, "profile", frozenset(self.profile))

    def _check_range(self, t: float) -> None:
        # written so that NaN, which compares false with everything, is refused
        if not 0 <= t <= self.t_max:
            raise InputError(
                f"gauge {self.name!r} evaluated at t={t} outside its working range "
                f"[0, {self.t_max}]"
            )

    def __call__(self, t: float) -> float:
        return float(self.apply_array(np.array(float(t))))

    def apply_array(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr, dtype=float)
        if arr.size:
            lo, hi = float(np.min(arr)), float(np.max(arr))
            self._check_range(lo)
            self._check_range(hi)
        with np.errstate(all="ignore"):
            try:
                out = self.fn(t=arr) if isinstance(self.fn, Expression) else self.fn(arr)
            except (TypeError, ValueError) as exc:
                raise InputError(
                    f"gauge {self.name!r} failed on an array of shape {arr.shape}: its fn "
                    f"must map a float array to a float array of the same shape ({exc})"
                ) from exc
        out = np.asarray(out, dtype=float)
        if out.shape != arr.shape:
            # a gauge that ignores t, such as the expression "0.5"
            out = np.full(arr.shape, out)
        return out

    def masked(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """apply_array without its range check: the images, and the mask of
        the t outside [0, t_max] (NaN included), whose images are g(0.0)."""
        arr = np.asarray(arr, dtype=float)
        ok = (arr >= 0) & (arr <= self.t_max)
        return self.apply_array(np.where(ok, arr, 0.0)), ~ok


_FULLY_REGULAR = frozenset(
    {
        "nondecreasing",
        "right_continuous",
        "continuous",
        "positive_on_positive",
        "zero_at_zero",
        "upper_semicontinuous",
        "right_upper_semicontinuous",
    }
)

_BUILTINS: dict[str, tuple[Callable[[Any], Any], frozenset]] = {
    "half": (lambda t: 0.5 * t, _FULLY_REGULAR | {"strictly_below_identity"}),
    "mk": (lambda t: t / (1.0 + t), _FULLY_REGULAR | {"strictly_below_identity"}),
    "id": (lambda t: t, _FULLY_REGULAR),
    "step01": (
        lambda t: np.where(np.asarray(t, dtype=float) < 1.0, 0.0, 1.0),
        frozenset(
            {
                "nondecreasing",
                "right_continuous",
                "zero_at_zero",
                "upper_semicontinuous",
                "right_upper_semicontinuous",
            }
        ),
    ),
}


def builtin_gauge(name: str, t_max: float = DEFAULT_T_MAX, profile: frozenset | None = None) -> Gauge:
    if name not in _BUILTINS:
        raise ConfigurationError(f"unknown builtin gauge {name!r}; have {sorted(_BUILTINS)}")
    fn, default_profile = _BUILTINS[name]
    return Gauge(name=name, fn=fn, profile=profile if profile is not None else default_profile,
                 t_max=t_max)


def expression_gauge(
    source: str,
    name: str | None = None,
    profile: frozenset = frozenset(),
    t_max: float = DEFAULT_T_MAX,
) -> Gauge:
    expr = compile_expression(source, variables=("t",))
    return Gauge(name=name or source, fn=expr, profile=profile, t_max=t_max)


@dataclass(frozen=True)
class GaugeFamily:
    """Indexed family of gauges: explicit members or iterates of a base.

    zero_fixed declares that every member sends 0 to 0.
    """

    kind: str  # "iterated" | "explicit"
    zero_fixed: bool
    base: Gauge | None = None
    members: tuple[Gauge, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "iterated":
            if self.base is None:
                raise ConfigurationError("iterated family needs a base gauge")
        elif self.kind == "explicit":
            if not self.members:
                raise ConfigurationError("explicit family needs at least one member")
        else:
            raise ConfigurationError(f"unknown family kind {self.kind!r}")

    def describe(self) -> str:
        if self.kind == "iterated":
            return f"iterated({self.base.name})"
        return f"explicit[{len(self.members)}]"


def iterated_family(base: Gauge) -> GaugeFamily:
    """The iterates of base; they fix zero exactly when base does."""
    return GaugeFamily(kind="iterated", zero_fixed=base(0.0) == 0.0, base=base)


def explicit_family(members: list[Gauge], zero_fixed: bool) -> GaugeFamily:
    return GaugeFamily(kind="explicit", zero_fixed=zero_fixed, members=tuple(members))


# ---------------------------------------------------------------------------
# Regularity verification


#: Halvings of the grid spacing behind each one-sided regularity probe.
REGULARITY_REFINE = 20


def regularity_grid(t_max: float = DEFAULT_T_MAX) -> tuple[float, ...]:
    """The verification grid: log-spaced down to 1e-6 plus a linear band
    through the unit scale (contains 0 and 1 exactly), strictly increasing
    inside [0, t_max]."""
    # near the largest float, 10**log10(t_max) can round past it to inf,
    # which the range filter below drops
    with np.errstate(over="ignore"):
        log_part = np.logspace(-6, math.log10(t_max), 40)
    lin_part = np.linspace(0.0, min(10.0, t_max), 41)
    grid = np.unique(np.concatenate([log_part, lin_part, [0.0]]))
    return tuple(float(t) for t in grid if 0.0 <= t <= t_max)


def _one_sided(g: Gauge, grid: np.ndarray, vals: np.ndarray, sign: int,
               eta: float) -> tuple[list[bool], list[float], np.ndarray]:
    """Probe g(t + sign*h*2^-k), k = 1..REGULARITY_REFINE, at every grid
    point in one apply_array call; h is the spacing to that side's neighbour
    (the other side's at the ends), and a probe outside [0, t_max] deviates
    0.0.  Per point: whether the side is probed and its final deviation
    misses both the tolerance and a quarter of the middle one (a jump), that
    deviation, h."""
    gaps = np.diff(grid)
    h = np.append(gaps, gaps[-1]) if sign > 0 else np.insert(gaps, 0, gaps[0])
    probes = grid[:, None] + (sign * h)[:, None] * 2.0 ** -np.arange(1, REGULARITY_REFINE + 1)
    images, outside = g.masked(probes)
    devs = np.where(outside, 0.0, images - vals[:, None])
    final, mid = devs[:, -1], devs[:, REGULARITY_REFINE // 2]
    scaled = eta * np.abs(vals)
    tol = np.where(scaled > eta, scaled, eta)  # max(eta, eta * |g(t)|)
    ok = (np.abs(final) <= tol) | (np.abs(final) <= 0.25 * np.abs(mid))
    probed = grid + h * 0.5 <= g.t_max if sign > 0 else grid > 0
    return (probed & ~ok).tolist(), final.tolist(), h


def verify_gauge_regularity(g: Gauge, eta: float = 1e-9) -> list[CertificateReport]:
    """One report per profile entry (ids REG-<entry>), probed on
    regularity_grid(g.t_max) at resolution h*2^-REGULARITY_REFINE.  The grid
    values and each side's one-sided probes are one apply_array call each.

    Raises:
        InputError: a t_max so small that the grid has fewer than 3 points.
    """
    grid = regularity_grid(g.t_max)
    if len(grid) < 3:
        raise InputError(f"gauge t_max {g.t_max} leaves {len(grid)} verification grid "
                         f"points, fewer than 3")
    ts = np.array(grid)
    values = g.apply_array(ts)
    vals = values.tolist()
    note = (
        f"grid of {len(grid)} points in [{grid[0]}, {grid[-1]}], one-sided sampling "
        f"resolution h*2^-{REGULARITY_REFINE}, slack eta={eta}"
    )
    bad_values = [
        witness(t=t, value=v) for t, v in zip(grid, vals) if not math.isfinite(v) or v < 0
    ]
    reports: list[CertificateReport] = []
    sides: dict[str, tuple] = {}

    def side(name: str) -> tuple:
        # each side is probed once, for the first entry that reads it
        if name not in sides:
            sides[name] = _one_sided(g, ts, values, 1 if name == "right" else -1, eta)
        return sides[name]

    for entry in sorted(g.profile):
        cid = f"REG-{entry}"
        if bad_values:
            reports.append(
                CertificateReport(cid, Verdict.FAIL, bad_values[:4],
                                  resolution_note=note + "; gauge produced invalid values")
            )
            continue
        bad: list[dict] = []
        if entry == "nondecreasing":
            for i in range(len(grid) - 1):
                if vals[i + 1] < vals[i] - eta:
                    bad.append(witness(t_lo=grid[i], t_hi=grid[i + 1],
                                       drop=vals[i] - vals[i + 1]))
        elif entry == "right_continuous":
            fails, final, h = side("right")
            bad = [witness(t=t, right_deviation=final[i],
                           resolution=h[i] * 2.0 ** -REGULARITY_REFINE)
                   for i, t in enumerate(grid) if fails[i]]
        elif entry == "continuous":
            (right_fails, right_dev, _), (left_fails, left_dev, _) = side("right"), side("left")
            for i, t in enumerate(grid):
                # a point that fails on the right is not probed on the left
                if right_fails[i]:
                    bad.append(witness(t=t, side="right", deviation=right_dev[i]))
                elif left_fails[i]:
                    bad.append(witness(t=t, side="left", deviation=left_dev[i]))
        elif entry == "positive_on_positive":
            for t, v in zip(grid, vals):
                if t > 0 and v <= 0.0:
                    bad.append(witness(t=t, value=v))
        elif entry == "zero_at_zero":
            v0 = g(0.0)
            if abs(v0) > eta:
                bad.append(witness(t=0.0, value=v0))
        elif entry == "strictly_below_identity":
            # strict claim: only a value at or above the identity refutes it;
            # a sub-eta positive margin still counts as strictly below
            for t, v in zip(grid, vals):
                if t > 0.0 and v >= t:
                    bad.append(witness(t=t, value=v, margin=t - v))
        elif entry in ("upper_semicontinuous", "right_upper_semicontinuous"):
            names = ("right",) if entry == "right_upper_semicontinuous" else ("right", "left")
            bad = [witness(t=t, side=name, approach_excess=side(name)[1][i])
                   for i, t in enumerate(grid) for name in names
                   if side(name)[0][i] and side(name)[1][i] > eta]
        reports.append(
            CertificateReport(cid, Verdict.FAIL if bad else Verdict.PASS, bad[:MAX_WITNESSES],
                              resolution_note=note)
        )
    return reports


def require_profile(g: Gauge, entries: frozenset, eta: float = 1e-9) -> None:
    """Refuse (loudly) unless the gauge declares *and* numerically passes
    every requested profile entry.  Used as a checker precondition."""
    missing = set(entries) - set(g.profile)
    if missing:
        raise RefusalError(
            f"gauge {g.name!r} does not declare required profile entries {sorted(missing)}"
        )
    probe = Gauge(name=g.name, fn=g.fn, profile=frozenset(entries), t_max=g.t_max)
    for rep in verify_gauge_regularity(probe, eta=eta):
        if rep.verdict is Verdict.FAIL:
            raise RefusalError(
                f"gauge {g.name!r} fails required regularity {rep.condition_id}: "
                f"witness {rep.witnesses[0]}"
            )


# ---------------------------------------------------------------------------
# Family tail conditions


def _members(family: GaugeFamily, ts, horizon: int):
    """Yield members 1, 2, ... up to the horizon (and at most the explicit
    members), each evaluated on the whole block ts with one apply_array.
    Every family search walks this generator, lazily, so a caller that stops
    early evaluates no member past the one it stopped at."""
    v = np.asarray(ts, dtype=float)
    if family.kind == "iterated":
        for _ in range(horizon):
            v = family.base.apply_array(v)
            yield v
    else:
        for n in range(min(horizon, len(family.members))):
            yield family.members[n].apply_array(v)


#: The fewest members whose last quarter C6 reads as a tail.
C6_MIN_HORIZON = 4


def check_family_C6(
    family: GaugeFamily,
    eps_grid: tuple[float, ...],
    n_horizon: int = 64,
    eta: float = 1e-9,
) -> CertificateReport:
    """Tail-limsup of member_n(eps) must sit strictly below eps.

    The limsup is estimated as the max over the last quarter of the horizon.
    A pass needs that estimate below eps - eta together with a stabilized
    (variation <= eta) or nonincreasing-within-eta tail; a stabilized tail at
    or above eps - eta fails; anything else is inconclusive.  An explicit
    family shorter than the horizon never reaches it, so it can fail but
    never pass.  Each member is evaluated at every eps at once.  A horizon
    below C6_MIN_HORIZON holds no tail: C6 is then unchecked.

    Raises:
        InputError: n_horizon is not a positive integer.
    """
    if not _is_count(n_horizon):
        raise InputError(f"C6 horizon must be a positive integer, got {n_horizon!r}")
    if n_horizon < C6_MIN_HORIZON:
        return unchecked("C6", f"nu horizon {n_horizon} is below the {C6_MIN_HORIZON} members "
                               "C6 reads a tail from")
    try:
        block = np.array(list(_members(family, eps_grid, n_horizon)))
    except InputError:
        # one level at a time meets the error the eps-by-eps walk meets first
        for eps in eps_grid:
            list(_members(family, [eps], n_horizon))
        raise
    per_eps: list[Verdict] = []
    wits: list[dict] = []
    checked = n_horizon
    for eps, tail in zip(eps_grid, last_quarter(block.T).tolist()):
        checked = block.shape[0]
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


def _first_hits(family: GaugeFamily, ts: np.ndarray, below, horizon: int):
    """Per t, the least nu <= horizon with member_nu(t) < below, or 0, and
    whether a member up to the horizon meets a t off its range there."""
    hits, off, v = np.zeros(ts.shape, dtype=int), np.zeros(ts.shape, dtype=bool), ts
    iterated = family.kind == "iterated"
    for nu, g in enumerate([family.base] * horizon if iterated else family.members[:horizon],
                           start=1):
        v, bad = g.masked(v if iterated else ts)
        off |= bad
        hits[(hits == 0) & (v < below)] = nu
    return hits, off


#: Evenly spaced t per C7 band [eps, eps + delta], both ends included.
C7_T_SAMPLES = 17


def _c7_reports(family, eps_grid, deltas, nu_horizon, eta) -> list[CertificateReport]:
    """One C7 report per eps.  Every (eps, delta, t) cell is searched in one
    masked block, nu_horizon apply_array calls in all.  Each band stops at
    its first t that a member up to the horizon meets off its range or that
    no member pulls below eps; an off-range stop raises, from the members
    at that t alone, the error a walk over (eps, delta, t) meets first."""
    if deltas is None:
        deltas = _default_delta_candidates()
    eps_col = np.asarray(eps_grid, dtype=float)[:, None, None]
    stops = eps_col + np.asarray(deltas, dtype=float)[:, None]
    # each band's np.linspace(eps, stop, C7_T_SAMPLES), bit for bit: linspace
    # scales a zero step as k / 16 * (stop - eps), in that band only here
    k, span = np.arange(C7_T_SAMPLES, dtype=float), stops - eps_col
    step = span / (C7_T_SAMPLES - 1)
    ts = np.where(step == 0, k / (C7_T_SAMPLES - 1) * span, k * step) + eps_col
    ts[..., -1:] = stops
    hits, off = _first_hits(family, ts, eps_col - eta, nu_horizon)
    reports = []
    for i, eps in enumerate(eps_grid):
        if eps <= 0:
            raise InputError("C7 needs eps > 0")
        defeats: list[dict] = []
        for delta, band_ts, band_hits, band_off in zip(deltas, ts[i], hits[i], off[i]):
            stop = np.flatnonzero(band_off | (band_hits == 0))
            if not stop.size:
                reports.append(CertificateReport(
                    "C7", Verdict.PASS,
                    [witness(eps=eps, delta=delta, max_nu=int(band_hits.max(initial=0)))],
                    resolution_note=f"{C7_T_SAMPLES} samples per band, nu horizon {nu_horizon}"))
                break
            t = band_ts[stop[0]]
            if band_off[stop[0]]:
                list(_members(family, t, nu_horizon))  # raises the walk's error at t
            defeats.append(witness(eps=eps, delta=delta, defeating_t=float(t)))
        else:
            reports.append(CertificateReport(
                "C7", Verdict.INCONCLUSIVE, defeats[:MAX_WITNESSES],
                resolution_note=("fail-evidence at this budget: every candidate delta has a "
                                 "sampled t no member pulls below eps; a finite search cannot "
                                 "refute the existential delta")))
    return reports


def check_family_C7_multi(
    family: GaugeFamily,
    eps_grid: tuple[float, ...],
    delta_candidates: tuple[float, ...] | None = None,
    nu_horizon: int = 64,
    eta: float = 1e-9,
) -> CertificateReport:
    """C7 at each eps of the grid, merged into one report: search (delta,
    per-t nu) so every t in [eps, eps+delta] is pulled strictly below eps by
    some member with index <= nu_horizon.

    At one eps, a defeat for every candidate delta is inconclusive with the
    defeating t recorded: a finite search cannot refute the existential.
    The merged verdict is the worst, with each eps's first two witnesses.

    Raises:
        InputError: nu_horizon not an integer of at least 1, some eps <= 0,
            or a member probed outside its gauge's working range.
    """
    if not _is_count(nu_horizon):
        raise InputError(f"nu_horizon must be a positive integer, got {nu_horizon!r}")
    reports = _c7_reports(family, eps_grid, delta_candidates, nu_horizon, eta)
    wits: list[dict] = []
    for rep in reports:
        wits.extend(rep.witnesses[:2])
    return CertificateReport(
        "C7",
        worst_verdict(r.verdict for r in reports),
        wits,
        resolution_note=f"merged over eps grid {list(eps_grid)}",
    )
